//! Property-based tests of LUC policy search invariants on randomized
//! sensitivity landscapes, driven by the in-repo seeded case harness
//! (`edge_llm_tensor::check`).

use edge_llm_luc::{
    pareto_frontier, profile, search_policy, CompressionPolicy, FnOracle, LayerPolicy, PolicyPoint,
    SearchAlgorithm, SensitivityProfile,
};
use edge_llm_quant::BitWidth;
use edge_llm_tensor::check::run_cases;

fn random_profile(n_layers: usize, seed: u64) -> SensitivityProfile {
    let mut weights = Vec::new();
    let mut s = seed;
    for _ in 0..n_layers {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        weights.push(0.2 + (s >> 33) as f32 / u32::MAX as f32 * 3.0);
    }
    let mut oracle = FnOracle::new(
        n_layers,
        move |layer, p: LayerPolicy| {
            let w = weights[layer];
            1.0 + w * ((16.0 - p.bits.bits() as f32) / 16.0) * 0.1 + w * p.prune_ratio * 0.1
        },
        || 1.0,
    );
    profile(
        &mut oracle,
        &[BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16],
        &[0.0, 0.25, 0.5, 0.75],
    )
    .unwrap()
}

#[test]
fn every_algorithm_respects_random_budgets() {
    run_cases("search respects budgets", 32, |g| {
        let n = g.usize_in(2, 7);
        let budget = g.f32_in(0.05, 1.0);
        let prof = random_profile(n, g.u64());
        for algo in [SearchAlgorithm::Greedy, SearchAlgorithm::DynamicProgramming] {
            let out = search_policy(&prof, budget, algo).unwrap();
            assert!(
                out.policy.mean_cost() <= budget + 1e-4,
                "{:?} at budget {}: cost {}",
                algo,
                budget,
                out.policy.mean_cost()
            );
            assert_eq!(out.policy.n_layers(), n);
            assert!(out.policy.validate().is_ok());
            assert!(out.predicted_delta >= 0.0);
        }
    });
}

#[test]
fn dp_matches_exhaustive_within_discretization() {
    run_cases("dp vs exhaustive", 32, |g| {
        let budget = g.f32_in(0.1, 0.9);
        let prof = random_profile(3, g.u64());
        let dp = search_policy(&prof, budget, SearchAlgorithm::DynamicProgramming).unwrap();
        let ex = search_policy(&prof, budget, SearchAlgorithm::Exhaustive).unwrap();
        // ceil-discretized DP can only lose a sliver of the budget
        assert!(
            dp.predicted_delta <= ex.predicted_delta + 0.05,
            "dp {} vs exhaustive {}",
            dp.predicted_delta,
            ex.predicted_delta
        );
    });
}

#[test]
fn looser_budgets_never_increase_delta() {
    run_cases("budget monotonicity", 32, |g| {
        let prof = random_profile(4, g.u64());
        let mut prev = f32::INFINITY;
        for budget in [0.1f32, 0.2, 0.4, 0.8, 1.0] {
            let out = search_policy(&prof, budget, SearchAlgorithm::DynamicProgramming).unwrap();
            assert!(
                out.predicted_delta <= prev + 1e-5,
                "budget {} made things worse: {} > {}",
                budget,
                out.predicted_delta,
                prev
            );
            prev = out.predicted_delta;
        }
    });
}

#[test]
fn pareto_frontier_is_monotone_and_minimal() {
    run_cases("pareto frontier", 32, |g| {
        let n_points = g.usize_in(2, 20);
        let points: Vec<PolicyPoint> = (0..n_points)
            .map(|_| {
                let s = g.u64();
                PolicyPoint {
                    cost: ((s >> 5) % 1000) as f32 / 1000.0,
                    loss: ((s >> 25) % 1000) as f32 / 1000.0,
                    policy: CompressionPolicy::identity(1),
                }
            })
            .collect();
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        for w in frontier.windows(2) {
            assert!(w[0].cost <= w[1].cost);
            assert!(w[0].loss >= w[1].loss);
        }
        // no frontier point is dominated by any input point
        for f in &frontier {
            for p in &points {
                let dominates =
                    (p.cost <= f.cost && p.loss < f.loss) || (p.cost < f.cost && p.loss <= f.loss);
                assert!(!dominates);
            }
        }
    });
}

#[test]
fn policy_cost_bounds() {
    run_cases("policy cost bounds", 32, |g| {
        let bits = *g.choose(&BitWidth::ALL);
        let ratio = g.f32_in(0.0, 0.99);
        let p = LayerPolicy {
            bits,
            prune_ratio: ratio,
        };
        assert!(p.cost() > 0.0);
        assert!(p.cost() <= 1.0);
        assert!(p.validate().is_ok());
    });
}
