use crate::policy::{CompressionPolicy, LayerPolicy};
use crate::sensitivity::SensitivityProfile;
use crate::LucError;
use edge_llm_telemetry as telemetry;

/// Search strategy for the unified per-layer policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchAlgorithm {
    /// Repeatedly apply the compression move with the best
    /// cost-saved-per-loss-added ratio until the budget is met.
    Greedy,
    /// Multiple-choice knapsack over discretized layer costs — optimal up
    /// to the discretization resolution.
    DynamicProgramming,
    /// Enumerate every assignment (only viable for small models; guarded).
    Exhaustive,
}

/// Result of a policy search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The chosen per-layer policy.
    pub policy: CompressionPolicy,
    /// Total predicted loss increase under the additive model.
    pub predicted_delta: f32,
    /// Candidate evaluations performed (search-cost metric).
    pub evaluations: usize,
}

#[derive(Debug, Clone, Copy)]
struct Combo {
    bit_idx: usize,
    ratio_idx: usize,
    cost: f32,
}

fn combos(profile: &SensitivityProfile) -> Vec<Combo> {
    let mut out = Vec::new();
    for (bi, &bits) in profile.bit_choices.iter().enumerate() {
        for (ri, &prune_ratio) in profile.ratio_choices.iter().enumerate() {
            let cost = LayerPolicy { bits, prune_ratio }.cost();
            out.push(Combo {
                bit_idx: bi,
                ratio_idx: ri,
                cost,
            });
        }
    }
    out
}

fn policy_of(profile: &SensitivityProfile, picks: &[Combo]) -> CompressionPolicy {
    CompressionPolicy::from_layers(
        picks
            .iter()
            .map(|c| LayerPolicy {
                bits: profile.bit_choices[c.bit_idx],
                prune_ratio: profile.ratio_choices[c.ratio_idx],
            })
            .collect(),
    )
}

fn total_delta(profile: &SensitivityProfile, picks: &[Combo]) -> f32 {
    picks
        .iter()
        .enumerate()
        .map(|(l, c)| profile.predicted_delta(l, c.bit_idx, c.ratio_idx))
        .sum()
}

/// Searches for the per-layer policy minimizing predicted loss increase
/// subject to `mean cost <= budget`.
///
/// `budget` is in the normalized cost units of [`LayerPolicy::cost`]
/// (1.0 = 16-bit dense everywhere).
///
/// # Errors
///
/// Returns [`LucError::InfeasibleBudget`] when even the cheapest combo per
/// layer exceeds the budget, [`LucError::ProfileMismatch`] for invalid
/// profiles, and [`LucError::BadParameter`] when an exhaustive search would
/// exceed its safety bound.
pub fn search_policy(
    profile: &SensitivityProfile,
    budget: f32,
    algorithm: SearchAlgorithm,
) -> Result<SearchOutcome, LucError> {
    let _span = telemetry::span("luc.search");
    profile.validate()?;
    let all = combos(profile);
    let n = profile.n_layers();
    let min_cost = all.iter().map(|c| c.cost).fold(f32::INFINITY, f32::min);
    if budget < min_cost {
        return Err(LucError::InfeasibleBudget {
            budget,
            min_achievable: min_cost,
        });
    }
    let outcome = match algorithm {
        SearchAlgorithm::Greedy => greedy(profile, &all, budget, n),
        SearchAlgorithm::DynamicProgramming => dp(profile, &all, budget, n),
        SearchAlgorithm::Exhaustive => exhaustive(profile, &all, budget, n),
    };
    if let Ok(outcome) = &outcome {
        telemetry::counter("luc.evaluations", outcome.evaluations as u64);
    }
    outcome
}

fn cheapest_per_delta(profile: &SensitivityProfile, all: &[Combo], layer: usize) -> Combo {
    // The combo with the lowest predicted delta (ties -> lower cost).
    let mut best = all[0];
    let mut best_key = (f32::INFINITY, f32::INFINITY);
    for &c in all {
        let d = profile.predicted_delta(layer, c.bit_idx, c.ratio_idx);
        let key = (d, c.cost);
        if key < best_key {
            best_key = key;
            best = c;
        }
    }
    best
}

fn greedy(
    profile: &SensitivityProfile,
    all: &[Combo],
    budget: f32,
    n: usize,
) -> Result<SearchOutcome, LucError> {
    let mut picks: Vec<Combo> = (0..n)
        .map(|l| cheapest_per_delta(profile, all, l))
        .collect();
    let mut evaluations = n * all.len();
    let target_total = budget * n as f32;
    loop {
        let current: f32 = picks.iter().map(|c| c.cost).sum();
        if current <= target_total + 1e-6 {
            break;
        }
        // best move: maximize cost saved per unit of added delta
        let mut best: Option<(usize, Combo, f32)> = None;
        for (l, &cur) in picks.iter().enumerate() {
            let cur_delta = profile.predicted_delta(l, cur.bit_idx, cur.ratio_idx);
            for &cand in all {
                evaluations += 1;
                if cand.cost >= cur.cost - 1e-9 {
                    continue;
                }
                let delta = profile.predicted_delta(l, cand.bit_idx, cand.ratio_idx);
                let added = (delta - cur_delta).max(1e-9);
                let score = (cur.cost - cand.cost) / added;
                if best.as_ref().is_none_or(|&(_, _, s)| score > s) {
                    best = Some((l, cand, score));
                }
            }
        }
        match best {
            Some((l, cand, _)) => picks[l] = cand,
            None => break, // no cheaper move exists
        }
    }
    let policy = policy_of(profile, &picks);
    let predicted_delta = total_delta(profile, &picks);
    Ok(SearchOutcome {
        policy,
        predicted_delta,
        evaluations,
    })
}

const DP_RESOLUTION: f32 = 320.0;

fn dp(
    profile: &SensitivityProfile,
    all: &[Combo],
    budget: f32,
    n: usize,
) -> Result<SearchOutcome, LucError> {
    let units = |c: f32| (c * DP_RESOLUTION).ceil() as usize;
    let budget_units = (budget * n as f32 * DP_RESOLUTION).floor() as usize;
    let mut dp_cost = vec![f32::INFINITY; budget_units + 1];
    let mut parents: Vec<Vec<Option<(usize, usize)>>> = Vec::with_capacity(n);
    dp_cost[0] = 0.0;
    let mut evaluations = 0usize;
    for l in 0..n {
        let mut next = vec![f32::INFINITY; budget_units + 1];
        let mut parent = vec![None; budget_units + 1];
        for (ci, &c) in all.iter().enumerate() {
            let cu = units(c.cost);
            let d = profile.predicted_delta(l, c.bit_idx, c.ratio_idx);
            evaluations += 1;
            for u in cu..=budget_units {
                let prev = dp_cost[u - cu];
                if prev.is_finite() && prev + d < next[u] {
                    next[u] = prev + d;
                    parent[u] = Some((ci, u - cu));
                }
            }
        }
        dp_cost = next;
        parents.push(parent);
    }
    // best reachable state; on equal predicted delta prefer the state that
    // uses more of the budget (the least aggressive compression)
    let (best_u, _) = dp_cost
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_finite())
        .min_by(|a, b| {
            a.1.partial_cmp(b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.0.cmp(&a.0))
        })
        .ok_or(LucError::InfeasibleBudget {
            budget,
            min_achievable: all.iter().map(|c| c.cost).fold(f32::INFINITY, f32::min),
        })?;
    // reconstruct
    let mut picks = vec![all[0]; n];
    let mut u = best_u;
    for l in (0..n).rev() {
        // Invariant: a layer's pass sets a state's parent wherever it makes
        // that state finite, and `u` is finite at every layer of the walk.
        #[allow(clippy::expect_used)]
        let (ci, pu) = parents[l][u].expect("reachable state must have a parent");
        picks[l] = all[ci];
        u = pu;
    }
    let policy = policy_of(profile, &picks);
    let predicted_delta = total_delta(profile, &picks);
    Ok(SearchOutcome {
        policy,
        predicted_delta,
        evaluations,
    })
}

const EXHAUSTIVE_LIMIT: u128 = 2_000_000;

fn exhaustive(
    profile: &SensitivityProfile,
    all: &[Combo],
    budget: f32,
    n: usize,
) -> Result<SearchOutcome, LucError> {
    let states = (all.len() as u128)
        .checked_pow(n as u32)
        .unwrap_or(u128::MAX);
    if states > EXHAUSTIVE_LIMIT {
        return Err(LucError::BadParameter {
            reason: format!("exhaustive search space {states} exceeds limit {EXHAUSTIVE_LIMIT}"),
        });
    }
    let target_total = budget * n as f32;
    let mut best: Option<(Vec<Combo>, f32)> = None;
    let mut picks = vec![all[0]; n];
    let mut evaluations = 0usize;
    let mut idx = vec![0usize; n];
    loop {
        for l in 0..n {
            picks[l] = all[idx[l]];
        }
        evaluations += 1;
        let cost: f32 = picks.iter().map(|c| c.cost).sum();
        if cost <= target_total + 1e-6 {
            let d = total_delta(profile, &picks);
            if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                best = Some((picks.clone(), d));
            }
        }
        // odometer increment
        let mut l = 0;
        loop {
            if l == n {
                let (picks, predicted_delta) = best.ok_or(LucError::InfeasibleBudget {
                    budget,
                    min_achievable: all.iter().map(|c| c.cost).fold(f32::INFINITY, f32::min),
                })?;
                return Ok(SearchOutcome {
                    policy: policy_of(profile, &picks),
                    predicted_delta,
                    evaluations,
                });
            }
            idx[l] += 1;
            if idx[l] < all.len() {
                break;
            }
            idx[l] = 0;
            l += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::{profile as run_profile, FnOracle};
    use edge_llm_quant::BitWidth;

    fn synthetic_profile(n: usize) -> SensitivityProfile {
        let mut oracle = FnOracle::new(
            n,
            move |layer, p: LayerPolicy| {
                let w = (layer + 1) as f32;
                1.0 + w * ((16.0 - p.bits.bits() as f32) / 16.0) * 0.1 + w * p.prune_ratio * 0.1
            },
            || 1.0,
        );
        run_profile(
            &mut oracle,
            &[BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16],
            &[0.0, 0.25, 0.5, 0.75],
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_respect_budget() {
        let prof = synthetic_profile(4);
        for algo in [
            SearchAlgorithm::Greedy,
            SearchAlgorithm::DynamicProgramming,
            SearchAlgorithm::Exhaustive,
        ] {
            let out = search_policy(&prof, 0.25, algo).unwrap();
            assert!(
                out.policy.mean_cost() <= 0.25 + 1e-4,
                "{algo:?}: {}",
                out.policy.mean_cost()
            );
            assert_eq!(out.policy.n_layers(), 4);
        }
    }

    #[test]
    fn luc_beats_uniform_at_matched_budget() {
        // the essence of T2: at equal mean cost, layer-wise allocation has a
        // smaller predicted loss increase than the uniform assignment
        let prof = synthetic_profile(6);
        let uniform = CompressionPolicy::uniform(6, BitWidth::W4, 0.0);
        let budget = uniform.mean_cost();
        let uniform_delta: f32 = (0..6)
            .map(|l| prof.predicted_delta(l, 1 /* W4 */, 0 /* 0.0 */))
            .sum();
        // DP is optimal over the discretized space, so it must match or
        // beat uniform; greedy is a heuristic and only has to stay close.
        let dp = search_policy(&prof, budget, SearchAlgorithm::DynamicProgramming).unwrap();
        assert!(
            dp.predicted_delta <= uniform_delta + 1e-5,
            "dp: searched {} vs uniform {uniform_delta}",
            dp.predicted_delta
        );
        let greedy = search_policy(&prof, budget, SearchAlgorithm::Greedy).unwrap();
        assert!(
            greedy.predicted_delta <= uniform_delta * 1.1,
            "greedy: searched {} vs uniform {uniform_delta}",
            greedy.predicted_delta
        );
    }

    #[test]
    fn dp_matches_exhaustive_on_small_problem() {
        let prof = synthetic_profile(3);
        let dp = search_policy(&prof, 0.3, SearchAlgorithm::DynamicProgramming).unwrap();
        let ex = search_policy(&prof, 0.3, SearchAlgorithm::Exhaustive).unwrap();
        assert!(
            (dp.predicted_delta - ex.predicted_delta).abs() < 1e-3,
            "dp {} vs exhaustive {}",
            dp.predicted_delta,
            ex.predicted_delta
        );
    }

    #[test]
    fn greedy_is_no_worse_than_double_optimal_here() {
        let prof = synthetic_profile(3);
        let gr = search_policy(&prof, 0.3, SearchAlgorithm::Greedy).unwrap();
        let ex = search_policy(&prof, 0.3, SearchAlgorithm::Exhaustive).unwrap();
        assert!(gr.predicted_delta <= 2.0 * ex.predicted_delta.max(1e-6));
    }

    #[test]
    fn sensitive_layers_get_gentler_compression() {
        let prof = synthetic_profile(6);
        let out = search_policy(&prof, 0.3, SearchAlgorithm::DynamicProgramming).unwrap();
        // layer 5 is 6x more sensitive than layer 0 in the synthetic
        // landscape, so its assigned cost should be at least layer 0's
        let c0 = out.policy.layer(0).cost();
        let c5 = out.policy.layer(5).cost();
        assert!(c5 >= c0, "sensitive layer got cheaper config: {c5} < {c0}");
    }

    #[test]
    fn infeasible_budget_errors() {
        let prof = synthetic_profile(2);
        assert!(matches!(
            search_policy(&prof, 0.001, SearchAlgorithm::Greedy),
            Err(LucError::InfeasibleBudget { .. })
        ));
    }

    #[test]
    fn exhaustive_guards_large_spaces() {
        let prof = synthetic_profile(12);
        assert!(matches!(
            search_policy(&prof, 0.5, SearchAlgorithm::Exhaustive),
            Err(LucError::BadParameter { .. })
        ));
    }

    #[test]
    fn relaxed_budget_returns_uncompressed() {
        let prof = synthetic_profile(3);
        let out = search_policy(&prof, 1.0, SearchAlgorithm::DynamicProgramming).unwrap();
        assert!(
            out.predicted_delta < 1e-6,
            "full budget should allow zero-delta policy"
        );
    }
}
