//! Baseline construction: the uniform compression policy LUC is compared
//! against.

use edge_llm_luc::{CompressionPolicy, LayerPolicy};
use edge_llm_quant::BitWidth;

/// Candidate `(bits, ratio)` grid used when picking a uniform baseline.
const UNIFORM_GRID_RATIOS: [f32; 4] = [0.0, 0.25, 0.5, 0.75];

/// Picks the **least aggressive** uniform `(bits, ratio)` whose per-layer
/// cost meets `budget` — i.e. the best quality a uniform policy can buy at
/// the budget, which is the fair T2 comparison point for LUC.
///
/// Preference order: maximize cost (closest under budget), then prefer
/// wider bits over lower sparsity at equal cost.
pub fn uniform_policy_for_budget(n_layers: usize, budget: f32) -> CompressionPolicy {
    let mut best: Option<LayerPolicy> = None;
    for &bits in &BitWidth::ALL {
        for &ratio in &UNIFORM_GRID_RATIOS {
            let cand = LayerPolicy {
                bits,
                prune_ratio: ratio,
            };
            let cost = cand.cost();
            if cost > budget + 1e-6 {
                continue;
            }
            let better = match &best {
                None => true,
                Some(cur) => {
                    let (cc, bc) = (cur.cost(), cost);
                    bc > cc + 1e-6 || ((bc - cc).abs() <= 1e-6 && cand.bits > cur.bits)
                }
            };
            if better {
                best = Some(cand);
            }
        }
    }
    let layer = best.unwrap_or(LayerPolicy {
        bits: BitWidth::W2,
        prune_ratio: 0.75,
    });
    CompressionPolicy::uniform(n_layers, layer.bits, layer.prune_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_policy_meets_budget() {
        for budget in [0.1f32, 0.2, 0.3, 0.5, 1.0] {
            let p = uniform_policy_for_budget(8, budget);
            assert!(
                p.mean_cost() <= budget + 1e-5,
                "budget {budget}: cost {}",
                p.mean_cost()
            );
        }
    }

    #[test]
    fn generous_budget_keeps_full_precision() {
        let p = uniform_policy_for_budget(4, 1.0);
        assert_eq!(p.layer(0), LayerPolicy::uncompressed());
    }

    #[test]
    fn tight_budget_compresses_hard() {
        let p = uniform_policy_for_budget(4, 0.05);
        assert!(p.mean_bits() <= 4.0);
    }

    #[test]
    fn impossible_budget_falls_back_to_most_aggressive() {
        let p = uniform_policy_for_budget(2, 0.0);
        assert_eq!(p.layer(0).bits, BitWidth::W2);
        assert_eq!(p.layer(0).prune_ratio, 0.75);
    }

    #[test]
    fn uniform_prefers_wider_bits_at_equal_cost() {
        // cost 0.25 is reachable as W4 dense, W8 @ 50%, or W16 @ 75%; the
        // tie-break prefers the widest bits (full precision, rely on
        // sparsity alone)
        let p = uniform_policy_for_budget(1, 0.25);
        assert!((p.mean_cost() - 0.25).abs() < 1e-6);
        assert_eq!(p.layer(0).bits, BitWidth::W16);
        assert!((p.layer(0).prune_ratio - 0.75).abs() < 1e-6);
    }
}
