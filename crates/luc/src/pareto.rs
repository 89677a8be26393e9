use crate::policy::CompressionPolicy;

/// A `(cost, quality)` point on the compression trade-off plane, tagged
/// with the policy that produced it (F1's `on frontier` column).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// Mean compute cost (1.0 = uncompressed).
    pub cost: f32,
    /// Quality metric where **lower is better** (loss, or 1 - accuracy).
    pub loss: f32,
    /// The policy behind this point.
    pub policy: CompressionPolicy,
}

/// Extracts the Pareto frontier (minimal cost for minimal loss) from a set
/// of measured policy points.
///
/// A point survives if no other point is at least as good on both axes and
/// strictly better on one. The result is sorted by ascending cost.
pub fn pareto_frontier(points: &[PolicyPoint]) -> Vec<PolicyPoint> {
    let mut frontier: Vec<PolicyPoint> = Vec::new();
    for p in points {
        let dominated = points.iter().any(|q| {
            (q.cost <= p.cost && q.loss < p.loss) || (q.cost < p.cost && q.loss <= p.loss)
        });
        if !dominated {
            frontier.push(p.clone());
        }
    }
    frontier.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.loss
                    .partial_cmp(&b.loss)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    frontier.dedup_by(|a, b| a.cost == b.cost && a.loss == b.loss);
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(cost: f32, loss: f32) -> PolicyPoint {
        PolicyPoint {
            cost,
            loss,
            policy: CompressionPolicy::identity(1),
        }
    }

    #[test]
    fn dominated_points_removed() {
        let points = vec![pt(0.5, 1.0), pt(0.5, 2.0), pt(0.3, 1.5), pt(1.0, 0.5)];
        let f = pareto_frontier(&points);
        // (0.5, 2.0) dominated by (0.5, 1.0); others survive
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|p| !(p.cost == 0.5 && p.loss == 2.0)));
    }

    #[test]
    fn frontier_is_sorted_and_monotone() {
        let points = vec![pt(1.0, 0.1), pt(0.2, 0.9), pt(0.5, 0.4), pt(0.7, 0.2)];
        let f = pareto_frontier(&points);
        for w in f.windows(2) {
            assert!(w[0].cost <= w[1].cost);
            assert!(
                w[0].loss >= w[1].loss,
                "loss must not increase along the frontier"
            );
        }
    }

    #[test]
    fn single_point_survives() {
        let f = pareto_frontier(&[pt(0.5, 0.5)]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn duplicate_points_deduped() {
        let f = pareto_frontier(&[pt(0.5, 0.5), pt(0.5, 0.5)]);
        assert_eq!(f.len(), 1);
    }
}
