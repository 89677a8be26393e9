use crate::mask::PruneMask;
use crate::PruneError;
use edge_llm_tensor::Tensor;

/// Unstructured magnitude pruning: drops the `ratio` fraction of elements
/// with the smallest absolute value.
///
/// Ties at the threshold are broken by position (earlier elements pruned
/// first) so the achieved sparsity is exactly `floor(ratio * len) / len`.
/// That order — magnitude, then index — is total, so the pruned set is
/// the first `floor(ratio * len)` of it, found by selection rather than by
/// sorting every element.
///
/// # Errors
///
/// Returns [`PruneError::RatioOutOfRange`] unless `0 <= ratio <= 1`.
pub fn magnitude_prune(w: &Tensor, ratio: f32) -> Result<PruneMask, PruneError> {
    if !(0.0..=1.0).contains(&ratio) || ratio.is_nan() {
        return Err(PruneError::RatioOutOfRange { ratio });
    }
    let (rows, cols) = w.shape();
    let n = w.len();
    let n_prune = ((ratio as f64) * n as f64).floor() as usize;
    if n_prune == 0 {
        return Ok(PruneMask::dense(rows, cols));
    }
    // Select the n_prune indices first by |w| ascending, then by index.
    let mut order: Vec<usize> = (0..n).collect();
    let data = w.as_slice();
    // `total_cmp` orders magnitudes exactly as `partial_cmp` does and puts
    // NaN last; a comparator that called NaN "equal" to everything would
    // not be a total order, which selection is entitled to panic on.
    if n_prune < n {
        order.select_nth_unstable_by(n_prune - 1, |&a, &b| {
            data[a].abs().total_cmp(&data[b].abs()).then(a.cmp(&b))
        });
    }
    let mut keep = vec![true; n];
    for &i in &order[..n_prune] {
        keep[i] = false;
    }
    PruneMask::from_vec(rows, cols, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_tensor::TensorRng;

    #[test]
    fn exact_sparsity() {
        let mut rng = TensorRng::seed_from(1);
        let w = Tensor::randn(10, 10, 1.0, &mut rng);
        for ratio in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let m = magnitude_prune(&w, ratio).unwrap();
            assert!((m.sparsity() - ratio).abs() < 1e-6, "ratio {ratio}");
        }
    }

    #[test]
    fn prunes_smallest_magnitudes() {
        let w = Tensor::from_vec(1, 4, vec![0.1, -5.0, 0.01, 3.0]).unwrap();
        let m = magnitude_prune(&w, 0.5).unwrap();
        assert_eq!(m.as_slice(), &[false, true, false, true]);
    }

    #[test]
    fn surviving_elements_dominate_norm() {
        let mut rng = TensorRng::seed_from(2);
        let w = Tensor::randn(16, 16, 1.0, &mut rng);
        let m = magnitude_prune(&w, 0.5).unwrap();
        let pruned = m.apply_to(&w).unwrap();
        let total = edge_llm_tensor::l2_norm(&w);
        let kept = edge_llm_tensor::l2_norm(&pruned);
        // half the elements but far more than half the energy
        assert!(kept / total > 0.9);
    }

    #[test]
    fn invalid_ratio_errors() {
        let w = Tensor::zeros(2, 2);
        assert!(magnitude_prune(&w, -0.1).is_err());
        assert!(magnitude_prune(&w, 1.1).is_err());
        assert!(magnitude_prune(&w, f32::NAN).is_err());
    }

    #[test]
    fn non_finite_weights_are_kept_not_panicked_on() {
        // weights restored from a damaged checkpoint can be anything
        let mut rng = TensorRng::seed_from(3);
        let mut w = Tensor::randn(32, 32, 1.0, &mut rng);
        for i in (0..w.len()).step_by(7) {
            w.as_mut_slice()[i] = [f32::NAN, f32::INFINITY, -f32::NAN][i % 3];
        }
        let m = magnitude_prune(&w, 0.5).unwrap();
        assert_eq!(m.kept(), w.len() / 2);
        for i in (0..w.len()).step_by(7) {
            assert!(m.as_slice()[i], "non-finite magnitude sorts last");
        }
    }

    /// The sort this function's selection replaced: every index ordered by
    /// magnitude, then position, and the first `floor(ratio * len)` pruned.
    fn sorted_reference(w: &Tensor, ratio: f32) -> Vec<bool> {
        let n_prune = ((ratio as f64) * w.len() as f64).floor() as usize;
        let data = w.as_slice();
        let mut order: Vec<usize> = (0..w.len()).collect();
        order.sort_by(|&a, &b| data[a].abs().total_cmp(&data[b].abs()).then(a.cmp(&b)));
        let mut keep = vec![true; w.len()];
        for &i in &order[..n_prune] {
            keep[i] = false;
        }
        keep
    }

    #[test]
    fn selection_prunes_exactly_what_the_full_sort_prunes() {
        let mut rng = TensorRng::seed_from(4);
        let mut cases = vec![Tensor::ones(3, 7), Tensor::full(16, 16, -0.5)];
        for (rows, cols) in [(1, 1), (1, 2), (5, 3), (32, 32), (512, 128)] {
            cases.push(Tensor::randn(rows, cols, 1.0, &mut rng));
        }
        // signed zeros tie, and their tie goes to the earlier position
        let signed_zeros = (0..40).map(|i| [0.0, -0.0, 1.0, -1.0][i % 4]);
        cases.push(Tensor::from_vec(5, 8, signed_zeros.collect()).unwrap());
        let mut special = Tensor::randn(24, 24, 1.0, &mut rng);
        for i in (0..special.len()).step_by(5) {
            special.as_mut_slice()[i] =
                [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][i % 5];
        }
        cases.push(special);
        for w in &cases {
            let n = w.len() as f32;
            for ratio in [0.0, 1.0 / n, 0.25, 0.5, 0.75, 1.0] {
                let m = magnitude_prune(w, ratio).unwrap();
                assert_eq!(
                    m.as_slice(),
                    &sorted_reference(w, ratio)[..],
                    "{:?} at ratio {ratio}",
                    w.shape()
                );
            }
        }
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        let w = Tensor::ones(1, 4);
        let m1 = magnitude_prune(&w, 0.5).unwrap();
        let m2 = magnitude_prune(&w, 0.5).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(m1.kept(), 2);
    }
}
