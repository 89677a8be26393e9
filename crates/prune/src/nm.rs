use crate::mask::PruneMask;
use crate::PruneError;
use edge_llm_tensor::Tensor;

/// N:M semi-structured pruning: within every consecutive group of `m`
/// elements of a row, keep only the `n` largest magnitudes.
///
/// The canonical edge-accelerator pattern is 2:4 (50% sparsity with a
/// hardware-friendly layout).
///
/// # Errors
///
/// Returns [`PruneError::BadPattern`] if `m == 0`, `n > m`, or `m` does not
/// divide the row length.
pub fn nm_prune(w: &Tensor, n: usize, m: usize) -> Result<PruneMask, PruneError> {
    let (rows, cols) = w.shape();
    if m == 0 || n > m || (cols > 0 && cols % m != 0) {
        return Err(PruneError::BadPattern { n, m });
    }
    let mut keep = vec![false; rows * cols];
    for r in 0..rows {
        let row = w.row(r);
        for g in (0..cols).step_by(m) {
            let mut idx: Vec<usize> = (g..g + m).collect();
            // `total_cmp`: NaN-"equal" is no total order (a NaN weight
            // sorts as the largest magnitude instead)
            idx.sort_by(|&a, &b| row[b].abs().total_cmp(&row[a].abs()).then(a.cmp(&b)));
            for &c in idx.iter().take(n) {
                keep[r * cols + c] = true;
            }
        }
    }
    PruneMask::from_vec(rows, cols, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_tensor::TensorRng;

    #[test]
    fn two_four_achieves_half_sparsity() {
        let mut rng = TensorRng::seed_from(1);
        let w = Tensor::randn(8, 16, 1.0, &mut rng);
        let m = nm_prune(&w, 2, 4).unwrap();
        assert!((m.sparsity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn every_group_keeps_exactly_n() {
        let mut rng = TensorRng::seed_from(2);
        let w = Tensor::randn(4, 12, 1.0, &mut rng);
        let mask = nm_prune(&w, 1, 3).unwrap();
        for r in 0..4 {
            for g in (0..12).step_by(3) {
                let kept = (g..g + 3).filter(|&c| mask.is_kept(r, c)).count();
                assert_eq!(kept, 1, "row {r} group {g}");
            }
        }
    }

    #[test]
    fn keeps_largest_in_group() {
        let w = Tensor::from_vec(1, 4, vec![0.1, -9.0, 0.2, 3.0]).unwrap();
        let m = nm_prune(&w, 2, 4).unwrap();
        assert_eq!(m.as_slice(), &[false, true, false, true]);
    }

    #[test]
    fn a_nan_weight_ranks_as_the_largest_magnitude() {
        // under a NaN-"equal" comparator whether the NaN was kept
        // depended on where in the group it sat
        for at in 0..4 {
            let mut v = vec![0.1, -9.0, 0.2, 3.0];
            v[at] = f32::NAN;
            let m = nm_prune(&Tensor::from_vec(1, 4, v.clone()).unwrap(), 2, 4).unwrap();
            let best_finite = (0..4)
                .filter(|&c| c != at)
                .max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs()))
                .unwrap();
            for c in 0..4 {
                assert_eq!(m.is_kept(0, c), c == at || c == best_finite, "NaN at {at}");
            }
        }
    }

    #[test]
    fn bad_patterns_error() {
        let w = Tensor::zeros(2, 8);
        assert!(nm_prune(&w, 3, 2).is_err());
        assert!(nm_prune(&w, 1, 0).is_err());
        assert!(nm_prune(&w, 1, 3).is_err()); // 3 does not divide 8
    }

    #[test]
    fn n_equals_m_is_dense() {
        let w = Tensor::ones(2, 8);
        let m = nm_prune(&w, 4, 4).unwrap();
        assert_eq!(m.sparsity(), 0.0);
    }
}
