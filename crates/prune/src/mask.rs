use crate::PruneError;
use edge_llm_tensor::Tensor;

/// A keep/drop mask over a weight matrix.
///
/// `true` means the element survives pruning. Masks compose with `and`
/// (useful for stacking structured and unstructured patterns) and apply to
/// both weights and, during tuning, their gradients — pruned weights must
/// stay pruned across optimizer steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneMask {
    rows: usize,
    cols: usize,
    keep: Vec<bool>,
}

impl PruneMask {
    /// A mask that keeps everything.
    pub fn dense(rows: usize, cols: usize) -> Self {
        PruneMask {
            rows,
            cols,
            keep: vec![true; rows * cols],
        }
    }

    /// Builds a mask from a row-major boolean buffer.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if `keep.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, keep: Vec<bool>) -> Result<Self, PruneError> {
        if keep.len() != rows * cols {
            return Err(PruneError::ShapeMismatch {
                op: "mask_from_vec",
                lhs: (rows, cols),
                rhs: (keep.len(), 1),
            });
        }
        Ok(PruneMask { rows, cols, keep })
    }

    /// `(rows, cols)` of the masked matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether element `(r, c)` is kept.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn is_kept(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "mask index out of bounds");
        self.keep[r * self.cols + c]
    }

    /// Immutable view of the keep buffer (row-major).
    pub fn as_slice(&self) -> &[bool] {
        &self.keep
    }

    /// Number of kept elements.
    pub fn kept(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Fraction of elements pruned, in `[0, 1]`.
    pub fn sparsity(&self) -> f32 {
        if self.keep.is_empty() {
            return 0.0;
        }
        1.0 - self.kept() as f32 / self.keep.len() as f32
    }

    /// Sets the pruned elements of `x` to `+0.0` in place, whatever they
    /// held (`-0.0` and NaN included).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if shapes differ.
    pub fn apply(&self, x: &mut Tensor) -> Result<(), PruneError> {
        if x.shape() != self.shape() {
            return Err(PruneError::ShapeMismatch {
                op: "mask_apply",
                lhs: x.shape(),
                rhs: self.shape(),
            });
        }
        for (v, &k) in x.as_mut_slice().iter_mut().zip(self.keep.iter()) {
            *v = if k { *v } else { 0.0 };
        }
        Ok(())
    }

    /// Returns a masked copy of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if shapes differ.
    pub fn apply_to(&self, x: &Tensor) -> Result<Tensor, PruneError> {
        let mut out = x.clone();
        self.apply(&mut out)?;
        Ok(out)
    }

    /// Element-wise conjunction of two masks (keep only where both keep).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if shapes differ.
    pub fn and(&self, other: &PruneMask) -> Result<PruneMask, PruneError> {
        if self.shape() != other.shape() {
            return Err(PruneError::ShapeMismatch {
                op: "mask_and",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let keep = self
            .keep
            .iter()
            .zip(other.keep.iter())
            .map(|(&a, &b)| a && b)
            .collect();
        Ok(PruneMask {
            rows: self.rows,
            cols: self.cols,
            keep,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_mask_keeps_everything() {
        let m = PruneMask::dense(3, 4);
        assert_eq!(m.kept(), 12);
        assert_eq!(m.sparsity(), 0.0);
    }

    #[test]
    fn apply_zeroes_pruned() {
        let m = PruneMask::from_vec(1, 4, vec![true, false, true, false]).unwrap();
        let x = Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]).unwrap();
        let y = m.apply_to(&x).unwrap();
        assert_eq!(y.as_slice(), &[1., 0., 3., 0.]);
        assert_eq!(m.sparsity(), 0.5);
    }

    #[test]
    fn apply_writes_positive_zero_over_anything_pruned() {
        let keep = vec![false, false, false, true, true, true];
        let m = PruneMask::from_vec(1, 6, keep).unwrap();
        let mut x = Tensor::from_vec(
            1,
            6,
            vec![-0.0, f32::NAN, f32::NEG_INFINITY, -0.0, f32::NAN, 2.0],
        )
        .unwrap();
        m.apply(&mut x).unwrap();
        let bits: Vec<u32> = x.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&bits[..3], &[0, 0, 0], "pruned positions read +0.0");
        assert_eq!(bits[3], (-0.0f32).to_bits(), "kept -0.0 untouched");
        assert!(x.as_slice()[4].is_nan() && x.as_slice()[5] == 2.0);
    }

    #[test]
    fn and_composes() {
        let a = PruneMask::from_vec(1, 4, vec![true, true, false, false]).unwrap();
        let b = PruneMask::from_vec(1, 4, vec![true, false, true, false]).unwrap();
        let c = a.and(&b).unwrap();
        assert_eq!(c.as_slice(), &[true, false, false, false]);
    }

    #[test]
    fn shape_mismatches_error() {
        let m = PruneMask::dense(2, 2);
        let mut x = Tensor::zeros(2, 3);
        assert!(m.apply(&mut x).is_err());
        assert!(m.and(&PruneMask::dense(3, 2)).is_err());
        assert!(PruneMask::from_vec(2, 2, vec![true; 3]).is_err());
    }

    #[test]
    fn empty_mask_sparsity_is_zero() {
        let m = PruneMask::dense(0, 0);
        assert_eq!(m.sparsity(), 0.0);
    }
}
