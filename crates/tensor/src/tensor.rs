use crate::error::TensorError;
use crate::rng::TensorRng;
use std::fmt;

/// A dense, row-major, two-dimensional `f32` tensor.
///
/// All model parameters, activations, and gradients in the Edge-LLM
/// reproduction are `Tensor`s. Batched three-dimensional quantities
/// (batch x seq x dim) are stored flattened as `(batch * seq) x dim`,
/// mirroring how training kernels treat tokens as rows.
///
/// # Example
///
/// ```
/// use edge_llm_tensor::Tensor;
///
/// # fn main() -> Result<(), edge_llm_tensor::TensorError> {
/// let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(1, 0), 3.0);
/// assert_eq!(t.transpose().get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// A zero-sized tensor (`rows == 0` or `cols == 0`) is permitted and
    /// behaves as an empty operand.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a tensor from an existing buffer in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a tensor with elements drawn from a normal distribution
    /// `N(0, std^2)` using the given deterministic RNG.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut TensorRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.normal() * std).collect();
        Tensor { rows, cols, data }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut TensorRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { rows, cols, data }
    }

    /// Kaiming/He initialization for a weight of shape `fan_in x fan_out`.
    pub fn kaiming(fan_in: usize, fan_out: usize, rng: &mut TensorRng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(fan_in, fan_out, std, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transposed tensor (owned copy).
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Element-wise addition, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// In-place element-wise (Hadamard) product, `self ⊙= other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard_in_place(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "hadamard_in_place",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new tensor with every element scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// In-place scaling by `alpha`.
    pub fn scale_in_place(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Returns a new tensor by applying `f` element-wise.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns `true` when every pairwise difference is at most `tol`.
    ///
    /// Shapes must match for the comparison to hold; mismatched shapes
    /// return `false`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{}", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, ", {:?}", self.data)?;
        } else {
            write!(f, ", first4 {:?}..", &self.data[..4])?;
        }
        write!(f, ")")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(2, 2, vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 7.5);
        assert_eq!(t.get(1, 2), 7.5);
        assert_eq!(t.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        let t = Tensor::zeros(2, 2);
        let _ = t.get(2, 0);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = TensorRng::seed_from(1);
        let t = Tensor::randn(3, 5, 1.0, &mut rng);
        assert!(t.transpose().transpose().approx_eq(&t, 0.0));
    }

    #[test]
    fn transpose_swaps_indices() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose();
        assert_eq!(tt.shape(), (3, 2));
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t.get(r, c), tt.get(c, r));
            }
        }
    }

    #[test]
    fn add_sub_inverse() {
        let mut rng = TensorRng::seed_from(2);
        let a = Tensor::randn(4, 4, 1.0, &mut rng);
        let b = Tensor::randn(4, 4, 1.0, &mut rng);
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert!(back.approx_eq(&a, 1e-6));
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(3, 2);
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.axpy(0.5, &b).unwrap();
        assert!(a.approx_eq(&Tensor::full(2, 2, 2.5), 1e-7));
    }

    #[test]
    fn scale_and_map_agree() {
        let t = Tensor::from_vec(1, 3, vec![1.0, -2.0, 4.0]).unwrap();
        assert!(t.scale(2.0).approx_eq(&t.map(|x| 2.0 * x), 0.0));
    }

    #[test]
    fn hadamard_matches_manual() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]).unwrap();
        a.hadamard_in_place(&b).unwrap();
        assert_eq!(a.as_slice(), &[4., 10., 18.]);
        assert!(matches!(
            a.hadamard_in_place(&Tensor::zeros(3, 1)),
            Err(TensorError::ShapeMismatch {
                op: "hadamard_in_place",
                ..
            })
        ));
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = TensorRng::seed_from(9);
        let mut r2 = TensorRng::seed_from(9);
        let a = Tensor::randn(4, 4, 1.0, &mut r1);
        let b = Tensor::randn(4, 4, 1.0, &mut r2);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seed_from(3);
        let t = Tensor::uniform(10, 10, -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn row_views() {
        let mut t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(t.row(1), &[4., 5., 6.]);
        t.row_mut(0)[2] = 9.0;
        assert_eq!(t.get(0, 2), 9.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(1, 1);
        assert!(!format!("{t:?}").is_empty());
        let big = Tensor::zeros(10, 10);
        assert!(format!("{big:?}").contains("first4"));
    }

    #[test]
    fn zero_sized_tensor_is_empty() {
        let t = Tensor::zeros(0, 5);
        assert!(t.is_empty());
        assert_eq!(t.sum(), 0.0);
    }
}
