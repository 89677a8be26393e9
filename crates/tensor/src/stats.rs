//! Small statistics helpers shared by tests, compression-error metrics, and
//! the sensitivity profiler.

use crate::tensor::Tensor;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Euclidean norm of all elements of a tensor.
pub fn l2_norm(t: &Tensor) -> f32 {
    t.as_slice()
        .iter()
        .map(|x| (*x as f64) * (*x as f64))
        .sum::<f64>()
        .sqrt() as f32
}

/// Largest absolute element-wise difference; `f32::INFINITY` when shapes
/// differ.
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    if a.shape() != b.shape() {
        return f32::INFINITY;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn l2_norm_pythagorean() {
        let t = Tensor::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((l2_norm(&t) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn max_abs_diff_detects_worst_element() {
        let a = Tensor::from_vec(1, 3, vec![0.0, 1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![0.1, 1.0, -1.0]).unwrap();
        assert!((max_abs_diff(&a, &b) - 3.0).abs() < 1e-6);
        assert_eq!(max_abs_diff(&a, &Tensor::zeros(2, 2)), f32::INFINITY);
    }
}
