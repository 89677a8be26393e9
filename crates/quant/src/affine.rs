use crate::bitwidth::BitWidth;
use crate::packed::PackedInts;
use crate::scheme::{QuantMode, QuantScheme};
use crate::QuantError;
use edge_llm_tensor::Tensor;

/// A tensor stored as bit-packed affine-quantized codes.
///
/// Element `i` of group `g` reconstructs as
/// `x̂ = (code_i - zero_g) * scale_g`.
///
/// # Example
///
/// ```
/// use edge_llm_quant::{BitWidth, QuantScheme, QuantizedTensor};
/// use edge_llm_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Tensor::from_vec(1, 4, vec![-1.0, -0.5, 0.5, 1.0])?;
/// let q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W8))?;
/// assert!(q.dequantize().approx_eq(&w, 0.01));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    scheme: QuantScheme,
    codes: PackedInts,
    scales: Vec<f32>,
    zeros: Vec<f32>,
}

impl QuantizedTensor {
    /// Quantizes `x` under `scheme`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] when a group granularity does
    /// not divide the row length, and [`QuantError::NonFinite`] when the
    /// input holds NaN or infinite values.
    pub fn quantize(x: &Tensor, scheme: QuantScheme) -> Result<Self, QuantError> {
        if x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(QuantError::NonFinite);
        }
        let (rows, cols) = x.shape();
        let n_groups = scheme.group_count(rows, cols)?;
        let group_len = scheme.group_len(rows, cols);
        let data = x.as_slice();
        let max_code = scheme.bits.max_code() as f32;
        let mut scales = Vec::with_capacity(n_groups);
        let mut zeros = Vec::with_capacity(n_groups);
        let mut codes = Vec::with_capacity(data.len());
        for g in 0..n_groups {
            let chunk = &data[g * group_len..((g + 1) * group_len).min(data.len())];
            let (scale, zero) = fit_group(chunk, scheme.bits, scheme.mode);
            scales.push(scale);
            zeros.push(zero);
            for &v in chunk {
                let q = (v / scale + zero).round().clamp(0.0, max_code);
                codes.push(q as u32);
            }
        }
        Ok(QuantizedTensor {
            rows,
            cols,
            scheme,
            codes: PackedInts::pack(scheme.bits, &codes),
            scales,
            zeros,
        })
    }

    /// Reconstructs the dense `f32` tensor.
    pub fn dequantize(&self) -> Tensor {
        let group_len = self.scheme.group_len(self.rows, self.cols);
        let mut out = Tensor::zeros(self.rows, self.cols);
        let data = out.as_mut_slice();
        for (i, slot) in data.iter_mut().enumerate().take(self.codes.len()) {
            let g = i / group_len;
            *slot = (self.codes.get(i) as f32 - self.zeros[g]) * self.scales[g];
        }
        out
    }

    /// Dequantizes a single row into `buf` (length must equal `cols`).
    ///
    /// Used by the streaming quantized matmul so the whole weight never has
    /// to be materialized in f32.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()` or `buf.len() != cols()`.
    pub fn dequantize_row_into(&self, r: usize, buf: &mut [f32]) {
        assert!(r < self.rows, "row {r} out of bounds");
        assert_eq!(buf.len(), self.cols, "buffer length must equal cols");
        let group_len = self.scheme.group_len(self.rows, self.cols);
        let base = r * self.cols;
        for (c, slot) in buf.iter_mut().enumerate() {
            let i = base + c;
            let g = i / group_len;
            *slot = (self.codes.get(i) as f32 - self.zeros[g]) * self.scales[g];
        }
    }

    /// `(rows, cols)` of the original tensor.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scheme this tensor was quantized under.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// The packed code storage (for integer-arithmetic kernels).
    pub fn codes(&self) -> &PackedInts {
        &self.codes
    }

    /// Scale of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn scale(&self, g: usize) -> f32 {
        self.scales[g]
    }

    /// Zero-point of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn zero_point(&self, g: usize) -> f32 {
        self.zeros[g]
    }

    /// The unpacked integer codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_codes(&self, r: usize) -> Vec<u32> {
        assert!(r < self.rows, "row {r} out of bounds");
        (r * self.cols..(r + 1) * self.cols)
            .map(|i| self.codes.get(i))
            .collect()
    }

    /// Actual bytes used: packed codes plus per-group metadata.
    pub fn storage_bytes(&self) -> usize {
        let meta = match self.scheme.mode {
            QuantMode::Symmetric => self.scales.len() * 4,
            QuantMode::Asymmetric => self.scales.len() * 8,
        };
        self.codes.storage_bytes() + meta
    }
}

#[cfg(test)]
impl QuantizedTensor {
    /// This tensor with its codes replaced — how the kernel tests build a
    /// single-code mutant (there is no public way to assemble a
    /// `QuantizedTensor` from parts).
    pub(crate) fn with_codes(&self, codes: PackedInts) -> Self {
        assert_eq!(codes.len(), self.codes.len());
        assert_eq!(codes.bits(), self.codes.bits());
        QuantizedTensor {
            codes,
            ..self.clone()
        }
    }
}

/// The `(scale, zero point)` of one quantization group. A range too
/// narrow for its step to be a normal `f32` — the all-zero group, and a
/// denormal one whose step underflows to zero or a subnormal — has nothing
/// to resolve: it gets unit scale and every code at the zero point, so the
/// error is the denormal itself and no route ever divides by zero.
///
/// A range so wide that its top code would dequantize past `f32::MAX` (or
/// that `hi - lo` overflows) gets the zero point `half` and the step
/// `m / half` for its largest magnitude `m`: `half` is a power of two, so
/// the grid reaches `-m` exactly and stops one step short of `m`.
pub(crate) fn fit_group(chunk: &[f32], bits: BitWidth, mode: QuantMode) -> (f32, f32) {
    let max_code = bits.max_code() as f32;
    let half = (bits.levels() / 2) as f32; // e.g. 8 for W4
    match mode {
        QuantMode::Symmetric => {
            let max_abs = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let step = max_abs / (half - 1.0).max(1.0);
            if step < f32::MIN_POSITIVE {
                (1.0, half)
            } else if (step * (half - 1.0)).is_infinite() {
                (max_abs / half, half)
            } else {
                (step, half)
            }
        }
        QuantMode::Asymmetric => {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in chunk {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if !lo.is_finite() || !hi.is_finite() {
                return (1.0, 0.0);
            }
            // Keep zero exactly representable.
            let lo = lo.min(0.0);
            let hi = hi.max(0.0);
            let scale = (hi - lo) / max_code;
            if scale < f32::MIN_POSITIVE {
                return (1.0, 0.0);
            }
            if scale.is_infinite() {
                return (hi.max(-lo) / half, half);
            }
            let zero = (-lo / scale).round();
            (scale, zero)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Granularity;
    use edge_llm_tensor::{max_abs_diff, TensorRng};

    #[test]
    fn roundtrip_error_shrinks_with_bits() {
        let mut rng = TensorRng::seed_from(1);
        let x = Tensor::randn(8, 32, 1.0, &mut rng);
        let mut last = f32::INFINITY;
        for bits in BitWidth::ALL {
            let q = QuantizedTensor::quantize(&x, QuantScheme::symmetric(bits)).unwrap();
            let err = max_abs_diff(&x, &q.dequantize());
            assert!(err < last, "{bits}: err {err} not < {last}");
            last = err;
        }
    }

    #[test]
    fn w8_roundtrip_is_tight() {
        let mut rng = TensorRng::seed_from(2);
        let x = Tensor::randn(4, 16, 0.5, &mut rng);
        let q = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W8)).unwrap();
        assert!(max_abs_diff(&x, &q.dequantize()) < 0.02);
    }

    #[test]
    fn asymmetric_handles_shifted_data() {
        let mut rng = TensorRng::seed_from(3);
        // all-positive data: asymmetric should beat symmetric
        let x = Tensor::uniform(4, 32, 5.0, 6.0, &mut rng);
        let qs = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W4)).unwrap();
        let qa = QuantizedTensor::quantize(&x, QuantScheme::asymmetric(BitWidth::W4)).unwrap();
        let es = max_abs_diff(&x, &qs.dequantize());
        let ea = max_abs_diff(&x, &qa.dequantize());
        assert!(ea < es, "asym {ea} should beat sym {es} on shifted data");
    }

    #[test]
    fn finer_granularity_reduces_error() {
        let mut rng = TensorRng::seed_from(4);
        // rows with very different magnitudes
        let mut x = Tensor::randn(4, 64, 1.0, &mut rng);
        for c in 0..64 {
            let v = x.get(3, c);
            x.set(3, c, v * 100.0);
        }
        let per_tensor =
            QuantScheme::symmetric(BitWidth::W4).with_granularity(Granularity::PerTensor);
        let per_row = QuantScheme::symmetric(BitWidth::W4);
        // The scaled row dominates the max error either way; mean-squared
        // error is what finer granularity improves.
        let et = crate::quant_mse(
            &x,
            &QuantizedTensor::quantize(&x, per_tensor)
                .unwrap()
                .dequantize(),
        );
        let er = crate::quant_mse(
            &x,
            &QuantizedTensor::quantize(&x, per_row).unwrap().dequantize(),
        );
        assert!(er < et, "per-row {er} should beat per-tensor {et}");
    }

    #[test]
    fn zeros_quantize_to_zeros() {
        let x = Tensor::zeros(3, 8);
        for mode in [
            QuantScheme::symmetric(BitWidth::W4),
            QuantScheme::asymmetric(BitWidth::W4),
        ] {
            let q = QuantizedTensor::quantize(&x, mode).unwrap();
            assert!(max_abs_diff(&x, &q.dequantize()) < 1e-6);
        }
    }

    #[test]
    fn storage_bytes_reflect_width() {
        let mut rng = TensorRng::seed_from(5);
        let x = Tensor::randn(16, 64, 1.0, &mut rng);
        let q4 = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W4)).unwrap();
        let q8 = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W8)).unwrap();
        assert_eq!(q4.storage_bytes(), 16 * 64 / 2 + 16 * 4);
        assert_eq!(q8.storage_bytes(), 16 * 64 + 16 * 4);
        let dense_bytes = 16 * 64 * 4;
        assert!(q4.storage_bytes() * 7 < dense_bytes);
    }

    #[test]
    fn dequantize_row_matches_full() {
        let mut rng = TensorRng::seed_from(6);
        let x = Tensor::randn(6, 32, 1.0, &mut rng);
        let q = QuantizedTensor::quantize(
            &x,
            QuantScheme::symmetric(BitWidth::W4).with_granularity(Granularity::Group(8)),
        )
        .unwrap();
        let full = q.dequantize();
        let mut buf = vec![0.0f32; 32];
        for r in 0..6 {
            q.dequantize_row_into(r, &mut buf);
            assert_eq!(&buf[..], full.row(r));
        }
    }

    #[test]
    fn group_scheme_rejected_when_not_dividing() {
        let x = Tensor::zeros(2, 10);
        let s = QuantScheme::symmetric(BitWidth::W4).with_granularity(Granularity::Group(3));
        assert!(QuantizedTensor::quantize(&x, s).is_err());
    }

    #[test]
    fn non_finite_inputs_rejected() {
        let mut x = Tensor::zeros(2, 4);
        x.set(1, 2, f32::NAN);
        assert_eq!(
            QuantizedTensor::quantize(&x, QuantScheme::default()).unwrap_err(),
            crate::QuantError::NonFinite
        );
        x.set(1, 2, f32::INFINITY);
        assert!(QuantizedTensor::quantize(&x, QuantScheme::default()).is_err());
    }

    #[test]
    fn constant_tensor_roundtrips() {
        let x = Tensor::full(2, 8, 3.5);
        let q = QuantizedTensor::quantize(&x, QuantScheme::asymmetric(BitWidth::W8)).unwrap();
        assert!(max_abs_diff(&x, &q.dequantize()) < 0.05);
    }
}
