use crate::bitwidth::BitWidth;
use crate::packed::PackedInts;
use crate::scheme::{QuantMode, QuantScheme};
use crate::QuantError;
use edge_llm_tensor::{all_finite, Tensor};

/// A tensor stored as bit-packed affine-quantized codes.
///
/// Element `c` of row `r` reconstructs as
/// `x̂ = (code_rc - zero_r) * scale_r`.
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
    /// Quantizes `x` under `scheme`, each row on its own grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFinite`] when the input holds NaN or
    /// infinite values.
    pub fn quantize(x: &Tensor, scheme: QuantScheme) -> Result<Self, QuantError> {
        if !all_finite(x.as_slice()) {
            return Err(QuantError::NonFinite);
        }
        let (rows, cols) = x.shape();
        let mut scales = Vec::with_capacity(rows);
        let mut zeros = Vec::with_capacity(rows);
        // written in place, not pushed: the rounding loop vectorizes
        let mut codes = vec![0; rows * cols];
        for r in 0..rows {
            let row = x.row(r);
            let grid = RowGrid::fit(row, scheme.bits, scheme.mode);
            for (code, &v) in codes[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *code = grid.code(v);
            }
            scales.push(grid.scale);
            zeros.push(grid.zero);
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
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            self.dequantize_row_into(r, out.row_mut(r));
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
        let (scale, zero) = (self.scales[r], self.zeros[r]);
        self.codes
            .unpack_into(r * self.cols, buf, |code| (code as f32 - zero) * scale);
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

    /// Scale of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Zero-point of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn zero_point(&self, r: usize) -> f32 {
        self.zeros[r]
    }

    /// The unpacked integer codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_codes(&self, r: usize) -> Vec<u32> {
        assert!(r < self.rows, "row {r} out of bounds");
        let mut codes = vec![0; self.cols];
        self.codes
            .unpack_into(r * self.cols, &mut codes, |code| code);
        codes
    }

    /// Actual bytes used: packed codes plus per-row metadata.
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

/// One row's affine grid, `x̂ = (code - zero) * scale`: the crate's one
/// fit-and-round, shared by [`QuantizedTensor::quantize`],
/// [`crate::fake_quant`] and [`crate::quantize_activations`],
/// so a row carries the same codes on every route.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowGrid {
    pub(crate) scale: f32,
    pub(crate) zero: f32,
    max_code: u32,
}

impl RowGrid {
    /// Fits `row`'s `(scale, zero point)`. A range too narrow for its step
    /// to be a normal `f32` — the all-zero row, and a denormal one whose
    /// step underflows to zero or a subnormal — has nothing to resolve: it
    /// gets unit scale and every code at the zero point, so the error is
    /// the denormal itself and no route ever divides by zero.
    ///
    /// A range so wide that its top code would dequantize past `f32::MAX`
    /// (or that `hi - lo` overflows) gets the zero point `half` and the
    /// step `m / half` for its largest magnitude `m`: `half` is a power of
    /// two, so the grid reaches `-m` exactly and stops one step short of
    /// `m`.
    pub(crate) fn fit(row: &[f32], bits: BitWidth, mode: QuantMode) -> Self {
        let max_code = bits.max_code() as f32;
        let half = (bits.levels() / 2) as f32; // e.g. 8 for W4
        let (scale, zero) = match mode {
            QuantMode::Symmetric => {
                let max_abs = lanes(row, 0.0, |m, v| m.max(v.abs())).into_iter();
                let max_abs = max_abs.fold(0.0f32, f32::max);
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
                let lo = lanes(row, f32::INFINITY, f32::min).into_iter();
                let hi = lanes(row, f32::NEG_INFINITY, f32::max).into_iter();
                // Keep zero exactly representable.
                let lo = lo.fold(0.0f32, f32::min);
                let hi = hi.fold(0.0f32, f32::max);
                let scale = (hi - lo) / max_code;
                if !lo.is_finite() || !hi.is_finite() || scale < f32::MIN_POSITIVE {
                    (1.0, 0.0)
                } else if scale.is_infinite() {
                    (hi.max(-lo) / half, half)
                } else {
                    // `-lo / scale` lies in `[0, max_code]`: the clamp is idle
                    (scale, round_code(-lo / scale, max_code))
                }
            }
        };
        RowGrid {
            scale,
            zero,
            max_code: bits.max_code(),
        }
    }

    /// The code of `v` on this grid, as the integer-valued float it is.
    #[inline]
    pub(crate) fn code_f32(&self, v: f32) -> f32 {
        round_code(v / self.scale + self.zero, self.max_code as f32)
    }

    /// The code of `v` on this grid.
    #[inline]
    pub(crate) fn code(&self, v: f32) -> u32 {
        whole(self.code_f32(v)) as u32
    }
}

/// A min or max fold over `row` in `LANES` independent accumulators, each
/// starting at `start`: `LANES` short chains the compiler keeps in vector
/// registers, where one running fold is a serial chain. On the finite
/// rows a grid is fitted to, the order of a min or max changes nothing
/// but the sign of a zero result, and the fit reads `+0` and `-0` ends
/// alike: both give the same scale and zero point.
fn lanes(row: &[f32], start: f32, f: impl Fn(f32, f32) -> f32) -> [f32; LANES] {
    let mut acc = [start; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a = f(*a, v);
        }
    }
    for (a, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *a = f(*a, v);
    }
    acc
}

/// Accumulators of [`lanes`]: two SSE vectors.
const LANES: usize = 8;

/// `1.5 · 2²³`: adding it to a float of magnitude below `2²²` rounds the
/// float to an integer, ties to even, and leaves that integer in the low
/// mantissa bits.
const MAGIC: f32 = 12_582_912.0;

/// `t.round().clamp(0, max_code)` as a float — the crate's one rounding,
/// without `f32::round` (a libm call on baseline x86-64) or a saturating
/// float-to-integer cast (which LLVM keeps scalar). Past the first clamp
/// `t` is in `[-1, max_code + 1]`, far inside `±2²²`, so `(t + MAGIC) -
/// MAGIC` is `t` rounded to the nearest integer, ties to even, and `t - r`
/// is exact; a tie that went down (`t - r == 0.5`) goes up instead, away
/// from zero as `round` takes it for every `t` the last clamp keeps.
#[inline]
fn round_code(t: f32, max_code: f32) -> f32 {
    let t = t.clamp(-1.0, max_code + 1.0);
    let r = (t + MAGIC) - MAGIC;
    let r = if t - r == 0.5 { r + 1.0 } else { r };
    r.clamp(0.0, max_code)
}

/// The integer an integer-valued float of magnitude below `2²²` holds —
/// a code, or a code less its zero point — read from the bits of `v +
/// MAGIC`, which is exact, so its low mantissa bits are `v` offset by
/// `MAGIC`'s.
#[inline]
pub(crate) fn whole(v: f32) -> i32 {
    (v + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_tensor::{l2_norm, max_abs_diff, TensorRng};

    /// The serial fit and rounding the lane-wise ones replaced.
    fn serial_grid(row: &[f32], bits: BitWidth, mode: QuantMode) -> (u32, u32) {
        let round = |t: f32, max: u32| -> u32 {
            let t = t.clamp(-1.0, (max + 1) as f32);
            let whole = t as i32;
            (whole + i32::from(t - whole as f32 >= 0.5)).clamp(0, max as i32) as u32
        };
        let (max_code, half) = (bits.max_code() as f32, (bits.levels() / 2) as f32);
        let (scale, zero) = match mode {
            QuantMode::Symmetric => {
                let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
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
                for &v in row {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                let (lo, hi) = (lo.min(0.0), hi.max(0.0));
                let scale = (hi - lo) / max_code;
                if scale < f32::MIN_POSITIVE {
                    (1.0, 0.0)
                } else if scale.is_infinite() {
                    (hi.max(-lo) / half, half)
                } else {
                    (scale, round(-lo / scale, bits.max_code()) as f32)
                }
            }
        };
        (scale.to_bits(), zero.to_bits())
    }

    #[test]
    fn the_vector_fit_and_rounding_are_the_serial_ones_bit_for_bit() {
        // every quarter and eighth around each code, the half-way points
        // and their neighbours, then a sweep of random floats
        let old_round = |t: f32, max: u32| -> u32 {
            let t = t.clamp(-1.0, (max + 1) as f32);
            let whole = t as i32;
            (whole + i32::from(t - whole as f32 >= 0.5)).clamp(0, max as i32) as u32
        };
        let mut rng = TensorRng::seed_from(40);
        for bits in BitWidth::ALL {
            let max = bits.max_code();
            let mut ts: Vec<f32> = (-24..8 * (max as i64 + 3))
                .map(|i| i as f32 / 8.0)
                .collect();
            for i in 0..=max + 1 {
                let tie = i as f32 + 0.5;
                ts.extend([tie, tie.next_down(), tie.next_up(), -tie, i as f32]);
            }
            ts.extend((0..4096).map(|_| rng.uniform(-3.0, max as f32 + 3.0)));
            ts.extend([
                f32::MAX,
                f32::MIN,
                1e30,
                -1e30,
                0.0,
                -0.0,
                f32::MIN_POSITIVE,
            ]);
            for t in ts {
                let new = round_code(t, max as f32);
                assert_eq!(whole(new) as u32, old_round(t, max), "{bits} t = {t}");
                assert_eq!(new, old_round(t, max) as f32, "{bits} t = {t}");
            }
        }
        // grids: random rows of every length around the lane count, rows
        // of signed zeros, constant, denormal, one-sided and near-overflow
        // (finite) rows
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for len in (0..20).chain([31, 64, 192]) {
            rows.push((0..len).map(|_| rng.normal()).collect());
            rows.push(
                (0..len)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            );
            rows.push(
                (0..len)
                    .map(|i| {
                        if i % 2 == 0 {
                            -0.0
                        } else {
                            rng.uniform(0.0, 1.0)
                        }
                    })
                    .collect(),
            );
            rows.push((0..len).map(|_| -rng.uniform(0.5, 2.0)).collect());
            rows.push(vec![3.5; len]);
            rows.push((0..len).map(|_| rng.normal() * 1e-40).collect());
            rows.push((0..len).map(|_| rng.uniform(-3e38, 3e38)).collect());
        }
        for row in &rows {
            for bits in BitWidth::ALL {
                for mode in [QuantMode::Symmetric, QuantMode::Asymmetric] {
                    let grid = RowGrid::fit(row, bits, mode);
                    let want = serial_grid(row, bits, mode);
                    let got = (grid.scale.to_bits(), grid.zero.to_bits());
                    assert_eq!(got, want, "{bits} {mode:?} {row:?}");
                    for &v in row {
                        let t = v / grid.scale + grid.zero;
                        assert_eq!(grid.code(v), old_round(t, bits.max_code()), "{v}");
                    }
                }
            }
        }
    }

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
    fn sqnr_improves_roughly_6db_per_bit() {
        let mut rng = TensorRng::seed_from(1);
        let x = Tensor::randn(32, 64, 1.0, &mut rng);
        let mut prev = f32::NEG_INFINITY;
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let q = QuantizedTensor::quantize(&x, QuantScheme::symmetric(bits)).unwrap();
            let noise = l2_norm(&x.sub(&q.dequantize()).unwrap());
            let sqnr = 20.0 * (l2_norm(&x) / noise).log10();
            assert!(sqnr > prev + 5.0, "{bits}: sqnr {sqnr} vs prev {prev}");
            prev = sqnr;
        }
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
        for scheme in [
            QuantScheme::symmetric(BitWidth::W4),
            QuantScheme::asymmetric(BitWidth::W2),
        ] {
            let q = QuantizedTensor::quantize(&x, scheme).unwrap();
            let full = q.dequantize();
            let mut buf = vec![0.0f32; 32];
            for r in 0..6 {
                q.dequantize_row_into(r, &mut buf);
                assert_eq!(&buf[..], full.row(r), "{scheme} row {r}");
            }
        }
    }

    #[test]
    fn every_row_matches_the_per_code_formula_at_ragged_widths() {
        // `dequantize()` reads through `dequantize_row_into`, so the oracle
        // is the per-element formula over `PackedInts::get`. At `cols` 33
        // and 50 most rows start inside a word at every width but 16 bits,
        // so each row has a head, whole words and a tail.
        let mut rng = TensorRng::seed_from(7);
        for cols in [1, 7, 32, 33, 50] {
            let x = Tensor::randn(9, cols, 1.0, &mut rng);
            for bits in BitWidth::ALL {
                for scheme in [QuantScheme::symmetric(bits), QuantScheme::asymmetric(bits)] {
                    let q = QuantizedTensor::quantize(&x, scheme).unwrap();
                    let full = q.dequantize();
                    let mut buf = vec![f32::NAN; cols];
                    for r in 0..q.rows() {
                        let at = format!("{scheme} cols {cols} row {r}");
                        let codes: Vec<u32> =
                            (0..cols).map(|c| q.codes().get(r * cols + c)).collect();
                        let (zero, scale) = (q.zero_point(r), q.scale(r));
                        let want: Vec<u32> = codes
                            .iter()
                            .map(|&c| ((c as f32 - zero) * scale).to_bits())
                            .collect();
                        buf.fill(f32::NAN);
                        q.dequantize_row_into(r, &mut buf);
                        let got: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "dequantize_row_into, {at}");
                        let got: Vec<u32> = full.row(r).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "dequantize, {at}");
                        assert_eq!(q.row_codes(r), codes, "row_codes, {at}");
                    }
                    let all: Vec<u32> = (0..q.codes().len()).map(|i| q.codes().get(i)).collect();
                    assert_eq!(q.codes().unpack(), all, "unpack, {scheme} cols {cols}");
                }
            }
        }
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
