//! Packed-code integer GEMM — the decode hot-path datapath.
//!
//! The row-dequant route (`Linear`: `matmul_fill_b_with` over
//! [`QuantizedTensor::dequantize_row_into`](crate::QuantizedTensor::dequantize_row_into))
//! turns packed weights back into f32 before multiplying: the memory win
//! of 2/4-bit storage is real but the compute runs in floating point. This module computes `x · Wᵀ` directly
//! on the [`PackedInts`](crate::PackedInts) words: each 32-bit word is
//! unpacked into 16 (W2) / 8 (W4) / 4 (W8) integer lanes and
//! multiply-accumulated against the quantized activation codes through the
//! shared [`edge_llm_tensor::lanes`] micro-kernel, with **one** f32
//! rescale per output element at the very end. No dequantized f32 weight
//! row ever exists.
//!
//! # Numerics (canonical for the integer decode route)
//!
//! Activations are quantized asymmetric per-row: row `i` of `x` becomes
//! integer codes `qx` with scale `sx_i` and integer zero-point `zx_i`, and
//! we store the *centred* codes `cx = qx - zx_i` plus their exact sum
//! `S0_i = Σ_p cx[i][p]`. Weights are symmetric per-row with the constant
//! zero-point `half = levels/2`, so
//!
//! ```text
//! y[i][j] = sx_i * sw_j * Σ_p cx[i][p] * (qw[j][p] - half)
//!         = ((S1 - half * S0_i) as f32) * (sx_i * sw_j)
//!   where  S1 = Σ_p cx[i][p] * qw[j][p]          (raw packed codes)
//! ```
//!
//! `S1` and `S0` are exact integer sums, so the subtraction and the single
//! rescale are the only floating-point operations per element. Because
//! integer addition is associative, *every* evaluation order — scalar,
//! word-lane SIMD, any serial/parallel panel split — produces bit-identical
//! results; the §5d ascending-`p` discipline is satisfied as an algebraic
//! identity rather than a coding rule. The oracle tests still check it
//! empirically (scalar vs lane kernel, threads 1/2/4/8).
//!
//! # Overflow budget
//!
//! Both operands are capped at 8-bit codes ([`packed_gemm_supported`]), so
//! `|cx| <= 255` and `qw <= 255`: every product fits in 17 bits. Lane
//! accumulators spill into the `i64` total every [`SPILL_WORDS`] words
//! (well inside the `i32` budget — see `edge_llm_tensor::lanes`), and the
//! `half * S0` correction is computed in `i64`.
//!
//! W2 weights get a narrower kernel: with weight codes ≤ 3 every product
//! fits 10 bits, so the centred activation codes are re-expressed as
//! `i16` (always lossless at ≤8 activation bits) and accumulated in
//! **16 `i16` lanes** — twice the SIMD throughput of the `i32` shape —
//! spilling every [`SPILL_WORDS_I16`] words. Integer arithmetic is exact
//! in either width, so the `i16` path is bit-identical to the scalar
//! oracle too; it is why W2 decode outruns W4 rather than merely tying
//! it.

use crate::affine::{fit_group, QuantizedTensor};
use crate::bitwidth::BitWidth;
use crate::scheme::{Granularity, QuantMode, QuantScheme};
use crate::QuantError;
use edge_llm_tensor::lanes::{mac_i16_lanes, mac_i32_lanes};
use edge_llm_tensor::{pool, Tensor};

/// Packed words accumulated in `i32` lanes between spills to the `i64`
/// total. At ≤17-bit products and ≤16 codes per word a lane absorbs
/// `4096 * 2^17 = 2^29` before spilling — no `i32` overflow.
const SPILL_WORDS: usize = 4096;

/// Spill cadence of the W2 `i16` kernel. A W2 weight code is at most 3
/// and a centred ≤8-bit activation code at most 255 in magnitude, so
/// every product fits 10 bits and an `i16` lane absorbs
/// `32 * 765 = 24480 < i16::MAX` before it must spill. Debug builds
/// panic if this budget were wrong; the max-magnitude oracle test pins
/// it.
const SPILL_WORDS_I16: usize = 32;

/// Whether the packed integer GEMM handles this weight/activation scheme
/// pair.
///
/// Weights must be symmetric per-row (constant integer zero-point, one
/// scale per output row) and activations asymmetric per-row (one scale /
/// zero-point per token row — which also makes a batch row identical to
/// the same row decoded solo). Both sides are capped at 8-bit codes so
/// every lane product fits the `i32` budget; W16 stays on the f32 routes.
pub fn packed_gemm_supported(weight: QuantScheme, activation: QuantScheme) -> bool {
    weight.mode == QuantMode::Symmetric
        && weight.granularity == Granularity::PerRow
        && weight.bits <= BitWidth::W8
        && activation.mode == QuantMode::Asymmetric
        && activation.granularity == Granularity::PerRow
        && activation.bits <= BitWidth::W8
}

/// Activation rows quantized for the packed integer GEMM: centred integer
/// codes plus the per-row scale and exact code sum.
#[derive(Debug, Clone)]
pub struct QuantizedActivations {
    m: usize,
    k: usize,
    /// Centred codes `qx - zx_row`, row-major.
    codes: Vec<i32>,
    /// Per-row activation scale `sx`.
    row_scale: Vec<f32>,
    /// Per-row exact sum `S0 = Σ codes` (the zero-point correction term).
    row_csum: Vec<i64>,
}

impl QuantizedActivations {
    /// `(rows, cols)` of the quantized activations.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    /// The centred codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[i32] {
        &self.codes[r * self.k..(r + 1) * self.k]
    }

    /// Scale of row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.row_scale[r]
    }
}

/// Quantizes activation rows for [`packed_decode_matmul`].
///
/// `scheme` must be asymmetric per-row at ≤ 8 bits (the activation half of
/// [`packed_gemm_supported`]). The per-row fit, rounding, and clamping are
/// exactly those of [`QuantizedTensor::quantize`], so a row quantized here
/// carries the same codes it would in the packed tensor form — and because
/// the granularity is per-row, quantizing a batch of rows is bit-identical
/// to quantizing each row solo.
///
/// # Errors
///
/// Returns [`QuantError::BadGroupSize`] for an unsupported scheme and
/// [`QuantError::NonFinite`] when `x` holds NaN or infinite values.
pub fn quantize_activations(
    x: &Tensor,
    scheme: QuantScheme,
) -> Result<QuantizedActivations, QuantError> {
    if scheme.mode != QuantMode::Asymmetric
        || scheme.granularity != Granularity::PerRow
        || scheme.bits > BitWidth::W8
    {
        return Err(QuantError::BadGroupSize {
            group: x.rows(),
            cols: x.cols(),
        });
    }
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(QuantError::NonFinite);
    }
    let (m, k) = x.shape();
    let max_code = scheme.bits.max_code() as f32;
    let mut codes = Vec::with_capacity(m * k);
    let mut row_scale = Vec::with_capacity(m);
    let mut row_csum = Vec::with_capacity(m);
    for r in 0..m {
        let row = x.row(r);
        let (scale, zero) = fit_group(row, scheme.bits, scheme.mode);
        let zx = zero as i32; // asymmetric zero-points are integer-valued
        let mut csum: i64 = 0;
        for &v in row {
            let q = (v / scale + zero).round().clamp(0.0, max_code) as i32;
            let c = q - zx;
            csum += c as i64;
            codes.push(c);
        }
        row_scale.push(scale);
        row_csum.push(csum);
    }
    Ok(QuantizedActivations {
        m,
        k,
        codes,
        row_scale,
        row_csum,
    })
}

/// Computes `x · Wᵀ` directly on the packed weight words.
///
/// * `x_q` — activations from [`quantize_activations`], shape `m x k`;
/// * `w_q` — weights quantized symmetric per-row at ≤ 8 bits, shape
///   `n x k` (row `j` is output channel `j`);
/// * `threads` — explicit worker count (`0` = global setting, `1` =
///   serial).
///
/// Solo decode (`m == 1`) splits the **output columns** across workers;
/// batched decode splits activation rows. Either way every output element
/// is the same exact integer accumulation, so all splits and thread counts
/// are bit-identical (see the module docs).
///
/// # Errors
///
/// Returns [`QuantError::ShapeMismatch`] unless `x_q` and `w_q` share `k`,
/// and [`QuantError::BadGroupSize`] when the weight scheme is outside
/// [`packed_gemm_supported`].
pub fn packed_decode_matmul(
    x_q: &QuantizedActivations,
    w_q: &QuantizedTensor,
    threads: usize,
) -> Result<Tensor, QuantError> {
    let (m, k, n, half) = validate(x_q, w_q)?;
    let mut out = Tensor::zeros(m, n);
    if out.is_empty() {
        return Ok(out);
    }
    // W2 rows run the 16-lane i16 kernel: re-express the centred codes as
    // i16 once per call (lossless — |cx| <= 255 at <= 8 activation bits).
    let is_w2 = w_q.scheme().bits == BitWidth::W2;
    let codes16: Vec<i16> = if is_w2 {
        x_q.codes.iter().map(|&c| c as i16).collect()
    } else {
        Vec::new()
    };
    let row16 = |i: usize| -> Option<&[i16]> { is_w2.then(|| &codes16[i * k..(i + 1) * k]) };
    if m == 1 {
        let xr = x_q.row(0);
        let x16 = row16(0);
        let (sx, s0) = (x_q.row_scale[0], x_q.row_csum[0]);
        let workers = pool::matmul_workers(threads, n, k, 1);
        pool::parallel_rows_mut(out.as_mut_slice(), n, 1, workers, |j0, panel| {
            for (dj, slot) in panel.iter_mut().enumerate() {
                let j = j0 + dj;
                let s1 = row_dot(w_q, j, k, xr, x16);
                *slot = ((s1 - half * s0) as f32) * (sx * w_q.scale(j));
            }
        });
    } else {
        let workers = pool::matmul_workers(threads, m, k, n);
        pool::parallel_rows_mut(out.as_mut_slice(), m, n, workers, |i0, panel| {
            for (r, orow) in panel.chunks_mut(n).enumerate() {
                let i = i0 + r;
                let xr = x_q.row(i);
                let x16 = row16(i);
                let (sx, s0) = (x_q.row_scale[i], x_q.row_csum[i]);
                for (j, slot) in orow.iter_mut().enumerate() {
                    let s1 = row_dot(w_q, j, k, xr, x16);
                    *slot = ((s1 - half * s0) as f32) * (sx * w_q.scale(j));
                }
            }
        });
    }
    Ok(out)
}

/// Scalar oracle for [`packed_decode_matmul`]: identical validation and
/// rescale, but `S1` comes from a plain ascending-`p` `i64` loop over
/// per-element [`crate::PackedInts::get`] — no word-lane kernel, no
/// parallelism. The oracle tests assert the fast path matches this
/// bit-for-bit.
pub fn packed_decode_matmul_scalar(
    x_q: &QuantizedActivations,
    w_q: &QuantizedTensor,
) -> Result<Tensor, QuantError> {
    let (m, k, n, half) = validate(x_q, w_q)?;
    let mut out = Tensor::zeros(m, n);
    let codes = w_q.codes();
    for i in 0..m {
        let xr = x_q.row(i);
        let (sx, s0) = (x_q.row_scale[i], x_q.row_csum[i]);
        for j in 0..n {
            let base = j * k;
            let mut s1: i64 = 0;
            for (p, &c) in xr.iter().enumerate() {
                s1 += (c as i64) * (codes.get(base + p) as i64);
            }
            out.set(i, j, ((s1 - half * s0) as f32) * (sx * w_q.scale(j)));
        }
    }
    Ok(out)
}

/// Shared shape/scheme validation; returns `(m, k, n, half)`.
fn validate(
    x_q: &QuantizedActivations,
    w_q: &QuantizedTensor,
) -> Result<(usize, usize, usize, i64), QuantError> {
    let ws = w_q.scheme();
    if ws.mode != QuantMode::Symmetric
        || ws.granularity != Granularity::PerRow
        || ws.bits > BitWidth::W8
    {
        return Err(QuantError::BadGroupSize {
            group: w_q.rows(),
            cols: w_q.cols(),
        });
    }
    let (m, k) = x_q.shape();
    if k != w_q.cols() {
        return Err(QuantError::ShapeMismatch {
            op: "packed_decode_matmul",
            lhs: (m, k),
            rhs: w_q.shape(),
        });
    }
    Ok((m, k, w_q.rows(), (ws.bits.levels() / 2) as i64))
}

/// `S1 = Σ_p cx[p] * qw[j][p]` for weight row `j`, computed on the packed
/// words: a scalar head up to the first word boundary (rows need not start
/// word-aligned when `k % per_word != 0`), the word-lane kernel over the
/// full words, and a scalar tail. `xr16` is the i16 image of `xr` and is
/// `Some` exactly when the weights are W2 (the i16 fast path).
fn row_dot(w_q: &QuantizedTensor, j: usize, k: usize, xr: &[i32], xr16: Option<&[i16]>) -> i64 {
    let codes = w_q.codes();
    let per_word = codes.per_word();
    let start = j * k;
    let end = start + k;
    let aligned = start.next_multiple_of(per_word).min(end);
    let mut s1: i64 = 0;
    for p in start..aligned {
        s1 += (xr[p - start] as i64) * (codes.get(p) as i64);
    }
    let n_words = (end - aligned) / per_word;
    let mid_end = aligned + n_words * per_word;
    if n_words > 0 {
        let words = &codes.words()[aligned / per_word..aligned / per_word + n_words];
        let xmid = &xr[aligned - start..mid_end - start];
        s1 += match (codes.bits(), xr16) {
            (BitWidth::W2, Some(x16)) => {
                dot_words_w2_i16(words, &x16[aligned - start..mid_end - start])
            }
            (BitWidth::W2, None) => dot_words::<16, 2>(words, xmid),
            (BitWidth::W4, _) => dot_words::<8, 4>(words, xmid),
            (BitWidth::W8, _) => dot_words::<4, 8>(words, xmid),
            (BitWidth::W16, _) => unreachable!("validate() caps weights at W8"),
        };
    }
    for p in mid_end..end {
        s1 += (xr[p - start] as i64) * (codes.get(p) as i64);
    }
    s1
}

/// Word-lane inner kernel: unpack each 32-bit word into `PER` integer
/// lanes of `BITS` bits and multiply-accumulate against the matching
/// activation chunk. `PER` and `BITS` are compile-time so the unpack and
/// MAC fully unroll into the dependency-free lane shape the autovectorizer
/// turns into SIMD. The spill lives on an **outer** chunk loop rather than
/// as a per-word counter check — a per-word `%` costs ~40% on the W2 shape.
fn dot_words<const PER: usize, const BITS: u32>(words: &[u32], xr: &[i32]) -> i64 {
    debug_assert_eq!(words.len() * PER, xr.len());
    debug_assert_eq!(PER as u32 * BITS, 32);
    let mask: u32 = (1u64 << BITS).wrapping_sub(1) as u32;
    let mut total: i64 = 0;
    for (wchunk, xchunk) in words.chunks(SPILL_WORDS).zip(xr.chunks(SPILL_WORDS * PER)) {
        let mut lanes = [0i32; PER];
        for (&word, xc) in wchunk.iter().zip(xchunk.chunks_exact(PER)) {
            let mut wl = [0i32; PER];
            for (l, slot) in wl.iter_mut().enumerate() {
                *slot = ((word >> (l as u32 * BITS)) & mask) as i32;
            }
            let xc: &[i32; PER] = xc.try_into().expect("PER-sized chunk");
            mac_i32_lanes(&mut lanes, &wl, xc);
        }
        total += lanes.iter().map(|&v| v as i64).sum::<i64>();
    }
    total
}

/// The W2 fast kernel: 16 `i16` lanes per word — double the SIMD width of
/// the `i32` shape — under the tight [`SPILL_WORDS_I16`] spill cadence.
/// Exact integer arithmetic, so bit-identical to `dot_words::<16, 2>` and
/// to the scalar oracle.
fn dot_words_w2_i16(words: &[u32], xr: &[i16]) -> i64 {
    debug_assert_eq!(words.len() * 16, xr.len());
    let mut total: i64 = 0;
    for (wchunk, xchunk) in words
        .chunks(SPILL_WORDS_I16)
        .zip(xr.chunks(SPILL_WORDS_I16 * 16))
    {
        let mut lanes = [0i16; 16];
        for (&word, xc) in wchunk.iter().zip(xchunk.chunks_exact(16)) {
            let mut wl = [0i16; 16];
            for (l, slot) in wl.iter_mut().enumerate() {
                *slot = ((word >> (l as u32 * 2)) & 3) as i16;
            }
            let xc: &[i16; 16] = xc.try_into().expect("16-code chunk");
            mac_i16_lanes(&mut lanes, &wl, xc);
        }
        total += lanes.iter().map(|&v| v as i64).sum::<i64>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_tensor::{matmul_a_bt, TensorRng};

    fn act_scheme(bits: BitWidth) -> QuantScheme {
        QuantScheme::asymmetric(bits)
    }

    #[test]
    fn supported_matrix_is_exact() {
        let w = QuantScheme::symmetric(BitWidth::W4);
        let a = act_scheme(BitWidth::W8);
        assert!(packed_gemm_supported(w, a));
        assert!(!packed_gemm_supported(w, act_scheme(BitWidth::W16)));
        assert!(!packed_gemm_supported(
            QuantScheme::symmetric(BitWidth::W16),
            a
        ));
        assert!(!packed_gemm_supported(
            QuantScheme::asymmetric(BitWidth::W4),
            a
        ));
        assert!(!packed_gemm_supported(
            w,
            QuantScheme::symmetric(BitWidth::W8)
        ));
        assert!(!packed_gemm_supported(
            w.with_granularity(Granularity::Group(8)),
            a
        ));
        assert!(!packed_gemm_supported(
            w,
            a.with_granularity(Granularity::PerTensor)
        ));
    }

    #[test]
    fn fast_path_matches_scalar_oracle_bitwise() {
        let mut rng = TensorRng::seed_from(7);
        for wbits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            // k values exercising unaligned row starts and ragged tails
            for &(m, k, n) in &[(1usize, 67usize, 9usize), (3, 64, 5), (4, 33, 7)] {
                let x = Tensor::randn(m, k, 1.0, &mut rng);
                let w = Tensor::randn(n, k, 0.3, &mut rng);
                let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(wbits)).unwrap();
                let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
                let fast = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
                let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
                assert_eq!(
                    fast.as_slice(),
                    oracle.as_slice(),
                    "lane kernel drift at {wbits} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn matches_dense_reference_through_same_grid() {
        // The dequantized weight is exactly (qw - half) * sw and the
        // dequantized activation row exactly cx * sx, so an f32 reference
        // through those grids agrees to rounding of the exact integer sum.
        let mut rng = TensorRng::seed_from(8);
        let x = Tensor::randn(2, 48, 1.0, &mut rng);
        let w = Tensor::randn(6, 48, 0.3, &mut rng);
        let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W4)).unwrap();
        let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
        let mut x_hat = Tensor::zeros(2, 48);
        for i in 0..2 {
            for (p, &c) in x_q.row(i).iter().enumerate() {
                x_hat.set(i, p, c as f32 * x_q.scale(i));
            }
        }
        let reference = matmul_a_bt(&x_hat, &w_q.dequantize()).unwrap();
        let integer = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
        for (a, b) in integer.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn w2_i16_kernel_survives_max_magnitude_codes() {
        // Worst case of the i16 overflow budget: activation codes pinned
        // at |cx| = 255 (a row of {-1, 0} under asymmetric W8 puts the
        // zero-point at 255) against saturated W2 weight codes, over more
        // than two SPILL_WORDS_I16 windows plus a ragged tail. Debug
        // builds panic on i16 overflow, so passing bitwise against the
        // scalar oracle pins the spill cadence, not just the arithmetic.
        let k = SPILL_WORDS_I16 * 16 * 2 + 21;
        let x = Tensor::from_vec(
            1,
            k,
            (0..k)
                .map(|p| if p % 3 == 0 { 0.0 } else { -1.0 })
                .collect(),
        )
        .unwrap();
        let w = Tensor::from_vec(
            3,
            k,
            (0..3 * k)
                .map(|p| if p % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        )
        .unwrap();
        let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W2)).unwrap();
        let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
        assert!(x_q.row(0).contains(&-255), "extreme codes exist");
        let fast = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
        let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
        assert_eq!(fast.as_slice(), oracle.as_slice());
    }

    #[test]
    fn batched_rows_equal_solo_rows_bitwise() {
        let mut rng = TensorRng::seed_from(9);
        let x = Tensor::randn(5, 40, 1.0, &mut rng);
        let w = Tensor::randn(6, 40, 0.3, &mut rng);
        let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W2)).unwrap();
        let batch = packed_decode_matmul(
            &quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap(),
            &w_q,
            1,
        )
        .unwrap();
        for i in 0..5 {
            let solo_x = Tensor::from_vec(1, 40, x.row(i).to_vec()).unwrap();
            let solo = packed_decode_matmul(
                &quantize_activations(&solo_x, act_scheme(BitWidth::W8)).unwrap(),
                &w_q,
                1,
            )
            .unwrap();
            assert_eq!(solo.as_slice(), &batch.as_slice()[i * 6..(i + 1) * 6]);
        }
    }

    #[test]
    fn rejects_bad_schemes_and_shapes() {
        let mut rng = TensorRng::seed_from(10);
        let x = Tensor::randn(2, 16, 1.0, &mut rng);
        let w = Tensor::randn(3, 16, 0.3, &mut rng);
        // activation scheme must be asymmetric per-row <= W8
        assert!(quantize_activations(&x, QuantScheme::symmetric(BitWidth::W8)).is_err());
        assert!(quantize_activations(&x, act_scheme(BitWidth::W16)).is_err());
        assert!(quantize_activations(
            &x,
            act_scheme(BitWidth::W8).with_granularity(Granularity::PerTensor)
        )
        .is_err());
        let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
        // weight scheme must be symmetric per-row <= W8
        for bad in [
            QuantScheme::asymmetric(BitWidth::W4),
            QuantScheme::symmetric(BitWidth::W16),
            QuantScheme::symmetric(BitWidth::W4).with_granularity(Granularity::Group(4)),
        ] {
            let w_q = QuantizedTensor::quantize(&w, bad).unwrap();
            assert!(packed_decode_matmul(&x_q, &w_q, 1).is_err());
        }
        // shape mismatch
        let w_short = Tensor::randn(3, 8, 0.3, &mut rng);
        let w_q =
            QuantizedTensor::quantize(&w_short, QuantScheme::symmetric(BitWidth::W4)).unwrap();
        assert!(packed_decode_matmul(&x_q, &w_q, 1).is_err());
        // non-finite activations
        let mut bad_x = Tensor::zeros(1, 4);
        bad_x.set(0, 2, f32::NAN);
        assert_eq!(
            quantize_activations(&bad_x, act_scheme(BitWidth::W8)).unwrap_err(),
            QuantError::NonFinite
        );
    }
}
