//! Packed-code integer GEMM — the decode hot-path datapath.
//!
//! The row-dequant route (`Linear`: `matmul_fill_b_with` over
//! [`QuantizedTensor::dequantize_row_into`](crate::QuantizedTensor::dequantize_row_into))
//! turns packed weights back into f32 before multiplying: the memory win
//! of 2/4-bit storage is real but the compute runs in floating point. This
//! module computes `x · Wᵀ` directly on the [`PackedInts`](crate::PackedInts)
//! words with **one kernel for every width**: a weight row's words are
//! unpacked into `i16` codes, multiply-accumulated (`i16 × i16 → i32`)
//! against the quantized activation codes, and rescaled with **one** f32
//! multiply per output element at the very end. No dequantized f32 weight
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
//! plane-ordered SIMD, any worker split — produces bit-identical results;
//! the §5d ascending-`p` discipline is satisfied as an algebraic identity
//! rather than a coding rule. The oracle tests still check it empirically
//! (scalar vs fast kernel, threads 1/2/4/8).
//!
//! # Loop order: unpack once, multiply against every row
//!
//! The driver takes each weight row `j` **once per call**: its words are
//! unpacked into a `k`-long `i16` scratch (`edge_llm_tensor::lanes`), and
//! that scratch is dotted against all `m` activation rows before the next
//! weight row is touched — the unpack is paid per weight code, not per
//! multiply, so a batch of rows costs barely more than one. The unpack
//! emits full word groups in *plane order* (the shape baseline SIMD can
//! shift-and-mask; see `lanes`), so the activation rows are copied once in
//! the same order. When `k` is a whole number of words — every model shape
//! at W2, W4 and W8 — every weight row starts on a word boundary: a row is
//! one `unpack_planes` call over its `k / per_word` words, and one
//! permuted copy, built once per call, serves every row of every worker.
//! Only a ragged `k` takes the per-row head/tail path (`unpack_row`), with
//! a copy per worker rebuilt whenever a row starts at a different offset
//! inside its first word. The rescale's activation-row terms `half · S0_i`
//! and `sx_i` are computed once per call, outside the weight-row loop.
//! Per-call scratch is `m · k` `i16`s for the permuted rows plus `k` per
//! worker (`(m + 1) · k` per worker for a ragged `k`); nothing is
//! resident.
//!
//! Each dot runs in sixteen `i32` lanes (`lanes::dot_i16`), which LLVM
//! lowers to full-width `pmaddwd` on baseline SSE2, so against one
//! activation row a weight row's multiply-adds cost about what its unpack
//! does. The dot is inlined into the row loop and a row of at most
//! `SPILL_BLOCK` codes is one block, so a weight row pays one call, its
//! unpack, besides its multiply-adds. What it costs beyond the two —
//! slicing its words, the rescale, the stores — is about an eighth of a
//! one-row call, down from about a third: the kernel takes 1.07–1.19x a
//! bare loop that only unpacks each row and dots it (EXPERIMENTS.md B9).
//!
//! Workers split the **weight rows** (`pool::partition`), for solo and
//! batched shapes alike, so a row is unpacked once per call at any thread
//! count. A worker's rows are a run of output columns, and it writes its
//! slice of every row of the `(m, n)` result in place: no `(n, m)` panel,
//! no transpose.
//!
//! # Overflow budget
//!
//! Both operands are capped at 8-bit codes ([`packed_gemm_supported`]), so
//! `|cx| <= 255` and `qw <= 255` and both fit `i16` losslessly; a product
//! fits 17 bits. [`dot_i16`] sums `i32`s over blocks of `lanes::SPILL_BLOCK`
//! elements (`255 · 255 · 2^15 < 2^31`) and the block sums, like the
//! `half * S0` correction, in `i64` — one budget for W2, W4 and W8.

use crate::affine::{whole, QuantizedTensor, RowGrid};
use crate::bitwidth::BitWidth;
use crate::packed::PackedInts;
use crate::scheme::{QuantMode, QuantScheme};
use crate::QuantError;
use edge_llm_tensor::lanes::{dot_i16, plane_order, unpack_planes};
use edge_llm_tensor::{all_finite, pool, Tensor};

/// Whether the packed integer GEMM handles this weight/activation scheme
/// pair.
///
/// Weights must be symmetric (constant integer zero-point, one scale per
/// output row) and activations asymmetric (one scale / zero-point per
/// token row). Both sides are capped at 8-bit codes so every code fits
/// `i16` and every product the `i32` budget; W16 stays on the f32 routes.
pub fn packed_gemm_supported(weight: QuantScheme, activation: QuantScheme) -> bool {
    supported(weight, QuantMode::Symmetric) && supported(activation, QuantMode::Asymmetric)
}

/// One side of [`packed_gemm_supported`].
fn supported(scheme: QuantScheme, mode: QuantMode) -> bool {
    scheme.mode == mode && scheme.bits <= BitWidth::W8
}

/// Activation rows quantized for the packed integer GEMM: centred integer
/// codes plus the per-row scale and exact code sum.
#[derive(Debug, Clone)]
pub struct QuantizedActivations {
    m: usize,
    k: usize,
    /// Centred codes `qx - zx_row`, row-major; `|code| <= 255`.
    codes: Vec<i16>,
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
    pub fn row(&self, r: usize) -> &[i16] {
        &self.codes[r * self.k..(r + 1) * self.k]
    }

    /// Scale of row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.row_scale[r]
    }
}

/// Quantizes activation rows for [`packed_decode_matmul`].
///
/// `scheme` must be asymmetric at ≤ 8 bits (the activation half of
/// [`packed_gemm_supported`]). The per-row fit and rounding are those of
/// [`QuantizedTensor::quantize`], so a row quantized here carries the same
/// codes it would in the packed tensor form — and quantizing a batch of
/// rows is bit-identical to quantizing each row solo.
///
/// # Errors
///
/// Returns [`QuantError::UnsupportedScheme`] for any other scheme and
/// [`QuantError::NonFinite`] when `x` holds NaN or infinite values.
pub fn quantize_activations(
    x: &Tensor,
    scheme: QuantScheme,
) -> Result<QuantizedActivations, QuantError> {
    if !supported(scheme, QuantMode::Asymmetric) {
        return Err(QuantError::UnsupportedScheme {
            op: "quantize_activations",
            scheme: scheme.to_string(),
        });
    }
    if !all_finite(x.as_slice()) {
        return Err(QuantError::NonFinite);
    }
    let (m, k) = x.shape();
    let max_code = scheme.bits.max_code() as f32;
    let mut codes = vec![0i16; m * k];
    let mut row_scale = Vec::with_capacity(m);
    let mut row_csum = Vec::with_capacity(m);
    for r in 0..m {
        let row = x.row(r);
        let grid = RowGrid::fit(row, scheme.bits, scheme.mode);
        // Asymmetric zero-points are integers in `0..=max_code`; the clamp
        // is what holds `|code| <= max_code` to that, not the fit.
        let zx = grid.zero.clamp(0.0, max_code);
        let out = &mut codes[r * k..(r + 1) * k];
        for (c, &v) in out.iter_mut().zip(row) {
            *c = whole(grid.code_f32(v) - zx) as i16;
        }
        row_scale.push(grid.scale);
        // `|code| <= 255`, so an `i32` sums any 2²³ of them exactly
        let csum = out.chunks(1 << 23).map(|part| {
            let sum: i32 = part.iter().map(|&c| i32::from(c)).sum();
            i64::from(sum)
        });
        row_csum.push(csum.sum());
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
/// Workers split the weight rows; each row is unpacked once and dotted
/// against every activation row (see the module docs). Every output
/// element is the same exact integer accumulation, so all splits and
/// thread counts are bit-identical.
///
/// # Errors
///
/// Returns [`QuantError::ShapeMismatch`] unless `x_q` and `w_q` share `k`,
/// and [`QuantError::UnsupportedScheme`] when the weight scheme is outside
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
    let codes = w_q.codes();
    let (per_word, bits) = (codes.per_word(), codes.bits().bits());
    // The rescale's activation-row terms `(half · S0_i, sx_i)`, once a call.
    let terms: Vec<(i64, f32)> = (x_q.row_csum.iter().zip(&x_q.row_scale))
        .map(|(&s0, &sx)| (half * s0, sx))
        .collect();
    // Whole-word rows all start on a word boundary, so one plane-ordered
    // copy of the activation rows serves every weight row of every worker.
    let whole_words = (k % per_word == 0).then(|| {
        let mut x_rows = vec![0i16; m * k];
        permute_rows(x_q, 0, per_word, &mut x_rows);
        x_rows
    });
    // A worker's run of weight rows is a run of output columns: it writes
    // its slice of every row of the `(m, n)` result in place.
    let workers = pool::workers(threads, n.saturating_mul(k).saturating_mul(m), n);
    let runs = pool::partition(n, workers);
    let mut slices: Vec<Vec<&mut [f32]>> = runs.iter().map(|_| Vec::with_capacity(m)).collect();
    for mut row in out.as_mut_slice().chunks_exact_mut(n) {
        for (run, out_rows) in runs.iter().zip(&mut slices) {
            let (mine, rest) = row.split_at_mut(run.len());
            out_rows.push(mine);
            row = rest;
        }
    }
    let shares: Vec<_> = runs.into_iter().zip(slices).collect();
    pool::fan_out(shares, |(run, mut out_rows)| {
        let mut w_row = vec![0i16; k];
        if let Some(x_rows) = &whole_words {
            let words = k / per_word;
            for (col, j) in run.enumerate() {
                unpack_planes(&codes.words()[j * words..][..words], bits, &mut w_row);
                row_dots(&mut out_rows, col, &w_row, x_rows, &terms, w_q.scale(j));
            }
        } else {
            let (mut x_rows, mut x_head) = (vec![0i16; m * k], None);
            for (col, j) in run.enumerate() {
                let head = unpack_row(codes, j * k, &mut w_row);
                if x_head != Some(head) {
                    permute_rows(x_q, head, per_word, &mut x_rows);
                    x_head = Some(head);
                }
                row_dots(&mut out_rows, col, &w_row, &x_rows, &terms, w_q.scale(j));
            }
        }
    });
    Ok(out)
}

/// One weight row's `m` outputs, column `col` of `out_rows`: its unpacked
/// codes `w_row` dotted with each activation row of `x_rows` (in the same
/// order), then rescaled by the row terms and the row's scale `sw`.
/// Inlined into both row loops, so a weight row pays no call besides its
/// unpack. At `k = 0` there are no rows to zip and the outputs keep their
/// `+0.0`, which is `(0 - 0) · s` for every (positive, finite) scale.
#[inline(always)]
fn row_dots(
    out_rows: &mut [&mut [f32]],
    col: usize,
    w_row: &[i16],
    x_rows: &[i16],
    terms: &[(i64, f32)],
    sw: f32,
) {
    let rows = x_rows.chunks_exact(w_row.len().max(1));
    for ((out, x_row), &(offset, sx)) in out_rows.iter_mut().zip(rows).zip(terms) {
        out[col] = ((dot_i16(w_row, x_row) - offset) as f32) * (sx * sw);
    }
}

/// Scalar oracle for [`packed_decode_matmul`]: identical validation and
/// rescale, but `S1` comes from a plain ascending-`p` `i64` loop over
/// per-element [`crate::PackedInts::get`] — no unpacked row, no plane
/// order, no parallelism. The oracle tests assert the fast path matches
/// this bit-for-bit.
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
    if !supported(ws, QuantMode::Symmetric) {
        return Err(QuantError::UnsupportedScheme {
            op: "packed_decode_matmul",
            scheme: ws.to_string(),
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

/// The whole-word body of a `k`-code row that starts `head` codes before
/// a word boundary: what lies between that head and the tail in a last
/// partial word, as offsets into the row.
fn word_body(head: usize, k: usize, per_word: usize) -> std::ops::Range<usize> {
    head..head + (k - head) / per_word * per_word
}

/// Writes the `out.len()` codes at packed position `start` to `out` — head
/// and tail code by code in place, the body through the plane-ordered word
/// unpack — and returns the head length (rows need not start word-aligned
/// when `k % per_word != 0`), which fixes that order.
fn unpack_row(codes: &PackedInts, start: usize, out: &mut [i16]) -> usize {
    let per_word = codes.per_word();
    let head = (start.next_multiple_of(per_word) - start).min(out.len());
    let body = word_body(head, out.len(), per_word);
    for p in (0..head).chain(body.end..out.len()) {
        out[p] = codes.get(start + p) as i16;
    }
    let first = (start + head) / per_word;
    unpack_planes(
        &codes.words()[first..first + body.len() / per_word],
        codes.bits().bits(),
        &mut out[body],
    );
    head
}

/// Copies every activation row into `dst` (`m · k` codes) in the order
/// [`unpack_row`] writes a weight row whose head is `head` codes long.
fn permute_rows(x_q: &QuantizedActivations, head: usize, per_word: usize, dst: &mut [i16]) {
    let k = x_q.k;
    let body = word_body(head, k, per_word);
    for i in 0..x_q.m {
        let (src, dst) = (x_q.row(i), &mut dst[i * k..(i + 1) * k]);
        dst.copy_from_slice(src);
        plane_order(&src[body.clone()], per_word, &mut dst[body.clone()]);
    }
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
    }

    #[test]
    fn fast_path_matches_scalar_oracle_bitwise() {
        let mut rng = TensorRng::seed_from(7);
        for wbits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            // k values exercising unaligned row starts and ragged tails,
            // and an empty reduction
            for &(m, k, n) in &[(1usize, 67usize, 9usize), (3, 64, 5), (4, 33, 7), (2, 0, 3)] {
                let x = Tensor::randn(m, k, 1.0, &mut rng);
                let w = Tensor::randn(n, k, 0.3, &mut rng);
                let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(wbits)).unwrap();
                let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
                let fast = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
                let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
                assert_eq!(
                    fast.as_slice(),
                    oracle.as_slice(),
                    "fast kernel drift at {wbits} {m}x{k}x{n}"
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
    fn kernel_survives_max_magnitude_codes_at_every_width() {
        // Worst case of the one overflow budget: every activation code at
        // cx = -255 (a row of -1.0 under asymmetric W8 puts the zero-point
        // at 255) against every weight code at its maximum (255 at W8),
        // over more than one SPILL_BLOCK plus a ragged tail, with an odd
        // `k` so rows 1 and 2 start mid-word. Debug builds panic on i32
        // overflow, so passing bitwise against the scalar oracle pins the
        // spill cadence, not just the arithmetic.
        let k = edge_llm_tensor::lanes::SPILL_BLOCK + 21;
        let x = Tensor::full(2, k, -1.0);
        let w = Tensor::full(3, k, 1.0);
        let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
        assert!(x_q.row(1).iter().all(|&c| c == -255), "extreme codes");
        for wbits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(wbits)).unwrap();
            assert_eq!(w_q.codes().get(k), wbits.max_code(), "saturated {wbits}");
            let fast = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
            let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
            assert_eq!(fast.as_slice(), oracle.as_slice(), "{wbits}");
        }
    }

    #[test]
    fn activation_codes_match_the_packed_tensor_form_and_sum_exactly() {
        // The doc comment's promise, on rows chosen to sit on the rounding
        // rule's edges: activation codes must be `QuantizedTensor::quantize`'s
        // code for code, `S0` the exact sum of the centred codes, and the
        // libm-free rounding both share `f32::round().clamp()`.
        let mut rng = TensorRng::seed_from(11);
        let k = 67;
        let mut rows: Vec<Vec<f32>> = Vec::new();
        // exact half-way values at every width: v / scale + zero = i + 0.5
        // when the range is 0..=max_code (scale 1, zero 0)
        for max in [3.0f32, 15.0, 255.0] {
            let mut ramp: Vec<f32> = (0..k).map(|p| (p as f32 * 0.5).min(max)).collect();
            ramp[k - 1] = max;
            rows.push(ramp.iter().map(|v| -v).collect());
            rows.push(ramp);
        }
        // and on the symmetric grids: max |v| = half - 1 gives scale 1
        for max in [1.0f32, 7.0, 127.0, 32767.0] {
            let mut ramp: Vec<f32> = (0..k).map(|p| (p as f32 * 0.5 - 16.0).min(max)).collect();
            ramp[k - 1] = max;
            rows.push(ramp.iter().map(|v| v.max(-max)).collect());
        }
        // one ulp either side of half-way points
        rows.push(
            (0..k)
                .map(|p| {
                    let half = (p / 2) as f32 + 0.5;
                    let bits = half.to_bits();
                    f32::from_bits(if p % 2 == 0 { bits - 1 } else { bits + 1 })
                })
                .collect(),
        );
        rows.push(
            (0..k)
                .map(|p| if p % 2 == 0 { -0.0 } else { 0.0 })
                .collect(),
        );
        rows.push(vec![-0.0; k]);
        rows.push(vec![2.5; k]); // a constant row
        rows.push(vec![-7.25; k]);
        // denormals: a range whose step is subnormal, and one so narrow
        // it underflows to zero — both take the unit scale
        rows.push((0..k).map(|p| p as f32 * 1e-41).collect());
        rows.push((0..k).map(|p| (p % 2) as f32 * f32::from_bits(1)).collect());
        rows.push(
            (0..k)
                .map(|p| -((p % 3) as f32) * f32::from_bits(1))
                .collect(),
        );
        for _ in 0..8 {
            rows.push(Tensor::randn(1, k, 2.0, &mut rng).into_vec());
        }
        let m = rows.len();
        let x = Tensor::from_vec(m, k, rows.concat()).unwrap();
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let x_q = quantize_activations(&x, act_scheme(bits)).unwrap();
            let packed = QuantizedTensor::quantize(&x, act_scheme(bits)).unwrap();
            let max = bits.max_code() as f32;
            for r in 0..m {
                assert_eq!(x_q.scale(r), packed.scale(r), "{bits} row {r}");
                let zx = packed.zero_point(r).clamp(0.0, max) as i32;
                let raw: Vec<u32> = x_q.row(r).iter().map(|&c| (c as i32 + zx) as u32).collect();
                assert_eq!(raw, packed.row_codes(r), "{bits} row {r}");
                let sum: i64 = x_q.row(r).iter().map(|&c| c as i64).sum();
                assert_eq!(x_q.row_csum[r], sum, "{bits} row {r}");
                let bound = bits.max_code() as i16;
                assert!(
                    x_q.row(r).iter().all(|c| c.abs() <= bound),
                    "{bits} row {r}"
                );
            }
            // bounded codes keep every row inside the kernel's overflow
            // budget: the underflowed-scale rows used to carry codes near
            // `i32::MIN` and panic debug builds in the multiply
            let ones = Tensor::full(2, k, 1.0);
            let w = QuantizedTensor::quantize(&ones, QuantScheme::symmetric(BitWidth::W8)).unwrap();
            let y = packed_decode_matmul(&x_q, &w, 1).unwrap();
            assert!(y.as_slice().iter().all(|v| v.is_finite()), "{bits}");
        }
        // The same rounding is the weight side's and the f32 routes': on
        // every grid at every width, W16 included, it is
        // `f32::round().clamp()` code for code.
        for bits in BitWidth::ALL {
            let max = bits.max_code() as f32;
            for scheme in [QuantScheme::symmetric(bits), act_scheme(bits)] {
                for (r, row) in rows.iter().enumerate() {
                    let grid = RowGrid::fit(row, scheme.bits, scheme.mode);
                    for &v in row {
                        let want = (v / grid.scale + grid.zero).round().clamp(0.0, max) as u32;
                        assert_eq!(grid.code(v), want, "{scheme} row {r} value {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn flipping_one_packed_code_turns_exactly_one_output_column() {
        // The standing mutant for this route (ROADMAP 7): the bitwise
        // oracle is only evidence if it can go red. One code of weight row
        // `j` is replaced — in its unaligned head, in a full plane group
        // of its body, in the natural-order words after the last group,
        // and in its ragged tail — and the fast kernel on the mutant must
        // leave the scalar oracle of the *original* in column `j` of every
        // row and nowhere else. A kernel that skipped a plane, or read it
        // from a neighbouring row, fails one side of that.
        let mut rng = TensorRng::seed_from(12);
        for wbits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let per_word = (32 / wbits.bits()) as usize;
            let (m, k, n, j) = (3usize, 10 * per_word + 5, 4usize, 1usize);
            let head = per_word - (j * k) % per_word;
            let group = edge_llm_tensor::lanes::PLANE_WORDS * per_word;
            assert!(head < per_word && head + group + per_word < k, "layout");
            // activations bounded away from the zero-point: every centred
            // code is non-zero, so every row sees the flip
            let x = Tensor::from_vec(m, k, (0..m * k).map(|_| rng.uniform(0.25, 1.0)).collect())
                .unwrap();
            let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
            assert!((0..m).all(|i| x_q.row(i).iter().all(|&c| c != 0)));
            let w = Tensor::randn(n, k, 0.3, &mut rng);
            let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(wbits)).unwrap();
            let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
            for (site, p) in [
                ("head", head - 1),
                ("plane group", head + group / 2 + 1),
                ("words past the last group", head + group + 1),
                ("tail", k - 1),
            ] {
                let mut codes = w_q.codes().unpack();
                // max_code is odd, so this always changes the code
                codes[j * k + p] = wbits.max_code() - codes[j * k + p];
                let mutant = w_q.with_codes(PackedInts::pack(wbits, &codes));
                for threads in [1, 2] {
                    let got = packed_decode_matmul(&x_q, &mutant, threads).unwrap();
                    for i in 0..m {
                        for col in 0..n {
                            let same = got.get(i, col).to_bits() == oracle.get(i, col).to_bits();
                            assert_eq!(same, col != j, "{wbits} {site}: row {i} column {col}");
                        }
                    }
                }
            }
        }
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
        // activation scheme must be asymmetric <= W8
        assert!(quantize_activations(&x, QuantScheme::symmetric(BitWidth::W8)).is_err());
        assert_eq!(
            quantize_activations(&x, act_scheme(BitWidth::W16)).unwrap_err(),
            QuantError::UnsupportedScheme {
                op: "quantize_activations",
                scheme: "16b/asym/row".into(),
            }
        );
        let x_q = quantize_activations(&x, act_scheme(BitWidth::W8)).unwrap();
        // weight scheme must be symmetric <= W8
        for bad in [
            QuantScheme::asymmetric(BitWidth::W4),
            QuantScheme::symmetric(BitWidth::W16),
        ] {
            let w_q = QuantizedTensor::quantize(&w, bad).unwrap();
            assert_eq!(
                packed_decode_matmul(&x_q, &w_q, 1).unwrap_err(),
                QuantError::UnsupportedScheme {
                    op: "packed_decode_matmul",
                    scheme: bad.to_string(),
                }
            );
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
