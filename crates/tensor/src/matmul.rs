//! Matrix multiplication kernels.
//!
//! Three layouts are needed by transformer training:
//!
//! * `C = A · B` — forward projections ([`Tensor::matmul`]),
//! * `C = Aᵀ · B` — weight gradients ([`matmul_at_b`]),
//! * `C = A · Bᵀ` — input gradients and attention scores ([`matmul_a_bt`]).
//!
//! All three keep one invariant: every output element starts at `0.0` and
//! adds its products in ascending `p` with a single accumulator, so on
//! finite operands the layouts agree with each other and with the scalar
//! dot bit for bit.
//!
//! All three run one loop nest ([`blocked`]). The reduction is cut into
//! `TILE`-row panels of `B`; inside a panel, `JR`-wide column
//! strips sweep `IR x JR` register micro-tiles down the whole output, so
//! each loaded `B` vector is reused across `IR` output rows and a
//! multi-row (batched) product is genuinely cheaper per row than repeated
//! single-row calls — without changing the per-element accumulation order
//! (see [`micro_tile`]). The output itself is not tiled: one strip of a
//! panel (`TILE x JR` floats) stays in L1 while the rows of `A` stream
//! past it. The nest takes its panel of `B` either straight from a dense
//! matrix or from a caller's `fill` closure ([`matmul_fill_b_with`]);
//! `A · Bᵀ` is the second kind, with a fill that transposes one panel of
//! `B` at a time. `Aᵀ · B` runs the dense kind whenever `B` is finite,
//! one `TILE`-row panel of `A` at a time, transposed into a stack
//! buffer. Only a `B` holding an `Inf` or `NaN` takes the
//! `p`-outer row loop [`at_b_rows`], which skips zero elements of `A` so
//! that they never meet it (see [`matmul_at_b`] for why the two routes
//! agree on every finite `B`).
//!
//! Every layout takes a worker count (`0` = the process-wide setting,
//! `1` = serial) and splits the **output rows** into disjoint contiguous
//! panels via [`crate::pool`], running the serial blocked loop on each
//! panel. Because the per-element accumulation order over the
//! reduction dimension is unchanged (ascending `p`, regardless of how rows
//! are grouped into panels), the parallel kernels are **bit-identical to the
//! serial ones for every thread count** — the property the oracle tests in
//! `tests/parallel_oracle.rs` pin down with exact `f32` equality.

use crate::error::TensorError;
use crate::pool;
use crate::tensor::Tensor;

/// Rows of `B` per `p` panel of [`blocked`]: the reduction block, and the
/// unit a `fill` closure produces at a time.
const TILE: usize = 32;

/// Workers for an `m x k x n` product: its MACs, split over output rows.
fn effective_threads(threads: usize, m: usize, k: usize, n: usize) -> usize {
    pool::workers(threads, m.saturating_mul(k).saturating_mul(n), m)
}

impl Tensor {
    /// Computes `self · other` with the default kernel: the blocked kernel,
    /// parallelized over row panels when the process-wide thread setting
    /// (`EDGELLM_THREADS` / [`pool::set_configured_threads`]) asks for more
    /// than one worker. Results are bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_with(other, 0)
    }

    /// [`Tensor::matmul`] with an explicit worker count (`0` = global
    /// setting, `1` = serial). Bit-identical for every thread count.
    ///
    /// Degenerate operands (zero rows, columns, or reduction length) are
    /// valid and produce the corresponding all-zero `m x n` output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul_with(&self, other: &Tensor, threads: usize) -> Result<Tensor, TensorError> {
        if self.cols() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = other.cols();
        let mut out = Tensor::zeros(m, n);
        if out.is_empty() {
            // zero-sized output: nothing to compute
            return Ok(out);
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let workers = effective_threads(threads, m, k, n);
        pool::parallel_rows_mut(out.as_mut_slice(), m, n, workers, |row0, panel| {
            let rows = panel.len() / n.max(1);
            let a = &a[row0 * k..(row0 + rows) * k];
            blocked((a, k), BPanels::Dense(b, n, 0), (panel, n), (rows, k, n));
        });
        Ok(out)
    }
}

/// Columns per register micro-tile: the partial sums for `JR` output
/// columns stay in registers across a whole `p` panel instead of being
/// loaded and stored from `C` on every step.
const JR: usize = 16;

/// Rows per register micro-tile: each `B` vector loaded in the inner loop
/// is reused across `IR` output rows, which is what makes a multi-row
/// (batched) product genuinely cheaper per row than `IR` single-row calls.
/// The `IR x JR` accumulators fill 8 of the 16 vector registers of the
/// baseline x86-64 target (SSE2); a 4 x 16 tile needs all 16 and spills
/// (DESIGN.md §5d has the measured shapes).
pub(crate) const IR: usize = 2;

/// `R x JR` register micro-kernel (`R` is [`IR`], or 1 for a row left
/// over below the last `IR`-row tile): adds the `p` panel `pb..pmax` into
/// rows `i..i + R`, columns `j..j + JR` of `C`.
///
/// For every output element the adds still happen in ascending-`p` order
/// within the panel (the accumulator is loaded from `C` before the panel
/// and stored after), so the result is bit-identical to the plain scalar
/// loop.
///
/// `b` is the panel of the right-hand operand in whole rows of `ldb`
/// floats, `B`'s columns starting at `col` of each: its row 0 is row `pb`
/// of `B`. `a`'s rows are `lda` apart and `c`'s `ldc`.
#[inline(always)]
fn micro_tile<const R: usize>(
    a: &[f32],
    (b, ldb, col): (&[f32], usize, usize),
    c: &mut [f32],
    (i, j): (usize, usize),
    (pb, pmax): (usize, usize),
    (lda, ldc): (usize, usize),
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * lda + pb..(i + r) * lda + pmax]);
    let mut acc = [[0f32; JR]; R];
    for (r, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&c[(i + r) * ldc + j..(i + r) * ldc + j + JR]);
    }
    for (p, brow) in b.chunks_exact(ldb).enumerate() {
        // a copy, not a borrow: with debug assertions on (every test build)
        // a borrowed `&[f32; JR]` keeps this loop scalar, ~5x slower
        let brow: [f32; JR] = brow[col + j..col + j + JR]
            .try_into()
            .expect("JR-sized slice");
        for r in 0..R {
            let av = arows[r][p];
            for jj in 0..JR {
                acc[r][jj] += av * brow[jj];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        c[(i + r) * ldc + j..(i + r) * ldc + j + JR].copy_from_slice(accr);
    }
}

/// Where [`blocked`] finds the `TILE`-row panel of `B` for a `p` block.
pub(crate) enum BPanels<'a> {
    /// Row-major matrix in whole rows of `ldb` floats, `B`'s `n` columns
    /// starting at column `col` of each (`Dense(b, n, 0)` for a dense
    /// `k x n` matrix): the panel is a borrowed row range.
    Dense(&'a [f32], usize, usize),
    /// `fill(p0, panel)` writes rows `p0..` of `B` into the scratch buffer
    /// (at least `min(k, TILE) * n` long, rows `n` apart), once per `p`
    /// block.
    Fill(&'a (dyn Fn(usize, &mut [f32]) + Sync), &'a mut [f32]),
}

/// The loop nest behind every product: `c += a · B` for an `m x k`
/// operand `a` and an `m x n` output `c`, row-major with rows `lda` and
/// `ldc` apart (a dense matrix is the case `lda = k`, `ldc = n`). The
/// `TILE`-row `p` panel is the outermost loop, so a filled panel is
/// produced once; inside it `JR`-wide column strips sweep `IR`-row
/// micro-tiles down the whole output, and a row left below the last of
/// them (any single-row product) gets a one-row register tile per strip,
/// so its output strip stays in registers across the panel instead of
/// being loaded and stored per `p`. The ragged columns past the last
/// strip run the scalar loop. No loop order reorders a single element's
/// adds, which ascend over `p` in the micro-tiles and the tails alike.
pub(crate) fn blocked(
    (a, lda): (&[f32], usize),
    mut b: BPanels,
    (c, ldc): (&mut [f32], usize),
    (m, k, n): (usize, usize, usize),
) {
    let tiled_rows = m / IR * IR;
    let tiled_cols = n / JR * JR;
    for pb in (0..k).step_by(TILE) {
        let pmax = (pb + TILE).min(k);
        let panel = match &mut b {
            BPanels::Dense(b, ldb, col) => (&b[pb * *ldb..pmax * *ldb], *ldb, *col),
            BPanels::Fill(fill, scratch) => {
                let panel = &mut scratch[..(pmax - pb) * n];
                fill(pb, panel);
                (&*panel, n, 0)
            }
        };
        for j in (0..tiled_cols).step_by(JR) {
            for i in (0..tiled_rows).step_by(IR) {
                micro_tile::<IR>(a, panel, c, (i, j), (pb, pmax), (lda, ldc));
            }
            for i in tiled_rows..m {
                micro_tile::<1>(a, panel, c, (i, j), (pb, pmax), (lda, ldc));
            }
        }
        let (b, ldb, col) = panel;
        if tiled_cols < n {
            for i in 0..m {
                let crow = &mut c[i * ldc + tiled_cols..i * ldc + n];
                for (&av, brow) in a[i * lda + pb..i * lda + pmax]
                    .iter()
                    .zip(b.chunks_exact(ldb))
                {
                    for (cv, &bv) in crow.iter_mut().zip(&brow[col + tiled_cols..col + n]) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

/// `C = A · B` where `B` is *produced on demand* in `TILE`-row panels.
///
/// `fill(p0, panel)` must write rows `p0 .. p0 + panel.len() / b_cols` of
/// the `b_rows x b_cols` right-hand operand into `panel` (row-major). Each
/// panel is materialized once per worker and reused across every output
/// row — the execution pattern of a decode path whose weights live as
/// packed quantized codes and are dequantized one cache block at a time.
///
/// Peak extra memory is one `TILE x b_cols` panel per worker instead of
/// the whole dense `B`. It is the same loop nest as
/// [`Tensor::matmul`] reading its panels from somewhere else, so
/// the result is **bit-identical** to `a.matmul(&b_dense)` for every
/// thread count — the property `fill_b_is_bit_identical_to_dense` pins
/// down.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b_rows`.
pub fn matmul_fill_b_with(
    a: &Tensor,
    b_rows: usize,
    b_cols: usize,
    threads: usize,
    fill: &(dyn Fn(usize, &mut [f32]) + Sync),
) -> Result<Tensor, TensorError> {
    if a.cols() != b_rows {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_fill_b",
            lhs: a.shape(),
            rhs: (b_rows, b_cols),
        });
    }
    Ok(fill_b(a, b_cols, threads, fill))
}

/// `a · B` for an `a.cols() x n` operand `B` that `fill` produces panel by
/// panel, over disjoint output-row panels with one scratch panel each.
fn fill_b(
    a: &Tensor,
    n: usize,
    threads: usize,
    fill: &(dyn Fn(usize, &mut [f32]) + Sync),
) -> Tensor {
    let (m, k) = a.shape();
    let mut out = Tensor::zeros(m, n);
    if out.is_empty() {
        return out;
    }
    let ad = a.as_slice();
    let workers = effective_threads(threads, m, k, n);
    pool::parallel_rows_mut(out.as_mut_slice(), m, n, workers, |row0, panel| {
        let rows = panel.len() / n.max(1);
        let mut scratch = vec![0.0f32; k.min(TILE) * n];
        let a = &ad[row0 * k..(row0 + rows) * k];
        let b = BPanels::Fill(fill, &mut scratch);
        blocked((a, k), b, (panel, n), (rows, k, n));
    });
    out
}

/// `Aᵀ · B` for a `B` holding an `Inf` or `NaN`, over an output-row
/// slice: computes rows `[i0, i0 + c.len() / n)` of the `m x n` result
/// into `c`.
///
/// `p` is the outer loop, so each output element accumulates in
/// ascending-`p` order no matter how the rows are partitioned. A zero
/// element of `A` is skipped (`av == 0.0`), so it contributes nothing
/// where the scalar dot would add `0 · Inf = NaN`. That skip is the
/// contract [`matmul_at_b`] documents, and the reason this loop still
/// exists: on a finite `B` the skip changes no bit, and the product runs
/// on [`blocked`] instead.
fn at_b_rows(a: &[f32], b: &[f32], c: &mut [f32], i0: usize, k: usize, m: usize, n: usize) {
    let rows = c.len() / n.max(1);
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for r in 0..rows {
            let av = arow[i0 + r];
            if av == 0.0 {
                continue;
            }
            let crow = &mut c[r * n..(r + 1) * n];
            for j in 0..n {
                crow[j] += av * brow[j];
            }
        }
    }
}

/// Writes columns `col0..col0 + rows` of `src`, `w` row-major rows `m`
/// wide, transposed into `at` (`rows x w`, so `rows = at.len() / w`):
/// `TILE` columns of `Aᵀ` for [`matmul_at_b`], and `TILE` rows of `Bᵀ`
/// for [`matmul_a_bt`].
///
/// Four source rows are read together, so each row of `at` receives four
/// contiguous floats at a time: about 2x the element-at-a-time strided
/// loop at the weight-gradient shapes.
fn transpose_panel(src: &[f32], m: usize, col0: usize, at: &mut [f32]) {
    let w = src.len() / m;
    let rows = at.len() / w;
    let quads = w / 4 * 4;
    for (q, strip) in src[..quads * m].chunks_exact(4 * m).enumerate() {
        let s: [&[f32]; 4] = std::array::from_fn(|r| &strip[r * m + col0..r * m + col0 + rows]);
        let cols = s[0].iter().zip(s[1]).zip(s[2]).zip(s[3]);
        for (atrow, (((&v0, &v1), &v2), &v3)) in at.chunks_exact_mut(w).zip(cols) {
            // element writes, not `copy_from_slice`: with debug assertions
            // on (every test build) its per-call check costs ~4x here
            for (o, v) in atrow[4 * q..4 * q + 4].iter_mut().zip([v0, v1, v2, v3]) {
                *o = v;
            }
        }
    }
    for (q, srow) in src.chunks_exact(m).enumerate().skip(quads) {
        for (atrow, &v) in at.chunks_exact_mut(w).zip(&srow[col0..col0 + rows]) {
            atrow[q] = v;
        }
    }
}

/// Output rows per chunk of [`matmul_at_b`]'s nest route. The chunk's
/// transposed `A` panel (`AT_ROWS x TILE` floats, 8 KiB) lives on the
/// stack: a heap buffer per call measured a higher peak RSS
/// (DESIGN.md §5d), and the old loop allocated nothing but its output.
const AT_ROWS: usize = 64;

/// Whether no element is `±Inf` or `NaN`: one branch-free pass, which
/// the compiler vectorizes (an early-exit `all` measured ~4x slower).
pub fn all_finite(v: &[f32]) -> bool {
    const EXP: u32 = 0x7f80_0000;
    v.iter()
        .fold(0u32, |hit, x| hit | u32::from(x.to_bits() & EXP == EXP))
        == 0
}

/// Computes `Aᵀ · B`.
///
/// Given `A: k x m` and `B: k x n`, returns an `m x n` tensor. This is the
/// weight-gradient kernel: `dW = Xᵀ · dY`. Honours the process-wide
/// thread setting; see [`matmul_at_b_with`] for an explicit worker count.
///
/// A zero element of `A` contributes nothing, even against an `Inf` or
/// `NaN` in `B`, where a plain dot would give `0 · Inf = NaN`. The route
/// follows from one scan of `B`:
///
/// * **`B` all finite:** [`Tensor::matmul`]'s nest runs on `Aᵀ`, one
///   `TILE`-row panel of `A` at a time transposed into a stack buffer,
///   and multiplies every zero. That changes no bit. Each sum starts at
///   `+0.0`, and a round-to-nearest sum is `-0.0` only when both addends
///   are, so a running sum is never `-0.0`. A zero of `A` times a finite
///   value is `±0.0`, and adding `±0.0` to a value that is not `-0.0`
///   leaves it unchanged. The result equals the scalar dot bit for bit.
/// * **any `Inf` or `NaN` in `B`:** a `p`-outer loop that skips the zero
///   elements of `A`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.rows() == b.rows()`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_at_b_with(a, b, 0)
}

/// [`matmul_at_b`] with an explicit worker count (`0` = global setting,
/// `1` = serial). Bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.rows() == b.rows()`.
pub fn matmul_at_b_with(a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor, TensorError> {
    if a.rows() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (k, m) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    if out.is_empty() {
        return Ok(out);
    }
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let finite = all_finite(bd);
    let workers = effective_threads(threads, m, k, n);
    pool::parallel_rows_mut(out.as_mut_slice(), m, n, workers, |row0, panel| {
        if !finite {
            return at_b_rows(ad, bd, panel, row0, k, m, n);
        }
        // Aᵀ·B is the sum of A_pᵀ·B_p over the TILE-row panels p of A and
        // B, in ascending order: each A_pᵀ is transposed into the stack
        // buffer and `blocked` adds its panel into the output, as one call
        // over all of k would
        let mut scratch = [0.0f32; AT_ROWS * TILE];
        for (c, chunk) in panel.chunks_mut(AT_ROWS * n).enumerate() {
            let (rows, col0) = (chunk.len() / n, row0 + c * AT_ROWS);
            for pb in (0..k).step_by(TILE) {
                let w = (pb + TILE).min(k) - pb;
                let at = &mut scratch[..rows * w];
                transpose_panel(&ad[pb * m..(pb + w) * m], m, col0, at);
                let b = BPanels::Dense(&bd[pb * n..(pb + w) * n], n, 0);
                blocked((at, w), b, (chunk, n), (rows, w, n));
            }
        }
    });
    Ok(out)
}

/// Computes `A · Bᵀ` without materializing the transpose.
///
/// Given `A: m x k` and `B: n x k`, returns an `m x n` tensor. This is the
/// input-gradient kernel (`dX = dY · Wᵀ`) and the attention-score kernel
/// (`S = Q · Kᵀ`). Honours the process-wide thread setting; see
/// [`matmul_a_bt_with`] for an explicit worker count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.cols()`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_a_bt_with(a, b, 0)
}

/// [`matmul_a_bt`] with an explicit worker count (`0` = global setting,
/// `1` = serial). Bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.cols()`.
pub fn matmul_a_bt_with(a: &Tensor, b: &Tensor, threads: usize) -> Result<Tensor, TensorError> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (k, n) = (a.cols(), b.rows());
    let bd = b.as_slice();
    // rows p0.. of Bᵀ are columns p0.. of the n rows of B
    let fill = |p0: usize, panel: &mut [f32]| transpose_panel(bd, k, p0, panel);
    Ok(fill_b(a, n, threads, &fill))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::scalar_matmul;
    use crate::rng::TensorRng;

    #[test]
    fn matmul_identity() {
        let mut rng = TensorRng::seed_from(1);
        let a = Tensor::randn(5, 5, 1.0, &mut rng);
        let mut eye = Tensor::zeros(5, 5);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        let out = a.matmul(&eye).unwrap();
        assert!(out.approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn blocked_matches_naive() {
        let mut rng = TensorRng::seed_from(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (33, 65, 34), (64, 32, 96)] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            let c = a.matmul_with(&b, 1).unwrap();
            assert_eq!(bits(&scalar_matmul(&a, &b)), bits(&c), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_blocked() {
        let mut rng = TensorRng::seed_from(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (33, 65, 34), (70, 64, 48)] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            let serial = a.matmul_with(&b, 1).unwrap();
            for threads in [1usize, 2, 3, 8] {
                let par = a.matmul_with(&b, threads).unwrap();
                assert_eq!(
                    serial.as_slice(),
                    par.as_slice(),
                    "bit drift at {m}x{k}x{n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fill_b_is_bit_identical_to_dense() {
        let mut rng = TensorRng::seed_from(11);
        // ragged in every dimension, plus micro-tile-aligned and tiny shapes
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 48, 33),
            (3, 7, 5),
            (33, 65, 34),
            (48, 64, 96),
            (70, 64, 48),
        ] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            let want = a.matmul_with(&b, 1).unwrap();
            let bd = b.as_slice();
            let fill = |p0: usize, panel: &mut [f32]| {
                panel.copy_from_slice(&bd[p0 * n..p0 * n + panel.len()]);
            };
            for threads in [1usize, 2, 3, 8] {
                let got = matmul_fill_b_with(&a, k, n, threads, &fill).unwrap();
                assert_eq!(
                    want.as_slice(),
                    got.as_slice(),
                    "bit drift at {m}x{k}x{n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fill_b_handles_degenerate_shapes_and_mismatch() {
        let fill = |_: usize, panel: &mut [f32]| panel.fill(1.0);
        for &(m, k, n) in &[(0usize, 3usize, 2usize), (2, 0, 3), (2, 3, 0)] {
            let a = Tensor::zeros(m, k);
            let c = matmul_fill_b_with(&a, k, n, 4, &fill).unwrap();
            assert_eq!(c.shape(), (m, n), "{m}x{k}x{n}");
            assert!(c.as_slice().iter().all(|&v| v == 0.0));
        }
        let a = Tensor::zeros(2, 3);
        assert!(matmul_fill_b_with(&a, 4, 2, 1, &fill).is_err());
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = TensorRng::seed_from(3);
        let a = Tensor::randn(9, 4, 1.0, &mut rng);
        let b = Tensor::randn(9, 6, 1.0, &mut rng);
        let fast = matmul_at_b(&a, &b).unwrap();
        assert_eq!(bits(&scalar_matmul(&a.transpose(), &b)), bits(&fast));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = TensorRng::seed_from(4);
        let a = Tensor::randn(5, 8, 1.0, &mut rng);
        let b = Tensor::randn(7, 8, 1.0, &mut rng);
        let fast = matmul_a_bt(&a, &b).unwrap();
        let slow = a.matmul_with(&b.transpose(), 1).unwrap();
        assert_eq!(bits(&fast), bits(&slow));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// [`bits`] with every NaN as `None`: NaN payloads are not pinned,
    /// every other value is, to the bit.
    fn class(t: &Tensor) -> Vec<Option<u32>> {
        let bits = |v: &f32| (!v.is_nan()).then(|| v.to_bits());
        t.as_slice().iter().map(bits).collect()
    }

    #[test]
    fn blocked_layouts_are_bit_identical_to_the_scalar_dot() {
        let mut rng = TensorRng::seed_from(13);
        // every edge of the nest: m around the IR-row micro-tiles, n around the
        // JR-column strips (n < JR is a LoRA rank), k around the TILE-row
        // p panels, crossed; then the attention shape, both Linear shapes,
        // a short-k product and one past a thousand rows
        let mut shapes = Vec::new();
        for m in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            for n in [1usize, 4, 8, 12, 15, 16, 17, 31, 32, 33] {
                for k in [1usize, 31, 32, 33, 65] {
                    shapes.push((m, k, n));
                }
            }
        }
        shapes.extend([
            (96, 64, 4),
            (1, 48, 33),
            (3, 7, 5),
            (33, 65, 34),
            (5, 100, 3),
            (48, 16, 48),
            (48, 48, 16),
            (96, 256, 64),
            (96, 64, 192),
            (96, 64, 256),
            (1030, 40, 20),
        ]);
        for (m, k, n) in shapes {
            let dense_a = Tensor::randn(m, k, 1.0, &mut rng);
            let bt = Tensor::randn(n, k, 1.0, &mut rng);
            let b = bt.transpose();
            let bd = b.as_slice();
            let fill = |p0: usize, panel: &mut [f32]| {
                panel.copy_from_slice(&bd[p0 * n..p0 * n + panel.len()]);
            };
            for (pattern, a) in zero_patterns(&dense_a) {
                let want = bits(&scalar_matmul(&a, &b));
                let at = a.transpose();
                for threads in [1usize, 2, 3, 8] {
                    let dense = a.matmul_with(&b, threads).unwrap();
                    let filled = matmul_fill_b_with(&a, k, n, threads, &fill).unwrap();
                    let a_bt = matmul_a_bt_with(&a, &bt, threads).unwrap();
                    let at_b = matmul_at_b_with(&at, &b, threads).unwrap();
                    for (layout, got) in [
                        ("A·B", dense),
                        ("fill-B", filled),
                        ("A·Bᵀ", a_bt),
                        ("Aᵀ·B", at_b),
                    ] {
                        assert_eq!(
                            want,
                            bits(&got),
                            "{layout} bit drift at {m}x{k}x{n} ({pattern} A) threads={threads}"
                        );
                    }
                }
            }
        }
    }

    /// `a` as drawn, then with exact `+0.0` / `-0.0` written over it in
    /// two patterns: a causal triangle (element `(i, p)` is zero past
    /// `p`, as in the attention weights `att` and their gradient `ds`
    /// that reach `Aᵀ·B` transposed) and a scattered one. The zero signs
    /// alternate, as `ds = att · (dp - Σ)` gives them.
    fn zero_patterns(a: &Tensor) -> [(&'static str, Tensor); 3] {
        let zeroed = |hit: &dyn Fn(usize, usize) -> bool| {
            let mut z = a.clone();
            for i in 0..a.rows() {
                for p in 0..a.cols() {
                    if hit(i, p) {
                        z.set(i, p, if (i + p) % 2 == 0 { 0.0 } else { -0.0 });
                    }
                }
            }
            z
        };
        [
            ("dense", a.clone()),
            ("causal", zeroed(&|i, p| i > p)),
            ("scattered", zeroed(&|i, p| (7 * i + 3 * p) % 5 == 0)),
        ]
    }

    #[test]
    fn at_b_is_exact_against_negative_zeros_and_subnormals_in_b() {
        // the terms a skipped zero of A would have added are ±0.0, and a
        // sum that starts at +0.0 never becomes -0.0: products of -0.0
        // and subnormal size in B leave every layout on the scalar dot
        let mut rng = TensorRng::seed_from(15);
        let (m, k, n) = (37, 70, 33);
        let dense_a = Tensor::randn(m, k, 1.0, &mut rng);
        let mut b = Tensor::randn(k, n, 1.0, &mut rng);
        for p in 0..k {
            for j in 0..n {
                match (3 * p + j) % 4 {
                    0 => b.set(p, j, -0.0),
                    1 => b.set(p, j, b.get(p, j) * 1e-39),
                    _ => {}
                }
            }
        }
        for (pattern, a) in zero_patterns(&dense_a) {
            let want = bits(&scalar_matmul(&a, &b));
            for threads in [1usize, 2, 3] {
                let got = matmul_at_b_with(&a.transpose(), &b, threads).unwrap();
                assert_eq!(want, bits(&got), "{pattern} A, threads={threads}");
            }
        }
    }

    #[test]
    fn at_b_keeps_the_zero_skip_for_one_non_finite_value_in_the_last_row_and_column() {
        // The only non-finite value of B sits at its last row and last
        // column, past the first TILE panel. The zeros of A's last row must
        // still be skipped against it, so no guard that reads a prefix of
        // B, reads A, or only looks for NaN can send this product down a
        // route that multiplies them.
        let skip_dot = |a: &Tensor, b: &Tensor| {
            let ((k, m), n) = (a.shape(), b.cols());
            let mut out = Tensor::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        if a.get(p, i) != 0.0 {
                            acc += a.get(p, i) * b.get(p, j);
                        }
                    }
                    out.set(i, j, acc);
                }
            }
            out
        };
        let mut rng = TensorRng::seed_from(16);
        for &(k, m, n) in &[(70usize, 9usize, 37usize), (65, 8, 32), (40, 5, 3)] {
            let mut a = Tensor::randn(k, m, 1.0, &mut rng);
            for i in (0..m).step_by(2) {
                a.set(k - 1, i, if i % 4 == 0 { 0.0 } else { -0.0 });
            }
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut b = Tensor::randn(k, n, 1.0, &mut rng);
                b.set(k - 1, n - 1, bad);
                let want = skip_dot(&a, &b);
                assert!(want.get(0, n - 1).is_finite(), "the skip hides {bad}");
                assert!(!want.get(1, n - 1).is_finite(), "{bad} reaches row 1");
                for threads in [1usize, 2, 3] {
                    let got = matmul_at_b_with(&a, &b, threads).unwrap();
                    assert_eq!(
                        class(&want),
                        class(&got),
                        "{k}x{m}x{n} with {bad} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_bt_propagates_non_finite_values_like_the_scalar_dot() {
        // no zero-skip in either kernel: a NaN or Inf anywhere in a row of A
        // or B reaches exactly the outputs that row contributes to
        let mut rng = TensorRng::seed_from(14);
        let (m, k, n) = (9, 40, 11);
        let mut a = Tensor::randn(m, k, 1.0, &mut rng);
        let mut b = Tensor::randn(n, k, 1.0, &mut rng);
        a.set(2, 33, f32::NAN);
        a.set(5, 1, f32::INFINITY);
        a.set(7, 4, 0.0);
        b.set(3, 4, f32::INFINITY); // 0 * Inf at (7, 3)
        b.set(8, 39, f32::NAN);
        b.set(10, 20, f32::NEG_INFINITY);
        let want = scalar_matmul(&a, &b.transpose());
        assert!(want.get(7, 3).is_nan() && want.get(2, 0).is_nan());
        assert!(want.get(0, 10).is_infinite());
        for threads in [1usize, 3] {
            let got = matmul_a_bt_with(&a, &b, threads).unwrap();
            assert_eq!(class(&want), class(&got), "threads={threads}");
        }
    }

    #[test]
    fn at_b_skips_zero_left_operands_even_against_non_finite_values() {
        // The documented contract of `at_b_rows`: a zero in `A` is skipped,
        // so it never meets the `Inf` / `NaN` in `B` that the scalar dot
        // would multiply it by (`0 · Inf = NaN`). Every other element of A
        // still carries a non-finite B value into its output.
        let (k, m, n) = (3, 2, 2);
        let a = Tensor::from_vec(k, m, vec![0.0, 1.0, 0.0, 1.0, 2.0, 1.0]).unwrap();
        let b = Tensor::from_vec(k, n, vec![f32::INFINITY, 1.0, f32::NAN, 2.0, 3.0, 4.0]).unwrap();
        let scalar: f32 = (0..k).map(|p| a.get(p, 0) * b.get(p, 0)).sum();
        assert!(scalar.is_nan(), "the scalar dot meets 0 · Inf");
        for threads in [1usize, 2] {
            let c = matmul_at_b_with(&a, &b, threads).unwrap();
            // row 0 of the result: A's column 0 is [0, 0, 2] — both
            // non-finite B rows are skipped
            assert_eq!(c.row(0), &[6.0, 8.0], "threads={threads}");
            // row 1: A's column 1 is all ones, so Inf + NaN reach column 0
            assert!(c.get(1, 0).is_nan(), "threads={threads}");
            assert_eq!(c.get(1, 1), 7.0, "threads={threads}");
        }
    }

    #[test]
    fn transposed_layouts_are_thread_count_invariant() {
        let mut rng = TensorRng::seed_from(5);
        let a = Tensor::randn(65, 33, 1.0, &mut rng);
        let b = Tensor::randn(65, 41, 1.0, &mut rng);
        let serial = matmul_at_b_with(&a, &b, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let par = matmul_at_b_with(&a, &b, threads).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "at_b threads={threads}");
        }
        let x = Tensor::randn(65, 33, 1.0, &mut rng);
        let y = Tensor::randn(41, 33, 1.0, &mut rng);
        let serial = matmul_a_bt_with(&x, &y, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let par = matmul_a_bt_with(&x, &y, threads).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "a_bt threads={threads}");
        }
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        assert!(a.matmul(&b).is_err());
        assert!(matmul_at_b(&a, &b).is_err());
        let c = Tensor::zeros(4, 5);
        assert!(matmul_a_bt(&a, &c).is_err());
    }

    #[test]
    fn empty_operands_produce_empty_output() {
        let a = Tensor::zeros(0, 3);
        let b = Tensor::zeros(3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }

    #[test]
    fn degenerate_shapes_return_cleanly_in_every_layout_and_kernel() {
        // (m, k, n) with a zero in every position, plus all-zero
        for &(m, k, n) in &[(0usize, 3usize, 2usize), (2, 0, 3), (2, 3, 0), (0, 0, 0)] {
            let (a, at) = (Tensor::zeros(m, k), Tensor::zeros(k, m));
            let (b, bt) = (Tensor::zeros(k, n), Tensor::zeros(n, k));
            for threads in [1usize, 4] {
                let c = a.matmul_with(&b, threads).unwrap();
                assert_eq!(c.shape(), (m, n), "{m}x{k}x{n} t={threads}");
                assert!(c.as_slice().iter().all(|&v| v == 0.0));
                let c = matmul_at_b_with(&at, &b, threads).unwrap();
                assert_eq!(c.shape(), (m, n), "at_b {m}x{k}x{n} t={threads}");
                let c = matmul_a_bt_with(&a, &bt, threads).unwrap();
                assert_eq!(c.shape(), (m, n), "a_bt {m}x{k}x{n} t={threads}");
            }
        }
    }

    #[test]
    fn auto_kernel_defers_to_global_setting() {
        // `matmul` asks for 0 workers, the process setting, which a serial
        // scope turns into 1; an explicit count is taken as given
        let (m, k, n) = (256, 64, 64);
        assert_eq!(pool::serial_scope(|| effective_threads(0, m, k, n)), 1);
        assert_eq!(effective_threads(1, m, k, n), 1);
        assert_eq!(effective_threads(3, m, k, n), 3);
    }
}
