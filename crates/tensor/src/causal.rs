//! Products over a causal triangle: attention's scores, its weighted sum
//! and their gradients.
//!
//! Row `i` of a causal attention block sits at position `diag + i` and
//! reads positions `0..=diag + i` only. Each product here walks its rows
//! in blocks of [`IR`] — the blocked kernel's micro-tile height. The
//! rectangle every row of a block shares runs on that kernel
//! ([`crate::matmul`]'s nest, on strided operands), and what is left of the
//! triangle — one entry or one product per block and row — runs on a
//! scalar loop placed so that every element still adds its products in
//! ascending order onto `+0.0`. So every product is, bit for bit, the
//! plain scalar loop over the triangle. On finite operands that is also
//! the full-square product whose entries outside the triangle are zero:
//! a running sum that starts at `+0.0` is never `-0.0`, and adding a `±0`
//! term leaves every other value unchanged.
//!
//! No product reads an operand entry outside its triangle, so a `NaN` or
//! `Inf` there reaches nothing: `0 · NaN` is `NaN`, which is why a causal
//! product must not run over the square.

use crate::error::TensorError;
use crate::matmul::{blocked, BPanels, IR};
use std::ops::Range;

/// A row-major operand inside a buffer of whole rows: element `(i, j)` is
/// `data[i * stride + col + j]`. One head's columns of a wider
/// activation are the activation's rows with the head's first column as
/// `col`.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// The operand's rows, `stride` floats each, from its first.
    pub data: &'a [f32],
    /// Floats from the start of one row to the start of the next.
    pub stride: usize,
    /// The operand's first column within a row.
    pub col: usize,
}

/// The writable counterpart of [`Rows`].
#[derive(Debug)]
pub struct RowsMut<'a> {
    /// The operand's rows, `stride` floats each, from its first.
    pub data: &'a mut [f32],
    /// Floats from the start of one row to the start of the next.
    pub stride: usize,
    /// The operand's first column within a row.
    pub col: usize,
}

impl Rows<'_> {
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.stride + self.col + j]
    }

    /// Row `i`'s `n` columns.
    fn row(&self, i: usize, n: usize) -> &[f32] {
        let at = i * self.stride + self.col;
        &self.data[at..at + n]
    }

    /// `(a, lda)` for the blocked kernel, from row `i` and column `j`.
    fn from(&self, i: usize, j: usize) -> (&[f32], usize) {
        (&self.data[i * self.stride + self.col + j..], self.stride)
    }

    /// The kernel's `B`, from row `i`: whole rows, and the column offset.
    fn panels(&self, i: usize) -> BPanels<'_> {
        BPanels::Dense(&self.data[i * self.stride..], self.stride, self.col)
    }
}

impl RowsMut<'_> {
    /// Row `i`'s `n` columns.
    fn row(&mut self, i: usize, n: usize) -> &mut [f32] {
        let at = i * self.stride + self.col;
        &mut self.data[at..at + n]
    }

    /// `(c, ldc)` for the blocked kernel, from row `i` and column `j`.
    fn from(&mut self, i: usize, j: usize) -> (&mut [f32], usize) {
        (
            &mut self.data[i * self.stride + self.col + j..],
            self.stride,
        )
    }
}

/// Whether `rows x cols` from column `col` fit `rows` whole rows of
/// `stride` floats in `len`.
fn fits(len: usize, stride: usize, col: usize, (rows, cols): (usize, usize)) -> bool {
    rows == 0 || cols == 0 || (col + cols <= stride && len >= rows * stride)
}

/// Refuses the first of `(len, stride, col, shape)` that does not fit.
fn check(
    op: &'static str,
    operands: [(usize, usize, usize, (usize, usize)); 3],
) -> Result<(), TensorError> {
    match operands
        .iter()
        .find(|&&(len, stride, col, shape)| !fits(len, stride, col, shape))
    {
        Some(&(len, stride, _, shape)) => Err(TensorError::ShapeMismatch {
            op,
            lhs: shape,
            rhs: (len, stride),
        }),
        None => Ok(()),
    }
}

/// Causal scores: `C[i, j] = Σ_p A[i, p] · B[p, j - cols.start]` for every
/// `j` in `cols` with `j <= diag + i`, for an `m x k` operand `A` and a `k
/// x cols.len()` operand `B` holding the keys, transposed, of positions
/// `cols`; `C` is `m x (diag + m)`. Each entry is written, not
/// accumulated; entries of `C` outside the window or past the triangle
/// are left as they are, and columns of `B` past row `i`'s position are
/// never read for it. A caller whose keys are stored in tiles of
/// positions calls it once per tile; every entry of `C` is the same
/// bits whichever windows cover it.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if an operand does not fit its
/// slice at its stride or `cols` ends past column `diag + m`.
pub fn causal_scores(
    a: Rows,
    b: Rows,
    mut c: RowsMut,
    (m, k, diag): (usize, usize, usize),
    cols: Range<usize>,
) -> Result<(), TensorError> {
    let n = diag + m;
    if cols.start > cols.end || cols.end > n {
        return Err(TensorError::ShapeMismatch {
            op: "causal_scores",
            lhs: (m, n),
            rhs: (cols.start, cols.end),
        });
    }
    check(
        "causal_scores",
        [
            (a.data.len(), a.stride, a.col, (m, k)),
            (b.data.len(), b.stride, b.col, (k, cols.len())),
            (c.data.len(), c.stride, c.col, (m, n)),
        ],
    )?;
    // column `j` of `C` against column `j - start` of `B`
    let start = cols.start;
    let own = |i: usize| (diag + i + 1).clamp(start, cols.end);
    for i0 in (0..m).step_by(IR) {
        let rows = IR.min(m - i0);
        for r in 0..rows {
            c.row(i0 + r, own(i0 + r))[start..].fill(0.0);
        }
        // every row of the block reads the window's columns start..shared
        let shared = own(i0);
        if k > 0 && shared > start {
            let c_block = c.from(i0, start);
            blocked(
                a.from(i0, 0),
                b.panels(0),
                c_block,
                (rows, k, shared - start),
            );
        }
        // the triangle's rest: row i0 + r's columns past the block's
        for r in 1..rows {
            let i = i0 + r;
            for j in shared..own(i) {
                let dot = (0..k).fold(0.0f32, |s, p| s + a.at(i, p) * b.at(p, j - start));
                c.row(i, j + 1)[j] = dot;
            }
        }
    }
    Ok(())
}

/// Causal weighted sum: `C[i, :] += Σ_{p <= diag + i} A[i, p] · B[p, :]`,
/// ascending `p`, for an `m x (diag + m)` operand `A` (the weights) and a
/// `(diag + m) x n` operand `B` (the values). Row `i` reads neither
/// `A[i, p]` nor `B[p, :]` past `p = diag + i`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if an operand does not fit its
/// slice at its stride.
pub fn causal_prefix(
    a: Rows,
    b: Rows,
    mut c: RowsMut,
    (m, n, diag): (usize, usize, usize),
) -> Result<(), TensorError> {
    check(
        "causal_prefix",
        [
            (a.data.len(), a.stride, a.col, (m, diag + m)),
            (b.data.len(), b.stride, b.col, (diag + m, n)),
            (c.data.len(), c.stride, c.col, (m, n)),
        ],
    )?;
    if n == 0 {
        return Ok(());
    }
    for i0 in (0..m).step_by(IR) {
        let rows = IR.min(m - i0);
        // every row of the block reads p in 0..k
        let k = diag + i0 + 1;
        blocked(a.from(i0, 0), b.panels(0), c.from(i0, 0), (rows, k, n));
        // the triangle's rest, after the block's p: row i0 + r's last ones
        for r in 1..rows {
            let i = i0 + r;
            for p in k..=diag + i {
                let av = a.at(i, p);
                for (cv, &bv) in c.row(i, n).iter_mut().zip(b.row(p, n)) {
                    *cv += av * bv;
                }
            }
        }
    }
    Ok(())
}

/// The transposed causal sum: `C[p, :] += Σ_{t = p}^{m - 1} A[p, t] · B[t,
/// :]`, ascending `t`, for an `m x m` operand `A` read on and above its
/// diagonal (a causal weight matrix, transposed) and an `m x n` operand
/// `B`. Row `p` reads neither `A[p, t]` nor `B[t, :]` before `t = p`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if an operand does not fit its
/// slice at its stride.
pub fn causal_suffix(
    a: Rows,
    b: Rows,
    mut c: RowsMut,
    (m, n): (usize, usize),
) -> Result<(), TensorError> {
    check(
        "causal_suffix",
        [
            (a.data.len(), a.stride, a.col, (m, m)),
            (b.data.len(), b.stride, b.col, (m, n)),
            (c.data.len(), c.stride, c.col, (m, n)),
        ],
    )?;
    if n == 0 {
        return Ok(());
    }
    for p0 in (0..m).step_by(IR) {
        let rows = IR.min(m - p0);
        // every row of the block reads t in t0..m
        let t0 = p0 + rows - 1;
        // the triangle's rest first, before the block's t: row p0 + r's
        // first ones
        for r in 0..rows - 1 {
            let p = p0 + r;
            for t in p..t0 {
                let av = a.at(p, t);
                for (cv, &bv) in c.row(p, n).iter_mut().zip(b.row(t, n)) {
                    *cv += av * bv;
                }
            }
        }
        blocked(
            a.from(p0, t0),
            b.panels(t0),
            c.from(p0, 0),
            (rows, m - t0, n),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    /// A `rows x cols` operand of random floats from column `col` of rows
    /// `stride` wide; every float outside it is `NaN`.
    fn operand(
        rng: &mut TensorRng,
        (rows, cols): (usize, usize),
        col: usize,
        stride: usize,
    ) -> Vec<f32> {
        let mut v = vec![f32::NAN; rows * stride];
        for i in 0..rows {
            for j in 0..cols {
                v[i * stride + col + j] = rng.normal();
            }
        }
        v
    }

    fn view(data: &[f32], stride: usize, col: usize) -> Rows<'_> {
        Rows { data, stride, col }
    }

    fn view_mut(data: &mut [f32], stride: usize, col: usize) -> RowsMut<'_> {
        RowsMut { data, stride, col }
    }

    /// `(m, k or n, diag)` around the micro-tile and strip edges.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for m in [0usize, 1, 2, 3, 4, 5, 17, 33, 50] {
            for w in [1usize, 4, 16, 17, 33] {
                for diag in [0usize, 1, 2, 7, 40] {
                    out.push((m, w, diag));
                }
            }
        }
        out
    }

    #[test]
    fn scores_are_the_scalar_dot_on_the_triangle_and_touch_nothing_else() {
        let mut rng = TensorRng::seed_from(1);
        for (m, k, diag) in shapes() {
            let n = diag + m;
            let (lda, ldb, ldc) = (k + 3, n + 5, n + 3);
            let a = operand(&mut rng, (m, k), 2, lda);
            let mut b = operand(&mut rng, (k, n), 1, ldb);
            let mut c = vec![-7.0f32; m * ldc];
            let run = |b: &[f32], c: &mut [f32]| {
                let (a, b) = (view(&a, lda, 2), view(b, ldb, 1));
                causal_scores(a, b, view_mut(c, ldc, 1), (m, k, diag), 0..n).unwrap();
            };
            run(&b, &mut c);
            for i in 0..m {
                for j in 0..ldc {
                    let got = c[i * ldc + j];
                    if (1..=diag + i + 1).contains(&j) {
                        let mut want = 0.0f32;
                        for p in 0..k {
                            want += a[i * lda + 2 + p] * b[p * ldb + j];
                        }
                        let at = format!("{m}x{k}+{diag} ({i}, {})", j - 1);
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                    } else {
                        assert_eq!(got, -7.0, "{m}x{k}+{diag}: ({i}, {j}) written");
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // the same triangle through windows of 5 and of 16 columns, each
            // against its own copy of B's columns, as tiles of keys are
            for tile in [5, 16] {
                let mut tiled = vec![-7.0f32; m * ldc];
                for start in (0..n).step_by(tile) {
                    let end = (start + tile).min(n);
                    let w = end - start;
                    let mut part = vec![f32::NAN; k * w];
                    for p in 0..k {
                        part[p * w..(p + 1) * w]
                            .copy_from_slice(&b[p * ldb + 1 + start..p * ldb + 1 + end]);
                    }
                    let (a, part) = (view(&a, lda, 2), view(&part, w, 0));
                    let c = view_mut(&mut tiled, ldc, 1);
                    causal_scores(a, part, c, (m, k, diag), start..end).unwrap();
                }
                assert_eq!(
                    bits(&tiled),
                    bits(&c),
                    "{m}x{k}+{diag} in windows of {tile}"
                );
            }
            // a NaN in the last position's column reaches the last row only
            if m > 1 {
                for p in 0..k {
                    b[p * ldb + n] = f32::NAN;
                }
                let mut poisoned = vec![-7.0f32; m * ldc];
                run(&b, &mut poisoned);
                assert_eq!(
                    bits(&poisoned[..(m - 1) * ldc]),
                    bits(&c[..(m - 1) * ldc]),
                    "{m}x{k}+{diag}"
                );
            }
        }
    }

    #[test]
    fn prefix_sums_are_the_scalar_loop_on_the_triangle() {
        let mut rng = TensorRng::seed_from(2);
        for (m, n, diag) in shapes() {
            let k = diag + m;
            let (lda, ldb, ldc) = (k + 1, n + 4, n + 3);
            let mut a = operand(&mut rng, (m, k), 0, lda);
            // the weights past each row's position are not read
            for i in 0..m {
                for p in diag + i + 1..k {
                    a[i * lda + p] = f32::NAN;
                }
            }
            let b = operand(&mut rng, (k, n), 4, ldb);
            let start = operand(&mut rng, (m, n), 2, ldc);
            let mut c = start.clone();
            let out = view_mut(&mut c, ldc, 2);
            causal_prefix(view(&a, lda, 0), view(&b, ldb, 4), out, (m, n, diag)).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut want = start[i * ldc + 2 + j];
                    for p in 0..=diag + i {
                        want += a[i * lda + p] * b[p * ldb + 4 + j];
                    }
                    let got = c[i * ldc + 2 + j];
                    assert_eq!(got.to_bits(), want.to_bits(), "{m}x{n}+{diag} ({i}, {j})");
                }
                // the floats around the operand are untouched
                let row = &c[i * ldc..(i + 1) * ldc];
                assert!(row[..2].iter().chain(&row[2 + n..]).all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn suffix_sums_are_the_scalar_loop_on_the_triangle() {
        let mut rng = TensorRng::seed_from(3);
        for (m, n, _) in shapes() {
            let (lda, ldb, ldc) = (m + 2, n + 1, n + 5);
            let mut a = operand(&mut rng, (m, m), 1, lda);
            // below the diagonal is not read
            for p in 0..m {
                for t in 0..p {
                    a[p * lda + 1 + t] = f32::NAN;
                }
            }
            let b = operand(&mut rng, (m, n), 1, ldb);
            let mut c = vec![0.0f32; m * ldc];
            let out = view_mut(&mut c, ldc, 5);
            causal_suffix(view(&a, lda, 1), view(&b, ldb, 1), out, (m, n)).unwrap();
            for p in 0..m {
                for j in 0..n {
                    let mut want = 0.0f32;
                    for t in p..m {
                        want += a[p * lda + 1 + t] * b[t * ldb + 1 + j];
                    }
                    let got = c[p * ldc + 5 + j];
                    assert_eq!(got.to_bits(), want.to_bits(), "{m}x{n} ({p}, {j})");
                }
            }
        }
    }

    #[test]
    fn an_operand_that_does_not_fit_is_refused() {
        let a = [0.0f32; 8];
        let mut c = [0.0f32; 12];
        // 3 whole rows of 4 need 12 floats
        let err = causal_suffix(
            view(&a, 4, 0),
            view(&a, 4, 0),
            view_mut(&mut c, 4, 0),
            (3, 4),
        );
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
        // columns past the stride
        let err = causal_prefix(
            view(&a, 2, 1),
            view(&a, 4, 0),
            view_mut(&mut c, 4, 0),
            (2, 2, 0),
        );
        assert!(err.is_err());
        let err = causal_scores(
            view(&a, 4, 0),
            view(&a, 4, 0),
            view_mut(&mut c, 4, 0),
            (2, 4, 3),
            0..5,
        );
        assert!(err.is_err());
        // a window past the last row's position, or reversed
        let (a, b) = (view(&a, 2, 0), view(&a, 2, 0));
        for cols in [0..4, std::ops::Range { start: 3, end: 2 }] {
            let err = causal_scores(a, b, view_mut(&mut c, 4, 0), (2, 2, 1), cols);
            assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
        }
    }
}
