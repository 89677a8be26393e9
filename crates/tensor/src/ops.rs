//! Forward and backward neural-network primitives.
//!
//! Each primitive comes as a `*_forward` / `*_backward` pair. Backward
//! functions take whatever the forward pass cached (inputs, outputs, or a
//! dedicated cache struct) so the training loop in `edge-llm-model` can
//! decide per layer whether to keep activations alive — the knob behind the
//! paper's adaptive-layer-tuning memory savings. GELU is the exception:
//! its training form, [`gelu_forward_train`], leaves the local derivative
//! in place of the input, and the backward pass is one multiply.
//!
//! Both GELU forms take their `tanh` from one private function, fdlibm's
//! `tanhf` (the one glibc ships) written out without branches: every
//! element gets fdlibm's bits whatever libm the host has, and both loops
//! vectorize.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Sentinel target value ignored by the cross-entropy loss.
///
/// Sequence tasks in `edge-llm-data` mark prompt positions with this value
/// so only answer tokens contribute to loss and gradients.
pub const IGNORE_TARGET: usize = usize::MAX;

/// Row-wise numerically stable softmax.
///
/// Each row of the result sums to 1.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = x.shape();
    let mut out = Tensor::zeros(rows, cols);
    for r in 0..rows {
        let xin = x.row(r);
        let xout = out.row_mut(r);
        let max = xin.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &v) in xout.iter_mut().zip(xin.iter()) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in xout.iter_mut() {
            *o *= inv;
        }
    }
    out
}

/// Backward pass of row-wise softmax.
///
/// Takes the forward *output* `y` and upstream gradient `dy`; returns
/// `dx` where `dx_i = y_i * (dy_i - Σ_j dy_j y_j)` per row.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `y` and `dy` differ in shape.
pub fn softmax_backward(y: &Tensor, dy: &Tensor) -> Result<Tensor, TensorError> {
    if y.shape() != dy.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_backward",
            lhs: y.shape(),
            rhs: dy.shape(),
        });
    }
    let (rows, cols) = y.shape();
    let mut dx = Tensor::zeros(rows, cols);
    for r in 0..rows {
        let yr = y.row(r);
        let dyr = dy.row(r);
        let dot: f32 = yr.iter().zip(dyr.iter()).map(|(a, b)| a * b).sum();
        let dxr = dx.row_mut(r);
        for j in 0..cols {
            dxr[j] = yr[j] * (dyr[j] - dot);
        }
    }
    Ok(dx)
}

/// Per-row statistics cached by [`layernorm_forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    /// Reciprocal standard deviation per row.
    pub rstd: Vec<f32>,
    /// Normalized input `x̂` (before scale/shift).
    pub xhat: Tensor,
}

/// Layer normalization over each row.
///
/// `y = x̂ * gamma + beta` with `x̂ = (x - mean) * rstd`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `gamma` or `beta` length does
/// not equal `x.cols()`.
pub fn layernorm_forward(
    x: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Result<(Tensor, LayerNormCache), TensorError> {
    let (rows, cols) = x.shape();
    if gamma.len() != cols || beta.len() != cols {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm_forward",
            lhs: (rows, cols),
            rhs: (gamma.len(), beta.len()),
        });
    }
    let mut y = Tensor::zeros(rows, cols);
    let mut xhat = Tensor::zeros(rows, cols);
    let mut rstd = vec![0.0f32; rows];
    for (r, rstd_r) in rstd.iter_mut().enumerate() {
        let xr = x.row(r);
        let mean: f32 = xr.iter().sum::<f32>() / cols as f32;
        let var: f32 = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let rs = 1.0 / (var + eps).sqrt();
        *rstd_r = rs;
        let xhr = xhat.row_mut(r);
        let yr = y.row_mut(r);
        for c in 0..cols {
            let xh = (xr[c] - mean) * rs;
            xhr[c] = xh;
            yr[c] = xh * gamma[c] + beta[c];
        }
    }
    Ok((y, LayerNormCache { rstd, xhat }))
}

/// Backward pass of layer normalization.
///
/// Returns `(dx, dgamma, dbeta)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `dy` does not match the cached
/// shape or `gamma` has the wrong length.
pub fn layernorm_backward(
    dy: &Tensor,
    cache: &LayerNormCache,
    gamma: &[f32],
) -> Result<(Tensor, Vec<f32>, Vec<f32>), TensorError> {
    let (rows, cols) = cache.xhat.shape();
    let mut dx = Tensor::zeros(rows, cols);
    let (dgamma, dbeta) = layernorm_grads(dy, cache, gamma, Some(&mut dx))?;
    Ok((dx, dgamma, dbeta))
}

/// The parameter half of [`layernorm_backward`]: `(dgamma, dbeta)`, the
/// same bits, with no input gradient computed.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `dy` or `gamma` disagree with
/// the cache's shape.
pub fn layernorm_param_grads(
    dy: &Tensor,
    cache: &LayerNormCache,
    gamma: &[f32],
) -> Result<(Vec<f32>, Vec<f32>), TensorError> {
    layernorm_grads(dy, cache, gamma, None)
}

/// `(dgamma, dbeta)`, and the input gradient into `dx` when given.
fn layernorm_grads(
    dy: &Tensor,
    cache: &LayerNormCache,
    gamma: &[f32],
    mut dx: Option<&mut Tensor>,
) -> Result<(Vec<f32>, Vec<f32>), TensorError> {
    let (rows, cols) = cache.xhat.shape();
    if dy.shape() != (rows, cols) || gamma.len() != cols {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm_backward",
            lhs: dy.shape(),
            rhs: (rows, cols),
        });
    }
    let mut dgamma = vec![0.0f32; cols];
    let mut dbeta = vec![0.0f32; cols];
    for r in 0..rows {
        let dyr = dy.row(r);
        let xhr = cache.xhat.row(r);
        for c in 0..cols {
            dgamma[c] += dyr[c] * xhr[c];
            dbeta[c] += dyr[c];
        }
        let Some(dx) = dx.as_deref_mut() else {
            continue;
        };
        let rs = cache.rstd[r];
        let mut sum_g = 0.0f32;
        let mut sum_gx = 0.0f32;
        for c in 0..cols {
            let g = dyr[c] * gamma[c];
            sum_g += g;
            sum_gx += g * xhr[c];
        }
        let inv_n = 1.0 / cols as f32;
        let dxr = dx.row_mut(r);
        for c in 0..cols {
            let g = dyr[c] * gamma[c];
            dxr[c] = rs * (g - inv_n * sum_g - xhr[c] * inv_n * sum_gx);
        }
    }
    Ok((dgamma, dbeta))
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// GELU activation (tanh approximation), element-wise.
pub fn gelu_forward(x: &Tensor) -> Tensor {
    x.map(|v| 0.5 * v * (1.0 + tanh(GELU_C * (v + 0.044715 * v * v * v))))
}

/// Training GELU: returns [`gelu_forward`]`(x)` bit for bit and overwrites
/// `x` with the local derivative `d gelu / dx`, both from one `tanh` per
/// element. The backward pass is then `dy ⊙ x`
/// ([`Tensor::hadamard_in_place`]), so the input never needs keeping and
/// the `tanh` is never evaluated twice.
pub fn gelu_forward_train(x: &mut Tensor) -> Tensor {
    let mut y = Tensor::zeros(x.rows(), x.cols());
    for (o, d) in y.as_mut_slice().iter_mut().zip(x.as_mut_slice()) {
        let v = *d;
        let t = tanh(GELU_C * (v + 0.044715 * v * v * v));
        *o = 0.5 * v * (1.0 + t);
        let sech2 = 1.0 - t * t;
        let d_inner = GELU_C * (1.0 + 3.0 * 0.044715 * v * v);
        *d = 0.5 * (1.0 + t) + 0.5 * v * sech2 * d_inner;
    }
    y
}

// fdlibm's `expm1f` constants, by bit pattern.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// 1.5 · 2²³: `(v + MAGIC) - MAGIC` rounds any |v| < 2²² to an integer.
const MAGIC: f32 = f32::from_bits(0x4b40_0000);

/// fdlibm's `tanhf`, the one glibc's libm ships: the same operations in
/// the same order, except that every path is computed and the one fdlibm
/// branches to is selected. IEEE arithmetic is deterministic, so each
/// element gets libm's bits (`tests::tanh_is_the_platform_tanhf_on_every_f32`
/// checks all 2³² inputs), and with no branch LLVM runs both GELU loops
/// four lanes wide on the baseline SSE2 target.
#[inline(always)]
fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| >= 1: 1 - 2 / (expm1(2|x|) + 2); below: -t / (t + 2) with
    // t = expm1(-2|x|). One divide serves both. The sign of -2|x| is set as
    // a bit: selecting between 2|x| and -2|x| led LLVM to run `expm1` once
    // per sign and select afterwards.
    let big = ix >= 0x3f80_0000;
    let t = expm1(f32::from_bits((2.0 * ax).to_bits() | u32::from(!big) << 31));
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| >= 22 and ±Inf: fdlibm's `1 - tiny` rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = f32::from_bits(z.to_bits() ^ (x.to_bits() & 0x8000_0000));
    // |x| < 2⁻⁵⁵ and ±0.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // NaN: fdlibm's `1/x ± 1` is NaN, and so is `x + x`.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// fdlibm's `expm1f` without its early returns for |x| >= 27·ln2 (-1,
/// overflow, ±Inf, NaN), every path computed and one selected. The
/// arguments [`tanh`] passes lie in (-2, -2⁻⁵⁴] ∪ [2, 44), where those
/// returns never fire; lanes `tanh` discards may compute anything.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction: x = k·ln2 + (hi - lo). fdlibm writes k = ±1
    // (0.5·ln2 < |x| < 1.5·ln2) as `hi = x ∓ ln2_hi`, `lo = ±ln2_lo`,
    // which is the general form at t = ±1: the products by one are exact.
    // Past 1.5·ln2, k is C's truncating `(int)(x/ln2 ± 0.5)`: the magic add
    // rounds to nearest, and a step back toward zero undoes rounding up.
    let kf = INV_LN2 * x + 0.5f32.copysign(x);
    let r = (kf + MAGIC) - MAGIC;
    let t = if r.abs() > kf.abs() {
        r - 1.0f32.copysign(kf)
    } else {
        r
    };
    let t = if hx < 0x3f85_1592 {
        1.0f32.copysign(x)
    } else {
        t
    };
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let reduced = hi - lo;
    let c = (hi - reduced) - lo;
    // |x| <= 0.5·ln2 is not reduced: k = 0.
    let reduce = hx > 0x3eb1_7218;
    let x = if reduce { reduced } else { x };
    let k = if reduce {
        ((t + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32)
    } else {
        0
    };

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let y0 = x - (x * e - hxs);
    let e = x * (e - c) - c - hxs;
    let y_minus1 = 0.5 * (x - e) - 0.5;
    // k = 1 needs 0.5·ln2 < x < 1.5·ln2, which `tanh` never passes; the
    // path is kept so that the transcription is whole, and the `expm1`
    // test holds it.
    let y_1 = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        1.0 + 2.0 * (x - e)
    };
    // 2⁻ᵏ, and fdlibm's `1 - 2⁻ᵏ` is `1.0 - two_mk` exactly for k < 23.
    let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let far = k <= -2 || k > 56;
    let y = if far {
        1.0 - (e - x)
    } else if k < 23 {
        (1.0 - two_mk) - (e - x)
    } else {
        (x - (e + two_mk)) + 1.0
    };
    // Add k to y's exponent.
    let y = f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    let y = if far { y - 1.0 } else { y };
    let y = if k == 1 { y_1 } else { y };
    let y = if k == -1 { y_minus1 } else { y };
    let y = if k == 0 { y0 } else { y };
    // |x| < 2⁻²⁵ (so x was not reduced): fdlibm's `x - (t - (huge + x))`
    // with `t = huge + x` is x.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// Adds a bias row-vector to every row of `x`, returning a new tensor.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias.len() != x.cols()`.
pub fn add_bias_forward(x: &Tensor, bias: &[f32]) -> Result<Tensor, TensorError> {
    if bias.len() != x.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias_forward",
            lhs: x.shape(),
            rhs: (1, bias.len()),
        });
    }
    let mut y = x.clone();
    for r in 0..y.rows() {
        for (o, &b) in y.row_mut(r).iter_mut().zip(bias.iter()) {
            *o += b;
        }
    }
    Ok(y)
}

/// Backward pass of a bias add: the bias gradient is the column-wise sum of
/// the upstream gradient.
pub fn add_bias_backward(dy: &Tensor) -> Vec<f32> {
    let (rows, cols) = dy.shape();
    let mut db = vec![0.0f32; cols];
    for r in 0..rows {
        for (acc, &g) in db.iter_mut().zip(dy.row(r).iter()) {
            *acc += g;
        }
    }
    db
}

/// Scatters the upstream gradient `dy` back into `table_grad` (accumulating).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `dy.rows() != ids.len()` or the
/// column counts differ; [`TensorError::IndexOutOfBounds`] for bad ids.
pub fn embedding_backward(
    ids: &[usize],
    dy: &Tensor,
    table_grad: &mut Tensor,
) -> Result<(), TensorError> {
    if dy.rows() != ids.len() || dy.cols() != table_grad.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "embedding_backward",
            lhs: dy.shape(),
            rhs: table_grad.shape(),
        });
    }
    for (r, &id) in ids.iter().enumerate() {
        if id >= table_grad.rows() {
            return Err(TensorError::IndexOutOfBounds {
                index: id,
                bound: table_grad.rows(),
            });
        }
        let src = dy.row(r);
        for (acc, &g) in table_grad.row_mut(id).iter_mut().zip(src.iter()) {
            *acc += g;
        }
    }
    Ok(())
}

/// Output of [`cross_entropy_forward`]: the mean loss over non-ignored
/// targets plus the softmax probabilities needed by the backward pass.
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Mean negative log-likelihood over non-ignored positions.
    pub loss: f32,
    /// Softmax of the logits (kept for the backward pass).
    pub probs: Tensor,
    /// Number of positions that contributed to the loss.
    pub n_valid: usize,
}

/// Softmax cross-entropy loss over rows of `logits`.
///
/// Positions whose target equals [`IGNORE_TARGET`] are excluded from both
/// the loss average and (via [`cross_entropy_backward`]) the gradient.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `targets.len() != logits.rows()`
/// and [`TensorError::IndexOutOfBounds`] for a target outside the vocabulary.
pub fn cross_entropy_forward(
    logits: &Tensor,
    targets: &[usize],
) -> Result<CrossEntropyOutput, TensorError> {
    if targets.len() != logits.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy_forward",
            lhs: logits.shape(),
            rhs: (targets.len(), 1),
        });
    }
    let probs = softmax_rows(logits);
    let mut loss = 0.0f64;
    let mut n_valid = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        if t == IGNORE_TARGET {
            continue;
        }
        if t >= logits.cols() {
            return Err(TensorError::IndexOutOfBounds {
                index: t,
                bound: logits.cols(),
            });
        }
        loss += -(probs.get(r, t).max(1e-12) as f64).ln();
        n_valid += 1;
    }
    let loss = if n_valid == 0 {
        0.0
    } else {
        (loss / n_valid as f64) as f32
    };
    Ok(CrossEntropyOutput {
        loss,
        probs,
        n_valid,
    })
}

/// Backward pass of softmax cross-entropy: `dlogits = (probs - onehot) / n`.
///
/// Rows whose target is [`IGNORE_TARGET`] receive a zero gradient.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `targets.len() != probs.rows()`.
pub fn cross_entropy_backward(
    out: &CrossEntropyOutput,
    targets: &[usize],
) -> Result<Tensor, TensorError> {
    let probs = &out.probs;
    if targets.len() != probs.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy_backward",
            lhs: probs.shape(),
            rhs: (targets.len(), 1),
        });
    }
    let mut dl = Tensor::zeros(probs.rows(), probs.cols());
    if out.n_valid == 0 {
        return Ok(dl);
    }
    let scale = 1.0 / out.n_valid as f32;
    for (r, &t) in targets.iter().enumerate() {
        if t == IGNORE_TARGET {
            continue;
        }
        let pr = probs.row(r);
        let dr = dl.row_mut(r);
        for c in 0..pr.len() {
            dr[c] = pr[c] * scale;
        }
        dr[t] -= scale;
    }
    Ok(dl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    fn numeric_grad<F: FnMut(&Tensor) -> f32>(x: &Tensor, mut f: F) -> Tensor {
        let eps = 1e-3;
        let mut g = Tensor::zeros(x.rows(), x.cols());
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let fp = f(&xp);
            xp.as_mut_slice()[i] = orig - eps;
            let fm = f(&xp);
            xp.as_mut_slice()[i] = orig;
            g.as_mut_slice()[i] = (fp - fm) / (2.0 * eps);
        }
        g
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = TensorRng::seed_from(1);
        let x = Tensor::randn(6, 10, 3.0, &mut rng);
        let y = softmax_rows(&x);
        for r in 0..6 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let shifted = x.map(|v| v + 100.0);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&shifted), 1e-6));
    }

    #[test]
    fn softmax_backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(2);
        let x = Tensor::randn(3, 5, 1.0, &mut rng);
        let dy = Tensor::randn(3, 5, 1.0, &mut rng);
        let y = softmax_rows(&x);
        let dx = softmax_backward(&y, &dy).unwrap();
        let num = numeric_grad(&x, |xp| {
            let yp = softmax_rows(xp);
            yp.as_slice()
                .iter()
                .zip(dy.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert!(
            dx.approx_eq(&num, 2e-2),
            "analytic {dx:?} vs numeric {num:?}"
        );
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut rng = TensorRng::seed_from(3);
        let x = Tensor::randn(4, 32, 2.0, &mut rng);
        let gamma = vec![1.0f32; 32];
        let beta = vec![0.0f32; 32];
        let (y, _) = layernorm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        for r in 0..4 {
            let m: f32 = y.row(r).iter().sum::<f32>() / 32.0;
            let v: f32 = y.row(r).iter().map(|a| (a - m) * (a - m)).sum::<f32>() / 32.0;
            assert!(m.abs() < 1e-4);
            assert!((v - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(4);
        let x = Tensor::randn(3, 8, 1.0, &mut rng);
        let gamma: Vec<f32> = (0..8).map(|i| 1.0 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..8).map(|i| 0.05 * i as f32).collect();
        let dy = Tensor::randn(3, 8, 1.0, &mut rng);
        let (_, cache) = layernorm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        let (dx, dgamma, dbeta) = layernorm_backward(&dy, &cache, &gamma).unwrap();
        let num_dx = numeric_grad(&x, |xp| {
            let (yp, _) = layernorm_forward(xp, &gamma, &beta, 1e-5).unwrap();
            yp.as_slice()
                .iter()
                .zip(dy.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert!(dx.approx_eq(&num_dx, 3e-2));
        // dbeta is the column sum of dy
        let db = add_bias_backward(&dy);
        for (a, b) in dbeta.iter().zip(db.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(dgamma.len(), 8);
    }

    /// The backward pass GELU had before its training form: `tanh`
    /// recomputed from the forward input. Kept as the bit reference.
    fn gelu_backward_reference(x: &Tensor, dy: &Tensor) -> Tensor {
        let mut dx = Tensor::zeros(x.rows(), x.cols());
        for (o, (&v, &g)) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(x.as_slice().iter().zip(dy.as_slice().iter()))
        {
            let inner = GELU_C * (v + 0.044715 * v * v * v);
            let t = inner.tanh();
            let sech2 = 1.0 - t * t;
            let d_inner = GELU_C * (1.0 + 3.0 * 0.044715 * v * v);
            *o = g * (0.5 * (1.0 + t) + 0.5 * v * sech2 * d_inner);
        }
        dx
    }

    /// `dy ⊙ d` where `d` is the derivative [`gelu_forward_train`] leaves.
    fn gelu_backward_train(x: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
        let mut d = x.clone();
        let y = gelu_forward_train(&mut d);
        let mut dx = dy.clone();
        dx.hadamard_in_place(&d).unwrap();
        (y, dx)
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, x: &Tensor, what: &str) {
        for ((&a, &b), &v) in got.as_slice().iter().zip(want.as_slice()).zip(x.as_slice()) {
            if b.is_nan() {
                assert!(a.is_nan(), "{what} at x = {v:e}: {a:e} is not NaN");
            } else {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what} at x = {v:e}: {a:e} vs {b:e}"
                );
            }
        }
    }

    /// Both GELU forms and the derivative the training form leaves, bit
    /// for bit against formulas written with the platform's `f32::tanh`
    /// (the activation's here, the gradient's in
    /// [`gelu_backward_reference`]).
    #[test]
    fn training_gelu_is_bit_equal_to_forward_and_recomputed_backward() {
        let sub = f32::MIN_POSITIVE / 4.0;
        let mut edges = vec![
            0.0,
            -0.0,
            sub,
            -sub,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            1e-4,
            -1e-4,
            1.0,
            -1.0,
            30.0,
            -30.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        // every 1/64 across [-10, 10]: through the region where the inner
        // argument saturates `tanhf` and past |x| = 9
        edges.extend((-640..=640).map(|i| i as f32 / 64.0));
        let mut rng = TensorRng::seed_from(5);
        let random = Tensor::randn(16, 64, 3.0, &mut rng);
        edges.extend_from_slice(random.as_slice());
        // every 4099th bit pattern: about a million values over every
        // exponent, both signs, subnormals and NaNs
        edges.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        let n = edges.len();
        let x = Tensor::from_vec(1, n, edges).unwrap();
        let act = x.map(|v| 0.5 * v * (1.0 + (GELU_C * (v + 0.044715 * v * v * v)).tanh()));
        assert_same_bits(&gelu_forward(&x), &act, &x, "gelu_forward");
        for dy in [Tensor::randn(1, n, 1.0, &mut rng), Tensor::ones(1, n)] {
            let (y, dx) = gelu_backward_train(&x, &dy);
            assert_same_bits(&y, &act, &x, "activation");
            assert_same_bits(&dx, &gelu_backward_reference(&x, &dy), &x, "gradient");
        }
    }

    /// Panics at the first `x` where [`tanh`] and the platform's `tanhf`
    /// disagree (NaN compared as a class; zeros by sign).
    fn assert_platform_tanh(xs: impl IntoIterator<Item = f32>) {
        for x in xs {
            let (got, want) = (tanh(x), x.tanh());
            let same = if want.is_nan() {
                got.is_nan()
            } else {
                got.to_bits() == want.to_bits()
            };
            assert!(
                same,
                "tanh({x:e} = {:#010x}): {got:e} vs {want:e}",
                x.to_bits()
            );
        }
    }

    /// `bits` and its neighbours up to `ulps` away, as both signs.
    fn around(bits: u32, ulps: i32) -> impl Iterator<Item = f32> {
        (-ulps..=ulps).flat_map(move |d| {
            let v = f32::from_bits(bits.wrapping_add_signed(d));
            [v, -v]
        })
    }

    #[test]
    fn tanh_is_the_platform_tanhf_at_every_branch_boundary() {
        // tanhf's own: |x| = 2⁻⁵⁵, 1, 22
        for bits in [0x2400_0000, 0x3f80_0000, 0x41b0_0000] {
            assert_platform_tanh(around(bits, 4));
        }
        // expm1f's, in its argument u = ±2|x|: 2⁻²⁵, 0.5·ln2, 1.5·ln2,
        // 27·ln2; halving maps u back to x exactly
        for bits in [0x3300_0000, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844] {
            assert_platform_tanh(around(bits, 4).map(|u| u / 2.0));
        }
    }

    /// Every step of expm1f's k, at |u| = (k + 1/2)·ln2: through the k = 23
    /// and k = 56 path switches and past k = 63, the largest that |x| < 22
    /// reaches.
    #[test]
    fn tanh_is_the_platform_tanhf_at_every_step_of_k() {
        for k in 0..=64 {
            let u = ((k as f64 + 0.5) * std::f64::consts::LN_2) as f32;
            assert_platform_tanh(around(u.to_bits(), 4).map(|u| u / 2.0));
        }
    }

    #[test]
    fn tanh_is_the_platform_tanhf_on_special_values() {
        let specials = [
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
        ];
        assert_platform_tanh(specials.into_iter().flat_map(|v| [v, -v]));
        assert_platform_tanh([f32::NAN, -f32::NAN]);
    }

    /// `expm1` itself is the platform `expm1f` bit for bit wherever fdlibm
    /// takes none of the early returns it leaves out: -27·ln2 < x < 88.72,
    /// every 997th bit pattern, and ±4 ulp around each of its branch
    /// boundaries and each step of k. That covers the k = 1 path `tanh`
    /// never reaches, and path choices whose difference `tanh` rounds away.
    #[test]
    fn expm1_is_the_platform_expm1f_short_of_its_early_returns() {
        // -27·ln2 and fdlibm's overflow threshold, exclusive
        let (lowest, highest) = (f32::from_bits(0xc195_b844), f32::from_bits(0x42b1_7218));
        let step = |k: u32| ((k as f64 + 0.5) * std::f64::consts::LN_2) as f32;
        let boundaries = [
            2f32.powi(-25),
            0.5 * std::f32::consts::LN_2,
            1.5 * std::f32::consts::LN_2,
        ]
        .into_iter()
        .chain((0..=127).map(step))
        .flat_map(|u| around(u.to_bits(), 4));
        let sweep = (0..u32::MAX).step_by(997).map(f32::from_bits);
        for u in sweep
            .chain(boundaries)
            .filter(|&u| lowest < u && u < highest)
        {
            let (got, want) = (expm1(u), u.exp_m1());
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "expm1({u:e}): {got:e} vs {want:e}"
            );
        }
    }

    /// All 2³² inputs, one at a time (minutes in release; run with
    /// `cargo test --release -p edge-llm-tensor -- --ignored`).
    #[test]
    #[ignore]
    fn tanh_is_the_platform_tanhf_on_every_f32() {
        assert_platform_tanh((0..=u32::MAX).map(f32::from_bits));
    }

    #[test]
    fn gelu_backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(5);
        let x = Tensor::randn(2, 6, 1.5, &mut rng);
        let dy = Tensor::randn(2, 6, 1.0, &mut rng);
        let (_, dx) = gelu_backward_train(&x, &dy);
        let num = numeric_grad(&x, |xp| {
            gelu_forward(xp)
                .as_slice()
                .iter()
                .zip(dy.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert!(dx.approx_eq(&num, 2e-2));
    }

    #[test]
    fn gelu_limits() {
        let x = Tensor::from_vec(1, 3, vec![-10.0, 0.0, 10.0]).unwrap();
        let y = gelu_forward(&x);
        assert!(y.get(0, 0).abs() < 1e-3); // large negative -> 0
        assert_eq!(y.get(0, 1), 0.0);
        assert!((y.get(0, 2) - 10.0).abs() < 1e-3); // large positive -> identity
    }

    #[test]
    fn bias_forward_backward() {
        let x = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let y = add_bias_forward(&x, &[10., 20., 30.]).unwrap();
        assert_eq!(y.as_slice(), &[11., 22., 33., 14., 25., 36.]);
        let db = add_bias_backward(&x);
        assert_eq!(db, vec![5., 7., 9.]);
    }

    #[test]
    fn embedding_scatter_accumulates() {
        let mut grad = Tensor::zeros(3, 2);
        let dy = Tensor::ones(3, 2);
        embedding_backward(&[2, 0, 2], &dy, &mut grad).unwrap();
        assert_eq!(grad.as_slice(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn embedding_bad_id_errors() {
        let mut grad = Tensor::zeros(3, 2);
        let dy = Tensor::ones(1, 2);
        assert!(embedding_backward(&[5], &dy, &mut grad).is_err());
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor::zeros(2, 4);
        let out = cross_entropy_forward(&logits, &[0, 3]).unwrap();
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
        assert_eq!(out.n_valid, 2);
    }

    #[test]
    fn cross_entropy_ignores_masked_targets() {
        let logits = Tensor::zeros(3, 4);
        let out = cross_entropy_forward(&logits, &[0, IGNORE_TARGET, 1]).unwrap();
        assert_eq!(out.n_valid, 2);
        let dl = cross_entropy_backward(&out, &[0, IGNORE_TARGET, 1]).unwrap();
        assert!(dl.row(1).iter().all(|&g| g == 0.0));
        assert!(dl.row(0).iter().any(|&g| g != 0.0));
    }

    #[test]
    fn cross_entropy_backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(6);
        let logits = Tensor::randn(3, 5, 1.0, &mut rng);
        let targets = [1usize, 4, 0];
        let out = cross_entropy_forward(&logits, &targets).unwrap();
        let dl = cross_entropy_backward(&out, &targets).unwrap();
        let num = numeric_grad(&logits, |lp| {
            cross_entropy_forward(lp, &targets).unwrap().loss
        });
        assert!(dl.approx_eq(&num, 2e-2));
    }

    #[test]
    fn cross_entropy_all_ignored_is_zero() {
        let logits = Tensor::zeros(2, 3);
        let t = [IGNORE_TARGET, IGNORE_TARGET];
        let out = cross_entropy_forward(&logits, &t).unwrap();
        assert_eq!(out.loss, 0.0);
        let dl = cross_entropy_backward(&out, &t).unwrap();
        assert!(dl.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn cross_entropy_target_out_of_vocab_errors() {
        let logits = Tensor::zeros(1, 3);
        assert!(cross_entropy_forward(&logits, &[3]).is_err());
    }
}
