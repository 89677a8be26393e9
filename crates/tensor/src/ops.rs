//! Forward and backward neural-network primitives.
//!
//! Each primitive comes as a `*_forward` / `*_backward` pair. Backward
//! functions take whatever the forward pass cached (inputs, outputs, or a
//! dedicated cache struct) so the training loop in `edge-llm-model` can
//! decide per layer whether to keep activations alive — the knob behind the
//! paper's adaptive-layer-tuning memory savings. GELU is the exception:
//! its training form, [`gelu_forward_train`], leaves the local derivative
//! in place of the input, and the backward pass is one multiply.

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
    if dy.shape() != (rows, cols) || gamma.len() != cols {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm_backward",
            lhs: dy.shape(),
            rhs: (rows, cols),
        });
    }
    let mut dx = Tensor::zeros(rows, cols);
    let mut dgamma = vec![0.0f32; cols];
    let mut dbeta = vec![0.0f32; cols];
    for r in 0..rows {
        let dyr = dy.row(r);
        let xhr = cache.xhat.row(r);
        let rs = cache.rstd[r];
        let mut sum_g = 0.0f32;
        let mut sum_gx = 0.0f32;
        for c in 0..cols {
            let g = dyr[c] * gamma[c];
            sum_g += g;
            sum_gx += g * xhr[c];
            dgamma[c] += dyr[c] * xhr[c];
            dbeta[c] += dyr[c];
        }
        let inv_n = 1.0 / cols as f32;
        let dxr = dx.row_mut(r);
        for c in 0..cols {
            let g = dyr[c] * gamma[c];
            dxr[c] = rs * (g - inv_n * sum_g - xhr[c] * inv_n * sum_gx);
        }
    }
    Ok((dx, dgamma, dbeta))
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// GELU activation (tanh approximation), element-wise.
pub fn gelu_forward(x: &Tensor) -> Tensor {
    x.map(|v| 0.5 * v * (1.0 + (GELU_C * (v + 0.044715 * v * v * v)).tanh()))
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
        let t = (GELU_C * (v + 0.044715 * v * v * v)).tanh();
        *o = 0.5 * v * (1.0 + t);
        let sech2 = 1.0 - t * t;
        let d_inner = GELU_C * (1.0 + 3.0 * 0.044715 * v * v);
        *d = 0.5 * (1.0 + t) + 0.5 * v * sech2 * d_inner;
    }
    y
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

/// Gathers rows of an embedding `table` for each id in `ids`.
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfBounds`] if any id exceeds the table.
pub fn embedding_forward(ids: &[usize], table: &Tensor) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros(ids.len(), table.cols());
    for (r, &id) in ids.iter().enumerate() {
        if id >= table.rows() {
            return Err(TensorError::IndexOutOfBounds {
                index: id,
                bound: table.rows(),
            });
        }
        out.row_mut(r).copy_from_slice(table.row(id));
    }
    Ok(out)
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
        let n = edges.len();
        let x = Tensor::from_vec(1, n, edges).unwrap();
        for dy in [Tensor::randn(1, n, 1.0, &mut rng), Tensor::ones(1, n)] {
            let (y, dx) = gelu_backward_train(&x, &dy);
            assert_same_bits(&y, &gelu_forward(&x), &x, "activation");
            assert_same_bits(&dx, &gelu_backward_reference(&x, &dy), &x, "gradient");
        }
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
    fn embedding_gather_scatter() {
        let table = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let out = embedding_forward(&[2, 0, 2], &table).unwrap();
        assert_eq!(out.as_slice(), &[5., 6., 1., 2., 5., 6.]);
        let mut grad = Tensor::zeros(3, 2);
        let dy = Tensor::ones(3, 2);
        embedding_backward(&[2, 0, 2], &dy, &mut grad).unwrap();
        assert_eq!(grad.as_slice(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn embedding_bad_id_errors() {
        let table = Tensor::zeros(3, 2);
        assert!(embedding_forward(&[5], &table).is_err());
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
