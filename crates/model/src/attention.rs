use crate::block::BlockTape;
use crate::error::ModelError;
use crate::linear::Linear;
use edge_llm_tensor::{
    matmul_a_bt_with, matmul_at_b_with, pool, softmax_backward, MatmulKernel, Tensor, TensorRng,
};

/// Causal multi-head self-attention.
///
/// Input and output are `(batch * seq) x d_model` row-major token matrices.
/// The QKV projection is a single fused [`Linear`] (`d_model -> 3 d_model`)
/// followed by per-head scaled dot-product attention with a causal mask and
/// an output projection. The forward is the decode walk's
/// (`crate::batched`), which attends in scalar loops over each row's causal
/// prefix and, for a block in the training window, records the `qkv`
/// output and the probabilities in the block's [`BlockTape`];
/// [`Attention::backward`] reads them.
#[derive(Debug, Clone)]
pub struct Attention {
    pub(crate) qkv: Linear,
    pub(crate) proj: Linear,
    n_heads: usize,
    d_model: usize,
}

impl Attention {
    /// Creates an attention module for `d_model` with `n_heads` heads.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut TensorRng) -> Self {
        Attention {
            qkv: Linear::new(d_model, 3 * d_model, rng),
            proj: Linear::new(d_model, d_model, rng),
            n_heads,
            d_model,
        }
    }

    /// Read access to the projections, in `(qkv, proj)` order; write them
    /// through [`crate::Block::linears_mut`].
    pub fn linears(&self) -> (&Linear, &Linear) {
        (&self.qkv, &self.proj)
    }

    /// Backward pass from the attention fields of `tape`: accumulates
    /// projection gradients, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward(&mut self, tape: &BlockTape, dout: &Tensor) -> Result<Tensor, ModelError> {
        let (c, hs) = (self.d_model, self.d_model / self.n_heads);
        let scale = 1.0 / (hs as f32).sqrt();
        let seq = tape.probs.first().map_or(0, Tensor::rows);
        let dconcat = self.proj.backward(&tape.proj, dout)?;
        let mut dqkv = Tensor::zeros(dconcat.rows(), 3 * c);
        // Gradients for each (batch, head) are computed on the pool, then
        // scattered serially in index order (the scatter interleaves
        // columns of shared rows, so it is not panel-disjoint).
        // Each head costs `2 · seq² · hs` MACs: `q·kᵀ`, then `att·v`.
        let items = tape.probs.len();
        let workers = pool::workers(0, items * 2 * seq * seq * hs, items);
        let grads = pool::parallel_map(items, workers, |idx| {
            let att = &tape.probs[idx];
            let (b, h) = (idx / self.n_heads, idx % self.n_heads);
            let [q, k, v] = [0, c, 2 * c].map(|at| read_head(&tape.qkv_out, b, seq, h, hs, at));
            let dy = read_head(&dconcat, b, seq, h, hs, 0);
            // y = att · v
            let datt = matmul_a_bt_with(&dy, &v, 1)?;
            let dv = matmul_at_b_with(att, &dy, 1)?;
            // att = softmax(scores); masked entries have att == 0 so
            // their score gradient is identically zero.
            let mut ds = softmax_backward(att, &datt)?;
            ds.scale_in_place(scale);
            // scores = q · kᵀ (pre-scale)
            let dq = ds.matmul_with(&k, MatmulKernel::Blocked)?;
            let dk = matmul_at_b_with(&ds, &q, 1)?;
            Ok::<_, ModelError>((dq, dk, dv))
        });
        for (idx, grad) in grads.into_iter().enumerate() {
            let (b, h) = (idx / self.n_heads, idx % self.n_heads);
            let (dq, dk, dv) = grad?;
            scatter_head(&mut dqkv, &dq, b, seq, h, hs, 0);
            scatter_head(&mut dqkv, &dk, b, seq, h, hs, c);
            scatter_head(&mut dqkv, &dv, b, seq, h, hs, 2 * c);
        }
        let dx = self.qkv.backward(&tape.qkv, &dqkv)?;
        Ok(dx)
    }
}

/// Head `h`'s `(seq, hs)` block of sequence `b`, read from the columns at
/// `offset + h * hs`.
fn read_head(x: &Tensor, b: usize, seq: usize, h: usize, hs: usize, offset: usize) -> Tensor {
    let mut out = Tensor::zeros(seq, hs);
    for t in 0..seq {
        out.row_mut(t)
            .copy_from_slice(&x.row(b * seq + t)[offset + h * hs..offset + (h + 1) * hs]);
    }
    out
}

fn scatter_head(
    dst: &mut Tensor,
    src: &Tensor,
    b: usize,
    seq: usize,
    h: usize,
    hs: usize,
    offset: usize,
) {
    for t in 0..seq {
        dst.row_mut(b * seq + t)[offset + h * hs..offset + (h + 1) * hs]
            .copy_from_slice(src.row(t));
    }
}

/// The training attention the window ran before it moved onto the layer
/// walk: the walk's independent reference (see `crate::block::reference`).
#[cfg(test)]
mod reference {
    use super::*;
    use edge_llm_tensor::softmax_rows;

    impl Attention {
        /// Attention over `batch` sequences of `seq` rows, filling the
        /// attention fields of `tape`.
        pub(crate) fn forward_reference(
            &self,
            x: &Tensor,
            batch: usize,
            seq: usize,
            tape: &mut BlockTape,
        ) -> Result<Tensor, ModelError> {
            if x.rows() != batch * seq || x.cols() != self.d_model {
                return Err(ModelError::BadBatch {
                    expected: batch * seq,
                    actual: x.rows(),
                });
            }
            let (c, hs) = (self.d_model, self.d_model / self.n_heads);
            let scale = 1.0 / (hs as f32).sqrt();
            let (qkv_out, qkv_cache) = self.qkv.forward(x.clone())?;
            let mut concat = Tensor::zeros(batch * seq, c);
            let mut probs = Vec::new();
            for idx in 0..batch * self.n_heads {
                let (b, h) = (idx / self.n_heads, idx % self.n_heads);
                let [q, k, v] = [0, c, 2 * c].map(|at| read_head(&qkv_out, b, seq, h, hs, at));
                let mut scores = matmul_a_bt_with(&q, &k, 1)?;
                scores.scale_in_place(scale);
                apply_causal_mask(&mut scores);
                let att = softmax_rows(&scores);
                let y = att.matmul_with(&v, MatmulKernel::Blocked)?;
                scatter_head(&mut concat, &y, b, seq, h, hs, 0);
                probs.push(att);
            }
            let (out, proj_cache) = self.proj.forward(concat)?;
            tape.qkv = qkv_cache;
            tape.qkv_out = qkv_out;
            tape.probs = probs;
            tape.proj = proj_cache;
            Ok(out)
        }
    }

    fn apply_causal_mask(scores: &mut Tensor) {
        let (rows, cols) = scores.shape();
        for i in 0..rows {
            let row = scores.row_mut(i);
            for v in row.iter_mut().take(cols).skip(i + 1) {
                *v = -1e30;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_quant::{BitWidth, QuantScheme};

    fn forward(
        attn: &Attention,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, BlockTape), ModelError> {
        let mut tape = BlockTape::empty();
        let y = attn.forward_reference(x, batch, seq, &mut tape)?;
        Ok((y, tape))
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = TensorRng::seed_from(1);
        let attn = Attention::new(16, 4, &mut rng);
        let x = Tensor::randn(2 * 6, 16, 1.0, &mut rng);
        let (y, _) = forward(&attn, &x, 2, 6).unwrap();
        assert_eq!(y.shape(), (12, 16));
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        let mut rng = TensorRng::seed_from(2);
        let mut attn = Attention::new(8, 2, &mut rng);
        let seq = 5;
        let x1 = Tensor::randn(seq, 8, 1.0, &mut rng);
        let mut x2 = x1.clone();
        // perturb the last token only
        for c in 0..8 {
            let v = x2.get(seq - 1, c);
            x2.set(seq - 1, c, v + 3.0);
        }
        // and with an activation scheme on `qkv`, whose ranges must not be
        // shared across tokens either
        for act in [
            None,
            Some(QuantScheme::asymmetric(BitWidth::W4)),
            Some(QuantScheme::asymmetric(BitWidth::W8)),
        ] {
            attn.qkv.set_activation_quant(act);
            let y1 = forward(&attn, &x1, 1, seq).unwrap().0;
            let y2 = forward(&attn, &x2, 1, seq).unwrap().0;
            for t in 0..seq - 1 {
                for c in 0..8 {
                    assert!(
                        (y1.get(t, c) - y2.get(t, c)).abs() < 1e-5,
                        "token {t} changed"
                    );
                }
            }
            // but the perturbed position itself must change
            let last_diff: f32 = (0..8)
                .map(|c| (y1.get(seq - 1, c) - y2.get(seq - 1, c)).abs())
                .sum();
            assert!(last_diff > 1e-3);
        }
    }

    #[test]
    fn batch_sequences_are_independent() {
        let mut rng = TensorRng::seed_from(3);
        let attn = Attention::new(8, 2, &mut rng);
        let seq = 4;
        let a = Tensor::randn(seq, 8, 1.0, &mut rng);
        let b = Tensor::randn(seq, 8, 1.0, &mut rng);
        // batched forward
        let mut xb = Tensor::zeros(2 * seq, 8);
        for t in 0..seq {
            xb.row_mut(t).copy_from_slice(a.row(t));
            xb.row_mut(seq + t).copy_from_slice(b.row(t));
        }
        let yb = forward(&attn, &xb, 2, seq).unwrap().0;
        let ya = forward(&attn, &a, 1, seq).unwrap().0;
        for t in 0..seq {
            for c in 0..8 {
                assert!((yb.get(t, c) - ya.get(t, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = TensorRng::seed_from(4);
        let mut attn = Attention::new(4, 2, &mut rng);
        let seq = 3;
        let x = Tensor::randn(seq, 4, 0.7, &mut rng);
        let dy = Tensor::randn(seq, 4, 1.0, &mut rng);
        let (_, cache) = forward(&attn, &x, 1, seq).unwrap();
        let dx = attn.backward(&cache, &dy).unwrap();
        // numeric dL/dx where L = sum(y * dy)
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let lp: f32 = forward(&attn, &xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig - eps;
            let lm: f32 = forward(&attn, &xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.as_slice()[i];
            assert!(
                (num - ana).abs() < 3e-2,
                "element {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn bad_batch_shape_errors() {
        let mut rng = TensorRng::seed_from(5);
        let attn = Attention::new(8, 2, &mut rng);
        let x = Tensor::zeros(7, 8);
        assert!(matches!(
            forward(&attn, &x, 2, 4),
            Err(ModelError::BadBatch { .. })
        ));
    }
}
