use crate::attention::{Attention, AttentionCache};
use crate::error::ModelError;
use crate::linear::Linear;
use crate::mlp::{Mlp, MlpCache};
use crate::norm::LayerNorm;
use edge_llm_tensor::{LayerNormCache, Tensor, TensorRng};

/// A pre-norm transformer block:
/// `x + attn(ln1(x))` followed by `x + mlp(ln2(x))`.
#[derive(Debug, Clone)]
pub struct Block {
    ln1: LayerNorm,
    attn: Attention,
    ln2: LayerNorm,
    mlp: Mlp,
}

/// Activations cached by [`Block::forward`]. Dropping a block's cache is
/// exactly the memory saving adaptive layer tuning exploits for frozen
/// layers.
#[derive(Debug, Clone)]
pub struct BlockCache {
    ln1_cache: LayerNormCache,
    attn_cache: AttentionCache,
    ln2_cache: LayerNormCache,
    mlp_cache: MlpCache,
}

impl BlockCache {
    /// Approximate bytes held alive by this cache.
    pub fn bytes(&self) -> usize {
        let ln = (self.ln1_cache.xhat.len() + self.ln2_cache.xhat.len()) * 4
            + (self.ln1_cache.rstd.len() + self.ln2_cache.rstd.len()) * 4;
        ln + self.attn_cache.bytes() + self.mlp_cache.bytes()
    }
}

impl Block {
    /// Creates a block for the given width, head count, and MLP width.
    pub fn new(d_model: usize, n_heads: usize, d_ff: usize, rng: &mut TensorRng) -> Self {
        Block {
            ln1: LayerNorm::new(d_model),
            attn: Attention::new(d_model, n_heads, rng),
            ln2: LayerNorm::new(d_model),
            mlp: Mlp::new(d_model, d_ff, rng),
        }
    }

    /// Read access to the attention module.
    pub fn attn(&self) -> &Attention {
        &self.attn
    }

    /// Read access to the first LayerNorm (pre-attention).
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// Read access to the second LayerNorm (pre-MLP).
    pub fn ln2(&self) -> &LayerNorm {
        &self.ln2
    }

    /// Read access to the MLP module.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The block's four projections, in `[qkv, proj, fc1, fc2]` order.
    pub fn linears(&self) -> [&Linear; 4] {
        [
            &self.attn.qkv,
            &self.attn.proj,
            &self.mlp.fc1,
            &self.mlp.fc2,
        ]
    }

    /// Mutable access to the four projections, same order as
    /// [`Block::linears`] — the one way to write a projection's
    /// compression hooks (masks, weight and activation schemes).
    pub fn linears_mut(&mut self) -> [&mut Linear; 4] {
        [
            &mut self.attn.qkv,
            &mut self.attn.proj,
            &mut self.mlp.fc1,
            &mut self.mlp.fc2,
        ]
    }

    /// Forward pass, caching activations for backward.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn forward(
        &self,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, BlockCache), ModelError> {
        let (n1, ln1_cache) = self.ln1.forward(x)?;
        let (a, attn_cache) = self.attn.forward(&n1, batch, seq)?;
        let x1 = x.add(&a)?;
        let (n2, ln2_cache) = self.ln2.forward(&x1)?;
        let (m, mlp_cache) = self.mlp.forward(&n2)?;
        let y = x1.add(&m)?;
        Ok((
            y,
            BlockCache {
                ln1_cache,
                attn_cache,
                ln2_cache,
                mlp_cache,
            },
        ))
    }

    /// Backward pass: accumulates gradients in every submodule, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward(&mut self, cache: &BlockCache, dy: &Tensor) -> Result<Tensor, ModelError> {
        // y = x1 + mlp(ln2(x1))
        let dm = dy; // gradient into mlp output
        let dn2 = self.mlp.backward(&cache.mlp_cache, dm)?;
        let mut dx1 = self.ln2.backward(&cache.ln2_cache, &dn2)?;
        dx1.axpy(1.0, dy)?; // residual path
                            // x1 = x + attn(ln1(x))
        let dn1 = self.attn.backward(&cache.attn_cache, &dx1)?;
        let mut dx = self.ln1.backward(&cache.ln1_cache, &dn1)?;
        dx.axpy(1.0, &dx1)?; // residual path
        Ok(dx)
    }

    /// Visits `(param, grad)` pairs in execution order: `ln1`, `qkv`,
    /// `proj`, `ln2`, `fc1`, `fc2`, each weight (gamma) before its bias
    /// (beta).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.ln1.visit_params(f);
        self.attn.qkv.visit_params(f);
        self.attn.proj.visit_params(f);
        self.ln2.visit_params(f);
        self.mlp.fc1.visit_params(f);
        self.mlp.fc2.visit_params(f);
    }

    /// Read-only mirror of [`Block::visit_params`]: same slice order, no
    /// cache invalidation.
    pub fn visit_params_ro(&self, f: &mut dyn FnMut(&[f32])) {
        self.ln1.visit_params_ro(f);
        self.attn.qkv.visit_params_ro(f);
        self.attn.proj.visit_params_ro(f);
        self.ln2.visit_params_ro(f);
        self.mlp.fc1.visit_params_ro(f);
        self.mlp.fc2.visit_params_ro(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = TensorRng::seed_from(1);
        let block = Block::new(8, 2, 16, &mut rng);
        let x = Tensor::randn(2 * 4, 8, 1.0, &mut rng);
        let (y, _) = block.forward(&x, 2, 4).unwrap();
        assert_eq!(y.shape(), (8, 8));
    }

    #[test]
    fn backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(2);
        let mut block = Block::new(4, 2, 8, &mut rng);
        let seq = 3;
        let x = Tensor::randn(seq, 4, 0.6, &mut rng);
        let dy = Tensor::randn(seq, 4, 1.0, &mut rng);
        let (_, cache) = block.forward(&x, 1, seq).unwrap();
        let dx = block.backward(&cache, &dy).unwrap();
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let lp: f32 = block
                .forward(&xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig - eps;
            let lm: f32 = block
                .forward(&xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[i]).abs() < 5e-2,
                "element {i}: {num} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn residual_path_preserves_identity_signal() {
        // With zeroed attention/MLP output projections, a block is identity.
        let mut rng = TensorRng::seed_from(3);
        let mut block = Block::new(8, 2, 16, &mut rng);
        let zero = &mut |p: &mut [f32], _: &mut [f32]| p.fill(0.0);
        let [_, proj, _, fc2] = block.linears_mut();
        proj.visit_params(zero);
        fc2.visit_params(zero);
        let x = Tensor::randn(4, 8, 1.0, &mut rng);
        let (y, _) = block.forward(&x, 1, 4).unwrap();
        assert!(y.approx_eq(&x, 1e-5));
    }

    #[test]
    fn cache_bytes_positive() {
        let mut rng = TensorRng::seed_from(4);
        let block = Block::new(8, 2, 16, &mut rng);
        let x = Tensor::randn(4, 8, 1.0, &mut rng);
        let (_, cache) = block.forward(&x, 1, 4).unwrap();
        assert!(cache.bytes() > 0);
    }
}
