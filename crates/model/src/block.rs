use crate::attention::Attention;
use crate::error::ModelError;
use crate::linear::{Linear, LinearCache};
use crate::mlp::Mlp;
use crate::norm::LayerNorm;
use edge_llm_tensor::{LayerNormCache, Tensor, TensorRng};

/// A pre-norm transformer block:
/// `x + attn(ln1(x))` followed by `x + mlp(ln2(x))`.
///
/// The block's forward is one layer of the decode walk (`crate::batched`),
/// frozen or training alike; a block inside the training window records
/// its [`BlockTape`] there, and [`Block::backward`] reads it.
#[derive(Debug, Clone)]
pub struct Block {
    ln1: LayerNorm,
    attn: Attention,
    ln2: LayerNorm,
    mlp: Mlp,
}

/// What one block's backward reads, recorded by the layer walk for a block
/// inside the training window, in the order the walk makes it. Dropping a
/// block's tape is exactly the memory saving adaptive layer tuning exploits
/// for frozen layers.
#[derive(Debug, Clone)]
pub struct BlockTape {
    pub(crate) ln1: LayerNormCache,
    pub(crate) qkv: LinearCache,
    /// The `qkv` projection's output, `(rows, 3 d_model)`: every head's
    /// query, key and value columns.
    pub(crate) qkv_out: Tensor,
    /// Attention probabilities, one zeroed `(seq, seq)` square per
    /// `(run, head)`, in that order, each row written over its causal
    /// prefix.
    pub(crate) probs: Vec<Tensor>,
    pub(crate) proj: LinearCache,
    pub(crate) ln2: LayerNormCache,
    pub(crate) fc1: LinearCache,
    /// GELU's local derivative at `fc1`'s output, written over that output
    /// by [`edge_llm_tensor::gelu_forward_train`].
    pub(crate) gelu_grad: Tensor,
    pub(crate) fc2: LinearCache,
}

impl BlockTape {
    /// Approximate bytes held alive by this tape.
    pub fn bytes(&self) -> usize {
        let norms = [&self.ln1, &self.ln2].map(|n| n.xhat.len() + n.rstd.len());
        let probs: usize = self.probs.iter().map(Tensor::len).sum();
        let floats =
            norms.iter().sum::<usize>() + self.qkv_out.len() + probs + self.gelu_grad.len();
        let linears = [&self.qkv, &self.proj, &self.fc1, &self.fc2].map(LinearCache::bytes);
        floats * 4 + linears.iter().sum::<usize>()
    }

    /// Appends `part`'s rows after this tape's: a pass walked in chunks of
    /// runs records one tape per chunk, and they join in run order. The
    /// effective weights are the same `Arc`s in every part.
    pub(crate) fn append(&mut self, part: BlockTape) -> Result<(), ModelError> {
        for (mine, theirs) in [(&mut self.ln1, part.ln1), (&mut self.ln2, part.ln2)] {
            append_rows(&mut mine.xhat, theirs.xhat)?;
            mine.rstd.extend(theirs.rstd);
        }
        let linears = [
            (&mut self.qkv, part.qkv),
            (&mut self.proj, part.proj),
            (&mut self.fc1, part.fc1),
            (&mut self.fc2, part.fc2),
        ];
        for (mine, theirs) in linears {
            append_rows(&mut mine.x, theirs.x)?;
        }
        append_rows(&mut self.qkv_out, part.qkv_out)?;
        append_rows(&mut self.gelu_grad, part.gelu_grad)?;
        self.probs.extend(part.probs);
        Ok(())
    }
}

/// `rows` below `t`'s rows, in place.
fn append_rows(t: &mut Tensor, rows: Tensor) -> Result<(), ModelError> {
    let cols = t.cols();
    let mut data = std::mem::replace(t, Tensor::zeros(0, 0)).into_vec();
    data.extend(rows.into_vec());
    *t = Tensor::from_vec(data.len() / cols, cols, data)?;
    Ok(())
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

    /// Backward pass: accumulates gradients in every submodule, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward(&mut self, tape: &BlockTape, dy: &Tensor) -> Result<Tensor, ModelError> {
        let dx = self.backward_to(tape, dy, true)?;
        Ok(dx.expect("the input gradient was asked for"))
    }

    /// [`Block::backward`], returning `dx` only when `input_grad`. The
    /// bottom block of a window above layer 0 has no reader for it, so it
    /// skips `ln1`'s input gradient and the residual add. The `qkv`
    /// projection's input gradient still runs: it is the gradient at
    /// `ln1`'s output, which `ln1`'s own parameters learn from. Every
    /// parameter gradient is the same bits either way.
    pub(crate) fn backward_to(
        &mut self,
        tape: &BlockTape,
        dy: &Tensor,
        input_grad: bool,
    ) -> Result<Option<Tensor>, ModelError> {
        // y = x1 + mlp(ln2(x1))
        let dn2 = self.mlp.backward(tape, dy)?;
        let mut dx1 = self.ln2.backward(&tape.ln2, &dn2)?;
        dx1.axpy(1.0, dy)?; // residual path
                            // x1 = x + attn(ln1(x))
        let dn1 = self.attn.backward(tape, &dx1)?;
        if !input_grad {
            self.ln1.backward_params(&tape.ln1, &dn1)?;
            return Ok(None);
        }
        let mut dx = self.ln1.backward(&tape.ln1, &dn1)?;
        dx.axpy(1.0, &dx1)?; // residual path
        Ok(Some(dx))
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

/// The training forward the window ran before it moved onto the layer
/// walk, kept as the walk's independent reference: per-head matmuls over a
/// masked square where the walk runs each run's block over the causal
/// triangle. It builds the same tape, which `model::tests` holds field by
/// field to the walk's.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    impl BlockTape {
        /// A tape with nothing recorded, for a reference forward to fill.
        pub(crate) fn empty() -> Self {
            let norm = || LayerNormCache {
                rstd: Vec::new(),
                xhat: Tensor::zeros(0, 0),
            };
            BlockTape {
                ln1: norm(),
                qkv: LinearCache::empty(),
                qkv_out: Tensor::zeros(0, 0),
                probs: Vec::new(),
                proj: LinearCache::empty(),
                ln2: norm(),
                fc1: LinearCache::empty(),
                gelu_grad: Tensor::zeros(0, 0),
                fc2: LinearCache::empty(),
            }
        }

        /// Every recorded tensor by name, with its shape and floats.
        pub(crate) fn fields(&self) -> Vec<(String, (usize, usize), &[f32])> {
            let mut tensors: Vec<(String, &Tensor)> = Vec::new();
            for (name, n) in [("ln1", &self.ln1), ("ln2", &self.ln2)] {
                tensors.push((format!("{name}.xhat"), &n.xhat));
            }
            let linears = [
                ("qkv", &self.qkv),
                ("proj", &self.proj),
                ("fc1", &self.fc1),
                ("fc2", &self.fc2),
            ];
            for (name, l) in linears {
                tensors.push((format!("{name}.x"), &l.x));
                tensors.extend(l.weight().map(|w| (format!("{name}.w_eff"), w)));
            }
            tensors.push(("qkv_out".into(), &self.qkv_out));
            tensors.push(("gelu_grad".into(), &self.gelu_grad));
            for (i, p) in self.probs.iter().enumerate() {
                tensors.push((format!("probs[{i}]"), p));
            }
            let mut out: Vec<_> = tensors
                .into_iter()
                .map(|(name, t)| (name, t.shape(), t.as_slice()))
                .collect();
            for (name, n) in [("ln1", &self.ln1), ("ln2", &self.ln2)] {
                out.push((format!("{name}.rstd"), (1, n.rstd.len()), &n.rstd[..]));
            }
            out
        }
    }

    impl Block {
        /// The reference forward over `batch` sequences of `seq` rows.
        pub(crate) fn forward_reference(
            &self,
            x: &Tensor,
            batch: usize,
            seq: usize,
        ) -> Result<(Tensor, BlockTape), ModelError> {
            let mut tape = BlockTape::empty();
            let (n1, ln1) = self.ln1.forward(x)?;
            tape.ln1 = ln1;
            let x1 = x.add(&self.attn.forward_reference(&n1, batch, seq, &mut tape)?)?;
            let (n2, ln2) = self.ln2.forward(&x1)?;
            tape.ln2 = ln2;
            let y = x1.add(&self.mlp.forward_reference(n2, &mut tape)?)?;
            Ok((y, tape))
        }
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
        let (y, _) = block.forward_reference(&x, 2, 4).unwrap();
        assert_eq!(y.shape(), (8, 8));
    }

    #[test]
    fn backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(2);
        let mut block = Block::new(4, 2, 8, &mut rng);
        let seq = 3;
        let x = Tensor::randn(seq, 4, 0.6, &mut rng);
        let dy = Tensor::randn(seq, 4, 1.0, &mut rng);
        let (_, cache) = block.forward_reference(&x, 1, seq).unwrap();
        let dx = block.backward(&cache, &dy).unwrap();
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let lp: f32 = block
                .forward_reference(&xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig - eps;
            let lm: f32 = block
                .forward_reference(&xp, 1, seq)
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
        let (y, _) = block.forward_reference(&x, 1, 4).unwrap();
        assert!(y.approx_eq(&x, 1e-5));
    }

    #[test]
    fn cache_bytes_positive() {
        let mut rng = TensorRng::seed_from(4);
        let block = Block::new(8, 2, 16, &mut rng);
        let x = Tensor::randn(4, 8, 1.0, &mut rng);
        let (_, cache) = block.forward_reference(&x, 1, 4).unwrap();
        assert!(cache.bytes() > 0);
    }
}
