use crate::error::ModelError;
use edge_llm_tensor::{
    layernorm_backward, layernorm_forward, layernorm_param_grads, LayerNormCache, Tensor,
};

const LN_EPS: f32 = 1e-5;

/// Layer normalization with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    dgamma: Vec<f32>,
    dbeta: Vec<f32>,
}

impl LayerNorm {
    /// Creates a LayerNorm over vectors of dimension `dim`
    /// (`gamma = 1`, `beta = 0`).
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            dgamma: vec![0.0; dim],
            dbeta: vec![0.0; dim],
        }
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Forward pass returning the output and the backward cache.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the kernel.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerNormCache), ModelError> {
        Ok(layernorm_forward(x, &self.gamma, &self.beta, LN_EPS)?)
    }

    /// Forward pass that discards the cache.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the kernel.
    pub fn forward_no_cache(&self, x: &Tensor) -> Result<Tensor, ModelError> {
        Ok(layernorm_forward(x, &self.gamma, &self.beta, LN_EPS)?.0)
    }

    /// Backward pass: accumulates parameter gradients, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the kernel.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Tensor) -> Result<Tensor, ModelError> {
        let (dx, dgamma, dbeta) = layernorm_backward(dy, cache, &self.gamma)?;
        self.accumulate(&dgamma, &dbeta);
        Ok(dx)
    }

    /// The parameter half of [`LayerNorm::backward`], for a norm whose
    /// input gradient has no reader: accumulates the same `dgamma`/`dbeta`
    /// bits and computes no `dx`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the kernel.
    pub(crate) fn backward_params(
        &mut self,
        cache: &LayerNormCache,
        dy: &Tensor,
    ) -> Result<(), ModelError> {
        let (dgamma, dbeta) = layernorm_param_grads(dy, cache, &self.gamma)?;
        self.accumulate(&dgamma, &dbeta);
        Ok(())
    }

    fn accumulate(&mut self, dgamma: &[f32], dbeta: &[f32]) {
        for (acc, g) in self.dgamma.iter_mut().zip(dgamma) {
            *acc += g;
        }
        for (acc, g) in self.dbeta.iter_mut().zip(dbeta) {
            *acc += g;
        }
    }

    /// Visits `(param, grad)` pairs: gamma then beta.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.dgamma);
        f(&mut self.beta, &mut self.dbeta);
    }

    /// Read-only mirror of [`LayerNorm::visit_params`]: gamma then beta.
    pub fn visit_params_ro(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.gamma);
        f(&self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_tensor::TensorRng;

    #[test]
    fn fresh_layernorm_is_identity_statistics() {
        let mut rng = TensorRng::seed_from(1);
        let ln = LayerNorm::new(16);
        let x = Tensor::randn(3, 16, 2.0, &mut rng);
        let (y, _) = ln.forward(&x).unwrap();
        for r in 0..3 {
            let m: f32 = y.row(r).iter().sum::<f32>() / 16.0;
            assert!(m.abs() < 1e-4);
        }
    }

    #[test]
    fn backward_accumulates() {
        let mut rng = TensorRng::seed_from(2);
        let mut ln = LayerNorm::new(8);
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let (_, cache) = ln.forward(&x).unwrap();
        let dy = Tensor::ones(2, 8);
        ln.backward(&cache, &dy).unwrap();
        let g1 = ln.dbeta.clone();
        ln.backward(&cache, &dy).unwrap();
        for (a, b) in ln.dbeta.iter().zip(g1.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
    }

    #[test]
    fn visit_order_is_gamma_then_beta() {
        let mut ln = LayerNorm::new(4);
        let mut seen = Vec::new();
        ln.visit_params(&mut |p, _| seen.push(p[0]));
        assert_eq!(seen, vec![1.0, 0.0]);
    }
}
