use crate::error::ModelError;
use crate::linear::{Linear, LinearCache};
use edge_llm_tensor::{gelu_forward_train, Tensor, TensorRng};

/// Two-layer GELU MLP: `d_model -> d_ff -> d_model`.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub(crate) fc1: Linear,
    pub(crate) fc2: Linear,
}

/// Activations cached by [`Mlp::forward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    fc1_cache: LinearCache,
    /// GELU's local derivative at the pre-activation, written over the
    /// pre-activation buffer by [`gelu_forward_train`].
    gelu_grad: Tensor,
    fc2_cache: LinearCache,
}

impl MlpCache {
    /// Approximate bytes held alive by this cache.
    pub fn bytes(&self) -> usize {
        self.fc1_cache.bytes() + self.gelu_grad.len() * 4 + self.fc2_cache.bytes()
    }
}

impl Mlp {
    /// Creates an MLP with the given input and hidden widths.
    pub fn new(d_model: usize, d_ff: usize, rng: &mut TensorRng) -> Self {
        Mlp {
            fc1: Linear::new(d_model, d_ff, rng),
            fc2: Linear::new(d_ff, d_model, rng),
        }
    }

    /// Read access to the projections, `(fc1, fc2)`; write them through
    /// [`crate::Block::linears_mut`].
    pub fn linears(&self) -> (&Linear, &Linear) {
        (&self.fc1, &self.fc2)
    }

    /// Forward pass, caching activations.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, MlpCache), ModelError> {
        let (mut gelu_grad, fc1_cache) = self.fc1.forward(x)?;
        let act = gelu_forward_train(&mut gelu_grad);
        let (y, fc2_cache) = self.fc2.forward(&act)?;
        Ok((
            y,
            MlpCache {
                fc1_cache,
                gelu_grad,
                fc2_cache,
            },
        ))
    }

    /// Backward pass: accumulates projection gradients, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward(&mut self, cache: &MlpCache, dy: &Tensor) -> Result<Tensor, ModelError> {
        let mut dpre = self.fc2.backward(&cache.fc2_cache, dy)?;
        dpre.hadamard_in_place(&cache.gelu_grad)?;
        self.fc1.backward(&cache.fc1_cache, &dpre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let mut rng = TensorRng::seed_from(1);
        let mlp = Mlp::new(8, 32, &mut rng);
        let x = Tensor::randn(5, 8, 1.0, &mut rng);
        let (y, _) = mlp.forward(&x).unwrap();
        assert_eq!(y.shape(), (5, 8));
        let (fc1, fc2) = mlp.linears();
        assert_eq!((fc1.shape(), fc2.shape()), ((8, 32), (32, 8)));
    }

    #[test]
    fn backward_matches_numeric() {
        let mut rng = TensorRng::seed_from(2);
        let mut mlp = Mlp::new(4, 8, &mut rng);
        let x = Tensor::randn(3, 4, 0.8, &mut rng);
        let dy = Tensor::randn(3, 4, 1.0, &mut rng);
        let (_, cache) = mlp.forward(&x).unwrap();
        let dx = mlp.backward(&cache, &dy).unwrap();
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let lp: f32 = mlp
                .forward(&xp)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig - eps;
            let lm: f32 = mlp
                .forward(&xp)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx.as_slice()[i]).abs() < 2e-2, "element {i}");
        }
    }
}
