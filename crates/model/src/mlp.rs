use crate::block::BlockTape;
use crate::error::ModelError;
use crate::linear::Linear;
use edge_llm_tensor::{Tensor, TensorRng};

/// Two-layer GELU MLP: `d_model -> d_ff -> d_model`.
///
/// The forward is the decode walk's (`crate::batched`); for a block in the
/// training window it records GELU's derivative in the block's
/// [`BlockTape`], which [`Mlp::backward`] multiplies by.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub(crate) fc1: Linear,
    pub(crate) fc2: Linear,
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

    /// Backward pass from the MLP fields of `tape`: accumulates projection
    /// gradients, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward(&mut self, tape: &BlockTape, dy: &Tensor) -> Result<Tensor, ModelError> {
        let mut dpre = self.fc2.backward(&tape.fc2, dy)?;
        dpre.hadamard_in_place(&tape.gelu_grad)?;
        self.fc1.backward(&tape.fc1, &dpre)
    }
}

/// The training MLP the window ran before it moved onto the layer walk:
/// the walk's independent reference (see `crate::block::reference`).
#[cfg(test)]
mod reference {
    use super::*;
    use edge_llm_tensor::gelu_forward_train;

    impl Mlp {
        /// The MLP over `x`'s rows, filling the MLP fields of `tape`.
        pub(crate) fn forward_reference(
            &self,
            x: Tensor,
            tape: &mut BlockTape,
        ) -> Result<Tensor, ModelError> {
            let (mut gelu_grad, fc1) = self.fc1.forward(x)?;
            let act = gelu_forward_train(&mut gelu_grad);
            let (y, fc2) = self.fc2.forward(act)?;
            tape.fc1 = fc1;
            tape.gelu_grad = gelu_grad;
            tape.fc2 = fc2;
            Ok(y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(mlp: &Mlp, x: &Tensor) -> Result<(Tensor, BlockTape), ModelError> {
        let mut tape = BlockTape::empty();
        let y = mlp.forward_reference(x.clone(), &mut tape)?;
        Ok((y, tape))
    }

    #[test]
    fn shapes() {
        let mut rng = TensorRng::seed_from(1);
        let mlp = Mlp::new(8, 32, &mut rng);
        let x = Tensor::randn(5, 8, 1.0, &mut rng);
        let (y, _) = forward(&mlp, &x).unwrap();
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
        let (_, cache) = forward(&mlp, &x).unwrap();
        let dx = mlp.backward(&cache, &dy).unwrap();
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let lp: f32 = forward(&mlp, &xp)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig - eps;
            let lm: f32 = forward(&mlp, &xp)
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
