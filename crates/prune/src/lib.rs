//! Pruning subsystem of the Edge-LLM reproduction.
//!
//! LUC pairs each layer's quantization bit-width with a layer-specific
//! pruning ratio. This crate implements the pruning half:
//!
//! * [`PruneMask`] — an explicit keep/drop mask over a weight matrix,
//! * [`magnitude_prune`] — unstructured magnitude pruning at a target ratio,
//! * [`nm_prune`] — N:M semi-structured sparsity (e.g. 2:4).
//!
//! Masks zero weights in place; no kernel in the workspace skips the
//! zeros, so the compute saving exists only in the `edge-llm-hw` model.
//!
//! # Example
//!
//! ```
//! use edge_llm_prune::magnitude_prune;
//! use edge_llm_tensor::{Tensor, TensorRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let w = Tensor::randn(8, 8, 1.0, &mut rng);
//! let mask = magnitude_prune(&w, 0.5)?;
//! assert!((mask.sparsity() - 0.5).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

mod magnitude;
mod mask;
mod nm;

pub use magnitude::magnitude_prune;
pub use mask::PruneMask;
pub use nm::nm_prune;

/// Error type for pruning operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PruneError {
    /// A pruning ratio was outside `[0, 1]`.
    RatioOutOfRange {
        /// The offending ratio.
        ratio: f32,
    },
    /// Operand shapes were incompatible.
    ShapeMismatch {
        /// Operation name.
        op: &'static str,
        /// Left shape.
        lhs: (usize, usize),
        /// Right shape.
        rhs: (usize, usize),
    },
    /// An N:M pattern was invalid (`n > m`, `m == 0`, or `m` does not divide
    /// the row length).
    BadPattern {
        /// Elements kept per group.
        n: usize,
        /// Group size.
        m: usize,
    },
}

impl std::fmt::Display for PruneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruneError::RatioOutOfRange { ratio } => {
                write!(f, "pruning ratio {ratio} outside [0, 1]")
            }
            PruneError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            PruneError::BadPattern { n, m } => write!(f, "invalid {n}:{m} sparsity pattern"),
        }
    }
}

impl std::error::Error for PruneError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(PruneError::RatioOutOfRange { ratio: 1.5 }
            .to_string()
            .contains("1.5"));
        assert!(PruneError::BadPattern { n: 3, m: 2 }
            .to_string()
            .contains("3:2"));
    }
}
