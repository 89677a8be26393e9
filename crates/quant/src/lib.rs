//! Quantization subsystem of the Edge-LLM reproduction.
//!
//! Edge-LLM's layerwise unified compression (LUC) assigns every transformer
//! layer its own quantization bit-width. This crate provides the machinery
//! that makes such a policy executable:
//!
//! * [`BitWidth`] — the discrete 2/4/8/16-bit precision alphabet,
//! * [`QuantScheme`] — bit-width x (a)symmetry x granularity,
//! * [`QuantizedTensor`] — bit-packed affine-quantized storage with
//!   whole-tensor and row-at-a-time dequantization,
//! * [`fake_quant`] — quantize-dequantize with a straight-through-estimator
//!   backward for quantization-aware tuning,
//! * error metrics ([`quant_mse`], [`sqnr_db`]) used by the LUC sensitivity
//!   profiler.
//!
//! # Example
//!
//! ```
//! use edge_llm_quant::{BitWidth, QuantScheme, QuantizedTensor};
//! use edge_llm_tensor::{Tensor, TensorRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let w = Tensor::randn(16, 16, 0.5, &mut rng);
//! let q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W8))?;
//! let w_hat = q.dequantize();
//! assert!(edge_llm_quant::sqnr_db(&w, &w_hat) > 30.0);
//! # Ok(())
//! # }
//! ```

mod affine;
mod bitwidth;
mod fake;
mod metrics;
mod packed;
mod pgemm;
mod scheme;

pub use affine::QuantizedTensor;
pub use bitwidth::BitWidth;
pub use fake::{fake_quant, fake_quant_backward, fake_quant_in_place, fake_quant_row_in_place};
pub use metrics::{quant_mse, sqnr_db};
pub use packed::PackedInts;
pub use pgemm::{
    packed_decode_matmul, packed_decode_matmul_scalar, packed_gemm_supported, quantize_activations,
    QuantizedActivations,
};
pub use scheme::{Granularity, QuantMode, QuantScheme};

/// Error type for quantization operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// A group granularity did not divide the row length.
    BadGroupSize {
        /// Requested group size.
        group: usize,
        /// Row length it must divide.
        cols: usize,
    },
    /// The input contained NaN or infinite values.
    NonFinite,
    /// Operand shapes were incompatible.
    ShapeMismatch {
        /// Operation name.
        op: &'static str,
        /// Left shape.
        lhs: (usize, usize),
        /// Right shape.
        rhs: (usize, usize),
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::BadGroupSize { group, cols } => {
                write!(f, "group size {group} does not divide row length {cols}")
            }
            QuantError::NonFinite => write!(f, "input contains non-finite values"),
            QuantError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
        }
    }
}

impl std::error::Error for QuantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = QuantError::BadGroupSize { group: 3, cols: 8 };
        assert!(e.to_string().contains("group size 3"));
        let e = QuantError::ShapeMismatch {
            op: "qmm",
            lhs: (1, 2),
            rhs: (3, 4),
        };
        assert!(e.to_string().contains("qmm"));
    }
}
