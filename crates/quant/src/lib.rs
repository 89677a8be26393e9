//! Quantization subsystem of the Edge-LLM reproduction.
//!
//! Edge-LLM's layerwise unified compression (LUC) assigns every transformer
//! layer its own quantization bit-width. This crate provides the machinery
//! that makes such a policy executable — one affine quantizer with one
//! `(scale, zero-point)` per row, on every route:
//!
//! * [`BitWidth`] — the discrete 2/4/8/16-bit precision alphabet,
//! * [`QuantScheme`] — bit-width x (a)symmetry,
//! * [`QuantizedTensor`] — bit-packed affine-quantized storage with
//!   whole-tensor and row-at-a-time dequantization,
//! * [`fake_quant`] — quantize-dequantize for quantization-aware tuning;
//!   its straight-through backward is the identity, since every range is
//!   fitted to the row it covers,
//! * [`quantize_activations`] + [`packed_decode_matmul`] — the integer
//!   GEMM of the decode route, computed on the packed words.
//!
//! # Example
//!
//! ```
//! use edge_llm_quant::{BitWidth, QuantScheme, QuantizedTensor};
//! use edge_llm_tensor::{l2_norm, Tensor, TensorRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let w = Tensor::randn(16, 16, 0.5, &mut rng);
//! let q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W8))?;
//! let w_hat = q.dequantize();
//! // better than 30 dB of signal-to-quantization-noise
//! assert!(l2_norm(&w.sub(&w_hat)?) < 0.03 * l2_norm(&w));
//! # Ok(())
//! # }
//! ```

// Every failure this crate can meet is a typed `QuantError`; only the
// invariant `assert!`s may panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod affine;
mod bitwidth;
mod fake;
mod packed;
mod pgemm;
mod scheme;

pub use affine::QuantizedTensor;
pub use bitwidth::BitWidth;
pub use fake::fake_quant;
pub use packed::PackedInts;
pub use pgemm::{
    packed_decode_matmul, packed_decode_matmul_scalar, packed_gemm_supported, quantize_activations,
    QuantizedActivations,
};
pub use scheme::{QuantMode, QuantScheme};

/// Error type for quantization operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// An operation was handed a scheme (or bit-width) it does not
    /// implement.
    UnsupportedScheme {
        /// Operation name.
        op: &'static str,
        /// The rejected scheme or width.
        scheme: String,
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
            QuantError::UnsupportedScheme { op, scheme } => {
                write!(f, "unsupported scheme in {op}: {scheme}")
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
        let e = QuantError::UnsupportedScheme {
            op: "quantize_activations",
            scheme: QuantScheme::symmetric(BitWidth::W8).to_string(),
        };
        assert_eq!(
            e.to_string(),
            "unsupported scheme in quantize_activations: 8b/sym/row"
        );
        let e = QuantError::ShapeMismatch {
            op: "qmm",
            lhs: (1, 2),
            rhs: (3, 4),
        };
        assert!(e.to_string().contains("qmm"));
    }
}
