use crate::bitwidth::BitWidth;
use std::fmt;

/// Whether the affine quantizer is centred on zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// Zero-point fixed at the code midpoint; scale from the max magnitude.
    /// The usual choice for weights.
    #[default]
    Symmetric,
    /// Zero-point and scale fitted to the `[min, max]` range. The usual
    /// choice for activations.
    Asymmetric,
}

/// A complete quantizer description: bit-width and mode. Every scheme
/// fits one `(scale, zero-point)` pair per row, so a row's codes never
/// depend on the rows quantized beside it. A row of an activation batch
/// is one token. A row of a weight is whatever its storage puts there:
/// the model's `(d_in, d_out)` weights put an *input* channel on each row,
/// and only the integer decode route, which quantizes the transpose, fits
/// one grid per output channel.
///
/// # Example
///
/// ```
/// use edge_llm_quant::{BitWidth, QuantMode, QuantScheme};
///
/// let s = QuantScheme::symmetric(BitWidth::W4);
/// assert_eq!(s.bits.bits(), 4);
/// assert_eq!(s.mode, QuantMode::Symmetric);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantScheme {
    /// Storage precision.
    pub bits: BitWidth,
    /// Symmetric or asymmetric affine mapping.
    pub mode: QuantMode,
}

impl QuantScheme {
    /// Symmetric scheme at the given width (the weight default).
    pub fn symmetric(bits: BitWidth) -> Self {
        QuantScheme {
            bits,
            mode: QuantMode::Symmetric,
        }
    }

    /// Asymmetric scheme at the given width (the activation default).
    pub fn asymmetric(bits: BitWidth) -> Self {
        QuantScheme {
            bits,
            mode: QuantMode::Asymmetric,
        }
    }
}

impl Default for QuantScheme {
    fn default() -> Self {
        QuantScheme::symmetric(BitWidth::W8)
    }
}

impl fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = match self.mode {
            QuantMode::Symmetric => "sym",
            QuantMode::Asymmetric => "asym",
        };
        write!(f, "{}/{m}/row", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizedTensor;
    use edge_llm_tensor::Tensor;

    #[test]
    fn storage_bits_accounting() {
        // 4x8 at 4 bits per-row symmetric: 128 code bits + 4 scales * 32.
        let x = Tensor::from_vec(4, 8, (0..32).map(|i| i as f32 - 16.0).collect()).unwrap();
        let s = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W4)).unwrap();
        assert_eq!(s.storage_bytes() * 8, 4 * 8 * 4 + 4 * 32);
        // asymmetric doubles metadata
        let a = QuantizedTensor::quantize(&x, QuantScheme::asymmetric(BitWidth::W4)).unwrap();
        assert_eq!(a.storage_bytes() * 8, 4 * 8 * 4 + 4 * 64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            QuantScheme::symmetric(BitWidth::W8).to_string(),
            "8b/sym/row"
        );
        assert_eq!(
            QuantScheme::asymmetric(BitWidth::W2).to_string(),
            "2b/asym/row"
        );
    }
}
