//! Fake quantization (quantize–dequantize) for quantization-aware tuning.
//!
//! During Edge-LLM adaptation the compressed weights participate in the
//! forward pass through their quantized values while gradients flow as if
//! the quantizer were the identity — the straight-through estimator (STE).
//! Every grid is fitted to the row it quantizes, so no value falls outside
//! its range and the estimator has nothing to clip: the backward pass
//! needs no quantizer term at all.

use crate::affine::RowGrid;
use crate::scheme::QuantScheme;
use crate::QuantError;
use edge_llm_tensor::{all_finite, Tensor, TensorError};

/// Quantizes then immediately dequantizes `x`, returning the f32 tensor the
/// forward pass should use: the same bits as
/// [`QuantizedTensor::quantize`](crate::QuantizedTensor::quantize) then
/// `dequantize`, computed row by row in a copy of `x`.
///
/// # Errors
///
/// Returns [`QuantError::NonFinite`] when `x` holds NaN or infinities.
pub fn fake_quant(x: &Tensor, scheme: QuantScheme) -> Result<Tensor, QuantError> {
    let mut q = x.clone();
    for r in 0..q.rows() {
        fake_quant_row_in_place(q.row_mut(r), scheme)?;
    }
    Ok(q)
}

/// Fake-quantizes one row in place on its own grid — row `r` of
/// [`fake_quant`]. Codes are small integers, exact in `f32`, so applying
/// the affine arithmetic directly yields the bits of the packed
/// quantize-then-dequantize roundtrip.
fn fake_quant_row_in_place(row: &mut [f32], scheme: QuantScheme) -> Result<(), QuantError> {
    if !all_finite(row) {
        return Err(QuantError::NonFinite);
    }
    let grid = RowGrid::fit(row, scheme.bits, scheme.mode);
    for v in row.iter_mut() {
        *v = (grid.code_f32(*v) - grid.zero) * grid.scale;
    }
    Ok(())
}

impl From<TensorError> for QuantError {
    fn from(e: TensorError) -> Self {
        match e {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                QuantError::ShapeMismatch { op, lhs, rhs }
            }
            _ => QuantError::ShapeMismatch {
                op: "tensor",
                lhs: (0, 0),
                rhs: (0, 0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitwidth::BitWidth;
    use crate::QuantizedTensor;
    use edge_llm_tensor::TensorRng;

    #[test]
    fn fake_quant_is_idempotent() {
        let mut rng = TensorRng::seed_from(1);
        let x = Tensor::randn(4, 16, 1.0, &mut rng);
        let s = QuantScheme::symmetric(BitWidth::W4);
        let once = fake_quant(&x, s).unwrap();
        let twice = fake_quant(&once, s).unwrap();
        assert!(once.approx_eq(&twice, 1e-5));
    }

    #[test]
    fn row_in_place_is_bit_identical_to_fake_quant() {
        // ... and both to the packed roundtrip
        let mut rng = TensorRng::seed_from(7);
        for scheme in [
            QuantScheme::symmetric(BitWidth::W2),
            QuantScheme::symmetric(BitWidth::W4),
            QuantScheme::asymmetric(BitWidth::W4),
            QuantScheme::asymmetric(BitWidth::W8),
            QuantScheme::symmetric(BitWidth::W16),
        ] {
            let x = Tensor::randn(3, 32, 1.0, &mut rng);
            let reference = fake_quant(&x, scheme).unwrap();
            let packed = QuantizedTensor::quantize(&x, scheme).unwrap();
            assert_eq!(packed.dequantize().as_slice(), reference.as_slice());
            for r in 0..3 {
                let mut row = x.row(r).to_vec();
                fake_quant_row_in_place(&mut row, scheme).unwrap();
                assert_eq!(&row[..], reference.row(r), "{scheme} row {r}");
            }
        }
        // empty rows and non-finite inputs
        fake_quant_row_in_place(&mut [], QuantScheme::default()).unwrap();
        let mut bad = [1.0, f32::NAN];
        assert!(fake_quant_row_in_place(&mut bad, QuantScheme::default()).is_err());
    }
}
