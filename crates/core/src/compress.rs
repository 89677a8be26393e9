//! Applying a LUC [`CompressionPolicy`] to a live model.
//!
//! Each transformer block exposes four weight matrices (fused QKV, output
//! projection, and the two MLP projections); a layer's policy installs a
//! magnitude pruning mask at the assigned ratio and a symmetric per-row
//! fake-quantization scheme at the assigned bit-width on all four. 16-bit
//! assignments are treated as "uncompressed" (no fake-quant hook), matching
//! how the paper treats fp16 as the baseline precision.

use crate::EdgeLlmError;
use edge_llm_luc::{CompressionPolicy, LayerPolicy};
use edge_llm_model::{Block, EdgeModel, Linear};
use edge_llm_prune::{magnitude_prune, nm_prune};
use edge_llm_quant::{BitWidth, QuantScheme};

fn compress_linear(lin: &mut Linear, policy: LayerPolicy) -> Result<(), EdgeLlmError> {
    if policy.prune_ratio > 0.0 {
        let mask = magnitude_prune(lin.weight(), policy.prune_ratio)
            .map_err(|e| EdgeLlmError::Model(edge_llm_model::ModelError::from(e)))?;
        lin.set_mask(Some(mask))?;
    } else {
        lin.set_mask(None)?;
    }
    if policy.bits == BitWidth::W16 {
        lin.set_quant(None);
    } else {
        lin.set_quant(Some(QuantScheme::symmetric(policy.bits)));
    }
    Ok(())
}

/// Installs `policy` on block `layer` of `model` (all four weight
/// matrices).
///
/// # Errors
///
/// Returns [`EdgeLlmError::BadConfig`] if `layer` is out of range and
/// propagates compression errors.
pub fn apply_layer_policy(
    model: &mut EdgeModel,
    layer: usize,
    policy: LayerPolicy,
) -> Result<(), EdgeLlmError> {
    if layer >= model.n_layers() {
        return Err(EdgeLlmError::BadConfig {
            reason: format!("layer {layer} out of range for depth {}", model.n_layers()),
        });
    }
    compress_block(model.block_mut(layer), policy)
}

/// Installs `policy` on all four weight matrices of `block`.
pub(crate) fn compress_block(block: &mut Block, policy: LayerPolicy) -> Result<(), EdgeLlmError> {
    policy.validate()?;
    block
        .linears_mut()
        .into_iter()
        .try_for_each(|lin| compress_linear(lin, policy))
}

/// Installs a whole-model [`CompressionPolicy`].
///
/// # Errors
///
/// Returns [`EdgeLlmError::BadConfig`] if the policy's depth disagrees with
/// the model's, and propagates per-layer errors.
pub fn apply_policy(model: &mut EdgeModel, policy: &CompressionPolicy) -> Result<(), EdgeLlmError> {
    if policy.n_layers() != model.n_layers() {
        return Err(EdgeLlmError::BadConfig {
            reason: format!(
                "policy covers {} layers, model has {}",
                policy.n_layers(),
                model.n_layers()
            ),
        });
    }
    for l in 0..model.n_layers() {
        apply_layer_policy(model, l, policy.layer(l))?;
    }
    Ok(())
}

/// Removes all compression hooks (restores full-precision dense execution
/// modulo weights already zeroed by previous masks).
///
/// # Errors
///
/// Propagates mask errors (which cannot occur for `None`).
pub fn clear_compression(model: &mut EdgeModel) -> Result<(), EdgeLlmError> {
    for l in 0..model.n_layers() {
        apply_layer_policy(model, l, LayerPolicy::uncompressed())?;
    }
    Ok(())
}

/// Installs hardware-friendly N:M semi-structured masks (e.g. 2:4) on every
/// weight matrix of every layer — the deployment-grade sparsity pattern
/// edge accelerators execute natively.
///
/// # Errors
///
/// Returns [`EdgeLlmError::Model`] for invalid patterns (e.g. `m` not
/// dividing a row length).
pub fn apply_nm_sparsity(model: &mut EdgeModel, n: usize, m: usize) -> Result<(), EdgeLlmError> {
    for layer in 0..model.n_layers() {
        for lin in model.block_mut(layer).linears_mut() {
            let mask = nm_prune(lin.weight(), n, m)
                .map_err(|e| EdgeLlmError::Model(edge_llm_model::ModelError::from(e)))?;
            lin.set_mask(Some(mask))?;
        }
    }
    Ok(())
}

/// Installs (or clears) an activation fake-quantization scheme on every
/// weight matrix of every layer — the fully-integer-datapath extension.
///
/// # Errors
///
/// Currently infallible, but returns `Result` for signature stability.
pub fn apply_activation_quant(
    model: &mut EdgeModel,
    scheme: Option<QuantScheme>,
) -> Result<(), EdgeLlmError> {
    for layer in 0..model.n_layers() {
        for lin in model.block_mut(layer).linears_mut() {
            lin.set_activation_quant(scheme);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_model::ModelConfig;
    use edge_llm_tensor::TensorRng;

    fn model() -> EdgeModel {
        let mut rng = TensorRng::seed_from(1);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn policy_depth_mismatch_rejected() {
        let mut m = model();
        let p = CompressionPolicy::uniform(5, BitWidth::W4, 0.5);
        assert!(matches!(
            apply_policy(&mut m, &p),
            Err(EdgeLlmError::BadConfig { .. })
        ));
    }

    #[test]
    fn compression_changes_outputs() {
        let mut m = model();
        let tokens: Vec<usize> = (0..8).map(|i| i % 32).collect();
        let before = m.logits(&tokens, 1).unwrap();
        apply_policy(&mut m, &CompressionPolicy::uniform(2, BitWidth::W2, 0.5)).unwrap();
        let after = m.logits(&tokens, 1).unwrap();
        assert!(!before.approx_eq(&after, 1e-4));
    }

    #[test]
    fn w16_zero_ratio_is_identity() {
        let mut m = model();
        let tokens: Vec<usize> = (0..8).map(|i| (i * 3) % 32).collect();
        let before = m.logits(&tokens, 1).unwrap();
        apply_policy(&mut m, &CompressionPolicy::identity(2)).unwrap();
        let after = m.logits(&tokens, 1).unwrap();
        assert!(before.approx_eq(&after, 1e-6));
    }

    #[test]
    fn masks_actually_sparsify_weights() {
        let mut m = model();
        apply_layer_policy(
            &mut m,
            0,
            LayerPolicy {
                bits: BitWidth::W16,
                prune_ratio: 0.5,
            },
        )
        .unwrap();
        let [qkv, ..] = m.block(0).linears();
        let zeros = qkv
            .weight()
            .as_slice()
            .iter()
            .filter(|&&v| v == 0.0)
            .count();
        assert!(zeros as f32 >= 0.5 * qkv.weight().len() as f32);
    }

    #[test]
    fn nm_sparsity_gives_exact_half_density() {
        let mut m = model();
        apply_nm_sparsity(&mut m, 2, 4).unwrap();
        let [qkv, ..] = m.block(0).linears();
        let mask = qkv.mask().unwrap();
        assert!((mask.sparsity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn nm_bad_pattern_rejected() {
        let mut m = model();
        // tiny config d_model=16: m=5 does not divide 16
        assert!(apply_nm_sparsity(&mut m, 1, 5).is_err());
    }

    #[test]
    fn activation_quant_installs_and_clears() {
        let mut m = model();
        let tokens: Vec<usize> = (0..8).map(|i| i % 32).collect();
        let clean = m.logits(&tokens, 1).unwrap();
        apply_activation_quant(&mut m, Some(QuantScheme::asymmetric(BitWidth::W2))).unwrap();
        let quant = m.logits(&tokens, 1).unwrap();
        assert!(!clean.approx_eq(&quant, 1e-4));
        apply_activation_quant(&mut m, None).unwrap();
        let restored = m.logits(&tokens, 1).unwrap();
        assert!(clean.approx_eq(&restored, 0.0));
    }

    #[test]
    fn out_of_range_layer_rejected() {
        let mut m = model();
        assert!(apply_layer_policy(&mut m, 9, LayerPolicy::uncompressed()).is_err());
    }

    #[test]
    fn clear_removes_quant_hooks() {
        let mut m = model();
        apply_policy(&mut m, &CompressionPolicy::uniform(2, BitWidth::W2, 0.0)).unwrap();
        clear_compression(&mut m).unwrap();
        let [qkv, ..] = m.block(0).linears();
        assert!(qkv.quant().is_none());
    }
}
