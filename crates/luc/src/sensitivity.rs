use crate::policy::LayerPolicy;
use crate::LucError;
use edge_llm_quant::BitWidth;
use edge_llm_telemetry as telemetry;

/// Anything that can report the task loss of the model with a single layer
/// compressed — typically a wrapper around `EdgeModel` plus a calibration
/// batch (implemented in the `edge-llm` pipeline crate).
///
/// Keeping the oracle abstract lets this crate's search algorithms be
/// tested against synthetic sensitivity landscapes with known optima.
pub trait SensitivityOracle {
    /// Number of layers in the model.
    fn n_layers(&self) -> usize;

    /// Calibration loss with **only** layer `layer` compressed per `policy`
    /// and every other layer uncompressed.
    fn loss_with(&mut self, layer: usize, policy: LayerPolicy) -> f32;

    /// Calibration loss of the uncompressed model.
    fn baseline_loss(&mut self) -> f32;
}

/// A [`SensitivityOracle`] built from closures (handy in tests and for
/// analytic landscapes).
pub struct FnOracle<F, B>
where
    F: FnMut(usize, LayerPolicy) -> f32,
    B: FnMut() -> f32,
{
    n_layers: usize,
    loss_with: F,
    baseline: B,
}

impl<F, B> FnOracle<F, B>
where
    F: FnMut(usize, LayerPolicy) -> f32,
    B: FnMut() -> f32,
{
    /// Wraps the closures.
    pub fn new(n_layers: usize, loss_with: F, baseline: B) -> Self {
        FnOracle {
            n_layers,
            loss_with,
            baseline,
        }
    }
}

impl<F, B> SensitivityOracle for FnOracle<F, B>
where
    F: FnMut(usize, LayerPolicy) -> f32,
    B: FnMut() -> f32,
{
    fn n_layers(&self) -> usize {
        self.n_layers
    }

    fn loss_with(&mut self, layer: usize, policy: LayerPolicy) -> f32 {
        (self.loss_with)(layer, policy)
    }

    fn baseline_loss(&mut self) -> f32 {
        (self.baseline)()
    }
}

/// Per-layer sensitivity measurements: the loss *increase* over baseline
/// for each candidate bit-width and each candidate pruning ratio, measured
/// independently.
///
/// The policy search assumes the two effects compose additively
/// (`delta(bits, ratio) ≈ delta(bits) + delta(ratio)`) — an approximation
/// the paper's unified policy search also relies on, validated empirically
/// in the T2 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityProfile {
    /// Candidate bit-widths (ascending).
    pub bit_choices: Vec<BitWidth>,
    /// Candidate pruning ratios (ascending).
    pub ratio_choices: Vec<f32>,
    /// `quant_delta[layer][bit_idx]`: loss increase at that width.
    pub quant_delta: Vec<Vec<f32>>,
    /// `prune_delta[layer][ratio_idx]`: loss increase at that ratio.
    pub prune_delta: Vec<Vec<f32>>,
    /// Baseline (uncompressed) loss.
    pub baseline: f32,
}

impl SensitivityProfile {
    /// Number of profiled layers.
    pub fn n_layers(&self) -> usize {
        self.quant_delta.len()
    }

    /// Predicted loss increase for assigning `(bit_idx, ratio_idx)` to
    /// `layer` under the additive model.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn predicted_delta(&self, layer: usize, bit_idx: usize, ratio_idx: usize) -> f32 {
        self.quant_delta[layer][bit_idx] + self.prune_delta[layer][ratio_idx]
    }

    /// A per-layer scalar sensitivity score (loss delta at the most
    /// aggressive candidate compression), used to order layers from most
    /// to least robust.
    pub fn layer_scores(&self) -> Vec<f32> {
        (0..self.n_layers())
            .map(|l| {
                let q = self.quant_delta[l].first().copied().unwrap_or(0.0);
                let p = self.prune_delta[l].last().copied().unwrap_or(0.0);
                q + p
            })
            .collect()
    }

    /// Checks internal shape consistency.
    ///
    /// # Errors
    ///
    /// Returns [`LucError::ProfileMismatch`] on ragged or empty tables.
    pub fn validate(&self) -> Result<(), LucError> {
        if self.bit_choices.is_empty() || self.ratio_choices.is_empty() {
            return Err(LucError::ProfileMismatch {
                reason: "empty choice sets".into(),
            });
        }
        if self.quant_delta.len() != self.prune_delta.len() {
            return Err(LucError::ProfileMismatch {
                reason: "layer count disagreement".into(),
            });
        }
        for (l, (q, p)) in self
            .quant_delta
            .iter()
            .zip(self.prune_delta.iter())
            .enumerate()
        {
            if q.len() != self.bit_choices.len() || p.len() != self.ratio_choices.len() {
                return Err(LucError::ProfileMismatch {
                    reason: format!("ragged row at layer {l}"),
                });
            }
        }
        Ok(())
    }
}

/// Measures a [`SensitivityProfile`] by sweeping each layer through each
/// candidate bit-width and pruning ratio, one at a time.
///
/// Cost: `n_layers * (|bits| + |ratios|)` oracle evaluations plus one
/// baseline — the cheap, embarrassingly parallel measurement loop the paper
/// describes for LUC. The pipeline's `ModelOracle` walks only `l..n` for
/// a probe of layer `l`, from the baseline's cached rows entering `l` with
/// a compressed copy of block `l` standing in for the model's, and no
/// layer at all for a probe that installs nothing.
///
/// # Errors
///
/// Returns [`LucError::BadParameter`] for empty choice sets.
pub fn profile(
    oracle: &mut dyn SensitivityOracle,
    bit_choices: &[BitWidth],
    ratio_choices: &[f32],
) -> Result<SensitivityProfile, LucError> {
    let _span = telemetry::span("luc.profile");
    if bit_choices.is_empty() || ratio_choices.is_empty() {
        return Err(LucError::BadParameter {
            reason: "choice sets must be non-empty".into(),
        });
    }
    let baseline = oracle.baseline_loss();
    let n = oracle.n_layers();
    let mut quant_delta = Vec::with_capacity(n);
    let mut prune_delta = Vec::with_capacity(n);
    for layer in 0..n {
        let q: Vec<f32> = bit_choices
            .iter()
            .map(|&bits| {
                let loss = oracle.loss_with(
                    layer,
                    LayerPolicy {
                        bits,
                        prune_ratio: 0.0,
                    },
                );
                (loss - baseline).max(0.0)
            })
            .collect();
        let p: Vec<f32> = ratio_choices
            .iter()
            .map(|&prune_ratio| {
                let loss = oracle.loss_with(
                    layer,
                    LayerPolicy {
                        bits: BitWidth::W16,
                        prune_ratio,
                    },
                );
                (loss - baseline).max(0.0)
            })
            .collect();
        quant_delta.push(q);
        prune_delta.push(p);
    }
    Ok(SensitivityProfile {
        bit_choices: bit_choices.to_vec(),
        ratio_choices: ratio_choices.to_vec(),
        quant_delta,
        prune_delta,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic landscape: layer l has sensitivity weight (l+1); loss
    /// penalty = weight * (16 - bits)/16 + weight * ratio.
    pub(crate) fn synthetic_oracle(n: usize) -> impl SensitivityOracle {
        FnOracle::new(
            n,
            move |layer, p: LayerPolicy| {
                let w = (layer + 1) as f32;
                1.0 + w * ((16.0 - p.bits.bits() as f32) / 16.0) * 0.1 + w * p.prune_ratio * 0.1
            },
            || 1.0,
        )
    }

    #[test]
    fn profile_shapes() {
        let mut oracle = synthetic_oracle(4);
        let prof = profile(
            &mut oracle,
            &[BitWidth::W2, BitWidth::W4, BitWidth::W8],
            &[0.25, 0.5],
        )
        .unwrap();
        prof.validate().unwrap();
        assert_eq!(prof.n_layers(), 4);
        assert_eq!(prof.quant_delta[0].len(), 3);
        assert_eq!(prof.prune_delta[0].len(), 2);
        assert_eq!(prof.baseline, 1.0);
    }

    #[test]
    fn deeper_layers_are_more_sensitive_in_synthetic() {
        let mut oracle = synthetic_oracle(4);
        let prof = profile(&mut oracle, &[BitWidth::W2], &[0.5]).unwrap();
        let scores = prof.layer_scores();
        for w in scores.windows(2) {
            assert!(
                w[1] > w[0],
                "synthetic sensitivity must increase with depth"
            );
        }
    }

    #[test]
    fn narrower_bits_hurt_more() {
        let mut oracle = synthetic_oracle(2);
        let prof = profile(&mut oracle, &[BitWidth::W2, BitWidth::W8], &[0.5]).unwrap();
        assert!(prof.quant_delta[0][0] > prof.quant_delta[0][1]);
    }

    #[test]
    fn empty_choices_rejected() {
        let mut oracle = synthetic_oracle(2);
        assert!(profile(&mut oracle, &[], &[0.5]).is_err());
        assert!(profile(&mut oracle, &[BitWidth::W4], &[]).is_err());
    }

    #[test]
    fn predicted_delta_is_additive() {
        let mut oracle = synthetic_oracle(3);
        let prof = profile(&mut oracle, &[BitWidth::W4], &[0.5]).unwrap();
        let d = prof.predicted_delta(2, 0, 0);
        assert!((d - (prof.quant_delta[2][0] + prof.prune_delta[2][0])).abs() < 1e-7);
    }

    #[test]
    fn validate_catches_ragged_profiles() {
        let mut oracle = synthetic_oracle(2);
        let mut prof = profile(&mut oracle, &[BitWidth::W4], &[0.5]).unwrap();
        prof.quant_delta[1].push(0.0);
        assert!(prof.validate().is_err());
    }
}
