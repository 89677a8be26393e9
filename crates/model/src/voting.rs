//! Adaptive layer voting: combining early-exit logits at inference time.
//!
//! Adaptive layer tuning leaves the model with several trained exit heads.
//! Rather than trusting only the deepest exit, Edge-LLM *votes*: each exit's
//! distribution contributes to the final prediction with a weight that
//! adapts to how confident that exit is on the current input.

use crate::error::ModelError;
use crate::generate::usable;
use crate::model::EdgeModel;
use edge_llm_tensor::{score, softmax_rows, Tensor};

/// Strategy for combining per-exit logits.
#[derive(Debug, Clone, PartialEq)]
pub enum VotingCombiner {
    /// Use only the deepest exit (the no-voting ablation).
    LastExit,
    /// Uniform average of the exit probability distributions.
    Average,
    /// Weight each exit per token by its confidence
    /// `exp(-entropy / temperature)`, normalized across exits — confident
    /// exits dominate, uncertain ones are discounted (the paper's adaptive
    /// combination).
    ConfidenceWeighted {
        /// Softening temperature for the confidence weights (must be > 0).
        temperature: f32,
    },
    /// Fixed learned per-exit scalar weights (normalized internally).
    Learned(Vec<f32>),
}

impl VotingCombiner {
    /// Checks the combiner's parameters for a vote over `exits` exits: a
    /// confidence temperature must be positive and finite, and learned
    /// weights must be one per exit, none negative, with a positive and
    /// finite sum (so none is NaN or infinite, and normalizing by the sum
    /// leaves a distribution). [`combine`] and
    /// [`crate::validate_generation`] both apply this one rule, so
    /// evaluation scores only votes serving accepts.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] naming the parameter refused.
    pub fn validate(&self, exits: usize) -> Result<(), ModelError> {
        let reason = match self {
            VotingCombiner::ConfidenceWeighted { temperature } if !usable(*temperature) => {
                "confidence temperature must be positive and finite".to_string()
            }
            VotingCombiner::Learned(w) if w.len() != exits => {
                format!("{} learned weights for {exits} exits", w.len())
            }
            VotingCombiner::Learned(w) if w.iter().any(|x| *x < 0.0) || !usable(w.iter().sum()) => {
                "learned weights must be non-negative with a positive, finite sum".to_string()
            }
            _ => return Ok(()),
        };
        Err(ModelError::BadConfig { reason })
    }
}

impl Default for VotingCombiner {
    fn default() -> Self {
        VotingCombiner::ConfidenceWeighted { temperature: 1.0 }
    }
}

/// Which exits participate in voting, plus the combiner.
#[derive(Debug, Clone, PartialEq)]
pub struct VotingPolicy {
    /// Exit layer indices, ascending.
    pub exits: Vec<usize>,
    /// How to combine them.
    pub combiner: VotingCombiner,
}

impl VotingPolicy {
    /// Votes over every layer of a model of depth `n_layers`.
    pub fn all_exits(n_layers: usize, combiner: VotingCombiner) -> Self {
        VotingPolicy {
            exits: (0..n_layers).collect(),
            combiner,
        }
    }

    /// Uses only the final exit (vanilla inference).
    pub fn final_only(n_layers: usize) -> Self {
        VotingPolicy {
            exits: vec![n_layers.saturating_sub(1)],
            combiner: VotingCombiner::LastExit,
        }
    }

    /// Runs the model and returns the combined probability distribution,
    /// `(batch * seq) x vocab`.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns [`ModelError::BadConfig`] for an
    /// empty exit list or combiner parameters [`VotingCombiner::validate`]
    /// refuses.
    pub fn predict(
        &self,
        model: &EdgeModel,
        tokens: &[usize],
        batch: usize,
    ) -> Result<Tensor, ModelError> {
        if self.exits.is_empty() {
            return Err(ModelError::BadConfig {
                reason: "voting requires at least one exit".into(),
            });
        }
        let logits = model.logits_at_exits(tokens, batch, &self.exits)?;
        combine(&logits, &self.combiner)
    }
}

/// Combines per-exit logits into one probability tensor.
///
/// # Errors
///
/// Returns [`ModelError::BadConfig`] for no exits or combiner parameters
/// [`VotingCombiner::validate`] refuses, and propagates shape errors.
pub fn combine(exit_logits: &[Tensor], combiner: &VotingCombiner) -> Result<Tensor, ModelError> {
    let last = exit_logits.last().ok_or_else(|| ModelError::BadConfig {
        reason: "no exit logits provided".into(),
    })?;
    combiner.validate(exit_logits.len())?;
    match combiner {
        VotingCombiner::LastExit => Ok(softmax_rows(last)),
        VotingCombiner::Average => {
            let mut acc = Tensor::zeros(last.rows(), last.cols());
            for logits in exit_logits {
                acc.axpy(1.0 / exit_logits.len() as f32, &softmax_rows(logits))?;
            }
            Ok(acc)
        }
        VotingCombiner::ConfidenceWeighted { temperature } => {
            let probs: Vec<Tensor> = exit_logits.iter().map(softmax_rows).collect();
            let (rows, cols) = last.shape();
            let mut out = Tensor::zeros(rows, cols);
            for r in 0..rows {
                // per-token confidence weight: exp(-entropy / T)
                let mut weights = Vec::with_capacity(probs.len());
                let mut wsum = 0.0f32;
                for p in &probs {
                    let h: f32 = p
                        .row(r)
                        .iter()
                        .map(|&q| if q > 1e-12 { -q * q.ln() } else { 0.0 })
                        .sum();
                    let w = (-h / temperature).exp();
                    weights.push(w);
                    wsum += w;
                }
                if wsum <= 0.0 {
                    weights
                        .iter_mut()
                        .for_each(|w| *w = 1.0 / probs.len() as f32);
                } else {
                    weights.iter_mut().for_each(|w| *w /= wsum);
                }
                let orow = out.row_mut(r);
                for (p, &w) in probs.iter().zip(weights.iter()) {
                    for (o, &q) in orow.iter_mut().zip(p.row(r).iter()) {
                        *o += w * q;
                    }
                }
            }
            Ok(out)
        }
        VotingCombiner::Learned(ws) => {
            let total: f32 = ws.iter().sum();
            let mut acc = Tensor::zeros(last.rows(), last.cols());
            for (logits, &w) in exit_logits.iter().zip(ws.iter()) {
                acc.axpy(w / total, &softmax_rows(logits))?;
            }
            Ok(acc)
        }
    }
}

/// Fits [`VotingCombiner::Learned`] weights on held-out data by measuring
/// each exit's standalone accuracy and weighting exits proportionally.
///
/// Each exit is scored by [`score`], the rule evaluation uses: `targets`
/// marks untested positions with [`edge_llm_tensor::IGNORE_TARGET`], and a
/// tie credits the first of the tied tokens.
///
/// # Errors
///
/// Propagates model errors, and [`score`]'s for a target count other than
/// one per position or a target outside the vocabulary.
pub fn fit_learned_weights(
    model: &EdgeModel,
    exits: &[usize],
    tokens: &[usize],
    targets: &[usize],
    batch: usize,
) -> Result<Vec<f32>, ModelError> {
    let logits = model.logits_at_exits(tokens, batch, exits)?;
    let mut weights = Vec::with_capacity(exits.len());
    for l in &logits {
        let scored = score(&softmax_rows(l), targets)?;
        let acc = if scored.supervised == 0 {
            0.0
        } else {
            scored.hits as f32 / scored.supervised as f32
        };
        weights.push(acc + 1e-3); // floor so no exit is hard-zeroed
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use edge_llm_tensor::TensorRng;

    fn logits_pair() -> Vec<Tensor> {
        // exit 0: confident on class 0; exit 1: uniform (max entropy)
        let confident = Tensor::from_vec(1, 3, vec![10.0, 0.0, 0.0]).unwrap();
        let uniform = Tensor::zeros(1, 3);
        vec![confident, uniform]
    }

    #[test]
    fn last_exit_ignores_earlier() {
        let out = combine(&logits_pair(), &VotingCombiner::LastExit).unwrap();
        for c in 0..3 {
            assert!((out.get(0, c) - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn average_blends_equally() {
        let out = combine(&logits_pair(), &VotingCombiner::Average).unwrap();
        // class 0 gets ~ (1.0 + 1/3)/2
        assert!((out.get(0, 0) - (1.0 + 1.0 / 3.0) / 2.0).abs() < 1e-3);
        let s: f32 = out.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn confidence_weighting_prefers_confident_exit() {
        let out = combine(
            &logits_pair(),
            &VotingCombiner::ConfidenceWeighted { temperature: 0.5 },
        )
        .unwrap();
        // confident exit (entropy ~0) should dominate the uniform one
        assert!(out.get(0, 0) > 0.9, "got {}", out.get(0, 0));
    }

    #[test]
    fn learned_weights_normalize() {
        let out = combine(&logits_pair(), &VotingCombiner::Learned(vec![3.0, 1.0])).unwrap();
        assert!((out.get(0, 0) - (0.75 * 1.0 + 0.25 / 3.0)).abs() < 1e-3);
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(combine(&logits_pair(), &VotingCombiner::Learned(vec![1.0])).is_err());
        assert!(combine(&logits_pair(), &VotingCombiner::Learned(vec![0.0, 0.0])).is_err());
        assert!(combine(
            &logits_pair(),
            &VotingCombiner::ConfidenceWeighted { temperature: 0.0 }
        )
        .is_err());
        assert!(combine(&[], &VotingCombiner::Average).is_err());
    }

    #[test]
    fn combine_refuses_what_serving_refuses() {
        // An infinite temperature, and a negative or NaN learned weight,
        // which `validate_generation` refuses, fail here too rather than
        // vote with a weight clamped to zero; finite weights whose sum
        // overflows would normalize to an all-zero row.
        for combiner in [
            VotingCombiner::ConfidenceWeighted {
                temperature: f32::INFINITY,
            },
            VotingCombiner::Learned(vec![-1.0, 2.0]),
            VotingCombiner::Learned(vec![f32::NAN, 2.0]),
            VotingCombiner::Learned(vec![3e38, 3e38]),
        ] {
            let out = combine(&logits_pair(), &combiner);
            assert!(
                matches!(out, Err(ModelError::BadConfig { .. })),
                "{combiner:?}: {out:?}"
            );
        }
    }

    #[test]
    fn policy_runs_on_model() {
        let mut rng = TensorRng::seed_from(1);
        let cfg = ModelConfig::tiny();
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| i % cfg.vocab_size).collect();
        let policy = VotingPolicy::all_exits(model.n_layers(), VotingCombiner::default());
        let probs = policy.predict(&model, &tokens, 1).unwrap();
        assert_eq!(probs.shape(), (cfg.seq_len, cfg.vocab_size));
        for r in 0..cfg.seq_len {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
    }

    #[test]
    fn fit_learned_weights_produces_positive_weights() {
        let mut rng = TensorRng::seed_from(2);
        let cfg = ModelConfig::tiny();
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| i % cfg.vocab_size).collect();
        let ws = fit_learned_weights(&model, &[0, 1], &tokens, &tokens, 1).unwrap();
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn fit_learned_weights_credits_the_first_tied_token() {
        // Every parameter zeroed: each exit's logits tie across the whole
        // vocabulary, and the fit predicts token 0, as evaluation and
        // greedy decoding do.
        let mut rng = TensorRng::seed_from(2);
        let cfg = ModelConfig::tiny();
        let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        model.visit_params_all(&mut |_, p, _| p.fill(0.0));
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| i % cfg.vocab_size).collect();
        let fit = |target| {
            let targets = vec![target; cfg.seq_len];
            fit_learned_weights(&model, &[0, 1], &tokens, &targets, 1).unwrap()
        };
        assert_eq!(fit(0), [1.0 + 1e-3; 2]);
        assert_eq!(fit(cfg.vocab_size - 1), [1e-3; 2]);
    }
}
