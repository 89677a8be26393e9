//! Task evaluation with and without exit voting.

use crate::EdgeLlmError;
use edge_llm_data::Dataset;
use edge_llm_model::{EdgeModel, VotingPolicy};
use edge_llm_tensor::{score, Scored};

/// Accuracy and perplexity of a model (under a voting policy) on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Exact-match accuracy over supervised positions: hits / positions.
    pub accuracy: f32,
    /// Perplexity over supervised positions.
    pub perplexity: f32,
    /// Number of supervised positions evaluated.
    pub positions: usize,
}

/// Evaluates `model` on `dataset` using `voting` to combine exits, every
/// batch scored by [`score`].
///
/// # Errors
///
/// Returns [`EdgeLlmError::BadConfig`] for an empty dataset and propagates
/// model and scoring errors.
pub fn evaluate(
    model: &EdgeModel,
    voting: &VotingPolicy,
    dataset: &Dataset,
    batch: usize,
) -> Result<EvalResult, EdgeLlmError> {
    if dataset.is_empty() {
        return Err(EdgeLlmError::BadConfig {
            reason: "empty evaluation dataset".into(),
        });
    }
    let mut total = Scored::default();
    for b in dataset.epoch_batches(batch) {
        let probs = voting.predict(model, &b.tokens, b.batch)?;
        let scored = score(&probs, &b.targets)?;
        total.hits += scored.hits;
        total.nll += scored.nll;
        total.supervised += scored.supervised;
    }
    let Scored {
        hits,
        nll,
        supervised: positions,
    } = total;
    if positions == 0 {
        return Err(EdgeLlmError::BadConfig {
            reason: "dataset has no supervised positions".into(),
        });
    }
    Ok(EvalResult {
        accuracy: (hits as f64 / positions as f64) as f32,
        perplexity: ((nll / positions as f64).exp()) as f32,
        positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_data::{ClozeQaTask, TaskGenerator};
    use edge_llm_model::{ModelConfig, VotingCombiner};
    use edge_llm_tensor::TensorRng;

    fn setup() -> (EdgeModel, Dataset) {
        let mut rng = TensorRng::seed_from(5);
        let cfg = ModelConfig::tiny().with_vocab(32);
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let task = ClozeQaTask::new(10, 2);
        assert!(task.vocab_size() <= cfg.vocab_size);
        let ds = task.dataset(6, cfg.seq_len, &mut rng);
        (model, ds)
    }

    #[test]
    fn untrained_model_scores_near_chance() {
        let (model, ds) = setup();
        let policy = VotingPolicy::final_only(model.n_layers());
        let r = evaluate(&model, &policy, &ds, 2).unwrap();
        assert!(r.accuracy < 0.5);
        assert!(r.perplexity > 2.0);
        assert!(r.positions > 0);
    }

    #[test]
    fn voting_policies_produce_valid_metrics() {
        let (model, ds) = setup();
        for combiner in [
            VotingCombiner::LastExit,
            VotingCombiner::Average,
            VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
        ] {
            let policy = VotingPolicy::all_exits(model.n_layers(), combiner);
            let r = evaluate(&model, &policy, &ds, 3).unwrap();
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!(r.perplexity.is_finite());
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let (model, _) = setup();
        let policy = VotingPolicy::final_only(model.n_layers());
        assert!(evaluate(&model, &policy, &Dataset::default(), 1).is_err());
    }
}
