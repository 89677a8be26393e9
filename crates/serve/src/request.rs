//! Request and outcome types shared by the engine and the solo reference.

use edge_llm_model::{
    validate_decoding, Decoding, EdgeModel, ModelError, VotingCombiner, VotingPolicy,
};

/// One generation request submitted to the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Caller-chosen identifier echoed back in the outcome.
    pub id: String,
    /// Prompt tokens (must be non-empty and in-vocabulary).
    pub prompt: Vec<usize>,
    /// How many tokens to generate (0 completes immediately).
    pub max_new_tokens: usize,
    /// Sampling strategy for this request.
    pub decoding: Decoding,
    /// Early-exit voting policy for this request.
    pub voting: VotingPolicy,
    /// Seed for this request's private sampling rng — outputs depend only
    /// on this, never on batch-mates.
    pub seed: u64,
    /// Optional budget in *fed tokens* (prompt prefill plus generated
    /// tokens actually consumed by the model). Measured per request, not
    /// in wall-clock engine steps, so queue wait never counts against a
    /// request and the outcome is interleaving-independent.
    pub deadline_steps: Option<usize>,
    /// Tenant whose registered LoRA adapter this request decodes with
    /// (`None` = the frozen base alone). The engine rejects a request
    /// naming a tenant it has no adapter registered for.
    pub tenant: Option<String>,
}

/// Why a request left the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum FinishReason {
    /// Generated the full `max_new_tokens`.
    Completed,
    /// Hit its `deadline_steps` budget first.
    DeadlineExceeded,
    /// Ran out of KV-cache positions (`seq_len`) first.
    CapacityExhausted,
    /// Failed validation at submission and never ran.
    Rejected {
        /// Human-readable validation failure.
        reason: String,
    },
}

/// Per-request result reported by the engine (and by [`crate::run_solo`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// The request's identifier.
    pub id: String,
    /// Generated tokens only (prompt excluded).
    pub tokens: Vec<usize>,
    /// Why the request finished.
    pub finish: FinishReason,
    /// Tokens the model actually consumed for this request.
    pub steps: usize,
    /// Combined next-token distribution from the last generating step, for
    /// bitwise differential comparison against the solo path.
    pub final_probs: Option<Vec<f32>>,
}

/// Validates a request against a model without running anything — the
/// exact check [`crate::BatchedInferenceEngine::submit`] applies, shared
/// with the solo reference so both paths reject identically.
///
/// # Errors
///
/// Returns [`ModelError::BadConfig`] for an empty or out-of-vocabulary
/// prompt, an invalid decoding configuration, empty exits, or bad
/// combiner parameters, and [`ModelError::LayerOutOfRange`] for an exit
/// index past the model depth.
pub fn validate_request(model: &EdgeModel, req: &ServeRequest) -> Result<(), ModelError> {
    let vocab = model.config().vocab_size;
    if req.prompt.is_empty() {
        return Err(ModelError::BadConfig {
            reason: "empty prompt".into(),
        });
    }
    if let Some(&bad) = req.prompt.iter().find(|&&t| t >= vocab) {
        return Err(ModelError::BadConfig {
            reason: format!("prompt token {bad} outside vocabulary {vocab}"),
        });
    }
    validate_decoding(req.decoding)?;
    if let Decoding::SelfSpeculative { draft_depth, k } = req.decoding {
        edge_llm_model::validate_spec_params(model, draft_depth, k)?;
        // the verifier is the final exit's greedy token; a multi-exit
        // voting blend has nothing to verify against
        if req.voting.exits != [model.n_layers() - 1] {
            return Err(ModelError::BadConfig {
                reason: "self-speculative decoding verifies the final exit only; \
                         use a final-exit voting policy"
                    .into(),
            });
        }
    }
    if req.voting.exits.is_empty() {
        return Err(ModelError::BadConfig {
            reason: "voting policy needs at least one exit".into(),
        });
    }
    if let Some(&bad) = req.voting.exits.iter().find(|&&e| e >= model.n_layers()) {
        return Err(ModelError::LayerOutOfRange {
            layer: bad,
            depth: model.n_layers(),
        });
    }
    match &req.voting.combiner {
        VotingCombiner::LastExit | VotingCombiner::Average => {}
        VotingCombiner::ConfidenceWeighted { temperature } => {
            // NaN fails the finiteness check, so `<= 0.0` need not see it
            if !temperature.is_finite() || *temperature <= 0.0 {
                return Err(ModelError::BadConfig {
                    reason: "confidence temperature must be positive and finite".into(),
                });
            }
        }
        VotingCombiner::Learned(weights) => {
            if weights.len() != req.voting.exits.len() {
                return Err(ModelError::BadConfig {
                    reason: format!(
                        "{} learned weights for {} exits",
                        weights.len(),
                        req.voting.exits.len()
                    ),
                });
            }
            if weights.iter().any(|w| *w < 0.0 || !w.is_finite())
                || weights.iter().sum::<f32>() <= 0.0
            {
                return Err(ModelError::BadConfig {
                    reason: "learned weights must be non-negative with positive sum".into(),
                });
            }
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
        let mut rng = TensorRng::seed_from(0);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    fn base_request(model: &EdgeModel) -> ServeRequest {
        ServeRequest {
            id: "r".into(),
            prompt: vec![1, 2],
            max_new_tokens: 2,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 0,
            deadline_steps: None,
            tenant: None,
        }
    }

    #[test]
    fn accepts_well_formed_request() {
        let m = model();
        assert!(validate_request(&m, &base_request(&m)).is_ok());
    }

    #[test]
    fn rejects_bad_prompts() {
        let m = model();
        let mut r = base_request(&m);
        r.prompt.clear();
        assert!(validate_request(&m, &r).is_err());
        r.prompt = vec![99_999];
        assert!(validate_request(&m, &r).is_err());
    }

    #[test]
    fn rejects_bad_decoding_and_voting() {
        let m = model();
        let mut r = base_request(&m);
        r.decoding = Decoding::Sample { temperature: 0.0 };
        assert!(validate_request(&m, &r).is_err());
        // NaN passes a bare `<= 0.0` test and would panic the sampler's rng
        for temperature in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for decoding in [
                Decoding::Sample { temperature },
                Decoding::TopK { k: 2, temperature },
            ] {
                r.decoding = decoding;
                assert!(
                    matches!(validate_request(&m, &r), Err(ModelError::BadConfig { .. })),
                    "{decoding:?}"
                );
            }
        }

        let mut r = base_request(&m);
        r.voting.exits.clear();
        assert!(validate_request(&m, &r).is_err());

        let mut r = base_request(&m);
        r.voting.exits = vec![99];
        assert!(matches!(
            validate_request(&m, &r),
            Err(ModelError::LayerOutOfRange { .. })
        ));

        let mut r = base_request(&m);
        r.voting = VotingPolicy::all_exits(
            m.n_layers(),
            VotingCombiner::ConfidenceWeighted { temperature: -1.0 },
        );
        assert!(validate_request(&m, &r).is_err());

        let mut r = base_request(&m);
        r.voting.combiner = VotingCombiner::Learned(vec![0.5, 0.5]);
        assert!(
            validate_request(&m, &r).is_err(),
            "weight/exit length mismatch"
        );

        let mut r = base_request(&m);
        r.voting.combiner = VotingCombiner::Learned(vec![0.0]);
        assert!(validate_request(&m, &r).is_err(), "zero-sum weights");
    }
}
