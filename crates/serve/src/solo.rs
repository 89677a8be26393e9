//! Single-sequence reference implementation of the serving semantics.
//!
//! [`run_solo`] executes one request through a plain
//! [`InferenceSession`] with the same per-token finish checks as the
//! batched engine, but none of its machinery: no queue, no slots, no
//! shared forward passes. It is the oracle the differential tests compare
//! [`crate::BatchedInferenceEngine`] against — any divergence in tokens,
//! finish reason, consumed steps, or final probabilities is an engine
//! bug.

use crate::request::{validate_request, FinishReason, ServeOutcome, ServeRequest};
use edge_llm_model::{
    combine, sample_token, Decoding, EdgeModel, InferenceSession, ModelError, ResolvedAdapter,
};
use edge_llm_tensor::TensorRng;
use std::sync::Arc;

/// Runs `req` alone through a fresh [`InferenceSession`] and returns the
/// outcome the batched engine is required to reproduce bit-for-bit.
/// `req.tenant` is ignored here — resolving a tenant id to an adapter is
/// the engine's job; pass the adapter itself to
/// [`run_solo_with_adapter`] for the multi-tenant oracle.
///
/// # Errors
///
/// Validation failures are reported *in* the outcome
/// ([`FinishReason::Rejected`]), matching the engine; an `Err` only
/// signals an internal model failure.
pub fn run_solo(model: &EdgeModel, req: &ServeRequest) -> Result<ServeOutcome, ModelError> {
    run_solo_with_adapter(model, req, None)
}

/// [`run_solo`] with a tenant adapter attached to the session — the
/// solo-with-merged-adapter oracle of the multi-tenant differential
/// tests: a tenant's stream under mixed-tenant batching must reproduce
/// this outcome bit-for-bit.
///
/// # Errors
///
/// As [`run_solo`].
pub fn run_solo_with_adapter(
    model: &EdgeModel,
    req: &ServeRequest,
    adapter: Option<Arc<ResolvedAdapter>>,
) -> Result<ServeOutcome, ModelError> {
    if let Err(e) = validate_request(model, req) {
        return Ok(ServeOutcome {
            id: req.id.clone(),
            tokens: Vec::new(),
            finish: FinishReason::Rejected {
                reason: e.to_string(),
            },
            steps: 0,
            final_probs: None,
        });
    }
    let mut session = InferenceSession::new(model);
    session.set_adapter(adapter);
    let mut rng = TensorRng::seed_from(req.seed);
    let mut known = req.prompt.clone();
    let mut fed = 0usize;
    let mut generated = 0usize;
    let mut last_probs: Option<Vec<f32>> = None;
    // Token at a time, finish checks before every token: the engine feeds
    // a prompt as one run, cut where this loop would stop, so the two
    // agree on every finish. Logits are computed only on the last known
    // token (everything earlier is prompt prefill).
    let finish = loop {
        if generated == req.max_new_tokens {
            break FinishReason::Completed;
        }
        if let Some(d) = req.deadline_steps {
            if fed >= d {
                break FinishReason::DeadlineExceeded;
            }
        }
        if session.remaining() == 0 {
            break FinishReason::CapacityExhausted;
        }
        let token = known[fed];
        if fed == known.len() - 1 {
            if let Decoding::SelfSpeculative { draft_depth, k } = req.decoding {
                // One draft/verify round may emit several tokens; each is
                // the verifier's greedy pick, so the stream is identical
                // to plain greedy decode. Tokens past the remaining
                // budget are dropped and the cache rolled back with
                // them, keeping `fed` equal to what greedy would have
                // consumed at retirement.
                let round = session.speculative_round(token, draft_depth, k)?;
                let keep = round.accepted.len().min(req.max_new_tokens - generated);
                if keep < round.accepted.len() {
                    session.truncate(session.len() - (round.accepted.len() - keep));
                }
                known.extend_from_slice(&round.accepted[..keep]);
                generated += keep;
                last_probs = Some(round.probs[keep - 1].clone());
                fed += keep;
            } else {
                let exit_logits = session.push_token_exits(token, &req.voting.exits)?;
                let probs = combine(&exit_logits, &req.voting.combiner)?;
                let next = sample_token(probs.row(0), req.decoding, &mut rng);
                last_probs = Some(probs.row(0).to_vec());
                known.push(next);
                generated += 1;
                fed += 1;
            }
        } else {
            session.advance_token(token)?;
            fed += 1;
        }
    };
    Ok(ServeOutcome {
        id: req.id.clone(),
        tokens: known[req.prompt.len()..].to_vec(),
        finish,
        steps: fed,
        final_probs: last_probs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_model::{Decoding, ModelConfig, VotingPolicy};

    fn model() -> EdgeModel {
        let mut rng = TensorRng::seed_from(0);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    fn request(model: &EdgeModel) -> ServeRequest {
        ServeRequest {
            id: "r".into(),
            prompt: vec![1, 2, 3],
            max_new_tokens: 3,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 11,
            deadline_steps: None,
            tenant: None,
        }
    }

    #[test]
    fn completes_and_reports_steps() {
        let m = model();
        let out = run_solo(&m, &request(&m)).unwrap();
        assert_eq!(out.finish, FinishReason::Completed);
        assert_eq!(out.tokens.len(), 3);
        // 3 prompt tokens + 2 generated tokens fed (the last generated
        // token is never consumed)
        assert_eq!(out.steps, 5);
        assert!(out.final_probs.is_some());
    }

    #[test]
    fn deadline_cuts_generation_short() {
        let m = model();
        let mut r = request(&m);
        r.deadline_steps = Some(3); // exactly the prompt
        let out = run_solo(&m, &r).unwrap();
        assert_eq!(out.finish, FinishReason::DeadlineExceeded);
        assert_eq!(out.tokens.len(), 1, "prefill ends on the last prompt token");
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn capacity_evicts_gracefully() {
        let m = model();
        let mut r = request(&m);
        r.max_new_tokens = m.config().seq_len * 2;
        let out = run_solo(&m, &r).unwrap();
        assert_eq!(out.finish, FinishReason::CapacityExhausted);
        assert_eq!(out.steps, m.config().seq_len);
    }

    #[test]
    fn zero_tokens_completes_without_running() {
        let m = model();
        let mut r = request(&m);
        r.max_new_tokens = 0;
        let out = run_solo(&m, &r).unwrap();
        assert_eq!(out.finish, FinishReason::Completed);
        assert!(out.tokens.is_empty());
        assert_eq!(out.steps, 0);
        assert!(out.final_probs.is_none());
    }

    #[test]
    fn invalid_request_is_rejected_not_erred() {
        let m = model();
        let mut r = request(&m);
        r.prompt = vec![99_999];
        let out = run_solo(&m, &r).unwrap();
        assert!(matches!(out.finish, FinishReason::Rejected { .. }));
    }
}
