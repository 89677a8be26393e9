//! Self-speculative decoding: a shallow exit drafts, the full depth
//! verifies.
//!
//! Adaptive layer tuning leaves the model with a trained head at every
//! exit, so the model contains its own draft model for free: run the
//! forward only up to `draft_depth`, read that exit's logits, and propose
//! the greedy token. [`spec_round`] drafts `k` tokens that way, then
//! verifies all of them in **one** chunked full-depth pass (k+1 positions
//! through the shared multi-row projections), accepts the longest prefix
//! on which draft and verifier agree plus the verifier's own next token,
//! and rolls the KV cache back past every rejected position.
//!
//! # Why the output is bit-identical to greedy full-depth decode
//!
//! Every accepted token is the argmax of the *verifier's* full-depth
//! distribution at its position — the draft only decides how many
//! positions one pass may emit, never what they are. Two facts make the
//! verifier's distribution bitwise equal to the one a plain greedy
//! session would have computed:
//!
//! - the verify chunk is one run of k+1 positions through the crate's
//!   single KV-cached layer walk (`crate::batched`), the same walk a
//!   greedy session drives one row at a time; its stages are
//!   row-independent and each layer writes every fed position's K/V rows
//!   before any row attends over its causal prefix, so the chunk produces
//!   the same bits as k+1 sequential single-token steps;
//! - rolling back ([`SequenceKv::truncate`]) is a pure cursor move: rows
//!   past the cursor are never read, only overwritten, so a shallow draft
//!   or a rejected position leaves no trace in later passes.
//!
//! Greedy tie-breaks resolve to the lowest index on both sides (the same
//! [`crate::sample_token`] rule), so draft/verifier agreement is exact
//! token equality, never a float comparison.

use crate::adapter::ResolvedAdapter;
use crate::batched::{decode_runs, validate_runs, Entry, Run, SequenceKv};
use crate::error::ModelError;
use crate::generate::argmax;
use crate::model::EdgeModel;
use crate::voting::{combine, VotingCombiner};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::Tensor;

/// Outcome of one draft/verify round.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    /// Tokens emitted by the round, in order: the longest draft prefix
    /// the verifier agreed with, followed by the verifier's own token at
    /// the first disagreement (or its bonus token when every draft was
    /// accepted). Always non-empty: a round makes at least one token of
    /// progress, exactly like a plain greedy step.
    pub accepted: Vec<usize>,
    /// The verifier's full-depth probability row for each accepted token
    /// (softmax of the final exit's logits), for parity with the serving
    /// engine's `final_probs` reporting.
    pub probs: Vec<Vec<f32>>,
    /// Draft tokens proposed this round (`min(k, remaining - 1)`).
    pub drafted: usize,
    /// Positions fed through the full-depth verify pass (`drafted + 1`).
    pub verified: usize,
}

/// Validates speculative parameters against a model — shared by
/// [`spec_round`], [`crate::generate`], and the serving frontends so a
/// bad configuration is rejected at submission instead of mid-decode.
///
/// # Errors
///
/// Returns [`ModelError::LayerOutOfRange`] when `draft_depth` is not a
/// valid exit and [`ModelError::BadConfig`] when `k` is zero.
pub fn validate_spec_params(
    model: &EdgeModel,
    draft_depth: usize,
    k: usize,
) -> Result<(), ModelError> {
    if draft_depth >= model.n_layers() {
        return Err(ModelError::LayerOutOfRange {
            layer: draft_depth,
            depth: model.n_layers(),
        });
    }
    if k == 0 {
        return Err(ModelError::BadConfig {
            reason: "self-speculative decoding needs k >= 1 draft tokens".into(),
        });
    }
    Ok(())
}

/// One self-speculative round over a KV-cached sequence: feed `token`,
/// draft up to `k` tokens from exit `draft_depth`, verify them all in one
/// chunked full-depth pass, and return the accepted tokens (at least
/// one). On return the cache has consumed exactly `token` plus all but
/// the last accepted token — the last accepted token is the round's
/// frontier, fed by the next round, exactly as a greedy session would.
///
/// When fewer than `k + 1` positions remain the draft count is clamped,
/// degenerating to a plain greedy step at `remaining == 1`, so the
/// sequence exhausts capacity at the same stream point as greedy decode.
///
/// # Errors
///
/// As [`crate::batched_decode_step`] for the token/cache checks, plus
/// [`validate_spec_params`]; on error the cache has not advanced.
pub fn spec_round(
    model: &EdgeModel,
    kv: &mut SequenceKv,
    token: usize,
    draft_depth: usize,
    k: usize,
) -> Result<SpecReport, ModelError> {
    spec_round_with_adapter(model, kv, token, draft_depth, k, None)
}

/// [`spec_round`] with a per-tenant adapter: both the shallow draft
/// passes and the full-depth verify pass apply the adapter's deltas
/// after each base projection, so the round is bit-identical to an
/// adapted greedy session (the multi-tenant serving engine's speculative
/// slots route here).
///
/// # Errors
///
/// As [`spec_round`].
pub fn spec_round_with_adapter(
    model: &EdgeModel,
    kv: &mut SequenceKv,
    token: usize,
    draft_depth: usize,
    k: usize,
    adapter: Option<&ResolvedAdapter>,
) -> Result<SpecReport, ModelError> {
    validate_spec_params(model, draft_depth, k)?;
    // The round's own token must fit before the draft count is clamped.
    let first = (std::slice::from_ref(&token), &*kv, &[][..]);
    validate_runs(model, [first], Entry::EMBEDDING, model.n_layers())?;
    let t0 = kv.len();
    // Leave one position for the verify pass's correction token: drafting
    // never pushes the sequence past where greedy decode would stop.
    let k_eff = k.min(kv.remaining() - 1);
    let final_exit = model.n_layers() - 1;

    // Draft: k_eff sequential shallow steps. Only layers 0..=draft_depth
    // run; their KV rows are overwritten by the verify pass below, so the
    // untouched deeper layers never see stale rows.
    let mut guesses = Vec::with_capacity(k_eff);
    {
        let _draft = telemetry::span("spec.draft");
        let mut feed = token;
        for _ in 0..k_eff {
            let logits = forward_chunk(model, kv, &[feed], draft_depth, adapter)?;
            let probs = combine(&logits, &VotingCombiner::LastExit)?;
            let g = argmax(probs.row(0));
            guesses.push(g);
            feed = g;
        }
    }
    telemetry::counter("spec.draft_tokens", k_eff as u64);
    kv.truncate(t0);

    // Verify: one chunked full-depth causal pass over the real token plus
    // every draft guess.
    let mut fed = Vec::with_capacity(k_eff + 1);
    fed.push(token);
    fed.extend(guesses.iter().copied());
    let rows = {
        let _verify = telemetry::span("spec.verify");
        forward_chunk(model, kv, &fed, final_exit, adapter)?
    };
    telemetry::counter("spec.verify_passes", 1);

    // Accept the longest agreeing prefix plus the verifier's own token at
    // the first mismatch (or its bonus token after a full agreement).
    let mut accepted = Vec::new();
    let mut probs_out = Vec::new();
    for (j, row) in rows.iter().enumerate() {
        let probs = combine(std::slice::from_ref(row), &VotingCombiner::LastExit)?;
        let v = argmax(probs.row(0));
        accepted.push(v);
        probs_out.push(probs.row(0).to_vec());
        if j >= guesses.len() || guesses[j] != v {
            break;
        }
    }
    kv.truncate(t0 + accepted.len());
    telemetry::counter("spec.accepted_tokens", accepted.len() as u64);
    Ok(SpecReport {
        accepted,
        probs: probs_out,
        drafted: k_eff,
        verified: fed.len(),
    })
}

/// Runs `fed` as one causal chunk through layers `0..=exit_layer`,
/// writing each position's K/V rows and advancing the cursor by
/// `fed.len()`, and returns one `(1, vocab)` logits tensor per position
/// from `exit_layer`'s head.
///
/// This is the single forward primitive behind both halves of a round:
/// the draft calls it one token at a time with a shallow exit, the
/// verifier with the whole draft chunk at full depth. It is one run of
/// `fed.len()` rows through `decode_runs` — the same layer walk the
/// batched step feeds one row per sequence — so the chunk equals
/// `fed.len()` sequential single-token steps bit-for-bit.
pub(crate) fn forward_chunk(
    model: &EdgeModel,
    kv: &mut SequenceKv,
    fed: &[usize],
    exit_layer: usize,
    adapter: Option<&ResolvedAdapter>,
) -> Result<Vec<Tensor>, ModelError> {
    let run = Run {
        tokens: fed,
        kv,
        exits: &[exit_layer],
        adapter,
    };
    let logits = decode_runs(model, &mut [run], Entry::EMBEDDING, exit_layer + 1, None)?
        .1
        .swap_remove(0);
    let vocab = logits[0].cols();
    (0..fed.len())
        .map(|i| Tensor::from_vec(1, vocab, logits[0].row(i).to_vec()).map_err(ModelError::Tensor))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::generate::{generate, Decoding};
    use crate::infer::InferenceSession;
    use crate::voting::VotingPolicy;
    use edge_llm_tensor::TensorRng;

    fn model(seed: u64, layers: usize) -> EdgeModel {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny().with_layers(layers), &mut rng).unwrap()
    }

    /// [`generate`] in self-speculative mode from the final exit.
    fn speculative_generate(
        model: &EdgeModel,
        prompt: &[usize],
        n_new: usize,
        draft_depth: usize,
        k: usize,
    ) -> Result<Vec<usize>, ModelError> {
        let voting = VotingPolicy::final_only(model.n_layers());
        let decoding = Decoding::SelfSpeculative { draft_depth, k };
        let mut rng = TensorRng::seed_from(0); // unused: speculation is greedy
        generate(model, &voting, prompt, n_new, decoding, &mut rng)
    }

    #[test]
    fn chunked_forward_matches_sequential_steps_bitwise() {
        let m = model(1, 3);
        let fed = [1usize, 4, 7, 2];
        let exit = m.n_layers() - 1;
        let mut chunk_kv = SequenceKv::new(&m);
        let chunk = forward_chunk(&m, &mut chunk_kv, &fed, exit, None).unwrap();
        assert_eq!(chunk_kv.len(), fed.len());
        let mut solo = InferenceSession::new(&m);
        for (i, &tok) in fed.iter().enumerate() {
            let r = solo.push_token_exits(tok, &[exit]).unwrap();
            let (a, b) = (&chunk[i], &r[0]);
            assert_eq!(a.shape(), b.shape());
            for v in 0..a.cols() {
                assert_eq!(
                    a.get(0, v).to_bits(),
                    b.get(0, v).to_bits(),
                    "position {i} vocab {v}"
                );
            }
        }
    }

    #[test]
    fn round_makes_progress_and_rolls_back() {
        let m = model(2, 4);
        let mut kv = SequenceKv::new(&m);
        let round = spec_round(&m, &mut kv, 3, 1, 4).unwrap();
        assert!(!round.accepted.is_empty());
        assert_eq!(round.verified, round.drafted + 1);
        assert!(round.accepted.len() <= round.verified);
        assert_eq!(round.probs.len(), round.accepted.len());
        // the frontier token (last accepted) has not been consumed yet
        assert_eq!(kv.len(), round.accepted.len());
    }

    #[test]
    fn draft_count_clamps_near_capacity() {
        let m = model(3, 2);
        let seq_len = m.config().seq_len;
        let mut kv = SequenceKv::new(&m);
        for t in 0..seq_len - 1 {
            forward_chunk(&m, &mut kv, &[t % m.config().vocab_size], 0, None).unwrap();
        }
        assert_eq!(kv.remaining(), 1);
        // remaining == 1 leaves no draft room: a round is a plain greedy step
        let round = spec_round(&m, &mut kv, 1, 1, 8).unwrap();
        assert_eq!(round.drafted, 0);
        assert_eq!(round.verified, 1);
        assert_eq!(round.accepted.len(), 1);
        assert_eq!(kv.remaining(), 0);
        assert!(matches!(
            spec_round(&m, &mut kv, 1, 1, 8),
            Err(ModelError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn bad_parameters_rejected_without_advancing() {
        let m = model(4, 2);
        let mut kv = SequenceKv::new(&m);
        assert!(matches!(
            spec_round(&m, &mut kv, 1, 99, 4),
            Err(ModelError::LayerOutOfRange { .. })
        ));
        assert!(matches!(
            spec_round(&m, &mut kv, 1, 1, 0),
            Err(ModelError::BadConfig { .. })
        ));
        assert!(matches!(
            spec_round(&m, &mut kv, 99_999, 1, 4),
            Err(ModelError::BadConfig { .. })
        ));
        assert_eq!(kv.len(), 0);
        assert!(speculative_generate(&m, &[], 4, 1, 4).is_err());
        assert!(speculative_generate(&m, &[99_999], 4, 1, 4).is_err());
        assert!(speculative_generate(&m, &[1], 4, 9, 4).is_err());
        assert!(speculative_generate(&m, &[1], 4, 1, 0).is_err());
    }

    #[test]
    fn generate_emits_requested_length() {
        let m = model(5, 4);
        let out = speculative_generate(&m, &[1, 2, 3], 5, 1, 4).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < m.config().vocab_size));
        let zero = speculative_generate(&m, &[1, 2], 0, 1, 4).unwrap();
        assert_eq!(zero, vec![1, 2]);
    }

    #[test]
    fn full_depth_draft_accepts_everything() {
        // drafting at the final exit makes draft == verifier, so every
        // draft must be accepted and each round emits k_eff + 1 tokens
        let m = model(6, 3);
        let mut kv = SequenceKv::new(&m);
        let round = spec_round(&m, &mut kv, 2, m.n_layers() - 1, 3).unwrap();
        assert_eq!(round.accepted.len(), round.drafted + 1);
    }
}
