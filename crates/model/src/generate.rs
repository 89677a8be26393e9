//! Autoregressive generation with optional exit voting.
//!
//! On-device adaptation exists to serve on-device *inference*; this module
//! closes the loop by sampling continuations from an adapted model, either
//! from the final exit or through a [`VotingPolicy`] — the deployment mode
//! of an Edge-LLM model. [`generate`] decodes on the crate's single
//! KV-cached layer walk (`crate::batched`), the one serving batches, so a
//! prompt continues the same way through either.

use crate::batched::{decode_runs, Entry, Run, SequenceKv};
use crate::error::ModelError;
use crate::model::EdgeModel;
use crate::spec::{spec_round, validate_spec_params};
use crate::voting::{combine, VotingPolicy};
use edge_llm_tensor::{softmax_rows, Tensor, TensorRng};

/// Decoding strategy for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decoding {
    /// Always pick the most probable token.
    Greedy,
    /// Sample from the full distribution at the given temperature.
    Sample {
        /// Softmax temperature (> 0, finite).
        temperature: f32,
    },
    /// Sample from the `k` most probable tokens at the given temperature.
    TopK {
        /// Candidate pool size (>= 1).
        k: usize,
        /// Softmax temperature (> 0, finite).
        temperature: f32,
    },
    /// Greedy decoding accelerated by self-speculation: draft `k` tokens
    /// from the exit head at `draft_depth`, verify them in one full-depth
    /// pass, accept the longest agreeing prefix. Token-identical to
    /// [`Decoding::Greedy`] on the KV-cached decode path — the draft only
    /// changes how many tokens each pass emits, never which.
    SelfSpeculative {
        /// Exit layer the draft reads (`< n_layers`).
        draft_depth: usize,
        /// Draft tokens per verify pass (>= 1).
        k: usize,
    },
}

/// Generates `n_new` tokens after `prompt` over a KV-cached window of
/// the most recent `seq_len` tokens.
///
/// Each pass feeds the newest token and samples the next from `voting`'s
/// blend of exit distributions (use [`VotingPolicy::final_only`] for
/// vanilla decoding) — or, for [`Decoding::SelfSpeculative`], runs one
/// [`crate::spec_round`], which requires a final-exit voting policy.
/// When the cache fills it is rebuilt from the last `seq_len` tokens, all
/// but the newest prefilled in one pass that computes no logits. Every
/// mode rebuilds at exactly `len == seq_len`, which keeps speculative and
/// greedy streams identical past the first window.
///
/// # Errors
///
/// Returns [`ModelError::BadBatch`] for an empty prompt,
/// [`ModelError::BadConfig`] for a prompt token outside the vocabulary or
/// an invalid `decoding`, and propagates [`validate_spec_params`] and
/// model errors.
pub fn generate(
    model: &EdgeModel,
    voting: &VotingPolicy,
    prompt: &[usize],
    n_new: usize,
    decoding: Decoding,
    rng: &mut TensorRng,
) -> Result<Vec<usize>, ModelError> {
    let seq_len = model.config().seq_len;
    let vocab = model.config().vocab_size;
    let depth = model.n_layers();
    if prompt.is_empty() {
        return Err(ModelError::BadBatch {
            expected: 1,
            actual: 0,
        });
    }
    if let Some(&bad) = prompt.iter().find(|&&t| t >= vocab) {
        return Err(ModelError::BadConfig {
            reason: format!("prompt token {bad} outside vocabulary {vocab}"),
        });
    }
    validate_decoding(decoding)?;
    if let Decoding::SelfSpeculative { draft_depth, k } = decoding {
        // The verifier is the final exit's greedy token; a multi-exit
        // blend has nothing to agree with. (With one exit every combiner
        // is softmax of that exit, so the combiner is immaterial.)
        if voting.exits != [depth - 1] {
            return Err(ModelError::BadConfig {
                reason: "self-speculative decoding verifies the final exit only; \
                         use a final-exit voting policy"
                    .into(),
            });
        }
        validate_spec_params(model, draft_depth, k)?;
    }
    let mut tokens = prompt.to_vec();
    let target = prompt.len() + n_new;
    let mut kv = SequenceKv::new(model);
    while tokens.len() < target {
        kv.reset();
        // Prefill must run the FULL stack: every layer's attention reads
        // the context positions' K/V rows, so a shallow prefill would
        // leave deeper layers attending over unwritten rows.
        let window = &tokens[tokens.len().saturating_sub(seq_len)..];
        let context = &window[..window.len() - 1];
        if !context.is_empty() {
            let prefill = Run {
                tokens: context,
                kv: &mut kv,
                exits: &[],
                adapter: None,
            };
            decode_runs(model, &mut [prefill], Entry::EMBEDDING, depth, None)?;
        }
        // Invariant: the cache has consumed every stream token except the
        // frontier, which the next pass feeds.
        while tokens.len() < target && kv.remaining() > 0 {
            let frontier = *tokens.last().expect("prompt is non-empty");
            if let Decoding::SelfSpeculative { draft_depth, k } = decoding {
                let round = spec_round(model, &mut kv, frontier, draft_depth, k)?;
                let keep = round.accepted.len().min(target - tokens.len());
                tokens.extend_from_slice(&round.accepted[..keep]);
            } else {
                let step = Run {
                    tokens: &[frontier],
                    kv: &mut kv,
                    exits: &voting.exits,
                    adapter: None,
                };
                let logits = decode_runs(model, &mut [step], Entry::EMBEDDING, depth, None)?
                    .1
                    .swap_remove(0);
                let probs = combine(&logits, &voting.combiner)?;
                tokens.push(sample_token(probs.row(0), decoding, rng));
            }
        }
    }
    Ok(tokens)
}

/// Validates a [`Decoding`] configuration without running a model — the
/// same check [`generate`] applies, exposed so serving frontends can
/// reject a bad request at submission instead of mid-decode.
///
/// # Errors
///
/// Returns [`ModelError::BadConfig`] for a temperature that is not
/// positive and finite, or a zero top-k pool.
pub fn validate_decoding(decoding: Decoding) -> Result<(), ModelError> {
    let bad = |reason: &str| {
        Err(ModelError::BadConfig {
            reason: reason.to_string(),
        })
    };
    // NaN passes a bare `<= 0.0` test, tempers every probability to NaN,
    // and the sampler's rng panics on the NaN bound that sums to.
    let usable = |t: f32| t.is_finite() && t > 0.0;
    match decoding {
        Decoding::Greedy => Ok(()),
        Decoding::Sample { temperature } if !usable(temperature) => {
            bad("temperature must be positive and finite")
        }
        Decoding::TopK { k, temperature } if k == 0 || !usable(temperature) => {
            bad("top-k needs k >= 1 and a positive, finite temperature")
        }
        Decoding::SelfSpeculative { k: 0, .. } => {
            bad("self-speculative decoding needs k >= 1 draft tokens")
        }
        _ => Ok(()),
    }
}

/// Draws the next token from a probability row under `decoding` — the
/// single sampling primitive shared by [`generate`] and the serving
/// engine, so every decode path maps identical probabilities and rng
/// state to an identical token.
///
/// Ties resolve to the lowest index in every mode (greedy picks the first
/// maximum; top-k keeps candidates in ascending index order), so
/// `TopK { k: 1, .. }` agrees with `Greedy` and `TopK` with `k >= vocab`
/// agrees with `Sample` draw-for-draw.
pub fn sample_token(probs: &[f32], decoding: Decoding, rng: &mut TensorRng) -> usize {
    match decoding {
        // SelfSpeculative is greedy by construction: given a probability
        // row, it picks exactly what greedy picks (the speculative
        // machinery only changes how many rows one pass produces).
        Decoding::Greedy | Decoding::SelfSpeculative { .. } => argmax(probs),
        Decoding::Sample { temperature } => {
            let reweighted = temper(probs, temperature);
            sample_from(&reweighted, rng)
        }
        Decoding::TopK { k, temperature } => {
            let mut order: Vec<usize> = (0..probs.len()).collect();
            // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: with a
            // NaN in the row the latter is no total order and `sort_by`
            // panics. On the non-negative finite values softmax produces
            // the two orders are identical.
            order.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
            // ascending index order makes the CDF walk below traverse the
            // survivors exactly as full sampling would, so k >= vocab
            // degenerates to Sample on the same rng draw
            let mut keep: Vec<usize> = order[..k.min(order.len())].to_vec();
            keep.sort_unstable();
            // temper over the kept candidates only; pruned tokens must stay
            // at exactly zero probability
            let kept_probs: Vec<f32> = keep.iter().map(|&i| probs[i]).collect();
            let reweighted = temper(&kept_probs, temperature);
            keep[sample_from(&reweighted, rng)]
        }
    }
}

fn temper(probs: &[f32], temperature: f32) -> Vec<f32> {
    // re-softmax of (log p - max log p) / T. Subtracting the max *before*
    // dividing keeps every logit finite at extreme temperatures (softmax
    // itself is shift-invariant): without it, ln(p)/T overflows to -inf
    // for every candidate once T is small enough, and exp(-inf - -inf)
    // turns the whole distribution into NaN.
    let logs: Vec<f32> = probs.iter().map(|&p| p.max(1e-12).ln()).collect();
    let max = logs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let logits: Vec<f32> = logs.iter().map(|&l| (l - max) / temperature).collect();
    let t = Tensor::from_vec(1, logits.len(), logits).expect("shape by construction");
    softmax_rows(&t).into_vec()
}

fn sample_from(probs: &[f32], rng: &mut TensorRng) -> usize {
    let total: f32 = probs.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut u = rng.uniform(0.0, total);
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

/// Index of the largest value in `xs` — the greedy pick of
/// [`sample_token`] (0 for an empty row).
pub fn argmax(xs: &[f32]) -> usize {
    // first maximum on ties, matching the stable descending sort in
    // sample_token's top-k path so greedy and TopK{k: 1} agree exactly
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::voting::VotingCombiner;

    fn model() -> EdgeModel {
        let mut rng = TensorRng::seed_from(1);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn generates_requested_length() {
        let m = model();
        let mut rng = TensorRng::seed_from(2);
        let policy = VotingPolicy::final_only(m.n_layers());
        let out = generate(&m, &policy, &[1, 2, 3], 5, Decoding::Greedy, &mut rng).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < m.config().vocab_size));
    }

    #[test]
    fn greedy_is_deterministic() {
        let m = model();
        let policy = VotingPolicy::final_only(m.n_layers());
        let mut r1 = TensorRng::seed_from(3);
        let mut r2 = TensorRng::seed_from(99);
        let a = generate(&m, &policy, &[5], 6, Decoding::Greedy, &mut r1).unwrap();
        let b = generate(&m, &policy, &[5], 6, Decoding::Greedy, &mut r2).unwrap();
        assert_eq!(a, b, "greedy decoding must not depend on the rng");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let m = model();
        let policy = VotingPolicy::final_only(m.n_layers());
        let mut r1 = TensorRng::seed_from(4);
        let mut r2 = TensorRng::seed_from(4);
        let d = Decoding::Sample { temperature: 1.0 };
        let a = generate(&m, &policy, &[5], 6, d, &mut r1).unwrap();
        let b = generate(&m, &policy, &[5], 6, d, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn top_k_restricts_candidates() {
        let m = model();
        let policy = VotingPolicy::final_only(m.n_layers());
        let mut rng = TensorRng::seed_from(5);
        // k = 1 at any temperature must agree with greedy
        let topk = generate(
            &m,
            &policy,
            &[7, 8],
            4,
            Decoding::TopK {
                k: 1,
                temperature: 5.0,
            },
            &mut rng,
        )
        .unwrap();
        let mut rng2 = TensorRng::seed_from(6);
        let greedy = generate(&m, &policy, &[7, 8], 4, Decoding::Greedy, &mut rng2).unwrap();
        assert_eq!(topk, greedy);
    }

    #[test]
    fn voting_generation_runs() {
        let m = model();
        let mut rng = TensorRng::seed_from(7);
        let policy = VotingPolicy::all_exits(m.n_layers(), VotingCombiner::Average);
        let out = generate(&m, &policy, &[1], 4, Decoding::Greedy, &mut rng).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let m = model();
        let mut rng = TensorRng::seed_from(8);
        let policy = VotingPolicy::final_only(m.n_layers());
        assert!(generate(&m, &policy, &[], 3, Decoding::Greedy, &mut rng).is_err());
        assert!(generate(&m, &policy, &[9999], 3, Decoding::Greedy, &mut rng).is_err());
        assert!(generate(
            &m,
            &policy,
            &[1],
            3,
            Decoding::Sample { temperature: 0.0 },
            &mut rng
        )
        .is_err());
        for temperature in [f32::NAN, f32::INFINITY] {
            let d = Decoding::Sample { temperature };
            assert!(matches!(
                generate(&m, &policy, &[1], 3, d, &mut rng),
                Err(ModelError::BadConfig { .. })
            ));
        }
        assert!(generate(
            &m,
            &policy,
            &[1],
            3,
            Decoding::TopK {
                k: 0,
                temperature: 1.0
            },
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn long_prompts_use_recent_window() {
        let m = model();
        let mut rng = TensorRng::seed_from(9);
        let policy = VotingPolicy::final_only(m.n_layers());
        let prompt: Vec<usize> = (0..20).map(|i| i % 16).collect();
        let out = generate(&m, &policy, &prompt, 2, Decoding::Greedy, &mut rng).unwrap();
        assert_eq!(out.len(), 22);
    }
}
