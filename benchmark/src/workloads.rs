//! Seeded load generators: every batch, request and arrival tick the
//! benchmark feeds the product is drawn here from `--seed`.
//!
//! The seed never leaves this file. Product crates receive only the
//! generated datasets, requests and traffic, so no code path under
//! measurement can key on which seed (or which workload) is running.
//! Model weights and tenant adapters are part of the *program state*,
//! not of the load, and are built from fixed constants in the workload
//! modules.

use edge_llm_data::{Batch, ClozeQaTask, Dataset, TaskGenerator};
use edge_llm_fleet::FleetRequest;
use edge_llm_model::{Decoding, VotingPolicy};
use edge_llm_serve::ServeRequest;
use edge_llm_tensor::TensorRng;

/// Independent generator streams, so resizing one workload's load never
/// shifts another's draws.
const STREAM_ADAPT: u64 = 0xada9_7000_0000_0001;
const STREAM_SERVE: u64 = 0x5e77_e000_0000_0002;
const STREAM_FLEET: u64 = 0xf1ee_7000_0000_0003;

fn stream(seed: u64, salt: u64) -> TensorRng {
    TensorRng::seed_from(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

fn in_range(rng: &mut TensorRng, (lo, hi): (usize, usize)) -> usize {
    lo + rng.index(hi - lo + 1)
}

/// ClozeQa knowledge-base shape shared by both adaptation workloads.
pub const CLOZE_SUBJECTS: usize = 16;
pub const CLOZE_RELATIONS: usize = 2;
pub const TRAIN_SAMPLES: usize = 32;
pub const EVAL_SAMPLES: usize = 16;

/// The adaptation target: knowledge base 0. Pretraining uses a different
/// base of the same shape (the paper's continuous-adaptation setting).
fn cloze(salt: u64) -> ClozeQaTask {
    ClozeQaTask::with_seed(CLOZE_SUBJECTS, CLOZE_RELATIONS, 0x5eed ^ (salt * 0x9e37))
}

/// Vocabulary of the adaptation task (the model is sized to it).
pub fn adapt_vocab() -> usize {
    cloze(0).vocab_size()
}

/// Everything the adaptation workloads feed the tuner.
pub struct AdaptData {
    /// Target-task training samples, shuffled.
    pub train: Dataset,
    /// Target-task held-out samples.
    pub eval: Dataset,
    /// Source-task samples for the deep-supervision pretrain.
    pub pretrain: Dataset,
    /// Source-task calibration batch for the LUC sensitivity profile.
    pub calib: Batch,
}

/// Draws the adaptation datasets for `seed` at sequence length `seq_len`.
pub fn adapt_data(seed: u64, seq_len: usize, batch: usize) -> AdaptData {
    let mut rng = stream(seed, STREAM_ADAPT);
    let target = cloze(0);
    let source = cloze(1);
    let mut train = target.dataset(TRAIN_SAMPLES, seq_len, &mut rng);
    let eval = target.dataset(EVAL_SAMPLES, seq_len, &mut rng);
    train.shuffle(&mut rng);
    let pretrain = source.dataset(TRAIN_SAMPLES, seq_len, &mut rng);
    let calib = source
        .dataset(batch * 2, seq_len, &mut rng)
        .batch_at(0, batch * 2);
    AdaptData {
        train,
        eval,
        pretrain,
        calib,
    }
}

/// Request shape of `serve_decode`: decode-heavy (output > prompt).
pub const SERVE_PROMPT: (usize, usize) = (16, 32);
pub const SERVE_NEW_TOKENS: (usize, usize) = (48, 80);

fn prompt(rng: &mut TensorRng, len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|_| rng.index(vocab)).collect()
}

/// `n` greedy final-exit requests for the closed-loop decode workload.
pub fn serve_requests(seed: u64, n: usize, vocab: usize, n_layers: usize) -> Vec<ServeRequest> {
    let mut rng = stream(seed, STREAM_SERVE);
    (0..n)
        .map(|i| {
            let len = in_range(&mut rng, SERVE_PROMPT);
            ServeRequest {
                id: format!("r{i}"),
                prompt: prompt(&mut rng, len, vocab),
                max_new_tokens: in_range(&mut rng, SERVE_NEW_TOKENS),
                decoding: Decoding::Greedy,
                voting: VotingPolicy::final_only(n_layers),
                seed: rng.next_u64(),
                deadline_steps: None,
                tenant: None,
            }
        })
        .collect()
}

/// Session shape of `fleet_mixed`: prefill-heavy (prompt > output), the
/// reverse of `serve_decode`.
pub const FLEET_PROMPT: (usize, usize) = (8, 16);
pub const FLEET_NEW_TOKENS: (usize, usize) = (2, 8);
pub const FLEET_TENANTS: usize = 4;
const FLEET_PRIORITIES: [u8; 4] = [0, 1, 1, 2];
/// Open-loop arrival schedule in virtual ticks: one session every
/// `FLEET_GAP_TICKS` on average (about 85% of what two 4-slot workers
/// retire), plus `FLEET_BURST` extra sessions at once every
/// `FLEET_BURST_PERIOD` ticks so queues actually form.
const FLEET_GAP_TICKS: (usize, usize) = (1, 4);
const FLEET_BURST: usize = 10;
const FLEET_BURST_PERIOD: u64 = 100;

/// Tenant id used by fleet request `i`'s adapter.
pub fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// `n` values cycling through `values`, in a seeded order: every seed
/// deals the same multiset.
fn dealt<T: Copy>(rng: &mut TensorRng, n: usize, values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = (0..n).map(|i| values[i % values.len()]).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.index(i + 1));
    }
    out
}

fn span_of((lo, hi): (usize, usize)) -> Vec<usize> {
    (lo..=hi).collect()
}

/// `sessions` mixed-mode multi-tenant sessions with their arrival ticks.
///
/// Every seed serves the same multiset of session shapes: prompt lengths,
/// token budgets, decoding modes, tenants, priorities and arrival gaps
/// each cycle through their range and are dealt in an independent seeded
/// order. Seeds differ in which session gets what, when, and with which
/// tokens — not in how much work a pass is, which with a hundred-odd
/// sessions otherwise moved tokens per pass by 8% and pass time by 30%
/// between seeds.
pub fn fleet_traffic(
    seed: u64,
    sessions: usize,
    vocab: usize,
    n_layers: usize,
) -> Vec<FleetRequest> {
    let mut rng = stream(seed, STREAM_FLEET);
    let modes = [
        Decoding::Greedy,
        Decoding::Sample { temperature: 0.8 },
        Decoding::Greedy,
        Decoding::SelfSpeculative {
            draft_depth: 1,
            k: 4,
        },
    ];
    let tenants: Vec<usize> = (0..FLEET_TENANTS).collect();
    let gaps = dealt(&mut rng, sessions, &span_of(FLEET_GAP_TICKS));
    let prompt_lens = dealt(&mut rng, sessions, &span_of(FLEET_PROMPT));
    let budgets = dealt(&mut rng, sessions, &span_of(FLEET_NEW_TOKENS));
    let modes = dealt(&mut rng, sessions, &modes);
    let tenants = dealt(&mut rng, sessions, &tenants);
    let priorities = dealt(&mut rng, sessions, &FLEET_PRIORITIES);
    let mut tick = 0u64;
    let mut next_burst = FLEET_BURST_PERIOD;
    let mut burst_left = 0usize;
    (0..sessions)
        .map(|i| {
            if burst_left > 0 {
                burst_left -= 1;
            } else {
                tick += gaps[i] as u64;
                if tick >= next_burst {
                    next_burst += FLEET_BURST_PERIOD;
                    burst_left = FLEET_BURST;
                }
            }
            FleetRequest {
                req: ServeRequest {
                    id: format!("s{i}"),
                    prompt: prompt(&mut rng, prompt_lens[i], vocab),
                    max_new_tokens: budgets[i],
                    decoding: modes[i],
                    voting: VotingPolicy::final_only(n_layers),
                    seed: rng.next_u64(),
                    deadline_steps: None,
                    tenant: Some(tenant_name(tenants[i])),
                },
                priority: priorities[i],
                submit_tick: tick,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapt_fingerprint(seed: u64) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let d = adapt_data(seed, 48, 2);
        let b = d.train.batch_at(0, TRAIN_SAMPLES);
        let e = d.eval.batch_at(0, EVAL_SAMPLES);
        let mut rest = d.pretrain.batch_at(0, TRAIN_SAMPLES).tokens;
        rest.extend(d.calib.tokens);
        (b.tokens, e.tokens, rest)
    }

    #[test]
    fn same_seed_same_batches_different_seed_different() {
        assert_eq!(adapt_fingerprint(1), adapt_fingerprint(1));
        assert_ne!(adapt_fingerprint(1), adapt_fingerprint(2));
    }

    #[test]
    fn adapt_batches_fit_the_model_vocabulary() {
        let d = adapt_data(3, 48, 2);
        let b = d.train.batch_at(0, 2);
        assert_eq!(b.tokens.len(), 2 * 48);
        assert!(b.tokens.iter().all(|&t| t < adapt_vocab()));
        assert_eq!(d.calib.batch, 4);
    }

    #[test]
    fn same_seed_same_requests_different_seed_different() {
        let a = serve_requests(1, 40, 32, 8);
        assert_eq!(a, serve_requests(1, 40, 32, 8));
        assert_ne!(a, serve_requests(2, 40, 32, 8));
        // a longer run extends the load, it does not redraw it
        assert_eq!(a[..], serve_requests(1, 80, 32, 8)[..40]);
        for r in &a {
            assert!((SERVE_PROMPT.0..=SERVE_PROMPT.1).contains(&r.prompt.len()));
            assert!((SERVE_NEW_TOKENS.0..=SERVE_NEW_TOKENS.1).contains(&r.max_new_tokens));
            assert!(r.prompt.iter().all(|&t| t < 32));
        }
    }

    #[test]
    fn same_seed_same_traffic_and_ticks_different_seed_different() {
        let a = fleet_traffic(1, 120, 32, 4);
        assert_eq!(a, fleet_traffic(1, 120, 32, 4));
        let b = fleet_traffic(2, 120, 32, 4);
        assert_ne!(a, b);
        let ticks = |t: &[FleetRequest]| t.iter().map(|r| r.submit_tick).collect::<Vec<_>>();
        assert_ne!(ticks(&a), ticks(&b));
    }

    #[test]
    fn every_seed_deals_the_same_session_shapes() {
        let shapes = |seed: u64| {
            let t = fleet_traffic(seed, 120, 32, 4);
            let mut prompts: Vec<usize> = t.iter().map(|r| r.req.prompt.len()).collect();
            let mut budgets: Vec<usize> = t.iter().map(|r| r.req.max_new_tokens).collect();
            let mut modes: Vec<String> =
                t.iter().map(|r| format!("{:?}", r.req.decoding)).collect();
            let mut tenants: Vec<_> = t.iter().map(|r| r.req.tenant.clone()).collect();
            let mut priorities: Vec<u8> = t.iter().map(|r| r.priority).collect();
            prompts.sort_unstable();
            budgets.sort_unstable();
            modes.sort_unstable();
            tenants.sort_unstable();
            priorities.sort_unstable();
            (prompts, budgets, modes, tenants, priorities)
        };
        assert_eq!(shapes(1), shapes(2));
        let (prompts, budgets, ..) = shapes(3);
        assert_eq!(prompts.first(), Some(&FLEET_PROMPT.0));
        assert_eq!(prompts.last(), Some(&FLEET_PROMPT.1));
        assert_eq!(budgets.first(), Some(&FLEET_NEW_TOKENS.0));
        assert_eq!(budgets.last(), Some(&FLEET_NEW_TOKENS.1));
    }

    #[test]
    fn fleet_traffic_is_mixed_bursty_and_in_arrival_order() {
        let t = fleet_traffic(7, 300, 32, 4);
        assert!(t.windows(2).all(|w| w[0].submit_tick <= w[1].submit_tick));
        let spec = t
            .iter()
            .filter(|r| matches!(r.req.decoding, Decoding::SelfSpeculative { .. }))
            .count();
        let sampled = t
            .iter()
            .filter(|r| matches!(r.req.decoding, Decoding::Sample { .. }))
            .count();
        assert!(spec > 30 && sampled > 30 && spec + sampled < 220);
        // a burst lands FLEET_BURST + 1 sessions on one tick
        let mut run = 1usize;
        let mut longest = 1usize;
        for w in t.windows(2) {
            run = if w[0].submit_tick == w[1].submit_tick {
                run + 1
            } else {
                1
            };
            longest = longest.max(run);
        }
        assert!(longest > FLEET_BURST);
        let tenants: std::collections::BTreeSet<_> =
            t.iter().map(|r| r.req.tenant.clone()).collect();
        assert_eq!(tenants.len(), FLEET_TENANTS);
    }
}
