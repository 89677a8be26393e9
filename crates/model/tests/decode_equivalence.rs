//! Decode-path equivalence and decoding edge cases.
//!
//! A next-token distribution is asked for in two shapes: the whole window
//! in one pass (`VotingPolicy::predict`, behind every reported quality
//! number) and one token per step ([`InferenceSession`], behind
//! [`generate`] and serving). Both are row shapes of one layer walk
//! (`batched::decode_runs`), so these tests hold the shapes together for
//! every voting combiner, hold [`generate`] to an independent session-API
//! loop for every decoding mode, pin the walk's output bits — a change
//! that moves every shape equally is visible only there — and pin down the
//! sampling primitive's edge-case contracts.

use edge_llm_model::{
    batched_decode_step, combine, generate, sample_token, spec_round_with_adapter, AdapterTarget,
    AdaptiveTuner, BatchedStep, Decoding, EdgeModel, InferenceSession, ModelConfig, ModelError,
    ResolvedAdapter, SequenceKv, Sgd, TenantAdapter, VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm_prune::magnitude_prune;
use edge_llm_quant::{BitWidth, QuantScheme};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::{configured_threads, set_configured_threads, Tensor, TensorRng};
use std::sync::Mutex;

/// Serializes tests that touch the process-wide thread setting.
static KNOB: Mutex<()> = Mutex::new(());

fn model(seed: u64) -> EdgeModel {
    let mut rng = TensorRng::seed_from(seed);
    EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
}

/// `model` with `act` installed on every block projection's input.
fn with_activation_quant(mut model: EdgeModel, act: QuantScheme) -> EdgeModel {
    for l in 0..model.n_layers() {
        for lin in model.block_mut(l).linears_mut() {
            lin.set_activation_quant(Some(act));
        }
    }
    model
}

/// [`generate`]'s windowing (keep the last `min(len, seq_len)` tokens,
/// rebuild the cache when it fills) written on the incremental session
/// API, one token per push — an independent oracle for [`generate`]'s
/// chunked prefill and for the draft/verify/rollback path, which never
/// touches `spec_round` or its chunked verify forward.
fn windowed_decode(
    model: &EdgeModel,
    voting: &VotingPolicy,
    prompt: &[usize],
    n_new: usize,
    decoding: Decoding,
    rng: &mut TensorRng,
) -> Vec<usize> {
    let seq_len = model.config().seq_len;
    let mut tokens = prompt.to_vec();
    let mut produced = 0usize;
    'window: while produced < n_new {
        let mut session = InferenceSession::new(model);
        let take = tokens.len().min(seq_len);
        let window = &tokens[tokens.len() - take..];
        for &t in &window[..window.len() - 1] {
            session.advance_token(t).unwrap();
        }
        let mut frontier = *window.last().unwrap();
        while produced < n_new {
            if session.remaining() == 0 {
                continue 'window;
            }
            let exits = session.push_token_exits(frontier, &voting.exits).unwrap();
            let probs = combine(&exits, &voting.combiner).unwrap();
            let next = sample_token(probs.row(0), decoding, rng);
            tokens.push(next);
            produced += 1;
            frontier = next;
        }
    }
    tokens
}

/// Every voting policy shape the crate offers.
fn all_policies(n_layers: usize) -> Vec<(&'static str, VotingPolicy)> {
    vec![
        ("final-only", VotingPolicy::final_only(n_layers)),
        (
            "last-exit",
            VotingPolicy::all_exits(n_layers, VotingCombiner::LastExit),
        ),
        (
            "average",
            VotingPolicy::all_exits(n_layers, VotingCombiner::Average),
        ),
        (
            "confidence",
            VotingPolicy::all_exits(
                n_layers,
                VotingCombiner::ConfidenceWeighted { temperature: 0.8 },
            ),
        ),
        (
            "learned",
            VotingPolicy::all_exits(
                n_layers,
                VotingCombiner::Learned((1..=n_layers).map(|i| i as f32).collect()),
            ),
        ),
    ]
}

#[test]
fn session_decode_matches_generate_for_every_mode_and_policy() {
    let m = model(21);
    let decodings = [
        Decoding::Greedy,
        Decoding::Sample { temperature: 0.9 },
        Decoding::TopK {
            k: 5,
            temperature: 1.2,
        },
    ];
    for (pname, policy) in all_policies(m.n_layers()) {
        for (di, &decoding) in decodings.iter().enumerate() {
            let seed = 100 + di as u64;
            let prompt = [3usize, 7, 1];
            let mut rng_a = TensorRng::seed_from(seed);
            let full = generate(&m, &policy, &prompt, 6, decoding, &mut rng_a).unwrap();
            let mut rng_b = TensorRng::seed_from(seed);
            let incremental = windowed_decode(&m, &policy, &prompt, 6, decoding, &mut rng_b);
            assert_eq!(
                full, incremental,
                "policy {pname}, decoding {decoding:?}: generate and the \
                 session-API loop must emit the same token stream"
            );
        }
    }
}

#[test]
fn per_position_session_probs_match_predict_rows() {
    // An activation scheme is fitted per token in both forwards, so the
    // full window sees the grid a one-row decode step sees; a range shared
    // across the window would let later tokens move earlier positions.
    let models = [
        ("uncompressed", model(22)),
        (
            "w8 activations",
            with_activation_quant(model(22), QuantScheme::asymmetric(BitWidth::W8)),
        ),
        (
            "w4 activations",
            with_activation_quant(model(22), QuantScheme::asymmetric(BitWidth::W4)),
        ),
    ];
    for (mname, m) in &models {
        let cfg = m.config().clone();
        let tokens: Vec<usize> = (0..cfg.seq_len)
            .map(|i| (i * 5 + 2) % cfg.vocab_size)
            .collect();
        for (pname, policy) in all_policies(m.n_layers()) {
            let batched = policy.predict(m, &tokens, 1).unwrap();
            let mut session = InferenceSession::new(m);
            for (t, &tok) in tokens.iter().enumerate() {
                let exits = session.push_token_exits(tok, &policy.exits).unwrap();
                let row = combine(&exits, &policy.combiner).unwrap();
                for v in 0..cfg.vocab_size {
                    let a = batched.get(t, v);
                    let b = row.get(0, v);
                    assert!(
                        (a - b).abs() < 1e-4,
                        "{mname}, policy {pname}, position {t}, vocab {v}: \
                         batched {a} vs incremental {b}"
                    );
                }
            }
        }
    }
}

/// A random probability row (positive entries summing to 1).
fn random_probs(rng: &mut TensorRng, n: usize) -> Vec<f32> {
    let raw: Vec<f32> = (0..n).map(|_| rng.uniform(0.01, 1.0)).collect();
    let total: f32 = raw.iter().sum();
    raw.into_iter().map(|p| p / total).collect()
}

#[test]
fn top_k_covering_the_vocab_degenerates_to_full_sampling() {
    run_cases("topk degenerates to sample", 64, |g| {
        let n = g.usize_in(2, 40);
        let temperature = g.f32_in(0.2, 3.0);
        let probs = random_probs(g.rng(), n);
        let k = n + g.usize_in(0, 4); // k >= vocab, possibly beyond
        let seed = g.u64();
        let mut rng_a = TensorRng::seed_from(seed);
        let mut rng_b = TensorRng::seed_from(seed);
        for draw in 0..8 {
            let full = sample_token(&probs, Decoding::Sample { temperature }, &mut rng_a);
            let topk = sample_token(&probs, Decoding::TopK { k, temperature }, &mut rng_b);
            assert_eq!(
                full, topk,
                "draw {draw}: k={k} covers all {n} candidates, so top-k must \
                 agree with full sampling draw-for-draw"
            );
        }
    });
}

#[test]
fn top_1_agrees_with_greedy_at_any_temperature() {
    run_cases("top-1 is greedy", 64, |g| {
        let n = g.usize_in(2, 40);
        let temperature = g.f32_in(0.001, 50.0);
        let probs = random_probs(g.rng(), n);
        let greedy = sample_token(&probs, Decoding::Greedy, g.rng());
        let top1 = sample_token(&probs, Decoding::TopK { k: 1, temperature }, g.rng());
        assert_eq!(greedy, top1);
    });
}

#[test]
fn a_nan_laced_row_samples_some_index_without_panicking() {
    // NaN probabilities are reachable (the f32 routes propagate a NaN
    // weight rather than erroring); a comparator that calls NaN "equal"
    // is no total order and panicked `sort_by` on rows like these, taking
    // every batch-mate down with the request.
    run_cases("nan rows sample", 200, |g| {
        let n = 64;
        let mut probs = random_probs(g.rng(), n);
        for _ in 0..g.usize_in(1, 8) {
            let at = g.usize_in(0, n);
            probs[at] = if g.bool() { f32::NAN } else { -f32::NAN };
        }
        let temperature = g.f32_in(0.2, 3.0);
        for k in [1, g.usize_in(2, n - 1), n, n + 3] {
            let t = sample_token(&probs, Decoding::TopK { k, temperature }, g.rng());
            assert!(t < n, "TopK k={k} returned {t} out of {n}");
        }
    });
}

#[test]
fn extreme_temperatures_stay_finite_and_in_range() {
    run_cases("extreme temperatures", 64, |g| {
        let n = g.usize_in(2, 40);
        let probs = random_probs(g.rng(), n);
        for &temperature in &[1e-6f32, 1e-3, 1.0, 100.0, 1e6] {
            let s = sample_token(&probs, Decoding::Sample { temperature }, g.rng());
            assert!(s < n, "Sample at T={temperature} returned {s} out of {n}");
            let k = g.usize_in(1, n + 1);
            let t = sample_token(&probs, Decoding::TopK { k, temperature }, g.rng());
            assert!(t < n, "TopK at T={temperature} returned {t} out of {n}");
        }
        // as T -> 0 the tempered distribution collapses onto the mode, so a
        // near-zero temperature must agree with greedy (the max is unique
        // with probability 1 for random rows)
        let cold = sample_token(&probs, Decoding::Sample { temperature: 1e-6 }, g.rng());
        let greedy = sample_token(&probs, Decoding::Greedy, g.rng());
        assert_eq!(cold, greedy, "T=1e-6 sampling must collapse onto the mode");
    });
}

#[test]
fn exhausted_sessions_fail_cleanly_without_consuming_capacity() {
    run_cases("capacity exhaustion", 16, |g| {
        let m = model(g.u64());
        let seq_len = m.config().seq_len;
        let mut session = InferenceSession::new(&m);
        for i in 0..seq_len {
            session.push_token(i % m.config().vocab_size).unwrap();
        }
        assert_eq!(session.remaining(), 0);
        // every push style must fail with CapacityExhausted, repeatedly,
        // and leave the session state untouched
        for _ in 0..3 {
            assert!(matches!(
                session.push_token(1),
                Err(ModelError::CapacityExhausted { capacity }) if capacity == seq_len
            ));
            assert!(matches!(
                session.advance_token(1),
                Err(ModelError::CapacityExhausted { .. })
            ));
            assert!(matches!(
                session.push_token_exits(1, &[0]),
                Err(ModelError::CapacityExhausted { .. })
            ));
            assert_eq!(session.len(), seq_len, "failed pushes must not advance");
        }
        session.reset();
        assert!(session.push_token(1).is_ok());
    });
}

/// Greedy final-exit [`windowed_decode`] — the stream self-speculative
/// decoding must reproduce.
fn windowed_greedy(model: &EdgeModel, prompt: &[usize], n_new: usize) -> Vec<usize> {
    let voting = VotingPolicy::final_only(model.n_layers());
    let mut rng = TensorRng::seed_from(0); // unused: greedy ignores the rng
    windowed_decode(model, &voting, prompt, n_new, Decoding::Greedy, &mut rng)
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
fn speculative_decode_is_bit_identical_to_greedy_for_every_depth_k_and_thread_count() {
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    // 4 layers so the draft depths cover shallow {1}, mid {2}, and the
    // degenerate final-exit draft {n_layers - 1}
    let mut rng = TensorRng::seed_from(31);
    let m = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
    let seq_len = m.config().seq_len;
    let vocab = m.config().vocab_size;
    // prompts shorter and longer than seq_len; n_new past the window so
    // the cache-rebuild path is exercised too
    let long_prompt: Vec<usize> = (0..seq_len + 3).map(|i| (i * 3 + 1) % vocab).collect();
    let prompts: Vec<Vec<usize>> = vec![vec![3, 7, 1], long_prompt];
    for prompt in &prompts {
        let n_new = seq_len + 2;
        let reference = windowed_greedy(&m, prompt, n_new);
        for threads in [1usize, 2, 4] {
            set_configured_threads(threads);
            for draft_depth in [1usize, 2, 3] {
                for k in [1usize, 2, 4, 8] {
                    let spec = speculative_generate(&m, prompt, n_new, draft_depth, k).unwrap();
                    assert_eq!(
                        spec,
                        reference,
                        "prompt len {}, threads {threads}, depth {draft_depth}, k {k}: \
                         speculative decode must match greedy bit-for-bit",
                        prompt.len()
                    );
                }
            }
        }
    }
    set_configured_threads(saved);
}

fn quantized_model(seed: u64, bits: BitWidth) -> EdgeModel {
    let mut rng = TensorRng::seed_from(seed);
    let mut model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let scheme = QuantScheme::symmetric(bits);
    for l in 0..model.n_layers() {
        let [qkv, proj, fc1, fc2] = model.block_mut(l).linears_mut();
        for lin in [qkv, proj, &mut *fc1, fc2] {
            lin.set_quant(Some(scheme));
        }
        let mask = magnitude_prune(fc1.weight(), 0.25).unwrap();
        fc1.set_mask(Some(mask)).unwrap();
    }
    model
}

#[test]
fn speculative_decode_matches_greedy_on_packed_and_dense_quantized_models() {
    // the draft and verify forwards must agree with plain greedy whether
    // the quantized weights run packed (integer codes) or dense
    // (fake-quant floats) — and the two weight forms agree with each other
    run_cases("spec packed equivalence", 6, |g| {
        let bits = *g.choose(&[BitWidth::W2, BitWidth::W4]);
        let seed = g.u64();
        let packed = quantized_model(seed, bits);
        packed.pack_frozen_weights().unwrap();
        let dense = quantized_model(seed, bits);
        let n_layers = packed.n_layers();
        let prompt = vec![1, 2, 3];
        let n_new = packed.config().seq_len; // crosses a window rebuild
        let reference = windowed_greedy(&dense, &prompt, n_new);
        assert_eq!(
            windowed_greedy(&packed, &prompt, n_new),
            reference,
            "greedy oracle diverged between packed and dense ({bits:?})"
        );
        for draft_depth in 0..n_layers {
            for k in [1usize, 4] {
                let a = speculative_generate(&packed, &prompt, n_new, draft_depth, k).unwrap();
                let b = speculative_generate(&dense, &prompt, n_new, draft_depth, k).unwrap();
                assert_eq!(
                    a, reference,
                    "packed spec ({bits:?}, depth {draft_depth}, k {k})"
                );
                assert_eq!(
                    b, reference,
                    "dense spec ({bits:?}, depth {draft_depth}, k {k})"
                );
            }
        }
    });
}

/// A model whose projections carry both weight and activation
/// quantization — eligible for the packed integer-GEMM decode route.
fn integer_model(seed: u64, bits: BitWidth) -> EdgeModel {
    with_activation_quant(
        quantized_model(seed, bits),
        QuantScheme::asymmetric(BitWidth::W8),
    )
}

#[test]
fn integer_decode_route_is_bit_identical_packed_vs_lazy_including_spec() {
    // With weight + activation quantization installed the decode matmuls
    // run the packed integer GEMM. Pre-packed (pack_frozen_weights) and
    // lazily-built operands feed the identical kernel, so full decode —
    // including the speculative draft/verify/rollback path and its chunked
    // verify forwards — must agree bit-for-bit between the two.
    run_cases("integer decode equivalence", 4, |g| {
        let bits = *g.choose(&[BitWidth::W2, BitWidth::W4]);
        let seed = g.u64();
        let packed = integer_model(seed, bits);
        packed.pack_frozen_weights().unwrap();
        let lazy = integer_model(seed, bits);
        let n_layers = packed.n_layers();
        let prompt = vec![1, 2, 3];
        let n_new = packed.config().seq_len; // crosses a window rebuild
        let reference = windowed_greedy(&lazy, &prompt, n_new);
        assert_eq!(
            windowed_greedy(&packed, &prompt, n_new),
            reference,
            "greedy oracle diverged between packed and lazy ({bits:?})"
        );
        for draft_depth in [1usize, n_layers - 1] {
            for k in [1usize, 4] {
                let a = speculative_generate(&packed, &prompt, n_new, draft_depth, k).unwrap();
                let b = speculative_generate(&lazy, &prompt, n_new, draft_depth, k).unwrap();
                assert_eq!(a, reference, "packed spec ({bits:?}, d{draft_depth}, k{k})");
                assert_eq!(b, reference, "lazy spec ({bits:?}, d{draft_depth}, k{k})");
            }
        }
    });
}

#[test]
fn learned_combiner_votes_like_a_weighted_average() {
    // spot-check the remaining combiner against a hand computation so
    // every VotingCombiner variant is exercised by this suite
    let mut rng = TensorRng::seed_from(23);
    let a = Tensor::randn(1, 4, 1.0, &mut rng);
    let b = Tensor::randn(1, 4, 1.0, &mut rng);
    let got = combine(
        &[a.clone(), b.clone()],
        &VotingCombiner::Learned(vec![1.0, 3.0]),
    )
    .unwrap();
    let sa = edge_llm_tensor::softmax_rows(&a);
    let sb = edge_llm_tensor::softmax_rows(&b);
    for v in 0..4 {
        let want = 0.25 * sa.get(0, v) + 0.75 * sb.get(0, v);
        assert!((got.get(0, v) - want).abs() < 1e-5, "vocab {v}");
    }
}

/// FNV-1a over 32-bit words: the digest the pinned-bits test below folds
/// every observable decode output into.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u32);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// An adapter with a delta at every `(layer, target)` site of `model`.
fn full_adapter(model: &EdgeModel, seed: u64) -> ResolvedAdapter {
    let sites: Vec<(usize, AdapterTarget)> = (0..model.n_layers())
        .flat_map(|l| AdapterTarget::ALL.into_iter().map(move |t| (l, t)))
        .collect();
    TenantAdapter::seeded(model.config(), seed, 2, &sites)
        .resolve(model)
        .unwrap()
}

/// Three slots with staggered context lengths (3, 1, 0), slot 1 carrying
/// an adapter, advanced in lockstep for four steps while each slot's
/// requested exits rotate through `[]`, `[last]`, `[0, last]`. Digests
/// every logit bit of every step.
fn batched_digest(model: &EdgeModel) -> u64 {
    let last = model.n_layers() - 1;
    let vocab = model.config().vocab_size;
    let exit_sets: [&[usize]; 3] = [&[], &[last], &[0, last]];
    let adapter = full_adapter(model, 41);
    let adapters = [None, Some(&adapter), None];
    let mut kvs: Vec<SequenceKv> = (0..3).map(|_| SequenceKv::new(model)).collect();
    for (slot, context) in [3usize, 1, 0].into_iter().enumerate() {
        for t in 0..context {
            let mut steps = [BatchedStep {
                token: (slot * 7 + t * 3 + 1) % vocab,
                kv: &mut kvs[slot],
                exits: &[],
                adapter: adapters[slot],
            }];
            batched_decode_step(model, &mut steps).unwrap();
        }
    }
    let mut h = Fnv::new();
    for s in 0..4usize {
        let mut steps: Vec<BatchedStep> = kvs
            .iter_mut()
            .enumerate()
            .map(|(slot, kv)| BatchedStep {
                token: (slot * 5 + s * 11 + 2) % vocab,
                kv,
                exits: exit_sets[(slot + s) % 3],
                adapter: adapters[slot],
            })
            .collect();
        let out = batched_decode_step(model, &mut steps).unwrap();
        h.word(out.len() as u32);
        for slot in &out {
            h.word(slot.len() as u32);
            for logits in slot {
                h.floats(logits.as_slice());
            }
        }
    }
    h.0
}

/// Up to three speculative rounds after a two-token prefill, for every
/// `draft_depth ∈ {0, last}` × `k ∈ {1, 4}` × {no adapter, adapter}.
/// `SpecReport` exposes the verifier's probability rows rather than raw
/// logits, so the digest takes those bits plus the accepted tokens, the
/// draft/verify counts and the cache length after each rollback.
fn spec_digest(model: &EdgeModel) -> u64 {
    let last = model.n_layers() - 1;
    let adapter = full_adapter(model, 43);
    let mut h = Fnv::new();
    for draft_depth in [0, last] {
        for k in [1usize, 4] {
            for ad in [None, Some(&adapter)] {
                let mut kv = SequenceKv::new(model);
                for token in [5usize, 9] {
                    let mut steps = [BatchedStep {
                        token,
                        kv: &mut kv,
                        exits: &[],
                        adapter: ad,
                    }];
                    batched_decode_step(model, &mut steps).unwrap();
                }
                let mut frontier = 3usize;
                for _ in 0..3 {
                    if kv.remaining() == 0 {
                        break;
                    }
                    let round =
                        spec_round_with_adapter(model, &mut kv, frontier, draft_depth, k, ad)
                            .unwrap();
                    h.word(round.drafted as u32);
                    h.word(round.verified as u32);
                    h.word(kv.len() as u32);
                    for (&tok, probs) in round.accepted.iter().zip(&round.probs) {
                        h.word(tok as u32);
                        h.floats(probs);
                    }
                    frontier = *round.accepted.last().unwrap();
                }
            }
        }
    }
    h.0
}

#[test]
fn decode_output_bits_are_pinned_for_dense_packed_and_integer_models() {
    // The oracles above compare the batched step and the speculative
    // chunk to *each other* (both sit under `InferenceSession`), so a
    // change that moves both sides equally is invisible to them. These
    // constants were recorded at the commit before the two layer walks
    // were merged; they hold every output bit to what it was then.
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    let packed = quantized_model(51, BitWidth::W4);
    packed.pack_frozen_weights().unwrap();
    let integer = integer_model(52, BitWidth::W4);
    integer.pack_frozen_weights().unwrap();
    let cases = [
        (
            "dense",
            model(50),
            0x1ba8_c8ca_1f2f_4d71u64,
            0x0486_a374_5c4b_4fcdu64,
        ),
        (
            "w4 packed, f32 row-dequant route",
            packed,
            0x6dc4_84ca_3832_c9f7,
            0x6ed1_e96e_a29f_fb8d,
        ),
        (
            "w4/a8 packed, integer route",
            integer,
            0xab35_c1ac_839a_ba62,
            0x6804_a4f6_0d68_a72d,
        ),
    ];
    for (name, m, batched_want, spec_want) in &cases {
        for threads in [1usize, 2, 3] {
            set_configured_threads(threads);
            assert_eq!(
                batched_digest(m),
                *batched_want,
                "{name}: batched step, {threads} threads"
            );
        }
        for threads in [1usize, 2] {
            set_configured_threads(threads);
            assert_eq!(
                spec_digest(m),
                *spec_want,
                "{name}: speculative rounds, {threads} threads"
            );
        }
    }
    set_configured_threads(saved);
}

/// The tuner's frozen prefix, held by name: every logit bit of
/// `forward_exit` to the last exit with 0, 1 and 2 blocks below the
/// window, then each step's loss and activation bytes over six depth-1
/// round-robin steps (windows at layers 0, 1, 2, twice — prefixes of 0, 1
/// and 2 blocks) and four depth-2 ones (windows at 0..2 and 1..3, twice:
/// two trained blocks entering at the embedding and above it), then every
/// parameter bit.
fn prefix_digest(model: &mut EdgeModel) -> u64 {
    let cfg = model.config().clone();
    let last = model.n_layers() - 1;
    let tokens: Vec<usize> = (0..2 * cfg.seq_len)
        .map(|i| (i * 7 + 3) % cfg.vocab_size)
        .collect();
    let mut h = Fnv::new();
    for grad_from in 0..=last {
        let fwd = model.forward_exit(&tokens, 2, last, grad_from).unwrap();
        h.floats(fwd.logits.as_slice());
    }
    let mut opt = Sgd::new(0.05);
    for (depth, steps) in [(1, 6), (2, 4)] {
        let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth });
        for _ in 0..steps {
            let report = tuner.step(model, &mut opt, &tokens, &tokens, 2).unwrap();
            h.word(report.loss.to_bits());
            h.word(report.activation_bytes as u32);
        }
    }
    model.visit_params_all_ro(&mut |id, p| {
        h.word(id as u32);
        h.floats(p);
    });
    h.0
}

#[test]
fn frozen_prefix_bits_are_pinned_for_dense_and_compressed_models() {
    // Re-recorded, with each step's activation bytes and the depth-2 run
    // folded in, at the commit before the window's blocks moved onto the
    // decode walk: every bit is held to what the training forward computed
    // then, by name and not only through the report goldens. (The digest
    // they replaced, recorded before the prefix moved onto the walk,
    // passed unchanged up to that commit.)
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    let three_layers = |seed: u64| {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny().with_layers(3), &mut rng).unwrap()
    };
    let compressed = |seed: u64| {
        let mut m = three_layers(seed);
        for l in 0..m.n_layers() {
            for lin in m.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                let mask = magnitude_prune(lin.weight(), 0.4).unwrap();
                lin.set_mask(Some(mask)).unwrap();
            }
        }
        m
    };
    type Build<'a> = &'a dyn Fn(u64) -> EdgeModel;
    let cases: [(&str, Build, u64, u64); 2] = [
        ("dense", &three_layers, 60, 0xf91c_ab09_107f_889f),
        ("w4 + 40% mask", &compressed, 61, 0x3a01_ea84_51d5_6981),
    ];
    for (name, build, seed, want) in cases {
        for threads in [1usize, 2] {
            set_configured_threads(threads);
            let got = prefix_digest(&mut build(seed));
            assert_eq!(got, want, "{name}, {threads} threads: {got:#018x}");
        }
    }
    set_configured_threads(saved);
}
