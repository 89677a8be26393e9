//! Re-quantization accounting across the windowed-adaptation loop and the
//! decode loop, and packed-decode equivalence on compressed models.
//!
//! `visit_params_window` skips frozen blocks without borrowing their
//! parameters mutably, so only the active window's weight caches are
//! invalidated. The per-layer re-quantization counters make that
//! observable as exact counts: a block re-quantizes once per training
//! visit, frozen blocks keep their packed decode weights across steps, and
//! decoding re-quantizes nothing after the first pass. These counts are
//! what the weight cache buys; no wall clock is needed to hold them.

use edge_llm_model::{
    batched_decode_step, generate, AdaptiveTuner, BatchedStep, Decoding, EdgeModel, LayerWindow,
    ModelConfig, SequenceKv, Sgd, VotingPolicy, WindowSchedule,
};
use edge_llm_prune::magnitude_prune;
use edge_llm_quant::{BitWidth, QuantScheme};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::TensorRng;

fn quantized_model(seed: u64, bits: BitWidth) -> EdgeModel {
    deep_quantized_model(seed, bits, ModelConfig::tiny().n_layers)
}

fn deep_quantized_model(seed: u64, bits: BitWidth, layers: usize) -> EdgeModel {
    let mut rng = TensorRng::seed_from(seed);
    let cfg = ModelConfig::tiny().with_layers(layers);
    let mut model = EdgeModel::new(cfg, &mut rng).unwrap();
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

fn tokens_for(model: &EdgeModel, seed: u64) -> Vec<usize> {
    let mut rng = TensorRng::seed_from(seed);
    (0..model.config().seq_len)
        .map(|_| rng.index(model.config().vocab_size))
        .collect()
}

/// Which blocks advanced their re-quantization counter between two
/// snapshots.
fn advanced(before: &[u64], after: &[u64]) -> Vec<usize> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .filter(|(_, (b, a))| a > b)
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn depth_one_step_requantizes_exactly_one_block() {
    // A depth-1 window pinned at the top of the stack runs the full
    // forward every step and trains exactly one block, so steady state
    // must re-quantize exactly that block — no more (frozen blocks are
    // skipped by `visit_params_window`, the PR-4 fix) and no less.
    let mut model = quantized_model(1, BitWidth::W4);
    let top = LayerWindow {
        start: model.n_layers() - 1,
        end: model.n_layers(),
    };
    let tokens = tokens_for(&model, 2);
    let mut opt = Sgd::new(0.05);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::Ordered(vec![top]));

    // warm every weight cache, then run one step so the loop reaches
    // steady state (each step re-quantizes the block the previous step's
    // optimizer update invalidated)
    model.logits(&tokens, 1).unwrap();
    tuner
        .step(&mut model, &mut opt, &tokens, &tokens, 1)
        .unwrap();

    for it in 0..4 {
        let before = model.block_requant_counts();
        let report = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        let after = model.block_requant_counts();
        let hit = advanced(&before, &after);
        assert_eq!(
            hit,
            vec![top.start],
            "steady-state depth-1 step {it} must re-quantize exactly the trained block"
        );
        assert_eq!(
            report.phases.requant_layers, 1,
            "step report must expose the same count"
        );
        assert!(
            report.phases.cache_invalidations > 0,
            "the window block's caches must be evicted by the update"
        );
    }
}

#[test]
fn round_robin_depth_one_requantizes_one_block_per_step_amortized() {
    // With early-exit forwards a round-robin window re-quantizes a block
    // only when the forward next covers it, so individual steps see 0, 1,
    // or 2 re-quantizations — but a full cycle touches every block exactly
    // once per training visit: n steps, n re-quantizations.
    let mut model = quantized_model(1, BitWidth::W4);
    let n = model.n_layers();
    let tokens = tokens_for(&model, 2);
    let mut opt = Sgd::new(0.05);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    model.logits(&tokens, 1).unwrap();
    // one full warm-up cycle reaches steady state
    for _ in 0..n {
        tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
    }
    for cycle in 0..2 {
        let mut total = 0;
        for _ in 0..n {
            let report = tuner
                .step(&mut model, &mut opt, &tokens, &tokens, 1)
                .unwrap();
            total += report.phases.requant_layers;
        }
        assert_eq!(
            total, n,
            "cycle {cycle}: a depth-1 round-robin cycle re-quantizes each block exactly once"
        );
    }
}

#[test]
fn round_robin_depth_three_requantizes_each_block_once_per_training_visit() {
    // Eight W4 blocks under windows [0,3) [3,6) [5,8). A block re-quantizes
    // on the first forward that covers it after its optimizer update:
    // [0,3) reaches no updated block; [3,6) reaches 0-2 (updated last
    // step) and 5 (updated by the previous cycle's [5,8), uncovered
    // since); [5,8) reaches 3-5 and 6-7. Nine per cycle: one per training
    // visit, and block 5 is trained twice.
    let mut model = deep_quantized_model(1, BitWidth::W4, 8);
    let tokens = tokens_for(&model, 2);
    let mut opt = Sgd::new(0.05);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 3 });
    model.logits(&tokens, 1).unwrap();
    let mut step = |model: &mut EdgeModel| {
        let report = tuner.step(model, &mut opt, &tokens, &tokens, 1).unwrap();
        (report.window, report.phases.requant_layers)
    };
    // one warm-up cycle reaches steady state
    for _ in 0..3 {
        step(&mut model);
    }
    let windows = [(0, 3), (3, 6), (5, 8)];
    for cycle in 0..2 {
        let mut got = Vec::new();
        for &(start, end) in &windows {
            let (window, requants) = step(&mut model);
            assert_eq!(window, LayerWindow { start, end }, "cycle {cycle}");
            got.push(requants);
        }
        assert_eq!(
            got,
            [0, 4, 5],
            "cycle {cycle}: per-step re-quantized blocks"
        );
    }
}

#[test]
fn decode_requantizes_only_on_the_first_pass_of_an_unpacked_model() {
    // Four W4 blocks x four projections; the shared head is uncompressed.
    // On the f32 row-code route and on the W8-activation integer route a
    // packed model decodes without ever re-quantizing, and an unpacked one
    // re-quantizes each projection once, on its first pass.
    for integer in [false, true] {
        for pack in [true, false] {
            let mut model = deep_quantized_model(9, BitWidth::W4, 4);
            if integer {
                let act = QuantScheme::asymmetric(BitWidth::W8);
                for l in 0..model.n_layers() {
                    for lin in model.block_mut(l).linears_mut() {
                        lin.set_activation_quant(Some(act));
                    }
                }
            }
            if pack {
                model.pack_frozen_weights().unwrap();
            }
            let exits = [model.n_layers() - 1];
            let mut kv = SequenceKv::new(&model);
            let requants = |m: &EdgeModel| m.weight_cache_stats().requants;
            let mut per_pass = Vec::new();
            for token in 0..6 {
                let mut steps = [BatchedStep {
                    token,
                    kv: &mut kv,
                    exits: &exits,
                    adapter: None,
                }];
                let at = requants(&model);
                batched_decode_step(&model, &mut steps).unwrap();
                per_pass.push(requants(&model) - at);
            }
            let first = if pack { 0 } else { 16 };
            assert_eq!(
                per_pass,
                [first, 0, 0, 0, 0, 0],
                "integer={integer} pack={pack}"
            );
        }
    }
}

#[test]
fn full_depth_step_requantizes_every_block() {
    let mut model = quantized_model(3, BitWidth::W8);
    let tokens = tokens_for(&model, 4);
    let mut opt = Sgd::new(0.05);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::FullDepth);
    model.logits(&tokens, 1).unwrap();
    tuner
        .step(&mut model, &mut opt, &tokens, &tokens, 1)
        .unwrap();
    let report = tuner
        .step(&mut model, &mut opt, &tokens, &tokens, 1)
        .unwrap();
    assert_eq!(
        report.phases.requant_layers,
        model.n_layers(),
        "a full-depth step re-quantizes every block"
    );
}

#[test]
fn frozen_blocks_keep_packed_weights_across_depth_one_steps() {
    let mut model = quantized_model(5, BitWidth::W4);
    let tokens = tokens_for(&model, 6);
    model.pack_frozen_weights().unwrap();
    let packed_blocks = |m: &EdgeModel| -> Vec<bool> {
        (0..m.n_layers())
            .map(|l| m.block(l).linears().iter().all(|lin| lin.is_packed()))
            .collect()
    };
    assert!(
        packed_blocks(&model).iter().all(|&p| p),
        "pack_frozen_weights packs every quantized projection"
    );

    let mut opt = Sgd::new(0.05);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    tuner
        .step(&mut model, &mut opt, &tokens, &tokens, 1)
        .unwrap();
    let packed = packed_blocks(&model);
    let still_packed = packed.iter().filter(|&&p| p).count();
    assert_eq!(
        still_packed,
        model.n_layers() - 1,
        "only the trained window block may lose its packed codes: {packed:?}"
    );
}

#[test]
fn packed_decode_matches_unpacked_decode_bitwise() {
    // The packed integer-code decode path must generate the same tokens
    // and probabilities as the dense fake-quant path, for every
    // bit-width, seed, and decoding mode.
    run_cases("packed decode equivalence", 8, |g| {
        let bits = *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8]);
        let seed = g.u64();
        let packed_model = quantized_model(seed, bits);
        packed_model.pack_frozen_weights().unwrap();
        let unpacked_model = quantized_model(seed, bits);
        let prompt = vec![1, 2, 3];
        let voting = VotingPolicy::final_only(packed_model.n_layers());
        let decoding = if g.bool() {
            Decoding::Greedy
        } else {
            Decoding::TopK {
                k: 3,
                temperature: g.f32_in(0.5, 1.5),
            }
        };
        let gen_seed = g.u64();
        let mut r1 = TensorRng::seed_from(gen_seed);
        let mut r2 = TensorRng::seed_from(gen_seed);
        let a = generate(&packed_model, &voting, &prompt, 4, decoding, &mut r1).unwrap();
        let b = generate(&unpacked_model, &voting, &prompt, 4, decoding, &mut r2).unwrap();
        assert_eq!(a, b, "packed and dense decode diverged ({bits:?})");
    });
}
