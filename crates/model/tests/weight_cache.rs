//! Staleness suite for the compressed-weight cache.
//!
//! The cache's contract is absolute: after **any** mutation path — an
//! optimizer step through the window visitor, a mask or scheme change, or
//! a checkpoint restore — the cached effective weight must be
//! bit-identical to a freshly recomputed `effective_weight()`. Adapters
//! are applied per row and never merged into a weight, so there is no
//! other write. Each test mutates through one path, then asserts
//! exact equality, so a missed invalidation shows up as a bit diff rather
//! than a subtly drifting model. The mask invariant rides on the same
//! paths: a write through `visit_params` re-masks, and a layer the
//! optimizer does not visit keeps every cached form.

use edge_llm_model::{
    AdaptiveTuner, EdgeModel, Linear, ModelConfig, Sgd, TrainingCheckpoint, WindowSchedule,
};
use edge_llm_prune::magnitude_prune;
use edge_llm_quant::{BitWidth, QuantScheme, QuantizedTensor};
use edge_llm_tensor::{Tensor, TensorRng};
use std::sync::Arc;

fn quantized_model(seed: u64) -> EdgeModel {
    let mut rng = TensorRng::seed_from(seed);
    let mut model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let scheme = QuantScheme::symmetric(BitWidth::W4);
    for l in 0..model.n_layers() {
        install_policy(model.block_mut(l).linears_mut(), scheme);
    }
    model
}

/// W4 on all four projections, and 40% of `fc1` pruned.
fn install_policy([qkv, proj, fc1, fc2]: [&mut Linear; 4], scheme: QuantScheme) {
    for lin in [qkv, proj, &mut *fc1, fc2] {
        lin.set_quant(Some(scheme));
    }
    let mask = magnitude_prune(fc1.weight(), 0.4).unwrap();
    fc1.set_mask(Some(mask)).unwrap();
}

fn tokens_for(model: &EdgeModel, seed: u64) -> Vec<usize> {
    let mut rng = TensorRng::seed_from(seed);
    (0..model.config().seq_len)
        .map(|_| rng.index(model.config().vocab_size))
        .collect()
}

/// Every quantized projection's cache must equal a fresh recompute, bit
/// for bit.
fn assert_caches_fresh(model: &EdgeModel, context: &str) {
    for l in 0..model.n_layers() {
        let [qkv, proj, fc1, fc2] = model.block(l).linears();
        for (name, lin) in [("qkv", qkv), ("proj", proj), ("fc1", fc1), ("fc2", fc2)] {
            let cached = lin.cached_effective_weight().unwrap();
            let fresh = lin.effective_weight().unwrap();
            assert_eq!(
                cached.as_slice(),
                fresh.as_slice(),
                "{context}: stale cache in block {l} {name}"
            );
        }
    }
}

#[test]
fn optimizer_steps_keep_caches_fresh() {
    let mut model = quantized_model(1);
    let tokens = tokens_for(&model, 2);
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    // warm every cache, then run several steps; the tuner's window moves,
    // so different layers mutate on different iterations
    model.logits(&tokens, 1).unwrap();
    for it in 0..4 {
        tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        model.logits(&tokens, 1).unwrap();
        assert_caches_fresh(&model, &format!("after step {it}"));
    }
}

#[test]
fn cached_adaptation_is_bit_identical_to_uncached() {
    // The whole-flow differential: same seed, same data, one model with
    // the cache and a twin whose caches are dropped before every step and
    // every forward, so it recomputes every weight. Logits must agree
    // exactly after every iteration.
    let mut cached = quantized_model(3);
    let mut baseline = quantized_model(3);
    let drop_caches = |m: &mut EdgeModel| m.visit_params_all(&mut |_, _, _| {});
    let tokens = tokens_for(&cached, 4);
    let mut opt_a = Sgd::with_momentum(0.05, 0.9);
    let mut opt_b = Sgd::with_momentum(0.05, 0.9);
    let mut tuner_a = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let mut tuner_b = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    for it in 0..4 {
        let ra = tuner_a
            .step(&mut cached, &mut opt_a, &tokens, &tokens, 1)
            .unwrap();
        drop_caches(&mut baseline);
        let rb = tuner_b
            .step(&mut baseline, &mut opt_b, &tokens, &tokens, 1)
            .unwrap();
        assert_eq!(ra.loss.to_bits(), rb.loss.to_bits(), "loss at step {it}");
        let la = cached.logits(&tokens, 1).unwrap();
        drop_caches(&mut baseline);
        let lb = baseline.logits(&tokens, 1).unwrap();
        assert_eq!(la.as_slice(), lb.as_slice(), "logits at step {it}");
    }
}

#[test]
fn mask_and_scheme_changes_keep_caches_fresh() {
    let mut model = quantized_model(5);
    let tokens = tokens_for(&model, 6);
    model.logits(&tokens, 1).unwrap(); // warm
    {
        let [_, _, _, fc2] = model.block_mut(0).linears_mut();
        let mask = magnitude_prune(fc2.weight(), 0.6).unwrap();
        fc2.set_mask(Some(mask)).unwrap();
    }
    assert_caches_fresh(&model, "after set_mask");
    let [qkv, ..] = model.block_mut(1).linears_mut();
    qkv.set_quant(Some(QuantScheme::symmetric(BitWidth::W2)));
    assert_caches_fresh(&model, "after set_quant");
    let [_, _, fc1, _] = model.block_mut(1).linears_mut();
    fc1.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
    assert_caches_fresh(&model, "after set_activation_quant");
}

/// Every pruned weight of `lin` holds `+0.0`, bit for bit.
fn assert_masked(lin: &Linear, context: &str) {
    let keep = lin.mask().expect("a masked layer").as_slice();
    for (i, (v, &k)) in lin.weight().as_slice().iter().zip(keep).enumerate() {
        assert!(
            k || v.to_bits() == 0,
            "{context}: pruned weight {i} is {v:e}"
        );
    }
}

#[test]
fn a_momentum_step_keeps_frozen_caches_and_masks_the_window() {
    // Velocity built up while the model was dense keeps moving weights the
    // mask later prunes, so each update writes nonzero values at pruned
    // positions and only the re-mask at the write takes them back to zero.
    let mut rng = TensorRng::seed_from(21);
    let mut model = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
    let tokens = tokens_for(&model, 22);
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 2 });
    for _ in 0..2 {
        tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
    }
    for l in 0..model.n_layers() {
        for lin in model.block_mut(l).linears_mut() {
            let mask = magnitude_prune(lin.weight(), 0.5).unwrap();
            lin.set_mask(Some(mask)).unwrap();
            lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        }
    }
    for it in 0..4 {
        // warm both frozen forms: the dense effective weight and row codes
        let dense: Vec<Vec<Arc<Tensor>>> = (0..model.n_layers())
            .map(|l| {
                let b = model.block(l);
                b.linears()
                    .map(|lin| lin.cached_effective_weight().unwrap())
                    .to_vec()
            })
            .collect();
        model.pack_frozen_weights().unwrap();
        let window = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap()
            .window;
        for (l, before) in dense.iter().enumerate() {
            let b = model.block(l);
            for (i, (lin, before)) in b.linears().iter().zip(before).enumerate() {
                let at = format!("step {it}, block {l} projection {i}");
                assert_masked(lin, &at);
                if window.contains(l) {
                    assert!(!lin.has_cached_weight() && !lin.is_packed(), "{at}");
                } else {
                    let now = lin.cached_effective_weight().unwrap();
                    assert!(Arc::ptr_eq(before, &now) && lin.is_packed(), "{at}");
                }
            }
        }
    }
}

#[test]
fn a_checkpoint_restored_onto_a_masked_model_reads_masked_weights() {
    // The snapshot comes from a dense model, so it holds nonzero values at
    // every position the target's masks prune.
    let mut rng = TensorRng::seed_from(23);
    let dense = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let ckpt = TrainingCheckpoint::capture(
        &dense,
        &Sgd::new(0.05),
        0,
        &TensorRng::seed_from(1),
        Vec::new(),
    );
    let mut model = quantized_model(24);
    let tokens = tokens_for(&model, 25);
    model.logits(&tokens, 1).unwrap(); // warm
    ckpt.restore_params(&mut model).unwrap();
    for l in 0..model.n_layers() {
        let fc1 = model.block(l).linears()[2];
        let snap = dense.block(l).linears()[2].weight();
        let keep = fc1.mask().unwrap().as_slice();
        assert!(keep.iter().any(|&k| !k), "block {l} prunes something");
        for (i, ((v, s), &k)) in fc1
            .weight()
            .as_slice()
            .iter()
            .zip(snap.as_slice())
            .zip(keep)
            .enumerate()
        {
            let want = if k { *s } else { 0.0 };
            assert_eq!(v.to_bits(), want.to_bits(), "block {l} weight {i}");
        }
    }
    assert_caches_fresh(&model, "after restore onto masks");
}

#[test]
fn checkpoint_restore_keeps_caches_fresh() {
    let mut model = quantized_model(12);
    let tokens = tokens_for(&model, 13);
    model.logits(&tokens, 1).unwrap(); // warm
    let opt = Sgd::new(0.05);
    let rng = TensorRng::seed_from(14);
    let ckpt = TrainingCheckpoint::capture(&model, &opt, 0, &rng, Vec::new());
    // capture is read-only: caches survive
    assert!(model.block(0).linears()[0].is_packed());
    // drift the weights, then restore the snapshot
    model.visit_params_all(&mut |_, p, _| {
        for v in p.iter_mut() {
            *v += 0.125;
        }
    });
    ckpt.restore_params(&mut model).unwrap();
    assert_caches_fresh(&model, "after restore_params");
    // restored model behaves identically to one rebuilt from the snapshot
    let rebuilt = ckpt.build_model().unwrap();
    // (rebuilt has no quant schemes — compression is runtime state — so
    // compare the raw parameter stream instead of logits)
    let mut a = Vec::new();
    model.visit_params_all_ro(&mut |_, p| a.extend_from_slice(p));
    let mut b = Vec::new();
    rebuilt.visit_params_all_ro(&mut |_, p| b.extend_from_slice(p));
    assert_eq!(a.len(), b.len());
}

#[test]
fn model_file_roundtrip_keeps_caches_fresh_and_bytes_stable() {
    let model = quantized_model(15);
    let tokens = tokens_for(&model, 16);
    let before = model.logits(&tokens, 1).unwrap();
    // save is read-only: caches survive, and saving twice yields the same
    // bytes (the ro visitor is deterministic)
    let save = |model: &EdgeModel| {
        let (opt, rng) = (Sgd::new(0.05), TensorRng::seed_from(14));
        let mut bytes = Vec::new();
        TrainingCheckpoint::capture(model, &opt, 0, &rng, Vec::new())
            .write_to(&mut bytes)
            .unwrap();
        bytes
    };
    let bytes = save(&model);
    assert!(model.block(0).linears()[0].is_packed());
    assert_eq!(bytes, save(&model));
    // load invalidates by construction (fresh model); once the policy is
    // re-applied the logits match exactly
    let mut loaded = TrainingCheckpoint::read_from(&mut bytes.as_slice())
        .unwrap()
        .build_model()
        .unwrap();
    let scheme = QuantScheme::symmetric(BitWidth::W4);
    for l in 0..loaded.n_layers() {
        install_policy(loaded.block_mut(l).linears_mut(), scheme);
    }
    let after = loaded.logits(&tokens, 1).unwrap();
    assert_eq!(before.as_slice(), after.as_slice());
    assert_caches_fresh(&loaded, "after load + policy");
}

#[test]
fn packed_decode_stays_fresh_across_repacking() {
    let mut model = quantized_model(17);
    let tokens = tokens_for(&model, 18);
    model.pack_frozen_weights().unwrap();
    let packed = model.logits(&tokens, 1).unwrap();
    // mutate one layer (its first weight and first bias): its packed codes
    // must be dropped and rebuilt
    {
        let [qkv, ..] = model.block_mut(0).linears_mut();
        qkv.visit_params(&mut |p, _| p[0] += 1.0);
        assert!(!qkv.is_packed(), "mutation must drop packed codes");
    }
    let dense = model.logits(&tokens, 1).unwrap();
    assert_ne!(packed.as_slice(), dense.as_slice());
    model.pack_frozen_weights().unwrap();
    let repacked = model.logits(&tokens, 1).unwrap();
    assert_eq!(dense.as_slice(), repacked.as_slice());
    assert_caches_fresh(&model, "after repack");
}

#[test]
fn standalone_linear_staleness_matrix() {
    // The unit-level sweep: one mutation per case, exact equality after.
    let mut rng = TensorRng::seed_from(19);
    let fresh = |l: &Linear| l.effective_weight().unwrap().into_owned();
    type Mutation = Box<dyn Fn(&mut Linear)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "visit_params",
            Box::new(|l: &mut Linear| {
                l.visit_params(&mut |p, _| {
                    for v in p.iter_mut() {
                        *v *= 1.0625;
                    }
                });
            }),
        ),
        (
            "set_mask",
            Box::new(|l: &mut Linear| {
                let mask = magnitude_prune(l.weight(), 0.3).unwrap();
                l.set_mask(Some(mask)).unwrap();
            }),
        ),
        (
            "set_quant",
            Box::new(|l: &mut Linear| {
                l.set_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
            }),
        ),
        (
            "visit_params over a mask",
            Box::new(|l: &mut Linear| {
                let mask = magnitude_prune(l.weight(), 0.5).unwrap();
                l.set_mask(Some(mask)).unwrap();
                l.visit_params(&mut |p, _| {
                    for v in p.iter_mut() {
                        *v += 0.25;
                    }
                });
            }),
        ),
    ];
    for (name, mutate) in mutations {
        let mut l = Linear::new(16, 12, &mut rng);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        let _ = l.cached_effective_weight().unwrap();
        l.pack_weights().unwrap();
        mutate(&mut l);
        let cached = l.cached_effective_weight().unwrap();
        assert_eq!(
            cached.as_slice(),
            fresh(&l).as_slice(),
            "stale cache after {name}"
        );
    }
}

#[test]
fn the_tuner_holds_codes_and_no_dense_copy_outside_its_window() {
    // W4 attention, W2 MLP, a quarter of fc1 pruned: over a full
    // round-robin cycle the blocks a step walks frozen hold their row
    // codes and nothing else, the window's blocks hold nothing once the
    // optimizer has written them, and no block outside the window ever
    // holds a dense copy. A frozen forward between steps packs every block.
    let mut rng = TensorRng::seed_from(31);
    let mut model = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
    let (w4, w2) = (
        QuantScheme::symmetric(BitWidth::W4),
        QuantScheme::symmetric(BitWidth::W2),
    );
    for l in 0..model.n_layers() {
        let [qkv, proj, fc1, fc2] = model.block_mut(l).linears_mut();
        qkv.set_quant(Some(w4));
        proj.set_quant(Some(w4));
        fc1.set_quant(Some(w2));
        fc2.set_quant(Some(w2));
        let mask = magnitude_prune(fc1.weight(), 0.25).unwrap();
        fc1.set_mask(Some(mask)).unwrap();
    }
    let tokens = tokens_for(&model, 32);
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    // a block holds its row codes, at exactly their bytes, and no dense copy
    let holds_codes = |lin: &Linear| {
        let codes = QuantizedTensor::quantize(lin.weight(), lin.quant().unwrap()).unwrap();
        lin.is_packed()
            && !lin.has_cached_weight()
            && lin.weight_storage_bytes() == codes.storage_bytes()
    };
    for it in 0..2 * model.n_layers() {
        let window = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap()
            .window;
        for l in 0..model.n_layers() {
            let at = format!("step {it}, window {window:?}, block {l}");
            for lin in model.block(l).linears() {
                if l < window.start {
                    assert!(holds_codes(lin), "{at}: frozen prefix");
                } else if window.contains(l) {
                    assert!(!lin.is_packed() && !lin.has_cached_weight(), "{at}");
                } else {
                    assert!(!lin.has_cached_weight(), "{at}: above the exit");
                }
            }
        }
        model.logits(&tokens, 1).unwrap();
        for l in 0..model.n_layers() {
            for lin in model.block(l).linears() {
                assert!(holds_codes(lin), "step {it}, block {l} after logits");
            }
        }
    }
}
