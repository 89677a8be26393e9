//! Integration tests for the fault-tolerant adaptation runtime:
//! kill-and-resume equivalence, per-fault-class recovery, rollback-driven
//! window degradation, and corrupt checkpoint handling.

use edge_llm::baselines::uniform_policy_for_budget;
use edge_llm::compress::apply_policy;
use edge_llm::pipeline::{run_method_with, ExperimentConfig, Method};
use edge_llm::resilience::{
    resilient_adapt, restore_run, FaultKind, PlannedFault, RecoveryEvent, ResilienceConfig, RunMeta,
};
use edge_llm::EdgeLlmError;
use edge_llm_data::{Dataset, ModArithTask, TaskGenerator};
use edge_llm_luc::CompressionPolicy;
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, ModelConfig, ModelError, Sgd, TrainingCheckpoint, WindowSchedule,
};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::{fnv1a64, set_configured_threads, Tensor, TensorRng};

fn setup(seed: u64) -> (EdgeModel, Sgd, TensorRng, Dataset) {
    let task = ModArithTask::new(7);
    let mut rng = TensorRng::seed_from(seed);
    let cfg = ModelConfig::tiny().with_vocab(task.vocab_size());
    let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let ds = Dataset::from_samples((0..8).map(|_| task.sample(cfg.seq_len, &mut rng)).collect());
    (model, Sgd::new(0.05), rng, ds)
}

/// Every parameter's bit pattern, in checkpoint order.
fn model_bits(model: &EdgeModel) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_params_all_ro(&mut |_, p| bits.extend(p.iter().map(|v| v.to_bits())));
    bits
}

/// The checkpoint blob of a run under `policy` (the seed and window are
/// carried, not interpreted, by everything in this file).
fn meta_blob(policy: &CompressionPolicy) -> Vec<u8> {
    RunMeta {
        policy: policy.clone(),
        data_seed: 0,
        window: 1,
    }
    .encode()
}

/// Runs `total` iterations straight through, then replays the same run
/// interrupted at `cut` — serialized to checkpoint bytes, reloaded in a
/// fresh "process", and resumed — and requires bit-identical parameters.
fn assert_kill_and_resume_identical(policy: &CompressionPolicy, schedule: WindowSchedule) {
    const TOTAL: usize = 10;
    const CUT: usize = 4;
    let res = ResilienceConfig::default();

    let (mut model, mut opt, mut rng, ds) = setup(11);
    apply_policy(&mut model, policy).unwrap();
    let mut tuner = AdaptiveTuner::new(schedule.clone());
    resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        TOTAL,
        meta_blob(policy),
        &res,
    )
    .unwrap();
    let straight = model_bits(&model);

    let (mut model, mut opt, mut rng, ds) = setup(11);
    apply_policy(&mut model, policy).unwrap();
    let mut tuner = AdaptiveTuner::new(schedule.clone());
    resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        CUT,
        meta_blob(policy),
        &res,
    )
    .unwrap();
    let ckpt = TrainingCheckpoint::capture(&model, &opt, CUT as u64, &rng, meta_blob(policy));
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).unwrap();

    // everything below uses only the serialized bytes — a fresh process
    let loaded = TrainingCheckpoint::read_from(&mut bytes.as_slice()).unwrap();
    let (mut model2, mut opt2, mut rng2, meta2) = restore_run(&loaded).unwrap();
    assert_eq!(&meta2.policy, policy);
    let mut tuner2 = AdaptiveTuner::new(schedule);
    tuner2.set_iteration(loaded.iteration as usize);
    resilient_adapt(
        &mut model2,
        &mut opt2,
        &mut tuner2,
        &mut rng2,
        &ds,
        2,
        TOTAL,
        meta2.encode(),
        &res,
    )
    .unwrap();
    assert_eq!(
        straight,
        model_bits(&model2),
        "resumed run drifted from straight run"
    );
}

#[test]
fn kill_and_resume_is_bit_identical_vanilla() {
    let policy = CompressionPolicy::identity(ModelConfig::tiny().n_layers);
    assert_kill_and_resume_identical(&policy, WindowSchedule::FullDepth);
}

#[test]
fn kill_and_resume_is_bit_identical_edge_llm() {
    // compressed model (masks + fake-quant hooks) with windowed backprop
    let policy = uniform_policy_for_budget(ModelConfig::tiny().n_layers, 0.5);
    assert_kill_and_resume_identical(&policy, WindowSchedule::RoundRobin { depth: 1 });
}

/// A run killed under one thread count and resumed under a *different*
/// one must still match the straight run bit-for-bit: the checkpoint
/// carries no threading state because none exists — the worker count is
/// pure wall-clock configuration.
#[test]
fn kill_and_resume_with_different_thread_count_is_bit_identical() {
    const TOTAL: usize = 10;
    const CUT: usize = 4;
    let res = ResilienceConfig::default();
    let policy = uniform_policy_for_budget(ModelConfig::tiny().n_layers, 0.5);
    let schedule = WindowSchedule::RoundRobin { depth: 1 };

    // straight run, serial
    set_configured_threads(1);
    let (mut model, mut opt, mut rng, ds) = setup(17);
    apply_policy(&mut model, &policy).unwrap();
    let mut tuner = AdaptiveTuner::new(schedule.clone());
    resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        TOTAL,
        meta_blob(&policy),
        &res,
    )
    .unwrap();
    let straight = model_bits(&model);

    // the same run killed at CUT under 2 threads...
    set_configured_threads(2);
    let (mut model, mut opt, mut rng, ds) = setup(17);
    apply_policy(&mut model, &policy).unwrap();
    let mut tuner = AdaptiveTuner::new(schedule.clone());
    resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        CUT,
        meta_blob(&policy),
        &res,
    )
    .unwrap();
    let ckpt = TrainingCheckpoint::capture(&model, &opt, CUT as u64, &rng, meta_blob(&policy));
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).unwrap();

    // ...and resumed from the serialized bytes under 4 threads
    set_configured_threads(4);
    let loaded = TrainingCheckpoint::read_from(&mut bytes.as_slice()).unwrap();
    let (mut model2, mut opt2, mut rng2, meta2) = restore_run(&loaded).unwrap();
    let mut tuner2 = AdaptiveTuner::new(schedule);
    tuner2.set_iteration(loaded.iteration as usize);
    resilient_adapt(
        &mut model2,
        &mut opt2,
        &mut tuner2,
        &mut rng2,
        &ds,
        2,
        TOTAL,
        meta2.encode(),
        &res,
    )
    .unwrap();
    let resumed = model_bits(&model2);
    set_configured_threads(1);
    assert_eq!(
        straight, resumed,
        "resume under a different thread count drifted"
    );
}

/// A plan of one `kind` fault at each of `iterations`.
fn fault_plan(kind: FaultKind, iterations: &[u64]) -> ResilienceConfig {
    ResilienceConfig {
        faults: iterations
            .iter()
            .map(|&at_iteration| PlannedFault { at_iteration, kind })
            .collect(),
        ..ResilienceConfig::default()
    }
}

#[test]
fn every_fault_class_recovers_or_degrades() {
    let cfg = ExperimentConfig::smoke_test();
    for kind in [
        FaultKind::FlipGradBit { bit: 30 },
        FaultKind::NanGrad,
        FaultKind::NanParam,
    ] {
        let out = run_method_with(Method::Vanilla, &cfg, &fault_plan(kind, &[2])).unwrap();
        let events = out.journal.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::FaultInjected { .. })),
            "{kind:?}: no fault recorded in {events:?}"
        );
        assert!((0.0..=1.0).contains(&out.accuracy), "{kind:?}");
        if !matches!(kind, FaultKind::FlipGradBit { .. }) {
            assert!(
                out.journal.rollbacks() >= 1,
                "{kind:?}: no rollback in {events:?}"
            );
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, RecoveryEvent::DivergenceDetected { .. })),
                "{kind:?}: divergence not detected in {events:?}"
            );
        }
    }
}

/// Repeated rollbacks are what shrinks the window: the second one halves
/// the smoke model's full depth, and the run still finishes.
#[test]
fn second_rollback_degrades_the_window_and_the_run_finishes() {
    let cfg = ExperimentConfig::smoke_test();
    let out = run_method_with(
        Method::Vanilla,
        &cfg,
        &fault_plan(FaultKind::NanGrad, &[1, 3]),
    )
    .unwrap();
    let events = out.journal.events();
    assert_eq!(out.journal.rollbacks(), 2, "{}", out.journal);
    let degraded: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::WindowDegraded {
                old_depth,
                new_depth,
                ..
            } => Some((*old_depth, *new_depth)),
            _ => None,
        })
        .collect();
    assert_eq!(degraded, [(2, 1)], "{}", out.journal);
    assert!(matches!(
        events.last(),
        Some(RecoveryEvent::WindowDegraded { .. })
    ));
    assert!(out.final_loss.is_finite());
    assert!(out.perplexity.is_finite());
}

#[test]
fn exhausted_rollback_budget_fails_typed() {
    // a fault poisons parameters its step writes, and the guard trips
    // once a later step's forward reads them — up to two steps later
    // after degradation to a one-layer window — so the four faults are
    // spaced three iterations apart
    let cfg = ExperimentConfig {
        iterations: 12,
        ..ExperimentConfig::smoke_test()
    };
    let res = fault_plan(FaultKind::NanParam, &[1, 4, 7, 10]);
    match run_method_with(Method::Vanilla, &cfg, &res) {
        Err(EdgeLlmError::Diverged { rollbacks, .. }) => assert_eq!(rollbacks, 3),
        other => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn corrupted_checkpoint_bytes_are_rejected() {
    let (model, opt, rng, _ds) = setup(3);
    let ckpt = TrainingCheckpoint::capture(&model, &opt, 5, &rng, b"p=1".to_vec());
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).unwrap();

    assert!(TrainingCheckpoint::read_from(&mut &bytes[..bytes.len() - 3]).is_err());
    assert!(TrainingCheckpoint::read_from(&mut &bytes[..4]).is_err());
    for idx in [9usize, bytes.len() / 2, bytes.len() - 1] {
        let mut flipped = bytes.clone();
        flipped[idx] ^= 0x10;
        assert!(
            TrainingCheckpoint::read_from(&mut flipped.as_slice()).is_err(),
            "flip at {idx} accepted"
        );
    }
}

/// What was adapted is what runs: a LUC-shaped policy (a different
/// bit-width and pruning ratio per layer), a few windowed steps, then the
/// whole deployment round trip — capture, serialize, parse, restore —
/// must hand back a model whose every exit computes the live model's
/// logits bit for bit.
#[test]
fn restored_checkpoint_computes_the_adapted_models_logits_bit_for_bit() {
    let (mut model, mut opt, mut rng, ds) = setup(29);
    let policy = CompressionPolicy::parse_compact("8:0.25,4:0.5").unwrap();
    apply_policy(&mut model, &policy).unwrap();
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        5,
        meta_blob(&policy),
        &ResilienceConfig::default(),
    )
    .unwrap();

    let ckpt = TrainingCheckpoint::capture(&model, &opt, 5, &rng, meta_blob(&policy));
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).unwrap();
    let loaded = TrainingCheckpoint::read_from(&mut bytes.as_slice()).unwrap();
    let (restored, ..) = restore_run(&loaded).unwrap();

    let b = ds.batch_at(0, 1);
    let exits: Vec<usize> = (0..model.n_layers()).collect();
    let live = model.logits_at_exits(&b.tokens, 1, &exits).unwrap();
    let back = restored.logits_at_exits(&b.tokens, 1, &exits).unwrap();
    let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
    for (exit, (a, b)) in live.iter().zip(&back).enumerate() {
        assert_eq!(bits(a), bits(b), "exit {exit} drifted");
    }
}

/// `payload` inside a sound envelope (magic, length, FNV-1a), so damage to
/// the payload reaches the parser instead of stopping at the checksum.
fn framed(payload: &[u8]) -> Vec<u8> {
    let sum = fnv1a64(payload);
    let mut bytes = b"EDGELLM\x02".to_vec();
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// The checkpoint file is the softest input the system reads. Damage a
/// good payload every way a disk or an attacker might — flipped bits,
/// overwritten count and dimension fields, truncation — re-checksum it so
/// the parser body runs, and require a typed error or a usable value from
/// the parse and the restore, never a panic or a runaway allocation.
#[test]
fn damaged_payloads_fail_typed_or_restore_never_panic() {
    let (mut model, opt, rng, _ds) = setup(41);
    let policy = CompressionPolicy::parse_compact("4:0.5,8:0.25").unwrap();
    apply_policy(&mut model, &policy).unwrap();
    let mut good = Vec::new();
    TrainingCheckpoint::capture(&model, &opt, 3, &rng, meta_blob(&policy))
        .write_to(&mut good)
        .unwrap();
    let payload = &good[16..good.len() - 8];
    assert_eq!(framed(payload), good, "the test frames as the writer does");

    // header fields, then the byte ranges around them: the parameter
    // block dominates the file, so uniform positions alone would almost
    // never touch a count, the RNG state or the run metadata
    let header = 8 * 8;
    let tail = payload.len() - 160;
    let (mut rejected, mut restored) = (0usize, 0usize);
    run_cases("damaged checkpoint payloads", 400, |g| {
        let mut bad = payload.to_vec();
        for _ in 0..g.usize_in(1, 4) {
            let at = match g.usize_in(0, 3) {
                0 => g.usize_in(0, header),
                1 => g.usize_in(tail, bad.len() - 8),
                _ => g.usize_in(0, bad.len() - 8),
            };
            match g.usize_in(0, 4) {
                0 => bad[at] ^= 1 << g.usize_in(0, 8),
                1 => {
                    let field = at / 8 * 8;
                    let lie = *g.choose(&[0, 1, 1 << 24, 1 << 40, 1 << 62, u64::MAX]);
                    bad[field..field + 8].copy_from_slice(&lie.to_le_bytes());
                }
                2 => bad[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes()),
                _ => {
                    bad.truncate(at);
                    break;
                }
            }
        }
        let parsed = TrainingCheckpoint::read_from(&mut framed(&bad).as_slice());
        match parsed
            .map_err(EdgeLlmError::from)
            .and_then(|c| restore_run(&c))
        {
            Ok((model, ..)) => {
                // a value is a model whose forward runs, or refuses
                // non-finite weights with an error of its own
                let tokens = vec![0; model.config().seq_len];
                let _ = model.logits(&tokens, 1);
                restored += 1;
            }
            Err(EdgeLlmError::Model(ModelError::Checkpoint { .. }))
            | Err(EdgeLlmError::Model(ModelError::BadConfig { .. }))
            | Err(EdgeLlmError::Luc(_))
            | Err(EdgeLlmError::BadConfig { .. }) => rejected += 1,
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    });
    assert!(rejected > 50 && restored > 50, "{rejected} / {restored}");
}
