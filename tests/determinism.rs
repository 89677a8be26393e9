//! Cross-thread-count determinism of the full adaptation stack.
//!
//! The kernel backend guarantees that the worker count changes wall-clock
//! only, never results. These tests hold the whole training loop to that
//! guarantee: the same short adaptation run under 1, 2, 4, and 8 threads
//! must produce **byte-identical** final parameters and byte-identical
//! training checkpoints, and the pipeline must report identical modeled
//! and measured-quality numbers.
//!
//! The thread knob is process-wide, so every test here drives the runs
//! sequentially under a shared lock and restores the serial default when
//! it finishes.

use edge_llm::baselines::uniform_policy_for_budget;
use edge_llm::compress::apply_policy;
use edge_llm::pipeline::{run_method_with, ExperimentConfig, Method};
use edge_llm::resilience::{resilient_adapt, ResilienceConfig, RunMeta};
use edge_llm_data::{Dataset, ModArithTask, TaskGenerator};
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, ModelConfig, Sgd, TrainingCheckpoint, WindowSchedule,
};
use edge_llm_tensor::{set_configured_threads, TensorRng};
use std::sync::Mutex;

/// Serializes tests that touch the process-wide thread setting.
static KNOB: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn setup(seed: u64) -> (EdgeModel, Sgd, TensorRng, Dataset) {
    let task = ModArithTask::new(7);
    let mut rng = TensorRng::seed_from(seed);
    let cfg = ModelConfig::tiny().with_vocab(task.vocab_size());
    let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let ds = Dataset::from_samples((0..8).map(|_| task.sample(cfg.seq_len, &mut rng)).collect());
    (model, Sgd::new(0.05), rng, ds)
}

/// One short compressed windowed adaptation run under `threads` workers;
/// returns the final parameter bits and the serialized training
/// checkpoint captured at the end.
fn adapt_under(threads: usize) -> (Vec<u32>, Vec<u8>) {
    const ITERS: usize = 8;
    set_configured_threads(threads);
    let (mut model, mut opt, mut rng, ds) = setup(23);
    let policy = uniform_policy_for_budget(model.n_layers(), 0.5);
    apply_policy(&mut model, &policy).unwrap();
    let extra = RunMeta {
        policy,
        data_seed: 23,
        window: 1,
    }
    .encode();
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        ITERS,
        extra.clone(),
        &ResilienceConfig::default(),
    )
    .unwrap();
    let mut params = Vec::new();
    model.visit_params_all_ro(&mut |_, p| params.extend(p.iter().map(|v| v.to_bits())));
    let ckpt = TrainingCheckpoint::capture(&model, &opt, ITERS as u64, &rng, extra);
    let mut ckpt_bytes = Vec::new();
    ckpt.write_to(&mut ckpt_bytes).unwrap();
    (params, ckpt_bytes)
}

#[test]
fn adaptation_is_byte_identical_for_every_thread_count() {
    let _guard = KNOB.lock().unwrap();
    let (ref_params, ref_ckpt) = adapt_under(1);
    for t in &THREAD_COUNTS[1..] {
        let (params, ckpt) = adapt_under(*t);
        assert_eq!(ref_params, params, "parameters drifted at {t} threads");
        assert_eq!(ref_ckpt, ckpt, "checkpoint drifted at {t} threads");
    }
    set_configured_threads(1);
}

#[test]
fn pipeline_numbers_are_thread_count_invariant() {
    let _guard = KNOB.lock().unwrap();
    let cfg = ExperimentConfig::smoke_test();
    set_configured_threads(1);
    let reference = run_method_with(Method::EdgeLlm, &cfg, &ResilienceConfig::default()).unwrap();
    for t in [2usize, 4] {
        set_configured_threads(t);
        let out = run_method_with(Method::EdgeLlm, &cfg, &ResilienceConfig::default()).unwrap();
        assert_eq!(reference.accuracy, out.accuracy, "accuracy at {t} threads");
        assert_eq!(
            reference.perplexity, out.perplexity,
            "perplexity at {t} threads"
        );
        assert_eq!(
            reference.final_loss, out.final_loss,
            "final loss at {t} threads"
        );
        assert_eq!(
            reference.modeled_iter_us, out.modeled_iter_us,
            "modeled latency at {t} threads"
        );
        assert_eq!(out.threads, t, "outcome did not record the thread count");
    }
    set_configured_threads(1);
}
