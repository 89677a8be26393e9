//! Cross-thread-count determinism of the full adaptation stack.
//!
//! The kernel backend guarantees that the worker count changes wall-clock
//! only, never results. These tests hold the whole training loop to that
//! guarantee: the same short adaptation run under 1, 2, 4, and 8 threads
//! must produce **byte-identical** final parameters and byte-identical
//! training checkpoints, re-quantize the same layers at every step and
//! move the weight-cache counters by the same amounts, and the pipeline
//! must report identical modeled and measured-quality numbers.
//!
//! The thread knob is process-wide, so every test here drives the runs
//! sequentially under a shared lock and restores the serial default when
//! it finishes.

use edge_llm::baselines::uniform_policy_for_budget;
use edge_llm::compress::apply_policy;
use edge_llm::pipeline::{run_method_with, ExperimentConfig, Method};
use edge_llm::resilience::{resilient_adapt, ResilienceConfig, RunMeta};
use edge_llm_data::{ClozeQaTask, Dataset, TaskGenerator};
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, ModelConfig, Sgd, TrainingCheckpoint, WindowSchedule,
};
use edge_llm_tensor::{set_configured_threads, TensorRng};
use std::sync::Mutex;

/// Serializes tests that touch the process-wide thread setting.
static KNOB: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn setup(seed: u64) -> (EdgeModel, Sgd, TensorRng, Dataset) {
    let task = ClozeQaTask::new(4, 2);
    let mut rng = TensorRng::seed_from(seed);
    let cfg = ModelConfig::tiny().with_vocab(task.vocab_size());
    let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let ds = task.dataset(8, cfg.seq_len, &mut rng);
    (model, Sgd::new(0.05), rng, ds)
}

/// What one adaptation run leaves behind that must not depend on the
/// thread count.
struct Adapted {
    /// The final parameter bits.
    params: Vec<u32>,
    /// The serialized training checkpoint captured at the end.
    ckpt: Vec<u8>,
    /// Per step, the layers that re-quantized and the cache evictions.
    steps: Vec<(u64, u64)>,
    /// The run's model-wide weight-cache deltas: requants, invalidations.
    cache: (u64, u64),
}

/// One short compressed windowed adaptation run under `threads` workers,
/// driven one iteration per `resilient_adapt` call so each step's phase
/// counters can be read.
fn adapt_under(threads: usize) -> Adapted {
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
    let cache_before = model.weight_cache_stats();
    let steps = (1..=ITERS)
        .map(|it| {
            let run = resilient_adapt(
                &mut model,
                &mut opt,
                &mut tuner,
                &mut rng,
                &ds,
                2,
                it,
                extra.clone(),
                &ResilienceConfig::default(),
            )
            .unwrap();
            assert_eq!(run.steps_executed, 1, "iteration {it} at {threads} threads");
            (run.phases.requant_layers, run.phases.cache_invalidations)
        })
        .collect();
    let cache_after = model.weight_cache_stats();
    let mut params = Vec::new();
    model.visit_params_all_ro(&mut |_, p| params.extend(p.iter().map(|v| v.to_bits())));
    let ckpt = TrainingCheckpoint::capture(&model, &opt, ITERS as u64, &rng, extra);
    let mut ckpt_bytes = Vec::new();
    ckpt.write_to(&mut ckpt_bytes).unwrap();
    Adapted {
        params,
        ckpt: ckpt_bytes,
        steps,
        cache: (
            cache_after.requants - cache_before.requants,
            cache_after.invalidations - cache_before.invalidations,
        ),
    }
}

#[test]
fn adaptation_is_byte_identical_for_every_thread_count() {
    let _guard = KNOB.lock().unwrap();
    let want = adapt_under(1);
    for t in &THREAD_COUNTS[1..] {
        let got = adapt_under(*t);
        assert_eq!(want.params, got.params, "parameters drifted at {t} threads");
        assert_eq!(want.ckpt, got.ckpt, "checkpoint drifted at {t} threads");
        assert_eq!(want.steps, got.steps, "step requants at {t} threads");
        assert_eq!(want.cache, got.cache, "cache counters at {t} threads");
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
    }
    set_configured_threads(1);
}
