//! The end-to-end Edge-LLM adaptation pipeline and its baselines.
//!
//! Every adaptation in the repo is the same two stages: [`prepare`]
//! (build, sample, pretrain on a source task) and [`adapt`] (install a
//! compression policy, tune a window schedule under the resilient
//! runtime). [`run_method`] picks the policy and schedule a [`Method`]
//! names, runs both stages, evaluates with or without exit voting, and
//! reports task quality together with measured and modeled efficiency;
//! the ablation tables in [`crate::experiments`] call the stages with
//! their own policy and schedule.

use crate::baselines::uniform_policy_for_budget;
use crate::compress::apply_policy;
use crate::eval::{evaluate, EvalResult};
use crate::oracle::ModelOracle;
use crate::resilience::{
    resilient_adapt, schedule_depth, AdaptRun, RecoveryJournal, ResilienceConfig, RunMeta,
};
use crate::schedule::modeled_training_iteration;
use crate::EdgeLlmError;
use edge_llm_data::{ClozeQaTask, CopyTask, Dataset, MarkovTextTask, ModArithTask, TaskGenerator};
use edge_llm_hw::DeviceModel;
use edge_llm_luc::{profile, search_policy, CompressionPolicy, SearchAlgorithm};
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, LayerWindow, ModelConfig, Sgd, VotingCombiner, VotingPolicy,
    WindowSchedule,
};
use edge_llm_quant::BitWidth;
use edge_llm_tensor::TensorRng;

/// Which synthetic adaptation task to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Templated subject–relation–object QA (commonsense-QA stand-in).
    ClozeQa {
        /// Number of subjects in the knowledge base.
        subjects: usize,
        /// Number of relations per subject.
        relations: usize,
    },
    /// Markov-chain language modelling.
    Markov {
        /// Successors per state.
        branching: usize,
    },
    /// Sequence copy.
    Copy {
        /// Symbol alphabet size.
        symbols: usize,
    },
    /// Modular arithmetic cloze.
    ModArith {
        /// Modulus.
        modulus: usize,
    },
}

impl TaskKind {
    /// Instantiates the generator (the adaptation target).
    pub fn build(&self) -> Box<dyn TaskGenerator> {
        self.build_with_salt(0)
    }

    /// Instantiates a *different* task of the same shape (same vocabulary,
    /// different underlying knowledge/chain). Salt 0 is the adaptation
    /// target; other salts give pretraining/source tasks — the model is
    /// pretrained on one knowledge base and must adapt to another, which
    /// is the paper's continuous-adaptation setting.
    pub fn build_with_salt(&self, salt: u64) -> Box<dyn TaskGenerator> {
        match *self {
            TaskKind::ClozeQa {
                subjects,
                relations,
            } => Box::new(ClozeQaTask::with_seed(
                subjects,
                relations,
                0x5eed ^ (salt * 0x9e37),
            )),
            TaskKind::Markov { branching } => {
                Box::new(MarkovTextTask::new(64, branching, 0xeda ^ (salt * 0x9e37)))
            }
            TaskKind::Copy { symbols } => Box::new(CopyTask::new(symbols)),
            TaskKind::ModArith { modulus } => Box::new(ModArithTask::new(modulus)),
        }
    }
}

/// The adaptation method under test — one table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Vanilla full tuning: no compression, full-depth backprop.
    Vanilla,
    /// Uniform compression at the budget + full-depth tuning.
    UniformCompressed,
    /// Full Edge-LLM: LUC policy + adaptive layer tuning + voting.
    EdgeLlm,
    /// Edge-LLM without the voting combiner (last-exit inference) — the
    /// voting ablation of T3.
    EdgeLlmNoVoting,
    /// Edge-LLM with the greedy LUC search instead of DP — the search
    /// ablation of T2.
    EdgeLlmGreedyLuc,
    /// Parameter-efficient baseline: freeze everything except the last
    /// block and its head (the head-tuning PEFT comparison row of T1).
    LastLayerOnly,
}

impl Method {
    /// Stable row label.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Vanilla => "vanilla-ft",
            Method::UniformCompressed => "uniform+ft",
            Method::EdgeLlm => "edge-llm",
            Method::EdgeLlmNoVoting => "edge-llm (no vote)",
            Method::EdgeLlmGreedyLuc => "edge-llm (greedy)",
            Method::LastLayerOnly => "last-layer-ft",
        }
    }
}

/// Full configuration for one adaptation experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Model shape (the vocabulary is overridden by the task's).
    pub model: ModelConfig,
    /// Task to adapt on.
    pub task: TaskKind,
    /// Master seed (model init, data, schedules).
    pub seed: u64,
    /// Training-set size in samples.
    pub train_samples: usize,
    /// Evaluation-set size in samples.
    pub eval_samples: usize,
    /// Sequences per batch.
    pub batch: usize,
    /// Adaptation iterations.
    pub iterations: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// LUC mean-cost budget (1.0 = uncompressed).
    pub budget: f32,
    /// Adaptive-tuning backprop depth (layers per window).
    pub window_depth: usize,
    /// Device used for modeled latency.
    pub device: DeviceModel,
    /// Pretraining iterations on a source task of the same shape before
    /// adaptation (0 = adapt from random initialization). Pretraining uses
    /// deep supervision so every early-exit head is functional — the state
    /// a deployed model arrives on-device with.
    pub pretrain_iterations: usize,
}

impl ExperimentConfig {
    /// A seconds-scale configuration used by tests and doctests.
    pub fn smoke_test() -> Self {
        ExperimentConfig {
            model: ModelConfig::tiny().with_layers(2),
            task: TaskKind::ClozeQa {
                subjects: 8,
                relations: 2,
            },
            seed: 7,
            train_samples: 8,
            eval_samples: 4,
            batch: 2,
            iterations: 6,
            lr: 0.05,
            budget: 0.3,
            window_depth: 1,
            device: DeviceModel::jetson_class(),
            pretrain_iterations: 0,
        }
    }

    /// The default table configuration: an 8-layer model pretrained on a
    /// source knowledge base, then adapted to a new one under a 0.25
    /// compute budget with 3-layer backprop windows — the configuration
    /// that lands at the paper's ~2.9x per-iteration speedup.
    pub fn edge_default() -> Self {
        ExperimentConfig {
            model: ModelConfig::edge_base()
                .with_d_model(64, 4)
                .with_seq_len(48),
            task: TaskKind::ClozeQa {
                subjects: 16,
                relations: 2,
            },
            seed: 42,
            train_samples: 32,
            eval_samples: 16,
            batch: 2,
            iterations: 400,
            lr: 0.1,
            budget: 0.25,
            window_depth: 3,
            device: DeviceModel::jetson_class(),
            pretrain_iterations: 400,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeLlmError::BadConfig`] for zero-sized knobs.
    pub fn validate(&self) -> Result<(), EdgeLlmError> {
        if self.train_samples == 0
            || self.eval_samples == 0
            || self.batch == 0
            || self.iterations == 0
        {
            return Err(EdgeLlmError::BadConfig {
                reason: "all sizes must be positive".into(),
            });
        }
        if self.window_depth == 0 {
            return Err(EdgeLlmError::BadConfig {
                reason: "window depth must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.budget) {
            return Err(EdgeLlmError::BadConfig {
                reason: "budget must be in [0,1]".into(),
            });
        }
        self.model.validate().map_err(EdgeLlmError::from)
    }
}

/// Everything a table row needs about one adaptation run.
#[derive(Debug, Clone)]
pub struct AdaptationOutcome {
    /// Row label.
    pub method: String,
    /// Task accuracy after adaptation.
    pub accuracy: f32,
    /// Perplexity after adaptation.
    pub perplexity: f32,
    /// Final training loss.
    pub final_loss: f32,
    /// Mean measured wall-clock per training iteration (CPU kernels), ms.
    pub mean_iter_ms: f64,
    /// Peak measured activation bytes across iterations.
    pub peak_activation_bytes: usize,
    /// Modeled per-iteration latency on the edge device, microseconds.
    pub modeled_iter_us: f64,
    /// Modeled per-iteration energy on the edge device, microjoules.
    pub modeled_iter_uj: f64,
    /// Mean compute cost of the applied policy (1.0 = uncompressed).
    pub policy_cost: f32,
    /// Average bit-width of the applied policy.
    pub policy_bits: f32,
    /// Average pruning ratio of the applied policy.
    pub policy_ratio: f32,
    /// Kernel worker threads configured for the run (`EDGELLM_THREADS` /
    /// `--threads`); affects measured wall-clock only, never the numbers.
    pub threads: usize,
    /// The quality/latency evaluation used (voting or final exit).
    pub eval: EvalResult,
    /// Where adaptation time went: per-phase totals across executed
    /// steps plus checkpoint-write time and re-quantization counts.
    pub phases: crate::resilience::PhaseTotals,
    /// What the resilient runtime did to keep the run alive (empty on a
    /// clean run).
    pub journal: RecoveryJournal,
}

/// The candidate sets the LUC profiler sweeps.
pub const LUC_BIT_CHOICES: [BitWidth; 4] =
    [BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16];
/// Candidate pruning ratios for the LUC profiler.
pub const LUC_RATIO_CHOICES: [f32; 4] = [0.0, 0.25, 0.5, 0.75];

/// Builds the LUC-searched policy for a model on a calibration batch.
///
/// # Errors
///
/// Propagates profiling and search errors.
pub fn luc_policy(
    model: &EdgeModel,
    calib_tokens: &[usize],
    calib_targets: &[usize],
    batch: usize,
    budget: f32,
    algorithm: SearchAlgorithm,
) -> Result<CompressionPolicy, EdgeLlmError> {
    let mut oracle = ModelOracle::new(model, calib_tokens, calib_targets, batch);
    let prof = profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES)?;
    Ok(search_policy(&prof, budget, algorithm)?.policy)
}

/// Runs one adaptation method end to end with the default resilience
/// settings (divergence guard on, no periodic checkpoints, no faults).
///
/// # Errors
///
/// Propagates configuration, compression, training, and evaluation errors.
pub fn run_method(
    method: Method,
    config: &ExperimentConfig,
) -> Result<AdaptationOutcome, EdgeLlmError> {
    run_method_with(method, config, &ResilienceConfig::default())
}

/// What [`prepare`] hands to [`adapt`]: the model as it arrives on the
/// device plus the target-task data and the run's RNG stream.
#[derive(Debug)]
pub struct Prepared {
    /// Source-task-pretrained (or freshly initialized), uncompressed.
    pub model: EdgeModel,
    /// Shuffled adaptation set.
    pub train: Dataset,
    /// Held-out evaluation set.
    pub eval_set: Dataset,
    /// The seed-derived stream, positioned after data sampling and
    /// pretraining.
    pub rng: TensorRng,
}

/// Stage one of every adaptation run: validate the configuration, build
/// the model, sample and shuffle the target-task data, and pretrain on a
/// source task of the same shape (deep supervision so every exit head
/// works, mirroring a deployed pretrained checkpoint).
///
/// # Errors
///
/// Propagates configuration and training errors.
pub fn prepare(config: &ExperimentConfig) -> Result<Prepared, EdgeLlmError> {
    config.validate()?;
    let task = config.task.build();
    let mut rng = TensorRng::seed_from(config.seed);
    let model_cfg = config.model.clone().with_vocab(task.vocab_size());
    model_cfg.validate()?;
    let mut model = EdgeModel::new(model_cfg.clone(), &mut rng)?;
    let seq_len = model_cfg.seq_len;
    let mut train = sample_dataset(task.as_ref(), config.train_samples, seq_len, &mut rng);
    let eval_set = sample_dataset(task.as_ref(), config.eval_samples, seq_len, &mut rng);
    train.shuffle(&mut rng);

    if config.pretrain_iterations > 0 {
        let source = config.task.build_with_salt(1);
        let pre_train = sample_dataset(source.as_ref(), config.train_samples, seq_len, &mut rng);
        let windows: Vec<LayerWindow> = (1..=model_cfg.n_layers)
            .map(|e| LayerWindow { start: 0, end: e })
            .collect();
        let mut tuner = AdaptiveTuner::new(WindowSchedule::Ordered(windows));
        let mut opt = Sgd::new(config.lr);
        for it in 0..config.pretrain_iterations {
            let b = pre_train.batch_at(it * config.batch, config.batch);
            tuner.step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)?;
        }
    }
    Ok(Prepared {
        model,
        train,
        eval_set,
        rng,
    })
}

/// Stage two: install `policy` on the prepared model and run
/// `config.iterations` steps of `schedule` under the resilient runtime —
/// checkpointed, guarded against divergence, degraded after repeated
/// rollbacks.
/// The adapted model stays in `prepared`; whatever the runtime did to
/// keep the run alive comes back in the run's journal.
///
/// # Errors
///
/// Propagates compression and training errors; returns
/// [`EdgeLlmError::Diverged`] when the rollback budget is exhausted.
pub fn adapt(
    prepared: &mut Prepared,
    config: &ExperimentConfig,
    policy: &CompressionPolicy,
    schedule: WindowSchedule,
    resilience: &ResilienceConfig,
) -> Result<AdaptRun, EdgeLlmError> {
    apply_policy(&mut prepared.model, policy)?;
    let meta = RunMeta {
        policy: policy.clone(),
        data_seed: config.seed,
        window: schedule_depth(&schedule, prepared.model.n_layers()),
    };
    resilient_adapt(
        &mut prepared.model,
        &mut Sgd::new(config.lr),
        &mut AdaptiveTuner::new(schedule),
        &mut prepared.rng,
        &prepared.train,
        config.batch,
        config.iterations,
        meta.encode(),
        resilience,
    )
}

/// Runs one adaptation method end to end under an explicit
/// [`ResilienceConfig`] — periodic checkpoints, spike guard, and (in
/// tests) a fault-injection plan: [`prepare`], pick the method's policy
/// and schedule, [`adapt`], then vote and evaluate.
///
/// # Errors
///
/// Propagates configuration, compression, training, and evaluation
/// errors; returns [`EdgeLlmError::Diverged`] when the rollback budget is
/// exhausted.
pub fn run_method_with(
    method: Method,
    config: &ExperimentConfig,
    resilience: &ResilienceConfig,
) -> Result<AdaptationOutcome, EdgeLlmError> {
    let mut prepared = prepare(config)?;
    let model_cfg = prepared.model.config().clone();

    // 1. compression policy. Sensitivity is profiled on data the model is
    // already competent on (the source task when pretrained), because the
    // pre-adaptation loss on unlearned target data is mostly noise.
    let calib = if config.pretrain_iterations > 0 {
        let source = config.task.build_with_salt(1);
        sample_dataset(
            source.as_ref(),
            config.batch * 2,
            model_cfg.seq_len,
            &mut prepared.rng,
        )
        .batch_at(0, config.batch * 2)
    } else {
        prepared.train.batch_at(0, config.batch * 2)
    };
    let luc = |algorithm| {
        luc_policy(
            &prepared.model,
            &calib.tokens,
            &calib.targets,
            calib.batch,
            config.budget,
            algorithm,
        )
    };
    let policy = match method {
        Method::Vanilla | Method::LastLayerOnly => CompressionPolicy::identity(model_cfg.n_layers),
        Method::UniformCompressed => uniform_policy_for_budget(model_cfg.n_layers, config.budget),
        Method::EdgeLlm | Method::EdgeLlmNoVoting => luc(SearchAlgorithm::DynamicProgramming)?,
        Method::EdgeLlmGreedyLuc => luc(SearchAlgorithm::Greedy)?,
    };

    // 2. tuning schedule
    let window_depth = match method {
        Method::Vanilla | Method::UniformCompressed => model_cfg.n_layers,
        Method::LastLayerOnly => 1,
        _ => config.window_depth.min(model_cfg.n_layers),
    };
    let schedule = match method {
        Method::LastLayerOnly => WindowSchedule::Ordered(vec![LayerWindow {
            start: model_cfg.n_layers - 1,
            end: model_cfg.n_layers,
        }]),
        _ => WindowSchedule::for_depth(window_depth, model_cfg.n_layers),
    };

    // 3. compressed adaptation
    let run = adapt(&mut prepared, config, &policy, schedule, resilience)?;
    let Prepared {
        model,
        train,
        eval_set,
        ..
    } = &prepared;

    // 4. evaluation. Edge-LLM's voting is *adaptive*: per-exit reliability
    // weights are fitted on (held-in) training data, then blended with the
    // per-token confidence weighting at prediction time.
    let voting = match method {
        Method::EdgeLlm | Method::EdgeLlmGreedyLuc => {
            let calib = train.batch_at(0, config.batch.min(train.len()));
            let exits: Vec<usize> = (0..model.n_layers()).collect();
            let mut weights = edge_llm_model::fit_learned_weights(
                model,
                &exits,
                &calib.tokens,
                &calib.targets,
                calib.batch,
            )?;
            // sharpen: reliable exits should dominate unreliable ones
            for w in &mut weights {
                *w = w.powi(3);
            }
            VotingPolicy {
                exits,
                combiner: VotingCombiner::Learned(weights),
            }
        }
        _ => VotingPolicy::final_only(model.n_layers()),
    };
    let eval = evaluate(model, &voting, eval_set, config.batch)?;

    // 5. modeled edge latency and energy
    let (modeled_iter_us, modeled_iter_uj) = modeled_training_iteration(
        &model_cfg,
        &policy,
        window_depth,
        config.batch,
        &config.device,
    )?;

    Ok(AdaptationOutcome {
        method: method.label().to_string(),
        accuracy: eval.accuracy,
        perplexity: eval.perplexity,
        final_loss: run.final_loss,
        mean_iter_ms: run.mean_step_ms(),
        peak_activation_bytes: run.peak_activation_bytes,
        modeled_iter_us,
        modeled_iter_uj,
        policy_cost: policy.mean_cost(),
        policy_bits: policy.mean_bits(),
        policy_ratio: policy.mean_prune_ratio(),
        threads: edge_llm_tensor::configured_threads(),
        eval,
        phases: run.phases,
        journal: run.journal,
    })
}

/// Draws `n` samples of `seq_len` tokens from a boxed task generator.
fn sample_dataset(
    task: &dyn TaskGenerator,
    n: usize,
    seq_len: usize,
    rng: &mut TensorRng,
) -> Dataset {
    Dataset::from_samples((0..n).map(|_| task.sample(seq_len, rng)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_test_runs_every_method() {
        let cfg = ExperimentConfig::smoke_test();
        for method in [
            Method::Vanilla,
            Method::UniformCompressed,
            Method::EdgeLlm,
            Method::EdgeLlmNoVoting,
            Method::EdgeLlmGreedyLuc,
            Method::LastLayerOnly,
        ] {
            let out = run_method(method, &cfg).unwrap();
            assert!((0.0..=1.0).contains(&out.accuracy), "{method:?}");
            assert!(out.perplexity.is_finite());
            assert!(out.modeled_iter_us > 0.0);
        }
    }

    #[test]
    fn edge_llm_uses_less_memory_and_modeled_time_than_vanilla() {
        let cfg = ExperimentConfig::smoke_test();
        let vanilla = run_method(Method::Vanilla, &cfg).unwrap();
        let edge = run_method(Method::EdgeLlm, &cfg).unwrap();
        assert!(edge.peak_activation_bytes < vanilla.peak_activation_bytes);
        assert!(edge.modeled_iter_us < vanilla.modeled_iter_us);
        assert!(edge.policy_cost < vanilla.policy_cost);
    }

    #[test]
    fn vanilla_policy_is_identity() {
        let cfg = ExperimentConfig::smoke_test();
        let out = run_method(Method::Vanilla, &cfg).unwrap();
        assert_eq!(out.policy_cost, 1.0);
        assert_eq!(out.policy_bits, 16.0);
        assert_eq!(out.policy_ratio, 0.0);
    }

    #[test]
    fn prepare_then_adapt_is_the_vanilla_row_bit_for_bit() {
        let cfg = ExperimentConfig::smoke_test();
        let row = run_method(Method::Vanilla, &cfg).unwrap();
        let mut prepared = prepare(&cfg).unwrap();
        let n = prepared.model.n_layers();
        let run = adapt(
            &mut prepared,
            &cfg,
            &CompressionPolicy::identity(n),
            WindowSchedule::FullDepth,
            &ResilienceConfig::default(),
        )
        .unwrap();
        assert!(run.journal.is_empty());
        assert_eq!(run.final_loss.to_bits(), row.final_loss.to_bits());
        assert_eq!(run.peak_activation_bytes, row.peak_activation_bytes);
        let voting = VotingPolicy::final_only(n);
        let eval = evaluate(&prepared.model, &voting, &prepared.eval_set, cfg.batch).unwrap();
        assert_eq!(eval.accuracy.to_bits(), row.accuracy.to_bits());
    }

    #[test]
    fn adapt_hands_back_the_recovery_journal() {
        use crate::resilience::{FaultKind, PlannedFault, RecoveryEvent};
        let cfg = ExperimentConfig::smoke_test();
        let mut prepared = prepare(&cfg).unwrap();
        let n = prepared.model.n_layers();
        // the `tests/recovery.rs` plan: one NaN gradient at iteration 2
        let faulty = ResilienceConfig {
            faults: vec![PlannedFault {
                at_iteration: 2,
                kind: FaultKind::NanGrad,
            }],
            ..ResilienceConfig::default()
        };
        let run = adapt(
            &mut prepared,
            &cfg,
            &CompressionPolicy::identity(n),
            WindowSchedule::for_depth(cfg.window_depth, n),
            &faulty,
        )
        .unwrap();
        assert_eq!(run.journal.rollbacks(), 1, "{}", run.journal);
        assert!(run
            .journal
            .events()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::FaultInjected { .. })));
        assert!(run.steps_executed > cfg.iterations, "the replay is counted");
        assert!(run.final_loss.is_finite());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.iterations = 0;
        assert!(run_method(Method::Vanilla, &cfg).is_err());
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.budget = 2.0;
        assert!(run_method(Method::EdgeLlm, &cfg).is_err());
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.window_depth = 0;
        assert!(run_method(Method::EdgeLlm, &cfg).is_err());
    }

    #[test]
    fn task_kinds_build() {
        for task in [
            TaskKind::ClozeQa {
                subjects: 4,
                relations: 2,
            },
            TaskKind::Markov { branching: 3 },
            TaskKind::Copy { symbols: 8 },
            TaskKind::ModArith { modulus: 7 },
        ] {
            let gen = task.build();
            assert!(gen.vocab_size() > 1);
            assert!(!gen.name().is_empty());
        }
    }
}
