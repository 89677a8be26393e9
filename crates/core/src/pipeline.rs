//! The end-to-end Edge-LLM adaptation pipeline and its baselines.
//!
//! Every adaptation in the repo is the same two stages: [`prepare`]
//! (build, sample, pretrain on a source task) and [`adapt`] (install a
//! compression policy, tune a window schedule under the resilient
//! runtime). [`run_method`] picks the policy and schedule a [`Method`]
//! names, runs both stages, evaluates the final exit and, for the LUC
//! methods, the fitted exit vote, and reports task quality together with
//! measured and modeled efficiency. The report's runner
//! ([`crate::experiments::RunStore`]) calls the stages itself: one
//! [`prepare`] per model, one [`adapt`] per planned run, each on a clone
//! of the model but its last.

use crate::baselines::uniform_policy_for_budget;
use crate::compress::apply_policy;
use crate::eval::{evaluate, EvalResult};
use crate::oracle::ModelOracle;
use crate::resilience::{
    resilient_adapt, schedule_depth, AdaptRun, RecoveryJournal, ResilienceConfig, RunMeta,
};
use crate::schedule::modeled_schedule_iteration;
use crate::EdgeLlmError;
use edge_llm_data::{Batch, ClozeQaTask, Dataset, MarkovTextTask, TaskGenerator};
use edge_llm_hw::DeviceModel;
use edge_llm_luc::{
    profile, search_policy, CompressionPolicy, SearchAlgorithm, SensitivityProfile,
};
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, LayerWindow, ModelConfig, Sgd, VotingCombiner, VotingPolicy,
    WindowSchedule,
};
use edge_llm_quant::BitWidth;
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::TensorRng;
use std::sync::{Arc, Mutex, PoisonError};

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
    /// Full Edge-LLM: LUC policy + adaptive layer tuning + voting. Its
    /// run also carries the final-exit evaluation, T1's no-vote row.
    EdgeLlm,
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
            Method::EdgeLlmGreedyLuc => "edge-llm (greedy)",
            Method::LastLayerOnly => "last-layer-ft",
        }
    }

    /// The [`Recipe`] this method adapts under at `config`.
    pub(crate) fn recipe(self, config: &ExperimentConfig) -> Recipe {
        let (budget, depth, n) = (config.budget, config.window_depth, config.model.n_layers);
        let last = LayerWindow {
            start: n - 1,
            end: n,
        };
        let algorithm = match self {
            Method::Vanilla => return Recipe::Dense(WindowSchedule::FullDepth),
            Method::LastLayerOnly => return Recipe::Dense(WindowSchedule::Ordered(vec![last])),
            Method::UniformCompressed => return Recipe::Uniform { budget },
            Method::EdgeLlm => SearchAlgorithm::DynamicProgramming,
            Method::EdgeLlmGreedyLuc => SearchAlgorithm::Greedy,
        };
        let schedule = Some(WindowSchedule::for_depth(depth, n));
        Recipe::Luc {
            algorithm,
            budget,
            schedule,
        }
    }
}

/// How one run picks its compression policy and window schedule, holding
/// only the inputs they depend on: two configurations that adapt alike
/// have one recipe (vanilla is `Dense` at full depth, and so is a depth
/// sweep's deepest point).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Recipe {
    /// No compression, tuned under the schedule.
    Dense(WindowSchedule),
    /// The uniform policy at `budget`, full-depth tuning.
    Uniform { budget: f32 },
    /// The policy `algorithm` searches at `budget` on the prepared
    /// model's profile, tuned under the schedule, or in that profile's
    /// sensitivity order at the configuration's window depth when it is
    /// `None`.
    Luc {
        algorithm: SearchAlgorithm,
        budget: f32,
        schedule: Option<WindowSchedule>,
    },
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
    /// Task accuracy after adaptation, under the method's own inference:
    /// the fitted exit vote for the LUC methods, the final exit otherwise.
    pub accuracy: f32,
    /// Perplexity after adaptation, under the same inference.
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
    /// The same adapted model evaluated at its final exit alone, for
    /// every method; for the LUC methods this is the no-vote ablation.
    pub final_exit: EvalResult,
    /// What the resilient runtime did to keep the run alive (empty on a
    /// clean run).
    pub journal: RecoveryJournal,
}

/// The candidate sets the LUC profiler sweeps.
pub const LUC_BIT_CHOICES: [BitWidth; 4] =
    [BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16];
/// Candidate pruning ratios for the LUC profiler.
pub const LUC_RATIO_CHOICES: [f32; 4] = [0.0, 0.25, 0.5, 0.75];

/// The LUC sensitivity profile of `model` on the rows of `calib`: each
/// layer's loss delta at every candidate bit-width and pruning ratio.
/// Each model [`prepare`] hands over is profiled through it at most once,
/// on its [`LazyProfile`]'s first read.
///
/// # Errors
///
/// Propagates profiling errors.
pub fn luc_profile(model: &EdgeModel, calib: &Batch) -> Result<SensitivityProfile, EdgeLlmError> {
    let mut oracle = ModelOracle::new(model, &calib.tokens, &calib.targets, calib.batch);
    Ok(profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES)?)
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

/// A prepared model's LUC profile, built from the model as [`prepare`]
/// handed it over on its first read and shared by every clone of that
/// [`Prepared`]: one profile per prepared model whatever its clones adapt,
/// and none for a model that no LUC policy is searched for.
#[derive(Debug, Clone)]
pub struct LazyProfile(Arc<Mutex<ProfileState>>);

#[derive(Debug)]
enum ProfileState {
    /// The model as prepared and its calibration rows, until the first read.
    Pending(Box<EdgeModel>, Batch),
    Built(SensitivityProfile),
}

impl LazyProfile {
    fn new(model: &EdgeModel, calib: Batch) -> Self {
        let pending = ProfileState::Pending(Box::new(model.clone()), calib);
        LazyProfile(Arc::new(Mutex::new(pending)))
    }

    /// The profile, built now on its first read ([`luc_profile`]); a read
    /// that fails leaves it unbuilt.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn get(&self) -> Result<SensitivityProfile, EdgeLlmError> {
        let mut state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let profile = match &*state {
            ProfileState::Built(profile) => return Ok(profile.clone()),
            ProfileState::Pending(model, calib) => luc_profile(model, calib)?,
        };
        *state = ProfileState::Built(profile.clone());
        Ok(profile)
    }
}

/// What [`prepare`] hands to [`adapt`]: the model as it arrives on the
/// device plus the target-task data, the model's LUC sensitivity profile,
/// and the run's RNG stream. A clone adapts exactly as a fresh
/// [`prepare`] of the same configuration does.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Source-task-pretrained (or freshly initialized), uncompressed.
    pub model: EdgeModel,
    /// Shuffled adaptation set.
    pub train: Dataset,
    /// Held-out evaluation set.
    pub eval_set: Dataset,
    /// The profile of `model` as prepared, which every LUC policy searched
    /// for it reads. Its calibration rows are data the model is already
    /// competent on: 2×batch source-task rows when it is pretrained (the
    /// pre-adaptation loss on unlearned target data is mostly noise), else
    /// the first 2×batch target rows.
    pub profile: LazyProfile,
    /// The seed-derived stream, positioned after data sampling,
    /// pretraining and the calibration draw.
    pub rng: TensorRng,
}

/// Stage one of every adaptation run: validate the configuration, build
/// the model, sample and shuffle the target-task data, pretrain on a
/// source task of the same shape (deep supervision so every exit head
/// works, mirroring a deployed pretrained checkpoint), and draw the
/// calibration rows its profile reads.
///
/// # Errors
///
/// Propagates configuration and training errors.
pub fn prepare(config: &ExperimentConfig) -> Result<Prepared, EdgeLlmError> {
    let _span = telemetry::span("pipeline.prepare");
    config.validate()?;
    let task = config.task.build();
    let mut rng = TensorRng::seed_from(config.seed);
    let model_cfg = config.model.clone().with_vocab(task.vocab_size());
    model_cfg.validate()?;
    let mut model = EdgeModel::new(model_cfg.clone(), &mut rng)?;
    let seq_len = model_cfg.seq_len;
    let mut train = task.dataset(config.train_samples, seq_len, &mut rng);
    let eval_set = task.dataset(config.eval_samples, seq_len, &mut rng);
    train.shuffle(&mut rng);

    let rows = config.batch * 2;
    let calib = if config.pretrain_iterations > 0 {
        let source = config.task.build_with_salt(1);
        let pre_train = source.dataset(config.train_samples, seq_len, &mut rng);
        let windows: Vec<LayerWindow> = (1..=model_cfg.n_layers)
            .map(|e| LayerWindow { start: 0, end: e })
            .collect();
        let mut tuner = AdaptiveTuner::new(WindowSchedule::Ordered(windows));
        let mut opt = Sgd::new(config.lr);
        for it in 0..config.pretrain_iterations {
            let b = pre_train.batch_at(it * config.batch, config.batch);
            tuner.step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)?;
        }
        source.dataset(rows, seq_len, &mut rng).batch_at(0, rows)
    } else {
        train.batch_at(0, rows)
    };
    Ok(Prepared {
        profile: LazyProfile::new(&model, calib),
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
    let _span = telemetry::span("pipeline.adapt");
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
/// and schedule, [`adapt`], then evaluate the final exit and, for the LUC
/// methods, the fitted vote.
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
    let (policy, schedule) = plan(&method.recipe(config), config, &prepared)?;
    let run = adapt(&mut prepared, config, &policy, schedule.clone(), resilience)?;
    outcome(method, config, &prepared, &policy, &schedule, &run)
}

/// The compression policy and window schedule `recipe` adapts under.
/// The `Luc` recipe searches `prepared`'s profile.
pub(crate) fn plan(
    recipe: &Recipe,
    config: &ExperimentConfig,
    prepared: &Prepared,
) -> Result<(CompressionPolicy, WindowSchedule), EdgeLlmError> {
    let n = prepared.model.n_layers();
    match *recipe {
        Recipe::Dense(ref schedule) => Ok((CompressionPolicy::identity(n), schedule.clone())),
        Recipe::Uniform { budget } => {
            let uniform = uniform_policy_for_budget(n, budget);
            Ok((uniform, WindowSchedule::FullDepth))
        }
        Recipe::Luc {
            algorithm,
            budget,
            ref schedule,
        } => {
            let prof = &prepared.profile.get()?;
            let policy = search_policy(prof, budget, algorithm)?.policy;
            let by_sensitivity =
                || crate::windows::sensitivity_window_schedule(prof, config.window_depth);
            Ok((policy, schedule.clone().unwrap_or_else(by_sensitivity)))
        }
    }
}

/// A row of `method` from its adapted run: the final exit for every
/// method and, for the LUC methods, the fitted vote, beside the run's
/// measured and modeled efficiency.
pub(crate) fn outcome(
    method: Method,
    config: &ExperimentConfig,
    prepared: &Prepared,
    policy: &CompressionPolicy,
    schedule: &WindowSchedule,
    run: &AdaptRun,
) -> Result<AdaptationOutcome, EdgeLlmError> {
    let (model, train, eval_set) = (&prepared.model, &prepared.train, &prepared.eval_set);
    let final_only = VotingPolicy::final_only(model.n_layers());
    let final_exit = evaluate(model, &final_only, eval_set, config.batch)?;
    // Edge-LLM's voting is *adaptive*: per-exit reliability weights are
    // fitted on (held-in) training data, then blended with the per-token
    // confidence weighting at prediction time.
    let voted = match method {
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
            let voting = VotingPolicy {
                exits,
                combiner: VotingCombiner::Learned(weights),
            };
            evaluate(model, &voting, eval_set, config.batch)?
        }
        _ => final_exit,
    };

    // modeled latency and energy of the run's own schedule on the
    // Jetson-class device
    let device = DeviceModel::jetson_class();
    let (modeled_iter_us, modeled_iter_uj) =
        modeled_schedule_iteration(model.config(), policy, schedule, config.batch, &device)?;

    Ok(AdaptationOutcome {
        method: method.label().to_string(),
        accuracy: voted.accuracy,
        perplexity: voted.perplexity,
        final_loss: run.final_loss,
        mean_iter_ms: run.mean_step_ms(),
        peak_activation_bytes: run.peak_activation_bytes,
        modeled_iter_us,
        modeled_iter_uj,
        policy_cost: policy.mean_cost(),
        policy_bits: policy.mean_bits(),
        policy_ratio: policy.mean_prune_ratio(),
        final_exit,
        journal: run.journal.clone(),
    })
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
        // Each method adapts its own clone of one prepared model, Vanilla's
        // first, and must be its fresh row. Pretrained, so EdgeLlm's plan
        // searches the clone's profile of the source-task rows.
        let cfg = ExperimentConfig {
            pretrain_iterations: 4,
            ..ExperimentConfig::smoke_test()
        };
        let prepared = prepare(&cfg).unwrap();
        let n = prepared.model.n_layers();
        for method in [Method::Vanilla, Method::EdgeLlm] {
            let row = run_method(method, &cfg).unwrap();
            let mut clone = prepared.clone();
            let (policy, schedule) = match method {
                Method::Vanilla => (CompressionPolicy::identity(n), WindowSchedule::FullDepth),
                _ => plan(&method.recipe(&cfg), &cfg, &clone).unwrap(),
            };
            let res = ResilienceConfig::default();
            let run = adapt(&mut clone, &cfg, &policy, schedule.clone(), &res).unwrap();
            assert!(run.journal.is_empty());
            assert_eq!(
                run.final_loss.to_bits(),
                row.final_loss.to_bits(),
                "{method:?}"
            );
            assert_eq!(run.peak_activation_bytes, row.peak_activation_bytes);
            let voting = VotingPolicy::final_only(n);
            let eval = evaluate(&clone.model, &voting, &clone.eval_set, cfg.batch).unwrap();
            assert_eq!(eval, row.final_exit, "{method:?}");
            let out = outcome(method, &cfg, &clone, &policy, &schedule, &run).unwrap();
            assert_eq!(out.accuracy.to_bits(), row.accuracy.to_bits(), "{method:?}");
            assert_eq!(out.perplexity.to_bits(), row.perplexity.to_bits());
        }
    }

    /// Every bit of a profile, so two compare bit for bit.
    fn bits(profile: &SensitivityProfile) -> Vec<u32> {
        let deltas = profile.quant_delta.iter().chain(&profile.prune_delta);
        let mut bits: Vec<u32> = deltas.flatten().map(|d| d.to_bits()).collect();
        bits.push(profile.baseline.to_bits());
        bits
    }

    #[test]
    fn prepare_draws_the_calibration_rows_once() {
        // From scratch `prepare` profiles the first 2×batch target rows.
        // Pretrained, it profiles as many source-task rows, drawn after
        // pretraining.
        let cfg = ExperimentConfig::smoke_test();
        let fresh = prepare(&cfg).unwrap();
        let target_rows = fresh.train.batch_at(0, 2 * cfg.batch);
        let on_target = luc_profile(&fresh.model, &target_rows).unwrap();
        assert_eq!(bits(&fresh.profile.get().unwrap()), bits(&on_target));
        let pretrained = ExperimentConfig {
            pretrain_iterations: 2,
            ..cfg.clone()
        };
        let prepared = prepare(&pretrained).unwrap();
        let target_rows = prepared.train.batch_at(0, 2 * cfg.batch);
        let on_target = luc_profile(&prepared.model, &target_rows).unwrap();
        let profile = prepared.profile.get().unwrap();
        assert_ne!(bits(&profile), bits(&on_target));
        let again = prepare(&pretrained).unwrap();
        assert_eq!(bits(&again.profile.get().unwrap()), bits(&profile));
        // The stream a clone hands to its checkpoints is the fresh one.
        let state = prepared.clone().rng.state().to_bytes();
        assert_eq!(state, again.rng.state().to_bytes());
    }

    #[test]
    fn prepare_draws_eval_after_train_and_profiles_the_pretrained_model() {
        // Replays `prepare`'s one stream in order: the model, the train
        // set, the eval set, the shuffle, the source set, then the
        // calibration rows. Pretraining draws nothing from it.
        let cfg = ExperimentConfig {
            pretrain_iterations: 2,
            ..ExperimentConfig::smoke_test()
        };
        let prepared = prepare(&cfg).unwrap();
        let task = cfg.task.build();
        let model_cfg = cfg.model.clone().with_vocab(task.vocab_size());
        let seq_len = model_cfg.seq_len;
        let mut rng = TensorRng::seed_from(cfg.seed);
        EdgeModel::new(model_cfg, &mut rng).unwrap();
        let mut train = task.dataset(cfg.train_samples, seq_len, &mut rng);
        let eval_set = task.dataset(cfg.eval_samples, seq_len, &mut rng);
        train.shuffle(&mut rng);
        let source = cfg.task.build_with_salt(1);
        source.dataset(cfg.train_samples, seq_len, &mut rng);
        let rows = 2 * cfg.batch;
        let calib = source.dataset(rows, seq_len, &mut rng).batch_at(0, rows);
        assert_eq!(prepared.train.samples(), train.samples());
        assert_eq!(prepared.eval_set.samples(), eval_set.samples());
        assert_eq!(prepared.rng.state().to_bytes(), rng.state().to_bytes());
        let on_calib = luc_profile(&prepared.model, &calib).unwrap();
        assert_eq!(prepared.profile.get().unwrap(), on_calib);
    }

    #[test]
    fn tying_the_exit_heads_changes_no_prepared_row() {
        // A1's tying ablation must compare models adapted and scored on
        // the same data, from scratch and pretrained alike. Equal streams
        // after equal train and eval draws mean equal calibration draws.
        for pretrain_iterations in [0, 2] {
            let tied = ExperimentConfig {
                pretrain_iterations,
                ..ExperimentConfig::smoke_test()
            };
            let mut untied = tied.clone();
            untied.model = untied.model.with_tied_exits(false);
            let (a, b) = (prepare(&tied).unwrap(), prepare(&untied).unwrap());
            assert_eq!(a.train.samples(), b.train.samples());
            assert_eq!(a.eval_set.samples(), b.eval_set.samples());
            assert_eq!(a.rng.state().to_bytes(), b.rng.state().to_bytes());
        }
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
        ] {
            let gen = task.build();
            assert!(gen.vocab_size() > 1);
            assert!(!gen.name().is_empty());
        }
    }
}
