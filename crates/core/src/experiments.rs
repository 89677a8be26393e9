//! Experiment harness for the Edge-LLM reproduction.
//!
//! Every table (T1–T3), figure (F1, F3, F5), ablation (A1, A3), and the
//! serving study (S1) is regenerated by a function in this module;
//! `edgellm report` prints them, and `benchmark/src/kernels.rs` times the
//! underlying kernels. Each table declares the runs it reads, each keyed
//! by its model and its policy-and-schedule recipe, and one [`RunStore`]
//! per report plans their union before adapting anything: it pretrains
//! each model once, adapts each key once, on its first read, and lets a
//! run go after its last planned read, so a table reads the runs an
//! earlier one made (T3 and F1 read T1's vanilla run, A1 and A3 its
//! Edge-LLM run). Each model is profiled at most once, when its profile
//! is first read: every LUC run searches
//! [`crate::pipeline::Prepared::profile`], and F5 prints it, reading no
//! run. T3 carries the analytic memory model beside its measured
//! activations, F1 the accuracy frontier beside its latencies, and T1's
//! no-vote row is its Edge-LLM run's final exit. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for recorded results.

use crate::baselines::uniform_policy_for_budget;
use crate::eval::evaluate;
use crate::pipeline::{
    adapt, outcome, plan, prepare, ExperimentConfig, LazyProfile, Method, Prepared, Recipe,
    TaskKind,
};
use crate::report::{bytes, f3, pct, speedup, Table};
use crate::resilience::{schedule_depth, AdaptRun, ResilienceConfig};
use crate::schedule::{model_workloads, naive_latency_us, schedule_workloads, total_latency_us};
use crate::EdgeLlmError;
use edge_llm_hw::{DeviceModel, ScheduleSpace};
use edge_llm_luc::{
    pareto_frontier, CompressionPolicy, PolicyPoint, SearchAlgorithm, SensitivityProfile,
};
use edge_llm_model::{
    EdgeModel, MemoryModel, ModelConfig, VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::TensorRng;
use std::rc::Rc;

/// Experiment scale: `Quick` for CI, `Full` for the recorded tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs (small model, few iterations).
    Quick,
    /// The configuration the recorded EXPERIMENTS.md numbers use.
    Full,
}

impl Scale {
    /// The base experiment configuration at this scale.
    pub fn config(self) -> ExperimentConfig {
        match self {
            Scale::Quick => ExperimentConfig {
                model: ModelConfig::tiny()
                    .with_layers(4)
                    .with_d_model(32, 4)
                    .with_seq_len(16),
                task: TaskKind::ClozeQa {
                    subjects: 12,
                    relations: 2,
                },
                seed: 42,
                train_samples: 24,
                eval_samples: 12,
                batch: 4,
                iterations: 60,
                lr: 0.08,
                budget: 0.3,
                window_depth: 2,
                pretrain_iterations: 40,
            },
            Scale::Full => ExperimentConfig::edge_default(),
        }
    }
}

/// What one report run adapts; the rest is [`Scale::config`].
#[derive(Debug, Clone, PartialEq)]
struct RunKey {
    /// Which pretrained model: whether its exit heads are tied.
    tied: bool,
    recipe: Recipe,
}

impl RunKey {
    /// The run of a [`Method`] row at `cfg`.
    fn method(method: Method, cfg: &ExperimentConfig) -> Self {
        let (tied, recipe) = (cfg.model.tie_exit_heads, method.recipe(cfg));
        RunKey { tied, recipe }
    }
}

/// The [`Method`] rows of T1, T2 and F1 at `scale`, in order: each
/// method with the configuration it runs at.
fn method_rows(id: &str, scale: Scale) -> Vec<(Method, ExperimentConfig)> {
    let base = scale.config();
    let at = |budget, window_depth| ExperimentConfig {
        budget,
        window_depth,
        ..base.clone()
    };
    let (n, depth) = (base.model.n_layers, base.window_depth);
    let (t2, f1): (&[f32], &[f32]) = match scale {
        Scale::Quick => (&[0.2, 0.4], &[1.0, 0.4, 0.2]),
        Scale::Full => (&[0.15, 0.25, 0.4], &[1.0, 0.5, 0.3, 0.2, 0.125, 0.0625]),
    };
    use Method::*;
    match id {
        "t1" => [Vanilla, LastLayerOnly, UniformCompressed, EdgeLlm]
            .map(|m| (m, base.clone()))
            .to_vec(),
        // full-depth tuning for all, to isolate the compression axis
        "t2" => (t2.iter())
            .flat_map(|&b| [UniformCompressed, EdgeLlmGreedyLuc, EdgeLlm].map(|m| (m, at(b, n))))
            .collect(),
        "f1" => (f1.iter())
            .map(|&b| (if b >= 1.0 { Vanilla } else { EdgeLlm }, at(b, depth)))
            .collect(),
        _ => Vec::new(),
    }
}

/// A1's variants: each row's name and run, under the DP policy at the
/// base budget. The first is T1's Edge-LLM run, which A3 also reads.
fn a1_variants(base: &ExperimentConfig) -> [(&'static str, RunKey); 4] {
    let (depth, n) = (base.window_depth, base.model.n_layers);
    let round_robin = Some(WindowSchedule::for_depth(depth, n));
    let full = Some(WindowSchedule::FullDepth);
    [
        ("round-robin, tied", true, round_robin.clone()),
        ("sensitivity-ordered, tied", true, None),
        ("full depth, tied", true, full),
        ("round-robin, untied", false, round_robin),
    ]
    .map(|(name, tied, schedule)| {
        let recipe = Recipe::Luc {
            algorithm: SearchAlgorithm::DynamicProgramming,
            budget: base.budget,
            schedule,
        };
        (name, RunKey { tied, recipe })
    })
}

/// The runs table `id` reads at `scale`, one entry per read, in its
/// order: the plan [`RunStore::new`] takes the union of.
fn reads(id: &str, scale: Scale) -> Vec<RunKey> {
    let base = scale.config();
    let n = base.model.n_layers;
    let tied = base.model.tie_exit_heads;
    let dense = |depth| {
        let recipe = Recipe::Dense(WindowSchedule::for_depth(depth, n));
        RunKey { tied, recipe }
    };
    let t3_depths = [1, 2, 4].into_iter().filter(|&d| d < n).chain([n]);
    match id {
        "t3" => t3_depths.map(dense).collect(),
        "a1" => a1_variants(&base).map(|(_, key)| key).to_vec(),
        "a3" => vec![a1_variants(&base)[0].1.clone()],
        _ => (method_rows(id, scale).iter())
            .map(|(m, cfg)| RunKey::method(*m, cfg))
            .collect(),
    }
}

/// Every exit, confidence-weighted: the vote A1 and A3 evaluate, T3's
/// `conf vote` rows and half of S1's requests.
fn conf_vote(n_layers: usize) -> VotingPolicy {
    let combiner = VotingCombiner::ConfidenceWeighted { temperature: 1.0 };
    VotingPolicy::all_exits(n_layers, combiner)
}

/// One adapted run: its policy and schedule, the adapted model and data,
/// and the runtime's account.
struct Adapted {
    policy: CompressionPolicy,
    schedule: WindowSchedule,
    prepared: Prepared,
    run: AdaptRun,
}

/// A planned run: the reads left to it, and the run once adapted.
struct Planned {
    key: RunKey,
    reads: usize,
    run: Option<Rc<Adapted>>,
}

/// The runs one report makes, planned by [`RunStore::new`] before any is
/// made: [`prepare`] once per model, [`adapt`] once per run on its first
/// read, on a clone of the model unless it is the model's last run. The
/// store lets a run go after its last planned read, and a model after its
/// last run, but keeps each model's profile from its preparation on. A
/// table's `regenerated in` time leaves out the runs an earlier table
/// made.
pub struct RunStore {
    scale: Scale,
    runs: Vec<Planned>,
    /// The untied and the tied pretrained model, each with the runs left
    /// to adapt from it.
    models: [(usize, Option<Prepared>); 2],
    /// The untied and the tied model's profile, once it is prepared.
    profiles: [Option<LazyProfile>; 2],
}

impl RunStore {
    /// The store for the tables `ids` at `scale`: every run they read,
    /// each once, with its count of reads. Nothing is adapted yet.
    pub fn new(scale: Scale, ids: &[&str]) -> Self {
        let mut runs: Vec<Planned> = Vec::new();
        let mut models = [(0, None), (0, None)];
        for key in ids.iter().flat_map(|id| reads(id, scale)) {
            match runs.iter_mut().find(|p| p.key == key) {
                Some(planned) => planned.reads += 1,
                None => {
                    models[usize::from(key.tied)].0 += 1;
                    runs.push(Planned {
                        key,
                        reads: 1,
                        run: None,
                    });
                }
            }
        }
        RunStore {
            scale,
            runs,
            models,
            profiles: [None, None],
        }
    }

    /// The pretrained model `tied` names: the one the store holds, or a
    /// fresh [`prepare`], whose profile the store keeps.
    fn model(&mut self, tied: bool) -> Result<Prepared, EdgeLlmError> {
        let i = usize::from(tied);
        if let Some(model) = self.models[i].1.take() {
            return Ok(model);
        }
        let mut cfg = self.scale.config();
        cfg.model = cfg.model.with_tied_exits(tied);
        let model = prepare(&cfg)?;
        self.profiles[i] = Some(model.profile.clone());
        Ok(model)
    }

    /// The profile of the pretrained model `tied` names, as its
    /// preparation measured it. A model not yet prepared is prepared for
    /// it, and held only if a planned run adapts from it.
    fn profile(&mut self, tied: bool) -> Result<SensitivityProfile, EdgeLlmError> {
        let i = usize::from(tied);
        let profile = match &self.profiles[i] {
            Some(profile) => profile.clone(),
            None => {
                let model = self.model(tied)?;
                let profile = model.profile.clone();
                if self.models[i].0 > 0 {
                    self.models[i].1 = Some(model);
                }
                profile
            }
        };
        profile.get()
    }

    /// The run `key` names, adapted on its first read. Each run follows
    /// its configuration's own trajectory: the loss-spike guard is off,
    /// non-finite detection on, and a run that needed recovery is refused
    /// (the default 4x guard rolls full-scale F1's budget-0.125 run back
    /// to iteration 0 at iteration 380, and A1's sensitivity-ordered one
    /// at 216).
    ///
    /// # Errors
    ///
    /// [`EdgeLlmError::BadConfig`] for a key the plan lacks (or whose
    /// planned reads are spent) and for a run that needed recovery.
    fn get(&mut self, key: &RunKey) -> Result<Rc<Adapted>, EdgeLlmError> {
        let Some(i) = self.runs.iter().position(|p| p.key == *key) else {
            let reason = format!("{key:?} is not in the report's plan");
            return Err(EdgeLlmError::BadConfig { reason });
        };
        let run = match self.runs[i].run.take() {
            Some(run) => run,
            None => {
                let mut cfg = self.scale.config();
                cfg.model = cfg.model.with_tied_exits(key.tied);
                let model = self.model(key.tied)?;
                let (left, slot) = &mut self.models[usize::from(key.tied)];
                *left -= 1;
                let mut prepared = match *left {
                    0 => model,
                    _ => slot.insert(model).clone(),
                };
                let (policy, schedule) = plan(&key.recipe, &cfg, &prepared)?;
                let res = ResilienceConfig {
                    spike_factor: f32::INFINITY,
                    ..ResilienceConfig::default()
                };
                let run = adapt(&mut prepared, &cfg, &policy, schedule.clone(), &res)?;
                if !run.journal.is_empty() {
                    let reason = format!("{key:?} needed recovery:\n{}", run.journal);
                    return Err(EdgeLlmError::BadConfig { reason });
                }
                Rc::new(Adapted {
                    policy,
                    schedule,
                    prepared,
                    run,
                })
            }
        };
        self.runs[i].reads -= 1;
        match self.runs[i].reads {
            0 => drop(self.runs.swap_remove(i)),
            _ => self.runs[i].run = Some(Rc::clone(&run)),
        }
        Ok(run)
    }
}

/// T1 — the main comparison table: task quality and per-iteration cost of
/// vanilla tuning, parameter-efficient and uniform-compression baselines,
/// and Edge-LLM. The `edge-llm (no vote)` row is the Edge-LLM run
/// evaluated at its final exit alone.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn t1_main(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let mut table = Table::new(
        "T1: adaptation quality and per-iteration cost",
        &[
            "method",
            "acc",
            "ppl",
            "iter ms",
            "modeled us",
            "speedup",
            "peak act",
            "bits",
            "prune",
        ],
    );
    let mut vanilla_us = None;
    for (m, cfg) in method_rows("t1", store.scale) {
        let a = store.get(&RunKey::method(m, &cfg))?;
        let out = outcome(m, &cfg, &a.prepared, &a.policy, &a.schedule, &a.run)?;
        let base = *vanilla_us.get_or_insert(out.modeled_iter_us);
        let mut row = |label: &str, accuracy: f32, perplexity: f32| {
            table.add_row(vec![
                label.to_string(),
                pct(accuracy as f64),
                f3(perplexity as f64),
                f3(out.mean_iter_ms),
                f3(out.modeled_iter_us),
                speedup(base / out.modeled_iter_us),
                bytes(out.peak_activation_bytes),
                format!("{:.1}", out.policy_bits),
                pct(out.policy_ratio as f64),
            ])
        };
        if m == Method::EdgeLlm {
            let last = out.final_exit;
            row("edge-llm (no vote)", last.accuracy, last.perplexity);
        }
        row(&out.method, out.accuracy, out.perplexity);
    }
    Ok(table)
}

/// T2 — LUC ablation: uniform vs greedy-searched vs DP-searched policies
/// at matched budgets, with identical (full-depth) tuning.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn t2_luc(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let mut table = Table::new(
        "T2: layer-wise unified compression vs uniform at matched budgets",
        &["budget", "policy", "acc", "ppl", "mean bits", "mean prune"],
    );
    for (m, cfg) in method_rows("t2", store.scale) {
        let a = store.get(&RunKey::method(m, &cfg))?;
        let out = outcome(m, &cfg, &a.prepared, &a.policy, &a.schedule, &a.run)?;
        table.add_row(vec![
            f3(cfg.budget as f64),
            out.method,
            pct(out.accuracy as f64),
            f3(out.perplexity as f64),
            format!("{:.1}", out.policy_bits),
            pct(out.policy_ratio as f64),
        ]);
    }
    Ok(table)
}

/// T3 — adaptive layer tuning & voting ablation: backprop-window depth
/// sweep crossed with the voting combiner, no compression (isolates the
/// second component). Each depth's measured peak activations sit beside
/// the analytic memory model's activation and total bytes at that depth.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn t3_adaptive(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let base = store.scale.config();
    let n_layers = base.model.n_layers;
    let analytic = MemoryModel {
        batch: base.batch,
        optimizer_moments: 0,
        weight_bits: 32.0,
    };
    let mut table = Table::new(
        "T3: backprop depth x exit voting (no compression)",
        &[
            "depth",
            "voting",
            "acc",
            "ppl",
            "iter ms",
            "peak act",
            "analytic act",
            "analytic total",
        ],
    );
    for key in reads("t3", store.scale) {
        let a = store.get(&key)?;
        let (prepared, run) = (&a.prepared, &a.run);
        let depth = schedule_depth(&a.schedule, n_layers);
        let est = analytic.estimate(prepared.model.config(), depth);
        let average = VotingPolicy::all_exits(n_layers, VotingCombiner::Average);
        for (vname, policy) in [
            ("last exit", VotingPolicy::final_only(n_layers)),
            ("conf vote", conf_vote(n_layers)),
            ("avg vote", average),
        ] {
            let r = evaluate(&prepared.model, &policy, &prepared.eval_set, base.batch)?;
            table.add_row(vec![
                depth.to_string(),
                vname.to_string(),
                pct(r.accuracy as f64),
                f3(r.perplexity as f64),
                f3(run.mean_step_ms()),
                bytes(run.peak_activation_bytes),
                bytes(est.activation_bytes),
                bytes(est.total()),
            ]);
        }
    }
    Ok(table)
}

/// F1 — per-iteration speedup vs compression budget (the 2.92x headline
/// curve): modeled edge latency and measured CPU wall-clock at each budget,
/// window depth fixed at the paper default, with each row's accuracy and
/// whether it lies on the accuracy-vs-modeled-latency Pareto frontier of
/// the rows.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn f1_speedup(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let base = store.scale.config();
    let mut rows = Vec::new();
    for (m, cfg) in method_rows("f1", store.scale) {
        let a = store.get(&RunKey::method(m, &cfg))?;
        let out = outcome(m, &cfg, &a.prepared, &a.policy, &a.schedule, &a.run)?;
        rows.push((cfg.budget, out));
    }
    let points: Vec<PolicyPoint> = rows
        .iter()
        .map(|(_, out)| PolicyPoint {
            cost: out.modeled_iter_us as f32,
            loss: 1.0 - out.accuracy,
            policy: CompressionPolicy::identity(base.model.n_layers),
        })
        .collect();
    let frontier = pareto_frontier(&points);
    let mut table = Table::new(
        "F1: per-iteration speedup vs compression budget",
        &[
            "budget",
            "method",
            "modeled us",
            "modeled uJ",
            "modeled speedup",
            "iter ms",
            "measured speedup",
            "acc",
            "on frontier",
        ],
    );
    let vanilla = &rows[0].1;
    for ((budget, out), point) in rows.iter().zip(&points) {
        let on = frontier.contains(point);
        table.add_row(vec![
            f3(*budget as f64),
            out.method.clone(),
            f3(out.modeled_iter_us),
            f3(out.modeled_iter_uj),
            speedup(vanilla.modeled_iter_us / out.modeled_iter_us),
            f3(out.mean_iter_ms),
            speedup(vanilla.mean_iter_ms / out.mean_iter_ms),
            pct(out.accuracy as f64),
            if on { "yes".into() } else { "".into() },
        ]);
    }
    Ok(table)
}

/// F3 — hardware scheduling: naive vs exhaustively searched schedules for
/// the compressed workload, whole model, on the Jetson-class device.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn f3_schedule(scale: Scale) -> Result<Table, EdgeLlmError> {
    let base = scale.config();
    let task = base.task.build();
    let model_cfg = base.model.clone().with_vocab(task.vocab_size());
    let policy = uniform_policy_for_budget(model_cfg.n_layers, base.budget);
    let device = &DeviceModel::jetson_class();
    let workloads = model_workloads(&model_cfg, &policy, base.batch)?;
    let naive = naive_latency_us(&workloads, device)?;
    let space = ScheduleSpace::default();
    let exhaustive = schedule_workloads(&workloads, device, &space)?;
    let ex_lat = total_latency_us(&exhaustive);
    let mean_util =
        exhaustive.iter().map(|g| g.cost.utilization).sum::<f64>() / exhaustive.len().max(1) as f64;
    let mut table = Table::new(
        "F3: schedule search on the compressed workload",
        &[
            "strategy",
            "latency us",
            "speedup",
            "mean util",
            "evals/gemm",
        ],
    );
    table.add_row(vec![
        "naive".into(),
        f3(naive),
        speedup(1.0),
        "-".into(),
        "1".into(),
    ]);
    table.add_row(vec![
        "exhaustive".into(),
        f3(ex_lat),
        speedup(naive / ex_lat),
        pct(mean_util),
        space.len().to_string(),
    ]);
    Ok(table)
}

/// F5 — the LUC motivation figure: per-layer loss deltas under aggressive
/// quantization and pruning of the pretrained tied model, the profile
/// every tied LUC policy is searched on, as the store kept it when it
/// prepared that model.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn f5_sensitivity(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let prof = store.profile(store.scale.config().model.tie_exit_heads)?;
    let mut table = Table::new(
        "F5: per-layer sensitivity of the pretrained model",
        &[
            "layer",
            "d(2b)",
            "d(4b)",
            "d(8b)",
            "d(prune50)",
            "d(prune75)",
        ],
    );
    for l in 0..prof.n_layers() {
        table.add_row(vec![
            l.to_string(),
            f3(prof.quant_delta[l][0] as f64),
            f3(prof.quant_delta[l][1] as f64),
            f3(prof.quant_delta[l][2] as f64),
            f3(prof.prune_delta[l][2] as f64),
            f3(prof.prune_delta[l][3] as f64),
        ]);
    }
    Ok(table)
}

/// A1 — design-choice ablations called out in `DESIGN.md`: window schedule
/// (round-robin vs sensitivity-ordered vs full depth) and exit-head weight
/// tying, all under the same compression policy and iteration budget.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn a1_ablations(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let base = store.scale.config();
    let mut table = Table::new(
        "A1: window-schedule and exit-tying ablations",
        &["variant", "acc", "ppl", "iter ms", "peak act"],
    );
    for (name, key) in a1_variants(&base) {
        let a = store.get(&key)?;
        let (prepared, run) = (&a.prepared, &a.run);
        let voting = conf_vote(prepared.model.n_layers());
        let r = evaluate(&prepared.model, &voting, &prepared.eval_set, base.batch)?;
        table.add_row(vec![
            name.to_string(),
            pct(r.accuracy as f64),
            f3(r.perplexity as f64),
            f3(run.mean_step_ms()),
            bytes(run.peak_activation_bytes),
        ]);
    }
    Ok(table)
}

/// A3 — deployment ablations on an adapted Edge-LLM model: dynamic
/// activation quantization (W8/W4) and conversion of the unstructured LUC
/// masks to hardware-native 2:4 semi-structured sparsity.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn a3_deployment(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    use crate::compress::{apply_activation_quant, apply_nm_sparsity};
    use edge_llm_quant::{BitWidth, QuantScheme};
    let base = store.scale.config();
    let adapted = store.get(&reads("a3", store.scale)[0])?;
    let (model, eval_set) = (&adapted.prepared.model, &adapted.prepared.eval_set);
    let voting = conf_vote(model.n_layers());
    let mut table = Table::new(
        "A3: post-adaptation deployment transforms",
        &["deployment", "acc", "ppl"],
    );
    let mut row = |name: &str, m: &EdgeModel| {
        let r = evaluate(m, &voting, eval_set, base.batch)?;
        let (acc, ppl) = (pct(r.accuracy as f64), f3(r.perplexity as f64));
        table.add_row(vec![name.into(), acc, ppl]);
        Ok::<_, EdgeLlmError>(())
    };
    row("as adapted", model)?;
    for (name, bits) in [
        ("+ w8 activations", BitWidth::W8),
        ("+ w4 activations", BitWidth::W4),
    ] {
        let mut m = model.clone();
        apply_activation_quant(&mut m, Some(QuantScheme::asymmetric(bits)))?;
        row(name, &m)?;
    }
    let mut m = model.clone();
    apply_nm_sparsity(&mut m, 2, 4)?;
    row("+ 2:4 re-mask", &m)?;
    Ok(table)
}

/// S1 — serving throughput: aggregate generated tokens per second of the
/// continuous-batching engine across batch sizes and kernel thread
/// counts, against the same engine at batch 1 (sequential serving). Every
/// configuration produces bit-identical per-request outputs (the
/// differential suite proves this), so the only thing that varies here is
/// wall-clock.
///
/// # Errors
///
/// Propagates engine errors.
pub fn s1_serving(scale: Scale) -> Result<Table, EdgeLlmError> {
    use edge_llm_model::Decoding;
    use edge_llm_serve::{BatchedInferenceEngine, FinishReason, ServeRequest};
    let base = scale.config();
    let mut rng = TensorRng::seed_from(base.seed);
    let model_cfg = base.model.clone();
    let model = EdgeModel::new(model_cfg.clone(), &mut rng)?;
    let n_requests = match scale {
        Scale::Quick => 16,
        Scale::Full => 32,
    };
    let max_new = (model_cfg.seq_len / 2).max(1);
    let requests: Vec<ServeRequest> = (0..n_requests)
        .map(|i| {
            let prompt_len = 1 + i % (model_cfg.seq_len / 4).max(1);
            ServeRequest {
                id: format!("s1-{i}"),
                prompt: (0..prompt_len)
                    .map(|p| (i * 13 + p * 7 + 1) % model_cfg.vocab_size)
                    .collect(),
                max_new_tokens: max_new,
                decoding: match i % 3 {
                    0 => Decoding::Greedy,
                    1 => Decoding::Sample { temperature: 0.9 },
                    _ => Decoding::TopK {
                        k: 8,
                        temperature: 1.1,
                    },
                },
                voting: match i % 2 {
                    0 => VotingPolicy::final_only(model_cfg.n_layers),
                    _ => conf_vote(model_cfg.n_layers),
                },
                seed: 1000 + i as u64,
                deadline_steps: None,
                tenant: None,
            }
        })
        .collect();
    let mut table = Table::new(
        "S1: serving throughput vs batch size (continuous batching)",
        &["threads", "batch", "tokens/s", "speedup", "passes"],
    );
    let saved_threads = edge_llm_tensor::configured_threads();
    for &threads in &[1usize, 4] {
        edge_llm_tensor::set_configured_threads(threads);
        let mut base_tps = None;
        for &batch in &[1usize, 2, 4, 8] {
            // best-of-3: single-shot wall clock on a shared host swings by
            // tens of percent, and the fastest repetition is the least
            // contaminated by background load
            let mut best_tps = 0.0f64;
            let mut passes = 0;
            for _ in 0..3 {
                let mut engine = BatchedInferenceEngine::new(&model, batch)?;
                for r in &requests {
                    engine.submit(r.clone());
                }
                let run = telemetry::timed("serve.run");
                let outcomes = engine.run_to_completion()?;
                let elapsed = run.end() as f64 * 1e-9;
                debug_assert!(outcomes.iter().all(|o| o.finish == FinishReason::Completed));
                let tokens: usize = outcomes.iter().map(|o| o.tokens.len()).sum();
                best_tps = best_tps.max(tokens as f64 / elapsed.max(1e-9));
                passes = engine.steps_run();
            }
            let base_tps = *base_tps.get_or_insert(best_tps);
            table.add_row(vec![
                threads.to_string(),
                batch.to_string(),
                f3(best_tps),
                speedup(best_tps / base_tps),
                passes.to_string(),
            ]);
        }
    }
    edge_llm_tensor::set_configured_threads(saved_threads);
    Ok(table)
}

/// Runs one table by id (`"t1"`, `"f3"`, ...) — what `edgellm report`
/// calls per table, with one store for the whole report.
///
/// # Errors
///
/// Returns [`EdgeLlmError::BadConfig`] for an unknown id.
pub fn run_experiment(id: &str, store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    match id {
        "t1" => t1_main(store),
        "t2" => t2_luc(store),
        "t3" => t3_adaptive(store),
        "f1" => f1_speedup(store),
        "f3" => f3_schedule(store.scale),
        "f5" => f5_sensitivity(store),
        "a1" => a1_ablations(store),
        "a3" => a3_deployment(store),
        "s1" => s1_serving(store.scale),
        other => Err(EdgeLlmError::BadConfig {
            reason: format!("unknown experiment id {other}"),
        }),
    }
}

/// All experiment ids in report order.
pub const ALL_EXPERIMENTS: [&str; 9] = ["t1", "t2", "t3", "f1", "f3", "f5", "a1", "a3", "s1"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_t1_has_all_rows() {
        let t = t1_main(&mut RunStore::new(Scale::Quick, &["t1"])).unwrap();
        assert_eq!(t.n_rows(), 5);
    }

    #[test]
    fn a_report_plans_two_models_and_one_run_per_configuration() {
        // Planning pretrains and adapts nothing. Quick: T1 4, T2 6, T3 2,
        // F1 2, A1 3. Full: T1 4, T2 8, T3 3, F1 5, A1 2. T3's full depth
        // and F1's budget 1.0 read T1's vanilla run, A1's round-robin
        // tied row and A3 T1's Edge-LLM run, and at full scale T2's 0.25
        // uniform row reads T1's uniform run and A1's full depth tied row
        // T2's 0.25 DP run.
        for (scale, runs, uniform_reads) in [(Scale::Quick, 17, 1), (Scale::Full, 22, 2)] {
            let store = RunStore::new(scale, &ALL_EXPERIMENTS);
            assert_eq!(store.runs.len(), runs, "{scale:?}");
            assert!(store.models.iter().all(|(_, model)| model.is_none()));
            let left = store.models.map(|(left, _)| left);
            assert_eq!(left, [1, runs - 1], "A1's untied run, then the tied ones");
            let base = scale.config();
            let reads = |m| {
                let key = RunKey::method(m, &base);
                store.runs.iter().find(|p| p.key == key).unwrap().reads
            };
            assert_eq!(reads(Method::Vanilla), 3);
            assert_eq!(reads(Method::UniformCompressed), uniform_reads);
            assert_eq!(reads(Method::EdgeLlm), 3);
            let a1 = a1_variants(&base);
            assert_eq!(a1[0].0, "round-robin, tied");
            assert_eq!(a1[0].1, RunKey::method(Method::EdgeLlm, &base));
            if scale == Scale::Full {
                let t2 = method_rows("t2", scale);
                let (m, cfg) = (t2.iter())
                    .find(|(m, cfg)| *m == Method::EdgeLlm && cfg.budget == 0.25)
                    .unwrap();
                assert_eq!(a1[2].0, "full depth, tied");
                assert_eq!(a1[2].1, RunKey::method(*m, cfg));
            }
        }
    }

    #[test]
    fn a_read_the_plan_lacks_fails_typed() {
        // F3 reads no run, so T1's first read fails before any pretraining.
        let mut store = RunStore::new(Scale::Quick, &["f3"]);
        let err = t1_main(&mut store).err();
        assert!(
            matches!(err, Some(EdgeLlmError::BadConfig { .. })),
            "{err:?}"
        );
        assert!(store.models.iter().all(|(_, model)| model.is_none()));
    }

    #[test]
    fn f5_alone_plans_no_run_and_keeps_the_profile_it_prints() {
        // F5 reads the tied model's profile, not a run: alone, the store
        // plans nothing and prepares that model once, for its profile,
        // then holds the profile and not the model.
        let mut store = RunStore::new(Scale::Quick, &["f5"]);
        assert!(store.runs.is_empty());
        assert!(store.models.iter().all(|(left, _)| *left == 0));
        let first = f5_sensitivity(&mut store).unwrap();
        assert!(store.models.iter().all(|(_, model)| model.is_none()));
        let tied = usize::from(Scale::Quick.config().model.tie_exit_heads);
        assert!(store.profiles[tied].is_some());
        assert!(store.profiles[1 - tied].is_none());
        let again = f5_sensitivity(&mut store).unwrap();
        assert_eq!(again.to_string(), first.to_string());
    }

    #[test]
    fn f5_prints_the_profile_of_the_pretrained_model() {
        // Each cell is the pretrained tied model's profile, the one every
        // tied LUC run searched, not a profile of the adapted vanilla run.
        let profile = prepare(&Scale::Quick.config())
            .unwrap()
            .profile
            .get()
            .unwrap();
        let t = f5_sensitivity(&mut RunStore::new(Scale::Quick, &["f5"])).unwrap();
        assert_eq!(t.n_rows(), profile.n_layers());
        for l in 0..profile.n_layers() {
            let (q, p) = (&profile.quant_delta[l], &profile.prune_delta[l]);
            let cells = [q[0], q[1], q[2], p[2], p[3]].map(|d| f3(d as f64));
            for (c, cell) in cells.iter().enumerate() {
                assert_eq!(t.cell(l, c + 1).unwrap(), cell, "layer {l}");
            }
        }
    }

    #[test]
    fn t3_prints_one_peak_activation_per_depth_growing_with_depth() {
        // Each depth's three voting rows read one run, so they print its
        // one peak; a deeper backprop window keeps more activations.
        let t = t3_adaptive(&mut RunStore::new(Scale::Quick, &["t3"])).unwrap();
        let col = |name: &str| t.headers().iter().position(|h| h == name).unwrap();
        let (depth, peak) = (col("depth"), col("peak act"));
        let cell = |r, c| t.cell(r, c).unwrap();
        let in_bytes = |cell: &str| {
            let (value, unit) = cell.split_once(' ').unwrap();
            let scale = ["B", "KiB", "MiB", "GiB"].iter().position(|u| *u == unit);
            value.parse::<f64>().unwrap() * 1024f64.powi(scale.unwrap() as i32)
        };
        assert_eq!(t.n_rows(), 9);
        let mut peaks = Vec::new();
        for first in (0..t.n_rows()).step_by(3) {
            for r in first + 1..first + 3 {
                assert_eq!(cell(r, depth), cell(first, depth));
                assert_eq!(
                    cell(r, peak),
                    cell(first, peak),
                    "depth {}",
                    cell(first, depth)
                );
            }
            peaks.push(in_bytes(cell(first, peak)));
        }
        assert!(peaks.windows(2).all(|p| p[0] < p[1]), "{peaks:?}");
    }

    #[test]
    fn quick_f3_shows_speedup() {
        let t = f3_schedule(Scale::Quick).unwrap();
        assert_eq!(t.n_rows(), 2);
        // exhaustive speedup cell ends with 'x' and is > 1
        let cell = t.cell(1, 2).unwrap();
        let v: f64 = cell.trim_end_matches('x').parse().unwrap();
        assert!(v > 1.0, "schedule search should beat naive: {cell}");
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(run_experiment("t9", &mut RunStore::new(Scale::Quick, &["t9"])).is_err());
    }

    #[test]
    fn quick_s1_covers_every_configuration() {
        let t = s1_serving(Scale::Quick).unwrap();
        // 2 thread counts x 4 batch sizes
        assert_eq!(t.n_rows(), 8);
        // batch-1 rows are their own baseline
        assert_eq!(t.cell(0, 3).unwrap(), "1.00x");
        assert_eq!(t.cell(4, 3).unwrap(), "1.00x");
    }
}
