//! Experiment harness for the Edge-LLM reproduction.
//!
//! Every table (T1–T3), figure (F1, F3, F5), ablation (A1–A3), and the
//! serving study (S1) is regenerated by a function in this module;
//! `edgellm report` prints them, and `benchmark/src/kernels.rs` times the
//! underlying kernels. Every adaptation goes through one [`RunStore`] per
//! report, which pretrains each model once and adapts each configuration
//! (model, installed policy, schedule, loss-spike guard) once, so a table
//! reads the runs an earlier one made (F5 reads T3's, A3 A1's). T3 carries the analytic memory model beside its measured
//! activations, F1 the accuracy frontier beside its latencies, and T1's
//! no-vote row is its Edge-LLM run's final-exit evaluation. See
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! results.

use crate::baselines::uniform_policy_for_budget;
use crate::eval::evaluate;
use crate::oracle::ModelOracle;
use crate::pipeline::{
    adapt, outcome, plan, prepare, AdaptationOutcome, ExperimentConfig, Method, Prepared, TaskKind,
    LUC_BIT_CHOICES, LUC_RATIO_CHOICES,
};
use crate::report::{bytes, f3, pct, speedup, Table};
use crate::resilience::{AdaptRun, ResilienceConfig};
use crate::schedule::{model_workloads, naive_latency_us, schedule_workloads, total_latency_us};
use crate::EdgeLlmError;
use edge_llm_hw::{DeviceModel, ScheduleSpace};
use edge_llm_luc::{
    pareto_frontier, profile, search_policy, CompressionPolicy, PolicyPoint, SearchAlgorithm,
};
use edge_llm_model::{
    EdgeModel, MemoryModel, ModelConfig, VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::TensorRng;

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

/// What one report run adapts; the rest is [`Scale::config`]. An input
/// the policy or schedule ignores (vanilla's budget, uniform tuning's
/// window depth) is not part of it, so such rows share one run.
#[derive(Debug, Clone, PartialEq)]
struct RunKey {
    /// Which pretrained model: whether its exit heads are tied.
    tied: bool,
    policy: CompressionPolicy,
    schedule: WindowSchedule,
    /// On for the [`Method`] rows (T1, T2, F1), as in `run_method`.
    spike_guard: bool,
}

/// One adapted run: its key, the adapted model and data, the runtime's account.
struct Adapted {
    key: RunKey,
    prepared: Prepared,
    run: AdaptRun,
}

/// The runs one report makes, each on first request: [`prepare`] once per
/// model, [`adapt`] once per configuration on a clone of it. A table's
/// `regenerated in` time leaves out the runs an earlier table made.
pub struct RunStore {
    scale: Scale,
    /// The untied and the tied pretrained model.
    models: [Option<Prepared>; 2],
    runs: Vec<Adapted>,
}

impl RunStore {
    /// An empty store for the report at `scale`.
    pub fn new(scale: Scale) -> Self {
        RunStore {
            scale,
            models: [None, None],
            runs: Vec::new(),
        }
    }

    /// The run under the policy and schedule `plan` picks on a clone of
    /// the `tied` model, adapted unless a table asked for it before. An
    /// ablation records its own trajectory: with the spike guard on,
    /// full-scale A1's sensitivity-ordered run rolls back at iteration 274
    /// (loss 2.17 against an EWMA of 0.446). Non-finite detection stays
    /// on, and an ablation that needed recovery is not the run it names.
    fn run(
        &mut self,
        tied: bool,
        spike_guard: bool,
        plan: impl FnOnce(&mut Prepared) -> Result<(CompressionPolicy, WindowSchedule), EdgeLlmError>,
    ) -> Result<&Adapted, EdgeLlmError> {
        let mut cfg = self.scale.config();
        cfg.model = cfg.model.with_tied_exits(tied);
        let slot = &mut self.models[usize::from(tied)];
        let model = match slot.take() {
            Some(model) => model,
            None => prepare(&cfg)?,
        };
        let mut prepared = slot.insert(model).clone();
        let (policy, schedule) = plan(&mut prepared)?;
        let key = RunKey {
            tied,
            policy,
            schedule,
            spike_guard,
        };
        if let Some(i) = self.runs.iter().position(|a| a.key == key) {
            return Ok(&self.runs[i]);
        }
        let mut res = ResilienceConfig::default();
        if !spike_guard {
            res.spike_factor = f32::INFINITY;
        }
        let run = adapt(&mut prepared, &cfg, &key.policy, key.schedule.clone(), &res)?;
        assert!(
            spike_guard || run.journal.is_empty(),
            "ablation run needed recovery:\n{}",
            run.journal
        );
        self.runs.push(Adapted { key, prepared, run });
        Ok(&self.runs[self.runs.len() - 1])
    }

    /// A [`Method`] row at `cfg`'s budget and window depth.
    fn outcome(
        &mut self,
        method: Method,
        cfg: &ExperimentConfig,
    ) -> Result<AdaptationOutcome, EdgeLlmError> {
        let a = self.run(cfg.model.tie_exit_heads, true, |p| plan(method, cfg, p))?;
        let (policy, schedule) = (&a.key.policy, &a.key.schedule);
        outcome(method, cfg, &a.prepared, policy, schedule, &a.run)
    }

    /// Uncompressed adaptation at a window depth (T3, F5).
    fn dense(&mut self, depth: usize) -> Result<&Adapted, EdgeLlmError> {
        self.run(self.scale.config().model.tie_exit_heads, false, |p| {
            let n = p.model.n_layers();
            let identity = CompressionPolicy::identity(n);
            Ok((identity, WindowSchedule::for_depth(depth, n)))
        })
    }
}

/// A1's and A3's plan: the DP policy from a profile of the pretrained model
/// on its first target batch, and `schedule`, or windows in that profile's
/// sensitivity order when it is `None`.
fn luc_ablation(
    prepared: &Prepared,
    cfg: &ExperimentConfig,
    schedule: Option<WindowSchedule>,
) -> Result<(CompressionPolicy, WindowSchedule), EdgeLlmError> {
    let calib = prepared.train.batch_at(0, cfg.batch);
    let mut oracle = ModelOracle::new(&prepared.model, &calib.tokens, &calib.targets, cfg.batch);
    let prof = profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES)?;
    let policy = search_policy(&prof, cfg.budget, SearchAlgorithm::DynamicProgramming)?.policy;
    let schedule = schedule
        .unwrap_or_else(|| crate::windows::sensitivity_window_schedule(&prof, cfg.window_depth));
    Ok((policy, schedule))
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
    let cfg = store.scale.config();
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
    for m in [
        Method::Vanilla,
        Method::LastLayerOnly,
        Method::UniformCompressed,
        Method::EdgeLlm,
    ] {
        let out = store.outcome(m, &cfg)?;
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
    let base = store.scale.config();
    let budgets: &[f32] = match store.scale {
        Scale::Quick => &[0.2, 0.4],
        Scale::Full => &[0.15, 0.25, 0.4],
    };
    let mut table = Table::new(
        "T2: layer-wise unified compression vs uniform at matched budgets",
        &["budget", "policy", "acc", "ppl", "mean bits", "mean prune"],
    );
    for &budget in budgets {
        for method in [
            Method::UniformCompressed,
            Method::EdgeLlmGreedyLuc,
            Method::EdgeLlm,
        ] {
            let mut cfg = base.clone();
            cfg.budget = budget;
            // isolate the compression axis: same full-depth tuning for all
            cfg.window_depth = cfg.model.n_layers;
            let out = store.outcome(method, &cfg)?;
            table.add_row(vec![
                f3(budget as f64),
                out.method.clone(),
                pct(out.accuracy as f64),
                f3(out.perplexity as f64),
                format!("{:.1}", out.policy_bits),
                pct(out.policy_ratio as f64),
            ]);
        }
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
    let below_full = [1, 2, 4].into_iter().filter(|&d| d < n_layers);
    for depth in below_full.chain([n_layers]) {
        let Adapted { prepared, run, .. } = store.dense(depth)?;
        let est = analytic.estimate(prepared.model.config(), depth);
        for (vname, policy) in [
            ("last exit", VotingPolicy::final_only(n_layers)),
            (
                "conf vote",
                VotingPolicy::all_exits(
                    n_layers,
                    VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
                ),
            ),
            (
                "avg vote",
                VotingPolicy::all_exits(n_layers, VotingCombiner::Average),
            ),
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
    let budgets: &[f32] = match store.scale {
        Scale::Quick => &[1.0, 0.4, 0.2],
        Scale::Full => &[1.0, 0.5, 0.3, 0.2, 0.125, 0.0625],
    };
    let mut rows = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let mut cfg = base.clone();
        cfg.budget = budget;
        let method = if budget >= 1.0 {
            Method::Vanilla
        } else {
            Method::EdgeLlm
        };
        rows.push((budget, store.outcome(method, &cfg)?));
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
/// quantization and pruning, measured on an adapted model.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn f5_sensitivity(store: &mut RunStore) -> Result<Table, EdgeLlmError> {
    let base = store.scale.config();
    let model = &store.dense(base.model.n_layers)?.prepared.model;
    let task = base.task.build();
    let mut rng = TensorRng::seed_from(base.seed + 1);
    let calib: Vec<_> = (0..base.batch)
        .map(|_| task.sample(base.model.seq_len, &mut rng))
        .collect();
    let tokens: Vec<usize> = calib.iter().flat_map(|s| s.tokens.clone()).collect();
    let targets: Vec<usize> = calib.iter().flat_map(|s| s.targets.clone()).collect();
    let mut oracle = ModelOracle::new(model, &tokens, &targets, base.batch);
    let prof = profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES)?;
    let mut table = Table::new(
        "F5: per-layer sensitivity of the adapted model",
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

/// A2 — device sweep: the modeled Edge-LLM per-iteration speedup across
/// edge-device classes, showing the claim is not an artifact of one device
/// description.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn a2_devices(scale: Scale) -> Result<Table, EdgeLlmError> {
    let base = scale.config();
    let task = base.task.build();
    let model_cfg = base.model.clone().with_vocab(task.vocab_size());
    let n = model_cfg.n_layers;
    let vanilla_policy = CompressionPolicy::identity(n);
    let edge_policy = uniform_policy_for_budget(n, base.budget);
    let mut table = Table::new(
        "A2: modeled per-iteration speedup across devices",
        &["device", "vanilla us", "edge-llm us", "speedup"],
    );
    for device in [
        DeviceModel::jetson_class(),
        DeviceModel::tx2_class(),
        DeviceModel::orin_class(),
    ] {
        let (v_us, _) = crate::schedule::modeled_training_iteration(
            &model_cfg,
            &vanilla_policy,
            n,
            base.batch,
            &device,
        )?;
        let (e_us, _) = crate::schedule::modeled_training_iteration(
            &model_cfg,
            &edge_policy,
            base.window_depth,
            base.batch,
            &device,
        )?;
        table.add_row(vec![
            device.name.clone(),
            f3(v_us),
            f3(e_us),
            speedup(v_us / e_us),
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
    let depth = base.window_depth;
    let round_robin = WindowSchedule::RoundRobin { depth };
    let variants = [
        ("round-robin, tied", true, Some(round_robin.clone())),
        ("sensitivity-ordered, tied", true, None),
        ("full depth, tied", true, Some(WindowSchedule::FullDepth)),
        ("round-robin, untied", false, Some(round_robin)),
    ];
    for (name, tied, schedule) in variants {
        let Adapted { prepared, run, .. } =
            store.run(tied, false, |p| luc_ablation(p, &base, schedule))?;
        let voting = VotingPolicy::all_exits(
            prepared.model.n_layers(),
            VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
        );
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
    let depth = base.window_depth;
    let round_robin = Some(WindowSchedule::RoundRobin { depth });
    let adapted = &store.run(true, false, |p| luc_ablation(p, &base, round_robin))?;
    let (model, eval_set) = (&adapted.prepared.model, &adapted.prepared.eval_set);
    let voting = VotingPolicy::all_exits(
        model.n_layers(),
        VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
    );
    let mut table = Table::new(
        "A3: post-adaptation deployment transforms",
        &["deployment", "acc", "ppl"],
    );
    let baseline = evaluate(model, &voting, eval_set, base.batch)?;
    table.add_row(vec![
        "as adapted".into(),
        pct(baseline.accuracy as f64),
        f3(baseline.perplexity as f64),
    ]);
    for (name, bits) in [
        ("+ w8 activations", BitWidth::W8),
        ("+ w4 activations", BitWidth::W4),
    ] {
        let mut m = model.clone();
        apply_activation_quant(&mut m, Some(QuantScheme::asymmetric(bits)))?;
        let r = evaluate(&m, &voting, eval_set, base.batch)?;
        table.add_row(vec![
            name.into(),
            pct(r.accuracy as f64),
            f3(r.perplexity as f64),
        ]);
    }
    {
        let mut m = model.clone();
        apply_nm_sparsity(&mut m, 2, 4)?;
        let r = evaluate(&m, &voting, eval_set, base.batch)?;
        table.add_row(vec![
            "+ 2:4 re-mask".into(),
            pct(r.accuracy as f64),
            f3(r.perplexity as f64),
        ]);
    }
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
                    _ => VotingPolicy::all_exits(
                        model_cfg.n_layers,
                        VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
                    ),
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
        "a2" => a2_devices(store.scale),
        "a3" => a3_deployment(store),
        "s1" => s1_serving(store.scale),
        other => Err(EdgeLlmError::BadConfig {
            reason: format!("unknown experiment id {other}"),
        }),
    }
}

/// All experiment ids in report order.
pub const ALL_EXPERIMENTS: [&str; 10] =
    ["t1", "t2", "t3", "f1", "f3", "f5", "a1", "a2", "a3", "s1"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_t1_has_all_rows() {
        let t = t1_main(&mut RunStore::new(Scale::Quick)).unwrap();
        assert_eq!(t.n_rows(), 5);
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
        assert!(run_experiment("t9", &mut RunStore::new(Scale::Quick)).is_err());
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
