//! `adapt_windowed` and `adapt_fulldepth`: one adaptation iteration, the
//! paper's path and its vanilla baseline over the same model and data.
//!
//! Both pretrain an 8-layer model with deep supervision on a source
//! knowledge base and then adapt it to the target base. `adapt_windowed`
//! first compresses the model under a LUC-searched policy and tunes a
//! rotating 3-layer window (frozen compressed layers, weight-cache
//! re-quantisation of the window, a short backward); `adapt_fulldepth`
//! leaves the model dense and back-propagates through all 8 layers, so
//! `quant`, `prune` and `luc` are idle and the backward kernels dominate.

use crate::kernels;
use crate::metrics::{digest_u32, mean, pct, Outcome};
use crate::refclock::RefClock;
use crate::trace::{self, Trace, WINDOW};
use crate::workloads::{self, AdaptData};
use crate::{peak_rss_mib, repeat_setup, Params};
use edge_llm::compress::apply_policy;
use edge_llm::eval::evaluate;
use edge_llm::oracle::ModelOracle;
use edge_llm::pipeline::{LUC_BIT_CHOICES, LUC_RATIO_CHOICES};
use edge_llm::schedule::modeled_training_iteration;
use edge_llm_hw::DeviceModel;
use edge_llm_lab::Json;
use edge_llm_luc::{
    profile, search_policy, CompressionPolicy, LayerPolicy, SearchAlgorithm, SensitivityOracle,
};
use edge_llm_model::{
    fit_learned_weights, AdaptiveTuner, EdgeModel, LayerWindow, ModelConfig, Sgd, TuneStepReport,
    VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm_telemetry::span;
use edge_llm_tensor::TensorRng;
use std::time::Instant;

const N_LAYERS: usize = 8;
const D_MODEL: usize = 64;
const N_HEADS: usize = 4;
const SEQ_LEN: usize = 48;
const BATCH: usize = 2;
const LR: f32 = 0.1;
const LUC_BUDGET: f32 = 0.25;
const WINDOW_DEPTH: usize = 3;
/// Model weights are program state, not load: one fixed initialisation.
const MODEL_SEED: u64 = 42;
const WARMUP_STEPS: usize = 8;
/// A set-up takes seconds here, so three repeats are what the run can afford.
const SETUP_REPEATS: usize = 3;

/// Timed steps per second of `--seconds`, sized on the 2-core box the
/// baseline was recorded on (see BASELINE.md) so a window lasts about
/// that long there. A fixed count, not a deadline, keeps every loss,
/// count and digest identical from run to run.
const WINDOWED_STEPS_PER_S: f64 = 30.0;
const FULLDEPTH_STEPS_PER_S: f64 = 19.0;
const PRETRAIN_STEPS: usize = 64;
const QUICK_STEPS: usize = 48;
const QUICK_PRETRAIN_STEPS: usize = 16;

fn model_config() -> ModelConfig {
    ModelConfig::edge_base()
        .with_layers(N_LAYERS)
        .with_d_model(D_MODEL, N_HEADS)
        .with_seq_len(SEQ_LEN)
        .with_vocab(workloads::adapt_vocab())
}

/// A model pretrained, compressed (windowed only) and warmed up: the
/// state the timed window starts from.
struct Ready {
    model: EdgeModel,
    tuner: AdaptiveTuner,
    opt: Sgd,
    data: AdaptData,
    policy: CompressionPolicy,
    profile_evals: usize,
    /// Loss bits of the warm-up steps; equal across set-up repeats or the
    /// run is not deterministic.
    warmup_bits: Vec<u32>,
}

/// `ModelOracle` with a reading of the reference clock after every probe,
/// so the two-second sensitivity profile is sampled as closely as the
/// stepping loops are.
struct SampledOracle<'a, 'm> {
    inner: ModelOracle<'m>,
    clock: &'a mut RefClock,
}

impl SensitivityOracle for SampledOracle<'_, '_> {
    fn n_layers(&self) -> usize {
        self.inner.n_layers()
    }

    fn loss_with(&mut self, layer: usize, policy: LayerPolicy) -> f32 {
        let loss = self.inner.loss_with(layer, policy);
        self.clock.sample();
        loss
    }

    fn baseline_loss(&mut self) -> f32 {
        let loss = self.inner.baseline_loss();
        self.clock.sample();
        loss
    }
}

fn set_up(windowed: bool, p: &Params, clock: &mut RefClock) -> Ready {
    let cfg = model_config();
    let data = {
        let _s = span("bench.data.dataset_build");
        workloads::adapt_data(p.seed, SEQ_LEN, BATCH)
    };
    let mut model = EdgeModel::new(cfg.clone(), &mut TensorRng::seed_from(MODEL_SEED))
        .expect("benchmark model config is valid");
    {
        // Deep supervision, so every early-exit head works — the state a
        // deployed pretrained checkpoint arrives on-device with.
        let _s = span("bench.model.pretrain");
        let windows = (1..=N_LAYERS)
            .map(|end| LayerWindow { start: 0, end })
            .collect();
        let mut tuner = AdaptiveTuner::new(WindowSchedule::Ordered(windows));
        let mut opt = Sgd::new(LR);
        let steps = if p.quick {
            QUICK_PRETRAIN_STEPS
        } else {
            PRETRAIN_STEPS
        };
        for it in 0..steps {
            let b = data.pretrain.batch_at(it * BATCH, BATCH);
            tuner
                .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
                .expect("pretrain step");
            clock.sample();
        }
    }
    let (policy, profile_evals) = if windowed {
        let calib = &data.calib;
        let mut oracle = SampledOracle {
            inner: ModelOracle::new(&model, &calib.tokens, &calib.targets, calib.batch),
            clock: &mut *clock,
        };
        let prof = {
            let _s = span("bench.luc.profile");
            profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES).expect("LUC profile")
        };
        let found = {
            let _s = span("bench.luc.search");
            search_policy(&prof, LUC_BUDGET, SearchAlgorithm::DynamicProgramming)
                .expect("LUC search")
        };
        let evals = oracle.inner.probes();
        {
            let _s = span("bench.core.apply_policy");
            apply_policy(&mut model, &found.policy).expect("policy applies");
        }
        clock.sample();
        (found.policy, evals)
    } else {
        (CompressionPolicy::identity(N_LAYERS), 0)
    };
    let schedule = if windowed {
        WindowSchedule::RoundRobin {
            depth: WINDOW_DEPTH,
        }
    } else {
        WindowSchedule::FullDepth
    };
    let mut tuner = AdaptiveTuner::new(schedule);
    let mut opt = Sgd::new(LR);
    let _s = span("bench.model.warmup");
    let warmup_bits = (0..WARMUP_STEPS)
        .map(|it| {
            let b = data.train.batch_at(it * BATCH, BATCH);
            let report = tuner
                .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
                .expect("warm-up step");
            clock.sample();
            report.loss.to_bits()
        })
        .collect();
    Ready {
        model,
        tuner,
        opt,
        data,
        policy,
        profile_evals,
        warmup_bits,
    }
}

fn loss_digest(bits: &[u32]) -> Json {
    digest_u32(bits.iter().copied())
}

/// Kept/total weights over every masked projection of the model.
fn mask_density(model: &EdgeModel) -> f64 {
    let (mut kept, mut total) = (0usize, 0usize);
    for l in 0..model.n_layers() {
        let block = model.block(l);
        let (qkv, proj) = block.attn().linears();
        let (fc1, fc2) = block.mlp().linears();
        for lin in [qkv, proj, fc1, fc2] {
            let (d_in, d_out) = lin.shape();
            total += d_in * d_out;
            kept += lin.mask().map_or(d_in * d_out, |m| m.kept());
        }
    }
    kept as f64 / total as f64
}

/// Final-exit loss over the whole training set. Step losses come from a
/// different exit head and batch each step, so whether the window taught
/// the model anything is judged on this one fixed quantity instead.
fn train_set_loss(tuner: &AdaptiveTuner, model: &EdgeModel, data: &AdaptData) -> f32 {
    let all = data.train.batch_at(0, data.train.len());
    tuner
        .eval_loss(model, &all.tokens, &all.targets, all.batch)
        .expect("training-set loss evaluates")
}

pub fn run(windowed: bool, p: &Params) -> Outcome {
    let workload = if windowed {
        "adapt_windowed"
    } else {
        "adapt_fulldepth"
    };
    let mut out = Outcome::default();
    trace::begin(p.traced);

    let mut warmups: Vec<Vec<u32>> = Vec::new();
    // one reference clock from the first set-up to the end of the window
    let mut clock = RefClock::start();
    let (setups, ready) = repeat_setup(p, SETUP_REPEATS, || {
        let ready = set_up(windowed, p, &mut clock);
        warmups.push(ready.warmup_bits.clone());
        ready
    });
    out.check(
        "setup_repeats_identical",
        warmups.windows(2).all(|w| w[0] == w[1]),
        format!("{} set-ups, warm-up loss bits compared", warmups.len()),
    );
    let Ready {
        mut model,
        mut tuner,
        mut opt,
        data,
        policy,
        profile_evals,
        warmup_bits,
    } = ready;

    let rate = if windowed {
        WINDOWED_STEPS_PER_S
    } else {
        FULLDEPTH_STEPS_PER_S
    };
    let full_steps = p.count(rate, QUICK_STEPS);
    // The traced run covers the first quarter of the untraced one, so
    // `run` can compare the two step for step.
    let prefix = p.prefix(full_steps, QUICK_STEPS);
    let steps = p.run_length(full_steps, QUICK_STEPS);

    let loss_before = train_set_loss(&tuner, &model, &data);
    let mut iterations = Vec::with_capacity(steps);
    let mut step_ns = 0u64;
    let mut reports: Vec<TuneStepReport> = Vec::with_capacity(steps);
    let window = span(WINDOW);
    let t_window = Instant::now();
    for it in 0..steps {
        let t0 = Instant::now();
        let b = {
            let _s = span("bench.data.batch_at");
            data.train.batch_at((WARMUP_STEPS + it) * BATCH, BATCH)
        };
        let t1 = Instant::now();
        let report = {
            let _s = span("bench.model.tune_step");
            tuner.step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
        };
        let t2 = Instant::now();
        clock.sample();
        iterations.push((t0, t2));
        step_ns += (t2 - t1).as_nanos() as u64;
        out.attempted += 1;
        match report {
            Ok(r) if r.loss.is_finite() => reports.push(r),
            _ => out.failed += 1,
        }
    }
    let t_end = Instant::now();
    drop(window);
    // every timing below is in reference time (see `refclock`)
    let timeline = clock.finish();
    let setup_s = timeline.median_secs(&setups);
    let window_s = timeline.secs(t_window, t_end);
    let iter_ms: Vec<f64> = iterations
        .iter()
        .map(|&(t0, t2)| timeline.secs(t0, t2) * 1e3)
        .collect();
    let wall_ms: Vec<f64> = iterations
        .iter()
        .map(|&(t0, t2)| (t2 - t0).as_secs_f64() * 1e3)
        .collect();
    out.wall("step_ms_p50", pct(&wall_ms, 50), "ms");
    out.wall("ref_kernel_us_p50", timeline.kernel_us_p50(), "us");
    out.sampled("ref_kernel_us", timeline.readings());

    let voting = if windowed {
        // Edge-LLM's adaptive voting: per-exit reliability weights fitted
        // on held-in data, sharpened so reliable exits dominate.
        let _s = span("bench.model.voting_fit");
        let calib = data.train.batch_at(0, BATCH);
        let exits: Vec<usize> = (0..N_LAYERS).collect();
        let weights = fit_learned_weights(&model, &exits, &calib.tokens, &calib.targets, BATCH)
            .expect("voting weights fit")
            .into_iter()
            .map(|w| w.powi(3))
            .collect();
        VotingPolicy {
            exits,
            combiner: VotingCombiner::Learned(weights),
        }
    } else {
        VotingPolicy::final_only(N_LAYERS)
    };
    let eval = {
        let _s = span("bench.core.evaluate");
        evaluate(&model, &voting, &data.eval, BATCH).expect("evaluation runs")
    };
    let depth = if windowed { WINDOW_DEPTH } else { N_LAYERS };
    let modeled_us = {
        let _s = span("bench.hw.modeled_iter");
        modeled_training_iteration(
            model.config(),
            &policy,
            depth,
            BATCH,
            &DeviceModel::jetson_class(),
        )
        .expect("device model schedules the policy")
        .0
    };

    let bits: Vec<u32> = reports.iter().map(|r| r.loss.to_bits()).collect();
    let loss_after = train_set_loss(&tuner, &model, &data);
    out.check(
        "loss_decreases",
        loss_after < loss_before,
        format!("final-exit loss over the training set {loss_before:.4} before the window, {loss_after:.4} after"),
    );
    let peak_of = |r: &[TuneStepReport]| r.iter().map(|r| r.activation_bytes).max().unwrap_or(0);
    let peak_activation = peak_of(&reports);
    let requant = per_step(&reports, |r| r.phases.requant_layers as f64);
    let requant_ok = if windowed {
        requant > 0.0 && requant <= WINDOW_DEPTH as f64
    } else {
        requant == 0.0
    };
    out.check(
        "requant_layers_per_step",
        requant_ok,
        format!("{requant} layers re-quantised per step"),
    );
    out.exact("warmup_loss_digest", loss_digest(&warmup_bits));
    out.exact("loss_digest", loss_digest(&bits));
    out.exact(
        "loss_digest_prefix",
        loss_digest(&bits[..prefix.min(bits.len())]),
    );
    out.exact("prefix_steps", Json::Int(prefix as i64));
    out.exact("peak_activation_bytes", Json::Int(peak_activation as i64));
    out.exact(
        "peak_activation_bytes_prefix",
        Json::Int(peak_of(&reports[..prefix.min(reports.len())]) as i64),
    );
    out.exact("eval_accuracy", Json::Float(eval.accuracy as f64));
    out.exact("policy", Json::Str(policy.to_compact_string()));

    let step_p50 = pct(&iter_ms, 50);
    match trace::end(p.traced, workload).expect("trace written") {
        None => {
            out.set("setup_s", setup_s);
            out.set("step_ms_p50", step_p50);
            out.set("tokens_per_s", (BATCH * SEQ_LEN * steps) as f64 / window_s);
            out.set("peak_rss_mib", peak_rss_mib());
            out.sampled("step_ms", iter_ms.len());
        }
        Some(trace) => {
            layer_metrics(&mut out, &trace, &reports, step_ns);
            out.set("trace.step_ms_p50", step_p50);
            out.set("model.tune_step_ms_p95", pct(&iter_ms, 95));
            out.set("model.peak_activation_bytes", peak_activation as f64);
            out.set("model.requant_layers_per_step", requant);
            out.set("core.eval_accuracy", eval.accuracy as f64);
            out.set("hw.modeled_iter_us", modeled_us);
            if windowed {
                out.set("luc.profile_evals", profile_evals as f64);
                out.set("prune.mask_density", mask_density(&model));
                out.set(
                    "quant.fake_quant_weight_us",
                    kernels::fake_quant_weight_us(D_MODEL, 4 * D_MODEL, p.quick),
                );
            }
            let mm = kernels::matmul_us(BATCH * SEQ_LEN, D_MODEL, 4 * D_MODEL, p.quick);
            out.set("tensor.matmul_nn_us", mm.nn_us);
            out.set("tensor.matmul_tn_us", mm.tn_us);
            out.set("tensor.matmul_nt_us", mm.nt_us);
            out.set("tensor.matmul_flops_per_call", mm.flops_per_call);
            out.sampled("trace.step_ms", iter_ms.len());
        }
    }
    out
}

fn per_step(reports: &[TuneStepReport], f: fn(&TuneStepReport) -> f64) -> f64 {
    mean(&reports.iter().map(f).collect::<Vec<_>>())
}

/// Per-layer metrics that come from the trace and the returned
/// `StepPhases`.
fn layer_metrics(out: &mut Outcome, trace: &Trace, reports: &[TuneStepReport], step_ns: u64) {
    // set-up and post-window calls: one span per call, median over the
    // set-up repeats; a span the workload never opens leaves its layer idle
    for (metric, span_name) in [
        ("data.dataset_build_ms", "bench.data.dataset_build"),
        ("model.pretrain_ms", "bench.model.pretrain"),
        ("luc.profile_ms", "bench.luc.profile"),
        ("luc.search_ms", "bench.luc.search"),
        ("core.apply_policy_ms", "bench.core.apply_policy"),
        ("model.voting_fit_ms", "bench.model.voting_fit"),
        ("core.evaluate_ms", "bench.core.evaluate"),
    ] {
        let calls = trace.durations_ms(span_name);
        if !calls.is_empty() {
            out.set(metric, pct(&calls, 50));
        }
    }

    let phase = |f: fn(&TuneStepReport) -> u64| -> Vec<f64> {
        reports.iter().map(|r| f(r) as f64 / 1e6).collect()
    };
    let forward = phase(|r| r.phases.forward_ns);
    let backward = phase(|r| r.phases.backward_ns);
    let optimizer = phase(|r| r.phases.optimizer_ns);
    out.set("model.tune_forward_ms_p50", pct(&forward, 50));
    out.set("model.tune_backward_ms_p50", pct(&backward, 50));
    out.set("model.tune_optimizer_ms_p50", pct(&optimizer, 50));
    out.sampled("model.tune_phase_ms", reports.len());
    let phase_ms: f64 = [&forward, &backward, &optimizer]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    let phase_coverage = phase_ms / (step_ns as f64 / 1e6);
    out.set("model.tune_phase_coverage", phase_coverage);
    out.check(
        "phase_coverage",
        phase_coverage >= trace::MIN_COVERAGE,
        format!("phases cover {phase_coverage:.4} of the step's outside wall"),
    );
    trace.check_coverage(out);

    out.set(
        "model.cache_invalidations_per_step",
        per_step(reports, |r| r.phases.cache_invalidations as f64),
    );
    out.set(
        "model.forward_layers_mean",
        per_step(reports, |r| r.forward_layers as f64),
    );
    out.set(
        "model.activation_bytes_mean",
        per_step(reports, |r| r.activation_bytes as f64),
    );
}
