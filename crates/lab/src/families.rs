//! Engine drivers: one function per task family that runs *this repo's*
//! code in-process over merged trial params and reports metrics.
//!
//! Each driver splits its results along the lab's determinism contract:
//!
//! * **metrics** — pure functions of (params, seed): token checksums,
//!   served/shed counts, resident bytes, acceptance accounting. These go
//!   to `trial_output.json` and must be byte-identical across repeats
//!   and thread counts.
//! * **timing** — wall-clock-derived values (tokens/s, steps/s, probe
//!   cost). These go to the `timing.json` sidecar and are only ever
//!   gated by spec-declared `ge`/`le`/`band` bars, never exactly.
//!
//! The decoding families serve: `spec_decode` submits one request to a
//! one-slot [`BatchedInferenceEngine`], `tenants` a batch of them, and
//! `fleet` a traffic scenario to the fleet router's engines. Each reads
//! the served outcomes and the serving report, so what a trial times and
//! counts is the served path, with no decode loop of the lab's own.
//!
//! Scales are parameters, so the same driver serves both the
//! verify-tier smoke spec and the bench-scale specs under
//! `experiments/` that hold the repo's headline ratios.

use crate::analysis::digest;
use crate::schemas::{token_checksum, Family, Fields, LabError};
use edge_llm::compress::{apply_activation_quant, apply_policy};
use edge_llm::luc::CompressionPolicy;
use edge_llm::quant::{BitWidth, QuantScheme};
use edge_llm_fleet::{run_fleet, FleetConfig, ScenarioSpec, SessionFinish};
use edge_llm_model::{
    batched_decode_step, AdapterTarget, AdaptiveTuner, BatchedStep, Decoding, EdgeModel,
    ModelConfig, SequenceKv, Sgd, TenantAdapter, VotingPolicy, WindowSchedule,
};
use edge_llm_serve::{BatchedInferenceEngine, FinishReason, ServeRequest};
use edge_llm_telemetry as telemetry;
use edge_llm_telemetry::Json;
use edge_llm_tensor::{argmax, TensorRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// What a family driver hands back to the runner.
#[derive(Debug)]
pub struct TrialResult {
    /// Deterministic metrics, in insertion order.
    pub metrics: Vec<(String, Json)>,
    /// Wall-clock-derived values (never byte-compared).
    pub timing: Vec<(String, Json)>,
}

impl TrialResult {
    fn new() -> Self {
        TrialResult {
            metrics: Vec::new(),
            timing: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, v: Json) {
        self.metrics.push((name.to_string(), v));
    }

    fn time(&mut self, name: &str, v: Json) {
        self.timing.push((name.to_string(), v));
    }
}

/// Runs one trial of `family` with the merged `params` at `seed`.
///
/// # Errors
///
/// [`LabError::Spec`] on unknown or ill-typed params;
/// [`LabError::Trial`] if the engine run itself fails.
pub fn run_family(family: Family, seed: u64, params: &Json) -> Result<TrialResult, LabError> {
    match family {
        Family::SpecDecode => run_spec_decode(seed, params),
        Family::Tenants => run_tenants(seed, params),
        Family::Fleet => run_fleet_family(seed, params),
        Family::Igemm => run_igemm(seed, params),
        Family::Tune => run_tune(seed, params),
    }
}

// ---- param access -------------------------------------------------------

fn p_bits(p: &Fields, key: &str, default: BitWidth) -> Result<BitWidth, LabError> {
    match p.get(key).map(Json::as_str) {
        None => Ok(default),
        Some(Some("w2")) => Ok(BitWidth::W2),
        Some(Some("w4")) => Ok(BitWidth::W4),
        Some(Some("w8")) => Ok(BitWidth::W8),
        Some(Some("w16")) => Ok(BitWidth::W16),
        _ => Err(LabError::Spec(format!(
            "param {key:?} must be one of \"w2\"|\"w4\"|\"w8\"|\"w16\""
        ))),
    }
}

fn model_config(p: &Fields, def: (usize, usize, usize, usize)) -> Result<ModelConfig, LabError> {
    let (layers, d_model, heads, seq_len) = def;
    Ok(ModelConfig::tiny()
        .with_layers(p.usize_or("layers", layers)?)
        .with_d_model(p.usize_or("d_model", d_model)?, p.usize_or("heads", heads)?)
        .with_seq_len(p.usize_or("seq_len", seq_len)?))
}

fn trial(e: impl std::fmt::Display) -> LabError {
    LabError::Trial(e.to_string())
}

// ---- model cache --------------------------------------------------------

/// The `spec_decode` family's adapted models, keyed by their full recipe
/// and shared across a run's variants and repeats: a task's greedy and
/// spec arms (and every repeat) serve one adapted model instead of
/// re-running its tuner steps (160 at bench scale) each. The key names
/// everything that shapes the weights, so any param change misses. The
/// other families build their model per trial: a seeded init, at most
/// one policy applied, milliseconds.
/// A poisoned lock is recovered: the map only ever gains a finished
/// model, so no panic can leave it half-written.
fn model_cache() -> MutexGuard<'static, HashMap<String, Arc<EdgeModel>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<EdgeModel>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cached_model(
    key: String,
    build: impl FnOnce() -> Result<EdgeModel, LabError>,
) -> Result<Arc<EdgeModel>, LabError> {
    if let Some(m) = model_cache().get(&key) {
        return Ok(Arc::clone(m));
    }
    // Built outside the lock: builds can take seconds and other trials
    // may want different models meanwhile.
    let model = Arc::new(build()?);
    Ok(Arc::clone(model_cache().entry(key).or_insert(model)))
}

// ---- spec_decode --------------------------------------------------------

const SPEC_KEYS: &[&str] = &[
    "layers",
    "d_model",
    "heads",
    "seq_len",
    "train_steps",
    "cycle",
    "prompt_len",
    "decode_tokens",
    "mode",
    "depth",
    "k",
];

/// One greedy or self-speculative request, served by a one-slot
/// [`BatchedInferenceEngine`] on a model whose exits a short round-robin
/// adaptation calibrated: the stream, the round accounting and the
/// tokens/s are the served path's own.
fn run_spec_decode(seed: u64, params: &Json) -> Result<TrialResult, LabError> {
    let p = Fields::new(params, "params", SPEC_KEYS)?;
    let cfg = model_config(&p, (2, 32, 4, 48))?;
    let train_steps = p.usize_or("train_steps", 40)?;
    let cycle = p.usize_or("cycle", 7)?.max(1);
    let prompt_len = p.usize_or("prompt_len", 3)?.max(1);
    let n_new = p.usize_or("decode_tokens", 32)?;
    let (draft_depth, k) = (p.usize_or("depth", 1)?, p.usize_or("k", 4)?);
    let decoding = match p.str_or("mode", "greedy")? {
        "greedy" => Decoding::Greedy,
        "spec" => Decoding::SelfSpeculative { draft_depth, k },
        mode => {
            return Err(LabError::Spec(format!(
                "param \"mode\" must be \"greedy\" or \"spec\", got {mode:?}"
            )))
        }
    };

    let key = format!(
        "spec_decode/{seed}/{}x{}h{}s{}/steps{train_steps}/cycle{cycle}",
        cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.seq_len
    );
    let model = cached_model(key, move || {
        // Calibration recipe: adapt on a cyclic successor task with
        // round-robin depth-1 windows so every exit head learns the
        // mapping and the draft is worth verifying.
        let seq = cfg.seq_len;
        let mut model = EdgeModel::new(cfg, &mut TensorRng::seed_from(seed)).map_err(trial)?;
        let tokens: Vec<usize> = (0..seq).map(|i| i % cycle).collect();
        let targets: Vec<usize> = (0..seq).map(|i| (i + 1) % cycle).collect();
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
        for _ in 0..train_steps {
            tuner
                .step(&mut model, &mut opt, &tokens, &targets, 1)
                .map_err(trial)?;
        }
        Ok(model)
    })?;

    let mut engine = BatchedInferenceEngine::new(&model, 1).map_err(trial)?;
    engine.submit(ServeRequest {
        id: "spec_decode".into(),
        prompt: (0..prompt_len).map(|i| i % cycle).collect(),
        max_new_tokens: n_new,
        decoding,
        voting: VotingPolicy::final_only(model.n_layers()),
        seed,
        deadline_steps: None,
        tenant: None,
    });
    let t0 = Instant::now();
    let outcomes = engine.run_to_completion().map_err(trial)?;
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    // A request the engine refused or cut short is a spec that asks for
    // more than the model serves: a bad draft depth, or more tokens than
    // its window holds.
    let emitted = match outcomes.as_slice() {
        [o] if o.finish == FinishReason::Completed => &o.tokens,
        [o] => {
            return Err(LabError::Spec(format!(
                "the request finished {:?} after {} of {n_new} tokens",
                o.finish,
                o.tokens.len()
            )))
        }
        _ => return Err(LabError::Trial("one request, one outcome".into())),
    };

    let mut result = TrialResult::new();
    result.metric("tokens_emitted", Json::Int(emitted.len() as i64));
    result.metric("token_checksum", Json::str(&token_checksum(emitted)));
    if let Decoding::SelfSpeculative { .. } = decoding {
        let report = engine.report();
        result.metric("rounds", Json::Int(report.spec_rounds as i64));
        result.metric("drafted", Json::Int(report.spec_drafted as i64));
        result.metric("accepted", Json::Int(report.spec_accepted as i64));
        let acceptance_rate = report.spec_acceptance_rate().unwrap_or(0.0);
        result.metric("acceptance_rate", Json::Float(acceptance_rate));
    }
    result.time("tokens_per_s", Json::Float(emitted.len() as f64 / secs));
    Ok(result)
}

// ---- tenants ------------------------------------------------------------

const TENANT_KEYS: &[&str] = &[
    "layers",
    "d_model",
    "heads",
    "seq_len",
    "bits",
    "prune_ratio",
    "tenants",
    "sessions",
    "max_batch",
    "adapter_rank",
];

fn run_tenants(seed: u64, params: &Json) -> Result<TrialResult, LabError> {
    let p = Fields::new(params, "params", TENANT_KEYS)?;
    let cfg = model_config(&p, (2, 64, 4, 32))?;
    let bits = p_bits(&p, "bits", BitWidth::W4)?;
    let prune_ratio = p.f64_or("prune_ratio", 0.25)? as f32;
    let tenants = p.usize_or("tenants", 1)?.max(1);
    let sessions = p.usize_or("sessions", 16)?;
    let max_batch = p.usize_or("max_batch", 4)?;
    let rank = p.usize_or("adapter_rank", 1)?;

    let mut rng = TensorRng::seed_from(seed);
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).map_err(trial)?;
    let policy = CompressionPolicy::uniform(cfg.n_layers, bits, prune_ratio);
    apply_policy(&mut model, &policy).map_err(trial)?;

    let mut engine = BatchedInferenceEngine::new(&model, max_batch).map_err(trial)?;
    let sites = [
        (0, AdapterTarget::Qkv),
        (cfg.n_layers - 1, AdapterTarget::Fc2),
    ];
    for t in 0..tenants {
        let adapter = TenantAdapter::seeded(&cfg, seed.wrapping_add(t as u64), rank, &sites);
        engine
            .register_adapter(&format!("tenant-{t}"), adapter)
            .map_err(trial)?;
    }
    // Requests are identical across tenant counts apart from the
    // tenant assignment.
    let mut rng = TensorRng::seed_from(seed.wrapping_add(7));
    for i in 0..sessions {
        let prompt_len = 4 + rng.index(5);
        let prompt = (0..prompt_len).map(|_| rng.index(cfg.vocab_size)).collect();
        engine.submit(ServeRequest {
            id: format!("s{i}"),
            prompt,
            max_new_tokens: 8 + rng.index(9),
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(cfg.n_layers),
            seed: rng.next_u64(),
            deadline_steps: None,
            tenant: Some(format!("tenant-{}", i % tenants)),
        });
    }
    let t0 = Instant::now();
    let outcomes = engine.run_to_completion().map_err(trial)?;
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    // Outcomes arrive in completion order, which scheduling details may
    // shift; checksum in id order so the fingerprint only sees streams.
    let mut by_id: Vec<_> = outcomes.iter().collect();
    by_id.sort_by(|a, b| a.id.cmp(&b.id));
    let all_tokens: Vec<usize> = by_id
        .iter()
        .flat_map(|o| o.tokens.iter().copied())
        .collect();
    let base_bytes = engine.weight_resident_bytes();
    let adapter_bytes = engine.adapter_cache().resident_bytes();
    let mut result = TrialResult::new();
    result.metric("served", Json::Int(outcomes.len() as i64));
    result.metric("tokens", Json::Int(all_tokens.len() as i64));
    result.metric("token_checksum", Json::str(&token_checksum(&all_tokens)));
    result.metric("base_bytes", Json::Int(base_bytes as i64));
    result.metric("adapter_bytes", Json::Int(adapter_bytes as i64));
    result.metric(
        "resident_bytes",
        Json::Int((base_bytes + adapter_bytes) as i64),
    );
    result.time("tokens_per_s", Json::Float(all_tokens.len() as f64 / secs));
    Ok(result)
}

// ---- fleet --------------------------------------------------------------

const FLEET_KEYS: &[&str] = &[
    "layers",
    "d_model",
    "heads",
    "seq_len",
    "scenario",
    "sessions",
    "span_ticks",
    "max_new_min",
    "max_new_max",
    "workers",
    "batch_per_worker",
    "queue_depth",
    "max_retries",
    "slo_queue_ticks",
];

fn run_fleet_family(seed: u64, params: &Json) -> Result<TrialResult, LabError> {
    let p = Fields::new(params, "params", FLEET_KEYS)?;
    let cfg = model_config(&p, (2, 32, 4, 32))?;
    let scenario_name = p.str_or("scenario", "steady")?;
    let mut spec = ScenarioSpec::builtin(scenario_name).ok_or_else(|| {
        LabError::Spec(format!(
            "unknown scenario {scenario_name:?} (one of: {})",
            ScenarioSpec::builtin_names().join(", ")
        ))
    })?;
    spec.seed = seed;
    spec.sessions = p.usize_or("sessions", spec.sessions)?;
    spec.span_ticks = p.usize_or("span_ticks", spec.span_ticks as usize)? as u64;
    spec.max_new_tokens = (
        p.usize_or("max_new_min", spec.max_new_tokens.0)?,
        p.usize_or("max_new_max", spec.max_new_tokens.1)?,
    );
    let (lo, hi) = spec.max_new_tokens;
    if lo > hi {
        return Err(LabError::Spec(format!(
            "param \"max_new_min\" ({lo}) must not exceed \"max_new_max\" ({hi})"
        )));
    }
    let fleet_cfg = FleetConfig {
        workers: p.usize_or("workers", 1)?.max(1),
        batch_per_worker: p.usize_or("batch_per_worker", 4)?,
        queue_depth: p.usize_or("queue_depth", 64)?,
        max_retries: p.usize_or("max_retries", 2)?,
        slo_queue_ticks: match p.get("slo_queue_ticks") {
            Some(Json::Null) => None,
            _ => p.opt_u64("slo_queue_ticks")?,
        },
        faults: spec.faults.clone(),
    };

    let model = EdgeModel::new(cfg, &mut TensorRng::seed_from(seed)).map_err(trial)?;
    let traffic = spec.generate(model.config().vocab_size, model.n_layers());
    let t0 = Instant::now();
    let run = run_fleet(&model, &fleet_cfg, &traffic).map_err(trial)?;
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    // Outcomes are in completion order, which legitimately differs
    // across worker counts; checksum in id order so the workers=1 vs N
    // oracle compares streams, not scheduling.
    let mut by_id: Vec<_> = run.outcomes.iter().collect();
    by_id.sort_by(|a, b| a.id.cmp(&b.id));
    let all_tokens: Vec<usize> = by_id
        .iter()
        .flat_map(|o| o.tokens.iter().copied())
        .collect();
    let report = &run.report;
    let mut result = TrialResult::new();
    result.metric("served", Json::Int(report.served as i64));
    result.metric("total_shed", Json::Int(report.total_shed() as i64));
    for (cause, n) in &report.shed {
        result.metric(&format!("shed.{cause:?}"), Json::Int(*n as i64));
    }
    result.metric("replays", Json::Int(report.replays as i64));
    result.metric(
        "replayed_sessions",
        Json::Int(run.outcomes.iter().filter(|o| o.retries > 0).count() as i64),
    );
    result.metric(
        "shed_sessions",
        Json::Int(
            run.outcomes
                .iter()
                .filter(|o| matches!(o.finish, SessionFinish::Shed(_)))
                .count() as i64,
        ),
    );
    result.metric(
        "tokens_generated",
        Json::Int(report.tokens_generated as i64),
    );
    result.metric("ticks", Json::Int(report.ticks as i64));
    // Queue waits are measured in lock-step router ticks, so the whole
    // latency summary is deterministic and belongs with the metrics.
    result.metric(
        "queue_wait_p50_ticks",
        Json::Int(report.queue_wait_ticks.p50_ns as i64),
    );
    result.metric(
        "queue_wait_p95_ticks",
        Json::Int(report.queue_wait_ticks.p95_ns as i64),
    );
    result.metric(
        "queue_wait_p99_ticks",
        Json::Int(report.queue_wait_ticks.p99_ns as i64),
    );
    result.metric(
        "queue_wait_max_ticks",
        Json::Int(report.queue_wait_ticks.max_ns as i64),
    );
    result.metric("token_checksum", Json::str(&token_checksum(&all_tokens)));
    result.time(
        "tokens_per_s",
        Json::Float(report.tokens_generated as f64 / secs),
    );
    Ok(result)
}

// ---- igemm --------------------------------------------------------------

const IGEMM_KEYS: &[&str] = &[
    "layers",
    "d_model",
    "heads",
    "seq_len",
    "bits",
    "sparsity",
    "integer",
    "pack",
    "decode_tokens",
    "rows",
];

fn run_igemm(seed: u64, params: &Json) -> Result<TrialResult, LabError> {
    let p = Fields::new(params, "params", IGEMM_KEYS)?;
    let cfg = model_config(&p, (4, 64, 4, 4))?;
    let bits = p_bits(&p, "bits", BitWidth::W4)?;
    let sparsity = p.f64_or("sparsity", 0.25)? as f32;
    let integer = p.bool_or("integer", true)?;
    let pack = p.bool_or("pack", true)?;
    let n_tokens = p.usize_or("decode_tokens", 32)?;
    let rows = p.usize_or("rows", 1)?.max(1);

    let mut rng = TensorRng::seed_from(seed);
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).map_err(trial)?;
    apply_policy(
        &mut model,
        &CompressionPolicy::uniform(cfg.n_layers, bits, sparsity),
    )
    .map_err(trial)?;
    apply_activation_quant(&mut model, Some(QuantScheme::asymmetric(BitWidth::W8)))
        .map_err(trial)?;
    model.set_integer_decode_enabled(integer);
    if pack {
        model.pack_frozen_weights().map_err(trial)?;
    }

    // `rows` sequences are fed the same token stream through one batched
    // pass per token; one row is exactly an `InferenceSession`. Every row
    // computes what row 0 does, so the stream below is the solo stream
    // whatever `rows` is — the batched-equals-solo oracle of the batching
    // task — and tokens/s counts every row's token.
    let mut kvs: Vec<SequenceKv> = (0..rows).map(|_| SequenceKv::new(&model)).collect();
    let exits = [cfg.n_layers - 1];
    let push = |kvs: &mut [SequenceKv], token: usize| -> Result<usize, LabError> {
        if kvs[0].remaining() == 0 {
            kvs.iter_mut().for_each(SequenceKv::reset);
        }
        let mut steps: Vec<BatchedStep<'_>> = kvs
            .iter_mut()
            .map(|kv| BatchedStep {
                token,
                kv,
                exits: &exits,
                adapter: None,
            })
            .collect();
        let logits = batched_decode_step(&model, &mut steps).map_err(trial)?;
        Ok(argmax(logits[0][0].row(0)))
    };
    push(&mut kvs, 0)?;
    // The argmax stream fingerprints the route's numerics: packed vs
    // lazy on the same route must agree exactly (decode_equivalence
    // pins this); integer vs dequant differ by quantization grid and
    // are deliberately NOT compared.
    let mut argmaxes = Vec::with_capacity(n_tokens);
    let t0 = Instant::now();
    for t in 0..n_tokens {
        argmaxes.push(push(&mut kvs, t % cfg.vocab_size)?);
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    let mut result = TrialResult::new();
    result.metric("tokens_decoded", Json::Int((rows * n_tokens) as i64));
    result.metric("argmax_checksum", Json::str(&token_checksum(&argmaxes)));
    result.time("tokens_per_s", Json::Float((rows * n_tokens) as f64 / secs));
    Ok(result)
}

// ---- tune ---------------------------------------------------------------

const TUNE_KEYS: &[&str] = &[
    "layers",
    "d_model",
    "heads",
    "seq_len",
    "policy",
    "steps",
    "recording",
];

/// Cost in ns of one disabled instrumentation point (a `span` open, its
/// close, and a `counter` bump are three points), loop overhead
/// subtracted. Only meaningful with no recording session active.
fn disabled_ns_per_point() -> f64 {
    const CALLS: usize = 2_000_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        black_box(i);
    }
    let empty_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for i in 0..CALLS {
        let g = telemetry::span("lab.disabled");
        telemetry::counter("lab.disabled", i as u64);
        let _ = black_box(g);
    }
    let probed_ns = t0.elapsed().as_nanos() as f64;
    ((probed_ns - empty_ns) / (CALLS as f64 * 3.0)).max(0.0)
}

/// Windowed adaptation steps on a LUC-compressed model: the adaptation
/// iteration the telemetry probes ride on. Two untimed steps (cache
/// warm-up, then the steady-state step the recording-off arm counts its
/// probes on) precede `steps` timed ones, so every arm applies the same
/// update sequence and the parameter checksum is comparable across them.
fn run_tune(seed: u64, params: &Json) -> Result<TrialResult, LabError> {
    let p = Fields::new(params, "params", TUNE_KEYS)?;
    let cfg = model_config(&p, (2, 32, 4, 4))?;
    let policy = match p.get("policy") {
        None => CompressionPolicy::uniform(cfg.n_layers, BitWidth::W4, 0.25),
        Some(_) => CompressionPolicy::parse_compact(p.str("policy")?)
            .map_err(|e| LabError::Spec(format!("param \"policy\": {e}")))?,
    };
    let steps = p.usize_or("steps", 8)?.max(1);
    let recording = p.bool_or("recording", true)?;

    let mut rng = TensorRng::seed_from(seed);
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).map_err(trial)?;
    apply_policy(&mut model, &policy).map_err(trial)?;
    let mut rng = TensorRng::seed_from(seed.wrapping_add(7));
    let tokens: Vec<usize> = (0..cfg.seq_len)
        .map(|_| rng.index(cfg.vocab_size))
        .collect();
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let mut step = |model: &mut EdgeModel| {
        tuner
            .step(model, &mut opt, &tokens, &tokens, 1)
            .map(|r| r.phases)
            .map_err(trial)
    };

    // The runner records every trial; the recording-off arm ends that
    // session here so its timed steps run the disabled path (the
    // runner's own trailing `disable()` then returns an empty trace).
    if !recording {
        telemetry::disable();
    }
    step(&mut model)?;
    let points_per_step = if recording {
        step(&mut model)?;
        None
    } else {
        // Every recorded event is exactly one instrumentation point.
        telemetry::enable(Arc::new(telemetry::FakeClock::with_tick(1)));
        let counted = step(&mut model);
        let points = telemetry::disable().len();
        counted?;
        Some(points)
    };
    let (mut phase_ns, mut total_ns) = (0u64, 0u64);
    let t0 = Instant::now();
    for _ in 0..steps {
        let p = step(&mut model)?;
        phase_ns += p.forward_ns + p.backward_ns + p.optimizer_ns;
        total_ns += p.total_ns;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    let mut bytes = Vec::with_capacity(model.num_params() * 4);
    model.visit_params_all_ro(&mut |_, p| {
        bytes.extend(p.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    });
    let mut result = TrialResult::new();
    result.metric("steps", Json::Int(steps as i64));
    result.metric("param_checksum", Json::str(&digest(&bytes)));
    result.time("steps_per_s", Json::Float(steps as f64 / secs));
    // The share of a step its `tune.*` phase spans cover (a telemetry gate).
    result.time(
        "phase_coverage",
        Json::Float(phase_ns as f64 / total_ns.max(1) as f64),
    );
    if let Some(points) = points_per_step {
        // The disabled-path bar from first principles rather than by
        // differencing two noisy wall clocks: probes a step executes x
        // cost of one disabled probe, as a share of the measured step.
        let ns_per_point = disabled_ns_per_point();
        let step_ns = secs * 1e9 / steps as f64;
        result.time("points_per_step", Json::Int(points as i64));
        result.time("disabled_ns_per_point", Json::Float(ns_per_point));
        result.time(
            "disabled_probe_pct",
            Json::Float(points as f64 * ns_per_point / step_ns * 100.0),
        );
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Json {
        Json::parse(text).expect("test params parse")
    }

    #[test]
    fn unknown_params_are_rejected() {
        for (family, text) in [
            (Family::SpecDecode, r#"{"warp": 1}"#),
            (Family::Tenants, r#"{"warp": 1}"#),
            (Family::Fleet, r#"{"warp": 1}"#),
            (Family::Igemm, r#"{"warp": 1}"#),
            (Family::Tune, r#"{"warp": 1}"#),
        ] {
            let err = run_family(family, 1, &obj(text)).unwrap_err();
            assert!(matches!(err, LabError::Spec(_)), "{family:?}");
        }
    }

    #[test]
    fn spec_decode_greedy_and_spec_emit_identical_streams() {
        let base = r#"{"layers": 2, "d_model": 16, "heads": 2, "seq_len": 32,
                       "train_steps": 12, "decode_tokens": 12}"#;
        let greedy = run_family(Family::SpecDecode, 5, &obj(base)).unwrap();
        let spec_params = merge(base, r#"{"mode": "spec", "depth": 1, "k": 4}"#);
        let spec = run_family(Family::SpecDecode, 5, &spec_params).unwrap();
        assert_eq!(
            get(&greedy, "token_checksum"),
            get(&spec, "token_checksum"),
            "spec decode must emit the greedy stream bit-identically"
        );
        assert_eq!(get(&greedy, "tokens_emitted"), Json::Int(12));
        assert!(spec.metrics.iter().any(|(k, _)| k == "acceptance_rate"));
    }

    #[test]
    fn spec_decode_refuses_a_request_its_model_cannot_serve() {
        let base = r#"{"layers": 2, "d_model": 16, "heads": 2, "seq_len": 16,
                       "train_steps": 2, "decode_tokens": 8}"#;
        for over in [
            r#"{"decode_tokens": 16}"#,
            r#"{"mode": "spec", "decode_tokens": 16}"#,
            r#"{"mode": "spec", "depth": 2}"#,
        ] {
            match run_family(Family::SpecDecode, 5, &merge(base, over)) {
                Err(LabError::Spec(msg)) => assert!(msg.contains("finished"), "{msg}"),
                other => panic!("{over}: expected a spec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn igemm_packed_matches_lazy_on_the_integer_route() {
        let base = r#"{"layers": 2, "d_model": 32, "heads": 2, "seq_len": 4,
                       "decode_tokens": 8}"#;
        let packed = run_family(Family::Igemm, 3, &obj(base)).unwrap();
        let lazy = run_family(Family::Igemm, 3, &merge(base, r#"{"pack": false}"#)).unwrap();
        assert_eq!(
            get(&packed, "argmax_checksum"),
            get(&lazy, "argmax_checksum")
        );
    }

    const TUNE_TOY: &str = r#"{"layers": 2, "d_model": 16, "heads": 2, "seq_len": 4,
                               "policy": "4:0.25,2:0.5", "steps": 3}"#;

    #[test]
    fn tune_param_checksum_sees_the_parameters() {
        let a = run_family(Family::Tune, 11, &obj(TUNE_TOY)).unwrap();
        let again = run_family(Family::Tune, 11, &obj(TUNE_TOY)).unwrap();
        assert_eq!(
            get(&a, "param_checksum"),
            get(&again, "param_checksum"),
            "an adaptation run must be reproducible"
        );
        let other_seed = run_family(Family::Tune, 12, &obj(TUNE_TOY)).unwrap();
        assert_ne!(
            get(&a, "param_checksum"),
            get(&other_seed, "param_checksum"),
            "the checksum must see the parameters"
        );
    }

    #[test]
    fn tune_recording_never_perturbs_a_parameter() {
        // The only test in this binary that owns the process-global
        // recording session; stray events from concurrent tests land in
        // it harmlessly.
        telemetry::enable(Arc::new(telemetry::MonotonicClock::new()));
        let on = run_family(Family::Tune, 11, &obj(TUNE_TOY));
        let recorded = telemetry::disable();
        let on = on.unwrap();
        assert!(!recorded.is_empty(), "the on arm ran under a live session");
        let off = run_family(
            Family::Tune,
            11,
            &merge(TUNE_TOY, r#"{"recording": false}"#),
        )
        .unwrap();
        assert_eq!(get(&on, "param_checksum"), get(&off, "param_checksum"));
        // only the off arm measures the disabled path
        let timed = |r: &TrialResult, key: &str| r.timing.iter().any(|(k, _)| k == key);
        assert!(timed(&off, "disabled_probe_pct") && timed(&off, "points_per_step"));
        assert!(!timed(&on, "disabled_probe_pct"));
        assert!(!telemetry::is_enabled(), "the off arm leaves recording off");
    }

    #[test]
    fn fleet_reports_deterministic_counts() {
        let params = obj(
            r#"{"layers": 2, "d_model": 16, "heads": 2, "scenario": "steady",
                             "sessions": 6, "workers": 2}"#,
        );
        let a = run_family(Family::Fleet, 9, &params).unwrap();
        let b = run_family(Family::Fleet, 9, &params).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(get(&a, "served"), Json::Int(6));
    }

    #[test]
    fn fleet_rejects_an_inverted_token_range() {
        // either bound alone can cross the scenario's default for the other
        for text in [
            r#"{"sessions": 4, "max_new_min": 16, "max_new_max": 8}"#,
            r#"{"max_new_min": 1000}"#,
            r#"{"max_new_max": 0}"#,
        ] {
            match run_family(Family::Fleet, 1, &obj(text)) {
                Err(LabError::Spec(msg)) => {
                    assert!(
                        msg.contains("max_new_min") && msg.contains("max_new_max"),
                        "{msg}"
                    )
                }
                other => panic!("{text}: expected a spec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fleet_rejects_a_tenants_param() {
        // The fleet family serves no adapters, so tenant sessions would
        // all be rejected at submission; the `tenants` family serves them.
        let params = obj(r#"{"sessions": 4, "tenants": 2}"#);
        match run_family(Family::Fleet, 1, &params) {
            Err(LabError::Spec(msg)) => {
                assert!(msg.contains("unknown field \"tenants\""), "{msg}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    fn merge(base: &str, over: &str) -> Json {
        crate::schemas::merge_params(&obj(base), &obj(over))
    }

    fn get(r: &TrialResult, key: &str) -> Json {
        r.metrics
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("metric {key} missing"))
            .1
            .clone()
    }
}
