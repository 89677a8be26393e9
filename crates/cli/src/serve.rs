//! Serving what was tuned: `edgellm generate` decodes one prompt,
//! `serve` a request file through the continuous-batching engine, and
//! `loadgen` a seeded traffic scenario through the sharded fleet.

use crate::adapt::load_text_run;
use crate::{run_err, CliError, Flags};
use edge_llm_data::CharTokenizer;
use edge_llm_fleet::{run_fleet_with_adapters, FleetConfig, ScenarioSpec};
use edge_llm_model::{
    AdapterTarget, Decoding, EdgeModel, ModelConfig, TenantAdapter, VotingCombiner, VotingPolicy,
};
use edge_llm_serve::{BatchedInferenceEngine, FinishReason, ServeRequest};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{fnv1a64, TensorRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::Write;

/// Generate a continuation from an adapted checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Generate {
    /// Checkpoint path (written by `adapt`).
    pub ckpt: String,
    /// Prompt text (printable ASCII).
    pub prompt: String,
    /// Number of tokens to generate.
    pub tokens: usize,
    /// Top-k pool size (0 = greedy).
    pub top_k: usize,
    /// Sampling temperature.
    pub temperature: f32,
    /// RNG seed.
    pub seed: u64,
    /// Draft exit layer for self-speculative decoding (`Some` turns it
    /// on, overriding `top_k`; output equals greedy decode).
    pub draft_depth: Option<usize>,
    /// Draft tokens per verify pass when self-speculating.
    pub draft_k: usize,
}

pub(crate) fn generate<W: Write>(c: &Generate, out: &mut W) -> Result<(), CliError> {
    let tok = CharTokenizer::new();
    let (model, ..) = load_text_run(&c.ckpt)?;
    let mut rng = TensorRng::seed_from(c.seed);
    let n = model.n_layers();
    let conf = VotingPolicy::all_exits(n, VotingCombiner::ConfidenceWeighted { temperature: 1.0 });
    let temperature = c.temperature;
    // --draft-depth switches to self-speculative decoding, which
    // verifies (and emits) the final exit's greedy tokens — so it
    // pins the voting policy to final-only.
    let (decoding, voting) = match (c.draft_depth, c.top_k) {
        (Some(draft_depth), _) => {
            let k = c.draft_k;
            (
                Decoding::SelfSpeculative { draft_depth, k },
                VotingPolicy::final_only(n),
            )
        }
        (None, 0) => (Decoding::Greedy, conf),
        (None, k) => (Decoding::TopK { k, temperature }, conf),
    };
    let ids = tok.encode(&c.prompt);
    // Generation never mutates weights: build the quantized layers'
    // codes before the first token (no-op on dense models).
    model.pack_frozen_weights().map_err(run_err)?;
    let generated = edge_llm_model::generate(&model, &voting, &ids, c.tokens, decoding, &mut rng)
        .map_err(run_err)?;
    writeln!(out, "{}", tok.decode(&generated))?;
    Ok(())
}

/// Serve a batch of generation requests from a request file through the
/// continuous-batching engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    /// Checkpoint path (written by `adapt`).
    pub ckpt: String,
    /// Path to the request file (one request per line, see `help`).
    pub requests: String,
    /// Maximum requests per batched forward pass.
    pub batch: usize,
}

/// Derives a deterministic per-tenant LoRA adapter from the tenant name
/// alone (FNV-1a of the name seeds the factors), so `serve` and
/// `loadgen` agree on what any tenant's adapter looks like without a
/// registry file. Rank-1 deltas on the first layer's attention input
/// and the last layer's FFN output are enough to make each tenant's
/// stream distinct while staying tiny next to the packed base.
pub(crate) fn seeded_tenant_adapter(cfg: &ModelConfig, tenant: &str) -> TenantAdapter {
    let seed = fnv1a64(tenant.as_bytes());
    let sites = [
        (0, AdapterTarget::Qkv),
        (cfg.n_layers - 1, AdapterTarget::Fc2),
    ];
    TenantAdapter::seeded(cfg, seed, 1, &sites)
}

pub(crate) fn serve<W: Write>(c: &Serve, out: &mut W) -> Result<(), CliError> {
    let tok = CharTokenizer::new();
    let (model, ..) = load_text_run(&c.ckpt)?;
    let requests = &c.requests;
    let text = fs::read_to_string(requests)
        .map_err(|e| CliError::Run(format!("cannot read requests {requests}: {e}")))?;
    let parsed = parse_request_file(&text, &tok, model.n_layers())?;
    if parsed.is_empty() {
        return Err(CliError::Run(format!("no requests in {requests}")));
    }
    let mut engine = BatchedInferenceEngine::new(&model, c.batch).map_err(run_err)?;
    // every tenant named in the file gets its name-seeded adapter
    // registered up front; requests without one run the base
    let tenants: BTreeSet<String> = parsed.iter().filter_map(|r| r.tenant.clone()).collect();
    for t in &tenants {
        engine
            .register_adapter(t, seeded_tenant_adapter(model.config(), t))
            .map_err(run_err)?;
    }
    let ids: Vec<String> = parsed.iter().map(|r| r.id.clone()).collect();
    for r in parsed {
        engine.submit(r);
    }
    let run = telemetry::timed("serve.run");
    let outcomes = engine.run_to_completion().map_err(run_err)?;
    let elapsed = run.end() as f64 * 1e-9;
    let mut total_tokens = 0usize;
    for id in &ids {
        let o = outcomes
            .iter()
            .find(|o| &o.id == id)
            .ok_or_else(|| CliError::Run(format!("request {id} left no outcome")))?;
        let status = match &o.finish {
            FinishReason::Rejected { reason } => {
                writeln!(out, "{id} [rejected: {reason}]")?;
                continue;
            }
            FinishReason::Completed => "completed",
            FinishReason::DeadlineExceeded => "deadline exceeded",
            FinishReason::CapacityExhausted => "capacity exhausted",
        };
        total_tokens += o.tokens.len();
        writeln!(
            out,
            "{id} [{status}, {} tokens, {} steps]: {}",
            o.tokens.len(),
            o.steps,
            tok.decode(&o.tokens)
        )?;
    }
    writeln!(
        out,
        "served {} requests in {elapsed:.2}s: {total_tokens} tokens, \
         {:.1} tokens/s, {} batched passes, {} resident weight bytes",
        ids.len(),
        total_tokens as f64 / elapsed.max(1e-9),
        engine.steps_run(),
        engine.weight_resident_bytes()
    )?;
    let report = engine.report();
    writeln!(
        out,
        "latency: queue wait {} | decode token {}",
        report.queue_wait, report.decode_token
    )?;
    if report.spec_rounds > 0 {
        // a round with zero drafts has no acceptance rate — print n/a
        // rather than a fabricated 0.00
        let ratio = |v: Option<f64>| match v {
            Some(v) => format!("{v:.2}"),
            None => "n/a".to_string(),
        };
        writeln!(
            out,
            "speculative: {} rounds, acceptance rate {}, {} tokens/verify pass",
            report.spec_rounds,
            ratio(report.spec_acceptance_rate()),
            ratio(report.spec_tokens_per_verify_pass())
        )?;
    }
    if !tenants.is_empty() {
        let resident: Vec<String> = report
            .adapter_resident_bytes
            .iter()
            .map(|(t, b)| format!("{t}={b}B"))
            .collect();
        writeln!(
            out,
            "adapters: {} hits, {} misses, {} replaced evictions; resident: {}",
            report.adapter_hits,
            report.adapter_misses,
            report.adapter_evictions_replaced,
            if resident.is_empty() {
                "none".to_string()
            } else {
                resident.join(" ")
            }
        )?;
    }
    Ok(())
}

/// Parses a serve request file: one request per line, `#` comment lines
/// and blank lines skipped. Ids must be unique — outcomes are reported by
/// id.
pub(crate) fn parse_request_file(
    text: &str,
    tok: &CharTokenizer,
    n_layers: usize,
) -> Result<Vec<ServeRequest>, CliError> {
    let mut requests: Vec<ServeRequest> = Vec::new();
    let mut id_lines = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = lineno + 1;
        let at_line = |m: String| CliError::Usage(format!("request line {n}: {m}"));
        let request =
            parse_request(line, requests.len() + 1, tok, n_layers).map_err(|e| match e {
                CliError::Usage(m) | CliError::Run(m) => at_line(m),
            })?;
        if let Some(first) = id_lines.insert(request.id.clone(), n) {
            let id = &request.id;
            return Err(at_line(format!("id {id:?} already used on line {first}")));
        }
        requests.push(request);
    }
    Ok(requests)
}

/// One request line, `key=value ... :: prompt text`, the `number`th of its
/// file. The options go through the command line's flag consumer, so an
/// unknown option is refused; a repeated one keeps its last value.
fn parse_request(
    line: &str,
    number: usize,
    tok: &CharTokenizer,
    n_layers: usize,
) -> Result<ServeRequest, CliError> {
    // a line may start at the separator (no options at all)
    let (head, prompt_text) = match line.strip_prefix(":: ") {
        Some(rest) => ("", rest),
        None => line.split_once(" :: ").ok_or_else(|| {
            CliError::Usage("missing ' :: ' between options and prompt".to_string())
        })?,
    };
    let mut options = BTreeMap::new();
    for pair in head.split_whitespace() {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(CliError::Usage(format!("expected key=value, got {pair:?}")));
        };
        options.insert(format!("--{key}"), value);
    }
    let mut f = Flags(options.iter().flat_map(|(k, v)| [k.as_str(), *v]).collect());
    let id = f.or("--id", format!("req{number}"))?;
    let max_new_tokens = f.or("--tokens", 20)?;
    let mode: String = f.or("--mode", "greedy".to_string())?;
    let (k, temperature) = (f.or("--k", 3)?, f.or("--temp", 0.8)?);
    let (draft_depth, seed) = (f.or("--depth", 1)?, f.or("--seed", 42)?);
    let voting: Option<String> = f.optional("--voting")?;
    let deadline_steps = f.optional("--deadline")?;
    let tenant: Option<String> = f.optional("--tenant")?;
    f.finish()?;
    if tenant.as_deref() == Some("") {
        return Err(CliError::Usage("invalid value \"\" for tenant".to_string()));
    }
    let decoding = match mode.as_str() {
        "greedy" => Decoding::Greedy,
        "sample" => Decoding::Sample { temperature },
        "topk" => Decoding::TopK { k, temperature },
        "spec" => Decoding::SelfSpeculative { draft_depth, k },
        other => {
            let modes = "greedy|sample|topk|spec";
            return Err(CliError::Usage(format!("unknown mode {other:?} ({modes})")));
        }
    };
    // spec requests verify against the final exit, so default the voting
    // to `final` instead of the multi-exit blend
    let conf = VotingCombiner::ConfidenceWeighted { temperature: 1.0 };
    let voting = match voting
        .as_deref()
        .unwrap_or(if mode == "spec" { "final" } else { "conf" })
    {
        "final" => VotingPolicy::final_only(n_layers),
        "last" => VotingPolicy::all_exits(n_layers, VotingCombiner::LastExit),
        "conf" => VotingPolicy::all_exits(n_layers, conf),
        "avg" => VotingPolicy::all_exits(n_layers, VotingCombiner::Average),
        other => {
            let names = "final|last|conf|avg";
            return Err(CliError::Usage(format!(
                "unknown voting {other:?} ({names})"
            )));
        }
    };
    let prompt = tok.encode(prompt_text);
    if prompt.is_empty() {
        return Err(CliError::Usage("empty prompt".to_string()));
    }
    Ok(ServeRequest {
        id,
        prompt,
        max_new_tokens,
        decoding,
        voting,
        seed,
        deadline_steps,
        tenant,
    })
}

/// Drive a seeded traffic scenario through the sharded serving fleet and
/// print the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct Loadgen {
    /// Built-in scenario name (steady|burst|crash|stall).
    pub scenario: String,
    /// Number of engine workers.
    pub workers: usize,
    /// Batch slots per worker.
    pub batch: usize,
    /// Bounded per-worker queue depth.
    pub queue: usize,
    /// Replay budget per session after a worker crash.
    pub retries: usize,
    /// Shed sessions that queue longer than this many ticks.
    pub slo: Option<u64>,
    /// Override the scenario's traffic seed.
    pub seed: Option<u64>,
    /// Spread sessions across this many tenants, each with its own
    /// seeded LoRA adapter over the shared frozen base (0 = all sessions
    /// on the base).
    pub tenants: usize,
}

pub(crate) fn loadgen<W: Write>(c: &Loadgen, out: &mut W) -> Result<(), CliError> {
    let scenario = &c.scenario;
    let mut spec = ScenarioSpec::builtin(scenario).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown scenario {scenario:?} (expected one of {})",
            ScenarioSpec::builtin_names().join(", ")
        ))
    })?;
    if let Some(s) = c.seed {
        spec.seed = s;
    }
    spec.tenants = c.tenants;
    // the fleet is exercised against a synthetic tiny model: the
    // scenario is about router behaviour, not model quality
    let mut rng = TensorRng::seed_from(17);
    let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).map_err(run_err)?;
    let traffic = spec.generate(model.config().vocab_size, model.n_layers());
    let cfg = FleetConfig {
        workers: c.workers,
        batch_per_worker: c.batch,
        queue_depth: c.queue,
        max_retries: c.retries,
        slo_queue_ticks: c.slo,
        faults: spec.faults.clone(),
    };
    writeln!(
        out,
        "scenario {} (seed {}): {} sessions over {} ticks, \
         {} workers x {} slots, queue {}, retries {}",
        spec.name,
        spec.seed,
        traffic.len(),
        spec.span_ticks,
        c.workers,
        c.batch,
        c.queue,
        c.retries
    )?;
    for fault in &spec.faults {
        writeln!(
            out,
            "  fault @tick {}: {}",
            fault.at_tick,
            fault.kind.label()
        )?;
    }
    let names = (0..c.tenants).map(|i| format!("tenant-{i}"));
    let adapter = |name: String| (name.clone(), seeded_tenant_adapter(model.config(), &name));
    let adapters: Vec<(String, TenantAdapter)> = names.map(adapter).collect();
    if !adapters.is_empty() {
        writeln!(
            out,
            "  {} tenant adapters over one frozen base",
            adapters.len()
        )?;
    }
    let run = run_fleet_with_adapters(&model, &cfg, &adapters, &traffic).map_err(run_err)?;
    writeln!(out, "{}", run.report)?;
    Ok(())
}
