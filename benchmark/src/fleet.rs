//! `fleet_mixed`: one served token on the control plane.
//!
//! A small 4-layer model (uniform W4, *no* activation quantisation, so
//! the f32 row-dequantising matmul route) sits behind the fleet router:
//! two workers of four slots, bounded queues, four tenants with rank-4
//! adapters, greedy / sampled / self-speculative sessions at three
//! priorities. Load is open loop in virtual time — arrival ticks are
//! drawn up front for about 85% of the two workers' capacity plus a
//! periodic burst — so router ticks, dispatch, queues, thread hand-off,
//! admission, adapter rows and speculative rounds do the work, not
//! `pgemm`. Sessions are prefill-heavy (prompt 8–16, 2–8 new tokens),
//! the reverse of `serve_decode`.
//!
//! One pass of a few hundred sessions lasts about a second and single
//! passes on a shared box differ by 30% in tokens/s while ticks and queue
//! waits repeat exactly, so the identical traffic is replayed for several
//! passes and every timing is the median over passes.

use crate::kernels;
use crate::metrics::{digest_u32, pct, Outcome};
use crate::refclock::Sampler;
use crate::trace::{self, WINDOW};
use crate::workloads::{self, tenant_name, FLEET_TENANTS};
use crate::{peak_rss_mib, repeat_setup, Params};
use edge_llm::compress::apply_policy;
use edge_llm_fleet::{
    run_fleet_with_adapters, FleetConfig, FleetRequest, FleetRun, SessionFinish, SessionOutcome,
};
use edge_llm_lab::Json;
use edge_llm_luc::CompressionPolicy;
use edge_llm_model::{AdapterTarget, EdgeModel, ModelConfig, SequenceKv, TenantAdapter};
use edge_llm_quant::BitWidth;
use edge_llm_serve::{BatchedInferenceEngine, FinishReason};
use edge_llm_telemetry::span;
use edge_llm_tensor::TensorRng;
use std::time::{Duration, Instant};

const N_LAYERS: usize = 4;
const D_MODEL: usize = 64;
const N_HEADS: usize = 4;
const SEQ_LEN: usize = 48;
const WORKERS: usize = 2;
const SLOTS_PER_WORKER: usize = 4;
const QUEUE_DEPTH: usize = 64;
const ADAPTER_RANK: usize = 4;
const MODEL_SEED: u64 = 42;
const ADAPTER_SEED: u64 = 0x7e4a47;
/// Context of the isolated speculative-round timing: a mid-range prompt.
const ISOLATED_CONTEXT: usize = 12;

/// Sessions per pass, and passes per second of `--seconds` on the
/// baseline box; see `adapt::WINDOWED_STEPS_PER_S` for why counts are
/// fixed.
const SESSIONS: usize = 120;
const PASSES_PER_S: f64 = 0.75;
const WARMUP_SESSIONS: usize = 24;
/// A set-up is a quarter of a second here, too short for the sampler to
/// steady (it spread 18–36% over seven repeats); fifteen cost four
/// seconds.
const SETUP_REPEATS: usize = 15;
/// How often the reference sampler wakes: it runs the kernel twice, about
/// 0.12 ms, so this is under 2% of one core.
const SAMPLER_PERIOD: Duration = Duration::from_millis(8);
const QUICK_SESSIONS: usize = 48;
const QUICK_PASSES: usize = 2;

fn fleet_config(workers: usize, slots: usize) -> FleetConfig {
    // Roomy on purpose: nothing sheds, so every pass and every worker
    // count serves the same tokens and throughput is comparable.
    FleetConfig {
        workers,
        batch_per_worker: slots,
        queue_depth: QUEUE_DEPTH,
        max_retries: 2,
        slo_queue_ticks: None,
        faults: Vec::new(),
    }
}

struct Ready {
    model: EdgeModel,
    adapters: Vec<(String, TenantAdapter)>,
}

fn model_config() -> ModelConfig {
    ModelConfig::edge_base()
        .with_layers(N_LAYERS)
        .with_d_model(D_MODEL, N_HEADS)
        .with_seq_len(SEQ_LEN)
}

fn set_up(traffic: &[FleetRequest]) -> Ready {
    let cfg = model_config();
    let mut model = EdgeModel::new(cfg.clone(), &mut TensorRng::seed_from(MODEL_SEED))
        .expect("benchmark model config is valid");
    {
        let _s = span("bench.core.apply_policy");
        let policy = CompressionPolicy::uniform(N_LAYERS, BitWidth::W4, 0.25);
        apply_policy(&mut model, &policy).expect("policy applies");
    }
    {
        let _s = span("bench.model.pack_weights");
        model.pack_frozen_weights().expect("weights pack");
    }
    // Deltas on the first layer's attention input and the last layer's
    // FFN output — the shape the CLI seeds per tenant.
    let sites = [(0, AdapterTarget::Qkv), (N_LAYERS - 1, AdapterTarget::Fc2)];
    let adapters: Vec<(String, TenantAdapter)> = (0..FLEET_TENANTS)
        .map(|t| {
            let adapter =
                TenantAdapter::seeded(&cfg, ADAPTER_SEED + t as u64, ADAPTER_RANK, &sites);
            (tenant_name(t), adapter)
        })
        .collect();
    let _s = span("bench.fleet.warmup");
    let warm = &traffic[..WARMUP_SESSIONS.min(traffic.len())];
    run_fleet_with_adapters(
        &model,
        &fleet_config(WORKERS, SLOTS_PER_WORKER),
        &adapters,
        warm,
    )
    .expect("warm-up pass runs");
    Ready { model, adapters }
}

/// Tokens of every session, in session-id order.
fn token_digest(outcomes: &[SessionOutcome], sessions: usize) -> Json {
    let mut by_index: Vec<&[usize]> = vec![&[]; sessions];
    for o in outcomes {
        let index: usize = o.id[1..].parse().expect("session ids are s<index>");
        by_index[index] = &o.tokens;
    }
    digest_u32(by_index.iter().flat_map(|t| t.iter().map(|&t| t as u32)))
}

/// Sessions not served to completion with exactly their token budget.
fn failed_sessions(run: &FleetRun, traffic: &[FleetRequest]) -> u64 {
    traffic
        .iter()
        .filter(|r| {
            !run.outcome(&r.req.id).is_some_and(|o| {
                o.finish == SessionFinish::Served(FinishReason::Completed)
                    && o.tokens.len() == r.req.max_new_tokens
            })
        })
        .count() as u64
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    trace::begin(p.traced);

    let sessions = if p.quick { QUICK_SESSIONS } else { SESSIONS };
    let full_passes = p.count(PASSES_PER_S, QUICK_PASSES);
    let passes = p.run_length(full_passes, QUICK_PASSES);
    let vocab = model_config().vocab_size;
    let traffic = workloads::fleet_traffic(p.seed, sessions, vocab, N_LAYERS);

    // A pass is one product call with two busy worker threads, so the
    // reference kernel cannot be interleaved: a thread of its own reads
    // it, from the first set-up to the end of the last pass.
    let sampler = Sampler::start(SAMPLER_PERIOD);
    let (setups, Ready { model, adapters }) = repeat_setup(p, SETUP_REPEATS, || set_up(&traffic));

    let cfg = fleet_config(WORKERS, SLOTS_PER_WORKER);
    let mut pass_spans = Vec::with_capacity(passes);
    let mut runs: Vec<FleetRun> = Vec::with_capacity(passes);
    {
        let _w = span(WINDOW);
        for _ in 0..passes {
            let t0 = Instant::now();
            let run = {
                let _s = span("bench.fleet.run_fleet");
                run_fleet_with_adapters(&model, &cfg, &adapters, &traffic).expect("fleet pass runs")
            };
            pass_spans.push((t0, Instant::now()));
            runs.push(run);
        }
    }

    out.attempted = (sessions * passes) as u64;
    out.failed = runs.iter().map(|r| failed_sessions(r, &traffic)).sum();
    let served = runs
        .iter()
        .all(|r| r.outcomes.len() == sessions && r.report.total_shed() == 0);
    out.check(
        "every_session_served",
        served && out.failed == 0,
        format!(
            "{} outcomes and {} shed in the first pass, {} sessions short or shed over all",
            runs[0].outcomes.len(),
            runs[0].report.total_shed(),
            out.failed
        ),
    );
    // Everything but the wall-clock decode latency must repeat exactly.
    let counts = |r: &FleetRun| {
        let rep = &r.report;
        (
            token_digest(&r.outcomes, sessions),
            rep.ticks,
            rep.tokens_generated,
            rep.replays,
            rep.queue_wait_ticks,
        )
    };
    let first = counts(&runs[0]);
    out.check(
        "passes_identical",
        runs.iter().all(|r| counts(r) == first),
        format!("{passes} passes of identical traffic: tokens, ticks and queue waits compared"),
    );
    // N workers ≡ 1: the same sessions through one worker of eight slots.
    let t0 = Instant::now();
    let single = {
        let _s = span("bench.fleet.run_single_worker");
        run_fleet_with_adapters(
            &model,
            &fleet_config(1, WORKERS * SLOTS_PER_WORKER),
            &adapters,
            &traffic,
        )
        .expect("single-worker pass runs")
    };
    let t1 = Instant::now();
    let timeline = sampler.finish();
    let setup_s = timeline.median_secs(&setups);
    let (single_reference_s, single_s) = (timeline.secs(t0, t1), (t1 - t0).as_secs_f64());
    // (reference seconds, wall seconds) of each pass
    let pass_s: Vec<(f64, f64)> = pass_spans
        .iter()
        .map(|&(t0, t1)| (timeline.secs(t0, t1), (t1 - t0).as_secs_f64()))
        .collect();
    out.check(
        "two_workers_equal_one",
        token_digest(&single.outcomes, sessions) == first.0,
        "token digest of the 2-worker passes against 1 worker x 8 slots".into(),
    );
    let report = &runs[0].report;
    out.exact("token_digest", first.0.clone());
    out.exact("ticks", Json::Int(report.ticks as i64));
    out.exact(
        "queue_wait_ticks_p95",
        Json::Int(report.queue_wait_ticks.p95_ns as i64),
    );
    out.exact(
        "tokens_generated",
        Json::Int(report.tokens_generated as i64),
    );

    // `f(run, reference seconds, wall seconds)` of each pass, median over passes
    let per_pass = |f: &dyn Fn(&FleetRun, f64, f64) -> f64| -> f64 {
        let values: Vec<f64> = runs
            .iter()
            .zip(&pass_s)
            .map(|(r, &(reference, wall))| f(r, reference, wall))
            .collect();
        pct(&values, 50)
    };
    let tokens_per_s = per_pass(&|r, reference, _| r.report.tokens_generated as f64 / reference);
    // A fleet run exposes no per-token timing to its caller; the worker
    // engines clock the shared pass (or private speculative round) each
    // generated token waited for, and FleetReport summarises those. That
    // is wall time; the pass's own reference/wall ratio converts it.
    let step_p50 = per_pass(&|r, reference, wall| {
        r.report.decode_token.p50_ns as f64 / 1e6 * reference / wall
    });
    let wall_step_p50 = per_pass(&|r, _, _| r.report.decode_token.p50_ns as f64 / 1e6);
    out.wall("step_ms_p50", wall_step_p50, "ms");
    out.wall(
        "tokens_per_s",
        per_pass(&|r, _, wall| r.report.tokens_generated as f64 / wall),
        "tokens/s",
    );
    out.wall("ref_kernel_us_p50", timeline.kernel_us_p50(), "us");
    out.sampled("ref_kernel_us", timeline.readings());
    match trace::end(p.traced, "fleet_mixed").expect("trace written") {
        None => {
            out.set("setup_s", setup_s);
            out.set("step_ms_p50", step_p50);
            out.set("tokens_per_s", tokens_per_s);
            out.set("peak_rss_mib", peak_rss_mib());
            out.sampled("passes", passes);
            out.sampled("step_ms_per_pass", report.decode_token.count);
        }
        Some(trace) => {
            trace.check_coverage(&mut out);
            out.set("trace.step_ms_p50", step_p50);
            out.sampled("passes", passes);
            let pass_ms = pct(&trace.durations_ms("bench.fleet.run_fleet"), 50);
            out.set("fleet.pass_ms_p50", pass_ms);
            out.set("fleet.ticks", report.ticks as f64);
            out.set("fleet.tick_us_mean", pass_ms * 1e3 / report.ticks as f64);
            out.set(
                "fleet.tokens_per_tick",
                report.tokens_generated as f64 / report.ticks as f64,
            );
            out.set(
                "fleet.queue_wait_ticks_p50",
                report.queue_wait_ticks.p50_ns as f64,
            );
            out.set(
                "fleet.queue_wait_ticks_p95",
                report.queue_wait_ticks.p95_ns as f64,
            );
            out.set("fleet.shed_total", report.total_shed() as f64);
            out.set("fleet.replays", report.replays as f64);
            out.set("fleet.decode_token_us_p50", wall_step_p50 * 1e3);
            out.set(
                "fleet.decode_token_us_p95",
                per_pass(&|r, _, _| r.report.decode_token.p95_ns as f64 / 1e3),
            );
            let single_tokens_per_s = single.report.tokens_generated as f64 / single_reference_s;
            out.set(
                "fleet.scaling_2w_over_1w",
                tokens_per_s / single_tokens_per_s,
            );

            // The same sessions straight through one bare 8-slot engine:
            // what the fleet's control plane costs on top, and the
            // engine-side tallies a fleet run does not return.
            let mut engine = BatchedInferenceEngine::new(&model, WORKERS * SLOTS_PER_WORKER)
                .expect("engine builds");
            for (tenant, adapter) in &adapters {
                engine
                    .register_adapter(tenant, adapter.clone())
                    .expect("adapter registers");
            }
            for r in &traffic {
                engine.submit(r.req.clone());
            }
            let t0 = Instant::now();
            let bare = {
                let _s = span("bench.serve.run_to_completion");
                engine.run_to_completion().expect("bare engine runs")
            };
            let bare_s = t0.elapsed().as_secs_f64();
            let engine_matches = bare
                .iter()
                .all(|o| single.outcome(&o.id).is_some_and(|s| s.tokens == o.tokens));
            out.check(
                "one_worker_equals_engine",
                engine_matches && bare.len() == sessions,
                "tokens of the 1-worker fleet against a bare 8-slot engine".into(),
            );
            out.set("fleet.overhead_vs_engine", single_s / bare_s);
            let er = engine.report();
            out.set(
                "serve.spec_acceptance_rate",
                er.spec_acceptance_rate().unwrap_or(0.0),
            );
            out.set(
                "serve.spec_tokens_per_verify_pass",
                er.spec_tokens_per_verify_pass().unwrap_or(0.0),
            );
            out.set("serve.adapter_hits", er.adapter_hits as f64);
            out.set("serve.adapter_misses", er.adapter_misses as f64);
            out.set(
                "serve.adapter_resident_bytes",
                engine.adapter_cache().resident_bytes() as f64,
            );
            out.set(
                "serve.weight_resident_bytes",
                engine.weight_resident_bytes() as f64,
            );
            out.set(
                "model.pack_weights_ms",
                pct(&trace.durations_ms("bench.model.pack_weights"), 50),
            );
            out.set(
                "model.kv_bytes_per_slot",
                SequenceKv::new(&model).cache_bytes() as f64,
            );
            out.set(
                "model.decode_weight_bytes",
                model.decode_weight_bytes() as f64,
            );
            out.set(
                "model.adapter_apply_row_us",
                kernels::adapter_apply_row_us(&model, &adapters[0].1, p.quick),
            );
            out.set(
                "model.spec_round_us",
                kernels::spec_round_us(&model, ISOLATED_CONTEXT, p.quick),
            );
            out.set(
                "quant.qmatmul_us",
                kernels::qmatmul_us(D_MODEL, SLOTS_PER_WORKER, p.quick),
            );
        }
    }
    out
}
