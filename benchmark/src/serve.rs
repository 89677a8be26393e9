//! `serve_decode`: one served token on the data plane.
//!
//! An 8-layer, 128-wide model under a layer-wise W4/W2 policy with
//! per-row W8 activations decodes through the packed integer GEMM. A
//! closed loop of four clients keeps the four engine slots busy: each
//! client sends its next request the moment it receives the last token
//! of the previous one, so there is no queue wait and the numbers are
//! about `pgemm` and the batched decode pass, not about scheduling.
//! Requests are decode-heavy (48–80 new tokens after a 16–32 token
//! prompt); adapters, speculation, the fleet and the f32 matmul route
//! are all bypassed.

use crate::kernels;
use crate::metrics::{digest_u32, pct, Outcome};
use crate::refclock::RefClock;
use crate::trace::{self, WINDOW};
use crate::workloads;
use crate::{peak_rss_mib, repeat_setup, Params};
use edge_llm::compress::{apply_activation_quant, apply_policy};
use edge_llm_lab::Json;
use edge_llm_luc::{CompressionPolicy, LayerPolicy};
use edge_llm_model::{EdgeModel, ModelConfig, SequenceKv};
use edge_llm_quant::{BitWidth, QuantScheme};
use edge_llm_serve::{run_solo, BatchedInferenceEngine, FinishReason, ServeOutcome, ServeRequest};
use edge_llm_telemetry::span;
use edge_llm_tensor::TensorRng;
use std::collections::HashMap;
use std::time::Instant;

const N_LAYERS: usize = 8;
const D_MODEL: usize = 128;
const N_HEADS: usize = 4;
const SEQ_LEN: usize = 128;
/// Engine slots, and clients in the closed loop.
const SLOTS: usize = 4;
const MODEL_SEED: u64 = 42;
const WARMUP_REQUESTS: usize = 4;
const SETUP_REPEATS: usize = 5;
/// Requests compared bit for bit against `run_solo` after the window.
const SOLO_CHECKS: usize = 8;
/// Context the isolated decode timings run at (mid-request).
const ISOLATED_CONTEXT: usize = 64;

/// Requests per second of `--seconds` on the baseline box; see
/// `adapt::WINDOWED_STEPS_PER_S` for why the count is fixed.
const REQUESTS_PER_S: f64 = 9.0;
const QUICK_REQUESTS: usize = 12;

fn model_config() -> ModelConfig {
    ModelConfig::edge_base()
        .with_layers(N_LAYERS)
        .with_d_model(D_MODEL, N_HEADS)
        .with_seq_len(SEQ_LEN)
}

fn policy() -> CompressionPolicy {
    // Deeper layers tolerate harsher compression (the paper's LUC
    // observation): W4 at 25% sparsity below, W2 at 50% above.
    CompressionPolicy::from_layers(
        (0..N_LAYERS)
            .map(|l| {
                if l < N_LAYERS / 2 {
                    LayerPolicy {
                        bits: BitWidth::W4,
                        prune_ratio: 0.25,
                    }
                } else {
                    LayerPolicy {
                        bits: BitWidth::W2,
                        prune_ratio: 0.5,
                    }
                }
            })
            .collect(),
    )
}

/// Builds, compresses and packs the model, then serves the warm-up
/// requests so every lazily built decode operand exists. The warm-up
/// engine is stepped by hand (`run_to_completion` is this loop) so the
/// reference clock is read between steps.
fn set_up(warmup: &[ServeRequest], clock: &mut RefClock) -> EdgeModel {
    let mut model = EdgeModel::new(model_config(), &mut TensorRng::seed_from(MODEL_SEED))
        .expect("benchmark model config is valid");
    {
        let _s = span("bench.core.apply_policy");
        apply_policy(&mut model, &policy()).expect("policy applies");
        apply_activation_quant(&mut model, Some(QuantScheme::asymmetric(BitWidth::W8)))
            .expect("activation quant applies");
        model.set_integer_decode_enabled(true);
    }
    clock.sample();
    {
        let _s = span("bench.model.pack_weights");
        model.pack_frozen_weights().expect("weights pack");
    }
    clock.sample();
    let _s = span("bench.serve.warmup");
    let mut engine = BatchedInferenceEngine::new(&model, SLOTS).expect("engine builds");
    for req in warmup {
        engine.submit(req.clone());
    }
    while engine.step().expect("warm-up requests run") {
        clock.sample();
    }
    drop(engine);
    model
}

/// A client's view of its request in flight.
struct InFlight {
    index: usize,
    submitted: Instant,
    last_token: Option<Instant>,
    generated: usize,
}

fn tokens_digest<'a>(outcomes: impl Iterator<Item = &'a ServeOutcome>) -> Json {
    digest_u32(outcomes.flat_map(|o| o.tokens.iter().map(|&t| t as u32)))
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    trace::begin(p.traced);

    let full = p.count(REQUESTS_PER_S, QUICK_REQUESTS);
    // The traced run serves the first quarter of the untraced run's
    // requests, so `run` can compare the two token for token.
    let prefix = p.prefix(full, QUICK_REQUESTS);
    let n = p.run_length(full, QUICK_REQUESTS);
    let vocab = model_config().vocab_size;
    let mut requests = workloads::serve_requests(p.seed, WARMUP_REQUESTS + full, vocab, N_LAYERS);
    let warmup: Vec<ServeRequest> = requests.drain(..WARMUP_REQUESTS).collect();
    requests.truncate(n);

    // one reference clock from the first set-up to the end of the window
    let mut clock = RefClock::start();
    let (setups, model) = repeat_setup(p, SETUP_REPEATS, || set_up(&warmup, &mut clock));

    let mut engine = BatchedInferenceEngine::new(&model, SLOTS).expect("engine builds");
    engine.set_progress_capture(true);
    let mut in_flight: HashMap<String, InFlight> = HashMap::new();
    let mut next = 0usize;
    // (from, to) instants of every first token and every later gap,
    // turned into reference time once the clock is closed
    let mut first_tokens = Vec::with_capacity(n);
    let mut gaps = Vec::new();
    let mut finished: Vec<Option<ServeOutcome>> = vec![None; n];
    let mut generated_total = 0usize;

    let submit = |engine: &mut BatchedInferenceEngine<'_>,
                  in_flight: &mut HashMap<String, InFlight>,
                  next: &mut usize| {
        let req = requests[*next].clone();
        in_flight.insert(
            req.id.clone(),
            InFlight {
                index: *next,
                submitted: Instant::now(),
                last_token: None,
                generated: 0,
            },
        );
        *next += 1;
        let _s = span("bench.serve.submit");
        engine.submit(req);
    };

    let window = span(WINDOW);
    let t_window = Instant::now();
    while next < n.min(SLOTS) {
        submit(&mut engine, &mut in_flight, &mut next);
    }
    loop {
        let stepped = {
            let _s = span("bench.serve.step");
            engine.step().expect("engine step")
        };
        let now = Instant::now();
        clock.sample();
        let progress = {
            let _s = span("bench.serve.take_progress");
            engine.take_progress()
        };
        for token in progress {
            let client = in_flight
                .get_mut(&token.id)
                .expect("token of a live request");
            match client.last_token.replace(now) {
                None => first_tokens.push((client.submitted, now)),
                Some(prev) => gaps.push((prev, now)),
            }
            client.generated += 1;
            generated_total += 1;
            // the client has its whole answer: it sends its next request
            let answered = client.generated == requests[client.index].max_new_tokens;
            if answered && next < n {
                submit(&mut engine, &mut in_flight, &mut next);
            }
        }
        let retired = {
            let _s = span("bench.serve.take_finished");
            engine.take_finished()
        };
        for outcome in retired {
            let client = in_flight
                .remove(&outcome.id)
                .expect("outcome of a live request");
            finished[client.index] = Some(outcome);
        }
        if !stepped {
            break;
        }
    }
    let t_end = Instant::now();
    drop(window);
    // every timing below is in reference time (see `refclock`)
    let timeline = clock.finish();
    let setup_s = timeline.median_secs(&setups);
    let window_s = timeline.secs(t_window, t_end);
    let reference_ms = |pairs: &[(Instant, Instant)]| -> Vec<f64> {
        pairs
            .iter()
            .map(|&(a, b)| timeline.secs(a, b) * 1e3)
            .collect()
    };
    let ttft_ms = reference_ms(&first_tokens);
    let itl_ms = reference_ms(&gaps);
    let wall_gaps: Vec<f64> = gaps
        .iter()
        .map(|&(a, b)| (b - a).as_secs_f64() * 1e3)
        .collect();
    out.wall("step_ms_p50", pct(&wall_gaps, 50), "ms");
    out.wall("ref_kernel_us_p50", timeline.kernel_us_p50(), "us");
    out.sampled("ref_kernel_us", timeline.readings());

    out.attempted = n as u64;
    out.failed = finished
        .iter()
        .zip(&requests)
        .filter(|(o, req)| {
            !o.as_ref().is_some_and(|o| {
                o.finish == FinishReason::Completed && o.tokens.len() == req.max_new_tokens
            })
        })
        .count() as u64;
    let served: Vec<&ServeOutcome> = finished.iter().flatten().collect();
    out.check(
        "every_request_served",
        served.len() == n && out.failed == 0,
        format!(
            "{} of {n} requests returned, {} short or evicted",
            served.len(),
            out.failed
        ),
    );
    let stride = (n / SOLO_CHECKS).max(1);
    let mismatched: Vec<&str> = (0..n)
        .step_by(stride)
        .take(SOLO_CHECKS)
        .filter(|&i| {
            let solo = run_solo(&model, &requests[i]).expect("solo reference runs");
            finished[i].as_ref() != Some(&solo)
        })
        .map(|i| requests[i].id.as_str())
        .collect();
    out.check(
        "batched_equals_solo",
        mismatched.is_empty(),
        format!("sampled requests differing from run_solo: {mismatched:?}"),
    );
    out.exact("token_digest", tokens_digest(served.iter().copied()));
    out.exact(
        "token_digest_prefix",
        tokens_digest(finished.iter().take(prefix).flatten()),
    );
    out.exact("prefix_requests", Json::Int(prefix as i64));
    out.exact("generated_tokens", Json::Int(generated_total as i64));

    let itl_p50 = pct(&itl_ms, 50);
    match trace::end(p.traced, "serve_decode").expect("trace written") {
        None => {
            out.set("setup_s", setup_s);
            out.set("step_ms_p50", itl_p50);
            out.set("tokens_per_s", generated_total as f64 / window_s);
            out.set("peak_rss_mib", peak_rss_mib());
            out.sampled("step_ms", itl_ms.len());
        }
        Some(trace) => {
            let step_ms = trace.durations_ms("bench.serve.step");
            let step_p50 = pct(&step_ms, 50);
            out.set("serve.step_ms_p50", step_p50);
            out.set("serve.step_ms_p95", pct(&step_ms, 95));
            out.set("serve.ttft_ms_p50", pct(&ttft_ms, 50));
            out.set("serve.ttft_ms_p90", pct(&ttft_ms, 90));
            out.sampled("serve.step_ms", step_ms.len());
            out.sampled("serve.ttft_ms", ttft_ms.len());
            out.sampled("trace.step_ms", itl_ms.len());
            out.set("trace.step_ms_p50", itl_p50);
            out.set("serve.itl_ms_p95", pct(&itl_ms, 95));
            trace.check_coverage(&mut out);

            // Exact load shape, from the request list: a request feeds
            // its prompt, then every generated token but the last.
            let steps = engine.steps_run();
            let feeds: usize = requests
                .iter()
                .map(|r| r.prompt.len() + r.max_new_tokens - 1)
                .sum();
            let prefill: usize = requests.iter().map(|r| r.prompt.len() - 1).sum();
            out.set("serve.steps", steps as f64);
            out.set(
                "serve.batch_occupancy_mean",
                feeds as f64 / (steps * SLOTS) as f64,
            );
            out.set("serve.prefill_token_share", prefill as f64 / feeds as f64);
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

            let batched = kernels::batched_decode_step_us(&model, SLOTS, ISOLATED_CONTEXT, p.quick);
            let solo = kernels::push_token_us(&model, ISOLATED_CONTEXT, p.quick);
            out.set("model.batched_decode_step_us_p50", batched);
            out.set("model.push_token_us_p50", solo);
            out.set("model.batching_gain", SLOTS as f64 * solo / batched);
            out.set("serve.engine_overhead_us", step_p50 * 1e3 - batched);

            let pg = kernels::pgemm_us(D_MODEL, SLOTS, p.quick);
            out.set("quant.act_quant_us", pg.act_quant_us);
            out.set("quant.pgemm_us_w4", pg.w4_us);
            out.set("quant.pgemm_us_w2", pg.w2_us);
            out.set("quant.pgemm_w2_over_w4", pg.w4_us / pg.w2_us);
            out.set(
                "quant.pgemm_macs_per_step",
                (pg.macs_per_block * N_LAYERS) as f64,
            );
            out.set(
                "quant.pgemm_weight_bytes_per_step",
                ((pg.w4_bytes_per_block + pg.w2_bytes_per_block) * N_LAYERS / 2) as f64,
            );
        }
    }
    out
}
