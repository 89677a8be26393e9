//! End-to-end contract of the telemetry layer.
//!
//! Three guarantees, each proven directly:
//!
//! 1. **Exact span trees** — under the deterministic fake clock, a 2-step
//!    adaptation run produces a fully predictable event stream: two
//!    `tune.step` roots, each with `tune.forward` / `tune.backward` /
//!    `tune.optimizer` children (and within them the attention spans of
//!    the walk and of the backward), at exactly the timestamps the tick
//!    clock dictates.
//! 2. **One clock** — every duration a report carries (tuner phases,
//!    checkpoint writes, per-token decode latency) is the duration of
//!    the span that names it, read from the same clock: exact under the
//!    fake clock. (What share of a step its phases cover on a real clock
//!    is a timing gate, `experiments/telemetry.jsonl`, not a test.)
//! 3. **Observation never perturbs** — the same adaptation and serving
//!    runs produce byte-identical parameters, checkpoints, and outcomes
//!    with tracing on and off.
//!
//! Telemetry state is process-global, so every test here runs under a
//! shared lock and leaves recording disabled.

use edge_llm::compress::apply_activation_quant;
use edge_llm::resilience::{resilient_adapt, ResilienceConfig};
use edge_llm_data::{ClozeQaTask, Dataset, TaskGenerator};
use edge_llm_model::{
    batched_decode_step, AdaptiveTuner, BatchedStep, Decoding, EdgeModel, ModelConfig, SequenceKv,
    Sgd, TrainingCheckpoint, VotingPolicy, WindowSchedule,
};
use edge_llm_quant::{BitWidth, QuantScheme};
use edge_llm_serve::{BatchedInferenceEngine, ServeOutcome, ServeRequest};
use edge_llm_telemetry::{
    counter_totals, span_tree, write_jsonl, Event, FakeClock, MonotonicClock, SpanNode,
};
use edge_llm_tensor::{fnv1a64, set_configured_threads, TensorRng};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests: telemetry recording and the thread knob are both
/// process-wide.
static SESSION: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup(seed: u64) -> (EdgeModel, Sgd, TensorRng, Dataset) {
    let task = ClozeQaTask::new(4, 2);
    let mut rng = TensorRng::seed_from(seed);
    let cfg = ModelConfig::tiny().with_vocab(task.vocab_size());
    let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let ds = task.dataset(8, cfg.seq_len, &mut rng);
    (model, Sgd::new(0.05), rng, ds)
}

fn two_step_adaptation() -> Vec<Event> {
    let (mut model, mut opt, _rng, ds) = setup(11);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    for it in 0..2 {
        let b = ds.batch_at(it * 2, 2);
        tuner
            .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
            .unwrap();
    }
    edge_llm_telemetry::disable()
}

#[test]
fn two_step_adaptation_produces_the_exact_span_tree() {
    let _guard = lock();
    // one worker: no pool counters, so the event stream is fully
    // determined by the instrumentation points
    set_configured_threads(1);
    edge_llm_telemetry::enable(Arc::new(FakeClock::with_tick(10)));
    let events = two_step_adaptation();
    set_configured_threads(0);

    let roots = span_tree(&events);
    assert_eq!(roots.len(), 2, "one root span per adaptation step");
    for (i, root) in roots.iter().enumerate() {
        // step `i` trains layer `i` and exits there: its forward walks
        // `i + 1` layers, each with one attention and one GELU span, and
        // its backward reaches one block
        let mut expected = vec![(0, "tune.step"), (1, "tune.forward")];
        expected.extend((0..=i).flat_map(|_| [(2, "model.attention"), (2, "model.gelu")]));
        expected.extend([
            (1, "tune.backward"),
            (2, "model.attention_backward"),
            (1, "tune.optimizer"),
        ]);
        assert_eq!(root.flatten(), expected, "step {i} span shape");
        // children tile the parent in order, strictly nested
        for c in &root.children {
            assert!(c.start_ns > root.start_ns && c.end_ns < root.end_ns);
            assert!(c.start_ns < c.end_ns);
        }
    }

    // the tick clock makes every timestamp exact: each step reads it at
    // every span start and end and at its 2 counters — 16 reads for the
    // first step's 7 spans, 20 for the second's 9
    assert_eq!((roots[0].start_ns, roots[0].end_ns), (0, 150));
    assert_eq!((roots[1].start_ns, roots[1].end_ns), (160, 350));

    // per-step counters are always emitted, even when zero, so the trace
    // shape does not depend on cache state
    let totals = counter_totals(&events);
    assert!(totals.contains_key("tune.requant_layers"));
    assert!(totals.contains_key("tune.cache_invalidations"));

    // and the whole stream serializes to one JSON object per line, with
    // pinned bytes. Thread ordinals follow the order in which this
    // process's threads first recorded, so they are zeroed first.
    let mut events = events;
    for e in &mut events {
        if let Event::SpanStart { thread, .. } | Event::Counter { thread, .. } = e {
            *thread = 0;
        }
    }
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &events).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), events.len());
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert_eq!(
        fnv1a64(text.as_bytes()),
        0x9f84a59d26873fff,
        "trace bytes moved"
    );
}

#[test]
fn phase_timings_equal_their_span_durations() {
    let _guard = lock();
    let (mut model, mut opt, mut rng, ds) = setup(13);
    edge_llm_telemetry::enable(Arc::new(FakeClock::with_tick(10)));
    let mut tuner = AdaptiveTuner::new(WindowSchedule::FullDepth);
    let mut reports = Vec::new();
    for it in 0..3 {
        let b = ds.batch_at(it * 2, 2);
        let report = tuner.step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch);
        reports.push(report.unwrap().phases);
    }
    // the resilient loop's totals, checkpoint writes included
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let res = ResilienceConfig {
        checkpoint_every: 2,
        ..ResilienceConfig::default()
    };
    let run = resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        6,
        Vec::new(),
        &res,
    );
    let roots = span_tree(&edge_llm_telemetry::disable());
    let run = run.unwrap();

    let named =
        |name: &str| -> Vec<&SpanNode> { roots.iter().filter(|r| r.name == name).collect() };
    let steps = named("tune.step");
    assert_eq!(steps.len(), reports.len() + run.steps_executed);
    for (p, step) in reports.iter().zip(&steps) {
        let phase = |name: &str| {
            let child = step.children.iter().find(|c| c.name == name);
            child.expect("phase span").duration_ns()
        };
        assert_eq!(p.total_ns, step.duration_ns());
        assert_eq!(p.forward_ns, phase("tune.forward"));
        assert_eq!(p.backward_ns, phase("tune.backward"));
        assert_eq!(p.optimizer_ns, phase("tune.optimizer"));
    }
    let total = |spans: &[&SpanNode]| spans.iter().map(|s| s.duration_ns()).sum::<u64>();
    assert_eq!(run.phases.step_ns, total(&steps[reports.len()..]));
    // the initial snapshot, then after iterations 2 and 4
    let checkpoints = named("adapt.checkpoint");
    assert_eq!(checkpoints.len(), 3);
    assert_eq!(run.phases.checkpoint_ns, total(&checkpoints));
}

#[test]
fn decode_latencies_equal_their_serve_decode_spans() {
    let _guard = lock();
    let mut rng = TensorRng::seed_from(23);
    let model = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
    let mut engine = BatchedInferenceEngine::new(&model, 2).unwrap();
    edge_llm_telemetry::enable(Arc::new(FakeClock::with_tick(10)));
    let modes = [
        Decoding::Greedy,
        Decoding::SelfSpeculative {
            draft_depth: 1,
            k: 3,
        },
        Decoding::Sample { temperature: 0.9 },
    ];
    for (i, decoding) in modes.into_iter().enumerate() {
        engine.submit(ServeRequest {
            id: format!("r{i}"),
            prompt: vec![1, 2, 3],
            max_new_tokens: 5,
            decoding,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: i as u64,
            deadline_steps: None,
            tenant: None,
        });
    }
    let outcomes = engine.run_to_completion();
    let roots = span_tree(&edge_llm_telemetry::disable());
    let generated: usize = outcomes.unwrap().iter().map(|o| o.tokens.len()).sum();

    let passes: Vec<u64> = roots
        .iter()
        .flat_map(|step| &step.children)
        .filter(|s| s.name == "serve.decode")
        .map(SpanNode::duration_ns)
        .collect();
    let samples = engine.decode_token_samples();
    assert_eq!(samples.len(), generated);
    // a pass stamps each token it produced (none for pure prefill), in
    // pass order, so the samples are the pass durations with repeats
    let mut pass = 0;
    for (i, &ns) in samples.iter().enumerate() {
        while passes.get(pass).is_some_and(|&p| p != ns) {
            pass += 1;
        }
        assert!(
            pass < passes.len(),
            "sample {i} ({ns} ns) is no pass's duration"
        );
    }
    // speculative rounds record inner spans, so the durations differ
    assert!(passes.iter().any(|&p| p != passes[0]));
}

#[test]
fn a_budget_cut_spec_round_reports_the_acceptance_its_counters_give() {
    let _guard = lock();
    let mut rng = TensorRng::seed_from(31);
    let cfg = ModelConfig::tiny().with_seq_len(16);
    let model = EdgeModel::new(cfg, &mut rng).unwrap();
    let mut engine = BatchedInferenceEngine::new(&model, 1).unwrap();
    // drafting from the final exit, the verifier accepts every draft, so
    // each round yields k + 1 = 5 tokens and a budget of 7 cuts the second
    engine.submit(ServeRequest {
        id: "spec".into(),
        prompt: vec![1, 2, 3],
        max_new_tokens: 7,
        decoding: Decoding::SelfSpeculative {
            draft_depth: model.n_layers() - 1,
            k: 4,
        },
        voting: VotingPolicy::final_only(model.n_layers()),
        seed: 0,
        deadline_steps: None,
        tenant: None,
    });
    edge_llm_telemetry::enable(Arc::new(FakeClock::with_tick(1)));
    let outcomes = engine.run_to_completion();
    let totals = counter_totals(&edge_llm_telemetry::disable());
    assert_eq!(outcomes.unwrap()[0].tokens.len(), 7);

    let report = engine.report();
    let (drafted, rounds, accepted) = (
        totals["spec.draft_tokens"],
        totals["spec.verify_passes"],
        totals["spec.accepted_tokens"],
    );
    assert_eq!((rounds, drafted, accepted), (2, 8, 10), "the budget cut");
    assert_eq!(report.spec_rounds as u64, rounds);
    assert_eq!(report.spec_drafted as u64, drafted);
    assert_eq!(report.spec_accepted as u64, accepted);
    let rate = (accepted - rounds) as f64 / drafted as f64;
    assert_eq!(report.spec_acceptance_rate(), Some(rate));
    assert_eq!(
        report.spec_tokens_per_verify_pass(),
        Some(accepted as f64 / rounds as f64)
    );
}

#[test]
fn an_integer_decode_pass_records_one_pgemm_span_per_projection() {
    let _guard = lock();
    // W4 weights and A8 activations on every projection: each one runs
    // the integer GEMM, its codes built before tracing starts
    let mut rng = TensorRng::seed_from(29);
    let mut model = EdgeModel::new(ModelConfig::tiny().with_layers(3), &mut rng).unwrap();
    for l in 0..model.n_layers() {
        for lin in model.block_mut(l).linears_mut() {
            lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        }
    }
    apply_activation_quant(&mut model, Some(QuantScheme::asymmetric(BitWidth::W8))).unwrap();
    model.pack_frozen_weights().unwrap();
    let exits = [model.n_layers() - 1];
    let mut kvs: Vec<SequenceKv> = (0..2).map(|_| SequenceKv::new(&model)).collect();
    let mut steps: Vec<BatchedStep> = (kvs.iter_mut().enumerate())
        .map(|(i, kv)| BatchedStep {
            token: i + 1,
            kv,
            exits: &exits,
            adapter: None,
        })
        .collect();
    set_configured_threads(1);
    edge_llm_telemetry::enable(Arc::new(FakeClock::with_tick(10)));
    batched_decode_step(&model, &mut steps).unwrap();
    let roots = span_tree(&edge_llm_telemetry::disable());
    set_configured_threads(0);

    // per walked layer: qkv, attention, proj, fc1, GELU, fc2 — each
    // projection quantizes its activation rows, then multiplies on the
    // codes
    let mut expected = Vec::new();
    for _ in 0..model.n_layers() {
        expected.extend(["model.act_quant", "model.pgemm", "model.attention"]);
        expected.extend(["model.act_quant", "model.pgemm"].repeat(2));
        expected.push("model.gelu");
        expected.extend(["model.act_quant", "model.pgemm"]);
    }
    let flat: Vec<(usize, &str)> = roots.iter().flat_map(SpanNode::flatten).collect();
    assert_eq!(
        flat.iter().map(|&(_, name)| name).collect::<Vec<_>>(),
        expected
    );
    // top-level leaves: one clock tick between open and close, nothing
    // recorded inside the kernel at one thread
    assert!(flat.iter().all(|&(depth, _)| depth == 0));
    assert!(roots.iter().all(|s| s.duration_ns() == 10));
}

fn adapt_bytes() -> (Vec<u32>, Vec<u8>) {
    const ITERS: usize = 6;
    let (mut model, mut opt, mut rng, ds) = setup(17);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let run = resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        2,
        ITERS,
        Vec::new(),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(run.steps_executed, ITERS);
    let mut params = Vec::new();
    model.visit_params_all_ro(&mut |_, p| params.extend(p.iter().map(|v| v.to_bits())));
    let ckpt = TrainingCheckpoint::capture(&model, &opt, ITERS as u64, &rng, Vec::new());
    let mut ckpt_bytes = Vec::new();
    ckpt.write_to(&mut ckpt_bytes).unwrap();
    (params, ckpt_bytes)
}

#[test]
fn adaptation_is_byte_identical_with_tracing_on() {
    let _guard = lock();
    let (ref_params, ref_ckpt) = adapt_bytes();

    edge_llm_telemetry::enable(Arc::new(MonotonicClock::default()));
    let (traced_params, traced_ckpt) = adapt_bytes();
    let events = edge_llm_telemetry::disable();

    assert!(!events.is_empty(), "tracing was on, events must exist");
    assert_eq!(ref_params, traced_params, "params drifted under tracing");
    assert_eq!(ref_ckpt, traced_ckpt, "checkpoint drifted under tracing");

    // the fake clock must not change results either (timestamps are
    // never fed back into computation)
    edge_llm_telemetry::enable(Arc::new(FakeClock::with_tick(3)));
    let (fake_params, fake_ckpt) = adapt_bytes();
    edge_llm_telemetry::disable();
    assert_eq!(ref_params, fake_params);
    assert_eq!(ref_ckpt, fake_ckpt);
}

fn serve_outcomes(model: &EdgeModel) -> Vec<ServeOutcome> {
    let mut engine = BatchedInferenceEngine::new(model, 2).unwrap();
    for i in 0..4u64 {
        engine.submit(ServeRequest {
            id: format!("r{i}"),
            prompt: vec![1, 2, 3],
            max_new_tokens: 3,
            decoding: edge_llm_model::Decoding::TopK {
                k: 3,
                temperature: 0.9,
            },
            voting: edge_llm_model::VotingPolicy::final_only(model.n_layers()),
            seed: i,
            deadline_steps: None,
            tenant: None,
        });
    }
    engine.run_to_completion().unwrap()
}

#[test]
fn serving_is_byte_identical_with_tracing_on() {
    let _guard = lock();
    let mut rng = TensorRng::seed_from(19);
    let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();

    let reference = serve_outcomes(&model);
    edge_llm_telemetry::enable(Arc::new(MonotonicClock::default()));
    let traced = serve_outcomes(&model);
    let events = edge_llm_telemetry::disable();

    assert!(!events.is_empty());
    assert_eq!(reference.len(), traced.len());
    for (a, b) in reference.iter().zip(&traced) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tokens, b.tokens, "{}: tokens drifted under tracing", a.id);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.steps, b.steps);
        let bits = |p: &Option<Vec<f32>>| {
            p.as_ref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
        };
        assert_eq!(bits(&a.final_probs), bits(&b.final_probs));
    }
}
