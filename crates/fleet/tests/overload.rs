//! Overload-edge coverage for the fleet router: bounded-queue
//! backpressure, priority displacement and tie determinism, SLO expiry,
//! a crash at every tick of a short session (proptest-style sweep), and
//! retry exhaustion surfacing a typed error.

use edge_llm_fleet::{
    run_fleet, run_fleet_with_adapters, FleetConfig, FleetFault, FleetReport, FleetRequest,
    FleetRun, ScenarioSpec, SessionFinish, SessionOutcome, WorkerFault,
};
use edge_llm_model::{
    AdapterTarget, Decoding, EdgeModel, ModelConfig, ModelError, TenantAdapter, VotingPolicy,
};
use edge_llm_serve::{FinishReason, ServeError, ServeRequest, ShedCause};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::TensorRng;

fn model() -> EdgeModel {
    let mut rng = TensorRng::seed_from(5);
    EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
}

fn request(m: &EdgeModel, id: &str, seed: u64) -> ServeRequest {
    ServeRequest {
        id: id.into(),
        prompt: vec![1, 2],
        max_new_tokens: 3,
        decoding: Decoding::Greedy,
        voting: VotingPolicy::final_only(m.n_layers()),
        seed,
        deadline_steps: None,
        tenant: None,
    }
}

fn arrival(m: &EdgeModel, id: &str, priority: u8, tick: u64) -> FleetRequest {
    FleetRequest {
        req: request(m, id, 7),
        priority,
        submit_tick: tick,
    }
}

fn shed_cause(outcome: &SessionOutcome) -> Option<ShedCause> {
    match outcome.finish {
        SessionFinish::Shed(cause) => Some(cause),
        SessionFinish::Served(_) => None,
    }
}

/// The report minus its one wall-clock field (decode latency), which is
/// the only part allowed to differ between identical runs.
fn deterministic_report(run: &FleetRun) -> FleetReport {
    let mut r = run.report.clone();
    r.decode_token = Default::default();
    r
}

#[test]
fn zero_capacity_knobs_are_typed_errors() {
    let m = model();
    let zeroed = [
        (
            FleetConfig {
                workers: 0,
                ..FleetConfig::default()
            },
            "fleet workers",
        ),
        (
            FleetConfig {
                batch_per_worker: 0,
                ..FleetConfig::default()
            },
            "batch slots",
        ),
        (
            FleetConfig {
                queue_depth: 0,
                ..FleetConfig::default()
            },
            "queue depth",
        ),
    ];
    for (cfg, what) in zeroed {
        let err = run_fleet(&m, &cfg, &[]).err().unwrap();
        assert_eq!(err, ServeError::ZeroCapacity { what });
    }
}

#[test]
fn queue_full_backpressure_sheds_the_overflow_deterministically() {
    let m = model();
    // one worker, one slot, queue of two: six simultaneous equal-
    // priority arrivals all hit admission before any dispatch, so two
    // fit in the bounded queue and the other four bounce with
    // QueueFull.
    let cfg = FleetConfig {
        workers: 1,
        batch_per_worker: 1,
        queue_depth: 2,
        ..FleetConfig::default()
    };
    let traffic: Vec<FleetRequest> = (0..6)
        .map(|i| arrival(&m, &format!("s{i}"), 1, 0))
        .collect();
    let run = run_fleet(&m, &cfg, &traffic).unwrap();
    assert_eq!(run.report.shed_count(ShedCause::QueueFull), 4);
    assert_eq!(run.report.served, 2);
    // FIFO admission: the earliest arrivals survive, the tail sheds
    for id in ["s0", "s1"] {
        assert!(run.require_served(id).is_ok(), "{id} should be served");
    }
    for id in ["s2", "s3", "s4", "s5"] {
        assert_eq!(
            shed_cause(run.outcome(id).unwrap()),
            Some(ShedCause::QueueFull),
            "{id} should bounce"
        );
        let err = run.require_served(id).err().unwrap();
        assert_eq!(
            err,
            ServeError::Shed {
                id: id.into(),
                cause: ShedCause::QueueFull
            }
        );
    }
}

#[test]
fn higher_priority_arrivals_displace_the_lowest_youngest_queued() {
    let m = model();
    let cfg = FleetConfig {
        workers: 1,
        batch_per_worker: 1,
        queue_depth: 2,
        ..FleetConfig::default()
    };
    // Tick 0 puts `running` in the slot and `low1` in the queue; tick 1
    // fills the queue with `low2`, then the priority-2 arrival
    // displaces the youngest queued priority-1 session (low2) — never
    // the older low1, and never the in-flight `running`.
    let traffic = vec![
        arrival(&m, "running", 1, 0),
        arrival(&m, "low1", 1, 0),
        arrival(&m, "low2", 1, 1),
        arrival(&m, "vip", 2, 1),
    ];
    let run = run_fleet(&m, &cfg, &traffic).unwrap();
    assert_eq!(
        shed_cause(run.outcome("low2").unwrap()),
        Some(ShedCause::Displaced)
    );
    assert_eq!(run.report.shed_count(ShedCause::Displaced), 1);
    for id in ["running", "low1", "vip"] {
        assert!(run.require_served(id).is_ok(), "{id} should be served");
    }
}

#[test]
fn priority_ties_always_shed_the_arrival() {
    let m = model();
    let cfg = FleetConfig {
        workers: 1,
        batch_per_worker: 1,
        queue_depth: 1,
        ..FleetConfig::default()
    };
    let traffic = vec![
        arrival(&m, "running", 1, 0),
        arrival(&m, "queued", 1, 1),
        arrival(&m, "tied-latecomer", 1, 2),
    ];
    let a = run_fleet(&m, &cfg, &traffic).unwrap();
    let b = run_fleet(&m, &cfg, &traffic).unwrap();
    // equal priority never displaces: the incumbent keeps its place
    assert_eq!(
        shed_cause(a.outcome("tied-latecomer").unwrap()),
        Some(ShedCause::QueueFull)
    );
    assert!(a.require_served("queued").is_ok());
    // and the decision is identical run-to-run
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(deterministic_report(&a), deterministic_report(&b));
}

#[test]
fn slo_expiry_sheds_sessions_that_waited_too_long() {
    let m = model();
    // one slot and a deep queue: the head session takes 5 ticks, so
    // with an SLO of 3 ticks everything still queued behind it expires.
    let cfg = FleetConfig {
        workers: 1,
        batch_per_worker: 1,
        queue_depth: 8,
        slo_queue_ticks: Some(3),
        ..FleetConfig::default()
    };
    let traffic: Vec<FleetRequest> = (0..4)
        .map(|i| arrival(&m, &format!("s{i}"), 1, 0))
        .collect();
    let run = run_fleet(&m, &cfg, &traffic).unwrap();
    assert!(run.require_served("s0").is_ok());
    assert_eq!(run.report.shed_count(ShedCause::SloExpired), 3);
    for id in ["s1", "s2", "s3"] {
        assert_eq!(
            shed_cause(run.outcome(id).unwrap()),
            Some(ShedCause::SloExpired)
        );
    }
}

#[test]
fn a_crash_at_every_tick_replays_token_identically() {
    let m = model();
    // Proptest-style sweep: the harness draws a fresh sampled-decoding
    // session pair per case (the rng-resume replay path), then the
    // single worker is crashed at EVERY tick the crash-free run
    // reaches. Crash-replay must reproduce the exact token streams no
    // matter where the crash lands — including between a session's
    // last token and its retirement.
    let base_cfg = FleetConfig {
        workers: 1,
        batch_per_worker: 2,
        queue_depth: 8,
        max_retries: 3,
        ..FleetConfig::default()
    };
    run_cases("crash_at_every_tick", 3, |g| {
        let mut sampled = request(&m, "sampled", g.u64());
        sampled.decoding = Decoding::Sample {
            temperature: g.f32_in(0.5, 1.5),
        };
        sampled.max_new_tokens = g.usize_in(1, 5);
        let mut greedy = request(&m, "greedy", g.u64());
        greedy.max_new_tokens = g.usize_in(1, 4);
        let traffic = vec![
            FleetRequest {
                req: sampled,
                priority: 1,
                submit_tick: 0,
            },
            FleetRequest {
                req: greedy,
                priority: 1,
                submit_tick: 1,
            },
        ];
        let baseline = run_fleet(&m, &base_cfg, &traffic).unwrap();
        for crash_tick in 0..=baseline.report.ticks + 1 {
            let mut cfg = base_cfg.clone();
            cfg.faults = vec![FleetFault {
                at_tick: crash_tick,
                kind: WorkerFault::Crash { worker: 0 },
            }];
            let run = run_fleet(&m, &cfg, &traffic).unwrap();
            for base in &baseline.outcomes {
                let crashed = run.outcome(&base.id).unwrap();
                assert_eq!(
                    crashed.tokens, base.tokens,
                    "crash at tick {crash_tick}: {} tokens",
                    base.id
                );
                assert_eq!(
                    crashed.finish, base.finish,
                    "crash at tick {crash_tick}: {} finish",
                    base.id
                );
            }
        }
    });
}

#[test]
fn exhausted_retries_surface_a_typed_error() {
    let m = model();
    // crash the only worker on three consecutive ticks with a budget of
    // one replay: the session survives the first crash and sheds on the
    // second.
    let cfg = FleetConfig {
        workers: 1,
        batch_per_worker: 1,
        queue_depth: 4,
        max_retries: 1,
        slo_queue_ticks: None,
        faults: (1..=3)
            .map(|t| FleetFault {
                at_tick: t,
                kind: WorkerFault::Crash { worker: 0 },
            })
            .collect(),
    };
    let traffic = vec![arrival(&m, "victim", 1, 0)];
    let run = run_fleet(&m, &cfg, &traffic).unwrap();
    let outcome = run.outcome("victim").unwrap();
    assert_eq!(
        shed_cause(outcome),
        Some(ShedCause::RetriesExhausted),
        "{:?}",
        outcome.finish
    );
    assert_eq!(outcome.retries, 1, "one replay was granted");
    assert_eq!(
        run.require_served("victim").err().unwrap(),
        ServeError::RetriesExhausted {
            id: "victim".into(),
            retries: 1
        }
    );
    assert_eq!(run.report.shed_count(ShedCause::RetriesExhausted), 1);
    assert_eq!(run.report.replays, 1);
}

#[test]
fn builtin_scenarios_run_end_to_end_and_reproduce() {
    let m = model();
    let cfg = FleetConfig {
        workers: 2,
        batch_per_worker: 2,
        queue_depth: 4,
        max_retries: 2,
        slo_queue_ticks: Some(16),
        ..FleetConfig::default()
    };
    for name in ScenarioSpec::builtin_names() {
        let spec = ScenarioSpec::builtin(name).unwrap();
        let traffic = spec.generate(m.config().vocab_size, m.n_layers());
        let a = run_fleet(&m, &cfg, &traffic).unwrap();
        let b = run_fleet(&m, &cfg, &traffic).unwrap();
        assert_eq!(
            a.outcomes.len(),
            traffic.len(),
            "{name}: every session is accounted for"
        );
        assert_eq!(a.outcomes, b.outcomes, "{name}: outcomes reproduce");
        assert_eq!(
            deterministic_report(&a),
            deterministic_report(&b),
            "{name}: report reproduces"
        );
        assert_eq!(
            a.report.served + a.report.total_shed(),
            traffic.len(),
            "{name}: served + shed covers the traffic"
        );
    }
}

#[test]
fn rejected_sessions_flow_through_the_fleet_as_engine_rejections() {
    let m = model();
    let mut bad = request(&m, "bad", 1);
    bad.prompt = vec![99_999];
    let traffic = vec![
        FleetRequest {
            req: bad,
            priority: 1,
            submit_tick: 0,
        },
        arrival(&m, "good", 1, 0),
    ];
    let run = run_fleet(&m, &FleetConfig::default(), &traffic).unwrap();
    assert!(matches!(
        run.outcome("bad").unwrap().finish,
        SessionFinish::Served(FinishReason::Rejected { .. })
    ));
    assert!(matches!(
        run.outcome("good").unwrap().finish,
        SessionFinish::Served(FinishReason::Completed)
    ));
}

#[test]
fn an_unresolvable_adapter_fails_the_fleet_with_its_own_typed_error() {
    let m = model();
    let depth = m.n_layers();
    let past_the_model = [(depth, AdapterTarget::Qkv)];
    let adapters = vec![(
        "t0".to_string(),
        TenantAdapter::seeded(m.config(), 3, 2, &past_the_model),
    )];
    let mut tenant_req = arrival(&m, "tenant", 1, 0);
    tenant_req.req.tenant = Some("t0".into());
    let with_traffic = [tenant_req, arrival(&m, "base", 1, 0)];
    // Engines are built (and adapters resolved) before the first tick, so
    // the error surfaces even when no session would ever reach a worker.
    for workers in [1, 3] {
        for traffic in [&with_traffic[..], &[]] {
            let cfg = FleetConfig {
                workers,
                ..FleetConfig::default()
            };
            let err = run_fleet_with_adapters(&m, &cfg, &adapters, traffic)
                .expect_err("the adapter cannot resolve");
            assert_eq!(
                err,
                ServeError::Model(ModelError::LayerOutOfRange {
                    layer: depth,
                    depth
                }),
                "{workers} workers, {} requests",
                traffic.len()
            );
        }
    }
}
