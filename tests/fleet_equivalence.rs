//! Differential proof of the fleet's determinism contract, extending the
//! `tests/serving_equivalence.rs` pattern up one level:
//!
//! 1. **1 worker, no faults** — a fleet run is byte-identical to driving
//!    the `BatchedInferenceEngine` directly (tokens, finish, steps, and
//!    the final combined distribution, bit for bit).
//! 2. **N workers, no faults** — every session is bit-identical to its
//!    solo reference regardless of shard placement, for randomized
//!    request mixes drawn from the in-repo property harness.
//! 3. **Injected `WorkerFault::Crash` schedules** — every session's token
//!    stream and finish reason match the crash-free single-worker run.
//!    (A crash can land between a session's last token and its
//!    retirement, in which case the replay's step count and final
//!    distribution describe a zero-token attempt — so the crash oracle
//!    compares tokens + finish, the full-strength bitwise oracle runs on
//!    the fault-free configurations.)

use edge_llm_fleet::{
    run_fleet, run_fleet_with_adapters, FleetConfig, FleetFault, FleetRequest, FleetRun,
    SessionFinish, WorkerFault,
};
use edge_llm_model::{
    AdapterTarget, Decoding, EdgeModel, ModelConfig, TenantAdapter, VotingCombiner, VotingPolicy,
};
use edge_llm_serve::{run_solo_with_adapter, BatchedInferenceEngine, ServeRequest};
use edge_llm_tensor::check::{run_cases, Gen};
use edge_llm_tensor::TensorRng;
use std::sync::Arc;

fn tiny_model(seed: u64) -> EdgeModel {
    let mut rng = TensorRng::seed_from(seed);
    EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
}

/// Draws one random valid request against `model`'s shape.
fn random_request(g: &mut Gen, model: &EdgeModel, id: usize) -> ServeRequest {
    let cfg = model.config();
    let n_layers = model.n_layers();
    let prompt_len = g.usize_in(1, cfg.seq_len);
    let prompt: Vec<usize> = (0..prompt_len)
        .map(|_| g.usize_in(0, cfg.vocab_size))
        .collect();
    let decoding = match g.usize_in(0, 3) {
        0 => Decoding::Greedy,
        1 => Decoding::Sample {
            temperature: g.f32_in(0.3, 2.0),
        },
        _ => Decoding::TopK {
            k: g.usize_in(1, cfg.vocab_size),
            temperature: g.f32_in(0.3, 2.0),
        },
    };
    let voting = if g.bool() {
        VotingPolicy::final_only(n_layers)
    } else {
        VotingPolicy::all_exits(n_layers, VotingCombiner::Average)
    };
    ServeRequest {
        id: format!("r{id}"),
        prompt,
        max_new_tokens: g.usize_in(0, cfg.seq_len),
        decoding,
        voting,
        seed: g.u64(),
        deadline_steps: if g.bool() {
            Some(g.usize_in(1, 2 * cfg.seq_len))
        } else {
            None
        },
        tenant: None,
    }
}

fn fleet_traffic(g: &mut Gen, model: &EdgeModel, n: usize, span: u64) -> Vec<FleetRequest> {
    (0..n)
        .map(|i| FleetRequest {
            req: random_request(g, model, i),
            priority: g.usize_in(0, 3) as u8,
            submit_tick: g.usize_in(0, span as usize + 1) as u64,
        })
        .collect()
}

/// A config roomy enough that nothing is ever shed — every session must
/// come out served.
fn roomy(workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        batch_per_worker: 4,
        queue_depth: 64,
        max_retries: 8,
        slo_queue_ticks: None,
        faults: Vec::new(),
    }
}

fn assert_bitwise_vs_engine(
    run: &FleetRun,
    model: &EdgeModel,
    traffic: &[FleetRequest],
    ctx: &str,
) {
    let mut engine = BatchedInferenceEngine::new(model, 4).unwrap();
    for fr in traffic {
        engine.submit(fr.req.clone());
    }
    let reference = engine.run_to_completion().unwrap();
    assert_eq!(run.outcomes.len(), reference.len(), "{ctx}: outcome count");
    for solo in &reference {
        let fleet = run
            .outcome(&solo.id)
            .unwrap_or_else(|| panic!("{ctx}: no fleet outcome for {}", solo.id));
        assert_eq!(fleet.tokens, solo.tokens, "{ctx} {}: tokens", solo.id);
        assert_eq!(
            fleet.finish,
            SessionFinish::Served(solo.finish.clone()),
            "{ctx} {}: finish",
            solo.id
        );
        assert_eq!(fleet.steps, solo.steps, "{ctx} {}: steps", solo.id);
        let bits = |p: &Option<Vec<f32>>| {
            p.as_ref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
        };
        assert_eq!(
            bits(&fleet.final_probs),
            bits(&solo.final_probs),
            "{ctx} {}: final distribution must be bit-identical",
            solo.id
        );
        assert_eq!(fleet.retries, 0, "{ctx} {}: no replays expected", solo.id);
    }
}

#[test]
fn one_worker_no_faults_is_byte_identical_to_the_engine() {
    let model = tiny_model(21);
    run_cases("fleet_eq_one_worker", 6, |g| {
        let n = g.usize_in(1, 9);
        let traffic = fleet_traffic(g, &model, n, 6);
        let run = run_fleet(&model, &roomy(1), &traffic).unwrap();
        assert_bitwise_vs_engine(&run, &model, &traffic, "1 worker");
    });
}

#[test]
fn n_workers_are_bitwise_placement_independent() {
    let model = tiny_model(22);
    run_cases("fleet_eq_n_workers", 5, |g| {
        let n = g.usize_in(4, 13);
        let traffic = fleet_traffic(g, &model, n, 8);
        for workers in [2usize, 4] {
            let run = run_fleet(&model, &roomy(workers), &traffic).unwrap();
            assert_bitwise_vs_engine(&run, &model, &traffic, &format!("{workers} workers"));
        }
    });
}

#[test]
fn identical_runs_produce_identical_reports() {
    let model = tiny_model(23);
    run_cases("fleet_eq_repeat", 4, |g| {
        let traffic = fleet_traffic(g, &model, 8, 6);
        let cfg = FleetConfig {
            workers: 2,
            batch_per_worker: 2,
            queue_depth: 2,
            max_retries: 1,
            slo_queue_ticks: Some(6),
            faults: vec![FleetFault {
                at_tick: 3,
                kind: WorkerFault::Crash { worker: 0 },
            }],
        };
        let a = run_fleet(&model, &cfg, &traffic).unwrap();
        let b = run_fleet(&model, &cfg, &traffic).unwrap();
        assert_eq!(a.outcomes, b.outcomes, "outcome streams diverged");
        // decode_token is real wall-clock latency — the only report
        // field allowed to differ between identical runs
        let scrub = |run: &FleetRun| {
            let mut r = run.report.clone();
            r.decode_token = Default::default();
            r
        };
        assert_eq!(scrub(&a), scrub(&b), "reports diverged");
    });
}

#[test]
fn crashed_workers_replay_token_identically() {
    let model = tiny_model(24);
    run_cases("fleet_eq_crash", 5, |g| {
        let n = g.usize_in(4, 11);
        let traffic = fleet_traffic(g, &model, n, 5);
        let baseline = run_fleet(&model, &roomy(1), &traffic).unwrap();
        for workers in [2usize, 4] {
            let mut cfg = roomy(workers);
            // a crash landing anywhere in the run, on any worker
            cfg.faults = vec![
                FleetFault {
                    at_tick: g.usize_in(1, 12) as u64,
                    kind: WorkerFault::Crash {
                        worker: g.usize_in(0, workers),
                    },
                },
                FleetFault {
                    at_tick: g.usize_in(1, 20) as u64,
                    kind: WorkerFault::Crash {
                        worker: g.usize_in(0, workers),
                    },
                },
            ];
            let run = run_fleet(&model, &cfg, &traffic).unwrap();
            assert_eq!(run.outcomes.len(), baseline.outcomes.len());
            for base in &baseline.outcomes {
                let crashed = run.outcome(&base.id).unwrap();
                assert_eq!(
                    crashed.tokens, base.tokens,
                    "{}: tokens changed under crash ({} retries)",
                    base.id, crashed.retries
                );
                assert_eq!(crashed.finish, base.finish, "{}: finish", base.id);
            }
        }
    });
}

#[test]
fn crashed_workers_replay_tenant_sessions_with_adapters_resident() {
    let model = tiny_model(26);
    // three tenants, each a distinct low-rank adapter over the shared base
    let adapters: Vec<(String, TenantAdapter)> = (0..3)
        .map(|t| {
            let sites = [(0, AdapterTarget::Qkv), (1, AdapterTarget::Fc2)];
            (
                format!("tenant-{t}"),
                TenantAdapter::seeded(model.config(), 100 + t as u64, 1, &sites),
            )
        })
        .collect();
    run_cases("fleet_eq_tenant_crash", 4, |g| {
        let n = g.usize_in(4, 11);
        let mut traffic = fleet_traffic(g, &model, n, 5);
        for (i, fr) in traffic.iter_mut().enumerate() {
            if g.bool() {
                fr.req.tenant = Some(format!("tenant-{}", i % 3));
            }
        }
        // crash-free single-worker baseline, itself proven against the
        // solo-with-adapter oracle so the whole chain is anchored
        let baseline = run_fleet_with_adapters(&model, &roomy(1), &adapters, &traffic).unwrap();
        for fr in &traffic {
            let adapter = fr.req.tenant.as_deref().map(|t| {
                let (_, a) = adapters.iter().find(|(name, _)| name == t).unwrap();
                Arc::new(a.resolve(&model).unwrap())
            });
            let solo = run_solo_with_adapter(&model, &fr.req, adapter).unwrap();
            let fleet = baseline.outcome(&solo.id).unwrap();
            assert_eq!(fleet.tokens, solo.tokens, "{}: baseline tokens", solo.id);
            assert_eq!(
                fleet.finish,
                SessionFinish::Served(solo.finish.clone()),
                "{}: baseline finish",
                solo.id
            );
        }
        // a crashed worker rebuilds with every adapter re-registered, so
        // failover re-places tenant sessions and resumes them exactly
        for workers in [2usize, 4] {
            let mut cfg = roomy(workers);
            cfg.faults = vec![
                FleetFault {
                    at_tick: g.usize_in(1, 12) as u64,
                    kind: WorkerFault::Crash {
                        worker: g.usize_in(0, workers),
                    },
                },
                FleetFault {
                    at_tick: g.usize_in(1, 20) as u64,
                    kind: WorkerFault::Crash {
                        worker: g.usize_in(0, workers),
                    },
                },
            ];
            let run = run_fleet_with_adapters(&model, &cfg, &adapters, &traffic).unwrap();
            assert_eq!(run.outcomes.len(), baseline.outcomes.len());
            for base in &baseline.outcomes {
                let crashed = run.outcome(&base.id).unwrap();
                assert_eq!(
                    crashed.tokens, base.tokens,
                    "{}: tenant tokens changed under crash ({} retries)",
                    base.id, crashed.retries
                );
                assert_eq!(crashed.finish, base.finish, "{}: finish", base.id);
            }
        }
    });
}

#[test]
fn stalls_delay_but_never_change_outputs() {
    let model = tiny_model(25);
    run_cases("fleet_eq_stall", 4, |g| {
        let traffic = fleet_traffic(g, &model, 6, 4);
        let baseline = run_fleet(&model, &roomy(2), &traffic).unwrap();
        let mut cfg = roomy(2);
        cfg.faults = vec![FleetFault {
            at_tick: g.usize_in(0, 6) as u64,
            kind: WorkerFault::Stall {
                worker: g.usize_in(0, 2),
                ticks: g.usize_in(1, 5),
            },
        }];
        let run = run_fleet(&model, &cfg, &traffic).unwrap();
        for base in &baseline.outcomes {
            let stalled = run.outcome(&base.id).unwrap();
            assert_eq!(stalled.tokens, base.tokens, "{}: tokens", base.id);
            assert_eq!(stalled.finish, base.finish, "{}: finish", base.id);
        }
        assert!(
            run.report.ticks >= baseline.report.ticks,
            "a stall cannot make the run finish earlier"
        );
    });
}
