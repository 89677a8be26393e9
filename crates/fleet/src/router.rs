//! The fleet router: shards sessions across N engine workers with
//! SLO-aware admission, bounded queues, overload shedding, and
//! crash-replay failover.
//!
//! # Determinism
//!
//! The router **owns** its N worker engines and runs the fleet in
//! **lock-step ticks**. Within a tick it (1) fires scheduled faults,
//! (2) admits arrivals, (3) expires queued sessions past their SLO,
//! (4) dispatches queued sessions into free batch slots, and (5) steps
//! every live worker once, consuming the replies in worker-index order.
//! Steps 1–4 are plain `&mut` calls; step 5 is one `pool::fan_out` over
//! contiguous shares of the stepping workers (at most one per core), the
//! only stretch where engines run concurrently. All control-plane state
//! (queues, placement, retry counts) lives in the router and every
//! decision is a pure function of that state, so two runs with the same
//! inputs make identical decisions however the shares were scheduled.
//! Token streams are placement-independent on top of that: the engine
//! guarantees each session's output is bit-identical to running it
//! alone, so *which* worker serves a session never changes its tokens.
//!
//! The step is not a sequential loop because the overlap is real: in the
//! benchmark's `fleet_mixed` trace two workers' `serve.step` spans sum to
//! 1405 ms per pass against 998 ms of wall (≈29% of tokens/s). What the
//! ticks never needed is parked threads and command channels around it.
//! `fleet.tick − fleet.step` (router-thread spans) is the scheduler's
//! own cost per tick.
//!
//! # Crash replay
//!
//! Workers record a [`SessionProgress`] (token + post-draw rng snapshot)
//! for every accepted token. When a [`WorkerFault::Crash`] kills a worker,
//! the router rebuilds each lost session as a fresh request whose prompt
//! is the original prompt extended by the accepted tokens, with the
//! token budget reduced accordingly and the sampling rng resumed from
//! the last snapshot. After `k` generated tokens the original session
//! had consumed `prompt + k - 1` positions; a replay prefill over the
//! extended prompt consumes exactly the same count before its first new
//! token, so deadline budgets (measured in fed tokens) and KV capacity
//! line up and the remaining tokens reproduce bit-identically.

use crate::worker::{StepReply, Worker};
use edge_llm_model::{EdgeModel, TenantAdapter};
use edge_llm_serve::{
    FinishReason, LatencySummary, ServeError, ServeOutcome, ServeRequest, ShedCause,
};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{pool, TensorRng};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// What happens to a fleet worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Kill worker `worker`, dropping its in-flight sessions (the router
    /// replays them on a healthy worker).
    Crash {
        /// Index of the worker to kill.
        worker: usize,
    },
    /// Stall worker `worker` for `ticks` scheduler ticks (it makes no
    /// forward progress but loses no state).
    Stall {
        /// Index of the worker to stall.
        worker: usize,
        /// Scheduler ticks the worker stays frozen.
        ticks: usize,
    },
}

impl WorkerFault {
    /// Human-readable label used in scenario reports.
    pub fn label(&self) -> String {
        match self {
            WorkerFault::Crash { worker } => format!("worker-crash({worker})"),
            WorkerFault::Stall { worker, ticks } => format!("worker-stall({worker},{ticks})"),
        }
    }
}

/// A worker fault scheduled at a fleet tick. Ticks never repeat, so each
/// entry fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFault {
    /// Tick at whose start the fault fires.
    pub at_tick: u64,
    /// What goes wrong.
    pub kind: WorkerFault,
}

/// Fleet shape and policy knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Engine workers. Must be at least 1.
    pub workers: usize,
    /// Batch slots per worker engine. Must be at least 1.
    pub batch_per_worker: usize,
    /// Bound on each worker's router-side queue. Must be at least 1.
    pub queue_depth: usize,
    /// Crash replays allowed per session before it is shed with
    /// [`ShedCause::RetriesExhausted`].
    pub max_retries: usize,
    /// When set, a session still queued after waiting this many ticks is
    /// shed with [`ShedCause::SloExpired`].
    pub slo_queue_ticks: Option<u64>,
    /// Deterministic worker crash and stall schedule (empty in
    /// production).
    pub faults: Vec<FleetFault>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 1,
            batch_per_worker: 4,
            queue_depth: 16,
            max_retries: 2,
            slo_queue_ticks: None,
            faults: Vec::new(),
        }
    }
}

/// One session offered to the fleet: a serving request plus the fleet's
/// admission metadata. Ids must be unique across a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    /// The underlying generation request.
    pub req: ServeRequest,
    /// Admission priority — higher values displace lower ones under
    /// overload. Ties always favor the earlier arrival.
    pub priority: u8,
    /// Tick at which the session arrives at the router.
    pub submit_tick: u64,
}

/// How a session ultimately left the fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFinish {
    /// Served to completion by a worker engine (possibly after replays).
    Served(FinishReason),
    /// Dropped by the router without finishing.
    Shed(ShedCause),
}

/// Per-session fleet result.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The request's identifier.
    pub id: String,
    /// Every token the session accepted, across all replays.
    pub tokens: Vec<usize>,
    /// How the session ended.
    pub finish: SessionFinish,
    /// Fed-token count reported by the final serving attempt (for a
    /// replayed session this covers only the last attempt).
    pub steps: usize,
    /// Final combined distribution from the last serving attempt, when
    /// one generated tokens.
    pub final_probs: Option<Vec<f32>>,
    /// Crash replays this session survived.
    pub retries: usize,
    /// Ticks between arrival and first dispatch (None if never
    /// dispatched).
    pub queue_wait_ticks: Option<u64>,
}

/// Fleet-level telemetry for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Sessions served by an engine (any [`FinishReason`]).
    pub served: usize,
    /// Sessions dropped by the router, tallied per cause.
    pub shed: BTreeMap<ShedCause, usize>,
    /// Crash replays dispatched.
    pub replays: usize,
    /// Tokens generated across all workers (replayed work counted once —
    /// accepted tokens survive a crash).
    pub tokens_generated: u64,
    /// Queue wait from arrival to first dispatch, in ticks (the summary
    /// type is unit-agnostic despite its nanosecond field names).
    pub queue_wait_ticks: LatencySummary,
    /// Per-token decode latency across all workers, nanoseconds.
    pub decode_token: LatencySummary,
}

impl FleetReport {
    /// Sessions shed for `cause`.
    pub fn shed_count(&self, cause: ShedCause) -> usize {
        self.shed.get(&cause).copied().unwrap_or(0)
    }

    /// Total sessions shed by the router.
    pub fn total_shed(&self) -> usize {
        self.shed.values().sum()
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} ticks, {} served, {} shed, {} replays, {} tokens",
            self.ticks,
            self.served,
            self.total_shed(),
            self.replays,
            self.tokens_generated
        )?;
        for (cause, n) in &self.shed {
            writeln!(f, "  shed[{}] = {n}", cause.label())?;
        }
        writeln!(
            f,
            "  queue wait (ticks): n={} p50={} p95={} p99={} max={}",
            self.queue_wait_ticks.count,
            self.queue_wait_ticks.p50_ns,
            self.queue_wait_ticks.p95_ns,
            self.queue_wait_ticks.p99_ns,
            self.queue_wait_ticks.max_ns
        )?;
        write!(f, "  decode/token: {}", self.decode_token)
    }
}

/// Everything a fleet run produced: per-session outcomes (in completion
/// order) plus the aggregate report.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Session outcomes in the order they completed or were shed.
    pub outcomes: Vec<SessionOutcome>,
    /// Aggregate fleet telemetry.
    pub report: FleetReport,
}

impl FleetRun {
    /// Looks up a session's outcome by id.
    pub fn outcome(&self, id: &str) -> Option<&SessionOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }

    /// The outcome for `id` if it was actually served, or the typed shed
    /// error if the router dropped it.
    ///
    /// # Errors
    ///
    /// [`ServeError::RetriesExhausted`] when the session ran out of
    /// crash replays, and [`ServeError::Shed`] for any other shed cause
    /// (an unknown id reports as shed with [`ShedCause::Rejected`]).
    pub fn require_served(&self, id: &str) -> Result<&SessionOutcome, ServeError> {
        let Some(outcome) = self.outcome(id) else {
            return Err(ServeError::Shed {
                id: id.to_string(),
                cause: ShedCause::Rejected,
            });
        };
        match &outcome.finish {
            SessionFinish::Served(_) => Ok(outcome),
            SessionFinish::Shed(ShedCause::RetriesExhausted) => Err(ServeError::RetriesExhausted {
                id: outcome.id.clone(),
                retries: outcome.retries,
            }),
            SessionFinish::Shed(cause) => Err(ServeError::Shed {
                id: outcome.id.clone(),
                cause: *cause,
            }),
        }
    }
}

/// Router-side state for one session.
struct Session {
    req: ServeRequest,
    priority: u8,
    arrival_seq: u64,
    submit_tick: u64,
    /// Tick of the most recent enqueue (arrival or replay requeue) —
    /// what the SLO clock measures against.
    enqueued_tick: u64,
    /// Tokens accepted so far across all attempts, from progress events.
    accepted: Vec<usize>,
    /// Sampling rng after the last accepted token's draw.
    rng: Option<TensorRng>,
    retries: usize,
    queue_wait_ticks: Option<u64>,
}

struct Router<'m> {
    cfg: &'m FleetConfig,
    sessions: Vec<Session>,
    by_id: HashMap<String, usize>,
    /// Router-side bounded queue per worker (session indices).
    queues: Vec<VecDeque<usize>>,
    /// Sessions dispatched to each worker and not yet retired.
    in_flight: Vec<Vec<usize>>,
    /// Tick before which each worker is stalled (skips its step).
    stalled_until: Vec<u64>,
    tick: u64,
    outcomes: Vec<SessionOutcome>,
    shed: BTreeMap<ShedCause, usize>,
    served: usize,
    replays: usize,
    tokens_generated: u64,
    queue_wait_samples: Vec<u64>,
    decode_ns: Vec<u64>,
}

impl Router<'_> {
    fn shed_session(&mut self, sid: usize, cause: ShedCause) {
        telemetry::counter(cause.counter_name(), 1);
        *self.shed.entry(cause).or_insert(0) += 1;
        let s = &self.sessions[sid];
        self.outcomes.push(SessionOutcome {
            id: s.req.id.clone(),
            tokens: s.accepted.clone(),
            finish: SessionFinish::Shed(cause),
            steps: 0,
            final_probs: None,
            retries: s.retries,
            queue_wait_ticks: s.queue_wait_ticks,
        });
    }

    /// Routes `sid` to the least-loaded worker with queue space (ties to
    /// the lowest index). When every queue is full, the lowest-priority
    /// youngest queued session fleet-wide is displaced if it is strictly
    /// lower priority than `sid`; otherwise `sid` itself is shed. A
    /// priority tie therefore always sheds the arrival — deterministic
    /// and arrival-order-independent.
    fn place(&mut self, sid: usize) {
        let best = (0..self.queues.len())
            .filter(|&w| self.queues[w].len() < self.cfg.queue_depth)
            .min_by_key(|&w| (self.in_flight[w].len() + self.queues[w].len(), w));
        if let Some(w) = best {
            self.sessions[sid].enqueued_tick = self.tick;
            self.queues[w].push_back(sid);
            return;
        }
        let victim = self
            .queues
            .iter()
            .enumerate()
            .flat_map(|(w, q)| q.iter().map(move |&vs| (w, vs)))
            .min_by_key(|&(_, vs)| {
                let v = &self.sessions[vs];
                (v.priority, std::cmp::Reverse(v.arrival_seq))
            });
        match victim {
            Some((w, vs)) if self.sessions[vs].priority < self.sessions[sid].priority => {
                self.queues[w].retain(|&q| q != vs);
                self.shed_session(vs, ShedCause::Displaced);
                self.sessions[sid].enqueued_tick = self.tick;
                self.queues[w].push_back(sid);
            }
            _ => self.shed_session(sid, ShedCause::QueueFull),
        }
    }

    /// Sheds queued sessions that have waited past the SLO budget.
    fn expire_slo(&mut self) {
        let Some(slo) = self.cfg.slo_queue_ticks else {
            return;
        };
        for w in 0..self.queues.len() {
            let expired: Vec<usize> = self.queues[w]
                .iter()
                .copied()
                .filter(|&sid| self.tick - self.sessions[sid].enqueued_tick >= slo)
                .collect();
            self.queues[w].retain(|sid| !expired.contains(sid));
            for sid in expired {
                self.shed_session(sid, ShedCause::SloExpired);
            }
        }
    }

    /// The request to submit for `sid`'s next attempt: the original on a
    /// first dispatch, otherwise the replay request (prompt extended by
    /// accepted tokens, budget reduced, rng resumed).
    fn attempt(&self, sid: usize) -> (ServeRequest, Option<TensorRng>) {
        let s = &self.sessions[sid];
        if s.accepted.is_empty() {
            return (s.req.clone(), None);
        }
        let mut req = s.req.clone();
        req.prompt.extend_from_slice(&s.accepted);
        req.max_new_tokens -= s.accepted.len();
        (req, s.rng.clone())
    }

    /// Requeues every in-flight session of a crashed worker, burning one
    /// retry each.
    fn crash(&mut self, w: usize) {
        let lost = std::mem::take(&mut self.in_flight[w]);
        for sid in lost {
            if self.sessions[sid].retries >= self.cfg.max_retries {
                self.shed_session(sid, ShedCause::RetriesExhausted);
            } else {
                self.sessions[sid].retries += 1;
                self.replays += 1;
                self.place(sid);
            }
        }
    }

    fn process_reply(&mut self, w: usize, reply: StepReply) {
        for p in reply.progress {
            let sid = self.by_id[&p.id];
            self.sessions[sid].accepted.push(p.token);
            self.sessions[sid].rng = Some(p.rng);
            self.tokens_generated += 1;
        }
        self.decode_ns.extend(reply.decode_ns);
        for outcome in reply.finished {
            let sid = self.by_id[&outcome.id];
            self.in_flight[w].retain(|&q| q != sid);
            self.served += 1;
            let s = &self.sessions[sid];
            let ServeOutcome {
                id,
                tokens,
                finish,
                steps,
                final_probs,
            } = outcome;
            // A replayed session's engine outcome covers only the last
            // attempt; the full stream is the router's accepted log.
            let tokens = if s.retries == 0 {
                tokens
            } else {
                s.accepted.clone()
            };
            self.outcomes.push(SessionOutcome {
                id,
                tokens,
                finish: SessionFinish::Served(finish),
                steps,
                final_probs,
                retries: s.retries,
                queue_wait_ticks: s.queue_wait_ticks,
            });
        }
    }
}

fn validate(cfg: &FleetConfig) -> Result<(), ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError::ZeroCapacity {
            what: "fleet workers",
        });
    }
    if cfg.batch_per_worker == 0 {
        return Err(ServeError::ZeroCapacity {
            what: "batch slots",
        });
    }
    if cfg.queue_depth == 0 {
        return Err(ServeError::ZeroCapacity {
            what: "queue depth",
        });
    }
    Ok(())
}

/// Runs every request through a fleet of `cfg.workers` engine workers
/// and returns the per-session outcomes plus the aggregate report.
///
/// Requests may arrive at any `submit_tick` in any order; the router
/// processes them in `(submit_tick, input index)` order. With the same
/// model, config, and requests, the result is identical run-to-run.
///
/// # Errors
///
/// Returns [`ServeError::ZeroCapacity`] for a zero worker count, batch
/// size, or queue depth, and propagates engine construction and model
/// failures from the workers — engines are built before the first tick,
/// so even an empty request list reports them. Session-level problems
/// (validation, deadline, shedding, retry exhaustion) are reported per
/// session in the outcomes, never as an `Err`.
pub fn run_fleet(
    model: &EdgeModel,
    cfg: &FleetConfig,
    requests: &[FleetRequest],
) -> Result<FleetRun, ServeError> {
    run_fleet_with_adapters(model, cfg, &[], requests)
}

/// [`run_fleet`] over a multi-tenant fleet: every worker engine gets all
/// of `adapters` registered against the shared frozen base before
/// serving, and a worker rebuilt after a crash re-registers them —
/// failover re-places tenant sessions with their adapter resident.
/// Requests naming a tenant not in `adapters` are rejected per session
/// by the engine, never as an `Err`.
///
/// # Errors
///
/// As [`run_fleet`], plus adapter resolution failures (bad layer index
/// or factor shapes for this model), returned as the adapter's own
/// [`ServeError::Model`] from worker construction before the first tick.
pub fn run_fleet_with_adapters(
    model: &EdgeModel,
    cfg: &FleetConfig,
    adapters: &[(String, TenantAdapter)],
    requests: &[FleetRequest],
) -> Result<FleetRun, ServeError> {
    validate(cfg)?;
    let _span = telemetry::span("fleet.run");

    // Arrival order: by submit tick, input order within a tick.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| requests[i].submit_tick);
    let sessions: Vec<Session> = order
        .iter()
        .enumerate()
        .map(|(seq, &i)| Session {
            req: requests[i].req.clone(),
            priority: requests[i].priority,
            arrival_seq: seq as u64,
            submit_tick: requests[i].submit_tick,
            enqueued_tick: requests[i].submit_tick,
            accepted: Vec::new(),
            rng: None,
            retries: 0,
            queue_wait_ticks: None,
        })
        .collect();
    let by_id: HashMap<String, usize> = sessions
        .iter()
        .enumerate()
        .map(|(sid, s)| (s.req.id.clone(), sid))
        .collect();
    if by_id.len() != sessions.len() {
        return Err(ServeError::Model(edge_llm_model::ModelError::BadConfig {
            reason: "fleet request ids must be unique".into(),
        }));
    }

    // Engines are built (adapters resolved) here, rebuilt only by a crash.
    let fresh_worker = || Worker::new(model, cfg.batch_per_worker, adapters);
    let built: Result<Vec<_>, _> = (0..cfg.workers).map(|_| fresh_worker()).collect();
    let mut workers = built?;
    // Threads a tick's step may occupy; more workers than that share one.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut r = Router {
        cfg,
        sessions,
        by_id,
        queues: vec![VecDeque::new(); cfg.workers],
        in_flight: vec![Vec::new(); cfg.workers],
        stalled_until: vec![0; cfg.workers],
        tick: 0,
        outcomes: Vec::new(),
        shed: BTreeMap::new(),
        served: 0,
        replays: 0,
        tokens_generated: 0,
        queue_wait_samples: Vec::new(),
        decode_ns: Vec::new(),
    };
    let mut next_arrival = 0usize;

    loop {
        let idle = next_arrival == r.sessions.len()
            && r.queues.iter().all(|q| q.is_empty())
            && r.in_flight.iter().all(|f| f.is_empty());
        if idle {
            break;
        }
        let _tick = telemetry::span("fleet.tick");

        // 1. Scheduled faults fire at the tick boundary, before any
        //    admission: a crash loses exactly the sessions that were
        //    in flight at the end of the previous tick.
        let tick = r.tick;
        for fault in cfg.faults.iter().filter(|f| f.at_tick == tick) {
            match fault.kind {
                WorkerFault::Crash { worker } => {
                    let w = worker % cfg.workers;
                    telemetry::counter("fleet.worker_crash", 1);
                    // Supervisor restart: the engine and every session
                    // in flight on it are dropped for a fresh one.
                    workers[w] = fresh_worker()?;
                    r.crash(w);
                }
                WorkerFault::Stall { worker, ticks } => {
                    let w = worker % cfg.workers;
                    telemetry::counter("fleet.worker_stall", 1);
                    r.stalled_until[w] = tick + ticks as u64;
                }
            }
        }

        // 2. Admissions due this tick.
        while next_arrival < r.sessions.len() && r.sessions[next_arrival].submit_tick <= r.tick {
            r.place(next_arrival);
            next_arrival += 1;
        }

        // 3. Queued sessions past the SLO budget are shed before
        //    dispatch — an expired session never reaches a worker.
        r.expire_slo();

        // 4. Dispatch queued sessions into free batch slots (FIFO
        //    per queue; priorities influence shedding, not order).
        for (w, worker) in workers.iter_mut().enumerate() {
            while r.in_flight[w].len() < cfg.batch_per_worker {
                let Some(sid) = r.queues[w].pop_front() else {
                    break;
                };
                if r.sessions[sid].queue_wait_ticks.is_none() {
                    let wait = r.tick - r.sessions[sid].submit_tick;
                    r.sessions[sid].queue_wait_ticks = Some(wait);
                    r.queue_wait_samples.push(wait);
                }
                let (req, rng) = r.attempt(sid);
                worker.submit(req, rng);
                r.in_flight[w].push(sid);
            }
        }

        // 5. Step every live worker — contiguous shares, one per core,
        //    each stepped in index order with kernel threads pinned to one
        //    so N workers cannot oversubscribe the machine — then consume
        //    the replies in worker index order (the determinism barrier).
        let live = |w: usize| !r.in_flight[w].is_empty() && r.stalled_until[w] <= r.tick;
        let n_live = (0..cfg.workers).filter(|&w| live(w)).count();
        let mut stepping = workers.iter_mut().enumerate().filter(|(w, _)| live(*w));
        let shares: Vec<Vec<(usize, &mut Worker<'_>)>> = pool::partition(n_live, cores)
            .into_iter()
            .map(|part| stepping.by_ref().take(part.len()).collect())
            .collect();
        let replies = {
            let _step = telemetry::span("fleet.step");
            pool::fan_out(shares, |share| {
                pool::serial_scope(|| {
                    let step = |(w, worker): (usize, &mut Worker<'_>)| (w, worker.step());
                    share.into_iter().map(step).collect::<Vec<_>>()
                })
            })
        };
        for (w, reply) in replies.into_iter().flatten() {
            r.process_reply(w, reply?);
        }

        r.tick += 1;
    }

    telemetry::counter("fleet.ticks", r.tick);
    let report = FleetReport {
        ticks: r.tick,
        served: r.served,
        shed: r.shed,
        replays: r.replays,
        tokens_generated: r.tokens_generated,
        queue_wait_ticks: LatencySummary::from_ns(r.queue_wait_samples),
        decode_token: LatencySummary::from_ns(r.decode_ns),
    };
    Ok(FleetRun {
        outcomes: r.outcomes,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_fault_labels_are_distinct() {
        let crash = WorkerFault::Crash { worker: 0 }.label();
        let stall = WorkerFault::Stall {
            worker: 0,
            ticks: 3,
        }
        .label();
        assert_eq!(crash, "worker-crash(0)");
        assert_eq!(stall, "worker-stall(0,3)");
    }
}
