//! Fault-tolerant adaptation runtime: checkpointing, divergence rollback,
//! and deterministic fault injection.
//!
//! On-device adaptation runs on hardware that browns out and occasionally
//! flips bits. This module wraps the adaptation loop with the machinery
//! to survive that:
//!
//! * **Training checkpoints** — periodic [`TrainingCheckpoint`] snapshots
//!   (parameters, optimizer velocity, schedule cursor, RNG state) kept in
//!   memory and optionally on disk, each serialized once and written
//!   durably (synced, then renamed into place);
//! * **Divergence detection** — a [`DivergenceGuard`] flags non-finite
//!   losses/gradient norms and EWMA loss spikes, triggering rollback to
//!   the last good checkpoint with learning-rate backoff under a bounded
//!   retry budget;
//! * **Graceful degradation** — repeated rollbacks shrink the backprop
//!   window depth instead of aborting;
//! * **Deterministic fault injection** — a plan of in-step
//!   [`PlannedFault`]s (gradient bit flips, NaN gradients, NaN
//!   parameters) exercises the rollback and degradation paths in tests;
//! * **Recovery journal** — every event is recorded in a
//!   [`RecoveryJournal`] attached to the run's outcome.
//!
//! Rollback restores parameters **in place**: compression hooks and
//! pruning masks stay installed, and the restore re-masks each pruned
//! weight as it writes it. A process that dies is resumed by the next
//! one: every cross-process load — resume, generation, serving,
//! inspection — goes through [`restore_run`], which rebuilds the model
//! from the checkpoint first and re-applies the recorded compression
//! policy afterwards — masked positions are exactly the zero-valued parameters, so magnitude
//! pruning re-selects the identical mask.

use crate::compress::apply_policy;
use crate::EdgeLlmError;
use edge_llm_data::Dataset;
use edge_llm_luc::CompressionPolicy;
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, ModelError, Optimizer, Sgd, StepPhases, TrainingCheckpoint,
    WindowSchedule,
};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::TensorRng;
use std::fmt;
use std::path::PathBuf;

/// Rollbacks allowed before the run fails with [`EdgeLlmError::Diverged`].
const MAX_ROLLBACKS: usize = 3;
/// Learning-rate multiplier applied on every rollback.
const LR_BACKOFF: f32 = 0.5;
/// EWMA smoothing coefficient of the spike detector.
const EWMA_ALPHA: f32 = 0.2;
/// Steps before spike detection engages (non-finite detection is always
/// active).
const WARMUP_STEPS: usize = 8;
/// Rollbacks tolerated before the window depth is degraded.
const DEGRADE_AFTER: usize = 2;

/// One injectable in-step fault: it corrupts the optimizer update of the
/// step it is scheduled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR bit `bit` into a few gradient values before the optimizer sees
    /// them (models a radiation/DMA bit flip; high exponent bits blow the
    /// update up).
    FlipGradBit {
        /// Bit index (mod 32) to flip.
        bit: u32,
    },
    /// Overwrite a few gradient values with NaN.
    NanGrad,
    /// Overwrite a few parameter values with NaN after the update.
    NanParam,
}

impl FaultKind {
    /// Human-readable label used in journals.
    pub fn label(&self) -> String {
        match self {
            FaultKind::FlipGradBit { bit } => format!("flip-grad-bit({bit})"),
            FaultKind::NanGrad => "nan-grad".into(),
            FaultKind::NanParam => "nan-param".into(),
        }
    }
}

/// A fault scheduled at a specific adaptation iteration. Each planned
/// fault fires exactly once (transient-fault model): after a rollback the
/// replayed iteration runs clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Iteration at which the fault fires.
    pub at_iteration: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Fired-once bookkeeping over a set of [`PlannedFault`]s: a rollback
/// revisits iterations, and a fault must not fire again on the replay.
struct FaultPlan {
    faults: Vec<PlannedFault>,
    fired: Vec<bool>,
}

impl FaultPlan {
    /// Builds a plan over `faults` with nothing fired yet.
    fn new(faults: &[PlannedFault]) -> Self {
        FaultPlan {
            faults: faults.to_vec(),
            fired: vec![false; faults.len()],
        }
    }

    /// Returns every not-yet-fired fault scheduled at `at`, marking each
    /// as fired (in schedule order). Revisiting `at` returns nothing.
    fn due(&mut self, at: u64) -> Vec<PlannedFault> {
        let mut out = Vec::new();
        for (i, fault) in self.faults.iter().enumerate() {
            if !self.fired[i] && fault.at_iteration == at {
                self.fired[i] = true;
                out.push(*fault);
            }
        }
        out
    }
}

/// Configuration of the resilient adaptation runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Take a rollback checkpoint every N completed iterations
    /// (0 keeps only the initial snapshot).
    pub checkpoint_every: usize,
    /// When set, checkpoints are also written (durably) to this path.
    pub checkpoint_path: Option<PathBuf>,
    /// A loss above `spike_factor * EWMA(loss)` counts as divergence
    /// (`f32::INFINITY` leaves only non-finite detection).
    pub spike_factor: f32,
    /// Deterministic fault-injection plan (empty in production).
    pub faults: Vec<PlannedFault>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_every: 0,
            checkpoint_path: None,
            spike_factor: 4.0,
            faults: Vec::new(),
        }
    }
}

/// One entry in the recovery journal.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// A rollback checkpoint was captured (and possibly persisted).
    CheckpointWritten {
        /// Completed iterations at capture time.
        iteration: u64,
        /// Serialized size.
        bytes: usize,
        /// Disk destination, if any.
        path: Option<String>,
    },
    /// A planned fault fired.
    FaultInjected {
        /// Iteration at which it fired.
        iteration: u64,
        /// Fault label.
        kind: String,
    },
    /// The divergence guard tripped.
    DivergenceDetected {
        /// Iteration of the offending step.
        iteration: u64,
        /// Loss at that step.
        loss: f32,
        /// Window gradient norm at that step.
        grad_norm: f32,
        /// Guard's explanation.
        reason: String,
    },
    /// Training state was rolled back to the last good checkpoint.
    RollbackTaken {
        /// Iteration the run had reached.
        from_iteration: u64,
        /// Checkpoint iteration restored to.
        to_iteration: u64,
        /// Learning rate after backoff.
        new_lr: f32,
    },
    /// The backprop window depth was reduced.
    WindowDegraded {
        /// Iteration at which degradation applied.
        iteration: u64,
        /// Depth before.
        old_depth: usize,
        /// Depth after.
        new_depth: usize,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::CheckpointWritten {
                iteration,
                bytes,
                path,
            } => match path {
                Some(p) => write!(f, "[it {iteration}] checkpoint written ({bytes} B) -> {p}"),
                None => write!(
                    f,
                    "[it {iteration}] checkpoint captured ({bytes} B, in memory)"
                ),
            },
            RecoveryEvent::FaultInjected { iteration, kind } => {
                write!(f, "[it {iteration}] fault injected: {kind}")
            }
            RecoveryEvent::DivergenceDetected {
                iteration,
                loss,
                grad_norm,
                reason,
            } => {
                write!(
                    f,
                    "[it {iteration}] divergence detected: {reason} (loss {loss}, grad norm {grad_norm})"
                )
            }
            RecoveryEvent::RollbackTaken {
                from_iteration,
                to_iteration,
                new_lr,
            } => {
                write!(
                    f,
                    "[it {from_iteration} -> {to_iteration}] rollback, lr now {new_lr}"
                )
            }
            RecoveryEvent::WindowDegraded {
                iteration,
                old_depth,
                new_depth,
            } => {
                write!(
                    f,
                    "[it {iteration}] window depth degraded {old_depth} -> {new_depth}"
                )
            }
        }
    }
}

/// Structured log of everything the resilient runtime did to keep a run
/// alive. Attached to the adaptation outcome and printed by the CLI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryJournal {
    events: Vec<RecoveryEvent>,
}

impl RecoveryJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: RecoveryEvent) {
        self.events.push(event);
    }

    /// All events in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Whether nothing noteworthy happened.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of rollbacks taken.
    pub fn rollbacks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::RollbackTaken { .. }))
            .count()
    }
}

impl fmt::Display for RecoveryJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Flags steps whose loss or gradient norm indicates the run has left the
/// stable regime: non-finite values always trip it; after an 8-step
/// warmup, a loss above `spike_factor` times the exponential moving
/// average (smoothing coefficient 0.2) does too.
#[derive(Debug, Clone)]
pub struct DivergenceGuard {
    spike_factor: f32,
    ewma: f32,
    steps: usize,
}

impl DivergenceGuard {
    /// Creates a guard; see [`ResilienceConfig::spike_factor`].
    pub fn new(spike_factor: f32) -> Self {
        DivergenceGuard {
            spike_factor,
            ewma: 0.0,
            steps: 0,
        }
    }

    /// Feeds one step's observations. Returns a reason string if the step
    /// diverged (the step's statistics are then *not* absorbed into the
    /// moving average).
    pub fn observe(&mut self, loss: f32, grad_norm: f32) -> Option<String> {
        if !loss.is_finite() {
            return Some(format!("non-finite loss {loss}"));
        }
        if !grad_norm.is_finite() {
            return Some(format!("non-finite gradient norm {grad_norm}"));
        }
        if self.steps >= WARMUP_STEPS && self.ewma > 0.0 && loss > self.spike_factor * self.ewma {
            return Some(format!(
                "loss {loss:.4} above {:.1}x EWMA {:.4}",
                self.spike_factor, self.ewma
            ));
        }
        self.ewma = if self.steps == 0 {
            loss
        } else {
            EWMA_ALPHA * loss + (1.0 - EWMA_ALPHA) * self.ewma
        };
        self.steps += 1;
        None
    }

    /// Clears history (after a rollback the loss scale starts over).
    pub fn reset(&mut self) {
        self.ewma = 0.0;
        self.steps = 0;
    }
}

/// Optimizer wrapper that applies at most one gradient/parameter fault on
/// the first parameter slice of the step, then delegates.
struct FaultyOptimizer<'a> {
    inner: &'a mut dyn Optimizer,
    pending: Option<FaultKind>,
}

/// Corrupt a few spread-out positions so the fault survives pruning masks
/// that happen to cover one of them.
fn poison_positions(len: usize) -> [usize; 3] {
    [0, len / 2, len.saturating_sub(1)]
}

impl Optimizer for FaultyOptimizer<'_> {
    fn update(&mut self, id: usize, param: &mut [f32], grad: &mut [f32]) {
        match self.pending.take() {
            Some(FaultKind::FlipGradBit { bit }) => {
                for idx in poison_positions(grad.len()) {
                    if let Some(g) = grad.get_mut(idx) {
                        *g = f32::from_bits(g.to_bits() ^ (1u32 << (bit % 32)));
                    }
                }
            }
            Some(FaultKind::NanGrad) => {
                for idx in poison_positions(grad.len()) {
                    if let Some(g) = grad.get_mut(idx) {
                        *g = f32::NAN;
                    }
                }
            }
            Some(FaultKind::NanParam) => {
                self.inner.update(id, param, grad);
                for idx in poison_positions(param.len()) {
                    if let Some(p) = param.get_mut(idx) {
                        *p = f32::NAN;
                    }
                }
                return;
            }
            None => {}
        }
        self.inner.update(id, param, grad);
    }
}

/// The deepest window of `schedule` on a model of `n_layers`.
pub(crate) fn schedule_depth(schedule: &WindowSchedule, n_layers: usize) -> usize {
    let cycle = schedule.cycle(n_layers);
    cycle.iter().map(|w| w.depth()).max().unwrap_or(1)
}

/// Halves the backprop window depth, or `None` when already at depth 1.
/// The degraded schedule is always round-robin so every layer keeps
/// getting trained.
fn degraded_schedule(
    schedule: &WindowSchedule,
    n_layers: usize,
) -> Option<(WindowSchedule, usize, usize)> {
    let old = schedule_depth(schedule, n_layers);
    if old <= 1 {
        return None;
    }
    let new = (old / 2).max(1);
    Some((WindowSchedule::RoundRobin { depth: new }, old, new))
}

/// What a checkpoint records about its run beyond the training state:
/// the compression policy the parameters were tuned under (so
/// [`restore_run`] rebuilds the model that was adapted, not a dense one)
/// and what a resumed run needs to regenerate its dataset and schedule.
/// Stored in [`TrainingCheckpoint::extra`] as `key=value` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// The compression policy installed on the model.
    pub policy: CompressionPolicy,
    /// Seed the adaptation dataset was sampled from.
    pub data_seed: u64,
    /// Backprop window depth of the tuning schedule.
    pub window: usize,
}

impl RunMeta {
    /// Serializes the metadata for [`TrainingCheckpoint::extra`].
    pub fn encode(&self) -> Vec<u8> {
        let (policy, seed, window) = (self.policy.to_compact_string(), self.data_seed, self.window);
        format!("policy={policy}\ndata_seed={seed}\nwindow={window}\n").into_bytes()
    }

    /// Parses [`RunMeta::encode`]'s output for a model of `n_layers`. An
    /// empty blob is a run that recorded nothing: uncompressed, full
    /// depth. Unknown keys are skipped.
    fn decode(extra: &[u8], n_layers: usize) -> Result<Self, EdgeLlmError> {
        if extra.is_empty() {
            return Ok(RunMeta {
                policy: CompressionPolicy::identity(n_layers),
                data_seed: 0,
                window: n_layers,
            });
        }
        let bad = || {
            EdgeLlmError::Model(ModelError::Checkpoint {
                reason: "run metadata lacks a well-formed policy, data_seed or window".into(),
            })
        };
        let text = std::str::from_utf8(extra).map_err(|_| bad())?;
        let value = |key: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(bad)
        };
        Ok(RunMeta {
            policy: CompressionPolicy::parse_compact(value("policy")?)?,
            data_seed: value("data_seed")?.parse().map_err(|_| bad())?,
            window: value("window")?.parse().map_err(|_| bad())?,
        })
    }
}

/// The one place a checkpoint turns into a model: its parameters in a
/// fresh model with the recorded compression policy re-applied, plus the
/// captured optimizer and RNG and the run metadata.
///
/// Parameters are restored *before* the policy is applied: masked
/// positions are exactly the zero-valued weights, so magnitude pruning
/// re-selects the identical mask, and resumed training and decoding are
/// both bit-identical to the live model's.
///
/// # Errors
///
/// Propagates checkpoint, metadata-parse, and compression errors.
pub fn restore_run(
    ckpt: &TrainingCheckpoint,
) -> Result<(EdgeModel, Sgd, TensorRng, RunMeta), EdgeLlmError> {
    let meta = RunMeta::decode(&ckpt.extra, ckpt.config.n_layers)?;
    let mut model = ckpt.build_model()?;
    apply_policy(&mut model, &meta.policy)?;
    Ok((model, ckpt.optimizer(), ckpt.rng(), meta))
}

/// Per-phase wall-clock totals accumulated over every executed tuning
/// step (including replays after rollback), plus checkpoint-write time.
/// The phase fields come from [`StepPhases`]; `checkpoint_ns` sums the
/// `adapt.checkpoint` spans around the blocks that steps never see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Forward-pass time (embedding through loss), nanoseconds.
    pub forward_ns: u64,
    /// Backward-pass time, nanoseconds.
    pub backward_ns: u64,
    /// Optimizer + mask-enforcement time, nanoseconds.
    pub optimizer_ns: u64,
    /// Whole-step time (>= forward + backward + optimizer), nanoseconds.
    pub step_ns: u64,
    /// Checkpoint capture + serialization + disk-write time, nanoseconds.
    pub checkpoint_ns: u64,
    /// Layer re-quantizations triggered across all steps.
    pub requant_layers: u64,
    /// Compressed-weight cache evictions across all steps.
    pub cache_invalidations: u64,
}

impl PhaseTotals {
    fn absorb(&mut self, p: &StepPhases) {
        self.forward_ns += p.forward_ns;
        self.backward_ns += p.backward_ns;
        self.optimizer_ns += p.optimizer_ns;
        self.step_ns += p.total_ns;
        self.requant_layers += p.requant_layers as u64;
        self.cache_invalidations += p.cache_invalidations;
    }
}

/// What the resilient loop hands back in addition to a trained model.
#[derive(Debug, Clone)]
pub struct AdaptRun {
    /// Loss of the last accepted step (NaN if no step ran).
    pub final_loss: f32,
    /// Peak activation bytes across accepted steps.
    pub peak_activation_bytes: usize,
    /// Steps actually executed (>= iterations when rollbacks replayed).
    pub steps_executed: usize,
    /// Where the time went: per-phase and checkpoint-write totals.
    pub phases: PhaseTotals,
    /// Everything the runtime did to keep the run alive.
    pub journal: RecoveryJournal,
}

impl AdaptRun {
    /// Mean wall-clock per executed step (its `tune.step` span),
    /// milliseconds.
    pub fn mean_step_ms(&self) -> f64 {
        self.phases.step_ns as f64 / 1e6 / self.steps_executed.max(1) as f64
    }
}

/// Runs the adaptation loop from the tuner's current iteration up to
/// `iterations`, with checkpointing, divergence rollback, learning-rate
/// backoff, graceful window degradation, and (in tests) fault injection.
///
/// Each rollback halves the learning rate; from the second rollback on,
/// each also halves the backprop window depth; a divergence after the
/// third rollback fails the run.
///
/// The tuner's iteration cursor selects the starting point, so a caller
/// resuming from a [`TrainingCheckpoint`] (through [`restore_run`]) sets
/// it via [`AdaptiveTuner::set_iteration`] and calls this again; batches
/// are addressed by absolute iteration, making resumed runs bit-identical
/// to uninterrupted ones.
///
/// # Errors
///
/// Returns [`EdgeLlmError::Diverged`] when the rollback budget is
/// exhausted, and propagates model, checkpoint-I/O, and kernel errors.
#[allow(clippy::too_many_arguments)]
pub fn resilient_adapt(
    model: &mut EdgeModel,
    opt: &mut Sgd,
    tuner: &mut AdaptiveTuner,
    rng: &mut TensorRng,
    train: &Dataset,
    batch: usize,
    iterations: usize,
    extra: Vec<u8>,
    res: &ResilienceConfig,
) -> Result<AdaptRun, EdgeLlmError> {
    let mut journal = RecoveryJournal::new();
    let mut guard = DivergenceGuard::new(res.spike_factor);
    let mut plan = FaultPlan::new(&res.faults);
    let mut it = tuner.iterations();
    let mut phases = PhaseTotals::default();
    let mut snapshot = {
        let ckpt = telemetry::timed("adapt.checkpoint");
        let snapshot = TrainingCheckpoint::capture(model, opt, it as u64, rng, extra.clone());
        if let Some(path) = &res.checkpoint_path {
            journal.record(RecoveryEvent::CheckpointWritten {
                iteration: it as u64,
                bytes: snapshot.save_file(path)?,
                path: Some(path.display().to_string()),
            });
        }
        phases.checkpoint_ns += ckpt.end();
        snapshot
    };
    // learning-rate scale accumulated by backoff since the last snapshot
    // (the snapshot's own lr already includes earlier backoffs)
    let mut lr_scale = 1.0f32;
    let mut rollbacks = 0usize;
    let mut steps_executed = 0usize;
    let mut peak_activation = 0usize;
    let mut final_loss = f32::NAN;

    while it < iterations {
        let mut step_fault = None;
        for fault in plan.due(it as u64) {
            journal.record(RecoveryEvent::FaultInjected {
                iteration: it as u64,
                kind: fault.kind.label(),
            });
            step_fault = Some(fault.kind);
        }

        let b = train.batch_at(it * batch, batch);
        let report = {
            let mut fopt = FaultyOptimizer {
                inner: opt,
                pending: step_fault,
            };
            tuner.step(model, &mut fopt, &b.tokens, &b.targets, b.batch)?
        };
        steps_executed += 1;
        phases.absorb(&report.phases);

        if let Some(reason) = guard.observe(report.loss, report.grad_norm) {
            journal.record(RecoveryEvent::DivergenceDetected {
                iteration: it as u64,
                loss: report.loss,
                grad_norm: report.grad_norm,
                reason,
            });
            if rollbacks >= MAX_ROLLBACKS {
                return Err(EdgeLlmError::Diverged {
                    iteration: it as u64,
                    rollbacks,
                    last_loss: report.loss,
                });
            }
            rollbacks += 1;
            lr_scale *= LR_BACKOFF;
            snapshot.restore_params(model)?;
            *opt = snapshot.optimizer();
            let new_lr = opt.lr() * lr_scale;
            opt.set_lr(new_lr);
            *rng = snapshot.rng();
            tuner.set_iteration(snapshot.iteration as usize);
            journal.record(RecoveryEvent::RollbackTaken {
                from_iteration: it as u64,
                to_iteration: snapshot.iteration,
                new_lr,
            });
            it = snapshot.iteration as usize;
            if rollbacks >= DEGRADE_AFTER {
                if let Some((sched, old, new)) =
                    degraded_schedule(tuner.schedule(), model.n_layers())
                {
                    *tuner = AdaptiveTuner::new(sched);
                    tuner.set_iteration(it);
                    journal.record(RecoveryEvent::WindowDegraded {
                        iteration: it as u64,
                        old_depth: old,
                        new_depth: new,
                    });
                }
            }
            guard.reset();
            continue;
        }

        peak_activation = peak_activation.max(report.activation_bytes);
        final_loss = report.loss;
        it += 1;

        if res.checkpoint_every > 0 && it.is_multiple_of(res.checkpoint_every) && it < iterations {
            let ckpt = telemetry::timed("adapt.checkpoint");
            snapshot = TrainingCheckpoint::capture(model, opt, it as u64, rng, extra.clone());
            lr_scale = 1.0;
            // serialized once: to disk when there is a path, otherwise
            // only to count the bytes the journal reports
            let (bytes, path) = match &res.checkpoint_path {
                Some(path) => (snapshot.save_file(path)?, Some(path.display().to_string())),
                None => (snapshot.write_to(&mut std::io::sink())?, None),
            };
            journal.record(RecoveryEvent::CheckpointWritten {
                iteration: it as u64,
                bytes,
                path,
            });
            phases.checkpoint_ns += ckpt.end();
        }
    }

    Ok(AdaptRun {
        final_loss,
        peak_activation_bytes: peak_activation,
        steps_executed,
        phases,
        journal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_trips_on_non_finite() {
        let mut g = DivergenceGuard::new(4.0);
        assert!(g.observe(1.0, 1.0).is_none());
        assert!(g
            .observe(f32::NAN, 1.0)
            .unwrap()
            .contains("non-finite loss"));
        assert!(g
            .observe(1.0, f32::INFINITY)
            .unwrap()
            .contains("gradient norm"));
    }

    #[test]
    fn guard_trips_on_spike_only_after_warmup() {
        let mut g = DivergenceGuard::new(2.0);
        // during warmup even a big jump is absorbed
        assert!(g.observe(1.0, 1.0).is_none());
        assert!(g.observe(100.0, 1.0).is_none());
        let mut g = DivergenceGuard::new(2.0);
        for _ in 0..WARMUP_STEPS {
            assert!(g.observe(1.0, 1.0).is_none());
        }
        assert!(g.observe(1.1, 1.0).is_none(), "mild wobble passes");
        assert!(g.observe(50.0, 1.0).unwrap().contains("EWMA"));
    }

    #[test]
    fn guard_reset_restarts_warmup() {
        let mut g = DivergenceGuard::new(2.0);
        for _ in 0..WARMUP_STEPS {
            assert!(g.observe(1.0, 1.0).is_none());
        }
        assert!(g.observe(9.0, 1.0).is_some());
        g.reset();
        assert!(g.observe(9.0, 1.0).is_none(), "fresh history after reset");
    }

    #[test]
    fn degraded_schedule_halves_to_floor_one() {
        let (s, old, new) = degraded_schedule(&WindowSchedule::FullDepth, 8).unwrap();
        assert_eq!((old, new), (8, 4));
        assert_eq!(s, WindowSchedule::RoundRobin { depth: 4 });
        let (_, old, new) = degraded_schedule(&WindowSchedule::RoundRobin { depth: 3 }, 8).unwrap();
        assert_eq!((old, new), (3, 1));
        assert!(degraded_schedule(&WindowSchedule::RoundRobin { depth: 1 }, 8).is_none());
    }

    #[test]
    fn journal_counts_and_prints() {
        let mut j = RecoveryJournal::new();
        assert!(j.is_empty());
        j.record(RecoveryEvent::RollbackTaken {
            from_iteration: 5,
            to_iteration: 2,
            new_lr: 0.05,
        });
        j.record(RecoveryEvent::FaultInjected {
            iteration: 5,
            kind: "nan-grad".into(),
        });
        assert_eq!(j.rollbacks(), 1);
        assert_eq!(j.len(), 2);
        let text = j.to_string();
        assert!(text.contains("rollback"));
        assert!(text.contains("nan-grad"));
    }

    #[test]
    fn fault_labels_are_distinct() {
        let kinds = [
            FaultKind::FlipGradBit { bit: 30 },
            FaultKind::NanGrad,
            FaultKind::NanParam,
        ];
        let labels: std::collections::HashSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn fault_plan_fires_each_entry_exactly_once() {
        let at = |at_iteration, kind| PlannedFault { at_iteration, kind };
        let mut plan = FaultPlan::new(&[
            at(2, FaultKind::NanGrad),
            at(2, FaultKind::NanParam),
            at(5, FaultKind::FlipGradBit { bit: 30 }),
        ]);
        assert!(plan.due(0).is_empty());
        let at2 = plan.due(2);
        assert_eq!(at2.len(), 2, "both faults at 2 fire, in schedule order");
        assert_eq!(at2[0].kind, FaultKind::NanGrad);
        assert_eq!(at2[1].kind, FaultKind::NanParam);
        // a rollback replaying iteration 2 sees a clean run
        assert!(plan.due(2).is_empty());
        assert_eq!(plan.due(5).len(), 1);
        assert!(plan.due(5).is_empty());
    }
}
