//! Adaptive layer tuning: Edge-LLM's memory-saving training scheme.
//!
//! Instead of backpropagating through the full depth every iteration, the
//! tuner picks a **window** of consecutive layers per step, runs the forward
//! pass only up to the window's exit head, and backpropagates only inside
//! the window. Over many iterations the windows sweep the whole model, so
//! every layer (and every exit head) still gets trained — but peak
//! activation memory scales with the window size, not the depth.

use crate::error::ModelError;
use crate::model::EdgeModel;
use crate::optim::Optimizer;
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{configured_threads, cross_entropy_backward, cross_entropy_forward};

/// A half-open range of layers `[start, end)` trained in one iteration.
/// The exit head used is the one at layer `end - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerWindow {
    /// First trained layer.
    pub start: usize,
    /// One past the last trained layer (also the exit position).
    pub end: usize,
}

impl LayerWindow {
    /// Whether layer `l` lies inside the window.
    pub fn contains(&self, l: usize) -> bool {
        (self.start..self.end).contains(&l)
    }

    /// Number of layers in the window (the backprop depth).
    pub fn depth(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// The exit layer index used with this window.
    pub fn exit_layer(&self) -> usize {
        self.end.saturating_sub(1)
    }
}

/// How the tuner chooses the window for each iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowSchedule {
    /// The vanilla-tuning baseline: every layer, every iteration.
    FullDepth,
    /// Slide a window of `depth` layers across the model, advancing by
    /// `depth` each iteration and wrapping around (the paper's default).
    RoundRobin {
        /// Backprop depth per iteration.
        depth: usize,
    },
    /// Visit windows in a caller-supplied order (e.g. sensitivity-sorted),
    /// cycling through the list.
    Ordered(Vec<LayerWindow>),
}

impl WindowSchedule {
    /// The schedule for a backprop depth on a model of `n_layers`:
    /// [`WindowSchedule::FullDepth`] once the depth covers the model, a
    /// round-robin sweep otherwise. A depth of 0 is clamped to 1.
    pub fn for_depth(depth: usize, n_layers: usize) -> Self {
        if depth >= n_layers {
            WindowSchedule::FullDepth
        } else {
            WindowSchedule::RoundRobin {
                depth: depth.max(1),
            }
        }
    }

    /// The window for iteration `iter` on a model of `n_layers`.
    ///
    /// # Panics
    ///
    /// Panics if an [`WindowSchedule::Ordered`] schedule is empty or a
    /// `RoundRobin` depth is zero.
    pub fn window_for(&self, iter: usize, n_layers: usize) -> LayerWindow {
        match self {
            WindowSchedule::FullDepth => LayerWindow {
                start: 0,
                end: n_layers,
            },
            WindowSchedule::RoundRobin { depth } => {
                assert!(*depth > 0, "round-robin depth must be positive");
                let depth = (*depth).min(n_layers);
                let n_positions = n_layers.div_ceil(depth);
                let pos = iter % n_positions;
                let start = (pos * depth).min(n_layers - depth);
                LayerWindow {
                    start,
                    end: start + depth,
                }
            }
            WindowSchedule::Ordered(windows) => {
                assert!(!windows.is_empty(), "ordered schedule must be non-empty");
                windows[iter % windows.len()]
            }
        }
    }
}

/// Per-phase breakdown of one adaptation step. Each wall-clock field is its
/// `tune.*` span's duration ([`telemetry::timed`]) and **observational
/// only** — it varies run to run while every computed value stays
/// bit-identical. The re-quantization/invalidation tallies are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepPhases {
    /// Forward pass to the window's exit plus the loss forward.
    pub forward_ns: u64,
    /// Loss backward plus the truncated backward pass.
    pub backward_ns: u64,
    /// Gradient-norm sweep and optimizer update (which re-masks the pruned
    /// weights it writes).
    pub optimizer_ns: u64,
    /// The whole step (phases plus scheduling overhead); the phases'
    /// share of it is gated at >= 95% by `experiments/telemetry.jsonl`.
    pub total_ns: u64,
    /// Layers whose projections re-quantized during the step. A block
    /// re-quantizes once per training visit, on the first forward that
    /// covers it after its update: 1 per step for a depth-1 window at the
    /// top, `[0, 4, 5]` over a depth-3 round-robin cycle of eight blocks
    /// (`tests/requant_window.rs` pins both). Any invalidation of a frozen
    /// block shows up here as a larger count.
    pub requant_layers: usize,
    /// Weight-cache evictions during the step, over every projection.
    pub cache_invalidations: u64,
}

/// Per-step report returned by [`AdaptiveTuner::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct TuneStepReport {
    /// Mean cross-entropy loss at the window's exit head.
    pub loss: f32,
    /// The window trained this step.
    pub window: LayerWindow,
    /// Activation bytes held during the backward pass (the F2 metric).
    pub activation_bytes: usize,
    /// Layers executed in the forward pass (exit layer + 1).
    pub forward_layers: usize,
    /// L2 norm of the gradient over the window's parameters, measured
    /// before the optimizer step (divergence guards key off this).
    pub grad_norm: f32,
    /// Kernel worker threads configured while the step ran (wall-clock
    /// context only — results are bit-identical for every value).
    pub threads: usize,
    /// Where the step's time went and how much re-quantization it did.
    pub phases: StepPhases,
}

/// Drives adaptive layer tuning of an [`EdgeModel`].
///
/// # Example
///
/// ```
/// use edge_llm_model::{AdaptiveTuner, EdgeModel, ModelConfig, Sgd, WindowSchedule};
/// use edge_llm_tensor::TensorRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = TensorRng::seed_from(0);
/// let cfg = ModelConfig::tiny();
/// let mut model = EdgeModel::new(cfg.clone(), &mut rng)?;
/// let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
/// let mut opt = Sgd::new(0.05);
/// let tokens = vec![3usize; cfg.seq_len];
/// let report = tuner.step(&mut model, &mut opt, &tokens, &tokens, 1)?;
/// assert!(report.loss.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveTuner {
    schedule: WindowSchedule,
    iter: usize,
}

impl AdaptiveTuner {
    /// Creates a tuner with the given window schedule.
    pub fn new(schedule: WindowSchedule) -> Self {
        AdaptiveTuner { schedule, iter: 0 }
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Repositions the schedule cursor (checkpoint resume and rollback):
    /// the next [`AdaptiveTuner::step`] behaves as iteration `iter`.
    pub fn set_iteration(&mut self, iter: usize) {
        self.iter = iter;
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &WindowSchedule {
        &self.schedule
    }

    /// Runs one adaptation iteration: pick the window, forward to its exit,
    /// compute the loss, truncated backward, and an optimizer step on the
    /// window's parameters (which re-masks the pruned weights it writes).
    ///
    /// `tokens` and `targets` are `batch * seq_len` long; targets may use
    /// [`edge_llm_tensor::IGNORE_TARGET`] for prompt positions.
    ///
    /// # Errors
    ///
    /// Propagates model and kernel errors.
    pub fn step(
        &mut self,
        model: &mut EdgeModel,
        opt: &mut dyn Optimizer,
        tokens: &[usize],
        targets: &[usize],
        batch: usize,
    ) -> Result<TuneStepReport, ModelError> {
        let step = telemetry::timed("tune.step");
        let requants_before = model.block_requant_counts();
        let cache_before = model.weight_cache_stats();
        let window = self.schedule.window_for(self.iter, model.n_layers());
        self.iter += 1;
        let exit_layer = window.exit_layer();

        let phase = telemetry::timed("tune.forward");
        let fwd = model.forward_exit(tokens, batch, exit_layer, window.start)?;
        let ce = cross_entropy_forward(&fwd.logits, targets)?;
        let forward_ns = phase.end();

        let phase = telemetry::timed("tune.backward");
        let dlogits = cross_entropy_backward(&ce, targets)?;
        let activation_bytes = fwd.caches.activation_bytes();
        model.backward_exit(&fwd.caches, &dlogits)?;
        let backward_ns = phase.end();

        let phase = telemetry::timed("tune.optimizer");
        // One pass: each slice's gradient is summed before its own update
        // consumes it. `Linear::visit_params` re-masks each weight after
        // the update writes it; frozen layers are not visited, so their
        // caches stay.
        let mut grad_sq = 0f64;
        model.visit_params_window(window, exit_layer, &mut |id, p, g| {
            grad_sq += g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
            opt.update(id, p, g);
        });
        let optimizer_ns = phase.end();

        let requants_after = model.block_requant_counts();
        let cache_after = model.weight_cache_stats();
        let requant_layers = requants_before
            .iter()
            .zip(&requants_after)
            .filter(|(b, a)| a > b)
            .count();
        let cache_invalidations = cache_after.invalidations - cache_before.invalidations;
        telemetry::counter("tune.requant_layers", requant_layers as u64);
        telemetry::counter("tune.cache_invalidations", cache_invalidations);
        let total_ns = step.end();

        Ok(TuneStepReport {
            loss: ce.loss,
            window,
            activation_bytes,
            forward_layers: exit_layer + 1,
            grad_norm: grad_sq.sqrt() as f32,
            threads: configured_threads(),
            phases: StepPhases {
                forward_ns,
                backward_ns,
                optimizer_ns,
                total_ns,
                requant_layers,
                cache_invalidations,
            },
        })
    }

    /// Evaluates the mean loss of the final exit on a batch without
    /// touching gradients (used between tuning epochs).
    ///
    /// # Errors
    ///
    /// Propagates model and kernel errors.
    pub fn eval_loss(
        &self,
        model: &EdgeModel,
        tokens: &[usize],
        targets: &[usize],
        batch: usize,
    ) -> Result<f32, ModelError> {
        let logits = model.logits(tokens, batch)?;
        Ok(cross_entropy_forward(&logits, targets)?.loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::optim::Sgd;
    use edge_llm_tensor::TensorRng;

    fn setup(depth: usize) -> (EdgeModel, Vec<usize>) {
        let mut rng = TensorRng::seed_from(42);
        let cfg = ModelConfig::tiny().with_layers(depth);
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| (i * 3) % cfg.vocab_size).collect();
        (model, tokens)
    }

    #[test]
    fn round_robin_sweeps_all_layers() {
        let sched = WindowSchedule::RoundRobin { depth: 2 };
        assert_eq!(WindowSchedule::for_depth(2, 8), sched);
        assert_eq!(
            WindowSchedule::for_depth(0, 8),
            WindowSchedule::RoundRobin { depth: 1 }
        );
        let mut covered = std::collections::HashSet::new();
        for i in 0..4 {
            let w = sched.window_for(i, 8);
            assert_eq!(w.depth(), 2);
            for l in w.start..w.end {
                covered.insert(l);
            }
        }
        assert_eq!(covered.len(), 8);
    }

    #[test]
    fn round_robin_handles_non_dividing_depth() {
        let sched = WindowSchedule::RoundRobin { depth: 3 };
        for i in 0..10 {
            let w = sched.window_for(i, 8);
            assert_eq!(w.depth(), 3);
            assert!(w.end <= 8);
        }
    }

    #[test]
    fn full_depth_is_whole_model() {
        let w = WindowSchedule::FullDepth.window_for(5, 6);
        assert_eq!(w, LayerWindow { start: 0, end: 6 });
        assert_eq!(WindowSchedule::for_depth(6, 6), WindowSchedule::FullDepth);
        assert_eq!(WindowSchedule::for_depth(9, 6), WindowSchedule::FullDepth);
    }

    #[test]
    fn ordered_cycles() {
        let a = LayerWindow { start: 0, end: 1 };
        let b = LayerWindow { start: 1, end: 2 };
        let sched = WindowSchedule::Ordered(vec![a, b]);
        assert_eq!(sched.window_for(0, 2), a);
        assert_eq!(sched.window_for(1, 2), b);
        assert_eq!(sched.window_for(2, 2), a);
    }

    #[test]
    fn step_reduces_loss_over_iterations() {
        let (mut model, tokens) = setup(2);
        let mut tuner = AdaptiveTuner::new(WindowSchedule::FullDepth);
        let mut opt = Sgd::new(0.1);
        let first = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap()
            .loss;
        let mut last = first;
        for _ in 0..30 {
            last = tuner
                .step(&mut model, &mut opt, &tokens, &tokens, 1)
                .unwrap()
                .loss;
        }
        assert!(last < first * 0.8, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn windowed_step_reduces_loss_too() {
        let (mut model, tokens) = setup(2);
        let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
        let mut opt = Sgd::new(0.1);
        let first = tuner.eval_loss(&model, &tokens, &tokens, 1).unwrap();
        for _ in 0..40 {
            tuner
                .step(&mut model, &mut opt, &tokens, &tokens, 1)
                .unwrap();
        }
        let last = tuner.eval_loss(&model, &tokens, &tokens, 1).unwrap();
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn window_memory_is_smaller_than_full() {
        let (mut model, tokens) = setup(4);
        let mut opt = Sgd::new(0.0);
        let mut full = AdaptiveTuner::new(WindowSchedule::FullDepth);
        let full_mem = full
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap()
            .activation_bytes;
        let mut windowed = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
        let win_mem = windowed
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap()
            .activation_bytes;
        assert!(
            win_mem * 2 < full_mem,
            "1-layer window ({win_mem} B) should use far less than full depth ({full_mem} B)"
        );
    }

    #[test]
    fn grad_norm_is_positive_and_matches_optimizer_view() {
        let (mut model, tokens) = setup(2);
        let mut tuner = AdaptiveTuner::new(WindowSchedule::FullDepth);
        // lr 0 keeps params fixed so the gradient is a pure function of the
        // batch — two identical steps must report the same norm.
        let mut opt = Sgd::new(0.0);
        let r0 = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        let r1 = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        assert!(r0.grad_norm > 0.0);
        assert!(r0.grad_norm.is_finite());
        assert_eq!(r0.grad_norm, r1.grad_norm);
    }

    #[test]
    fn set_iteration_repositions_schedule() {
        let (mut model, tokens) = setup(4);
        let mut opt = Sgd::new(0.0);
        let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
        tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        tuner.set_iteration(0);
        let r = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        assert_eq!(r.window, LayerWindow { start: 0, end: 1 });
        assert_eq!(tuner.iterations(), 1);
    }

    #[test]
    fn forward_layers_tracks_exit() {
        let (mut model, tokens) = setup(4);
        let mut opt = Sgd::new(0.0);
        let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
        let r0 = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        assert_eq!(r0.window, LayerWindow { start: 0, end: 1 });
        assert_eq!(r0.forward_layers, 1);
        let r1 = tuner
            .step(&mut model, &mut opt, &tokens, &tokens, 1)
            .unwrap();
        assert_eq!(r1.forward_layers, 2);
    }
}
