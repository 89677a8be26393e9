//! End-to-end numerical gradient checking.
//!
//! Because every backward pass in this repository is hand-written, the test
//! suite verifies the full model's analytic gradients against central
//! finite differences on a tiny configuration. [`gradient_check`] is public
//! so downstream experiments can re-validate after installing compression.

use crate::adaptive::LayerWindow;
use crate::error::ModelError;
use crate::model::EdgeModel;
use edge_llm_tensor::{cross_entropy_backward, cross_entropy_forward};

/// Result of a gradient check: the worst absolute deviation between
/// analytic and numeric gradients, and how many parameters were probed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest `|analytic - numeric|` observed.
    pub max_abs_err: f32,
    /// Number of scalar parameters probed.
    pub probed: usize,
}

/// Verifies the model's analytic gradients against central differences.
///
/// Probes every `stride`-th trainable scalar in the given window. Uses the
/// cross-entropy loss of the exit at the window end, matching exactly what
/// [`crate::AdaptiveTuner::step`] optimizes.
///
/// # Errors
///
/// Propagates model errors.
pub fn gradient_check(
    model: &mut EdgeModel,
    tokens: &[usize],
    targets: &[usize],
    batch: usize,
    window: LayerWindow,
    stride: usize,
) -> Result<GradCheckReport, ModelError> {
    let exit_layer = window.exit_layer();
    // analytic gradients, from zero in every slice the snapshot reads
    model.visit_params_window(window, exit_layer, &mut |_, _, g| g.fill(0.0));
    let fwd = model.forward_exit(tokens, targets, batch, exit_layer, window.start)?;
    let ce = cross_entropy_forward(&fwd.logits, &fwd.targets)?;
    let dl = cross_entropy_backward(&ce, &fwd.targets)?;
    model.backward_exit(&fwd.caches, &dl)?;
    // snapshot analytic grads
    let mut analytic: Vec<(usize, usize, f32)> = Vec::new();
    model.visit_params_window(window, exit_layer, &mut |id, _, g| {
        for (k, &gv) in g.iter().enumerate().step_by(stride.max(1)) {
            analytic.push((id, k, gv));
        }
    });
    let eps = 1e-3f32;
    let mut max_abs_err = 0.0f32;
    let probed = analytic.len();
    for (id, k, gv) in analytic {
        let loss_at = |model: &mut EdgeModel, delta: f32| -> Result<f32, ModelError> {
            model.visit_params_window(window, exit_layer, &mut |pid, p, _| {
                if pid == id {
                    p[k] += delta;
                }
            });
            let fwd = model.forward_exit(tokens, targets, batch, exit_layer, exit_layer + 1)?;
            let loss = cross_entropy_forward(&fwd.logits, &fwd.targets)?.loss;
            model.visit_params_window(window, exit_layer, &mut |pid, p, _| {
                if pid == id {
                    p[k] -= delta;
                }
            });
            Ok(loss)
        };
        let lp = loss_at(model, eps)?;
        let lm = loss_at(model, -eps)?;
        let numeric = (lp - lm) / (2.0 * eps);
        max_abs_err = max_abs_err.max((numeric - gv).abs());
    }
    Ok(GradCheckReport {
        max_abs_err,
        probed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use edge_llm_tensor::TensorRng;

    fn check(window: LayerWindow, tied: bool) -> GradCheckReport {
        let mut rng = TensorRng::seed_from(7);
        let cfg = ModelConfig::tiny().with_tied_exits(tied);
        let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tokens: Vec<usize> = (0..cfg.seq_len)
            .map(|i| (i * 5 + 1) % cfg.vocab_size)
            .collect();
        let targets: Vec<usize> = (0..cfg.seq_len)
            .map(|i| (i * 3 + 2) % cfg.vocab_size)
            .collect();
        gradient_check(&mut model, &tokens, &targets, 1, window, 97).unwrap()
    }

    #[test]
    fn full_model_gradients_are_correct() {
        let report = check(LayerWindow { start: 0, end: 2 }, true);
        assert!(report.probed > 20);
        assert!(
            report.max_abs_err < 2e-2,
            "max grad err {}",
            report.max_abs_err
        );
    }

    #[test]
    fn truncated_window_gradients_are_correct() {
        let report = check(LayerWindow { start: 1, end: 2 }, true);
        assert!(report.probed > 10);
        assert!(
            report.max_abs_err < 2e-2,
            "max grad err {}",
            report.max_abs_err
        );
    }

    #[test]
    fn early_exit_gradients_are_correct() {
        let report = check(LayerWindow { start: 0, end: 1 }, true);
        assert!(
            report.max_abs_err < 2e-2,
            "max grad err {}",
            report.max_abs_err
        );
    }

    #[test]
    fn untied_exit_gradients_are_correct() {
        let report = check(LayerWindow { start: 0, end: 1 }, false);
        assert!(
            report.max_abs_err < 2e-2,
            "max grad err {}",
            report.max_abs_err
        );
    }
}
