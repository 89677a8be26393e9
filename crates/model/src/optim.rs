use std::collections::HashMap;

/// A parameter-slice optimizer driven by the model's id-keyed visitor.
///
/// The model calls [`Optimizer::update`] once per trainable parameter slice,
/// passing a stable `id` so stateful optimizers can keep per-parameter
/// moments even though adaptive layer tuning trains a different subset of
/// parameters each iteration.
pub trait Optimizer {
    /// Applies one update to `param` given `grad`, then zeroes `grad`.
    fn update(&mut self, id: usize, param: &mut [f32], grad: &mut [f32]);
}

fn clip_slice(grad: &mut [f32], max_norm: f32) {
    if max_norm <= 0.0 || max_norm.is_nan() {
        return;
    }
    let norm = grad
        .iter()
        .map(|g| (*g as f64) * (*g as f64))
        .sum::<f64>()
        .sqrt() as f32;
    if norm > max_norm {
        let scale = max_norm / norm;
        grad.iter_mut().for_each(|g| *g *= scale);
    }
}

/// Stochastic gradient descent with optional momentum and per-slice
/// gradient clipping.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    clip: f32,
    velocity: HashMap<usize, Vec<f32>>,
}

impl Sgd {
    /// Plain SGD at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            clip: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            clip: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// Enables per-parameter-tensor gradient-norm clipping.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.clip = max_norm;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Per-slice gradient-norm clip (0 disables).
    pub fn clip(&self) -> f32 {
        self.clip
    }

    /// Snapshots hyperparameters and per-slice velocity, id-sorted so the
    /// result is deterministic and checkpoints are byte-stable.
    pub fn export_state(&self) -> SgdState {
        let mut velocity: Vec<(usize, Vec<f32>)> = self
            .velocity
            .iter()
            .map(|(id, v)| (*id, v.clone()))
            .collect();
        velocity.sort_by_key(|(id, _)| *id);
        SgdState {
            lr: self.lr,
            momentum: self.momentum,
            clip: self.clip,
            velocity,
        }
    }

    /// Rebuilds an optimizer from a snapshot taken by [`Sgd::export_state`].
    pub fn from_state(state: &SgdState) -> Self {
        Sgd {
            lr: state.lr,
            momentum: state.momentum,
            clip: state.clip,
            velocity: state.velocity.iter().cloned().collect(),
        }
    }
}

/// A serializable snapshot of an [`Sgd`] optimizer: hyperparameters plus
/// the per-slice momentum buffers, keyed by the model's stable slice ids.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdState {
    /// Learning rate at capture time (resume must honor backoff).
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Per-slice gradient-norm clip (0 disables).
    pub clip: f32,
    /// `(slice id, velocity)` pairs, ascending by id.
    pub velocity: Vec<(usize, Vec<f32>)>,
}

impl Optimizer for Sgd {
    fn update(&mut self, id: usize, param: &mut [f32], grad: &mut [f32]) {
        clip_slice(grad, self.clip);
        if self.momentum == 0.0 {
            for (p, g) in param.iter_mut().zip(grad.iter_mut()) {
                *p -= self.lr * *g;
                *g = 0.0;
            }
            return;
        }
        let v = self
            .velocity
            .entry(id)
            .or_insert_with(|| vec![0.0; param.len()]);
        for ((p, g), vi) in param.iter_mut().zip(grad.iter_mut()).zip(v.iter_mut()) {
            *vi = self.momentum * *vi + *g;
            *p -= self.lr * *vi;
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descend<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        // minimize f(p) = 0.5 * p^2, grad = p
        let mut p = vec![4.0f32];
        for _ in 0..steps {
            let mut g = vec![p[0]];
            opt.update(0, &mut p, &mut g);
            assert_eq!(g[0], 0.0, "grad must be zeroed after update");
        }
        p[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let final_p = quadratic_descend(&mut Sgd::new(0.1), 100);
        assert!(final_p.abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates() {
        let plain = quadratic_descend(&mut Sgd::new(0.01), 50).abs();
        let fast = quadratic_descend(&mut Sgd::with_momentum(0.01, 0.9), 50).abs();
        assert!(fast < plain);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut sgd = Sgd::new(1.0).with_clip(1.0);
        let mut p = vec![0.0f32, 0.0];
        let mut g = vec![30.0f32, 40.0]; // norm 50 -> clipped to 1
        sgd.update(0, &mut p, &mut g);
        let moved = (p[0] * p[0] + p[1] * p[1]).sqrt();
        assert!((moved - 1.0).abs() < 1e-4, "moved {moved}");
        // direction preserved
        assert!((p[0] / p[1] - 30.0 / 40.0).abs() < 1e-4);
    }

    #[test]
    fn clipping_leaves_small_gradients_alone() {
        let mut clipped = Sgd::new(0.1).with_clip(10.0);
        let mut plain = Sgd::new(0.1);
        let mut p1 = vec![1.0f32];
        let mut p2 = vec![1.0f32];
        let mut g1 = vec![0.5f32];
        let mut g2 = vec![0.5f32];
        clipped.update(0, &mut p1, &mut g1);
        plain.update(0, &mut p2, &mut g2);
        assert_eq!(p1[0], p2[0]);
    }

    #[test]
    fn sgd_state_roundtrip_resumes_identically() {
        let mut a = Sgd::with_momentum(0.05, 0.9).with_clip(2.0);
        let mut p = vec![1.0f32, -2.0];
        for _ in 0..5 {
            let mut g = vec![p[0], p[1]];
            a.update(7, &mut p, &mut g);
        }
        let mut b = Sgd::from_state(&a.export_state());
        assert_eq!(a.export_state(), b.export_state());
        let mut pa = p.clone();
        let mut pb = p;
        let mut ga = vec![0.3f32, -0.7];
        let mut gb = ga.clone();
        a.update(7, &mut pa, &mut ga);
        b.update(7, &mut pb, &mut gb);
        assert_eq!(pa, pb, "restored optimizer must step bit-identically");
    }

    #[test]
    fn sgd_state_is_id_sorted() {
        let mut opt = Sgd::with_momentum(0.1, 0.5);
        for id in [9usize, 2, 5] {
            let mut p = vec![1.0f32];
            let mut g = vec![1.0f32];
            opt.update(id, &mut p, &mut g);
        }
        let ids: Vec<usize> = opt
            .export_state()
            .velocity
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut sgd = Sgd::new(1.0);
        sgd.set_lr(0.0);
        let mut p = vec![2.0f32];
        let mut g = vec![1.0f32];
        sgd.update(0, &mut p, &mut g);
        assert_eq!(p[0], 2.0);
        assert_eq!(sgd.lr(), 0.0);
    }
}
