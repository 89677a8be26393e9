//! Property-based tests of model-level invariants: window schedules,
//! voting distributions, and optimizer behavior — driven by the in-repo
//! seeded case harness (`edge_llm_tensor::check`).

use edge_llm_model::{combine, Optimizer, Sgd, VotingCombiner, WindowSchedule};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::{Tensor, TensorRng};

#[test]
fn round_robin_windows_cover_and_stay_in_bounds() {
    run_cases("round robin coverage", 48, |g| {
        let n_layers = g.usize_in(1, 16);
        let depth = g.usize_in(1, 8);
        let iters = g.usize_in(1, 64);
        let sched = WindowSchedule::RoundRobin { depth };
        let mut covered = std::collections::HashSet::new();
        for i in 0..iters.max(n_layers.div_ceil(depth.min(n_layers))) {
            let w = sched.window_for(i, n_layers).unwrap();
            assert!(w.start < w.end);
            assert!(w.end <= n_layers);
            assert_eq!(w.depth(), depth.min(n_layers));
            for l in w.start..w.end {
                covered.insert(l);
            }
        }
        // after a full cycle, every layer has been visited
        assert_eq!(covered.len(), n_layers);
    });
}

#[test]
fn voting_outputs_are_distributions() {
    run_cases("voting distributions", 48, |g| {
        let n_exits = g.usize_in(1, 5);
        let rows = g.usize_in(1, 4);
        let cols = g.usize_in(2, 10);
        let mut rng = TensorRng::seed_from(g.u64());
        let logits: Vec<Tensor> = (0..n_exits)
            .map(|_| Tensor::randn(rows, cols, 2.0, &mut rng))
            .collect();
        for combiner in [
            VotingCombiner::LastExit,
            VotingCombiner::Average,
            VotingCombiner::ConfidenceWeighted { temperature: 0.7 },
        ] {
            let out = combine(&logits, &combiner).unwrap();
            assert_eq!(out.shape(), (rows, cols));
            for r in 0..rows {
                let sum: f32 = out.row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-3, "row sums to {sum}");
                assert!(out.row(r).iter().all(|&p| p >= -1e-6));
            }
        }
    });
}

#[test]
fn single_exit_voting_equals_last_exit() {
    run_cases("single-exit voting", 48, |g| {
        let rows = g.usize_in(1, 4);
        let cols = g.usize_in(2, 8);
        let mut rng = TensorRng::seed_from(g.u64());
        let logits = vec![Tensor::randn(rows, cols, 1.0, &mut rng)];
        let avg = combine(&logits, &VotingCombiner::Average).unwrap();
        let last = combine(&logits, &VotingCombiner::LastExit).unwrap();
        let conf = combine(
            &logits,
            &VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
        )
        .unwrap();
        assert!(avg.approx_eq(&last, 1e-5));
        assert!(conf.approx_eq(&last, 1e-4));
    });
}

#[test]
fn sgd_descends_any_convex_quadratic() {
    run_cases("sgd descends", 48, |g| {
        // f(x) = a/2 x^2; lr < 1/a guarantees contraction
        let a = g.f32_in(0.5, 4.0);
        let x0 = g.f32_in(-5.0, 5.0);
        let lr = 0.5 / a;
        let mut opt = Sgd::new(lr);
        let mut p = vec![x0];
        for _ in 0..50 {
            let mut grad = vec![a * p[0]];
            opt.update(0, &mut p, &mut grad);
        }
        assert!(p[0].abs() <= x0.abs() + 1e-6);
        assert!(p[0].abs() < 0.2 * x0.abs().max(0.1));
    });
}

#[test]
fn optimizers_zero_gradients() {
    run_cases("optimizers zero grads", 48, |g| {
        let len = g.usize_in(1, 32);
        let mut rng = TensorRng::seed_from(g.u64());
        let mut p: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
        let mut grad: Vec<f32> = (0..len).map(|_| rng.normal()).collect();
        let mut sgd = Sgd::with_momentum(0.01, 0.9);
        sgd.update(3, &mut p, &mut grad);
        assert!(grad.iter().all(|&x| x == 0.0));
    });
}
