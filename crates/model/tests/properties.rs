//! Property-based tests of model-level invariants: window schedules,
//! voting distributions, and optimizer behavior — driven by the in-repo
//! seeded case harness (`edge_llm_tensor::check`).

use edge_llm_model::{
    combine, sample_token, Decoding, Optimizer, Sgd, VotingCombiner, WindowSchedule,
};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::{argmax, Tensor, TensorRng};

#[test]
fn argmax_greedy_and_top_1_pick_one_token_on_ties_infinities_and_nan() {
    // Each pick is the first index of the largest number; a NaN ranks
    // below every number, so it wins only a row of NaNs (index 0).
    let first_max = |row: &[f32]| {
        let numbers = row.iter().filter(|v| !v.is_nan());
        let max = numbers.fold(None, |m: Option<f32>, &v| Some(m.map_or(v, |m| m.max(v))));
        max.and_then(|m| row.iter().position(|&v| v == m))
            .unwrap_or(0)
    };
    let pick = |row: &[f32], temperature: f32| {
        let mut rng = TensorRng::seed_from(0);
        let greedy = sample_token(row, Decoding::Greedy, &mut rng);
        let top_1 = sample_token(row, Decoding::TopK { k: 1, temperature }, &mut rng);
        (argmax(row), greedy, top_1)
    };
    assert_eq!(pick(&[0.1, f32::NAN, 0.5], 1.0), (2, 2, 2));
    let values = [0.0, 0.25, 0.5, 1.0, f32::INFINITY, f32::NEG_INFINITY];
    run_cases("one pick", 256, |g| {
        let len = g.usize_in(1, 9);
        let mut row: Vec<f32> = (0..len).map(|_| *g.choose(&values)).collect();
        if g.bool() {
            row[g.usize_in(0, len)] = f32::NAN;
        }
        let want = first_max(&row);
        assert_eq!(
            pick(&row, g.f32_in(0.1, 4.0)),
            (want, want, want),
            "{row:?}"
        );
    });
}

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
