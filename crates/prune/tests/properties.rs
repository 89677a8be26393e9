//! Property-based tests of pruning invariants, driven by the in-repo
//! seeded case harness (`edge_llm_tensor::check`).

use edge_llm_prune::{magnitude_prune, nm_prune};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::{Tensor, TensorRng};

#[test]
fn magnitude_sparsity_is_exact() {
    run_cases("magnitude sparsity exact", 48, |g| {
        let r = g.usize_in(1, 10);
        let c = g.usize_in(1, 10);
        let ratio = g.f32_in(0.0, 1.0);
        let mut rng = TensorRng::seed_from(g.u64());
        let w = Tensor::randn(r, c, 1.0, &mut rng);
        let mask = magnitude_prune(&w, ratio).unwrap();
        let expected = ((ratio as f64) * (r * c) as f64).floor() as usize;
        assert_eq!((r * c) - mask.kept(), expected);
    });
}

#[test]
fn kept_elements_dominate_pruned() {
    run_cases("kept dominate pruned", 48, |g| {
        let ratio = g.f32_in(0.1, 0.9);
        let mut rng = TensorRng::seed_from(g.u64());
        let w = Tensor::randn(8, 8, 1.0, &mut rng);
        let mask = magnitude_prune(&w, ratio).unwrap();
        // the smallest kept magnitude >= the largest pruned magnitude
        let mut min_kept = f32::INFINITY;
        let mut max_pruned = 0.0f32;
        for r in 0..8 {
            for c in 0..8 {
                let v = w.get(r, c).abs();
                if mask.is_kept(r, c) {
                    min_kept = min_kept.min(v);
                } else {
                    max_pruned = max_pruned.max(v);
                }
            }
        }
        assert!(min_kept >= max_pruned);
    });
}

#[test]
fn mask_apply_is_idempotent() {
    run_cases("mask apply idempotent", 48, |g| {
        let ratio = g.f32_in(0.0, 1.0);
        let mut rng = TensorRng::seed_from(g.u64());
        let w = Tensor::randn(6, 6, 1.0, &mut rng);
        let mask = magnitude_prune(&w, ratio).unwrap();
        let once = mask.apply_to(&w).unwrap();
        let twice = mask.apply_to(&once).unwrap();
        assert!(once.approx_eq(&twice, 0.0));
    });
}

#[test]
fn nm_groups_keep_exactly_n() {
    run_cases("n:m groups keep n", 48, |g| {
        let m = 4usize;
        let n = g.usize_in(1, 4).min(m);
        let groups = g.usize_in(1, 6);
        let mut rng = TensorRng::seed_from(g.u64());
        let w = Tensor::randn(3, groups * m, 1.0, &mut rng);
        let mask = nm_prune(&w, n, m).unwrap();
        for r in 0..3 {
            for gi in 0..groups {
                let kept = (gi * m..(gi + 1) * m)
                    .filter(|&c| mask.is_kept(r, c))
                    .count();
                assert_eq!(kept, n);
            }
        }
    });
}

#[test]
fn mask_and_is_intersection() {
    run_cases("mask intersection", 48, |g| {
        let ra = g.f32_in(0.0, 0.9);
        let rb = g.f32_in(0.0, 0.9);
        let mut rng = TensorRng::seed_from(g.u64());
        let w = Tensor::randn(5, 5, 1.0, &mut rng);
        let a = magnitude_prune(&w, ra).unwrap();
        let other = Tensor::randn(5, 5, 1.0, &mut rng);
        let b = magnitude_prune(&other, rb).unwrap();
        let both = a.and(&b).unwrap();
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(both.is_kept(r, c), a.is_kept(r, c) && b.is_kept(r, c));
            }
        }
        assert!(both.sparsity() >= a.sparsity().max(b.sparsity()) - 1e-6);
    });
}
