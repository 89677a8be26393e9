//! Property-based tests of the tensor kernels' algebraic invariants,
//! driven by the in-repo seeded case harness (`edge_llm_tensor::check`).

use edge_llm_tensor::check::{run_cases, scalar_matmul, Gen};
use edge_llm_tensor::{
    add_bias_backward, cross_entropy_forward, layernorm_forward, matmul_a_bt, matmul_at_b,
    softmax_rows, Tensor, TensorRng,
};

fn random_tensor(g: &mut Gen, max_dim: usize) -> Tensor {
    let r = g.usize_in(1, max_dim + 1);
    let c = g.usize_in(1, max_dim + 1);
    let mut rng = TensorRng::seed_from(g.u64());
    Tensor::randn(r, c, 1.0, &mut rng)
}

#[test]
fn transpose_is_involution() {
    run_cases("transpose involution", 64, |g| {
        let t = random_tensor(g, 12);
        assert!(t.transpose().transpose().approx_eq(&t, 0.0));
    });
}

#[test]
fn add_then_sub_is_identity() {
    run_cases("add then sub", 64, |g| {
        let r = g.usize_in(1, 8);
        let c = g.usize_in(1, 8);
        let mut rng = TensorRng::seed_from(g.u64());
        let a = Tensor::randn(r, c, 1.0, &mut rng);
        let b = Tensor::randn(r, c, 1.0, &mut rng);
        let roundtrip = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(roundtrip.approx_eq(&a, 1e-5));
    });
}

#[test]
fn blocked_matmul_matches_naive() {
    run_cases("blocked vs naive matmul", 64, |g| {
        let (m, k, n) = (g.usize_in(1, 20), g.usize_in(1, 20), g.usize_in(1, 20));
        let mut rng = TensorRng::seed_from(g.u64());
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let x = scalar_matmul(&a, &b);
        let y = a.matmul_with(&b, 1).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&y), "{m}x{k}x{n}");
    });
}

#[test]
fn matmul_distributes_over_addition() {
    run_cases("matmul distributivity", 64, |g| {
        let (m, k, n) = (g.usize_in(1, 6), g.usize_in(1, 6), g.usize_in(1, 6));
        let mut rng = TensorRng::seed_from(g.u64());
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let c = Tensor::randn(k, n, 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3));
    });
}

#[test]
fn transposed_kernels_agree_with_explicit_transpose() {
    run_cases("transposed kernels", 64, |g| {
        let (m, k, n) = (g.usize_in(1, 8), g.usize_in(1, 8), g.usize_in(1, 8));
        let mut rng = TensorRng::seed_from(g.u64());
        let a = Tensor::randn(k, m, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let fast = matmul_at_b(&a, &b).unwrap();
        assert_eq!(bits(&scalar_matmul(&a.transpose(), &b)), bits(&fast));
        let c = Tensor::randn(m, k, 1.0, &mut rng);
        let d = Tensor::randn(n, k, 1.0, &mut rng);
        let fast2 = matmul_a_bt(&c, &d).unwrap();
        // A·Bᵀ adds in the same ascending-p order as the blocked A·B, so
        // this one is an identity, not a tolerance
        let slow2 = c.matmul_with(&d.transpose(), 1).unwrap();
        assert_eq!(bits(&fast2), bits(&slow2));
    });
}

#[test]
fn softmax_rows_are_distributions() {
    run_cases("softmax distributions", 64, |g| {
        let t = random_tensor(g, 10);
        let y = softmax_rows(&t);
        for r in 0..y.rows() {
            let sum: f32 = y.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(y.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    });
}

#[test]
fn softmax_preserves_argmax() {
    run_cases("softmax argmax", 64, |g| {
        let t = random_tensor(g, 10);
        let y = softmax_rows(&t);
        for r in 0..t.rows() {
            let argmax = |row: &[f32]| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            };
            assert_eq!(argmax(t.row(r)), argmax(y.row(r)));
        }
    });
}

#[test]
fn layernorm_rows_have_zero_mean() {
    run_cases("layernorm zero mean", 64, |g| {
        let r = g.usize_in(1, 6);
        let c = g.usize_in(2, 32);
        let mut rng = TensorRng::seed_from(g.u64());
        let x = Tensor::randn(r, c, 3.0, &mut rng);
        let gamma = vec![1.0; c];
        let beta = vec![0.0; c];
        let (y, _) = layernorm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        for row in 0..r {
            let mean: f32 = y.row(row).iter().sum::<f32>() / c as f32;
            assert!(mean.abs() < 1e-3, "row {row} mean {mean}");
        }
    });
}

#[test]
fn cross_entropy_is_nonnegative() {
    run_cases("cross entropy nonnegative", 64, |g| {
        let rows = g.usize_in(1, 6);
        let cols = g.usize_in(2, 16);
        let mut rng = TensorRng::seed_from(g.u64());
        let logits = Tensor::randn(rows, cols, 2.0, &mut rng);
        let targets: Vec<usize> = (0..rows).map(|i| i % cols).collect();
        let out = cross_entropy_forward(&logits, &targets).unwrap();
        assert!(out.loss >= 0.0);
        assert!(out.loss.is_finite());
    });
}

#[test]
fn bias_backward_is_column_sum() {
    run_cases("bias backward column sum", 64, |g| {
        let r = g.usize_in(1, 6);
        let c = g.usize_in(1, 6);
        let mut rng = TensorRng::seed_from(g.u64());
        let dy = Tensor::randn(r, c, 1.0, &mut rng);
        let db = add_bias_backward(&dy);
        for (col, &dbv) in db.iter().enumerate().take(c) {
            let expect: f32 = (0..r).map(|row| dy.get(row, col)).sum();
            assert!((dbv - expect).abs() < 1e-4);
        }
    });
}

#[test]
fn scale_is_linear() {
    run_cases("scale linearity", 64, |g| {
        let t = random_tensor(g, 8);
        let alpha = g.f32_in(-4.0, 4.0);
        let direct = t.scale(alpha);
        let via_add = if alpha >= 0.0 {
            t.scale(alpha / 2.0).add(&t.scale(alpha / 2.0)).unwrap()
        } else {
            t.scale(alpha + 1.0).sub(&t).unwrap()
        };
        assert!(direct.approx_eq(&via_add, 1e-3));
    });
}
