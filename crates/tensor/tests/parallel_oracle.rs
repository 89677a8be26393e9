//! Oracle harness for the multi-threaded matmul kernels.
//!
//! Every parallel kernel must be **bit-identical** — exact `f32` equality,
//! not approximate — to its serial oracle for every thread count and every
//! shape, including ragged shapes divisible by neither the cache tile nor
//! the worker count. The harness diffs:
//!
//! * `A · B` under explicit worker counts against the scalar dot
//!   ([`scalar_matmul`]),
//! * `Aᵀ · B` and `A · Bᵀ` under explicit worker counts against their
//!   serial (`threads = 1`) runs and the scalar dot on an explicit
//!   transpose.
//!
//! Exact equality holds structurally: each output element accumulates its
//! reduction in ascending index order no matter how output rows are
//! partitioned into panels, so thread count can change wall-clock but
//! never a single bit of the result.

use edge_llm_tensor::check::{run_cases, scalar_matmul, Gen};
use edge_llm_tensor::{matmul_a_bt_with, matmul_at_b_with, Tensor, TensorRng};

/// Worker counts exercised per case: serial, even, odd, and more workers
/// than most of the generated shapes have rows.
const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

/// Shapes guaranteed to clear the parallel work-size cutoff so the panel
/// path really runs multi-threaded; every dimension is ragged against the
/// 32-wide cache tile and against every count in [`THREADS`].
const LARGE: [(usize, usize, usize); 4] = [(41, 53, 47), (64, 64, 64), (97, 33, 37), (33, 41, 65)];

/// A random dimension that stresses the panel math: below one tile,
/// straddling the tile edge, or spanning a couple of tiles.
fn dim(g: &mut Gen) -> usize {
    match g.usize_in(0, 3) {
        0 => g.usize_in(1, 9),
        1 => g.usize_in(30, 37),
        _ => g.usize_in(1, 70),
    }
}

fn operands(g: &mut Gen, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(g.u64());
    (
        Tensor::randn(m, k, 1.0, &mut rng),
        Tensor::randn(k, n, 1.0, &mut rng),
    )
}

#[test]
fn blocked_parallel_matches_naive_oracle_exactly() {
    run_cases("A*B parallel vs naive oracle", 96, |g| {
        let (m, k, n) = (dim(g), dim(g), dim(g));
        let (a, b) = operands(g, m, k, n);
        let oracle = scalar_matmul(&a, &b);
        for t in THREADS {
            let par = a.matmul_with(&b, t).unwrap();
            assert_eq!(
                oracle.as_slice(),
                par.as_slice(),
                "{m}x{k}x{n} with {t} threads"
            );
        }
    });
}

#[test]
fn blocked_parallel_is_exact_above_the_work_cutoff() {
    // The randomized shapes often fall below the serial-fallback cutoff;
    // these do not, so the panel partitioning itself is what is diffed.
    for (i, &(m, k, n)) in LARGE.iter().enumerate() {
        let mut g = Gen::new(0xC0FFEE ^ i as u64);
        let (a, b) = operands(&mut g, m, k, n);
        let oracle = scalar_matmul(&a, &b);
        for t in THREADS {
            let par = a.matmul_with(&b, t).unwrap();
            assert_eq!(
                oracle.as_slice(),
                par.as_slice(),
                "{m}x{k}x{n} with {t} threads"
            );
        }
    }
}

#[test]
fn at_b_parallel_matches_serial_and_transpose_oracle_exactly() {
    run_cases("At*B parallel vs oracle", 96, |g| {
        let (m, k, n) = (dim(g), dim(g), dim(g));
        let mut rng = TensorRng::seed_from(g.u64());
        // A is k x m: matmul_at_b computes the m x n product Aᵀ · B
        let a = Tensor::randn(k, m, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let oracle = scalar_matmul(&a.transpose(), &b);
        let serial = matmul_at_b_with(&a, &b, 1).unwrap();
        assert_eq!(oracle.as_slice(), serial.as_slice(), "{m}x{k}x{n} serial");
        for t in THREADS {
            let par = matmul_at_b_with(&a, &b, t).unwrap();
            assert_eq!(
                serial.as_slice(),
                par.as_slice(),
                "{m}x{k}x{n} with {t} threads"
            );
        }
    });
}

#[test]
fn a_bt_parallel_matches_serial_and_transpose_oracle_exactly() {
    run_cases("A*Bt parallel vs oracle", 96, |g| {
        let (m, k, n) = (dim(g), dim(g), dim(g));
        let mut rng = TensorRng::seed_from(g.u64());
        // B is n x k: matmul_a_bt computes the m x n product A · Bᵀ
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(n, k, 1.0, &mut rng);
        let oracle = scalar_matmul(&a, &b.transpose());
        let serial = matmul_a_bt_with(&a, &b, 1).unwrap();
        assert_eq!(oracle.as_slice(), serial.as_slice(), "{m}x{k}x{n} serial");
        for t in THREADS {
            let par = matmul_a_bt_with(&a, &b, t).unwrap();
            assert_eq!(
                serial.as_slice(),
                par.as_slice(),
                "{m}x{k}x{n} with {t} threads"
            );
        }
    });
}

#[test]
fn transposed_layouts_are_exact_above_the_work_cutoff() {
    for (i, &(m, k, n)) in LARGE.iter().enumerate() {
        let mut rng = TensorRng::seed_from(0xBEEF ^ i as u64);
        let at = Tensor::randn(k, m, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let serial = matmul_at_b_with(&at, &b, 1).unwrap();
        for t in THREADS {
            let par = matmul_at_b_with(&at, &b, t).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "At*B {m}x{k}x{n}/{t}");
        }
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let bt = Tensor::randn(n, k, 1.0, &mut rng);
        let serial = matmul_a_bt_with(&a, &bt, 1).unwrap();
        for t in THREADS {
            let par = matmul_a_bt_with(&a, &bt, t).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "A*Bt {m}x{k}x{n}/{t}");
        }
    }
}
