//! A minimal in-repo property-check harness.
//!
//! The workspace must build and test with no network access, so the
//! property tests that previously used an external framework run on this
//! helper instead: seeded case generation plus a shrink-free assertion
//! loop. Each case gets a deterministic seed derived from the case index;
//! a failure reports the property label, case number, and seed so the
//! exact case can be replayed by running the test again (generation is
//! fully deterministic run-to-run).
//!
//! # Example
//!
//! ```
//! use edge_llm_tensor::check::run_cases;
//!
//! run_cases("addition commutes", 32, |g| {
//!     let a = g.f32_in(-10.0, 10.0);
//!     let b = g.f32_in(-10.0, 10.0);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::TensorRng;
use crate::tensor::Tensor;

/// Per-case value source handed to the property closure.
pub struct Gen {
    rng: TensorRng,
}

impl Gen {
    /// A generator seeded for one case.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: TensorRng::seed_from(seed),
        }
    }

    /// A uniformly random 64-bit value (e.g. to seed a nested generator).
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in bounds must satisfy lo < hi");
        lo + self.rng.index(hi - lo)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.uniform(lo, hi)
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.rng.index(options.len())]
    }

    /// Direct access to the underlying generator for richer draws.
    pub fn rng(&mut self) -> &mut TensorRng {
        &mut self.rng
    }
}

/// Runs `f` against `cases` deterministically seeded inputs, panicking
/// with the property label, case index, and seed on the first failure.
///
/// # Panics
///
/// Re-panics with diagnostic context when any case's assertions fail.
pub fn run_cases<F: FnMut(&mut Gen)>(label: &str, cases: usize, mut f: F) {
    for case in 0..cases {
        let seed = 0xedb88320u64 ^ (case as u64).wrapping_mul(0x9e3779b97f4a7c15);
        let mut g = Gen::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut g)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property `{label}` failed at case {case}/{cases} (seed {seed:#018x}): {msg}");
        }
    }
}

/// The product every f32 matmul layout is defined by: `a · b`, each
/// output element one accumulator from `0.0` adding `a[i][p] * b[p][j]` in
/// ascending `p` — no blocking and no zero skip. A test reference, never a
/// product route; the transposed layouts compare against it on an explicit
/// transpose.
///
/// # Panics
///
/// Panics unless `a.cols() == b.rows()`.
pub fn scalar_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "scalar_matmul: inner dimensions differ");
    let ((m, k), n) = (a.shape(), b.cols());
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        run_cases("collect", 5, |g| first.push((g.u64(), g.usize_in(0, 10))));
        let mut second = Vec::new();
        run_cases("collect", 5, |g| second.push((g.u64(), g.usize_in(0, 10))));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn failure_reports_label_and_case() {
        let caught = std::panic::catch_unwind(|| {
            run_cases("always-fails", 3, |_| panic!("boom"));
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always-fails"), "{msg}");
        assert!(msg.contains("case 0"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn bounds_are_respected() {
        run_cases("bounds", 64, |g| {
            let x = g.usize_in(3, 9);
            assert!((3..9).contains(&x));
            let y = g.f32_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&y));
            let c = *g.choose(&[1, 2, 3]);
            assert!([1, 2, 3].contains(&c));
        });
    }
}
