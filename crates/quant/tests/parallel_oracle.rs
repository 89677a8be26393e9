//! Parallel-vs-serial and SIMD-vs-scalar oracles for the packed integer
//! GEMM.
//!
//! [`packed_decode_matmul`] computes every output element as an exact
//! integer accumulation plus one f32 rescale, so every worker count —
//! and the word-lane SIMD kernel vs the scalar per-code loop — must
//! produce the **bit-identical** result of the serial scalar run: exact
//! `f32` equality over randomized shapes, bit-widths, and ragged sizes.

use edge_llm_quant::{
    packed_decode_matmul, packed_decode_matmul_scalar, quantize_activations, BitWidth, QuantScheme,
    QuantizedTensor,
};
use edge_llm_tensor::check::{run_cases, Gen};
use edge_llm_tensor::{Tensor, TensorRng};

/// The thread counts the acceptance criteria pin for the packed kernel.
const PACKED_THREADS: [usize; 4] = [1, 2, 4, 8];

fn packed_operands(
    g: &mut Gen,
    m: usize,
    k: usize,
    n: usize,
    wbits: BitWidth,
    abits: BitWidth,
) -> (
    edge_llm_quant::QuantizedActivations,
    QuantizedTensor,
    Tensor,
    Tensor,
) {
    let mut rng = TensorRng::seed_from(g.u64());
    let x = Tensor::randn(m, k, 1.0, &mut rng);
    let w = Tensor::randn(n, k, 0.5, &mut rng);
    let x_q = quantize_activations(&x, QuantScheme::asymmetric(abits)).unwrap();
    let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(wbits)).unwrap();
    (x_q, w_q, x, w)
}

#[test]
fn packed_gemm_matches_scalar_oracle_at_every_thread_count() {
    run_cases("packed gemm scalar/SIMD x serial/parallel", 48, |g| {
        let wbits = *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8]);
        let abits = *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8]);
        // ragged k so weight rows start mid-word; m = 1 covers solo decode
        let (m, k, n) = (g.usize_in(1, 6), g.usize_in(1, 80), g.usize_in(1, 24));
        let (x_q, w_q, _, _) = packed_operands(g, m, k, n, wbits, abits);
        let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
        for t in PACKED_THREADS {
            let fast = packed_decode_matmul(&x_q, &w_q, t).unwrap();
            assert_eq!(
                oracle.as_slice(),
                fast.as_slice(),
                "{m}x{k}x{n} w={wbits:?} a={abits:?} threads={t}"
            );
        }
    });
}

#[test]
fn packed_gemm_is_exact_above_the_work_cutoff() {
    // Shapes past the serial-fallback cutoff so the panel partitioning
    // itself runs: a batched shape (row split) and a solo decode row
    // (column split) — both diffed against the scalar oracle.
    let mut g = Gen::new(0x9E77);
    for &(m, k, n) in &[(37usize, 53usize, 41usize), (1, 257, 301)] {
        let (x_q, w_q, _, _) = packed_operands(&mut g, m, k, n, BitWidth::W4, BitWidth::W8);
        let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
        for t in PACKED_THREADS {
            let fast = packed_decode_matmul(&x_q, &w_q, t).unwrap();
            assert_eq!(oracle.as_slice(), fast.as_slice(), "{m}x{k}x{n}/{t}");
        }
    }
}

#[test]
fn packed_gemm_tracks_f32_reference_within_quant_error() {
    // the quant-error-bound differential vs full-precision f32: the
    // integer path is a *quantized* product, so it must approximate the
    // exact matmul within the error budget of its bit-widths
    let mut g = Gen::new(0xBEEF);
    let (x_q, w_q, x, w) = packed_operands(&mut g, 4, 64, 12, BitWidth::W8, BitWidth::W8);
    let exact = edge_llm_tensor::matmul_a_bt(&x, &w).unwrap();
    let integer = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
    let rel = edge_llm_tensor::l2_norm(&integer.sub(&exact).unwrap())
        / edge_llm_tensor::l2_norm(&exact).max(1e-6);
    assert!(rel < 0.05, "8-bit packed GEMM rel err {rel}");
}
