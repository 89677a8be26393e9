//! Parallel-vs-serial and SIMD-vs-scalar oracles for the packed integer
//! GEMM.
//!
//! [`packed_decode_matmul`] computes every output element as an exact
//! integer accumulation plus one f32 rescale, so every worker count —
//! and the unpack-once, plane-ordered SIMD kernel vs the scalar per-code
//! loop — must produce the **bit-identical** result of the serial scalar
//! run: exact `f32` equality over randomized shapes, bit-widths, and
//! ragged sizes.

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
    run_cases("packed gemm scalar/SIMD x serial/parallel", 64, |g| {
        let wbits = *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8]);
        let abits = *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8]);
        // What the unpack-once loop can get wrong lives in `k`: below one
        // word (`k < per_word`, head and tail only), ragged (`k % per_word
        // != 0`, so rows start mid-word and every row has a different
        // head), and past one or two plane groups (8 words: 128 / 64 / 32
        // codes) with natural-order words after the last.
        let per_word = (32 / wbits.bits()) as usize;
        let k = match g.usize_in(0, 4) {
            0 => g.usize_in(1, per_word),
            1 => per_word * g.usize_in(1, 20),
            _ => g.usize_in(1, 20 * per_word),
        };
        // m = 1 is solo decode; the larger shapes cross the serial cutoff
        // so the weight-row split really runs
        let (m, n) = (g.usize_in(1, 10), g.usize_in(1, 48));
        let (x_q, w_q, x, _) = packed_operands(g, m, k, n, wbits, abits);
        let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
        let what = format!("{m}x{k}x{n} w={wbits:?} a={abits:?}");
        for t in PACKED_THREADS {
            let fast = packed_decode_matmul(&x_q, &w_q, t).unwrap();
            assert_eq!(oracle.as_slice(), fast.as_slice(), "{what} threads={t}");
        }
        // row i of a batch is the same row decoded solo, bit for bit
        for i in 0..m {
            let solo_x = Tensor::from_vec(1, k, x.row(i).to_vec()).unwrap();
            let solo_q = quantize_activations(&solo_x, QuantScheme::asymmetric(abits)).unwrap();
            let solo = packed_decode_matmul(&solo_q, &w_q, 1).unwrap();
            assert_eq!(solo.as_slice(), oracle.row(i), "{what} row {i} solo");
        }
    });
}

#[test]
fn packed_gemm_is_exact_above_the_work_cutoff() {
    // Shapes past the serial-fallback cutoff so the panel partitioning
    // itself runs — weight rows are split for a batched shape and a solo
    // decode row alike — both diffed against the scalar oracle.
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
fn packed_gemm_is_exact_at_the_served_shapes() {
    // The shapes decode runs: k = d_model or d_ff of the served model (a
    // whole number of words at every width, so every row is one word
    // unpack), n every projection's width, m one slot, the four-slot
    // batch and one row past it.
    let mut g = Gen::new(0x5E4F);
    for wbits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
        for k in [128usize, 512] {
            for n in [128usize, 384, 512] {
                for m in [1usize, 4, 5] {
                    let (x_q, w_q, _, _) = packed_operands(&mut g, m, k, n, wbits, BitWidth::W8);
                    let oracle = packed_decode_matmul_scalar(&x_q, &w_q).unwrap();
                    for t in PACKED_THREADS {
                        let fast = packed_decode_matmul(&x_q, &w_q, t).unwrap();
                        let what = format!("{m}x{k}x{n} w={wbits:?} threads={t}");
                        assert_eq!(oracle.as_slice(), fast.as_slice(), "{what}");
                    }
                }
            }
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
