//! Word-boundary properties of [`PackedInts`] and degenerate-shape
//! regressions for the packed integer GEMM.
//!
//! The packed-word kernels index raw `u32` words directly, so the
//! invariants at partially-filled final words — tail bits zero, `get` /
//! `iter` / `unpack` agreement, exact storage rounding — are load-bearing
//! for correctness, not just for the memory accounting.

use edge_llm_quant::{
    packed_decode_matmul, packed_decode_matmul_scalar, quantize_activations, BitWidth, PackedInts,
    QuantScheme, QuantizedTensor,
};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::Tensor;

#[test]
fn every_width_and_ragged_length_roundtrips() {
    // all widths x every length that does NOT fill the last word, plus the
    // exact-fill neighbours, deterministically — no sampling gaps
    for bits in BitWidth::ALL {
        let per_word = (32 / bits.bits()) as usize;
        for words in 0..3usize {
            for fill in 0..per_word {
                let len = words * per_word + fill;
                let codes: Vec<u32> = (0..len)
                    .map(|i| (i as u32).wrapping_mul(2654435761) & bits.max_code())
                    .collect();
                let p = PackedInts::pack(bits, &codes);
                assert_eq!(p.len(), len, "{bits} len {len}");
                assert_eq!(p.per_word(), per_word, "{bits}");
                assert_eq!(p.unpack(), codes, "{bits} len {len} unpack");
                assert!(p.iter().eq(codes.iter().copied()), "{bits} len {len} iter");
                for (i, &c) in codes.iter().enumerate() {
                    assert_eq!(p.get(i), c, "{bits} len {len} get({i})");
                }
                assert_eq!(
                    p.storage_bytes(),
                    len.div_ceil(per_word) * 4,
                    "{bits} len {len} storage"
                );
                assert_eq!(p.words().len() * 4, p.storage_bytes());
            }
        }
    }
}

#[test]
fn unused_tail_bits_of_the_final_word_are_zero() {
    // the integer kernel never reads past `len`, but the invariant that
    // pack() leaves tail lanes zero keeps whole-word unpacking honest
    for bits in BitWidth::ALL {
        let per_word = (32 / bits.bits()) as usize;
        for fill in 1..per_word {
            let codes = vec![bits.max_code(); fill];
            let p = PackedInts::pack(bits, &codes);
            let last = *p.words().last().unwrap();
            let used_bits = fill as u32 * bits.bits();
            let tail = if used_bits == 32 {
                0
            } else {
                last >> used_bits
            };
            assert_eq!(tail, 0, "{bits} fill {fill}: tail bits must be zero");
        }
    }
}

#[test]
fn packed_words_expose_little_endian_lane_order() {
    run_cases("packed lane order", 32, |g| {
        let bits = *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16]);
        let per_word = (32 / bits.bits()) as usize;
        let len = g.usize_in(1, 4 * per_word);
        let codes: Vec<u32> = (0..len).map(|_| g.u64() as u32 & bits.max_code()).collect();
        let p = PackedInts::pack(bits, &codes);
        for (i, &c) in codes.iter().enumerate() {
            let word = p.words()[i / per_word];
            let shift = (i % per_word) as u32 * bits.bits();
            assert_eq!((word >> shift) & bits.max_code(), c, "{bits} lane {i}");
        }
    });
}

#[test]
fn integer_kernel_handles_empty_and_zero_dim_operands() {
    let act = QuantScheme::asymmetric(BitWidth::W8);
    let wsch = QuantScheme::symmetric(BitWidth::W4);
    // zero activation rows
    let x0 = quantize_activations(&Tensor::zeros(0, 8), act).unwrap();
    let w = QuantizedTensor::quantize(&Tensor::zeros(3, 8), wsch).unwrap();
    assert_eq!(packed_decode_matmul(&x0, &w, 1).unwrap().shape(), (0, 3));
    // zero output columns
    let x = quantize_activations(&Tensor::zeros(2, 8), act).unwrap();
    let w0 = QuantizedTensor::quantize(&Tensor::zeros(0, 8), wsch).unwrap();
    assert_eq!(packed_decode_matmul(&x, &w0, 1).unwrap().shape(), (2, 0));
    // zero reduction length: a well-formed all-zero result
    let xk = quantize_activations(&Tensor::zeros(2, 0), act).unwrap();
    let wk = QuantizedTensor::quantize(&Tensor::zeros(3, 0), wsch).unwrap();
    let y = packed_decode_matmul(&xk, &wk, 1).unwrap();
    assert_eq!(y.shape(), (2, 3));
    assert!(y.as_slice().iter().all(|&v| v == 0.0));
    let y_scalar = packed_decode_matmul_scalar(&xk, &wk).unwrap();
    assert_eq!(y.as_slice(), y_scalar.as_slice());
}
