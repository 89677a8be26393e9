//! Property-based tests of quantization invariants, driven by the in-repo
//! seeded case harness (`edge_llm_tensor::check`).

use edge_llm_quant::{
    fake_quant, packed_decode_matmul, quantize_activations, BitWidth, PackedInts, QuantScheme,
    QuantizedTensor,
};
use edge_llm_tensor::check::{run_cases, Gen};
use edge_llm_tensor::{l2_norm, max_abs_diff, Tensor, TensorRng};

fn random_bits(g: &mut Gen) -> BitWidth {
    *g.choose(&[BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16])
}

#[test]
fn pack_unpack_roundtrip() {
    run_cases("pack/unpack roundtrip", 48, |g| {
        let bits = random_bits(g);
        let len = g.usize_in(0, 200);
        let mut rng = TensorRng::seed_from(g.u64());
        let codes: Vec<u32> = (0..len)
            .map(|_| rng.index(bits.levels() as usize) as u32)
            .collect();
        let packed = PackedInts::pack(bits, &codes);
        assert_eq!(packed.unpack(), codes);
    });
}

#[test]
fn roundtrip_error_is_bounded_by_step() {
    run_cases("quant error bound", 48, |g| {
        let r = g.usize_in(1, 8);
        let c = g.usize_in(1, 16);
        let bits = random_bits(g);
        let mut rng = TensorRng::seed_from(g.u64());
        let x = Tensor::randn(r, c, 1.0, &mut rng);
        let q = QuantizedTensor::quantize(&x, QuantScheme::symmetric(bits)).unwrap();
        let err = max_abs_diff(&x, &q.dequantize());
        // symmetric per-row scale = max_abs/(levels/2 - 1); rounding error
        // is at most one step (half a step plus clamping slack at the edge)
        let max_abs = x.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let worst_step = max_abs / ((bits.levels() / 2) as f32 - 1.0).max(1.0);
        assert!(err <= worst_step + 1e-5, "err {err} vs step {worst_step}");
    });
}

#[test]
fn fake_quant_is_idempotent() {
    run_cases("fake quant idempotent", 48, |g| {
        let bits = random_bits(g);
        let mut rng = TensorRng::seed_from(g.u64());
        let x = Tensor::randn(4, 8, 1.0, &mut rng);
        let s = QuantScheme::symmetric(bits);
        let once = fake_quant(&x, s).unwrap();
        let twice = fake_quant(&once, s).unwrap();
        assert!(once.approx_eq(&twice, 1e-4));
    });
}

#[test]
fn more_bits_never_hurt_mse() {
    run_cases("mse monotone in bits", 48, |g| {
        let mut rng = TensorRng::seed_from(g.u64());
        let x = Tensor::randn(6, 16, 1.0, &mut rng);
        let mut prev = f32::INFINITY;
        for bits in BitWidth::ALL {
            let q = QuantizedTensor::quantize(&x, QuantScheme::symmetric(bits)).unwrap();
            // the l2 norm of the error is sqrt(n · MSE): the same order
            let err = l2_norm(&x.sub(&q.dequantize()).unwrap());
            assert!(err <= prev + 1e-6, "{bits}: {err} > {prev}");
            prev = err;
        }
    });
}

#[test]
fn storage_bytes_scale_with_bits() {
    run_cases("storage scales with bits", 48, |g| {
        let r = g.usize_in(1, 8);
        let c = g.usize_in(1, 32);
        let mut rng = TensorRng::seed_from(g.u64());
        let x = Tensor::randn(r, c, 1.0, &mut rng);
        let q2 = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W2)).unwrap();
        let q8 = QuantizedTensor::quantize(&x, QuantScheme::symmetric(BitWidth::W8)).unwrap();
        assert!(q2.storage_bytes() <= q8.storage_bytes());
    });
}

/// Asserts that every `±0.0` of `x` comes back as `+0.0`, bit for bit,
/// from `fake_quant` and from the packed roundtrip, on every grid.
fn assert_zeros_come_back_positive(x: &Tensor, what: &str) {
    for bits in BitWidth::ALL {
        for scheme in [QuantScheme::symmetric(bits), QuantScheme::asymmetric(bits)] {
            let fq = fake_quant(x, scheme).unwrap();
            let dq = QuantizedTensor::quantize(x, scheme).unwrap().dequantize();
            for (i, &v) in x.as_slice().iter().enumerate() {
                if v == 0.0 {
                    let (f, d) = (fq.as_slice()[i], dq.as_slice()[i]);
                    assert_eq!(f.to_bits(), 0, "fake_quant {scheme:?}, {what} [{i}]: {f:e}");
                    assert_eq!(d.to_bits(), 0, "dequantize {scheme:?}, {what} [{i}]: {d:e}");
                }
            }
        }
    }
}

#[test]
fn asymmetric_keeps_zero_exact() {
    // A pruned weight is written `+0.0` (or `-0.0` by a careless writer);
    // every grid must read it back as `+0.0`, so no route needs a re-mask.
    run_cases("zero exact on every grid", 48, |g| {
        let mut rng = TensorRng::seed_from(g.u64());
        let (scale, shift) = (g.f32_in(1e-3, 10.0), g.f32_in(-5.0, 5.0));
        let mut x = Tensor::randn(3, 9, scale, &mut rng);
        x.as_mut_slice().iter_mut().for_each(|v| *v += shift);
        for _ in 0..g.usize_in(1, 8) {
            let (r, c) = (g.usize_in(0, 3), g.usize_in(0, 9));
            x.set(r, c, if g.bool() { 0.0 } else { -0.0 });
        }
        assert_zeros_come_back_positive(&x, "random row");
    });
    // The degenerate grids: all-zero, denormal (unit scale), and overflowing
    // (`max / half` scale) rows.
    let rows = [
        [0.0f32, 0.0, 0.0, 0.0],
        [1e-44, -1e-44, 0.0, 5e-45],
        [1e-39, -1e-39, 0.0, 5e-40],
        [0.0, 3e-45, 1e-45, 0.0],
        [f32::MAX, -f32::MAX, 0.0, 1.0],
        [-f32::MAX, 0.7 * f32::MAX, 1.0, 0.0],
    ];
    for zero in [0.0f32, -0.0] {
        for row in rows {
            let row = row.map(|v| if v == 0.0 { zero } else { v });
            let x = Tensor::from_vec(1, 4, row.to_vec()).unwrap();
            assert_zeros_come_back_positive(&x, &format!("{row:?}"));
        }
    }
}

#[test]
fn a_denormal_range_quantizes_to_finite_values_through_every_entry_point() {
    // A row whose range is so narrow that `range / max_code` underflows —
    // to zero, or to a subnormal — has no step to resolve. Every route
    // must give it unit scale and the zero point's code (the error is the
    // denormal itself); the asymmetric f32 routes used to return NaN and
    // the symmetric ones to divide by zero.
    let rows = [
        [1e-44f32, -1e-44, 0.0, 5e-45], // step underflows to zero
        [1e-39, -1e-39, 0.0, 5e-40],    // step is subnormal
        [0.0, 3e-45, 1e-45, 0.0],       // one-sided
    ];
    let tiny = |xs: &[f32]| xs.iter().all(|v| v.abs() <= 1e-38);
    for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
        for row in rows {
            let x = Tensor::from_vec(1, 4, row.to_vec()).unwrap();
            for scheme in [QuantScheme::symmetric(bits), QuantScheme::asymmetric(bits)] {
                let what = format!("{scheme:?} on {row:?}");
                let fq = fake_quant(&x, scheme).unwrap();
                assert!(tiny(fq.as_slice()), "fake_quant, {what}: {fq:?}");
                let q = QuantizedTensor::quantize(&x, scheme).unwrap();
                assert_eq!(q.scale(0), 1.0, "{what}");
                assert_eq!(q.dequantize().as_slice(), fq.as_slice(), "{what}");
            }
            // the integer route: denormal activations against a weight
            // whose rows are denormal too
            let x_q = quantize_activations(&x, QuantScheme::asymmetric(bits)).unwrap();
            assert_eq!(x_q.scale(0), 1.0, "{bits} activations {row:?}");
            let w = Tensor::from_vec(3, 4, rows.concat()).unwrap();
            let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(bits)).unwrap();
            let y = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
            assert!(tiny(y.as_slice()), "{bits} integer route {row:?}: {y:?}");
        }
    }
    // The other end: a row whose range `hi - lo` overflows to +inf. The
    // asymmetric step used to be infinite, so every route dequantized the
    // row to `0 · inf = NaN`. Its two ends must come back finite, with
    // their sign and at least half their magnitude.
    let huge = [
        [f32::MAX, -f32::MAX, 0.0, 1.0],
        [-f32::MAX, 0.7 * f32::MAX, 1.0, -1.0],
    ];
    let finite = |xs: &[f32]| xs.iter().all(|v| v.is_finite());
    for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
        for row in huge {
            let x = Tensor::from_vec(1, 4, row.to_vec()).unwrap();
            for scheme in [QuantScheme::symmetric(bits), QuantScheme::asymmetric(bits)] {
                let what = format!("{scheme:?} on {row:?}");
                let fq = fake_quant(&x, scheme).unwrap();
                assert!(finite(fq.as_slice()), "fake_quant, {what}: {fq:?}");
                for (end, back) in row.iter().zip(fq.as_slice()).take(2) {
                    let kept = back * end.signum();
                    assert!(kept >= end.abs() / 2.0, "end {end}, {what}: {fq:?}");
                }
                let q = QuantizedTensor::quantize(&x, scheme).unwrap();
                assert_eq!(q.dequantize().as_slice(), fq.as_slice(), "{what}");
            }
            // the integer route: huge activations against denormal weight
            // rows, whose codes all sit at the zero point
            let x_q = quantize_activations(&x, QuantScheme::asymmetric(bits)).unwrap();
            assert!(x_q.scale(0).is_finite(), "{bits} activations {row:?}");
            let w = Tensor::from_vec(3, 4, rows.concat()).unwrap();
            let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(bits)).unwrap();
            let y = packed_decode_matmul(&x_q, &w_q, 1).unwrap();
            assert!(finite(y.as_slice()), "{bits} integer route {row:?}: {y:?}");
        }
    }
}
