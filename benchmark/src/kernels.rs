//! Isolated timings of single layer functions at a workload's shapes.
//!
//! The traced run calls these after its window. Each number is the
//! median over repeated calls of one public kernel function on fixed
//! pseudo-random operands, so it moves only when that kernel does.
//! Operation and byte counts are computed from tensor sizes, not
//! measured.

use crate::metrics::pct;
use edge_llm_model::{
    batched_decode_step, AdapterTarget, BatchedStep, EdgeModel, InferenceSession, SequenceKv,
    TenantAdapter,
};
use edge_llm_quant::{
    fake_quant, packed_decode_matmul, quantize_activations, BitWidth, QuantScheme, QuantizedTensor,
};
use edge_llm_tensor::{matmul_a_bt, matmul_at_b, matmul_fill_b_with, Tensor, TensorRng};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 200;
const QUICK_REPS: usize = 20;
const WARMUP_REPS: usize = 5;
/// Operand values are fixed: kernel time must not depend on `--seed`.
const OPERAND_SEED: u64 = 0xbe7c;

/// Median microseconds of one call of `f`, after a short warm-up.
fn median_us(quick: bool, mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP_REPS {
        f();
    }
    let reps = if quick { QUICK_REPS } else { REPS };
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    pct(&samples, 50)
}

pub struct MatmulTimes {
    pub nn_us: f64,
    pub tn_us: f64,
    pub nt_us: f64,
    pub flops_per_call: f64,
}

/// The three dense layouts of one projection's training step: forward
/// `x·W` (`m×k · k×n`), weight gradient `xᵀ·dy` and input gradient
/// `dy·Wᵀ`. All three are `2·m·k·n` flops.
pub fn matmul_us(m: usize, k: usize, n: usize, quick: bool) -> MatmulTimes {
    let mut rng = TensorRng::seed_from(OPERAND_SEED);
    let x = Tensor::randn(m, k, 1.0, &mut rng);
    let w = Tensor::randn(k, n, 0.1, &mut rng);
    let dy = Tensor::randn(m, n, 1.0, &mut rng);
    MatmulTimes {
        nn_us: median_us(quick, || {
            black_box(
                black_box(&x)
                    .matmul(black_box(&w))
                    .expect("nn shapes agree"),
            );
        }),
        tn_us: median_us(quick, || {
            black_box(matmul_at_b(black_box(&x), black_box(&dy)).expect("tn shapes agree"));
        }),
        nt_us: median_us(quick, || {
            black_box(matmul_a_bt(black_box(&dy), black_box(&w)).expect("nt shapes agree"));
        }),
        flops_per_call: (2 * m * k * n) as f64,
    }
}

/// Re-quantising one `d_in × d_out` weight under symmetric per-row W4 —
/// what a weight-cache miss costs the windowed tuner per projection.
pub fn fake_quant_weight_us(d_in: usize, d_out: usize, quick: bool) -> f64 {
    let w = Tensor::randn(d_in, d_out, 0.1, &mut TensorRng::seed_from(OPERAND_SEED));
    let scheme = QuantScheme::symmetric(BitWidth::W4);
    median_us(quick, || {
        black_box(fake_quant(black_box(&w), scheme).expect("finite weights quantise"));
    })
}

/// `(d_in, d_out)` of a block's four projections: qkv, proj, fc1, fc2.
fn projection_shapes(d_model: usize) -> [(usize, usize); 4] {
    [
        (d_model, 3 * d_model),
        (d_model, d_model),
        (d_model, 4 * d_model),
        (4 * d_model, d_model),
    ]
}

pub struct PgemmTimes {
    pub act_quant_us: f64,
    pub w4_us: f64,
    pub w2_us: f64,
    /// Multiply-accumulates of one `rows`-row pass over one block.
    pub macs_per_block: usize,
    /// Packed weight bytes one pass over one block reads, from the
    /// operands' storage sizes.
    pub w4_bytes_per_block: usize,
    pub w2_bytes_per_block: usize,
}

/// The integer decode route of one block: per-row activation
/// quantisation and the packed-code GEMM, each summed over the four
/// projection shapes, at W4 and at W2.
pub fn pgemm_us(d_model: usize, rows: usize, quick: bool) -> PgemmTimes {
    let mut rng = TensorRng::seed_from(OPERAND_SEED);
    let act = QuantScheme::asymmetric(BitWidth::W8);
    let mut t = PgemmTimes {
        act_quant_us: 0.0,
        w4_us: 0.0,
        w2_us: 0.0,
        macs_per_block: 0,
        w4_bytes_per_block: 0,
        w2_bytes_per_block: 0,
    };
    for (d_in, d_out) in projection_shapes(d_model) {
        let x = Tensor::randn(rows, d_in, 1.0, &mut rng);
        // transposed (d_out × d_in), as `Linear` packs it for this route
        let wt = Tensor::randn(d_out, d_in, 0.1, &mut rng);
        t.act_quant_us += median_us(quick, || {
            black_box(quantize_activations(black_box(&x), act).expect("finite rows quantise"));
        });
        let x_q = quantize_activations(&x, act).expect("finite rows quantise");
        for (bits, us, bytes) in [
            (BitWidth::W4, &mut t.w4_us, &mut t.w4_bytes_per_block),
            (BitWidth::W2, &mut t.w2_us, &mut t.w2_bytes_per_block),
        ] {
            let w_q = QuantizedTensor::quantize(&wt, QuantScheme::symmetric(bits))
                .expect("finite weights quantise");
            *bytes += w_q.storage_bytes();
            *us += median_us(quick, || {
                black_box(
                    packed_decode_matmul(black_box(&x_q), black_box(&w_q), 1)
                        .expect("operands share k"),
                );
            });
        }
        t.macs_per_block += rows * d_in * d_out;
    }
    t
}

/// The f32 route `Linear` runs when weights are packed but activations
/// are not quantised: `matmul_fill_b_with` dequantising weight rows on
/// demand. Summed over the four projection shapes at W4.
pub fn qmatmul_us(d_model: usize, rows: usize, quick: bool) -> f64 {
    let mut rng = TensorRng::seed_from(OPERAND_SEED);
    projection_shapes(d_model)
        .into_iter()
        .map(|(d_in, d_out)| {
            let x = Tensor::randn(rows, d_in, 1.0, &mut rng);
            let w = Tensor::randn(d_in, d_out, 0.1, &mut rng);
            let w_q = QuantizedTensor::quantize(&w, QuantScheme::symmetric(BitWidth::W4))
                .expect("finite weights quantise");
            let fill = |p0: usize, panel: &mut [f32]| {
                for (r, row) in panel.chunks_mut(d_out).enumerate() {
                    w_q.dequantize_row_into(p0 + r, row);
                }
            };
            median_us(quick, || {
                black_box(
                    matmul_fill_b_with(black_box(&x), d_in, d_out, 1, &fill)
                        .expect("operands share k"),
                );
            })
        })
        .sum()
}

/// One `ResolvedAdapter::apply_row` at the Qkv site of layer 0.
pub fn adapter_apply_row_us(model: &EdgeModel, adapter: &TenantAdapter, quick: bool) -> f64 {
    let resolved = adapter.resolve(model).expect("adapter fits the model");
    let d = model.config().d_model;
    let x = Tensor::randn(1, d, 1.0, &mut TensorRng::seed_from(OPERAND_SEED));
    let mut y = vec![0f32; 3 * d];
    median_us(quick, || {
        resolved
            .apply_row(0, AdapterTarget::Qkv, black_box(x.row(0)), &mut y)
            .expect("resolved adapter applies");
        black_box(&mut y);
    })
}

/// A solo session holding `context` pseudo-random tokens, and the next
/// token to feed it.
fn session_at(model: &EdgeModel, context: usize) -> (InferenceSession<'_>, usize) {
    let vocab = model.config().vocab_size;
    let mut rng = TensorRng::seed_from(OPERAND_SEED);
    let mut session = InferenceSession::new(model);
    for _ in 0..context {
        session
            .advance_token(rng.index(vocab))
            .expect("context fits");
    }
    (session, rng.index(vocab))
}

/// One `InferenceSession::push_token` at a fixed context, rolled back
/// after each call so every sample decodes the same position.
pub fn push_token_us(model: &EdgeModel, context: usize, quick: bool) -> f64 {
    let (mut session, token) = session_at(model, context);
    median_us(quick, || {
        black_box(session.push_token(token).expect("token fits the cache"));
        session.truncate(context);
    })
}

/// One self-speculative round (draft depth 1, k 4) from a fixed context,
/// rolled back the same way.
pub fn spec_round_us(model: &EdgeModel, context: usize, quick: bool) -> f64 {
    let (mut session, token) = session_at(model, context);
    median_us(quick, || {
        black_box(
            session
                .speculative_round(token, 1, 4)
                .expect("round fits the cache"),
        );
        session.truncate(context);
    })
}

/// One direct `batched_decode_step` over `slots` sequences that each
/// hold `context` tokens, final-exit logits requested, rolled back after
/// every call so each sample decodes the same position.
pub fn batched_decode_step_us(model: &EdgeModel, slots: usize, context: usize, quick: bool) -> f64 {
    let vocab = model.config().vocab_size;
    let mut rng = TensorRng::seed_from(OPERAND_SEED);
    let mut kvs: Vec<SequenceKv> = (0..slots).map(|_| SequenceKv::new(model)).collect();
    let mut pass = |kvs: &mut [SequenceKv], exits: &[usize]| {
        let mut steps: Vec<BatchedStep<'_>> = kvs
            .iter_mut()
            .map(|kv| BatchedStep {
                token: rng.index(vocab),
                kv,
                exits,
                adapter: None,
            })
            .collect();
        black_box(batched_decode_step(model, &mut steps).expect("context fits the cache"));
    };
    for _ in 0..context {
        pass(&mut kvs, &[]);
    }
    let exits = [model.n_layers() - 1];
    median_us(quick, || {
        pass(&mut kvs, &exits);
        for kv in kvs.iter_mut() {
            kv.truncate(context);
        }
    })
}
