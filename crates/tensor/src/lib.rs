//! Dense tensor math for the Edge-LLM reproduction.
//!
//! This crate provides the numerical substrate every other Edge-LLM crate is
//! built on: a row-major, `f32`, two-dimensional [`Tensor`], blocked matrix
//! multiplication kernels, and forward **and** backward implementations of
//! the neural-network primitives a decoder-only transformer needs (softmax,
//! layer normalization, GELU, embeddings, cross-entropy).
//!
//! Backward passes are explicit free functions rather than an autograd tape:
//! the Edge-LLM adaptive layer tuning scheme controls *which* layers run
//! backward each iteration, so the training loop — not a tape — must own
//! backward scheduling (see `edge-llm-model`).
//!
//! # Example
//!
//! ```
//! use edge_llm_tensor::{Tensor, TensorRng};
//!
//! # fn main() -> Result<(), edge_llm_tensor::TensorError> {
//! let mut rng = TensorRng::seed_from(42);
//! let a = Tensor::randn(4, 8, 0.1, &mut rng);
//! let b = Tensor::randn(8, 3, 0.1, &mut rng);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), (4, 3));
//! # Ok(())
//! # }
//! ```

mod causal;
pub mod check;
mod error;
pub mod lanes;
mod matmul;
mod ops;
pub mod pool;
mod rng;
mod stats;
mod tensor;

pub use causal::{causal_prefix, causal_scores, causal_suffix, Rows, RowsMut};
pub use error::TensorError;
pub use matmul::{
    all_finite, matmul_a_bt, matmul_a_bt_with, matmul_at_b, matmul_at_b_with, matmul_fill_b_with,
};
pub use ops::{
    add_bias_backward, add_bias_forward, cross_entropy_backward, cross_entropy_forward,
    embedding_backward, gelu_forward, gelu_forward_train, layernorm_backward, layernorm_forward,
    layernorm_param_grads, softmax_backward, softmax_rows, CrossEntropyOutput, LayerNormCache,
    IGNORE_TARGET,
};
pub use pool::{configured_threads, set_configured_threads, THREADS_ENV_VAR};
pub use rng::{fnv1a64, RngState, TensorRng, RNG_STATE_BYTES};
pub use stats::{cosine_similarity, l2_norm, max_abs_diff, mean, variance};
pub use tensor::Tensor;
