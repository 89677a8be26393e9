//! Decoder-only transformer with explicit backward passes, early-exit heads,
//! adaptive layer tuning, and exit voting — the model substrate of the
//! Edge-LLM reproduction.
//!
//! Unlike general autograd frameworks, every block here owns its gradient
//! buffers and a hand-written `backward`, and its forward is one layer of
//! the decode walk, which records a [`BlockTape`] — exactly what that
//! backward reads — only for the blocks inside the training window. That
//! structure is what lets the Edge-LLM **adaptive layer tuning** scheme
//! truncate backpropagation to a window of layers per iteration (saving
//! activation memory and backward compute), and what lets the **voting**
//! combiner blend per-exit logits at inference time.
//!
//! # Example
//!
//! ```
//! use edge_llm_model::{EdgeModel, ModelConfig};
//! use edge_llm_tensor::TensorRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ModelConfig::tiny();
//! let mut rng = TensorRng::seed_from(0);
//! let model = EdgeModel::new(config.clone(), &mut rng)?;
//! let tokens = vec![1usize; config.seq_len];
//! let logits = model.logits(&tokens, 1)?;
//! assert_eq!(logits.shape(), (config.seq_len, config.vocab_size));
//! # Ok(())
//! # }
//! ```

mod adapter;
mod adaptive;
mod attention;
mod batched;
mod block;
mod config;
mod error;
mod generate;
mod gradcheck;
mod infer;
mod io;
mod linear;
mod memory;
mod mlp;
mod model;
mod norm;
mod optim;
mod spec;
mod voting;

pub use adapter::{AdapterDelta, AdapterTarget, ResolvedAdapter, TenantAdapter};
pub use adaptive::{AdaptiveTuner, LayerWindow, StepPhases, TuneStepReport, WindowSchedule};
pub use attention::Attention;
pub use batched::{batched_decode_step, BatchedStep, SequenceKv};
pub use block::{Block, BlockTape};
pub use config::ModelConfig;
pub use error::ModelError;
pub use generate::{argmax, generate, sample_token, validate_decoding, Decoding};
pub use gradcheck::{gradient_check, GradCheckReport};
pub use infer::InferenceSession;
pub use io::TrainingCheckpoint;
pub use linear::{Linear, LinearCache};
pub use memory::{MemoryBreakdown, MemoryModel};
pub use mlp::Mlp;
pub use model::{
    EdgeModel, ExitForward, ForwardCaches, ParamVisitor, ParamVisitorRo, WeightCacheStats,
};
pub use norm::LayerNorm;
pub use optim::{Optimizer, Sgd, SgdState};
pub use spec::{spec_round, spec_round_with_adapter, validate_spec_params, SpecReport};
pub use voting::{combine, fit_learned_weights, VotingCombiner, VotingPolicy};
