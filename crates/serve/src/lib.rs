//! Batched serving engine with continuous batching over KV-cached
//! sessions.
//!
//! An adapted Edge-LLM model on a device rarely serves one request at a
//! time: an assistant handles overlapping queries, and the matmul kernels
//! amortise much better over several rows than over one. This crate turns
//! the single-sequence [`edge_llm_model::InferenceSession`] decode loop
//! into a [`BatchedInferenceEngine`] that packs every in-flight request's
//! next token — or a newly admitted request's whole prompt but its newest
//! token — into one shared forward pass per step
//! ([`edge_llm_model::batched_decode_runs`]), admitting queued requests
//! the moment a slot frees up (continuous batching) rather than waiting
//! for a whole batch to finish.
//!
//! The engine's contract is strict: **every request's token stream is
//! bit-identical to running it alone** through a single-sequence session
//! ([`run_solo`] is that independently-written reference), for any
//! interleaving of arrivals, any batch size, and any thread count. The
//! differential test suite (`tests/serving_equivalence.rs` at the
//! workspace root) pins this down over randomized request mixes.
//!
//! # Example
//!
//! ```
//! use edge_llm_model::{Decoding, EdgeModel, ModelConfig, VotingPolicy};
//! use edge_llm_serve::{BatchedInferenceEngine, FinishReason, ServeRequest};
//! use edge_llm_tensor::TensorRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let model = EdgeModel::new(ModelConfig::tiny(), &mut rng)?;
//! let mut engine = BatchedInferenceEngine::new(&model, 4)?;
//! engine.submit(ServeRequest {
//!     id: "greeting".into(),
//!     prompt: vec![1, 2, 3],
//!     max_new_tokens: 4,
//!     decoding: Decoding::Greedy,
//!     voting: VotingPolicy::final_only(model.n_layers()),
//!     seed: 7,
//!     deadline_steps: None,
//!     tenant: None,
//! });
//! let outcomes = engine.run_to_completion()?;
//! assert_eq!(outcomes.len(), 1);
//! assert_eq!(outcomes[0].finish, FinishReason::Completed);
//! assert_eq!(outcomes[0].tokens.len(), 4);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod adapter_cache;
mod engine;
mod error;
mod request;
mod shed;
mod solo;

pub use adapter_cache::AdapterCache;
pub use edge_llm_telemetry::LatencySummary;
pub use engine::{BatchedInferenceEngine, EngineReport, SessionProgress};
pub use error::ServeError;
pub use request::{validate_request, FinishReason, ServeOutcome, ServeRequest};
pub use shed::ShedCause;
pub use solo::{run_solo, run_solo_with_adapter};
