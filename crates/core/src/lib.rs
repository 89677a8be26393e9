//! # Edge-LLM
//!
//! A from-scratch Rust reproduction of **EDGE-LLM: Enabling Efficient Large
//! Language Model Adaptation on Edge Devices via Unified Compression and
//! Adaptive Layer Voting** (DAC 2024).
//!
//! Edge-LLM makes on-device LLM adaptation practical with three pieces,
//! each implemented as its own crate and orchestrated here:
//!
//! 1. **Layerwise unified compression (LUC)** — per-layer pruning ratios
//!    and quantization bit-widths from sensitivity profiles
//!    (`edge-llm-luc` over `edge-llm-quant` / `edge-llm-prune`);
//! 2. **Adaptive layer tuning & voting** — per-iteration training of a
//!    layer window with early-exit heads, and confidence-weighted exit
//!    voting at inference (`edge-llm-model`);
//! 3. **Hardware scheduling search** — per-layer tile/loop-order/buffering
//!    schedules for the compressed workload on an edge accelerator cost
//!    model (`edge-llm-hw`).
//!
//! The [`pipeline`] module runs the full flow (vanilla full tuning
//! included); [`baselines`] provides the uniform-compression comparison
//! point; [`experiments`] regenerates every table and figure of the paper's
//! evaluation from these entry points (the `report` binary prints them),
//! and the `edge-llm-serve` crate (re-exported as [`serve`]) batches
//! adapted-model inference across concurrent requests.
//!
//! # Quickstart
//!
//! ```
//! use edge_llm::pipeline::{ExperimentConfig, Method};
//!
//! # fn main() -> Result<(), edge_llm::EdgeLlmError> {
//! let config = ExperimentConfig::smoke_test();
//! let outcome = edge_llm::pipeline::run_method(Method::EdgeLlm, &config)?;
//! assert!(outcome.accuracy >= 0.0 && outcome.accuracy <= 1.0);
//! # Ok(())
//! # }
//! ```

// Every failure is typed; only a stated invariant may panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod baselines;
pub mod compress;
pub mod eval;
pub mod experiments;
pub mod oracle;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod schedule;
pub mod windows;

mod error;

pub use error::EdgeLlmError;

// Re-export the subsystem crates so downstream users need one dependency.
pub use edge_llm_data as data;
pub use edge_llm_hw as hw;
pub use edge_llm_luc as luc;
pub use edge_llm_model as model;
pub use edge_llm_prune as prune;
pub use edge_llm_quant as quant;
pub use edge_llm_serve as serve;
pub use edge_llm_telemetry as telemetry;
pub use edge_llm_tensor as tensor;
