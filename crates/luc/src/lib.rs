//! Layerwise Unified Compression (LUC) — the first of Edge-LLM's three
//! components.
//!
//! LUC observes that transformer layers differ widely in how much accuracy
//! they lose under pruning and quantization, and assigns each layer its own
//! `(bit-width, pruning ratio)` pair instead of a uniform policy:
//!
//! 1. [`profile`] measures per-layer **sensitivity** — the loss increase
//!    when one layer is compressed while the rest stay full-precision —
//!    through a caller-supplied [`SensitivityOracle`];
//! 2. a [`search_policy`] routine (greedy, dynamic-programming, or
//!    exhaustive) picks the per-layer policy minimizing total predicted
//!    loss under a compute-cost budget;
//! 3. the winning [`CompressionPolicy`] is applied to the model by the
//!    `edge-llm` pipeline crate.
//!
//! # Example
//!
//! ```
//! use edge_llm_luc::{CompressionPolicy, LayerPolicy};
//! use edge_llm_quant::BitWidth;
//!
//! let policy = CompressionPolicy::uniform(4, BitWidth::W4, 0.5);
//! assert_eq!(policy.n_layers(), 4);
//! assert!((policy.mean_cost() - (4.0 / 16.0) * 0.5).abs() < 1e-6);
//! ```

// Every failure is typed; only a stated invariant may panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod pareto;
mod policy;
mod search;
mod sensitivity;

pub use pareto::{pareto_frontier, PolicyPoint};
pub use policy::{CompressionPolicy, LayerPolicy};
pub use search::{search_policy, SearchAlgorithm, SearchOutcome};
pub use sensitivity::{profile, FnOracle, SensitivityOracle, SensitivityProfile};

/// Error type for LUC operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LucError {
    /// A budget outside the achievable range was requested.
    InfeasibleBudget {
        /// Requested mean cost budget.
        budget: f32,
        /// Cheapest achievable mean cost.
        min_achievable: f32,
    },
    /// The profile and policy disagree on layer count or choice sets.
    ProfileMismatch {
        /// Human-readable reason.
        reason: String,
    },
    /// A parameter was out of range.
    BadParameter {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for LucError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LucError::InfeasibleBudget {
                budget,
                min_achievable,
            } => {
                write!(
                    f,
                    "budget {budget} below cheapest achievable mean cost {min_achievable}"
                )
            }
            LucError::ProfileMismatch { reason } => write!(f, "profile mismatch: {reason}"),
            LucError::BadParameter { reason } => write!(f, "bad parameter: {reason}"),
        }
    }
}

impl std::error::Error for LucError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LucError::InfeasibleBudget {
            budget: 0.01,
            min_achievable: 0.1,
        };
        assert!(e.to_string().contains("0.01"));
    }
}
