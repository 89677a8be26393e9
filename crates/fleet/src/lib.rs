//! Sharded serving fleet: N engine workers behind a deterministic
//! router with SLO-aware admission, overload shedding, and crash-replay
//! failover.
//!
//! The single [`edge_llm_serve::BatchedInferenceEngine`] serves one
//! device; a production service needs to survive bursty arrivals,
//! worker faults, and overload. This crate shards sessions across N
//! workers (each a `BatchedInferenceEngine` the router owns and steps
//! concurrently with its siblings inside a tick) while keeping the
//! repo's determinism contract intact:
//!
//! * with **1 worker and no faults**, a fleet run is byte-identical to
//!   driving the engine directly;
//! * with **N workers**, every session's token stream is bit-identical
//!   regardless of placement — the engine already guarantees
//!   placement-independence, and the router adds none of its own
//!   nondeterminism (lock-step ticks, replies consumed in worker order);
//! * with **injected worker crashes**, a replayed session's tokens and
//!   finish reason match the crash-free run exactly (prompt + accepted
//!   tokens replayed with the sampling rng resumed from the last
//!   [`edge_llm_serve::SessionProgress`] snapshot).
//!
//! The workspace-root `tests/fleet_equivalence.rs` suite pins all three
//! oracles down; [`ScenarioSpec`] provides seeded traffic scenarios for
//! the `edgellm loadgen` CLI and the lab's `fleet` family.
//!
//! # Example
//!
//! ```
//! use edge_llm_fleet::{run_fleet, FleetConfig, FleetRequest, ScenarioSpec};
//! use edge_llm_model::{EdgeModel, ModelConfig};
//! use edge_llm_tensor::TensorRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = TensorRng::seed_from(0);
//! let model = EdgeModel::new(ModelConfig::tiny(), &mut rng)?;
//! let cfg = FleetConfig {
//!     workers: 2,
//!     ..FleetConfig::default()
//! };
//! let spec = ScenarioSpec::builtin("steady").unwrap();
//! let traffic = spec.generate(model.config().vocab_size, model.n_layers());
//! let run = run_fleet(&model, &cfg, &traffic)?;
//! assert_eq!(run.outcomes.len(), traffic.len());
//! println!("{}", run.report);
//! # Ok(())
//! # }
//! ```

mod loadgen;
mod router;
mod worker;

pub use loadgen::{Arrival, ScenarioSpec};
pub use router::{
    run_fleet, run_fleet_with_adapters, FleetConfig, FleetFault, FleetReport, FleetRequest,
    FleetRun, SessionFinish, SessionOutcome, WorkerFault,
};
