//! Declarative experiment lab: seeded scenario grids over this repo's
//! engines, with differential trial oracles and generated baseline
//! regression gates.
//!
//! The repo's headline claims (weight-cache and spec-decode speedups,
//! free-when-off telemetry, tenant residency, integer-GEMM wins) are
//! held here as *data* rather than one-off binaries: an experiment is
//! a JSONL file of tasks — each a seeded scenario with explicit A/B
//! variant plans — that the runner executes in-process, writing
//! per-trial input/output records under `.lab/runs/<run_id>/` and
//! building JSONL analysis tables straight from the telemetry sink.
//!
//! Three properties make the tables trustworthy:
//!
//! * **Determinism is a recorded artifact, not a hope.** Every
//!   `trial_output.json` contains only values that are pure functions
//!   of (params, seed) — token checksums, served/shed counts, resident
//!   bytes, semantic counters — and the runner re-proves byte-identity
//!   across repeats on every run. Wall-clock lands in a separate
//!   `timing.json` sidecar.
//! * **Differential oracles run with the trials.** Declared
//!   `variants_equal` constraints (spec decode emits the greedy stream;
//!   packed equals lazy on the integer route; worker counts don't change
//!   the work) fail the run, not just a dashboard.
//! * **Baselines are generated.** `lab check --update` derives the
//!   expected table from an actual run — exact rows plus a digest for
//!   deterministic values, spec-declared tolerance bands for timing —
//!   so regression gates never drift from what the code produces.
//!
//! Records are JSON, written and read through the workspace's one JSON
//! value, `edge_llm_telemetry::Json` (re-exported here as [`Json`]); a
//! spec's fields and a family's params are read through one typed reader
//! that refuses keys it does not know. The schema golden
//! (`tests/golden_schemas.rs`) snapshots the records a real run wrote.
//!
//! The CLI surface is `edgellm lab run|analyze|check`;
//! `scripts/verify.sh` runs every committed `experiments/*.jsonl` and
//! gates it against its generated `experiments/baselines/<name>.json`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod analysis;
pub mod families;
pub mod runner;
pub mod schemas;

pub use analysis::{analyze_run, check_run, AnalysisReport, CheckReport, Summary};
pub use edge_llm_telemetry::{Json, JsonError};
pub use runner::{run_experiment, RunOptions, RunOutcome};
pub use schemas::{ExperimentSpec, Family, GateSpec, LabError, OracleSpec, TaskSpec, Variant};
