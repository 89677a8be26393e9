//! Zero-dependency structured telemetry for the Edge-LLM runtime.
//!
//! The paper's headline numbers are *measured* claims, so the runtime
//! needs a way to attribute wall-clock to phases — forward vs backward vs
//! re-quantization vs checkpointing, queue-wait vs decode — without
//! perturbing the thing being measured. This crate provides:
//!
//! * **Spans** — scoped timers ([`span`]) that record start/end events
//!   with parent links, so a trace reconstructs into a tree
//!   ([`span_tree`]); a [`timed`] span also returns its duration;
//! * **Counters** — named monotonic tallies ([`counter`]) safe to bump
//!   from any thread, including `tensor::pool` workers;
//! * **A swappable clock** — the [`Clock`] trait with a production
//!   [`MonotonicClock`] and a deterministic [`FakeClock`] so tests assert
//!   *exact* span trees;
//! * **A JSON-lines sink** — [`write_jsonl`] serializes a trace for
//!   offline analysis (the CLI writes it behind `--trace-out` /
//!   `EDGELLM_TRACE`), one [`Json`] object per event;
//! * **The workspace's one JSON value** — [`Json`]: parser (nesting
//!   bounded, errors typed), deterministic compact/pretty writer and
//!   string escaper. The lab re-exports it for every spec, trial record,
//!   analysis row and baseline it reads or writes.
//!
//! # Disabled-by-default, provably cheap
//!
//! Recording is off unless [`enable`] has installed a session. The entire
//! disabled hot path is one relaxed atomic load —
//! `experiments/telemetry.jsonl` gates its cost at under 1% of an
//! adaptation step. Instrumented code therefore calls
//! [`span`]/[`counter`] unconditionally.
//!
//! Enabled recording appends events to a buffer under a mutex; it spends
//! time but never influences computed values, so the byte-identity suites
//! (determinism, golden reports, serving equivalence) pass with tracing
//! on — `tests/telemetry.rs` holds them to that.
//!
//! # Example
//!
//! ```
//! use edge_llm_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! telemetry::enable(Arc::new(telemetry::FakeClock::with_tick(10)));
//! {
//!     let _outer = telemetry::span("step");
//!     let _inner = telemetry::span("forward");
//!     telemetry::counter("tokens", 3);
//! }
//! let events = telemetry::disable();
//! let tree = telemetry::span_tree(&events);
//! assert_eq!(tree.len(), 1);
//! assert_eq!(tree[0].name, "step");
//! assert_eq!(tree[0].children[0].name, "forward");
//! assert_eq!(telemetry::counter_totals(&events)["tokens"], 3);
//! ```

mod clock;
mod json;
mod record;
mod sink;
mod summary;
mod tree;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use json::{Json, JsonError};
pub use record::{
    counter, disable, enable, is_enabled, now_ns, span, take_events, timed, Event, SpanGuard,
    ThreadId, Timed,
};
pub use sink::{env_trace_path, write_jsonl, TRACE_ENV_VAR};
pub use summary::{nearest_rank_index, LatencySummary};
pub use tree::{aggregate_span_ns, counter_totals, span_tree, SpanNode};
