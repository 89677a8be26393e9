//! Typed retirement/shed causes shared by the engine and the fleet.
//!
//! The engine's eviction counters and the fleet's overload-shedding
//! counters used to be loose string literals scattered across call
//! sites; [`ShedCause`] makes the full cause vocabulary one enum, so the
//! telemetry names, report tallies, and tests all agree on the set of
//! ways a session can leave the system.

use crate::request::FinishReason;

/// Why a session left the serving system — either retired by an engine
/// (the first four causes, mirroring [`FinishReason`]) or shed by the
/// fleet router before/after reaching a worker — plus the one adapter
/// cause, a tenant's resident adapter replaced by re-registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ShedCause {
    /// Generated its full token budget.
    Completed,
    /// Hit its per-request `deadline_steps` budget.
    DeadlineExceeded,
    /// Ran out of KV-cache positions.
    CapacityExhausted,
    /// Failed validation and never ran.
    Rejected,
    /// Arrived while every bounded worker queue was full and no queued
    /// session had lower priority.
    QueueFull,
    /// Removed from a full queue to make room for a higher-priority
    /// arrival.
    Displaced,
    /// Waited in the router queue past its admission SLO budget.
    SloExpired,
    /// Lost its worker more times than the crash-replay retry budget.
    RetriesExhausted,
    /// A tenant's resident adapter was dropped because the tenant
    /// re-registered a new adapter version.
    AdapterReplaced,
}

impl ShedCause {
    /// The telemetry counter bumped when this cause fires. Engine-level
    /// causes keep the historical `serve.evict.*` names (traces written
    /// by older builds stay comparable); fleet-level causes live under
    /// `fleet.shed.*`.
    pub fn counter_name(self) -> &'static str {
        match self {
            ShedCause::Completed => "serve.evict.completed",
            ShedCause::DeadlineExceeded => "serve.evict.deadline",
            ShedCause::CapacityExhausted => "serve.evict.capacity",
            ShedCause::Rejected => "serve.evict.rejected",
            ShedCause::QueueFull => "fleet.shed.queue_full",
            ShedCause::Displaced => "fleet.shed.displaced",
            ShedCause::SloExpired => "fleet.shed.slo_expired",
            ShedCause::RetriesExhausted => "fleet.shed.retries_exhausted",
            ShedCause::AdapterReplaced => "serve.adapter.evict.replaced",
        }
    }

    /// Short human-readable label (report tables, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            ShedCause::Completed => "completed",
            ShedCause::DeadlineExceeded => "deadline-exceeded",
            ShedCause::CapacityExhausted => "capacity-exhausted",
            ShedCause::Rejected => "rejected",
            ShedCause::QueueFull => "queue-full",
            ShedCause::Displaced => "displaced",
            ShedCause::SloExpired => "slo-expired",
            ShedCause::RetriesExhausted => "retries-exhausted",
            ShedCause::AdapterReplaced => "adapter-replaced",
        }
    }

    /// Every cause, in a fixed report order.
    pub const ALL: [ShedCause; 9] = [
        ShedCause::Completed,
        ShedCause::DeadlineExceeded,
        ShedCause::CapacityExhausted,
        ShedCause::Rejected,
        ShedCause::QueueFull,
        ShedCause::Displaced,
        ShedCause::SloExpired,
        ShedCause::RetriesExhausted,
        ShedCause::AdapterReplaced,
    ];
}

impl From<&FinishReason> for ShedCause {
    fn from(reason: &FinishReason) -> Self {
        match reason {
            FinishReason::Completed => ShedCause::Completed,
            FinishReason::DeadlineExceeded => ShedCause::DeadlineExceeded,
            FinishReason::CapacityExhausted => ShedCause::CapacityExhausted,
            FinishReason::Rejected { .. } => ShedCause::Rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counter_names_and_labels_are_distinct() {
        let names: HashSet<&str> = ShedCause::ALL.iter().map(|c| c.counter_name()).collect();
        assert_eq!(names.len(), ShedCause::ALL.len());
        let labels: HashSet<&str> = ShedCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), ShedCause::ALL.len());
    }

    #[test]
    fn engine_causes_keep_historical_counter_names() {
        assert_eq!(ShedCause::Completed.counter_name(), "serve.evict.completed");
        assert_eq!(
            ShedCause::DeadlineExceeded.counter_name(),
            "serve.evict.deadline"
        );
        assert_eq!(
            ShedCause::CapacityExhausted.counter_name(),
            "serve.evict.capacity"
        );
        assert_eq!(ShedCause::Rejected.counter_name(), "serve.evict.rejected");
    }

    #[test]
    fn finish_reasons_map_onto_engine_causes() {
        assert_eq!(
            ShedCause::from(&FinishReason::Completed),
            ShedCause::Completed
        );
        assert_eq!(
            ShedCause::from(&FinishReason::Rejected { reason: "x".into() }),
            ShedCause::Rejected
        );
        assert_eq!(
            ShedCause::from(&FinishReason::DeadlineExceeded),
            ShedCause::DeadlineExceeded
        );
    }

    #[test]
    fn adapter_causes_are_engine_level() {
        assert_eq!(
            ShedCause::AdapterReplaced.counter_name(),
            "serve.adapter.evict.replaced"
        );
    }
}
