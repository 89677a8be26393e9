//! The benchmark's own spans: `bench.<layer>.<op>` around every call
//! into a layer's public functions, recorded through
//! `edge_llm_telemetry`, kept in memory and written as JSON lines when
//! the run ends.
//!
//! The workload code opens spans unconditionally; with recording off a
//! span is one relaxed atomic load, which is why the untraced run can
//! share every line of the traced one.

use crate::metrics::Outcome;
use edge_llm_telemetry::{self as telemetry, Event, MonotonicClock, SpanNode};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Root span of a workload's timed window; its direct `bench.*` children
/// must account for at least this share of it.
pub const WINDOW: &str = "bench.window";
pub const MIN_COVERAGE: f64 = 0.95;

/// Where run artefacts (traces, detail records) go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Turns span recording on for a traced run.
pub fn begin(traced: bool) {
    if traced {
        telemetry::enable(Arc::new(MonotonicClock::new()));
    }
}

/// A finished trace: the span forest of one run.
pub struct Trace {
    roots: Vec<SpanNode>,
}

/// Stops recording and writes the events to
/// `benchmark/out/trace_<workload>.jsonl`. `None` for an untraced run.
pub fn end(traced: bool, workload: &str) -> std::io::Result<Option<Trace>> {
    if !traced {
        return Ok(None);
    }
    let events: Vec<Event> = telemetry::disable();
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace_{workload}.jsonl"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    telemetry::write_jsonl(&mut file, &events)?;
    std::io::Write::flush(&mut file)?;
    Ok(Some(Trace {
        roots: telemetry::span_tree(&events),
    }))
}

impl Trace {
    /// Duration in milliseconds of every span named `name`, in open order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        fn walk(node: &SpanNode, name: &str, out: &mut Vec<f64>) {
            if node.name == name {
                out.push(node.duration_ns() as f64 / 1e6);
            }
            for c in &node.children {
                walk(c, name, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk(r, name, &mut out);
        }
        out
    }

    /// Share of the timed window covered by its direct `bench.*` child
    /// spans, over every window in the trace.
    pub fn window_coverage(&self) -> f64 {
        let (mut window_ns, mut covered_ns) = (0u64, 0u64);
        for w in self.roots.iter().filter(|r| r.name == WINDOW) {
            window_ns += w.duration_ns();
            covered_ns += w
                .children
                .iter()
                .filter(|c| c.name.starts_with("bench."))
                .map(SpanNode::duration_ns)
                .sum::<u64>();
        }
        if window_ns == 0 {
            0.0
        } else {
            covered_ns as f64 / window_ns as f64
        }
    }

    /// Reports the window coverage and checks it against [`MIN_COVERAGE`].
    pub fn check_coverage(&self, out: &mut Outcome) {
        let coverage = self.window_coverage();
        out.set("trace.span_coverage", coverage);
        out.check(
            "span_coverage",
            coverage >= MIN_COVERAGE,
            format!("bench spans cover {coverage:.4} of the timed window"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_telemetry::FakeClock;

    /// Recording is process-global, so one test owns it.
    #[test]
    fn coverage_counts_direct_bench_children_of_the_window() {
        // every clock reading advances 10 ns
        telemetry::enable(Arc::new(FakeClock::with_tick(10)));
        {
            let _w = telemetry::span(WINDOW); // opens at 0
            {
                let _a = telemetry::span("bench.model.tune_step"); // 10
                let _inner = telemetry::span("tune.step"); // 20..30
            } // a closes at 40
            {
                let _b = telemetry::span("bench.data.batch_at"); // 50..60
            }
        } // window closes at 70
        let trace = Trace {
            roots: telemetry::span_tree(&telemetry::disable()),
        };
        assert_eq!(trace.durations_ms("bench.model.tune_step"), vec![30e-6]);
        assert_eq!(trace.durations_ms("tune.step"), vec![10e-6]);
        assert!(trace.durations_ms("absent").is_empty());
        let expected = (30.0 + 10.0) / 70.0;
        assert!((trace.window_coverage() - expected).abs() < 1e-12);
    }
}
