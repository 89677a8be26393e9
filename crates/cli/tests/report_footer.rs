//! The durations `edgellm` prints are read by `telemetry::timed`, so a
//! test clock pins them exactly. This file holds one test: a telemetry
//! session is process-wide, and no other test here may stamp events
//! through its clock.

use edge_llm_cli::{run, Command, Report, Runtime};
use edge_llm_telemetry::{self as telemetry, FakeClock};
use std::sync::Arc;

#[test]
fn the_report_footer_reads_the_telemetry_clock() {
    // F3 records no event of its own, so the footer's span reads the
    // clock exactly twice: at 0 and one 2.3 s tick later.
    telemetry::enable(Arc::new(FakeClock::with_tick(2_300_000_000)));
    let report = Command::Report(Report {
        quick: true,
        experiments: vec!["f3"],
    });
    let mut out = Vec::new();
    let ran = run(&report, &Runtime::default(), &mut out);
    let events = telemetry::disable();
    ran.unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.ends_with("[f3 regenerated in 2.3s]\n\n"), "{text}");
    assert_eq!(events.len(), 2, "one span, opened and closed: {events:?}");
}
