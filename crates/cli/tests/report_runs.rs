//! One report pretrains each model once and adapts each run once. This
//! file holds one test: a telemetry session is process-wide, and no
//! other test here may record events into it.

use edge_llm::experiments::ALL_EXPERIMENTS;
use edge_llm_cli::{run, Command, Report, Runtime};
use edge_llm_telemetry::{self as telemetry, Event, FakeClock};
use std::sync::Arc;

#[test]
fn a_quick_report_pretrains_each_model_once_and_adapts_each_run_once() {
    telemetry::enable(Arc::new(FakeClock::with_tick(1)));
    let report = Command::Report(Report {
        quick: true,
        experiments: ALL_EXPERIMENTS.to_vec(),
    });
    let ran = run(&report, &Runtime::default(), &mut Vec::new());
    let events = telemetry::disable();
    ran.unwrap();
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| matches!(e, Event::SpanStart { name: n, .. } if *n == name))
            .count()
    };
    // The tied model and A1's untied one. Each table walked on its own
    // pretrains 22 times.
    assert_eq!(count("pipeline.prepare"), 2);
    // T1 4, T2 6, T3 2 (its full depth is T1's vanilla run), F1 2
    // (budget 1.0 is T1's vanilla run), A1 3 (its round-robin tied row is
    // T1's Edge-LLM run); F5 and A3 read T1's vanilla and Edge-LLM runs.
    assert_eq!(count("pipeline.adapt"), 17);
    // Nothing else trains: 40 pretraining and 60 adaptation steps each.
    assert_eq!(count("tune.step"), 2 * 40 + 17 * 60);
    // One profile per pretrained model: `prepare` profiles it, every LUC
    // run searches that profile, and F5 prints the tied model's. Before,
    // each LUC run profiled its model again (T1 1, T2 4, F1 2, A1 3) and
    // F5 profiled T1's adapted vanilla run, 11 profiles.
    assert_eq!(count("luc.profile"), 2);
}
