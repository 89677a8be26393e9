//! A prepared model is profiled only when something reads its profile.
//! This file holds one test: a telemetry session is process-wide, and no
//! other test here may record events into it.

use edge_llm::luc::CompressionPolicy;
use edge_llm::model::WindowSchedule;
use edge_llm::pipeline::{adapt, prepare, run_method, ExperimentConfig, Method};
use edge_llm::resilience::ResilienceConfig;
use edge_llm_cli::{run, Command, Report, Runtime};
use edge_llm_telemetry::{self as telemetry, Event, FakeClock};
use std::sync::Arc;

/// What `f` returns and how many `luc.profile` spans it opened.
fn profiles<T>(f: impl FnOnce() -> T) -> (T, usize) {
    telemetry::enable(Arc::new(FakeClock::with_tick(1)));
    let out = f();
    let events = telemetry::disable();
    let opened = events
        .iter()
        .filter(|e| matches!(e, Event::SpanStart { name, .. } if *name == "luc.profile"))
        .count();
    (out, opened)
}

#[test]
fn only_a_reader_of_the_profile_profiles_the_model() {
    let cfg = ExperimentConfig::smoke_test();
    // no LUC policy is searched for these methods
    for method in [
        Method::Vanilla,
        Method::UniformCompressed,
        Method::LastLayerOnly,
    ] {
        let (row, opened) = profiles(|| run_method(method, &cfg));
        row.unwrap();
        assert_eq!(opened, 0, "{method:?}");
    }
    let (row, opened) = profiles(|| run_method(Method::EdgeLlm, &cfg));
    row.unwrap();
    assert_eq!(opened, 1, "Edge-LLM");
    // T3 adapts dense schedules only
    let t3 = Command::Report(Report {
        quick: true,
        experiments: vec!["t3"],
    });
    let (ran, opened) = profiles(|| run(&t3, &Runtime::default(), &mut Vec::new()));
    ran.unwrap();
    assert_eq!(opened, 0, "report --t3");
    // Clones share one profile of the model as prepared, even when the
    // first read comes from a clone whose model was adapted since.
    let cfg = ExperimentConfig {
        pretrain_iterations: 2,
        ..cfg
    };
    let prepared = prepare(&cfg).unwrap();
    let mut clone = prepared.clone();
    let n = clone.model.n_layers();
    let res = ResilienceConfig::default();
    let identity = CompressionPolicy::identity(n);
    adapt(&mut clone, &cfg, &identity, WindowSchedule::FullDepth, &res).unwrap();
    let (got, opened) = profiles(|| clone.profile.get().unwrap());
    assert_eq!(opened, 1, "first read");
    let (again, opened) = profiles(|| prepared.profile.get().unwrap());
    assert_eq!(opened, 0, "a clone's read");
    assert_eq!(got, again);
    assert_eq!(got, prepare(&cfg).unwrap().profile.get().unwrap());
}
