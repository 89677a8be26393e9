//! Trial execution: expands an experiment spec into (task × repeat ×
//! variant) trials, runs each through its family driver with telemetry
//! captured, and writes the run directory.
//!
//! ```text
//! <out_dir>/runs/<run_id>/
//!   experiment.jsonl          verbatim spec copy (runs are self-contained)
//!   run.json                  deterministic run summary
//!   trials/<task>.<variant>.r<N>/
//!     trial_input.json        resolved plan (merged params, seed)
//!     trial_output.json       deterministic payload — byte-identical
//!                             across repeats and thread counts
//!     timing.json             wall-clock payload (rates, span/counter
//!                             aggregates that depend on the pool)
//! ```
//!
//! The determinism split is the load-bearing design decision: semantic
//! counters (`spec.*`, `serve.*`, `fleet.*`) count logical engine events
//! and land in `trial_output.json`; everything wall-clock or
//! pool-shaped (`pool.parallel_ops`, span timings, `tune.*` from a
//! model-cache miss) lands in `timing.json`. `tests/lab_determinism.rs`
//! holds `trial_output.json` byte-identical across invocations and
//! thread counts {1, 2, 4}.
//!
//! Trials run sequentially under a process-global lock: telemetry
//! recording is process-global, so concurrent capture would bleed
//! events between trials. A task runs repeat-major (`A.r0 B.r0 A.r1 …`)
//! so both arms of a best-of-N timing ratio see the same machine phases.

use crate::analysis;
use crate::families::run_family;
use crate::schemas::{
    check_name, ExperimentSpec, LabError, RUN_SUMMARY_SCHEMA, TRIAL_INPUT_SCHEMA,
    TRIAL_OUTPUT_SCHEMA, TRIAL_TIMING_SCHEMA,
};
use edge_llm_telemetry as telemetry;
use edge_llm_telemetry::Json;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Counter prefixes whose totals are pure functions of (params, seed):
/// logical engine events, identical at any thread count. Everything
/// else (pool scheduling, adaptation counters that only fire on a
/// model-cache miss) is wall-clock-shaped and goes to `timing.json`.
const DETERMINISTIC_COUNTERS: &[&str] = &["spec.", "serve.", "fleet."];

/// Options for [`run_experiment`].
pub struct RunOptions {
    /// Root directory for runs (the CLI default is `.lab`).
    pub out_dir: PathBuf,
    /// Explicit run id; `None` derives `<name>-<fnv64(spec)>`, so the
    /// same spec text always lands in the same directory.
    pub run_id: Option<String>,
}

/// Where a run landed and what it contained.
pub struct RunOutcome {
    /// The resolved run id.
    pub run_id: String,
    /// `<out_dir>/runs/<run_id>`.
    pub run_dir: PathBuf,
    /// Trials executed.
    pub trials: usize,
}

fn trial_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn write_file(path: &Path, text: &str) -> Result<(), LabError> {
    std::fs::write(path, text).map_err(|e| LabError::Io(format!("write {}: {e}", path.display())))
}

/// Derives the default run id from the spec text: name plus a content
/// digest, so edited specs never silently reuse a stale directory.
pub fn default_run_id(spec: &ExperimentSpec, spec_text: &str) -> String {
    format!("{}-{}", spec.name, analysis::digest(spec_text.as_bytes()))
}

/// Executes every trial of `spec` into a fresh run directory. The spec
/// text is stored verbatim so `analyze`/`check` need only the run dir.
///
/// # Errors
///
/// [`LabError::Spec`] for a run id outside `[A-Za-z0-9_-]+`, before
/// anything is created; [`LabError::Trial`] (with trial context) if any
/// engine run fails — the failing trial's record is still written with
/// `status: "error"` for postmortems; [`LabError::Io`] on filesystem
/// trouble.
pub fn run_experiment(
    spec: &ExperimentSpec,
    spec_text: &str,
    opts: &RunOptions,
) -> Result<RunOutcome, LabError> {
    let run_id = opts
        .run_id
        .clone()
        .unwrap_or_else(|| default_run_id(spec, spec_text));
    check_name("run id", &run_id)?;
    let run_dir = opts.out_dir.join("runs").join(&run_id);
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)
            .map_err(|e| LabError::Io(format!("clear {}: {e}", run_dir.display())))?;
    }
    std::fs::create_dir_all(run_dir.join("trials"))
        .map_err(|e| LabError::Io(format!("create {}: {e}", run_dir.display())))?;
    write_file(&run_dir.join("experiment.jsonl"), spec_text)?;

    let mut trial_ids = Vec::new();
    for task in &spec.tasks {
        for repeat in 0..task.repeats {
            for variant in &task.variants {
                let params = crate::schemas::merge_params(&task.params, &variant.params);
                let trial_id = analysis::trial_id(&task.task_id, &variant.name, repeat);
                let trial_dir = run_dir.join("trials").join(&trial_id);
                std::fs::create_dir_all(&trial_dir)
                    .map_err(|e| LabError::Io(format!("create {}: {e}", trial_dir.display())))?;

                let input = Json::obj(vec![
                    ("schema", Json::str(TRIAL_INPUT_SCHEMA)),
                    ("run_id", Json::str(&run_id)),
                    ("trial_id", Json::str(&trial_id)),
                    ("experiment", Json::str(&spec.name)),
                    ("task_id", Json::str(&task.task_id)),
                    ("family", Json::str(task.family.name())),
                    ("variant", Json::str(&variant.name)),
                    ("repeat", Json::Int(repeat as i64)),
                    ("seed", Json::Int(task.seed as i64)),
                    ("params", params.clone()),
                ]);
                write_file(&trial_dir.join("trial_input.json"), &input.to_pretty())?;

                let (output, timing, failure) = execute_trial(
                    &trial_id,
                    &task.task_id,
                    &variant.name,
                    task.family,
                    task.seed,
                    &params,
                );
                write_file(&trial_dir.join("trial_output.json"), &output.to_pretty())?;
                write_file(&trial_dir.join("timing.json"), &timing.to_pretty())?;
                if let Some(err) = failure {
                    return Err(err);
                }
                trial_ids.push(trial_id);
            }
        }
    }

    let run = Json::obj(vec![
        ("schema", Json::str(RUN_SUMMARY_SCHEMA)),
        ("run_id", Json::str(&run_id)),
        ("experiment", Json::str(&spec.name)),
        ("seed", Json::Int(spec.seed as i64)),
        ("tasks", Json::Int(spec.tasks.len() as i64)),
        ("trials", Json::Int(trial_ids.len() as i64)),
        (
            "trial_ids",
            Json::Array(trial_ids.iter().map(|t| Json::str(t)).collect()),
        ),
    ]);
    write_file(&run_dir.join("run.json"), &run.to_pretty())?;
    Ok(RunOutcome {
        run_id,
        run_dir,
        trials: trial_ids.len(),
    })
}

/// Runs one trial with telemetry captured, partitioning the results
/// into the deterministic record, the timing sidecar, and (on engine
/// failure) the error to surface after both files are on disk.
fn execute_trial(
    trial_id: &str,
    task_id: &str,
    variant: &str,
    family: crate::schemas::Family,
    seed: u64,
    params: &Json,
) -> (Json, Json, Option<LabError>) {
    // The lock guards no data, only the process-wide telemetry session,
    // so a trial that panicked while holding it leaves nothing to repair.
    let _guard = trial_lock().lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::enable(Arc::new(telemetry::MonotonicClock::new()));
    let t0 = Instant::now();
    let result = run_family(family, seed, params);
    let wall_ns = t0.elapsed().as_nanos() as i64;
    let events = telemetry::disable();

    let totals = telemetry::counter_totals(&events);
    let mut det_counters = Vec::new();
    let mut wall_counters = Vec::new();
    for (name, total) in &totals {
        let pair = (*name, Json::uint(*total));
        if DETERMINISTIC_COUNTERS.iter().any(|p| name.starts_with(p)) {
            det_counters.push(pair);
        } else {
            wall_counters.push(pair);
        }
    }
    let spans: Vec<(&str, Json)> = telemetry::aggregate_span_ns(&events)
        .iter()
        .map(|(name, (count, total_ns))| {
            (
                *name,
                Json::obj(vec![
                    ("count", Json::Int(*count as i64)),
                    ("total_ns", Json::uint(*total_ns)),
                ]),
            )
        })
        .collect();

    match result {
        Ok(r) => {
            // No trial_id (it embeds the repeat index) — the output
            // record must be byte-identical across repeats.
            let output = Json::obj(vec![
                ("schema", Json::str(TRIAL_OUTPUT_SCHEMA)),
                ("task_id", Json::str(task_id)),
                ("variant", Json::str(variant)),
                ("status", Json::str("ok")),
                ("metrics", Json::Object(r.metrics)),
                ("counters", Json::obj(det_counters)),
            ]);
            let timing = Json::obj(vec![
                ("schema", Json::str(TRIAL_TIMING_SCHEMA)),
                ("trial_id", Json::str(trial_id)),
                ("wall_ns", Json::Int(wall_ns)),
                ("timing", Json::Object(r.timing)),
                ("span_ns", Json::obj(spans)),
                ("counters", Json::obj(wall_counters)),
            ]);
            (output, timing, None)
        }
        Err(e) => {
            let output = Json::obj(vec![
                ("schema", Json::str(TRIAL_OUTPUT_SCHEMA)),
                ("task_id", Json::str(task_id)),
                ("variant", Json::str(variant)),
                ("status", Json::str("error")),
                ("error", Json::str(&e.to_string())),
            ]);
            let timing = Json::obj(vec![
                ("schema", Json::str(TRIAL_TIMING_SCHEMA)),
                ("trial_id", Json::str(trial_id)),
                ("wall_ns", Json::Int(wall_ns)),
            ]);
            let err = match e {
                LabError::Spec(m) => LabError::Spec(format!("trial {trial_id}: {m}")),
                other => LabError::Trial(format!("trial {trial_id}: {other}")),
            };
            (output, timing, Some(err))
        }
    }
}
