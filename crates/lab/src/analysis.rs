//! Analysis tables and baseline gates over a finished run directory.
//!
//! `analyze_run` re-reads the run's spec copy plus every trial record
//! and writes JSONL tables under `analysis/`:
//!
//! * `metrics.jsonl` — one row per (task, variant, repeat, metric),
//!   deterministic trial metrics plus whitelisted counters;
//! * `summary.jsonl` — per (task, variant, metric) aggregation across
//!   repeats (count/min/max/p50/p95/total, nearest-rank percentiles);
//! * `deltas.jsonl` — per-variant p50 deltas and ratios against the
//!   task's first variant (deterministic A/B comparison);
//! * `timing.jsonl` / `timing_deltas.jsonl` — the same shapes over the
//!   wall-clock sidecars, aggregated by best (max) attempt — rates are
//!   higher-is-better, so max-of-repeats is best-of-N;
//! * `oracles.jsonl` — one row per differential oracle verdict.
//!
//! `check_run` then gates a run: every artefact it rests on — `run.json`,
//! each trial's three records, every analysis row — must exist, parse
//! and carry its exact schema tag; the generated baseline pins every
//! deterministic summary row exactly (plus a digest of the whole
//! metrics table), and the spec's declarative gates add tolerance-banded
//! assertions over timing ratios. `--update` regenerates the baseline
//! from the current run — baselines are generated, never hand-rolled.

use crate::schemas::{
    ExperimentSpec, GateSpec, LabError, TaskSpec, BASELINE_SCHEMA, DELTA_ROW_SCHEMA,
    METRIC_ROW_SCHEMA, ORACLE_ROW_SCHEMA, RUN_SUMMARY_SCHEMA, SUMMARY_ROW_SCHEMA,
    TIMING_ROW_SCHEMA, TRIAL_INPUT_SCHEMA, TRIAL_OUTPUT_SCHEMA, TRIAL_TIMING_SCHEMA,
};
use edge_llm_telemetry::{nearest_rank_index, Json};
use edge_llm_tensor::fnv1a64;
use std::path::Path;

// ---- aggregation primitives (unit-tested against naive references) ------

/// Nearest-rank percentile over unsorted samples: the smallest sample
/// such that at least `p`% of the set is ≤ it (`p` clamped to [0, 100];
/// `p = 0` yields the minimum). Returns `None` on an empty set. Shares
/// its rank computation with `LatencySummary::from_ns`, so lab tables
/// and fleet reports agree on what "p95" means.
pub fn percentile(samples: &[f64], p: u8) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank_index(p, sorted.len())])
}

/// Aggregate of one metric across a trial's repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Sum of all samples.
    pub total: f64,
}

/// Summarizes samples (order irrelevant). Returns `None` on an empty
/// set — the caller decides whether absence is an error.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let p50 = percentile(samples, 50)?;
    let p95 = percentile(samples, 95).expect("non-empty");
    let (mut min, mut max, mut total) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for &s in samples {
        min = min.min(s);
        max = max.max(s);
        total += s;
    }
    Some(Summary {
        count: samples.len(),
        min,
        max,
        p50,
        p95,
        total,
    })
}

// ---- row shapes ---------------------------------------------------------

/// A `metrics.jsonl` row.
pub fn metric_row(task: &str, variant: &str, repeat: usize, metric: &str, value: &Json) -> Json {
    Json::obj(vec![
        ("schema", Json::str(METRIC_ROW_SCHEMA)),
        ("task_id", Json::str(task)),
        ("variant", Json::str(variant)),
        ("repeat", Json::Int(repeat as i64)),
        ("metric", Json::str(metric)),
        ("value", value.clone()),
    ])
}

/// A `summary.jsonl` row.
pub fn summary_row(task: &str, variant: &str, metric: &str, s: &Summary) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SUMMARY_ROW_SCHEMA)),
        ("task_id", Json::str(task)),
        ("variant", Json::str(variant)),
        ("metric", Json::str(metric)),
        ("count", Json::Int(s.count as i64)),
        ("min", Json::Float(s.min)),
        ("max", Json::Float(s.max)),
        ("p50", Json::Float(s.p50)),
        ("p95", Json::Float(s.p95)),
        ("total", Json::Float(s.total)),
    ])
}

/// A `deltas.jsonl` / `timing_deltas.jsonl` row comparing `value`
/// against the task's first variant (`base`).
pub fn delta_row(task: &str, variant: &str, metric: &str, base: f64, value: f64) -> Json {
    let ratio = if base != 0.0 { value / base } else { 0.0 };
    Json::obj(vec![
        ("schema", Json::str(DELTA_ROW_SCHEMA)),
        ("task_id", Json::str(task)),
        ("variant", Json::str(variant)),
        ("metric", Json::str(metric)),
        ("base", Json::Float(base)),
        ("value", Json::Float(value)),
        ("delta", Json::Float(value - base)),
        ("ratio", Json::Float(ratio)),
    ])
}

/// A `timing.jsonl` row (wall-clock aggregate across repeats).
pub fn timing_row(task: &str, variant: &str, metric: &str, s: &Summary) -> Json {
    Json::obj(vec![
        ("schema", Json::str(TIMING_ROW_SCHEMA)),
        ("task_id", Json::str(task)),
        ("variant", Json::str(variant)),
        ("metric", Json::str(metric)),
        ("count", Json::Int(s.count as i64)),
        ("min", Json::Float(s.min)),
        ("max", Json::Float(s.max)),
        ("mean", Json::Float(s.total / s.count.max(1) as f64)),
    ])
}

/// An `oracles.jsonl` row.
pub fn oracle_row(task: &str, kind: &str, status: &str, detail: &str) -> Json {
    Json::obj(vec![
        ("schema", Json::str(ORACLE_ROW_SCHEMA)),
        ("task_id", Json::str(task)),
        ("kind", Json::str(kind)),
        ("status", Json::str(status)),
        ("detail", Json::str(detail)),
    ])
}

// ---- run directory access ----------------------------------------------

fn read_file(path: &Path) -> Result<String, LabError> {
    std::fs::read_to_string(path).map_err(|e| LabError::Io(format!("read {}: {e}", path.display())))
}

fn write_file(path: &Path, text: &str) -> Result<(), LabError> {
    std::fs::write(path, text).map_err(|e| LabError::Io(format!("write {}: {e}", path.display())))
}

/// Parses one record and holds it to its schema tag; `origin` names the
/// file (and line) in the error.
fn parse_record(origin: &str, text: &str, schema: &str) -> Result<Json, LabError> {
    let record = Json::parse(text).map_err(|e| LabError::Io(format!("malformed {origin}: {e}")))?;
    if record.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(LabError::Io(format!("{origin} is not a {schema} record")));
    }
    Ok(record)
}

fn read_record(path: &Path, schema: &str) -> Result<Json, LabError> {
    parse_record(&path.display().to_string(), &read_file(path)?, schema)
}

/// Reads the run's spec copy back from `<run>/experiment.jsonl`.
pub fn read_run_spec(run_dir: &Path) -> Result<ExperimentSpec, LabError> {
    ExperimentSpec::parse_jsonl(&read_file(&run_dir.join("experiment.jsonl"))?)
}

/// The trial directory name for (task, variant, repeat).
pub fn trial_id(task: &str, variant: &str, repeat: usize) -> String {
    format!("{task}.{variant}.r{repeat}")
}

struct Trial {
    task: String,
    variant: String,
    repeat: usize,
    output: Json,
    output_text: String,
    timing: Json,
}

fn load_trials(run_dir: &Path, spec: &ExperimentSpec) -> Result<Vec<Trial>, LabError> {
    let mut trials = Vec::new();
    for task in &spec.tasks {
        for variant in &task.variants {
            for repeat in 0..task.repeats {
                let dir =
                    run_dir
                        .join("trials")
                        .join(trial_id(&task.task_id, &variant.name, repeat));
                read_record(&dir.join("trial_input.json"), TRIAL_INPUT_SCHEMA)?;
                let output_path = dir.join("trial_output.json");
                let output_text = read_file(&output_path)?;
                let output = parse_record(
                    &output_path.display().to_string(),
                    &output_text,
                    TRIAL_OUTPUT_SCHEMA,
                )?;
                trials.push(Trial {
                    task: task.task_id.clone(),
                    variant: variant.name.clone(),
                    repeat,
                    output,
                    output_text,
                    timing: read_record(&dir.join("timing.json"), TRIAL_TIMING_SCHEMA)?,
                });
            }
        }
    }
    Ok(trials)
}

/// Flattens a trial record into (name, value) pairs: `metrics` keys
/// verbatim, `counters` keys prefixed `counter.`.
fn flatten(record: &Json) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for (section, prefix) in [("metrics", ""), ("timing", ""), ("counters", "counter.")] {
        if let Some(pairs) = record.get(section).and_then(Json::as_object) {
            for (k, v) in pairs {
                out.push((format!("{prefix}{k}"), v.clone()));
            }
        }
    }
    out
}

fn jsonl(rows: &[Json]) -> String {
    rows.iter()
        .map(Json::to_compact)
        .map(|r| r + "\n")
        .collect()
}

// ---- analyze ------------------------------------------------------------

/// What `analyze_run` found, beyond the tables it wrote.
pub struct AnalysisReport {
    /// Rows written per table, in table order.
    pub table_rows: Vec<(&'static str, usize)>,
    /// Human-readable oracle failures (empty = all oracles passed).
    pub oracle_failures: Vec<String>,
}

/// Builds every analysis table for a finished run directory. Oracle
/// *evaluation* failures land in the report (and `oracles.jsonl`), not
/// in `Err` — missing or malformed artifacts are errors.
pub fn analyze_run(run_dir: &Path) -> Result<AnalysisReport, LabError> {
    let spec = read_run_spec(run_dir)?;
    let trials = load_trials(run_dir, &spec)?;
    let analysis_dir = run_dir.join("analysis");
    std::fs::create_dir_all(&analysis_dir)
        .map_err(|e| LabError::Io(format!("create {}: {e}", analysis_dir.display())))?;

    // metrics.jsonl: deterministic values per repeat, spec order.
    let mut metric_rows = Vec::new();
    for t in &trials {
        for (name, value) in flatten(&t.output) {
            metric_rows.push(metric_row(&t.task, &t.variant, t.repeat, &name, &value));
        }
    }

    // summary.jsonl / deltas.jsonl over numeric deterministic metrics.
    let mut summary_rows = Vec::new();
    let mut delta_rows = Vec::new();
    let mut timing_rows = Vec::new();
    let mut timing_delta_rows = Vec::new();
    for task in &spec.tasks {
        let numeric = |record: fn(&Trial) -> &Json, variant: &str| {
            let mut named: Vec<(String, Vec<f64>)> = Vec::new();
            for t in trials
                .iter()
                .filter(|t| t.task == task.task_id && t.variant == variant)
            {
                for (name, value) in flatten(record(t)) {
                    if let Some(v) = value.as_f64() {
                        match named.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, vs)) => vs.push(v),
                            None => named.push((name, vec![v])),
                        }
                    }
                }
            }
            named
        };
        let mut base_p50: Vec<(String, f64)> = Vec::new();
        let mut base_best: Vec<(String, f64)> = Vec::new();
        for (vi, variant) in task.variants.iter().enumerate() {
            for (name, vs) in numeric(|t| &t.output, &variant.name) {
                let s = summarize(&vs).expect("repeats >= 1");
                summary_rows.push(summary_row(&task.task_id, &variant.name, &name, &s));
                if vi == 0 {
                    base_p50.push((name, s.p50));
                } else if let Some((_, b)) = base_p50.iter().find(|(n, _)| *n == name) {
                    delta_rows.push(delta_row(&task.task_id, &variant.name, &name, *b, s.p50));
                }
            }
            for (name, vs) in numeric(|t| &t.timing, &variant.name) {
                let s = summarize(&vs).expect("repeats >= 1");
                timing_rows.push(timing_row(&task.task_id, &variant.name, &name, &s));
                // best (max) attempt: best-of-N for higher-is-better rates
                if vi == 0 {
                    base_best.push((name, s.max));
                } else if let Some((_, b)) = base_best.iter().find(|(n, _)| *n == name) {
                    timing_delta_rows.push(delta_row(
                        &task.task_id,
                        &variant.name,
                        &name,
                        *b,
                        s.max,
                    ));
                }
            }
        }
    }

    // oracles.jsonl: implicit repeat identity + declared variants_equal.
    let mut oracle_rows = Vec::new();
    let mut failures = Vec::new();
    for task in &spec.tasks {
        check_oracles(task, &trials, &mut oracle_rows, &mut failures);
    }

    let tables: Vec<(&'static str, &Vec<Json>)> = vec![
        ("metrics.jsonl", &metric_rows),
        ("summary.jsonl", &summary_rows),
        ("deltas.jsonl", &delta_rows),
        ("timing.jsonl", &timing_rows),
        ("timing_deltas.jsonl", &timing_delta_rows),
        ("oracles.jsonl", &oracle_rows),
    ];
    let mut table_rows = Vec::new();
    for (name, rows) in &tables {
        write_file(&analysis_dir.join(name), &jsonl(rows))?;
        table_rows.push((*name, rows.len()));
    }
    Ok(AnalysisReport {
        table_rows,
        oracle_failures: failures,
    })
}

fn check_oracles(
    task: &TaskSpec,
    trials: &[Trial],
    rows: &mut Vec<Json>,
    failures: &mut Vec<String>,
) {
    let find = |variant: &str, repeat: usize| {
        trials
            .iter()
            .find(|t| t.task == task.task_id && t.variant == variant && t.repeat == repeat)
    };
    // Implicit oracle: repeats of a trial are byte-identical — repeats
    // exist to sample wall-clock, never to change results.
    for variant in &task.variants {
        let Some(first) = find(&variant.name, 0) else {
            continue;
        };
        let mut status = "pass";
        let mut detail = String::new();
        for repeat in 1..task.repeats {
            if let Some(t) = find(&variant.name, repeat) {
                if t.output_text != first.output_text {
                    status = "fail";
                    detail = format!(
                        "variant {:?} repeat {repeat} output differs from repeat 0",
                        variant.name
                    );
                    break;
                }
            }
        }
        if status == "fail" {
            failures.push(format!("{}: repeat_identical: {detail}", task.task_id));
        }
        rows.push(oracle_row(
            &task.task_id,
            "repeat_identical",
            status,
            &detail,
        ));
    }
    // Declared oracles: named deterministic metrics equal across the
    // scoped variants (repeat 0 speaks for all, given the above).
    for oracle in &task.oracles {
        let scope: Vec<&str> = if oracle.variants.is_empty() {
            task.variants.iter().map(|v| v.name.as_str()).collect()
        } else {
            oracle.variants.iter().map(String::as_str).collect()
        };
        let mut status = "pass";
        let mut detail = String::new();
        'metrics: for metric in &oracle.metrics {
            let mut reference: Option<(&str, &Json)> = None;
            for v in &scope {
                let value =
                    find(v, 0).and_then(|t| t.output.get("metrics").and_then(|m| m.get(metric)));
                let Some(value) = value else {
                    status = "fail";
                    detail = format!("metric {metric:?} missing on variant {v:?}");
                    break 'metrics;
                };
                match reference {
                    None => reference = Some((v, value)),
                    Some((rv, rval)) if rval != value => {
                        status = "fail";
                        detail = format!(
                            "metric {metric:?} differs: {rv:?} {} vs {v:?} {}",
                            rval.to_compact(),
                            value.to_compact()
                        );
                        break 'metrics;
                    }
                    Some(_) => {}
                }
            }
        }
        if status == "fail" {
            failures.push(format!("{}: variants_equal: {detail}", task.task_id));
        }
        rows.push(oracle_row(&task.task_id, "variants_equal", status, &detail));
    }
}

// ---- check / baselines --------------------------------------------------

/// FNV-1a 64 over bytes, hex-rendered — the digest pinning a run's
/// entire deterministic metrics table.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

fn load_table(run_dir: &Path, name: &str, schema: &str) -> Result<Vec<Json>, LabError> {
    let path = run_dir.join("analysis").join(name);
    parse_table(&path, &read_file(&path)?, schema)
}

fn parse_table(path: &Path, text: &str, schema: &str) -> Result<Vec<Json>, LabError> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let origin = format!("{} line {}", path.display(), i + 1);
        rows.push(parse_record(&origin, line, schema)?);
    }
    Ok(rows)
}

fn row_matches(row: &Json, task: &str, variant: &str, metric: &str) -> bool {
    let field = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("");
    field("task_id") == task
        && field("metric") == metric
        && (variant.is_empty() || field("variant") == variant)
}

fn eval_gate(
    gate: &GateSpec,
    task: &str,
    tables: &[(&str, Vec<Json>)],
    failures: &mut Vec<String>,
) {
    let table_name = format!("{}.jsonl", gate.table);
    let rows = tables
        .iter()
        .find(|(n, _)| *n == table_name)
        .map(|(_, r)| r.as_slice())
        .unwrap_or(&[]);
    let describe = format!(
        "{task}/{}/{} {}.{}",
        gate.variant, gate.metric, gate.table, gate.field
    );
    let Some(row) = rows
        .iter()
        .find(|r| row_matches(r, task, &gate.variant, &gate.metric))
    else {
        failures.push(format!("{describe}: no matching analysis row"));
        return;
    };
    let Some(value) = row.get(&gate.field).and_then(Json::as_f64) else {
        failures.push(format!(
            "{describe}: row has no numeric field {:?}",
            gate.field
        ));
        return;
    };
    let ok = match gate.op.as_str() {
        "ge" => value >= gate.value,
        "le" => value <= gate.value,
        _ => {
            let tol = gate.tol_abs.max(gate.tol_rel * gate.value.abs());
            (value - gate.value).abs() <= tol
        }
    };
    if !ok {
        failures.push(format!(
            "{describe}: {value} violates {} {} (tol_rel {}, tol_abs {})",
            gate.op, gate.value, gate.tol_rel, gate.tol_abs
        ));
    }
}

/// Builds the baseline JSON for a run: the metrics-table digest, an
/// exact-match entry per deterministic summary row, and the spec's
/// declarative gates (tolerance knobs included) for reference.
fn generate_baseline(spec: &ExperimentSpec, metrics_bytes: &[u8], summary: &[Json]) -> Json {
    let rows: Vec<Json> = summary
        .iter()
        .map(|r| {
            let field = |k: &str| r.get(k).cloned().unwrap_or(Json::Null);
            Json::obj(vec![
                ("task_id", field("task_id")),
                ("variant", field("variant")),
                ("metric", field("metric")),
                ("count", field("count")),
                ("p50", field("p50")),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(BASELINE_SCHEMA)),
        ("experiment", Json::str(&spec.name)),
        ("metrics_digest", Json::str(&digest(metrics_bytes))),
        ("rows", Json::Array(rows)),
    ])
}

/// What `check_run` concluded.
pub struct CheckReport {
    /// True when `--update` wrote a fresh baseline instead of checking.
    pub updated: bool,
    /// Gate/baseline violations (empty = pass).
    pub failures: Vec<String>,
    /// Checks evaluated (rows + digest + gates).
    pub checked: usize,
}

/// Gates a finished, analyzed run against `baseline_path`. With
/// `update`, regenerates the baseline from the run instead.
///
/// # Errors
///
/// [`LabError::Io`], naming the file, on a missing or malformed
/// artifact or one that does not carry its schema tag; violations are
/// reported in [`CheckReport::failures`], not as `Err`, so the CLI can
/// print all of them before failing.
pub fn check_run(
    run_dir: &Path,
    baseline_path: &Path,
    update: bool,
) -> Result<CheckReport, LabError> {
    let spec = read_run_spec(run_dir)?;
    read_record(&run_dir.join("run.json"), RUN_SUMMARY_SCHEMA)?;
    load_trials(run_dir, &spec)?;
    let metrics_path = run_dir.join("analysis").join("metrics.jsonl");
    let metrics_bytes = read_file(&metrics_path)?;
    parse_table(&metrics_path, &metrics_bytes, METRIC_ROW_SCHEMA)?;
    let tables: Vec<(&str, Vec<Json>)> = [
        ("summary.jsonl", SUMMARY_ROW_SCHEMA),
        ("deltas.jsonl", DELTA_ROW_SCHEMA),
        ("timing.jsonl", TIMING_ROW_SCHEMA),
        ("timing_deltas.jsonl", DELTA_ROW_SCHEMA),
        ("oracles.jsonl", ORACLE_ROW_SCHEMA),
    ]
    .into_iter()
    .map(|(n, schema)| load_table(run_dir, n, schema).map(|rows| (n, rows)))
    .collect::<Result<_, _>>()?;
    let summary = &tables[0].1;

    if update {
        let baseline = generate_baseline(&spec, metrics_bytes.as_bytes(), summary);
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| LabError::Io(format!("create {}: {e}", parent.display())))?;
        }
        write_file(baseline_path, &baseline.to_pretty())?;
        return Ok(CheckReport {
            updated: true,
            failures: Vec::new(),
            checked: 0,
        });
    }

    let baseline = read_record(baseline_path, BASELINE_SCHEMA)?;
    let mut failures = Vec::new();
    let mut checked = 0;

    // Oracle verdicts recorded by analyze must all be "pass".
    for row in &tables[4].1 {
        checked += 1;
        if row.get("status").and_then(Json::as_str) != Some("pass") {
            failures.push(format!("oracle failed: {}", row.to_compact()));
        }
    }

    // Exact digest over the whole deterministic metrics table.
    checked += 1;
    let want_digest = baseline
        .get("metrics_digest")
        .and_then(Json::as_str)
        .unwrap_or("");
    let have_digest = digest(metrics_bytes.as_bytes());
    let digest_ok = want_digest == have_digest;

    // Per-row exact matches give a readable diff when the digest moves.
    for want in baseline.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
        checked += 1;
        let key = |k: &str| want.get(k).and_then(Json::as_str).unwrap_or("");
        let (task, variant, metric) = (key("task_id"), key("variant"), key("metric"));
        let Some(have) = summary
            .iter()
            .find(|r| row_matches(r, task, variant, metric))
        else {
            failures.push(format!(
                "baseline row {task}/{variant}/{metric}: missing from run"
            ));
            continue;
        };
        for field in ["count", "p50"] {
            let (w, h) = (want.get(field), have.get(field));
            if w.and_then(Json::as_f64) != h.and_then(Json::as_f64) {
                failures.push(format!(
                    "baseline row {task}/{variant}/{metric}.{field}: run has {}, baseline {}",
                    h.map(Json::to_compact).unwrap_or_default(),
                    w.map(Json::to_compact).unwrap_or_default()
                ));
            }
        }
    }
    if !digest_ok {
        failures.push(format!(
            "metrics digest mismatch: run {have_digest}, baseline {want_digest} \
             (deterministic metrics drifted; regenerate with `lab check --update` \
             only if the change is intended)"
        ));
    }

    // Spec-declared tolerance gates (timing ratios and friends).
    for task in &spec.tasks {
        for gate in &task.gates {
            checked += 1;
            eval_gate(gate, &task.task_id, &tables, &mut failures);
        }
    }

    Ok(CheckReport {
        updated: false,
        failures,
        checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&v, 50), Some(2.0));
        assert_eq!(percentile(&v, 75), Some(3.0));
        assert_eq!(percentile(&v, 76), Some(4.0));
        assert_eq!(percentile(&v, 100), Some(4.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7.5], 95), Some(7.5));
    }

    #[test]
    fn summarize_matches_by_hand() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 3.0);
        assert_eq!(s.total, 6.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn gate_band_uses_larger_tolerance() {
        let rows =
            vec![Json::parse(r#"{"task_id":"t","variant":"v","metric":"m","p50":10.5}"#).unwrap()];
        let tables = vec![("summary.jsonl", rows)];
        let gate = |op: &str, value: f64, tol_rel: f64, tol_abs: f64| GateSpec {
            table: "summary".into(),
            variant: "v".into(),
            metric: "m".into(),
            field: "p50".into(),
            op: op.into(),
            value,
            tol_rel,
            tol_abs,
        };
        let mut f = Vec::new();
        eval_gate(&gate("band", 10.0, 0.1, 0.0), "t", &tables, &mut f);
        assert!(f.is_empty(), "{f:?}");
        eval_gate(&gate("band", 10.0, 0.01, 0.0), "t", &tables, &mut f);
        assert_eq!(f.len(), 1);
        f.clear();
        eval_gate(&gate("ge", 10.0, 0.0, 0.0), "t", &tables, &mut f);
        eval_gate(&gate("le", 10.0, 0.0, 0.0), "t", &tables, &mut f);
        assert_eq!(f.len(), 1, "ge passes, le fails: {f:?}");
    }

    #[test]
    fn digest_tracks_content() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
    }
}
