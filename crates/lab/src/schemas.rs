//! The lab's declarative surface: experiment specs (`tasks.jsonl`
//! parsed into [`ExperimentSpec`]), the per-trial record shapes the
//! runner writes, and a structural schema descriptor so snapshot tests
//! catch drift in any of them.
//!
//! An experiment file is JSON lines: a header object first, then one
//! task per line. Blank lines and `#` comment lines are skipped:
//!
//! ```text
//! {"schema": "lab.experiment.v1", "experiment": "smoke", "seed": 61}
//! {"task_id": "spec-q", "family": "spec_decode", "repeats": 2, "params": {...},
//!  "variants": [{"name": "greedy", "params": {"mode": "greedy"}},
//!               {"name": "spec",   "params": {"mode": "spec", "depth": 1, "k": 4}}],
//!  "oracles": [{"kind": "variants_equal", "metrics": ["token_checksum"]}],
//!  "gates":   [{"table": "timing_deltas", "variant": "spec",
//!               "metric": "tokens_per_s", "field": "ratio", "op": "ge", "value": 1.0}]}
//! ```
//!
//! Tasks are *scenarios*, variants are *A/B plans over the same
//! scenario*, repeats re-run a trial to sample wall-clock jitter —
//! deterministic outputs are byte-identical across repeats, and the
//! runner holds every trial to that (the implicit `repeat_identical`
//! oracle).

use crate::json::Json;
use edge_llm_tensor::fnv1a64;
use std::fmt;

/// Schema tag on experiment spec headers.
pub const EXPERIMENT_SCHEMA: &str = "lab.experiment.v1";
/// Schema tag on `trial_input.json`.
pub const TRIAL_INPUT_SCHEMA: &str = "lab.trial_input.v1";
/// Schema tag on `trial_output.json` (deterministic payload only).
pub const TRIAL_OUTPUT_SCHEMA: &str = "lab.trial_output.v1";
/// Schema tag on `timing.json` (wall-clock payload, never gated exactly).
pub const TRIAL_TIMING_SCHEMA: &str = "lab.trial_timing.v1";
/// Schema tag on `analysis/metrics.jsonl` rows.
pub const METRIC_ROW_SCHEMA: &str = "lab.metric_row.v1";
/// Schema tag on `analysis/summary.jsonl` rows.
pub const SUMMARY_ROW_SCHEMA: &str = "lab.summary_row.v1";
/// Schema tag on `analysis/deltas.jsonl` and `analysis/timing_deltas.jsonl` rows.
pub const DELTA_ROW_SCHEMA: &str = "lab.delta_row.v1";
/// Schema tag on `analysis/timing.jsonl` rows.
pub const TIMING_ROW_SCHEMA: &str = "lab.timing_row.v1";
/// Schema tag on `analysis/oracles.jsonl` rows.
pub const ORACLE_ROW_SCHEMA: &str = "lab.oracle_row.v1";
/// Schema tag on `run.json`.
pub const RUN_SUMMARY_SCHEMA: &str = "lab.run.v1";
/// Schema tag on baseline files under `experiments/baselines/`.
pub const BASELINE_SCHEMA: &str = "lab.baseline.v1";

/// Anything the lab can fail on: spec parsing, trial execution, I/O, or
/// a failed check.
#[derive(Debug)]
pub enum LabError {
    /// The experiment spec (or a baseline) did not parse or validate.
    Spec(String),
    /// A trial's engine run failed.
    Trial(String),
    /// Filesystem trouble under the run directory.
    Io(String),
    /// An oracle or baseline gate failed.
    Check(String),
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Spec(m) => write!(f, "spec error: {m}"),
            LabError::Trial(m) => write!(f, "trial error: {m}"),
            LabError::Io(m) => write!(f, "io error: {m}"),
            LabError::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl std::error::Error for LabError {}

/// The engine a task drives. Every family runs *this repo's* code
/// in-process — the lab never shells out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Greedy vs self-speculative single-stream decode.
    SpecDecode,
    /// Multi-tenant adapter serving over one packed base.
    Tenants,
    /// Sharded fleet over a seeded traffic scenario.
    Fleet,
    /// Single-stream decode over a packed model: integer vs row-dequant
    /// datapath, packed vs lazy.
    Igemm,
    /// Windowed adaptation steps under a LUC policy: telemetry recording
    /// on vs off.
    Tune,
}

impl Family {
    /// The spec-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            Family::SpecDecode => "spec_decode",
            Family::Tenants => "tenants",
            Family::Fleet => "fleet",
            Family::Igemm => "igemm",
            Family::Tune => "tune",
        }
    }

    /// Parses the spec-file spelling.
    pub fn parse(name: &str) -> Option<Family> {
        match name {
            "spec_decode" => Some(Family::SpecDecode),
            "tenants" => Some(Family::Tenants),
            "fleet" => Some(Family::Fleet),
            "igemm" => Some(Family::Igemm),
            "tune" => Some(Family::Tune),
            _ => None,
        }
    }
}

/// One A/B arm of a task: a name plus family-specific parameter
/// overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Variant name (unique within the task; the first variant is the
    /// delta baseline).
    pub name: String,
    /// Family-specific parameters merged over the task's `params`.
    pub params: Json,
}

/// A differential constraint the runner checks after a task's trials
/// complete.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSpec {
    /// Constraint kind; currently `variants_equal` (the named
    /// deterministic metrics must be identical across the listed
    /// variants). `repeat_identical` is implicit on every task.
    pub kind: String,
    /// Metrics the constraint compares.
    pub metrics: Vec<String>,
    /// Variants in scope (empty = all of the task's variants).
    pub variants: Vec<String>,
}

/// A declarative assertion evaluated by `lab check` against the run's
/// analysis tables (and copied into generated baselines).
#[derive(Debug, Clone, PartialEq)]
pub struct GateSpec {
    /// Analysis table: `summary`, `deltas`, `timing`, or `timing_deltas`.
    pub table: String,
    /// Variant the row belongs to (empty matches delta rows' variant
    /// column too).
    pub variant: String,
    /// Metric name.
    pub metric: String,
    /// Row field to compare (`p50`, `max`, `ratio`, `delta`, ...).
    pub field: String,
    /// Comparison: `ge`, `le`, or `band` (absolute/relative tolerance).
    pub op: String,
    /// Reference value.
    pub value: f64,
    /// Relative tolerance for `band`.
    pub tol_rel: f64,
    /// Absolute tolerance for `band`.
    pub tol_abs: f64,
}

/// One scenario line of an experiment file.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Unique task id.
    pub task_id: String,
    /// Engine family.
    pub family: Family,
    /// Seed for every random draw the trial makes (defaults to the
    /// experiment seed).
    pub seed: u64,
    /// Times each (task, variant) trial runs. Deterministic outputs are
    /// identical across repeats; wall-clock timing is not.
    pub repeats: usize,
    /// Family-specific scenario parameters.
    pub params: Json,
    /// A/B variant plans (at least one).
    pub variants: Vec<Variant>,
    /// Differential constraints across variants.
    pub oracles: Vec<OracleSpec>,
    /// Declarative gates copied into generated baselines.
    pub gates: Vec<GateSpec>,
}

/// A parsed experiment file.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (from the header line).
    pub name: String,
    /// Default seed for tasks that do not set one.
    pub seed: u64,
    /// The scenario grid.
    pub tasks: Vec<TaskSpec>,
}

/// Experiment, task, variant and run names become directory names —
/// `runs/<run_id>/trials/<task>.<variant>.r<N>` — so they are held to
/// `[A-Za-z0-9_-]+`: no separator or `..` to climb out of the run
/// directory, and no `.` that would let two (task, variant) pairs share
/// one trial directory.
pub(crate) fn check_name(what: &str, name: &str) -> Result<(), LabError> {
    let ok = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    if name.is_empty() || !name.bytes().all(ok) {
        return Err(LabError::Spec(format!(
            "{what} {name:?} must match [A-Za-z0-9_-]+"
        )));
    }
    Ok(())
}

fn field_str(obj: &Json, key: &str, ctx: &str) -> Result<String, LabError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| LabError::Spec(format!("{ctx}: missing string field {key:?}")))
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, LabError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .filter(|i| *i >= 0)
            .map(|i| i as u64)
            .ok_or_else(|| LabError::Spec(format!("field {key:?} must be a non-negative integer"))),
    }
}

impl ExperimentSpec {
    /// Parses an experiment file (JSON lines; `#` comments and blank
    /// lines skipped; header object first, then one task per line).
    ///
    /// # Errors
    ///
    /// [`LabError::Spec`] on malformed JSON, a missing/duplicate field,
    /// an unknown family, duplicate task/variant ids, or an experiment,
    /// task or variant name outside `[A-Za-z0-9_-]+`.
    pub fn parse_jsonl(text: &str) -> Result<ExperimentSpec, LabError> {
        let mut header: Option<(String, u64)> = None;
        let mut tasks: Vec<TaskSpec> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let n = lineno + 1;
            let obj = Json::parse(line).map_err(|e| LabError::Spec(format!("line {n}: {e}")))?;
            if header.is_none() {
                let schema = field_str(&obj, "schema", &format!("line {n} (header)"))?;
                if schema != EXPERIMENT_SCHEMA {
                    return Err(LabError::Spec(format!(
                        "line {n}: unsupported experiment schema {schema:?} \
                         (expected {EXPERIMENT_SCHEMA:?})"
                    )));
                }
                let name = field_str(&obj, "experiment", &format!("line {n} (header)"))?;
                check_name("experiment", &name)
                    .map_err(|e| LabError::Spec(format!("line {n}: {e}")))?;
                let seed = field_u64(&obj, "seed", 0)?;
                header = Some((name, seed));
                continue;
            }
            let (_, default_seed) = header.as_ref().expect("header parsed above");
            let task = Self::parse_task(&obj, *default_seed)
                .map_err(|e| LabError::Spec(format!("line {n}: {e}")))?;
            if tasks.iter().any(|t| t.task_id == task.task_id) {
                return Err(LabError::Spec(format!(
                    "line {n}: duplicate task_id {:?}",
                    task.task_id
                )));
            }
            tasks.push(task);
        }
        let Some((name, seed)) = header else {
            return Err(LabError::Spec(
                "empty experiment file (no header line)".into(),
            ));
        };
        if tasks.is_empty() {
            return Err(LabError::Spec(format!(
                "experiment {name:?} declares no tasks"
            )));
        }
        Ok(ExperimentSpec { name, seed, tasks })
    }

    fn parse_task(obj: &Json, default_seed: u64) -> Result<TaskSpec, LabError> {
        let task_id = field_str(obj, "task_id", "task")?;
        check_name("task_id", &task_id)?;
        let family_name = field_str(obj, "family", &format!("task {task_id:?}"))?;
        let family = Family::parse(&family_name).ok_or_else(|| {
            LabError::Spec(format!(
                "task {task_id:?}: unknown family {family_name:?} \
                 (spec_decode|tenants|fleet|igemm|tune)"
            ))
        })?;
        let seed = field_u64(obj, "seed", default_seed)?;
        let repeats = field_u64(obj, "repeats", 1)?.max(1) as usize;
        let params = obj
            .get("params")
            .cloned()
            .unwrap_or(Json::Object(Vec::new()));
        if params.as_object().is_none() {
            return Err(LabError::Spec(format!(
                "task {task_id:?}: params must be an object"
            )));
        }
        let mut variants = Vec::new();
        if let Some(items) = obj.get("variants").and_then(Json::as_array) {
            for v in items {
                let name = field_str(v, "name", &format!("task {task_id:?} variant"))?;
                check_name(&format!("task {task_id:?} variant"), &name)?;
                let vp = v.get("params").cloned().unwrap_or(Json::Object(Vec::new()));
                if vp.as_object().is_none() {
                    return Err(LabError::Spec(format!(
                        "task {task_id:?} variant {name:?}: params must be an object"
                    )));
                }
                if variants.iter().any(|x: &Variant| x.name == name) {
                    return Err(LabError::Spec(format!(
                        "task {task_id:?}: duplicate variant {name:?}"
                    )));
                }
                variants.push(Variant { name, params: vp });
            }
        }
        if variants.is_empty() {
            variants.push(Variant {
                name: "base".to_string(),
                params: Json::Object(Vec::new()),
            });
        }
        let mut oracles = Vec::new();
        if let Some(items) = obj.get("oracles").and_then(Json::as_array) {
            for o in items {
                let kind = field_str(o, "kind", &format!("task {task_id:?} oracle"))?;
                if kind != "variants_equal" {
                    return Err(LabError::Spec(format!(
                        "task {task_id:?}: unknown oracle kind {kind:?}"
                    )));
                }
                let metrics = str_list(o.get("metrics"));
                if metrics.is_empty() {
                    return Err(LabError::Spec(format!(
                        "task {task_id:?}: oracle lists no metrics"
                    )));
                }
                let scope = str_list(o.get("variants"));
                for v in &scope {
                    if !variants.iter().any(|x| &x.name == v) {
                        return Err(LabError::Spec(format!(
                            "task {task_id:?}: oracle names unknown variant {v:?}"
                        )));
                    }
                }
                oracles.push(OracleSpec {
                    kind,
                    metrics,
                    variants: scope,
                });
            }
        }
        let mut gates = Vec::new();
        if let Some(items) = obj.get("gates").and_then(Json::as_array) {
            for g in items {
                gates.push(Self::parse_gate(g, &task_id)?);
            }
        }
        Ok(TaskSpec {
            task_id,
            family,
            seed,
            repeats,
            params,
            variants,
            oracles,
            gates,
        })
    }

    fn parse_gate(g: &Json, task_id: &str) -> Result<GateSpec, LabError> {
        let ctx = format!("task {task_id:?} gate");
        let table = field_str(g, "table", &ctx)?;
        if !matches!(
            table.as_str(),
            "summary" | "deltas" | "timing" | "timing_deltas"
        ) {
            return Err(LabError::Spec(format!(
                "{ctx}: unknown table {table:?} (summary|deltas|timing|timing_deltas)"
            )));
        }
        let op = field_str(g, "op", &ctx)?;
        if !matches!(op.as_str(), "ge" | "le" | "band") {
            return Err(LabError::Spec(format!(
                "{ctx}: unknown op {op:?} (ge|le|band)"
            )));
        }
        let value = g
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| LabError::Spec(format!("{ctx}: missing numeric field \"value\"")))?;
        let default_field = if table.ends_with("deltas") {
            "ratio"
        } else {
            "p50"
        };
        Ok(GateSpec {
            table,
            variant: g
                .get("variant")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            metric: field_str(g, "metric", &ctx)?,
            field: g
                .get("field")
                .and_then(Json::as_str)
                .unwrap_or(default_field)
                .to_string(),
            op,
            value,
            tol_rel: g.get("tol_rel").and_then(Json::as_f64).unwrap_or(0.0),
            tol_abs: g.get("tol_abs").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

fn str_list(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// Merges variant params over task params (variant wins, key order:
/// task keys first, then new variant keys).
pub fn merge_params(task: &Json, variant: &Json) -> Json {
    let mut pairs: Vec<(String, Json)> = task.as_object().unwrap_or(&[]).to_vec();
    for (k, v) in variant.as_object().unwrap_or(&[]) {
        match pairs.iter_mut().find(|(pk, _)| pk == k) {
            Some((_, pv)) => *pv = v.clone(),
            None => pairs.push((k.clone(), v.clone())),
        }
    }
    Json::Object(pairs)
}

/// FNV-1a 64 over a token stream, rendered as a fixed-width hex string —
/// the lab's compact deterministic fingerprint of a decode output.
pub fn token_checksum(tokens: &[usize]) -> String {
    let bytes: Vec<u8> = tokens
        .iter()
        .flat_map(|&t| (t as u64).to_le_bytes())
        .collect();
    format!("{:016x}", fnv1a64(&bytes))
}

/// Renders the structural schema of a JSON value: one `path: type` line
/// per field, arrays described by their first element. Golden tests
/// snapshot this over representative records so any field add, remove,
/// rename, or type change fails loudly.
pub fn schema_of(value: &Json) -> String {
    let mut lines = Vec::new();
    walk_schema(value, "", &mut lines);
    lines.join("\n") + "\n"
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "int",
        Json::Float(_) => "float",
        Json::Str(_) => "str",
        Json::Array(_) => "array",
        Json::Object(_) => "object",
    }
}

fn walk_schema(v: &Json, path: &str, out: &mut Vec<String>) {
    match v {
        Json::Object(pairs) => {
            if path.is_empty() {
                out.push("object".to_string());
            } else {
                out.push(format!("{path}: object"));
            }
            for (k, child) in pairs {
                let child_path = if path.is_empty() {
                    format!("  .{k}")
                } else {
                    format!("{path}.{k}")
                };
                walk_schema(child, &child_path, out);
            }
        }
        Json::Array(items) => {
            out.push(format!("{path}: array"));
            if let Some(first) = items.first() {
                walk_schema(first, &format!("{path}[]"), out);
            }
        }
        other => out.push(format!("{path}: {}", type_name(other))),
    }
}

/// A representative `trial_input.json` — every field the runner writes,
/// with placeholder values. Snapshot material for the schema golden.
pub fn sample_trial_input() -> Json {
    Json::obj(vec![
        ("schema", Json::str(TRIAL_INPUT_SCHEMA)),
        ("run_id", Json::str("smoke-0123456789abcdef")),
        ("trial_id", Json::str("spec-q.greedy.r0")),
        ("experiment", Json::str("smoke")),
        ("task_id", Json::str("spec-q")),
        ("family", Json::str("spec_decode")),
        ("variant", Json::str("greedy")),
        ("repeat", Json::Int(0)),
        ("seed", Json::Int(61)),
        (
            "params",
            Json::obj(vec![
                ("mode", Json::str("greedy")),
                ("decode_tokens", Json::Int(48)),
            ]),
        ),
    ])
}

/// A representative `trial_output.json` (deterministic payload only —
/// byte-identical across repeats and thread counts, so it names the
/// task and variant but never the repeat).
pub fn sample_trial_output() -> Json {
    Json::obj(vec![
        ("schema", Json::str(TRIAL_OUTPUT_SCHEMA)),
        ("task_id", Json::str("spec-q")),
        ("variant", Json::str("greedy")),
        ("status", Json::str("ok")),
        (
            "metrics",
            Json::obj(vec![
                ("tokens_emitted", Json::Int(48)),
                ("token_checksum", Json::str("00000000deadbeef")),
                ("acceptance_rate", Json::Float(1.0)),
            ]),
        ),
        (
            "counters",
            Json::obj(vec![("spec.draft_tokens", Json::Int(128))]),
        ),
    ])
}

/// A representative `timing.json` (wall-clock payload — varies run to
/// run, never byte-compared).
pub fn sample_trial_timing() -> Json {
    Json::obj(vec![
        ("schema", Json::str(TRIAL_TIMING_SCHEMA)),
        ("trial_id", Json::str("spec-q.greedy.r0")),
        ("wall_ns", Json::Int(123456789)),
        (
            "timing",
            Json::obj(vec![("tokens_per_s", Json::Float(512.5))]),
        ),
        (
            "span_ns",
            Json::obj(vec![(
                "spec.verify",
                Json::obj(vec![
                    ("count", Json::Int(12)),
                    ("total_ns", Json::Int(98765)),
                ]),
            )]),
        ),
        (
            "counters",
            Json::obj(vec![("pool.parallel_ops", Json::Int(64))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
# a comment
{"schema": "lab.experiment.v1", "experiment": "demo", "seed": 9}

{"task_id": "t1", "family": "fleet", "repeats": 2, "params": {"scenario": "steady", "workers": 1}, "variants": [{"name": "w1"}, {"name": "w2", "params": {"workers": 2}}], "oracles": [{"kind": "variants_equal", "metrics": ["tokens_generated"]}], "gates": [{"table": "summary", "variant": "w1", "metric": "served", "op": "band", "value": 24.0}]}
"#;

    #[test]
    fn parses_header_tasks_variants_oracles_gates() {
        let spec = ExperimentSpec::parse_jsonl(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.tasks.len(), 1);
        let t = &spec.tasks[0];
        assert_eq!(t.family, Family::Fleet);
        assert_eq!(t.seed, 9, "task seed defaults to the experiment seed");
        assert_eq!(t.repeats, 2);
        assert_eq!(t.variants.len(), 2);
        assert_eq!(t.variants[1].name, "w2");
        assert_eq!(t.oracles.len(), 1);
        assert_eq!(t.gates.len(), 1);
        assert_eq!(t.gates[0].field, "p50", "summary gates default to p50");
    }

    #[test]
    fn rejects_malformed_specs() {
        let cases = [
            "",
            "{\"schema\": \"nope\", \"experiment\": \"x\"}",
            "{\"schema\": \"lab.experiment.v1\", \"experiment\": \"x\"}",
            "{\"schema\": \"lab.experiment.v1\", \"experiment\": \"x\"}\n{\"task_id\": \"a\"}",
            "{\"schema\": \"lab.experiment.v1\", \"experiment\": \"x\"}\n\
             {\"task_id\": \"a\", \"family\": \"warp\"}",
        ];
        for text in cases {
            assert!(
                ExperimentSpec::parse_jsonl(text).is_err(),
                "{text:?} parsed"
            );
        }
        // duplicate task ids
        let dup = "{\"schema\": \"lab.experiment.v1\", \"experiment\": \"x\"}\n\
                   {\"task_id\": \"a\", \"family\": \"fleet\"}\n\
                   {\"task_id\": \"a\", \"family\": \"fleet\"}";
        assert!(ExperimentSpec::parse_jsonl(dup).is_err());
        // names become paths: nothing that climbs out of the run
        // directory, and no dot — task "a.b" / variant "c" and task "a" /
        // variant "b.c" would share the trial directory a.b.c.r0
        let named = |experiment: &str, task: &str, variant: &str| {
            ExperimentSpec::parse_jsonl(&format!(
                "{{\"schema\": \"lab.experiment.v1\", \"experiment\": \"{experiment}\"}}\n\
                 {{\"task_id\": \"{task}\", \"family\": \"fleet\", \
                 \"variants\": [{{\"name\": \"{variant}\"}}]}}"
            ))
        };
        assert!(named("x", "a", "b").is_ok());
        for (experiment, task, variant) in [
            ("x", "a/../../x", "b"),
            ("x", "a.b", "c"),
            ("x", "a", "b.c"),
            ("x", "a", ""),
            ("../x", "a", "b"),
        ] {
            let err = named(experiment, task, variant).unwrap_err();
            assert!(matches!(err, LabError::Spec(_)), "{err}");
            assert!(err.to_string().contains("[A-Za-z0-9_-]+"), "{err}");
        }
    }

    #[test]
    fn tasks_without_variants_get_a_base_arm() {
        let text = "{\"schema\": \"lab.experiment.v1\", \"experiment\": \"x\"}\n\
                    {\"task_id\": \"a\", \"family\": \"fleet\"}";
        let spec = ExperimentSpec::parse_jsonl(text).unwrap();
        assert_eq!(spec.tasks[0].variants.len(), 1);
        assert_eq!(spec.tasks[0].variants[0].name, "base");
    }

    #[test]
    fn merge_params_overrides_and_appends() {
        let task = Json::parse(r#"{"a":1,"b":2}"#).unwrap();
        let variant = Json::parse(r#"{"b":3,"c":4}"#).unwrap();
        let merged = merge_params(&task, &variant);
        assert_eq!(merged.to_compact(), r#"{"a":1,"b":3,"c":4}"#);
    }

    #[test]
    fn token_checksum_is_order_sensitive() {
        assert_eq!(token_checksum(&[1, 2, 3]), token_checksum(&[1, 2, 3]));
        assert_ne!(token_checksum(&[1, 2, 3]), token_checksum(&[3, 2, 1]));
        assert_ne!(token_checksum(&[]), token_checksum(&[0]));
    }

    #[test]
    fn schema_of_describes_nesting_and_arrays() {
        let v = Json::parse(r#"{"a":1,"b":[{"c":"x"}],"d":2.5}"#).unwrap();
        let s = schema_of(&v);
        assert!(s.contains(".a: int"), "{s}");
        assert!(s.contains(".b: array"), "{s}");
        assert!(s.contains(".b[]: object"), "{s}");
        assert!(s.contains(".b[].c: str"), "{s}");
        assert!(s.contains(".d: float"), "{s}");
    }
}
