//! The lab's declarative surface: experiment specs (`tasks.jsonl`
//! parsed into [`ExperimentSpec`]), the schema tag of every record the
//! runner writes, and the one typed field reader behind both spec lines
//! and family params. Each spec object — header, task, variant, oracle,
//! gate — and each family's params refuse keys they do not know.
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

use edge_llm_telemetry::Json;
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

/// Typed reads of one JSON object's fields — the one reader behind spec
/// lines and family params. Construction refuses a non-object and any
/// key outside `allowed`, so a misspelt field fails instead of being
/// silently ignored; every read names `what` and the key on failure.
pub(crate) struct Fields<'a> {
    what: String,
    obj: &'a Json,
}

impl<'a> Fields<'a> {
    /// Checks `obj` is an object whose keys are all in `allowed`.
    pub(crate) fn new(obj: &'a Json, what: &str, allowed: &[&str]) -> Result<Self, LabError> {
        let Some(pairs) = obj.as_object() else {
            return Err(LabError::Spec(format!("{what} must be an object")));
        };
        if let Some((k, _)) = pairs.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(LabError::Spec(format!(
                "{what}: unknown field {k:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
        Ok(Fields {
            what: what.to_string(),
            obj,
        })
    }

    /// The raw value of `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&'a Json> {
        self.obj.get(key)
    }

    /// `key` read through `read`; `None` when absent, an error naming
    /// `kind` when present but unreadable.
    fn read<T>(
        &self,
        key: &str,
        kind: &str,
        read: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, LabError> {
        self.get(key)
            .map(|v| {
                read(v).ok_or_else(|| {
                    LabError::Spec(format!("{}: field {key:?} must be {kind}", self.what))
                })
            })
            .transpose()
    }

    fn required<T>(&self, key: &str, value: Option<T>) -> Result<T, LabError> {
        value.ok_or_else(|| LabError::Spec(format!("{}: missing field {key:?}", self.what)))
    }

    /// A required string.
    pub(crate) fn str(&self, key: &str) -> Result<&'a str, LabError> {
        let v = self.read(key, "a string", Json::as_str)?;
        self.required(key, v)
    }

    /// A string, `default` when absent.
    pub(crate) fn str_or(&self, key: &str, default: &'a str) -> Result<&'a str, LabError> {
        Ok(self.read(key, "a string", Json::as_str)?.unwrap_or(default))
    }

    /// A required number.
    pub(crate) fn f64(&self, key: &str) -> Result<f64, LabError> {
        let v = self.read(key, "a number", Json::as_f64)?;
        self.required(key, v)
    }

    /// A number, `default` when absent.
    pub(crate) fn f64_or(&self, key: &str, default: f64) -> Result<f64, LabError> {
        Ok(self.read(key, "a number", Json::as_f64)?.unwrap_or(default))
    }

    /// A boolean, `default` when absent.
    pub(crate) fn bool_or(&self, key: &str, default: bool) -> Result<bool, LabError> {
        Ok(self
            .read(key, "a boolean", Json::as_bool)?
            .unwrap_or(default))
    }

    /// A non-negative integer, `None` when absent.
    pub(crate) fn opt_u64(&self, key: &str) -> Result<Option<u64>, LabError> {
        self.read(key, "a non-negative integer", |v| {
            v.as_i64().and_then(|i| u64::try_from(i).ok())
        })
    }

    /// A non-negative integer, `default` when absent.
    pub(crate) fn usize_or(&self, key: &str, default: usize) -> Result<usize, LabError> {
        Ok(self.opt_u64(key)?.map_or(default, |v| v as usize))
    }

    /// A list of strings, empty when absent.
    pub(crate) fn strs(&self, key: &str) -> Result<Vec<String>, LabError> {
        let list = self.read(key, "a list of strings", |v| {
            v.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        })?;
        Ok(list.unwrap_or_default())
    }

    /// A list, empty when absent.
    pub(crate) fn list(&self, key: &str) -> Result<&'a [Json], LabError> {
        Ok(self.read(key, "a list", Json::as_array)?.unwrap_or(&[]))
    }

    /// An object, empty when absent.
    pub(crate) fn object(&self, key: &str) -> Result<Json, LabError> {
        let v = self.read(key, "an object", |v| v.as_object().map(|_| v.clone()))?;
        Ok(v.unwrap_or(Json::Object(Vec::new())))
    }
}

const HEADER_FIELDS: &[&str] = &["schema", "experiment", "seed"];
const TASK_FIELDS: &[&str] = &[
    "task_id", "family", "seed", "repeats", "params", "variants", "oracles", "gates",
];
const VARIANT_FIELDS: &[&str] = &["name", "params"];
const ORACLE_FIELDS: &[&str] = &["kind", "metrics", "variants"];
const GATE_FIELDS: &[&str] = &[
    "table", "variant", "metric", "field", "op", "value", "tol_rel", "tol_abs",
];

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
            let at_line = |e: LabError| match e {
                LabError::Spec(m) => LabError::Spec(format!("line {n}: {m}")),
                other => other,
            };
            let Some((_, default_seed)) = &header else {
                header = Some(Self::parse_header(&obj).map_err(at_line)?);
                continue;
            };
            let task = Self::parse_task(&obj, *default_seed).map_err(at_line)?;
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

    fn parse_header(obj: &Json) -> Result<(String, u64), LabError> {
        let f = Fields::new(obj, "header", HEADER_FIELDS)?;
        let schema = f.str("schema")?;
        if schema != EXPERIMENT_SCHEMA {
            return Err(LabError::Spec(format!(
                "unsupported experiment schema {schema:?} (expected {EXPERIMENT_SCHEMA:?})"
            )));
        }
        let name = f.str("experiment")?;
        check_name("experiment", name)?;
        Ok((name.to_string(), f.opt_u64("seed")?.unwrap_or(0)))
    }

    fn parse_task(obj: &Json, default_seed: u64) -> Result<TaskSpec, LabError> {
        let f = Fields::new(obj, "task", TASK_FIELDS)?;
        let task_id = f.str("task_id")?.to_string();
        check_name("task_id", &task_id)?;
        let ctx = format!("task {task_id:?}");
        let family_name = f.str("family")?;
        let family = Family::parse(family_name).ok_or_else(|| {
            LabError::Spec(format!(
                "{ctx}: unknown family {family_name:?} (spec_decode|tenants|fleet|igemm|tune)"
            ))
        })?;
        let seed = f.opt_u64("seed")?.unwrap_or(default_seed);
        let repeats = f.usize_or("repeats", 1)?.max(1);
        let params = f.object("params")?;
        let mut variants = Vec::new();
        for v in f.list("variants")? {
            let vf = Fields::new(v, &format!("{ctx} variant"), VARIANT_FIELDS)?;
            let name = vf.str("name")?.to_string();
            check_name(&format!("{ctx} variant"), &name)?;
            if variants.iter().any(|x: &Variant| x.name == name) {
                return Err(LabError::Spec(format!("{ctx}: duplicate variant {name:?}")));
            }
            let params = vf.object("params")?;
            variants.push(Variant { name, params });
        }
        if variants.is_empty() {
            variants.push(Variant {
                name: "base".to_string(),
                params: Json::Object(Vec::new()),
            });
        }
        let mut oracles = Vec::new();
        for o in f.list("oracles")? {
            let of = Fields::new(o, &format!("{ctx} oracle"), ORACLE_FIELDS)?;
            let kind = of.str("kind")?.to_string();
            if kind != "variants_equal" {
                return Err(LabError::Spec(format!(
                    "{ctx}: unknown oracle kind {kind:?}"
                )));
            }
            let metrics = of.strs("metrics")?;
            if metrics.is_empty() {
                return Err(LabError::Spec(format!("{ctx}: oracle lists no metrics")));
            }
            let scope = of.strs("variants")?;
            if let Some(v) = scope
                .iter()
                .find(|v| !variants.iter().any(|x| &x.name == *v))
            {
                return Err(LabError::Spec(format!(
                    "{ctx}: oracle names unknown variant {v:?}"
                )));
            }
            oracles.push(OracleSpec {
                kind,
                metrics,
                variants: scope,
            });
        }
        let gates = f
            .list("gates")?
            .iter()
            .map(|g| Self::parse_gate(g, &ctx))
            .collect::<Result<_, _>>()?;
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

    fn parse_gate(g: &Json, task: &str) -> Result<GateSpec, LabError> {
        let ctx = format!("{task} gate");
        let f = Fields::new(g, &ctx, GATE_FIELDS)?;
        let table = f.str("table")?;
        if !matches!(table, "summary" | "deltas" | "timing" | "timing_deltas") {
            return Err(LabError::Spec(format!(
                "{ctx}: unknown table {table:?} (summary|deltas|timing|timing_deltas)"
            )));
        }
        let op = f.str("op")?;
        if !matches!(op, "ge" | "le" | "band") {
            return Err(LabError::Spec(format!(
                "{ctx}: unknown op {op:?} (ge|le|band)"
            )));
        }
        let default_field = if table.ends_with("deltas") {
            "ratio"
        } else {
            "p50"
        };
        Ok(GateSpec {
            table: table.to_string(),
            variant: f.str_or("variant", "")?.to_string(),
            metric: f.str("metric")?.to_string(),
            field: f.str_or("field", default_field)?.to_string(),
            op: op.to_string(),
            value: f.f64("value")?,
            tol_rel: f.f64_or("tol_rel", 0.0)?,
            tol_abs: f.f64_or("tol_abs", 0.0)?,
        })
    }
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
    fn spec_objects_refuse_unknown_fields() {
        let header = r#"{"schema": "lab.experiment.v1", "experiment": "x"}"#;
        let task = |extra: &str| format!(r#"{{"task_id": "a", "family": "fleet"{extra}}}"#);
        let misspelt_header = r#"{"schema": "lab.experiment.v1", "experiment": "x", "sed": 1}"#;
        let variant = r#", "variants": [{"name": "v", "parms": {"workers": 2}}]"#;
        let oracle =
            r#", "oracles": [{"kind": "variants_equal", "metrics": ["m"], "variant": "v"}]"#;
        let gate = r#", "gates": [{"table": "summary", "metric": "m", "op": "band", "value": 1.0, "tolabs": 0.5}]"#;
        for (text, key, line) in [
            (format!("{misspelt_header}\n{}", task("")), "sed", 1),
            (
                format!("{header}\n\n{}", task(r#", "repeat": 3"#)),
                "repeat",
                3,
            ),
            (format!("{header}\n{}", task(variant)), "parms", 2),
            (format!("{header}\n{}", task(oracle)), "variant", 2),
            (format!("{header}\n{}", task(gate)), "tolabs", 2),
        ] {
            let err = ExperimentSpec::parse_jsonl(&text).unwrap_err().to_string();
            assert!(
                err.contains(&format!("line {line}: ")) && err.contains(&format!("{key:?}")),
                "{err}"
            );
        }
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
}
