//! Golden snapshot of the lab artifact schemas: the structural shape
//! (field path → JSON types) of every record one tiny run writes — each
//! trial's `trial_input.json`, `trial_output.json` and `timing.json` (of
//! trials that succeed and of one that fails), `run.json`, and every
//! analysis table. Downstream tooling — the baseline checker, anyone
//! parsing `.lab/runs/` — keys off these shapes, so a silently added,
//! removed, or retyped field is a breaking change and must show up as a
//! reviewable diff here. The records are the runner's own, so the
//! snapshot cannot drift from what it writes. When a schema change is
//! intentional, regenerate with:
//!
//! ```text
//! EDGELLM_UPDATE_GOLDEN=1 cargo test -q -p edge-llm-lab --test golden_schemas
//! ```

use edge_llm_lab::{analyze_run, run_experiment, ExperimentSpec, Json, LabError, RunOptions};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const HEADER: &str = r#"{"schema": "lab.experiment.v1", "experiment": "schemas", "seed": 3}"#;

/// Two variants so the delta tables have rows, and a declared oracle.
/// One fleet worker: past one, the router fans out over as many threads
/// as the machine has cores, and `timing.json` would count them.
const OK_TASK: &str = r#"{"task_id": "fleet", "family": "fleet", "params": {"layers": 2, "d_model": 16, "heads": 2, "seq_len": 32, "scenario": "steady", "sessions": 4, "workers": 1}, "variants": [{"name": "deep", "params": {"queue_depth": 64}}, {"name": "shallow", "params": {"queue_depth": 8}}], "oracles": [{"kind": "variants_equal", "metrics": ["tokens_generated"]}]}"#;

/// Parses, then fails in the engine: an inverted token range.
const FAILING_TASK: &str = r#"{"task_id": "broken", "family": "fleet", "params": {"layers": 2, "d_model": 16, "heads": 2, "max_new_min": 9, "max_new_max": 1}}"#;

/// A named set of documents rendered as one `== name ==` section.
type Section = (String, Vec<Json>);

fn parse_file(path: &Path) -> Json {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `task` under `HEADER` and reads every trial's three records back,
/// in trial-directory order.
fn run(out_dir: &Path, run_id: &str, task: &str) -> (Result<PathBuf, LabError>, [Vec<Json>; 3]) {
    let text = format!("{HEADER}\n{task}\n");
    let spec = ExperimentSpec::parse_jsonl(&text).expect("parse spec");
    let opts = RunOptions {
        out_dir: out_dir.to_path_buf(),
        run_id: Some(run_id.to_string()),
    };
    let outcome = run_experiment(&spec, &text, &opts).map(|o| o.run_dir);
    let trials_dir = out_dir.join("runs").join(run_id).join("trials");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&trials_dir)
        .expect("trials directory")
        .map(|e| e.expect("dir entry").path())
        .collect();
    dirs.sort();
    let records = ["trial_input.json", "trial_output.json", "timing.json"]
        .map(|name| dirs.iter().map(|d| parse_file(&d.join(name))).collect());
    (outcome, records)
}

/// `(trial record sections, analysis table sections)` of one ok run and
/// one failed run, written once per test binary. One kernel thread, so
/// the pool-shaped parts of `timing.json` do not depend on the machine.
fn records() -> &'static (Vec<Section>, Vec<Section>) {
    static RECORDS: OnceLock<(Vec<Section>, Vec<Section>)> = OnceLock::new();
    RECORDS.get_or_init(|| {
        edge_llm_tensor::set_configured_threads(1);
        let out_dir =
            std::env::temp_dir().join(format!("edgellm-lab-schemas-{}", std::process::id()));
        let (ok, [mut inputs, outputs, timings]) = run(&out_dir, "ok", OK_TASK);
        let run_dir = ok.expect("the ok run succeeds");
        let (failed, [failed_inputs, failed_outputs, failed_timings]) =
            run(&out_dir, "failed", FAILING_TASK);
        assert!(
            matches!(failed, Err(LabError::Spec(_))),
            "the failing run fails"
        );
        inputs.extend(failed_inputs);
        analyze_run(&run_dir).expect("analyze");
        let section = |name: &str, docs: Vec<Json>| (name.to_string(), docs);
        let trials = vec![
            section("trial_input", inputs),
            section("trial_output (status ok)", outputs),
            section("timing (status ok)", timings),
            section("trial_output (status error)", failed_outputs),
            section("timing (status error)", failed_timings),
            section("run", vec![parse_file(&run_dir.join("run.json"))]),
        ];
        let tables = [
            "metrics",
            "summary",
            "deltas",
            "timing",
            "timing_deltas",
            "oracles",
        ]
        .map(|table| {
            let path = run_dir.join("analysis").join(format!("{table}.jsonl"));
            let text = fs::read_to_string(&path).expect("analysis table");
            let rows: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("row")).collect();
            assert!(!rows.is_empty(), "{table} has no rows to describe");
            section(table, rows)
        })
        .to_vec();
        fs::remove_dir_all(&out_dir).ok();
        (trials, tables)
    })
}

/// The structural schema of a set of documents: one `path: types` line
/// per field in first-seen order, merged over every document and every
/// array element, so a path several types reach lists each of them.
fn schema_of(docs: &[Json]) -> String {
    let mut paths: Vec<(String, Vec<&'static str>)> = Vec::new();
    for doc in docs {
        walk_schema(doc, "", &mut paths);
    }
    paths
        .iter()
        .map(|(path, types)| match path.as_str() {
            "" => format!("{}\n", types.join("|")),
            _ => format!("{path}: {}\n", types.join("|")),
        })
        .collect()
}

fn walk_schema(v: &Json, path: &str, out: &mut Vec<(String, Vec<&'static str>)>) {
    let ty = match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "int",
        Json::Float(_) => "float",
        Json::Str(_) => "str",
        Json::Array(_) => "array",
        Json::Object(_) => "object",
    };
    match out.iter_mut().find(|(p, _)| p == path) {
        Some((_, types)) if !types.contains(&ty) => types.push(ty),
        Some(_) => {}
        None => out.push((path.to_string(), vec![ty])),
    }
    match v {
        Json::Object(pairs) => {
            for (k, child) in pairs {
                let child_path = match path {
                    "" => format!("  .{k}"),
                    _ => format!("{path}.{k}"),
                };
                walk_schema(child, &child_path, out);
            }
        }
        Json::Array(items) => {
            for item in items {
                walk_schema(item, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

fn render(sections: &[Section]) -> String {
    sections
        .iter()
        .map(|(name, docs)| format!("== {name} ==\n{}\n", schema_of(docs)))
        .collect()
}

fn assert_matches_golden(snapshot: &str, file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("EDGELLM_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, snapshot).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with EDGELLM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        snapshot,
        golden,
        "artifact schema drifted from {}; if the change is intentional, \
         regenerate with EDGELLM_UPDATE_GOLDEN=1 and review the diff — \
         every consumer of .lab/runs/ sees this shape",
        path.display()
    );
}

#[test]
fn trial_record_schemas_match_snapshot() {
    assert_matches_golden(&render(&records().0), "trial_records.txt");
}

#[test]
fn analysis_table_schemas_match_snapshot() {
    assert_matches_golden(&render(&records().1), "analysis_tables.txt");
}

#[test]
fn schema_of_describes_nesting_and_arrays() {
    let docs = [
        Json::parse(r#"{"a":1,"b":[{"c":"x"},{"c":2}],"d":2.5}"#).unwrap(),
        Json::parse(r#"{"a":"y","e":null}"#).unwrap(),
    ];
    assert_eq!(
        schema_of(&docs),
        "object\n  .a: int|str\n  .b: array\n  .b[]: object\n  .b[].c: str|int\n  \
         .d: float\n  .e: null\n"
    );
}
