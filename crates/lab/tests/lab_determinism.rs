//! Determinism property for the lab runner: the same spec text must
//! produce byte-identical `trial_output.json` records — and byte-
//! identical deterministic analysis tables — across repeated runner
//! invocations AND across worker pool sizes {1, 2, 4}. Only the
//! `timing.json` sidecars and the timing tables are allowed to differ.
//!
//! This is the contract that makes `lab check` baselines portable: a
//! baseline recorded on a laptop must hold on a 64-core box. It is also
//! what lets the runner pick its trial order for timing's sake: trials
//! run repeat-major, and every deterministic byte is the one the
//! variant-major runner wrote.

use edge_llm_lab::analysis::digest;
use edge_llm_lab::{analyze_run, run_experiment, ExperimentSpec, Json, RunOptions};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A fast two-family spec: the speculative-decode differential pair
/// (greedy vs spec must emit identical streams) and a fleet sharded
/// across 1 vs 2 workers (equal work regardless of worker count). Both
/// exercise the thread pool, which is exactly what must not leak into
/// the deterministic record.
const SPEC: &str = concat!(
    r#"{"schema": "lab.experiment.v1", "experiment": "det-prop", "seed": 23}"#,
    "\n",
    r#"{"task_id": "spec", "family": "spec_decode", "seed": 23, "repeats": 2, "params": {"layers": 2, "d_model": 16, "heads": 2, "seq_len": 48, "train_steps": 16, "decode_tokens": 16}, "variants": [{"name": "greedy", "params": {"mode": "greedy"}}, {"name": "spec", "params": {"mode": "spec", "depth": 1, "k": 4}}], "oracles": [{"kind": "variants_equal", "metrics": ["token_checksum", "tokens_emitted"]}]}"#,
    "\n",
    r#"{"task_id": "fleet", "family": "fleet", "seed": 23, "repeats": 1, "params": {"layers": 2, "d_model": 16, "heads": 2, "seq_len": 32, "scenario": "steady", "sessions": 6, "queue_depth": 64}, "variants": [{"name": "w1", "params": {"workers": 1}}, {"name": "w2", "params": {"workers": 2}}], "oracles": [{"kind": "variants_equal", "metrics": ["served", "tokens_generated", "token_checksum"]}]}"#,
    "\n",
);

/// Analysis tables that are pure functions of (params, seed); the
/// timing tables are deliberately absent.
const DETERMINISTIC_TABLES: &[&str] = &[
    "metrics.jsonl",
    "summary.jsonl",
    "deltas.jsonl",
    "oracles.jsonl",
];

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("edgellm-lab-det-{}-{tag}", std::process::id()))
}

/// Digest of `deterministic_bytes` for this spec when the runner still
/// ran every repeat of a variant before the next variant (recorded at
/// that commit).
const VARIANT_MAJOR_DIGEST: &str = "f208925ec7deb043";

/// Runs the spec into a fresh directory and collects every byte that
/// claims to be deterministic, keyed by path relative to the run dir,
/// plus `run.json`'s trial ids in execution order.
fn deterministic_bytes(tag: &str) -> (BTreeMap<String, Vec<u8>>, Vec<String>) {
    let spec = ExperimentSpec::parse_jsonl(SPEC).expect("parse spec");
    let out_dir = scratch_dir(tag);
    let opts = RunOptions {
        out_dir: out_dir.clone(),
        run_id: Some("det".to_string()),
    };
    let outcome = run_experiment(&spec, SPEC, &opts).expect("run");
    let report = analyze_run(&outcome.run_dir).expect("analyze");
    assert!(
        report.oracle_failures.is_empty(),
        "oracles failed: {:?}",
        report.oracle_failures
    );

    let mut bytes = BTreeMap::new();
    collect_outputs(&outcome.run_dir.join("trials"), &mut bytes);
    for table in DETERMINISTIC_TABLES {
        let path = outcome.run_dir.join("analysis").join(table);
        bytes.insert(
            format!("analysis/{table}"),
            fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display())),
        );
    }
    let run = fs::read_to_string(outcome.run_dir.join("run.json")).expect("read run.json");
    let run = Json::parse(&run).expect("parse run.json");
    let trial_ids = run
        .get("trial_ids")
        .and_then(Json::as_array)
        .expect("trial_ids");
    let trial_ids = trial_ids
        .iter()
        .map(|t| t.as_str().expect("trial id").to_string())
        .collect();
    fs::remove_dir_all(&out_dir).ok();
    (bytes, trial_ids)
}

fn digest_all(bytes: &BTreeMap<String, Vec<u8>>) -> String {
    let mut all = Vec::new();
    for (path, b) in bytes {
        all.extend_from_slice(path.as_bytes());
        all.extend_from_slice(b);
    }
    digest(&all)
}

fn collect_outputs(trials_dir: &Path, bytes: &mut BTreeMap<String, Vec<u8>>) {
    for entry in fs::read_dir(trials_dir).expect("read trials dir") {
        let dir = entry.expect("dir entry").path();
        let output = dir.join("trial_output.json");
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        bytes.insert(
            format!("trials/{name}/trial_output.json"),
            fs::read(&output).unwrap_or_else(|e| panic!("read {}: {e}", output.display())),
        );
    }
}

fn assert_identical(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    let a_paths: Vec<_> = a.keys().collect();
    let b_paths: Vec<_> = b.keys().collect();
    assert_eq!(a_paths, b_paths, "{what}: trial sets differ");
    for (path, a_bytes) in a {
        assert_eq!(
            a_bytes, &b[path],
            "{what}: {path} is not byte-identical (the deterministic record \
             leaked wall-clock or pool-shaped state)"
        );
    }
}

/// One test fn on purpose: `set_configured_threads` is process-global,
/// so concurrent determinism probes would race on the pool size.
#[test]
fn trial_outputs_are_byte_identical_across_invocations_and_thread_counts() {
    edge_llm_tensor::set_configured_threads(2);
    let (first, order) = deterministic_bytes("run-a");
    // The trial order moved no deterministic byte.
    assert_eq!(digest_all(&first), VARIANT_MAJOR_DIGEST);
    // Repeat-major: each repeat of one variant runs beside the other's.
    assert_eq!(
        order,
        [
            "spec.greedy.r0",
            "spec.spec.r0",
            "spec.greedy.r1",
            "spec.spec.r1",
            "fleet.w1.r0",
            "fleet.w2.r0",
        ]
    );

    // Same spec, fresh invocation, same pool: every byte must match.
    let (second, _) = deterministic_bytes("run-b");
    assert_identical(&first, &second, "repeat invocation");

    // Same spec at pool sizes 1 and 4: still every byte.
    for threads in [1usize, 4] {
        edge_llm_tensor::set_configured_threads(threads);
        let (run, _) = deterministic_bytes(&format!("run-t{threads}"));
        assert_identical(&first, &run, &format!("threads={threads}"));
    }
    edge_llm_tensor::set_configured_threads(0);
}
