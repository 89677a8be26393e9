//! `lab check` rests on files other steps wrote; it must go red — with
//! the file's name — when one of them is missing, truncated, or carries
//! another record's schema, rather than gate whatever still parses. And
//! a run id is a directory name: one that climbs out of `--out-dir` is
//! refused before anything is created.

use edge_llm_lab::{analyze_run, check_run, run_experiment, ExperimentSpec, LabError, RunOptions};
use std::fs;
use std::path::PathBuf;

const SPEC: &str = concat!(
    r#"{"schema": "lab.experiment.v1", "experiment": "artifacts", "seed": 5}"#,
    "\n",
    r#"{"task_id": "fleet", "family": "fleet", "params": {"layers": 2, "d_model": 16, "heads": 2, "seq_len": 32, "scenario": "steady", "sessions": 4, "queue_depth": 64}, "variants": [{"name": "w1", "params": {"workers": 1}}, {"name": "w2", "params": {"workers": 2}}]}"#,
    "\n",
);

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("edgellm-lab-check-{}-{tag}", std::process::id()))
}

#[test]
fn damaged_artifacts_turn_check_red() {
    let out_dir = scratch_dir("damaged");
    let spec = ExperimentSpec::parse_jsonl(SPEC).expect("parse spec");
    let opts = RunOptions {
        out_dir: out_dir.clone(),
        run_id: Some("run".to_string()),
    };
    let run_dir = run_experiment(&spec, SPEC, &opts).expect("run").run_dir;
    analyze_run(&run_dir).expect("analyze");
    let baseline = out_dir.join("baseline.json");
    assert!(
        check_run(&run_dir, &baseline, true)
            .expect("update")
            .updated
    );
    let green = check_run(&run_dir, &baseline, false).expect("check");
    assert!(green.failures.is_empty(), "{:?}", green.failures);

    // Each damage is undone before the next, so every red is its own.
    let red = |path: PathBuf, damaged: &dyn Fn(&str) -> String| {
        let intact = fs::read_to_string(&path).expect("read artifact");
        fs::write(&path, damaged(&intact)).expect("damage artifact");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        match check_run(&run_dir, &baseline, false) {
            Err(LabError::Io(msg)) => assert!(msg.contains(&name), "{msg}"),
            Err(other) => panic!("{name}: wrong error {other}"),
            Ok(_) => panic!("{name}: damaged artifact passed the check"),
        }
        fs::write(&path, intact).expect("restore artifact");
    };
    let timing = run_dir
        .join("trials")
        .join("fleet.w2.r0")
        .join("timing.json");
    red(timing, &|text| text[..text.len() / 2].to_string());
    let summary = run_dir.join("analysis").join("summary.jsonl");
    red(summary, &|text| {
        text.replacen("lab.summary_row.v1", "lab.timing_row.v1", 1)
    });
    let input = run_dir
        .join("trials")
        .join("fleet.w1.r0")
        .join("trial_input.json");
    red(input, &|text| text.replace("lab.trial_input.v1", "v0"));
    red(run_dir.join("run.json"), &|_| String::new());

    let again = check_run(&run_dir, &baseline, false).expect("check after restore");
    assert!(again.failures.is_empty(), "{:?}", again.failures);
    fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn path_shaped_run_ids_are_refused_before_anything_is_created() {
    let out_dir = scratch_dir("escape");
    let spec = ExperimentSpec::parse_jsonl(SPEC).expect("parse spec");
    for run_id in ["../../escaped", "a/b", "a.b", ""] {
        let opts = RunOptions {
            out_dir: out_dir.clone(),
            run_id: Some(run_id.to_string()),
        };
        match run_experiment(&spec, SPEC, &opts) {
            Err(LabError::Spec(msg)) => assert!(msg.contains("run id"), "{msg}"),
            Err(other) => panic!("{run_id:?}: wrong error {other}"),
            Ok(_) => panic!("{run_id:?} accepted"),
        }
    }
    assert!(!out_dir.exists(), "a refused run must create nothing");
}
