//! The `edgellm` binary's exit codes: 2 for a usage error, before anything
//! runs, and 1 for a command that fails while running.

use std::process::{Command, Output};

fn edgellm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_edgellm"))
        .args(args)
        .output()
        .expect("spawn edgellm")
}

/// Exit 2, nothing on stdout, and the offending argument named on stderr.
fn assert_refused(args: &[&str], bad: &str) {
    let out = edgellm(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(bad), "{args:?}: {stderr}");
}

#[test]
fn report_refuses_unknown_positional_and_repeated_flags() {
    // a mistyped `--quick` must not start the hours-scale tier
    assert_refused(&["report", "--quik"], "--quik");
    assert_refused(&["report", "--quick", "--t1", "--quick"], "--quick");
    assert_refused(&["report", "t1"], "t1");
}

#[test]
fn an_unknown_flag_is_refused_before_anything_runs() {
    assert_refused(
        &["generate", "--ckpt", "m", "--prompt", "p", "--bogus"],
        "--bogus",
    );
    // the lab runner records its own trials, so `lab run` takes no trace
    let spec = ["lab", "run", "--spec", "s.jsonl", "--trace-out", "t.jsonl"];
    assert_refused(&spec, "--trace-out");
}

#[test]
fn a_missing_checkpoint_is_a_run_error() {
    let missing = std::env::temp_dir().join("edgellm-exit-codes-missing.ckpt");
    std::fs::remove_file(&missing).ok();
    let out = edgellm(&[
        "generate",
        "--ckpt",
        &missing.to_string_lossy(),
        "--prompt",
        "x",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
}
