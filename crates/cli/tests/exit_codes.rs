//! The `edgellm` binary's exit codes: 2 for a usage error, before anything
//! runs, and 1 for a command that fails while running.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Every case here is refused or fails before any work starts, in
/// milliseconds; a child still running at the deadline started some, and
/// is killed rather than waited on (a full-scale report runs for minutes).
const DEADLINE: Duration = Duration::from_secs(30);

fn edgellm(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edgellm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn edgellm");
    // drained as the child writes, so a full pipe cannot stall it
    let drain = |mut pipe: Box<dyn Read + Send>| {
        thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).map(|_| bytes)
        })
    };
    let stdout = drain(Box::new(child.stdout.take().expect("piped")));
    let stderr = drain(Box::new(child.stderr.take().expect("piped")));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll edgellm") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            panic!("edgellm {args:?} still ran after {DEADLINE:?}; killed");
        }
        thread::sleep(Duration::from_millis(10));
    };
    let read = |h: thread::JoinHandle<std::io::Result<Vec<u8>>>| {
        h.join().expect("drain thread").expect("read pipe")
    };
    Output {
        status,
        stdout: read(stdout),
        stderr: read(stderr),
    }
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
    // F2 and F4 are columns of T3 and F1, not tables of their own
    assert_refused(&["report", "--f2"], "--f2");
    assert_refused(&["report", "--f4"], "--f4");
    // every modeled cell costs the one device preset; there is no sweep
    assert_refused(&["report", "--a2"], "--a2");
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
