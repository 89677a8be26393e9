//! `run`: the whole benchmark in one command.
//!
//! Each workload runs twice, untraced then traced, each in a child
//! process of its own so `peak_rss_mib` belongs to one workload. End-to-
//! end numbers come only from the untraced child and per-layer numbers
//! only from the traced one; the difference in `step_ms_p50` between the
//! two is the tracing overhead. On top of the checks every child makes
//! on its own outputs, `run` compares the two children of a workload
//! (the traced run is a prefix of the untraced one and must reproduce it
//! bit for bit) and, with `--repeat 2`, two complete sets against the
//! benchmark's own bounds.

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::trace::out_dir;
use edge_llm_lab::Json;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// One child's detail record.
struct Child {
    detail: Json,
}

impl Child {
    fn metric(&self, name: &str) -> f64 {
        self.detail
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn exact(&self, name: &str) -> Option<&Json> {
        self.detail.get("exact").and_then(|e| e.get(name))
    }

    fn ok(&self) -> bool {
        self.detail.get("correct").and_then(Json::as_bool) == Some(true)
            && self.detail.get("failed").and_then(Json::as_i64) == Some(0)
    }
}

/// Runs one workload in a child process, echoes its metric table and
/// returns its detail record.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: u64,
    quick: bool,
    traced: bool,
    set: usize,
) -> Result<Child, String> {
    let mode = if traced { "traced" } else { "untraced" };
    let detail_path = out_dir().join(format!("{workload}.{mode}.{set}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail_path)
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    println!("== {workload} ({mode}, set {set})");
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop(); // the JSON result line; the detail record has it all
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} ({mode}) exited with {}", output.status));
    }
    let text = std::fs::read_to_string(&detail_path)
        .map_err(|e| format!("cannot read {}: {e}", detail_path.display()))?;
    let detail = Json::parse(&text).map_err(|e| format!("{}: {e}", detail_path.display()))?;
    Ok(Child { detail })
}

/// `(untraced name, traced name)` of the exact values that must agree
/// between the two children of a workload.
fn prefix_pairs(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "adapt_windowed" | "adapt_fulldepth" => &[
            ("loss_digest_prefix", "loss_digest"),
            ("warmup_loss_digest", "warmup_loss_digest"),
            ("peak_activation_bytes_prefix", "peak_activation_bytes"),
            ("policy", "policy"),
        ],
        "serve_decode" => &[("token_digest_prefix", "token_digest")],
        _ => &[
            ("token_digest", "token_digest"),
            ("ticks", "ticks"),
            ("queue_wait_ticks_p95", "queue_wait_ticks_p95"),
        ],
    }
}

/// One complete set: every workload untraced and traced, cross-checked.
struct Set {
    doc: Json,
    /// `(workload, untraced child)` for the repeat comparison.
    untraced: Vec<(&'static str, Child)>,
    failures: Vec<String>,
}

fn run_set(seed: u64, seconds: u64, quick: bool, set: usize) -> Result<Set, String> {
    let mut failures = Vec::new();
    let mut workloads = Vec::new();
    let mut untraced_children = Vec::new();
    for workload in WORKLOADS {
        let untraced = spawn(workload, seed, seconds, quick, false, set)?;
        let traced = spawn(workload, seed, seconds, quick, true, set)?;
        for (mode, child) in [("untraced", &untraced), ("traced", &traced)] {
            if !child.ok() {
                failures.push(format!(
                    "{workload} ({mode}): a check or an operation failed"
                ));
            }
        }
        for (u, t) in prefix_pairs(workload) {
            if untraced.exact(u).is_none() || untraced.exact(u) != traced.exact(t) {
                failures.push(format!(
                    "{workload}: untraced {u} = {:?} but traced {t} = {:?}",
                    untraced.exact(u),
                    traced.exact(t)
                ));
            }
        }
        let base = untraced.metric("step_ms_p50");
        let overhead_pct = (traced.metric("trace.step_ms_p50") - base) / base * 100.0;
        println!("{:<40} {overhead_pct:>16.4} %", "trace_overhead_pct");
        workloads.push((
            workload.to_string(),
            Json::obj(vec![
                ("trace_overhead_pct", Json::Float(overhead_pct)),
                ("untraced", untraced.detail.clone()),
                ("traced", traced.detail.clone()),
            ]),
        ));
        untraced_children.push((workload, untraced));
    }
    let doc = Json::obj(vec![
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Int(seconds as i64)),
        // --quick numbers exercise the code paths, not the machine
        ("comparable", Json::Bool(!quick)),
        ("nproc", Json::Int(crate::nproc() as i64)),
        (
            "threads",
            Json::str("1 kernel thread per workload; fleet_mixed adds its 2 worker threads"),
        ),
        ("workloads", Json::Object(workloads)),
    ]);
    Ok(Set {
        doc,
        untraced: untraced_children,
        failures,
    })
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares two sets metric by metric in both directions against each
/// metric's bound, and their exact values for identity.
fn compare(first: &Set, second: &Set) -> Vec<String> {
    let mut failures = Vec::new();
    println!("== repeat check: relative difference between the two sets, next to the bound");
    for ((workload, a), (_, b)) in first.untraced.iter().zip(&second.untraced) {
        for d in END_TO_END {
            let (x, y) = (a.metric(d.name), b.metric(d.name));
            let diff = worse_by(x, y, d.better).abs();
            let verdict = if diff <= d.bound { "ok" } else { "EXCEEDS" };
            println!(
                "{workload:<16} {:<14} {x:>14.4} {y:>14.4} {:>8.4} / {:<5} {verdict}",
                d.name, diff, d.bound
            );
            if diff > d.bound {
                failures.push(format!(
                    "{workload} {}: sets differ by {diff:.4}, bound {}",
                    d.name, d.bound
                ));
            }
        }
        if a.detail.get("exact") != b.detail.get("exact") {
            failures.push(format!(
                "{workload}: exact values differ between the two sets"
            ));
        }
    }
    failures
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_sets(
    seed: u64,
    seconds: u64,
    quick: bool,
    repeat: usize,
    out: &Path,
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out dir: {e}"))?;
    let mut sets = Vec::new();
    let mut failures = Vec::new();
    for set in 0..repeat.max(1) {
        let mut s = run_set(seed, seconds, quick, set)?;
        failures.append(&mut s.failures);
        sets.push(s);
    }
    for pair in sets.windows(2) {
        failures.extend(compare(&pair[0], &pair[1]));
    }
    let last = sets.last().expect("at least one set");
    write(out, &last.doc)?;
    println!("wrote {}", out.display());
    Ok(failures)
}

pub fn run(seed: u64, seconds: u64, quick: bool, repeat: usize, out: Option<&str>) -> ExitCode {
    let default_out = out_dir().join("latest.json");
    let out = out.map_or(default_out.as_path(), Path::new);
    match run_sets(seed, seconds, quick, repeat, out) {
        Ok(failures) if failures.is_empty() => {
            println!("all checks passed");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("FAILED: {f}");
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn every_workload_has_values_to_cross_check() {
        for w in WORKLOADS {
            assert!(!prefix_pairs(w).is_empty());
        }
    }
}
