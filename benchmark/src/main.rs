//! The Edge-LLM benchmark: one adaptation iteration and one served token,
//! end to end and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! edge-llm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! edge-llm-benchmark run [--seed <n>] [--seconds <s>] [--quick] [--repeat <k>] [--out <path>]
//! ```
//!
//! The first form is the contract `BENCHMARK.json` names: it runs one
//! workload in this process and prints one JSON result as the last line
//! of standard output. `run` spawns that form once per workload and
//! trace mode (so peak memory is per workload), prints every metric by
//! name, cross-checks the runs against each other and exits nonzero on a
//! failed check.

mod adapt;
mod fleet;
mod kernels;
mod metrics;
mod refclock;
mod run;
mod serve;
mod trace;
mod workloads;

use edge_llm_lab::Json;
use metrics::{Outcome, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Nominal length of the timed window; fixes the amount of work.
    pub seconds: u64,
    pub traced: bool,
    /// Smoke sizes: every code path and check, numbers not comparable.
    pub quick: bool,
}

impl Params {
    /// Work items for a window of `seconds` at `per_second`, or the smoke
    /// count under `--quick`. A function of the arguments alone — never
    /// of a clock — so counts and digests repeat exactly.
    pub fn count(&self, per_second: f64, quick_count: usize) -> usize {
        if self.quick {
            quick_count
        } else {
            ((per_second * self.seconds as f64).round() as usize).max(quick_count)
        }
    }

    /// Length of this run given the untraced run's `full` count: the
    /// traced run covers the first quarter of it, but never fewer than
    /// the smoke count, below which the checks have nothing to judge.
    pub fn run_length(&self, full: usize, quick_count: usize) -> usize {
        if self.traced {
            self.prefix(full, quick_count)
        } else {
            full
        }
    }

    pub fn prefix(&self, full: usize, quick_count: usize) -> usize {
        (full / 4).max(quick_count).min(full)
    }
}

/// Runs the workload's set-up `repeats` times (once under `--quick`) and
/// returns when each run started and ended, with the last built state;
/// `setup_s` is the median of those spans on the workload's reference
/// clock. Each earlier state is dropped before the next is built, so
/// repeating the set-up does not raise the workload's peak memory.
pub fn repeat_setup<T>(
    p: &Params,
    repeats: usize,
    mut build: impl FnMut() -> T,
) -> (Vec<(Instant, Instant)>, T) {
    let mut spans = Vec::new();
    let mut built = None;
    for _ in 0..if p.quick { 1 } else { repeats } {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build());
        spans.push((t0, Instant::now()));
    }
    (spans, built.expect("set-up runs at least once"))
}

/// High-water resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_workload(name: &str, p: &Params) -> Option<Outcome> {
    // One kernel thread everywhere: on a small shared box a second
    // kernel thread made p50s slower and 28% apart between runs. Only
    // fleet_mixed uses two threads, its two workers.
    edge_llm_tensor::set_configured_threads(1);
    Some(match name {
        "adapt_windowed" => adapt::run(true, p),
        "adapt_fulldepth" => adapt::run(false, p),
        "serve_decode" => serve::run(p),
        "fleet_mixed" => fleet::run(p),
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: edge-llm-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--detail <path>]\n       edge-llm-benchmark run [--seed <n>] \
         [--seconds <s>] [--quick] [--repeat <k>] [--out <path>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare `--flag`s, in any order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, key: &str, default: u64) -> Option<u64> {
        match self.value(key) {
            None => Some(default),
            Some(v) => v.parse().ok(),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let orchestrate = argv.first().is_some_and(|a| a == "run");
    if orchestrate {
        argv.remove(0);
    }
    let args = Args(argv);
    let (Some(seed), Some(seconds)) = (args.number("--seed", 1), args.number("--seconds", 12))
    else {
        return usage();
    };
    let quick = args.flag("--quick");
    if orchestrate {
        let Some(repeat) = args.number("--repeat", 1) else {
            return usage();
        };
        return run::run(seed, seconds, quick, repeat as usize, args.value("--out"));
    }
    let (Some(workload), Some(trace)) = (args.value("--workload"), args.number("--trace", 0))
    else {
        return usage();
    };
    let p = Params {
        seed,
        seconds,
        traced: trace != 0,
        quick,
    };
    let Some(outcome) = run_workload(workload, &p) else {
        return usage();
    };

    // Layers idle on this workload read 0 in the result line; the table
    // lists what was measured.
    for d in metrics::defs(p.traced) {
        if let Some(value) = outcome.get(d.name) {
            println!("{:<40} {value:>16.4} {}", d.name, d.unit);
        }
    }
    for (name, value, unit) in &outcome.wall {
        println!("{:<40} {value:>16.4} {unit}", format!("wall({name})"));
    }
    for (name, n) in &outcome.samples {
        println!("{:<40} {n:>16} samples", format!("n({name})"));
    }
    println!("{:<40} {:>16} ops", "ops_attempted", outcome.attempted);
    println!("{:<40} {:>16} ops", "ops_failed", outcome.failed);
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {:<34} {verdict:>16} {}", c.name, c.detail);
    }
    let missing = outcome.missing(workload, p.traced);
    assert!(missing.is_empty(), "{workload} did not measure {missing:?}");
    if let Some(path) = args.value("--detail") {
        let context = vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed as i64)),
            ("seconds", Json::Int(seconds as i64)),
            ("trace", Json::Bool(p.traced)),
            ("quick", Json::Bool(quick)),
            ("nproc", Json::Int(nproc() as i64)),
        ];
        let doc = outcome.detail(p.traced, context).to_pretty();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    // A failed check is the product's failure, reported in the result;
    // the process itself ran to the end.
    println!("{}", outcome.result_line(p.traced));
    ExitCode::SUCCESS
}
