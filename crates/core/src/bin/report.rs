//! Regenerates the evaluation tables and figures of the Edge-LLM paper
//! reproduction.
//!
//! ```text
//! report [--quick] [--t1 --t2 --t3 --f1 ... --a3 --s1 | --all]
//! ```
//!
//! With no experiment flags, `--all` is assumed. `--quick` runs the
//! seconds-scale configuration; the default is the full configuration the
//! numbers in `EXPERIMENTS.md` were recorded with. Any other argument
//! (or a flag given twice) exits 2 before anything runs: a mistyped
//! `--quick` must not start the hours-scale tier.

use edge_llm::experiments::{run_experiment, Scale, ALL_EXPERIMENTS};
use std::time::Instant;

fn main() {
    // Each flag is named once, by taking it out of the list; whatever is
    // left is the error.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take = |flag: &str| {
        let at = args.iter().position(|a| a == flag);
        at.map(|i| args.remove(i)).is_some()
    };
    let quick = take("--quick");
    let all = take("--all");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let mut requested: Vec<&str> = ALL_EXPERIMENTS
        .iter()
        .copied()
        .filter(|id| take(&format!("--{id}")))
        .collect();
    if requested.is_empty() || all {
        requested = ALL_EXPERIMENTS.to_vec();
    }
    if let Some(bad) = args.first() {
        eprintln!(
            "error: unknown or repeated flag {bad} (report [--quick] [--t1 ... --s1 | --all])"
        );
        std::process::exit(2);
    }

    println!(
        "edge-llm report ({} scale)\n",
        if quick { "quick" } else { "full" }
    );
    for id in requested {
        let t0 = Instant::now();
        match run_experiment(id, scale) {
            Ok(table) => {
                println!("{table}");
                println!("[{id} regenerated in {:.1}s]\n", t0.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("error: experiment {id} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
