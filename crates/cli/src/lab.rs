//! Measuring what was tuned: `edgellm lab` runs, analyzes or gates a
//! declarative experiment spec, and `report` regenerates the paper's
//! tables and figures.

use crate::{run_err, CliError};
use edge_llm::experiments::{RunStore, Scale};
use edge_llm_lab::{analyze_run, check_run, run_experiment, AnalysisReport};
use edge_llm_lab::{ExperimentSpec, RunOptions};
use edge_llm_telemetry as telemetry;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The `edgellm lab` sub-subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum LabCommand {
    /// Execute every trial of an experiment spec and build its analysis
    /// tables.
    Run {
        /// Path to the experiment spec (JSONL, see `experiments/`).
        spec: String,
        /// Root directory for run artifacts.
        out_dir: String,
        /// Explicit run id (default: spec name + content digest).
        run_id: Option<String>,
    },
    /// Rebuild the analysis tables for an existing run directory.
    Analyze {
        /// Run directory (`.lab/runs/<run_id>`).
        run: String,
    },
    /// Gate a run against a stored baseline (or regenerate it).
    Check {
        /// Run directory (`.lab/runs/<run_id>`).
        run: String,
        /// Baseline file (see `experiments/baselines/`).
        baseline: String,
        /// Regenerate the baseline from this run instead of checking.
        update: bool,
    },
}

/// Oracle or gate failures exit through [`CliError::Run`] after every
/// violation is printed, so a red verify shows the whole picture, not
/// just the first break.
pub(crate) fn lab<W: Write>(c: &LabCommand, out: &mut W) -> Result<(), CliError> {
    match c {
        LabCommand::Run {
            spec,
            out_dir,
            run_id,
        } => {
            let spec_text = fs::read_to_string(spec)
                .map_err(|e| CliError::Run(format!("cannot read {spec}: {e}")))?;
            let parsed = ExperimentSpec::parse_jsonl(&spec_text).map_err(run_err)?;
            let opts = RunOptions {
                out_dir: PathBuf::from(out_dir),
                run_id: run_id.clone(),
            };
            let outcome = run_experiment(&parsed, &spec_text, &opts).map_err(run_err)?;
            writeln!(
                out,
                "experiment {}: {} trials -> {}",
                parsed.name,
                outcome.trials,
                outcome.run_dir.display()
            )?;
            print_analysis(&analyze_run(&outcome.run_dir).map_err(run_err)?, out)
        }
        LabCommand::Analyze { run } => {
            print_analysis(&analyze_run(Path::new(run)).map_err(run_err)?, out)
        }
        LabCommand::Check {
            run,
            baseline,
            update,
        } => {
            let report =
                check_run(Path::new(run), Path::new(baseline), *update).map_err(run_err)?;
            if report.updated {
                writeln!(out, "baseline regenerated: {baseline}")?;
                return Ok(());
            }
            for failure in &report.failures {
                writeln!(out, "FAIL {failure}")?;
            }
            if !report.failures.is_empty() {
                return Err(CliError::Run(format!(
                    "{} of {} checks failed against {baseline}",
                    report.failures.len(),
                    report.checked
                )));
            }
            writeln!(
                out,
                "check passed: {} assertions against {baseline}",
                report.checked
            )?;
            Ok(())
        }
    }
}

/// Prints the analysis tables and every oracle failure, then fails if
/// there was one.
fn print_analysis<W: Write>(report: &AnalysisReport, out: &mut W) -> Result<(), CliError> {
    for (table, rows) in &report.table_rows {
        writeln!(out, "  analysis/{table}: {rows} rows")?;
    }
    for failure in &report.oracle_failures {
        writeln!(out, "ORACLE FAIL {failure}")?;
    }
    if !report.oracle_failures.is_empty() {
        return Err(CliError::Run(format!(
            "{} differential oracle(s) failed",
            report.oracle_failures.len()
        )));
    }
    Ok(())
}

/// Regenerate the evaluation tables and figures, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The seconds-scale configuration instead of the full one the
    /// numbers in `EXPERIMENTS.md` were recorded with.
    pub quick: bool,
    /// Experiment ids (see `edge_llm::experiments::ALL_EXPERIMENTS`).
    pub experiments: Vec<&'static str>,
}

pub(crate) fn report<W: Write>(c: &Report, out: &mut W) -> Result<(), CliError> {
    let (scale, name) = match c.quick {
        true => (Scale::Quick, "quick"),
        false => (Scale::Full, "full"),
    };
    writeln!(out, "edge-llm report ({name} scale)\n")?;
    let mut store = RunStore::new(scale, &c.experiments);
    for id in &c.experiments {
        let regen = telemetry::timed("report.table");
        let table = edge_llm::experiments::run_experiment(id, &mut store)
            .map_err(|e| CliError::Run(format!("experiment {id} failed: {e}")))?;
        let secs = regen.end() as f64 * 1e-9;
        writeln!(out, "{table}")?;
        writeln!(out, "[{id} regenerated in {secs:.1}s]\n")?;
    }
    Ok(())
}
