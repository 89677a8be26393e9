//! Command-line interface for the Edge-LLM reproduction.
//!
//! Eight subcommands cover the on-device lifecycle, from adapting a model
//! to serving it, and the experiments that measure it:
//!
//! ```text
//! edgellm adapt    --corpus notes.txt --budget 0.25 --out model.ckpt
//! edgellm policy   --corpus notes.txt --budget 0.25
//! edgellm inspect  --ckpt model.ckpt
//! edgellm generate --ckpt model.ckpt --prompt "monday:" --tokens 40
//! edgellm serve    --ckpt model.ckpt --requests queue.txt --batch 4
//! edgellm loadgen  --scenario burst --workers 2
//! edgellm lab run  --spec experiments/smoke.jsonl
//! edgellm report   --quick --t1
//! ```
//!
//! [`parse_args`] reads one subcommand's flags into a [`Command`] and the
//! [`Runtime`] it runs under; [`run`] applies the runtime once around the
//! subcommand's own function, in the module of its lifecycle stage:
//! tuning (`adapt`), serving (`serve`) or measuring (`lab`). `src/main.rs`
//! is a thin wrapper.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod adapt;
mod lab;
mod serve;

pub use adapt::{Adapt, Inspect, Policy};
pub use lab::{LabCommand, Report};
pub use serve::{Generate, Loadgen, Serve};

use adapt::DEFAULT_ITERATIONS;
use edge_llm::experiments::ALL_EXPERIMENTS;
use edge_llm_telemetry as telemetry;
use std::fmt;
use std::io::Write;

/// A parsed CLI invocation: one variant per subcommand, holding its
/// arguments (each type documents its subcommand).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Adapt(Adapt),
    Policy(Policy),
    Inspect(Inspect),
    Generate(Generate),
    Serve(Serve),
    Loadgen(Loadgen),
    Lab(LabCommand),
    Report(Report),
    /// Print usage.
    Help,
}

/// How a subcommand runs, never what it computes: results are bit-identical
/// for every thread count, and recording a trace only observes them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Runtime {
    /// Kernel worker threads (`0` = all cores). `None` leaves the
    /// `EDGELLM_THREADS` environment default in place.
    pub threads: Option<usize>,
    /// Write a JSON-lines telemetry trace of the run to this path.
    pub trace_out: Option<String>,
}

/// CLI error: bad arguments or a failed command.
#[derive(Debug)]
pub enum CliError {
    /// The arguments did not parse.
    Usage(String),
    /// A command failed while running.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A failed write of the command's output.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Run(e.to_string())
    }
}

/// Usage text printed by `edgellm help`.
pub const USAGE: &str = "\
edgellm — on-device LLM adaptation (Edge-LLM reproduction)

USAGE:
  edgellm adapt    --corpus <file> --out <ckpt> [--budget 0.25] [--window 2]
                   [--iterations 400] [--seed 42] [--checkpoint-every N]
                   [--resume <ckpt>] [--threads N] [--trace-out <path>]
  edgellm generate --ckpt <ckpt> --prompt <text> [--tokens 40] [--top-k 3]
                   [--temperature 0.8] [--seed 42]
                   [--draft-depth N [--draft-k 4]]
  edgellm serve    --ckpt <ckpt> --requests <file> [--batch 4] [--threads N]
                   [--trace-out <path>]
  edgellm loadgen  --scenario <steady|burst|crash|stall> [--workers 2]
                   [--batch 4] [--queue 16] [--retries 2] [--slo N]
                   [--seed N] [--tenants N] [--threads N]
                   [--trace-out <path>]
  edgellm lab run     --spec <file.jsonl> [--out-dir .lab] [--run-id <id>]
                      [--threads N]
  edgellm lab analyze --run <.lab/runs/ID>
  edgellm lab check   --run <.lab/runs/ID> --baseline <file.json> [--update]
  edgellm inspect  --ckpt <ckpt>
  edgellm policy   --corpus <file> [--budget 0.25] [--seed 42]
  edgellm report   [--quick] [--all | --t1 --t2 ... --a3 --s1]
  edgellm help

Request file (serve): one request per line, '#' starts a comment line.
Key=value options, then ' :: ', then the prompt text:
  id=r1 tokens=20 mode=topk k=3 temp=0.9 seed=7 voting=conf deadline=40 :: monday:
Options (all optional): id, tokens (max new tokens), mode
(greedy|sample|topk|spec), k, depth (spec draft exit layer), temp,
seed, voting (final|last|conf|avg; spec defaults to final), deadline
(max fed tokens), tenant (decode with that tenant's LoRA adapter over
the shared frozen base; the adapter is seeded from the tenant name).
Each request decodes exactly as it would alone: batching never changes
outputs, only throughput — and a tenant's stream never changes with
who shares the batch.

Self-speculative decoding (generate --draft-depth N, serve mode=spec):
drafts k tokens from exit layer N's logits, verifies them in one
full-depth pass, and accepts the longest agreeing prefix plus the
verifier's correction. Output is bit-identical to greedy decode from
the final exit (serve mode=greedy voting=final) — only throughput
changes. Without --draft-depth, generate votes like voting=conf.

Load generation (loadgen): drives a seeded traffic scenario through the
sharded serving fleet against a synthetic tiny model — no checkpoint
needed. Scenarios bundle arrival patterns, priority mixes, and fault
schedules (worker crashes/stalls); the same scenario and seed always
produce the same sessions, shed decisions, and token streams, so fleet
behaviour under overload is a reproducible experiment. Only the
wall-clock decode latency line varies between runs. --tenants N spreads
sessions across N tenants, each decoding with its own seeded LoRA
adapter over the one frozen base on every worker.

Experiments (lab): a spec under experiments/ is a JSONL grid of seeded
scenarios (spec_decode|tenants|fleet|igemm|tune families) with A/B
variant plans. `lab run` executes every (task x variant x repeat) trial
in-process, writes trial records under <out-dir>/runs/<run_id>/, builds
JSONL analysis tables (metrics, summaries, deltas, timing, oracles),
and fails if any differential oracle breaks — repeats must be
byte-identical, and declared variants_equal metrics must agree.
`lab check` gates the analysis against a stored baseline; with
--update it regenerates the baseline from the run (baselines are
generated, never hand-edited).

Kernel threads: results are bit-identical for every thread count, so
--threads only changes speed. 0 means all cores; the EDGELLM_THREADS
environment variable sets the default when the flag is absent.

Tracing: --trace-out <path> (or the EDGELLM_TRACE environment variable)
writes a JSON-lines span/counter trace of the run. Recording never
changes results, only observes them.
";

/// One subcommand's arguments, parsed by consumption: each `parse_args`
/// arm takes its `--flag value` pairs out of the list, and whatever is
/// left when it is done is the error — a mistyped or repeated flag must
/// not silently run with a default or with the first value given. A value
/// never begins with `--`, so a flag followed by another flag is missing
/// its value rather than swallowing its neighbour.
struct Flags<'a>(Vec<&'a str>);

impl Flags<'_> {
    /// Removes the first `flag`, reporting where it stood.
    fn take(&mut self, flag: &str) -> Option<usize> {
        let at = self.0.iter().position(|&a| a == flag)?;
        self.0.remove(at);
        Some(at)
    }

    /// Removes the first `flag` together with its value, parsed.
    fn optional<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, CliError> {
        let Some(at) = self.take(flag) else {
            return Ok(None);
        };
        let v = match self.0.get(at) {
            Some(v) if !v.starts_with("--") => self.0.remove(at),
            _ => return Err(CliError::Usage(format!("flag {flag} needs a value"))),
        };
        match v.parse() {
            Ok(parsed) => Ok(Some(parsed)),
            Err(_) => Err(CliError::Usage(format!("invalid value {v:?} for {flag}"))),
        }
    }

    fn required(&mut self, flag: &str) -> Result<String, CliError> {
        let value = self.optional(flag)?;
        value.ok_or_else(|| CliError::Usage(format!("missing required flag {flag}")))
    }

    fn or<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.optional(flag)?.unwrap_or(default))
    }

    /// A LUC mean-cost budget, held to `[0, 1]` as
    /// `ExperimentConfig::validate` holds it (NaN is outside every range).
    fn budget(&mut self) -> Result<f32, CliError> {
        let budget = self.or("--budget", 0.25)?;
        if !(0.0..=1.0).contains(&budget) {
            return Err(CliError::Usage(format!(
                "--budget must be in [0,1], got {budget}"
            )));
        }
        Ok(budget)
    }

    /// The runtime flags: `--threads`, and, where the subcommand records
    /// a trace of its own, `--trace-out` (`EDGELLM_TRACE` when absent).
    fn runtime(&mut self, traced: bool) -> Result<Runtime, CliError> {
        let threads = self.optional("--threads")?;
        let trace_out = if traced {
            self.optional("--trace-out")?
                .or_else(telemetry::env_trace_path)
        } else {
            None
        };
        Ok(Runtime { threads, trace_out })
    }

    /// Succeeds if every argument was consumed.
    fn finish(self) -> Result<(), CliError> {
        match self.0.first() {
            None => Ok(()),
            Some(arg) if arg.starts_with("--") => {
                Err(CliError::Usage(format!("unknown or repeated flag {arg:?}")))
            }
            Some(arg) => Err(CliError::Usage(format!("unexpected argument {arg:?}"))),
        }
    }
}

/// Parses an argument vector (without the program name) into the command
/// and the runtime it runs under.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown subcommands or flags, missing
/// required flags, repeated flags, flags without a value, or unparseable
/// or out-of-range values.
pub fn parse_args(args: &[String]) -> Result<(Command, Runtime), CliError> {
    let mut f = Flags(args.iter().skip(1).map(String::as_str).collect());
    let command = match args.first().map_or("help", String::as_str) {
        "adapt" => Command::Adapt(Adapt {
            corpus: f.required("--corpus")?,
            out: f.required("--out")?,
            budget: f.budget()?,
            window: f.or("--window", 2)?,
            iterations: f.or("--iterations", DEFAULT_ITERATIONS)?,
            seed: f.or("--seed", 42)?,
            checkpoint_every: f.or("--checkpoint-every", 0)?,
            resume: f.optional("--resume")?,
        }),
        "generate" => Command::Generate(Generate {
            ckpt: f.required("--ckpt")?,
            prompt: f.required("--prompt")?,
            tokens: f.or("--tokens", 40)?,
            top_k: f.or("--top-k", 3)?,
            temperature: f.or("--temperature", 0.8)?,
            seed: f.or("--seed", 42)?,
            draft_depth: f.optional("--draft-depth")?,
            draft_k: f.or("--draft-k", 4)?,
        }),
        "serve" => Command::Serve(Serve {
            ckpt: f.required("--ckpt")?,
            requests: f.required("--requests")?,
            batch: f.or("--batch", 4)?,
        }),
        "loadgen" => Command::Loadgen(Loadgen {
            scenario: f.required("--scenario")?,
            workers: f.or("--workers", 2)?,
            batch: f.or("--batch", 4)?,
            queue: f.or("--queue", 16)?,
            retries: f.or("--retries", 2)?,
            slo: f.optional("--slo")?,
            seed: f.optional("--seed")?,
            tenants: f.or("--tenants", 0)?,
        }),
        "lab" => {
            let action = (!f.0.is_empty()).then(|| f.0.remove(0));
            Command::Lab(match action {
                Some("run") => LabCommand::Run {
                    spec: f.required("--spec")?,
                    out_dir: f.or("--out-dir", ".lab".to_string())?,
                    run_id: f.optional("--run-id")?,
                },
                Some("analyze") => LabCommand::Analyze {
                    run: f.required("--run")?,
                },
                Some("check") => LabCommand::Check {
                    run: f.required("--run")?,
                    baseline: f.required("--baseline")?,
                    update: f.take("--update").is_some(),
                },
                other => {
                    let got = other.map_or(String::new(), |a| format!(", got {a:?}"));
                    let msg = format!("lab needs an action: run|analyze|check{got}");
                    return Err(CliError::Usage(msg));
                }
            })
        }
        "inspect" => Command::Inspect(Inspect {
            ckpt: f.required("--ckpt")?,
        }),
        "policy" => Command::Policy(Policy {
            corpus: f.required("--corpus")?,
            budget: f.budget()?,
            seed: f.or("--seed", 42)?,
        }),
        "report" => {
            let quick = f.take("--quick").is_some();
            let all = f.take("--all").is_some();
            let mut experiments: Vec<&'static str> = ALL_EXPERIMENTS
                .into_iter()
                .filter(|id| f.take(&format!("--{id}")).is_some())
                .collect();
            if experiments.is_empty() || all {
                experiments = ALL_EXPERIMENTS.to_vec();
            }
            Command::Report(Report { quick, experiments })
        }
        "help" | "--help" | "-h" => return Ok((Command::Help, Runtime::default())),
        other => return Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    // The lab runner owns telemetry per trial, so `lab run` records no
    // trace of its own.
    let runtime = match &command {
        Command::Adapt(_) | Command::Serve(_) | Command::Loadgen(_) => f.runtime(true)?,
        Command::Lab(LabCommand::Run { .. }) => f.runtime(false)?,
        _ => Runtime::default(),
    };
    f.finish()?;
    Ok((command, runtime))
}

fn run_err<E: fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

/// Executes a parsed command under `runtime`, writing human-readable
/// output to `out`: sets the kernel threads, records the trace around
/// the subcommand and writes it once the subcommand has succeeded.
///
/// # Errors
///
/// Returns [`CliError::Run`] when file access, adaptation, or generation
/// fails.
pub fn run<W: Write>(command: &Command, runtime: &Runtime, out: &mut W) -> Result<(), CliError> {
    if let Some(threads) = runtime.threads {
        edge_llm_tensor::set_configured_threads(threads);
    }
    if runtime.trace_out.is_some() {
        telemetry::enable(std::sync::Arc::new(telemetry::MonotonicClock::default()));
    }
    let ran = match command {
        Command::Adapt(c) => adapt::adapt(c, out),
        Command::Policy(c) => adapt::policy(c, out),
        Command::Inspect(c) => adapt::inspect(c, out),
        Command::Generate(c) => serve::generate(c, out),
        Command::Serve(c) => serve::serve(c, out),
        Command::Loadgen(c) => serve::loadgen(c, out),
        Command::Lab(c) => lab::lab(c, out),
        Command::Report(c) => lab::report(c, out),
        Command::Help => write!(out, "{USAGE}").map_err(CliError::from),
    };
    let Some(path) = &runtime.trace_out else {
        return ran;
    };
    let events = telemetry::disable();
    ran?;
    let file = std::fs::File::create(path)
        .map_err(|e| CliError::Run(format!("cannot create trace file {path}: {e}")))?;
    let mut w = std::io::BufWriter::new(file);
    telemetry::write_jsonl(&mut w, &events)?;
    w.flush()?;
    writeln!(out, "trace written to {path} ({} events)", events.len())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{cli_model_config, warm_policy};
    use crate::serve::parse_request_file;
    use edge_llm_model::{Decoding, EdgeModel, VotingCombiner, VotingPolicy};
    use edge_llm_tensor::TensorRng;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_adapt_with_defaults() {
        let cmd = parse_args(&argv("adapt --corpus notes.txt --out m.ckpt")).unwrap();
        assert_eq!(
            cmd,
            (
                Command::Adapt(Adapt {
                    corpus: "notes.txt".into(),
                    out: "m.ckpt".into(),
                    budget: 0.25,
                    window: 2,
                    iterations: 400,
                    seed: 42,
                    checkpoint_every: 0,
                    resume: None,
                }),
                Runtime::default()
            )
        );
    }

    #[test]
    fn parse_trace_out_flag() {
        let (_, runtime) =
            parse_args(&argv("adapt --corpus a --out b --trace-out trace.jsonl")).unwrap();
        assert_eq!(runtime.trace_out.as_deref(), Some("trace.jsonl"));
        let (_, runtime) =
            parse_args(&argv("serve --ckpt m --requests q --trace-out t.jsonl")).unwrap();
        assert_eq!(runtime.trace_out.as_deref(), Some("t.jsonl"));
        // the lab runner records its own trials: `lab run` takes threads only
        let usage = |line: &str| matches!(parse_args(&argv(line)), Err(CliError::Usage(_)));
        assert!(usage("lab run --spec s --trace-out t.jsonl"));
        assert!(usage("generate --ckpt m --prompt p --trace-out t.jsonl"));
        assert!(usage("report --threads 2"));
    }

    #[test]
    fn parse_adapt_threads_flag() {
        let (_, runtime) =
            parse_args(&argv("adapt --corpus notes.txt --out m.ckpt --threads 4")).unwrap();
        assert_eq!(runtime.threads, Some(4));
        assert!(matches!(
            parse_args(&argv("adapt --corpus a --out b --threads many")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_adapt_resilience_flags() {
        let cmd = parse_args(&argv(
            "adapt --corpus notes.txt --out m.ckpt --checkpoint-every 25 --resume m.ckpt",
        ))
        .unwrap();
        match cmd {
            (Command::Adapt(a), _) => {
                assert_eq!(a.checkpoint_every, 25);
                assert_eq!(a.resume.as_deref(), Some("m.ckpt"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_generate_flags() {
        let cmd = parse_args(&argv(
            "generate --ckpt m.ckpt --prompt hello --tokens 10 --top-k 0 --seed 7",
        ))
        .unwrap();
        match cmd {
            (Command::Generate(g), _) => {
                assert_eq!(g.tokens, 10);
                assert_eq!(g.top_k, 0);
                assert_eq!(g.seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_generate_draft_flags() {
        let cmd = parse_args(&argv(
            "generate --ckpt m.ckpt --prompt hi --draft-depth 2 --draft-k 8",
        ))
        .unwrap();
        match cmd {
            (Command::Generate(g), _) => {
                assert_eq!(g.draft_depth, Some(2));
                assert_eq!(g.draft_k, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
        // speculation is off by default
        match parse_args(&argv("generate --ckpt m.ckpt --prompt hi")).unwrap() {
            (Command::Generate(g), _) => {
                assert_eq!(g.draft_depth, None);
                assert_eq!(g.draft_k, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            parse_args(&argv("generate --ckpt m --prompt p --draft-depth deep")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_required_flag_errors() {
        assert!(matches!(
            parse_args(&argv("adapt --out x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("inspect")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_and_valueless_flags_error() {
        let usage = |line: &str| match parse_args(&argv(line)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{line:?} accepted: {other:?}"),
        };
        // a typo must not silently run with the default it meant to change
        assert!(usage("generate --ckpt m --prompt p --token 3").contains("--token"));
        assert!(usage("inspect --ckpt m --bogus 1").contains("--bogus"));
        assert!(usage("adapt --corpus a --out b --draft-k 2").contains("--draft-k"));
        assert!(usage("lab analyze --run r --update").contains("--update"));
        assert!(usage("serve --ckpt m --requests q stray").contains("stray"));
        // a flag with nothing after it is not the same as an absent flag
        assert!(usage("generate --ckpt m --prompt p --tokens").contains("--tokens"));
        assert!(usage("adapt --corpus a --out b --resume").contains("--resume"));
        assert!(usage("lab check --run r --baseline").contains("--baseline"));
        // nor may it take the next flag as its value
        assert!(usage("generate --ckpt m --prompt --tokens 3").contains("--prompt needs"));
        assert!(usage("lab check --run r --baseline --update").contains("--baseline needs"));
        // a repeated flag must not silently keep the first value
        let twice = "repeated flag";
        assert!(usage("generate --ckpt m --prompt p --tokens 1 --tokens 30").contains(twice));
        assert!(usage("lab check --run r --baseline b --update --update").contains(twice));
        // `--budget` is a fraction of the uncompressed cost
        for bad in ["nan", "7", "-0.5"] {
            assert!(usage(&format!("adapt --corpus a --out b --budget {bad}")).contains("[0,1]"));
            assert!(usage(&format!("policy --corpus a --budget {bad}")).contains("[0,1]"));
        }
        // `--update` stays the one boolean
        assert!(matches!(
            parse_args(&argv("lab check --run r --baseline b --update")),
            Ok((Command::Lab(LabCommand::Check { update: true, .. }), _))
        ));
    }

    #[test]
    fn bad_value_errors() {
        assert!(matches!(
            parse_args(&argv("adapt --corpus a --out b --budget abc")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(matches!(
            parse_args(&argv("frobnicate")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn empty_args_are_help() {
        let help = (Command::Help, Runtime::default());
        assert_eq!(parse_args(&[]).unwrap(), help);
        assert_eq!(parse_args(&argv("help")).unwrap(), help);
        assert!(run_text(&Command::Help).contains("edgellm adapt"));
    }

    #[test]
    fn policy_prints_the_policy_adapt_installs() {
        let dir = std::env::temp_dir().join("edgellm-cli-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("chores.txt");
        let days = ["monday", "tuesday", "friday"];
        let chores = ["water the plants", "check the sensors", "feed the cat"];
        let text: String = (0..60)
            .map(|i| format!("{}: {}. ", days[i % 3], chores[(i * i + 1) % 3]))
            .collect();
        std::fs::write(&corpus, text).unwrap();
        let corpus = corpus.to_string_lossy().into_owned();
        let (seed, budget) = (1, 0.5);
        let task = crate::adapt::text_task(&corpus).unwrap();
        let preamble = |iterations| {
            let (_, policy, _) = warm_policy(&task, budget, iterations, seed).unwrap();
            policy.to_compact_string()
        };
        // `adapt` installs its preamble's policy; a 400-iteration run is
        // slow under the dev profile, so a short one stands in
        let adapted = run_text(&Command::Adapt(Adapt {
            corpus: corpus.clone(),
            out: dir.join("m.ckpt").to_string_lossy().into_owned(),
            budget,
            window: 2,
            iterations: 20,
            seed,
            checkpoint_every: 0,
            resume: None,
        }));
        let installed = format!("policy: {}", preamble(20));
        assert!(adapted.lines().any(|l| l == installed), "{adapted}");
        // and `policy` prints the preamble's policy at adapt's default
        // iterations
        let printed = run_text(&Command::Policy(Policy {
            corpus,
            budget,
            seed,
        }));
        let compact = format!("compact: {}", preamble(DEFAULT_ITERATIONS));
        assert!(printed.lines().any(|l| l == compact), "{printed}");
    }

    #[test]
    fn end_to_end_adapt_inspect_generate() {
        let dir = std::env::temp_dir().join("edgellm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("notes.txt");
        let ckpt_path = dir.join("model.ckpt");
        std::fs::write(
            &corpus_path,
            "water the plants. water the plants. check the sensors. water the plants. ",
        )
        .unwrap();
        let adapt = Command::Adapt(Adapt {
            corpus: corpus_path.to_string_lossy().into_owned(),
            out: ckpt_path.to_string_lossy().into_owned(),
            budget: 0.5,
            window: 2,
            iterations: 20,
            seed: 1,
            checkpoint_every: 0,
            resume: None,
        });
        let adapt_text = run_text(&adapt);
        assert!(adapt_text.contains("checkpoint written"));
        let policy_line = adapt_text
            .lines()
            .find(|l| l.starts_with("policy: "))
            .expect("adapt prints its policy");

        let text = run_text(&Command::Inspect(Inspect {
            ckpt: ckpt_path.to_string_lossy().into_owned(),
        }));
        assert!(text.contains("layers: 4"));
        assert!(text.contains("vocab: 96"));
        assert!(text.contains("iteration: 20"), "{text}");
        // the file carries the policy it was tuned under
        assert!(text.lines().any(|l| l == policy_line), "{text}");

        let text = run_text(&Command::Generate(Generate {
            ckpt: ckpt_path.to_string_lossy().into_owned(),
            prompt: "water".into(),
            tokens: 8,
            top_k: 0,
            temperature: 1.0,
            seed: 2,
            draft_depth: None,
            draft_k: 4,
        }));
        assert!(text.starts_with("water"));
        assert!(text.trim_end().len() >= "water".len() + 8);

        // self-speculative decode emits the final exit's greedy stream, so
        // its text is identical for every draft depth and k
        let spec_text = |depth: usize, k: usize| {
            run_text(&Command::Generate(Generate {
                ckpt: ckpt_path.to_string_lossy().into_owned(),
                prompt: "water".into(),
                tokens: 8,
                top_k: 0,
                temperature: 1.0,
                seed: 2,
                draft_depth: Some(depth),
                draft_k: k,
            }))
        };
        let reference = spec_text(1, 2);
        assert!(reference.starts_with("water"), "{reference}");
        assert_eq!(spec_text(2, 4), reference);
        assert_eq!(spec_text(3, 8), reference);

        // one decode walk over one restored model: `serve` prints what
        // the matching `generate` mode printed, off packed weights
        let requests_path = dir.join("queue.txt");
        std::fs::write(
            &requests_path,
            "id=voted tokens=8 mode=greedy :: water\n\
             id=drafted tokens=8 mode=spec depth=1 k=2 :: water\n",
        )
        .unwrap();
        let served = run_text(&Command::Serve(Serve {
            ckpt: ckpt_path.to_string_lossy().into_owned(),
            requests: requests_path.to_string_lossy().into_owned(),
            batch: 2,
        }));
        let served_line = |id: &str| {
            let line = served.lines().find(|l| l.starts_with(id)).unwrap();
            format!("water{}\n", line.split_once("]: ").unwrap().1)
        };
        assert_eq!(text, served_line("voted"), "{served}");
        assert_eq!(reference, served_line("drafted"), "{served}");
        // the policy quantized every layer it touched, and the engine
        // holds those as integer codes: fewer bytes than the dense model
        assert!(
            !policy_line.ends_with("16:0,16:0,16:0,16:0"),
            "{policy_line}"
        );
        let resident: usize = served
            .split(" resident weight bytes")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no resident-bytes figure in {served}"));
        let dense = EdgeModel::new(cli_model_config(96), &mut TensorRng::seed_from(0))
            .unwrap()
            .decode_weight_bytes();
        assert!(resident < dense, "{resident} resident vs {dense} dense");
    }

    fn adapt_cmd(corpus: &Path, ckpt: &Path, iterations: usize) -> Command {
        adapt_cmd_with(corpus, ckpt, iterations, 0, None)
    }

    fn adapt_cmd_with(
        corpus: &Path,
        ckpt: &Path,
        iterations: usize,
        checkpoint_every: usize,
        resume: Option<&Path>,
    ) -> Command {
        Command::Adapt(Adapt {
            corpus: corpus.to_string_lossy().into_owned(),
            out: ckpt.to_string_lossy().into_owned(),
            budget: 1.0,
            window: 2,
            iterations,
            seed: 3,
            checkpoint_every,
            resume: resume.map(|p| p.to_string_lossy().into_owned()),
        })
    }

    fn run_text(cmd: &Command) -> String {
        let mut buf = Vec::new();
        run(cmd, &Runtime::default(), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn run_err(cmd: &Command) -> CliError {
        match run(cmd, &Runtime::default(), &mut Vec::new()) {
            Err(e) => e,
            Ok(()) => panic!("{cmd:?} ran"),
        }
    }

    #[test]
    fn checkpoint_every_writes_state_and_resume_continues() {
        let dir = std::env::temp_dir().join("edgellm-cli-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("notes.txt");
        let ckpt_path = dir.join("model.ckpt");
        std::fs::write(&corpus_path, "check the sensors. water the plants. ").unwrap();
        // earlier versions of this test left a sidecar behind
        let sidecar = dir.join("model.ckpt.state");
        std::fs::remove_file(&sidecar).ok();

        // periodic snapshots and the final write share one file, and it
        // is byte-for-byte the file an uninterrupted run writes
        let straight = dir.join("straight.ckpt");
        run_text(&adapt_cmd(&corpus_path, &straight, 12));
        let text = run_text(&adapt_cmd_with(&corpus_path, &ckpt_path, 12, 6, None));
        assert!(text.contains("checkpoint written"), "{text}");
        assert!(text.contains("(iteration 12)"), "{text}");
        assert!(!sidecar.exists(), "no training-state sidecar is written");
        assert_eq!(
            std::fs::read(&ckpt_path).unwrap(),
            std::fs::read(&straight).unwrap()
        );

        // resume the finished file past its recorded iteration
        let resumed =
            |iterations| adapt_cmd_with(&corpus_path, &ckpt_path, iterations, 0, Some(&ckpt_path));
        let text = run_text(&resumed(16));
        assert!(text.contains("adapted on"), "resume did not run: {text}");
        assert!(text.contains("(iteration 16)"), "{text}");

        // resuming at-or-past the target is a clean no-op, not an error
        assert!(run_text(&resumed(6)).contains("nothing to do"));
    }

    #[test]
    fn resume_rejects_corrupt_state() {
        let dir = std::env::temp_dir().join("edgellm-cli-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("notes.txt");
        let ckpt_path = dir.join("model.ckpt");
        std::fs::write(&corpus_path, "water the plants. check the sensors. ").unwrap();
        run_text(&adapt_cmd(&corpus_path, &ckpt_path, 8));
        let good = std::fs::read(&ckpt_path).unwrap();
        let resume_from = |name: &str, bytes: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let cmd = adapt_cmd_with(&corpus_path, &ckpt_path, 16, 0, Some(&path));
            match run_err(&cmd) {
                CliError::Run(msg) => msg,
                other => panic!("{name} refused as usage: {other:?}"),
            }
        };

        // flip one payload byte: the checksum must catch it
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x01;
        let msg = resume_from("flipped.ckpt", &flipped);
        assert!(msg.contains("cannot resume"), "message: {msg}");
        // truncation is rejected too
        resume_from("truncated.ckpt", &good[..20]);
        // the retired model-only format is a version mismatch, not a panic
        let mut v1 = b"EDGELLM\x01".to_vec();
        v1.extend_from_slice(&good[8..200]);
        let msg = resume_from("v1.ckpt", &v1);
        assert!(msg.contains("format v1"), "message: {msg}");
    }

    #[test]
    fn parse_serve_flags() {
        let cmd = parse_args(&argv(
            "serve --ckpt m.ckpt --requests q.txt --batch 8 --threads 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            (
                Command::Serve(Serve {
                    ckpt: "m.ckpt".into(),
                    requests: "q.txt".into(),
                    batch: 8,
                }),
                Runtime {
                    threads: Some(2),
                    trace_out: None,
                }
            )
        );
        assert!(matches!(
            parse_args(&argv("serve --ckpt m.ckpt")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_loadgen_flags() {
        let cmd = parse_args(&argv(
            "loadgen --scenario burst --workers 4 --slo 8 --tenants 3",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            (
                Command::Loadgen(Loadgen {
                    scenario: "burst".into(),
                    workers: 4,
                    batch: 4,
                    queue: 16,
                    retries: 2,
                    slo: Some(8),
                    seed: None,
                    tenants: 3,
                }),
                Runtime::default()
            )
        );
        assert!(matches!(
            parse_args(&argv("loadgen --workers 2")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn loadgen_rejects_unknown_scenarios() {
        let (cmd, _) = parse_args(&argv("loadgen --scenario banana")).unwrap();
        match run_err(&cmd) {
            CliError::Usage(msg) => {
                assert!(msg.contains("banana"), "{msg}");
                assert!(msg.contains("steady"), "names not listed: {msg}");
            }
            other => panic!("unknown scenario accepted: {other:?}"),
        }
    }

    #[test]
    fn end_to_end_loadgen_reports_fleet_behaviour() {
        let (cmd, _) = parse_args(&argv(
            "loadgen --scenario crash --workers 2 --batch 2 --queue 4 --retries 2",
        ))
        .unwrap();
        let text = run_text(&cmd);
        assert!(text.contains("scenario crash"), "{text}");
        assert!(text.contains("fault @tick 4: worker-crash(0)"), "{text}");
        assert!(text.contains("fleet:"), "{text}");
        assert!(text.contains("queue wait (ticks)"), "{text}");
        // the crash scenario actually forces replays through the router
        assert!(!text.contains("0 replays"), "{text}");
    }

    #[test]
    fn request_file_parses_options_and_defaults() {
        let tok = edge_llm_data::CharTokenizer::new();
        let text = "\
# queue for the morning
id=r1 tokens=12 mode=topk k=3 temp=0.9 seed=7 voting=avg deadline=40 tenant=alice :: monday:

 :: bare prompt with defaults
";
        let reqs = parse_request_file(text, &tok, 4).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].id, "r1");
        assert_eq!(reqs[0].tenant.as_deref(), Some("alice"));
        assert_eq!(reqs[1].tenant, None);
        assert_eq!(reqs[0].max_new_tokens, 12);
        assert_eq!(
            reqs[0].decoding,
            Decoding::TopK {
                k: 3,
                temperature: 0.9
            }
        );
        assert_eq!(reqs[0].seed, 7);
        assert_eq!(reqs[0].deadline_steps, Some(40));
        assert_eq!(reqs[0].voting.combiner, VotingCombiner::Average);
        assert_eq!(reqs[0].prompt, tok.encode("monday:"));
        // second line: everything defaulted
        assert_eq!(reqs[1].id, "req2");
        assert_eq!(reqs[1].max_new_tokens, 20);
        assert_eq!(reqs[1].decoding, Decoding::Greedy);
        assert_eq!(reqs[1].deadline_steps, None);

        for bad in [
            "no separator here",
            "id=r1 stray :: p",
            "mode=banana :: p",
            "voting=banana :: p",
            "tokens=many :: p",
            "tenant= :: p",
            " :: ",
        ] {
            assert!(
                matches!(parse_request_file(bad, &tok, 4), Err(CliError::Usage(_))),
                "line accepted: {bad:?}"
            );
        }
        // outcomes are printed by id, so a repeat is refused with both
        // line numbers — an explicit id that takes a later default included
        let err = parse_request_file("id=a :: p\n# note\nid=a tokens=3 :: q", &tok, 4).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("line 1"), "{msg}");
        assert!(parse_request_file("id=req2 :: p\n :: q", &tok, 4).is_err());
    }

    #[test]
    fn request_file_parses_spec_mode() {
        let tok = edge_llm_data::CharTokenizer::new();
        let text = "\
id=s1 mode=spec :: drafted
id=s2 mode=spec depth=2 k=6 voting=last :: tuned
";
        let reqs = parse_request_file(text, &tok, 4).unwrap();
        // spec defaults: depth 1, the shared k default, final-exit voting
        assert_eq!(
            reqs[0].decoding,
            Decoding::SelfSpeculative {
                draft_depth: 1,
                k: 3
            }
        );
        assert_eq!(reqs[0].voting, VotingPolicy::final_only(4));
        assert_eq!(
            reqs[1].decoding,
            Decoding::SelfSpeculative {
                draft_depth: 2,
                k: 6
            }
        );
        // explicit voting wins over the spec default (and is rejected
        // later by request validation, not the parser)
        assert_eq!(reqs[1].voting.combiner, VotingCombiner::LastExit);

        let err = parse_request_file("mode=banana :: p", &tok, 4).unwrap_err();
        assert!(err.to_string().contains("spec"), "{err}");
        assert!(matches!(
            parse_request_file("mode=spec depth=deep :: p", &tok, 4),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn end_to_end_loadgen_serves_tenants_over_one_base() {
        let (cmd, _) =
            parse_args(&argv("loadgen --scenario steady --workers 2 --tenants 3")).unwrap();
        let text = run_text(&cmd);
        assert!(text.contains("3 tenant adapters"), "{text}");
        assert!(text.contains("24 served"), "every session serves: {text}");
    }

    #[test]
    fn end_to_end_serve_reports_outcomes_and_throughput() {
        let dir = std::env::temp_dir().join("edgellm-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("notes.txt");
        let ckpt_path = dir.join("model.ckpt");
        std::fs::write(
            &corpus_path,
            "water the plants. water the plants. check the sensors. ",
        )
        .unwrap();
        run_text(&adapt_cmd(&corpus_path, &ckpt_path, 8));

        let requests_path = dir.join("queue.txt");
        std::fs::write(
            &requests_path,
            "\
id=morning tokens=6 voting=final :: water
id=evening tokens=4 mode=topk k=2 temp=0.9 seed=5 :: check
id=late tokens=8 deadline=2 :: sensors
id=drafty tokens=6 mode=spec depth=1 k=4 :: water
id=tenanted tokens=6 voting=final tenant=alice :: water
",
        )
        .unwrap();
        let trace_path = dir.join("trace.jsonl");
        let cmd = Command::Serve(Serve {
            ckpt: ckpt_path.to_string_lossy().into_owned(),
            requests: requests_path.to_string_lossy().into_owned(),
            batch: 2,
        });
        let runtime = Runtime {
            threads: None,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
        };
        let mut buf = Vec::new();
        run(&cmd, &runtime, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("morning [completed, 6 tokens"), "{text}");
        assert!(text.contains("evening [completed, 4 tokens"), "{text}");
        // deadline of 2 fed tokens stops "late" during its 7-token prompt
        assert!(text.contains("late [deadline exceeded, 0 tokens"), "{text}");
        assert!(text.contains("drafty [completed, 6 tokens"), "{text}");
        assert!(text.contains("tenanted [completed, 6 tokens"), "{text}");
        assert!(text.contains("served 5 requests"), "{text}");
        // one tenant, admitted once: a single adapter miss, resident after
        assert!(text.contains("adapters: 0 hits, 1 misses"), "{text}");
        assert!(text.contains("resident: alice="), "{text}");
        assert!(text.contains("tokens/s"), "{text}");
        assert!(text.contains("batched passes"), "{text}");
        assert!(text.contains("latency: queue wait"), "{text}");
        assert!(text.contains("speculative:"), "{text}");
        assert!(text.contains("tokens/verify pass"), "{text}");
        assert!(text.contains("trace written to"), "{text}");
        // the spec request and the greedy request share prompt, length,
        // and (by bit-identity) output text
        let line = |id: &str| {
            text.lines()
                .find(|l| l.starts_with(id))
                .unwrap_or_else(|| panic!("no line for {id}: {text}"))
                .split("]: ")
                .nth(1)
                .unwrap()
                .to_string()
        };
        assert_eq!(line("morning"), line("drafty"), "{text}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.lines().count() > 0, "trace file is empty");
        assert!(trace.contains("\"serve.step\""), "{trace}");
        assert!(trace.contains("serve.evict.completed"), "{trace}");
    }

    #[test]
    fn serve_rejects_missing_inputs() {
        let cmd = Command::Serve(Serve {
            ckpt: "/nonexistent/nope.ckpt".into(),
            requests: "/nonexistent/queue.txt".into(),
            batch: 4,
        });
        assert!(matches!(run_err(&cmd), CliError::Run(_)));
    }

    #[test]
    fn generate_rejects_missing_checkpoint() {
        let cmd = Command::Generate(Generate {
            ckpt: "/nonexistent/nope.ckpt".into(),
            prompt: "x".into(),
            tokens: 1,
            top_k: 0,
            temperature: 1.0,
            seed: 1,
            draft_depth: None,
            draft_k: 4,
        });
        assert!(matches!(run_err(&cmd), CliError::Run(_)));
    }
}
