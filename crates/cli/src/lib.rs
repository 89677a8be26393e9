//! Command-line interface for the Edge-LLM reproduction.
//!
//! Six subcommands cover the on-device lifecycle:
//!
//! ```text
//! edgellm adapt    --corpus notes.txt --budget 0.25 --out model.ckpt
//! edgellm generate --ckpt model.ckpt --prompt "monday:" --tokens 40
//! edgellm serve    --ckpt model.ckpt --requests queue.txt --batch 4
//! edgellm loadgen  --scenario burst --workers 2
//! edgellm inspect  --ckpt model.ckpt
//! edgellm policy   --corpus notes.txt --budget 0.25
//! ```
//!
//! Argument parsing and command execution live in this library so they are
//! unit-testable; `src/main.rs` is a thin wrapper.

use edge_llm::compress::apply_policy;
use edge_llm::pipeline::luc_policy;
use edge_llm::resilience::{resilient_adapt, restore_run, ResilienceConfig, RunMeta};
use edge_llm_data::{Dataset, TaskGenerator, TextLmTask};
use edge_llm_fleet::{run_fleet_with_adapters, FleetConfig, ScenarioSpec};
use edge_llm_luc::{CompressionPolicy, SearchAlgorithm};
use edge_llm_model::{
    generate, AdapterTarget, AdaptiveTuner, Decoding, EdgeModel, ModelConfig, Sgd, TenantAdapter,
    TrainingCheckpoint, VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm_serve::{BatchedInferenceEngine, FinishReason, ServeRequest};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{fnv1a64, TensorRng};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Adapt a model to a text corpus and write a checkpoint.
    Adapt {
        /// Path to the UTF-8 corpus file.
        corpus: String,
        /// Output checkpoint path.
        out: String,
        /// LUC mean-cost budget (1.0 = no compression).
        budget: f32,
        /// Backprop window depth.
        window: usize,
        /// Adaptation iterations.
        iterations: usize,
        /// RNG seed.
        seed: u64,
        /// Also write the checkpoint every N iterations (0 = at the end only).
        checkpoint_every: usize,
        /// Resume from a checkpoint written by `adapt`.
        resume: Option<String>,
        /// Kernel worker threads (`0` = all cores). `None` leaves the
        /// `EDGELLM_THREADS` environment default in place.
        threads: Option<usize>,
        /// Write a JSON-lines telemetry trace to this path. `None` falls
        /// back to the `EDGELLM_TRACE` environment variable.
        trace_out: Option<String>,
    },
    /// Generate a continuation from an adapted checkpoint.
    Generate {
        /// Checkpoint path (written by `adapt`).
        ckpt: String,
        /// Prompt text (printable ASCII).
        prompt: String,
        /// Number of tokens to generate.
        tokens: usize,
        /// Top-k pool size (0 = greedy).
        top_k: usize,
        /// Sampling temperature.
        temperature: f32,
        /// RNG seed.
        seed: u64,
        /// Draft exit layer for self-speculative decoding (`Some` turns
        /// it on, overriding `top_k`; output equals greedy decode).
        draft_depth: Option<usize>,
        /// Draft tokens per verify pass when self-speculating.
        draft_k: usize,
    },
    /// Serve a batch of generation requests from a request file through
    /// the continuous-batching engine.
    Serve {
        /// Checkpoint path (written by `adapt`).
        ckpt: String,
        /// Path to the request file (one request per line, see `help`).
        requests: String,
        /// Maximum requests per batched forward pass.
        batch: usize,
        /// Kernel worker threads (`0` = all cores). `None` leaves the
        /// `EDGELLM_THREADS` environment default in place.
        threads: Option<usize>,
        /// Write a JSON-lines telemetry trace to this path. `None` falls
        /// back to the `EDGELLM_TRACE` environment variable.
        trace_out: Option<String>,
    },
    /// Drive a seeded traffic scenario through the sharded serving
    /// fleet and print the fleet report.
    Loadgen {
        /// Built-in scenario name (steady|burst|crash|stall).
        scenario: String,
        /// Number of engine workers.
        workers: usize,
        /// Batch slots per worker.
        batch: usize,
        /// Bounded per-worker queue depth.
        queue: usize,
        /// Replay budget per session after a worker crash.
        retries: usize,
        /// Shed sessions that queue longer than this many ticks.
        slo: Option<u64>,
        /// Override the scenario's traffic seed.
        seed: Option<u64>,
        /// Spread sessions across this many tenants, each with its own
        /// seeded LoRA adapter over the shared frozen base (0 = all
        /// sessions on the base).
        tenants: usize,
        /// Kernel worker threads (`0` = all cores). `None` leaves the
        /// `EDGELLM_THREADS` environment default in place.
        threads: Option<usize>,
        /// Write a JSON-lines telemetry trace to this path. `None` falls
        /// back to the `EDGELLM_TRACE` environment variable.
        trace_out: Option<String>,
    },
    /// Run, analyze, or gate a declarative experiment spec through the
    /// lab runner.
    Lab(LabCommand),
    /// Print a checkpoint's configuration, size, policy and iteration.
    Inspect {
        /// Checkpoint path.
        ckpt: String,
    },
    /// Search and print a LUC policy for a corpus without adapting.
    Policy {
        /// Path to the UTF-8 corpus file.
        corpus: String,
        /// LUC mean-cost budget.
        budget: f32,
        /// RNG seed.
        seed: u64,
    },
    /// Print usage.
    Help,
}

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
        /// Kernel worker threads (`0` = all cores). `None` leaves the
        /// `EDGELLM_THREADS` environment default in place.
        threads: Option<usize>,
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

    /// Hands back the parsed command if every argument was consumed.
    fn finish(self, command: Command) -> Result<Command, CliError> {
        match self.0.first() {
            None => Ok(command),
            Some(arg) if arg.starts_with("--") => {
                Err(CliError::Usage(format!("unknown or repeated flag {arg:?}")))
            }
            Some(arg) => Err(CliError::Usage(format!("unexpected argument {arg:?}"))),
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown subcommands or flags, missing
/// required flags, repeated flags, flags without a value, or unparseable
/// or out-of-range values.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let mut f = Flags(args[1..].iter().map(String::as_str).collect());
    let command = match sub.as_str() {
        "adapt" => Command::Adapt {
            corpus: f.required("--corpus")?,
            out: f.required("--out")?,
            budget: f.budget()?,
            window: f.or("--window", 2)?,
            iterations: f.or("--iterations", 400)?,
            seed: f.or("--seed", 42)?,
            checkpoint_every: f.or("--checkpoint-every", 0)?,
            resume: f.optional("--resume")?,
            threads: f.optional("--threads")?,
            trace_out: f.optional("--trace-out")?,
        },
        "generate" => Command::Generate {
            ckpt: f.required("--ckpt")?,
            prompt: f.required("--prompt")?,
            tokens: f.or("--tokens", 40)?,
            top_k: f.or("--top-k", 3)?,
            temperature: f.or("--temperature", 0.8)?,
            seed: f.or("--seed", 42)?,
            draft_depth: f.optional("--draft-depth")?,
            draft_k: f.or("--draft-k", 4)?,
        },
        "serve" => Command::Serve {
            ckpt: f.required("--ckpt")?,
            requests: f.required("--requests")?,
            batch: f.or("--batch", 4)?,
            threads: f.optional("--threads")?,
            trace_out: f.optional("--trace-out")?,
        },
        "loadgen" => Command::Loadgen {
            scenario: f.required("--scenario")?,
            workers: f.or("--workers", 2)?,
            batch: f.or("--batch", 4)?,
            queue: f.or("--queue", 16)?,
            retries: f.or("--retries", 2)?,
            slo: f.optional("--slo")?,
            seed: f.optional("--seed")?,
            tenants: f.or("--tenants", 0)?,
            threads: f.optional("--threads")?,
            trace_out: f.optional("--trace-out")?,
        },
        "lab" => {
            let action = (!f.0.is_empty()).then(|| f.0.remove(0));
            Command::Lab(match action {
                Some("run") => LabCommand::Run {
                    spec: f.required("--spec")?,
                    out_dir: f.or("--out-dir", ".lab".to_string())?,
                    run_id: f.optional("--run-id")?,
                    threads: f.optional("--threads")?,
                },
                Some("analyze") => LabCommand::Analyze {
                    run: f.required("--run")?,
                },
                Some("check") => LabCommand::Check {
                    run: f.required("--run")?,
                    baseline: f.required("--baseline")?,
                    update: f.take("--update").is_some(),
                },
                None => {
                    return Err(CliError::Usage(
                        "lab needs an action: run|analyze|check".to_string(),
                    ))
                }
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown lab action {other:?} (run|analyze|check)"
                    )))
                }
            })
        }
        "inspect" => Command::Inspect {
            ckpt: f.required("--ckpt")?,
        },
        "policy" => Command::Policy {
            corpus: f.required("--corpus")?,
            budget: f.budget()?,
            seed: f.or("--seed", 42)?,
        },
        "help" | "--help" | "-h" => return Ok(Command::Help),
        other => return Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    f.finish(command)
}

fn run_err<E: fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

/// Turns recording on when a trace destination is configured (flag first,
/// then `EDGELLM_TRACE`); returns the destination path.
fn start_trace(trace_out: &Option<String>) -> Option<String> {
    let path = trace_out.clone().or_else(telemetry::env_trace_path)?;
    telemetry::enable(std::sync::Arc::new(telemetry::MonotonicClock::default()));
    Some(path)
}

/// Stops recording and writes the collected events as JSON lines.
fn finish_trace<W: std::io::Write>(path: &str, out: &mut W) -> Result<(), CliError> {
    let events = telemetry::disable();
    let file = fs::File::create(path)
        .map_err(|e| CliError::Run(format!("cannot create trace file {path}: {e}")))?;
    let mut w = std::io::BufWriter::new(file);
    telemetry::write_jsonl(&mut w, &events).map_err(run_err)?;
    w.flush().map_err(run_err)?;
    writeln!(out, "trace written to {path} ({} events)", events.len()).map_err(run_err)
}

fn text_task(corpus_path: &str) -> Result<TextLmTask, CliError> {
    let corpus = fs::read_to_string(corpus_path)
        .map_err(|e| CliError::Run(format!("cannot read corpus {corpus_path}: {e}")))?;
    TextLmTask::new(&corpus).map_err(run_err)
}

/// Derives a deterministic per-tenant LoRA adapter from the tenant name
/// alone (FNV-1a of the name seeds the factors), so `serve` and
/// `loadgen` agree on what any tenant's adapter looks like without a
/// registry file. Rank-1 deltas on the first layer's attention input
/// and the last layer's FFN output are enough to make each tenant's
/// stream distinct while staying tiny next to the packed base.
fn seeded_tenant_adapter(cfg: &ModelConfig, tenant: &str) -> TenantAdapter {
    let seed = fnv1a64(tenant.as_bytes());
    let sites = [
        (0, AdapterTarget::Qkv),
        (cfg.n_layers - 1, AdapterTarget::Fc2),
    ];
    TenantAdapter::seeded(cfg, seed, 1, &sites)
}

fn cli_model_config(vocab: usize) -> ModelConfig {
    ModelConfig::tiny()
        .with_layers(4)
        .with_d_model(64, 4)
        .with_seq_len(48)
        .with_vocab(vocab)
}

/// The DP-searched LUC policy on four freshly sampled corpus sequences.
fn corpus_policy(
    model: &EdgeModel,
    task: &TextLmTask,
    budget: f32,
    rng: &mut TensorRng,
) -> Result<CompressionPolicy, CliError> {
    let seq = model.config().seq_len;
    let calib: Vec<_> = (0..4).map(|_| task.sample(seq, rng)).collect();
    let tokens: Vec<usize> = calib.iter().flat_map(|s| s.tokens.clone()).collect();
    let targets: Vec<usize> = calib.iter().flat_map(|s| s.targets.clone()).collect();
    let algorithm = SearchAlgorithm::DynamicProgramming;
    luc_policy(model, &tokens, &targets, 4, budget, algorithm).map_err(run_err)
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError::Run`] when file access, adaptation, or generation
/// fails.
pub fn run<W: std::io::Write>(command: &Command, out: &mut W) -> Result<(), CliError> {
    match command {
        Command::Help => {
            write!(out, "{USAGE}").map_err(run_err)?;
        }
        Command::Policy {
            corpus,
            budget,
            seed,
        } => {
            let task = text_task(corpus)?;
            let mut rng = TensorRng::seed_from(*seed);
            let model =
                EdgeModel::new(cli_model_config(task.vocab_size()), &mut rng).map_err(run_err)?;
            // brief warmup so sensitivity is meaningful
            let mut model = model;
            adapt_model(&mut model, &task, 100, 1, &mut rng)?;
            let policy = corpus_policy(&model, &task, *budget, &mut rng)?;
            writeln!(out, "policy: {policy}").map_err(run_err)?;
            writeln!(out, "compact: {}", policy.to_compact_string()).map_err(run_err)?;
            writeln!(
                out,
                "mean cost: {:.3}  mean bits: {:.1}",
                policy.mean_cost(),
                policy.mean_bits()
            )
            .map_err(run_err)?;
        }
        Command::Adapt {
            corpus,
            out: ckpt,
            budget,
            window,
            iterations,
            seed,
            checkpoint_every,
            resume,
            threads,
            trace_out,
        } => {
            if let Some(t) = threads {
                edge_llm_tensor::set_configured_threads(*t);
            }
            let trace_path = start_trace(trace_out);
            let task = text_task(corpus)?;
            // Dataset sampling uses its own seed-derived stream so a resumed
            // run can regenerate the identical dataset from the checkpoint.
            let (mut model, mut opt, mut rng, meta, start) = match resume {
                Some(path) => load_text_run(path)
                    .map_err(|e| CliError::Run(format!("cannot resume from {path}: {e}")))?,
                None => {
                    let mut rng = TensorRng::seed_from(*seed);
                    let mut model = EdgeModel::new(cli_model_config(task.vocab_size()), &mut rng)
                        .map_err(run_err)?;
                    // warmup -> policy -> compressed windowed adaptation
                    let full_depth = model.n_layers();
                    adapt_model(&mut model, &task, iterations / 4, full_depth, &mut rng)?;
                    let policy = if *budget < 1.0 {
                        let p = corpus_policy(&model, &task, *budget, &mut rng)?;
                        apply_policy(&mut model, &p).map_err(run_err)?;
                        p
                    } else {
                        CompressionPolicy::identity(model.n_layers())
                    };
                    let meta = RunMeta {
                        policy,
                        data_seed: seed ^ 0xDA7A_5EED,
                        window: *window,
                    };
                    (model, Sgd::new(0.1), rng, meta, 0)
                }
            };
            let cfg = model.config().clone();
            let mut data_rng = TensorRng::seed_from(meta.data_seed);
            let ds = Dataset::from_samples(
                (0..32)
                    .map(|_| task.sample(cfg.seq_len, &mut data_rng))
                    .collect(),
            );
            let mut tuner =
                AdaptiveTuner::new(WindowSchedule::for_depth(meta.window, cfg.n_layers));
            tuner.set_iteration(start);
            // periodic snapshots land on the output path itself: one file
            let res = ResilienceConfig {
                checkpoint_every: *checkpoint_every,
                checkpoint_path: (*checkpoint_every > 0).then(|| PathBuf::from(ckpt)),
                ..ResilienceConfig::default()
            };
            let run = resilient_adapt(
                &mut model,
                &mut opt,
                &mut tuner,
                &mut rng,
                &ds,
                4,
                *iterations,
                meta.encode(),
                &res,
            )
            .map_err(run_err)?;
            let done = tuner.iterations() as u64;
            TrainingCheckpoint::capture(&model, &opt, done, &rng, meta.encode())
                .save_file(Path::new(ckpt))
                .map_err(run_err)?;
            if run.steps_executed == 0 {
                writeln!(
                    out,
                    "nothing to do: resumed at iteration {start} of {iterations}"
                )
                .map_err(run_err)?;
            } else {
                writeln!(out, "adapted on {corpus}: final loss {:.3}", run.final_loss)
                    .map_err(run_err)?;
            }
            writeln!(out, "policy: {}", meta.policy.to_compact_string()).map_err(run_err)?;
            if !run.journal.is_empty() {
                writeln!(out, "recovery journal:").map_err(run_err)?;
                write!(out, "{}", run.journal).map_err(run_err)?;
            }
            writeln!(out, "checkpoint written to {ckpt} (iteration {done})").map_err(run_err)?;
            if run.steps_executed > 0 {
                let p = run.phases;
                let ms = |ns: u64| ns as f64 / 1e6;
                writeln!(
                    out,
                    "phase totals: forward {:.1}ms backward {:.1}ms optimizer {:.1}ms \
                     checkpoint {:.1}ms ({} layer requants, {} cache evictions)",
                    ms(p.forward_ns),
                    ms(p.backward_ns),
                    ms(p.optimizer_ns),
                    ms(p.checkpoint_ns),
                    p.requant_layers,
                    p.cache_invalidations
                )
                .map_err(run_err)?;
            }
            if let Some(path) = &trace_path {
                finish_trace(path, out)?;
            }
        }
        Command::Generate {
            ckpt,
            prompt,
            tokens,
            top_k,
            temperature,
            seed,
            draft_depth,
            draft_k,
        } => {
            let tok = edge_llm_data::CharTokenizer::new();
            let (model, ..) = load_text_run(ckpt)?;
            let mut rng = TensorRng::seed_from(*seed);
            // --draft-depth switches to self-speculative decoding, which
            // verifies (and emits) the final exit's greedy tokens — so it
            // pins the voting policy to final-only.
            let (decoding, voting) = if let Some(depth) = draft_depth {
                (
                    Decoding::SelfSpeculative {
                        draft_depth: *depth,
                        k: *draft_k,
                    },
                    VotingPolicy::final_only(model.n_layers()),
                )
            } else {
                let decoding = if *top_k == 0 {
                    Decoding::Greedy
                } else {
                    Decoding::TopK {
                        k: *top_k,
                        temperature: *temperature,
                    }
                };
                (
                    decoding,
                    VotingPolicy::all_exits(
                        model.n_layers(),
                        VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
                    ),
                )
            };
            let ids = tok.encode(prompt);
            // Generation never mutates weights: build the quantized
            // layers' codes before the first token (no-op on dense models).
            model.pack_frozen_weights().map_err(run_err)?;
            let generated =
                generate(&model, &voting, &ids, *tokens, decoding, &mut rng).map_err(run_err)?;
            writeln!(out, "{}", tok.decode(&generated)).map_err(run_err)?;
        }
        Command::Serve {
            ckpt,
            requests,
            batch,
            threads,
            trace_out,
        } => {
            if let Some(t) = threads {
                edge_llm_tensor::set_configured_threads(*t);
            }
            let trace_path = start_trace(trace_out);
            let tok = edge_llm_data::CharTokenizer::new();
            let (model, ..) = load_text_run(ckpt)?;
            let text = fs::read_to_string(requests)
                .map_err(|e| CliError::Run(format!("cannot read requests {requests}: {e}")))?;
            let parsed = parse_request_file(&text, &tok, model.n_layers())?;
            if parsed.is_empty() {
                return Err(CliError::Run(format!("no requests in {requests}")));
            }
            let mut engine = BatchedInferenceEngine::new(&model, *batch).map_err(run_err)?;
            // every tenant named in the file gets its name-seeded adapter
            // registered up front; requests without one run the base
            let mut tenants: Vec<String> = Vec::new();
            for t in parsed.iter().filter_map(|r| r.tenant.clone()) {
                if !tenants.contains(&t) {
                    tenants.push(t);
                }
            }
            for t in &tenants {
                engine
                    .register_adapter(t, seeded_tenant_adapter(model.config(), t))
                    .map_err(run_err)?;
            }
            let ids: Vec<String> = parsed.iter().map(|r| r.id.clone()).collect();
            for r in parsed {
                engine.submit(r);
            }
            let t0 = std::time::Instant::now();
            let outcomes = engine.run_to_completion().map_err(run_err)?;
            let elapsed = t0.elapsed().as_secs_f64();
            let mut total_tokens = 0usize;
            for id in &ids {
                let o = outcomes
                    .iter()
                    .find(|o| &o.id == id)
                    .expect("every submission produces an outcome");
                match &o.finish {
                    FinishReason::Rejected { reason } => {
                        writeln!(out, "{id} [rejected: {reason}]").map_err(run_err)?;
                    }
                    finish => {
                        let status = match finish {
                            FinishReason::Completed => "completed",
                            FinishReason::DeadlineExceeded => "deadline exceeded",
                            FinishReason::CapacityExhausted => "capacity exhausted",
                            FinishReason::Rejected { .. } => unreachable!("handled above"),
                        };
                        total_tokens += o.tokens.len();
                        writeln!(
                            out,
                            "{id} [{status}, {} tokens, {} steps]: {}",
                            o.tokens.len(),
                            o.steps,
                            tok.decode(&o.tokens)
                        )
                        .map_err(run_err)?;
                    }
                }
            }
            writeln!(
                out,
                "served {} requests in {elapsed:.2}s: {total_tokens} tokens, \
                 {:.1} tokens/s, {} batched passes, {} resident weight bytes",
                ids.len(),
                total_tokens as f64 / elapsed.max(1e-9),
                engine.steps_run(),
                engine.weight_resident_bytes()
            )
            .map_err(run_err)?;
            let report = engine.report();
            writeln!(
                out,
                "latency: queue wait {} | decode token {}",
                report.queue_wait, report.decode_token
            )
            .map_err(run_err)?;
            if report.spec_rounds > 0 {
                // a round with zero drafts has no acceptance rate — print
                // n/a rather than a fabricated 0.00
                let ratio = |v: Option<f64>| match v {
                    Some(v) => format!("{v:.2}"),
                    None => "n/a".to_string(),
                };
                writeln!(
                    out,
                    "speculative: {} rounds, acceptance rate {}, \
                     {} tokens/verify pass",
                    report.spec_rounds,
                    ratio(report.spec_acceptance_rate()),
                    ratio(report.spec_tokens_per_verify_pass())
                )
                .map_err(run_err)?;
            }
            if !tenants.is_empty() {
                let resident: Vec<String> = report
                    .adapter_resident_bytes
                    .iter()
                    .map(|(t, b)| format!("{t}={b}B"))
                    .collect();
                writeln!(
                    out,
                    "adapters: {} hits, {} misses, {} lru + {} replaced evictions; \
                     resident: {}",
                    report.adapter_hits,
                    report.adapter_misses,
                    report.adapter_evictions_lru,
                    report.adapter_evictions_replaced,
                    if resident.is_empty() {
                        "none".to_string()
                    } else {
                        resident.join(" ")
                    }
                )
                .map_err(run_err)?;
            }
            if let Some(path) = &trace_path {
                finish_trace(path, out)?;
            }
        }
        Command::Loadgen {
            scenario,
            workers,
            batch,
            queue,
            retries,
            slo,
            seed,
            tenants,
            threads,
            trace_out,
        } => {
            if let Some(t) = threads {
                edge_llm_tensor::set_configured_threads(*t);
            }
            let trace_path = start_trace(trace_out);
            let mut spec = ScenarioSpec::builtin(scenario).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown scenario {scenario:?} (expected one of {})",
                    ScenarioSpec::builtin_names().join(", ")
                ))
            })?;
            if let Some(s) = seed {
                spec.seed = *s;
            }
            spec.tenants = *tenants;
            // the fleet is exercised against a synthetic tiny model: the
            // scenario is about router behaviour, not model quality
            let mut rng = TensorRng::seed_from(17);
            let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).map_err(run_err)?;
            let traffic = spec.generate(model.config().vocab_size, model.n_layers());
            let cfg = FleetConfig {
                workers: *workers,
                batch_per_worker: *batch,
                queue_depth: *queue,
                max_retries: *retries,
                slo_queue_ticks: *slo,
                faults: spec.faults.clone(),
            };
            writeln!(
                out,
                "scenario {} (seed {}): {} sessions over {} ticks, \
                 {} workers x {} slots, queue {}, retries {}",
                spec.name,
                spec.seed,
                traffic.len(),
                spec.span_ticks,
                workers,
                batch,
                queue,
                retries
            )
            .map_err(run_err)?;
            for fault in &spec.faults {
                writeln!(
                    out,
                    "  fault @tick {}: {}",
                    fault.at_tick,
                    fault.kind.label()
                )
                .map_err(run_err)?;
            }
            let adapters: Vec<(String, TenantAdapter)> = (0..*tenants)
                .map(|i| {
                    let name = format!("tenant-{i}");
                    let adapter = seeded_tenant_adapter(model.config(), &name);
                    (name, adapter)
                })
                .collect();
            if !adapters.is_empty() {
                writeln!(
                    out,
                    "  {} tenant adapters over one frozen base",
                    adapters.len()
                )
                .map_err(run_err)?;
            }
            let run =
                run_fleet_with_adapters(&model, &cfg, &adapters, &traffic).map_err(run_err)?;
            writeln!(out, "{}", run.report).map_err(run_err)?;
            if let Some(path) = &trace_path {
                finish_trace(path, out)?;
            }
        }
        Command::Lab(lab) => run_lab(lab, out)?,
        Command::Inspect { ckpt } => {
            let tc = TrainingCheckpoint::load_file(Path::new(ckpt)).map_err(run_err)?;
            let (model, _, _, meta) = restore_run(&tc).map_err(run_err)?;
            let cfg = model.config();
            writeln!(out, "layers: {}", cfg.n_layers).map_err(run_err)?;
            writeln!(out, "d_model: {} ({} heads)", cfg.d_model, cfg.n_heads).map_err(run_err)?;
            writeln!(out, "seq_len: {}", cfg.seq_len).map_err(run_err)?;
            writeln!(out, "vocab: {}", cfg.vocab_size).map_err(run_err)?;
            writeln!(out, "parameters: {}", model.num_params()).map_err(run_err)?;
            writeln!(out, "policy: {}", meta.policy.to_compact_string()).map_err(run_err)?;
            writeln!(out, "iteration: {}", tc.iteration).map_err(run_err)?;
        }
    }
    Ok(())
}

/// Executes one `edgellm lab` action. Oracle or gate failures exit
/// through [`CliError::Run`] after every violation is printed, so a red
/// verify shows the whole picture, not just the first break.
fn run_lab<W: std::io::Write>(lab: &LabCommand, out: &mut W) -> Result<(), CliError> {
    match lab {
        LabCommand::Run {
            spec,
            out_dir,
            run_id,
            threads,
        } => {
            if let Some(t) = threads {
                edge_llm_tensor::set_configured_threads(*t);
            }
            let spec_text = fs::read_to_string(spec)
                .map_err(|e| CliError::Run(format!("cannot read {spec}: {e}")))?;
            let parsed = edge_llm_lab::ExperimentSpec::parse_jsonl(&spec_text).map_err(run_err)?;
            let opts = edge_llm_lab::RunOptions {
                out_dir: PathBuf::from(out_dir),
                run_id: run_id.clone(),
            };
            let outcome =
                edge_llm_lab::run_experiment(&parsed, &spec_text, &opts).map_err(run_err)?;
            writeln!(
                out,
                "experiment {}: {} trials -> {}",
                parsed.name,
                outcome.trials,
                outcome.run_dir.display()
            )
            .map_err(run_err)?;
            let report = edge_llm_lab::analyze_run(&outcome.run_dir).map_err(run_err)?;
            print_analysis(&report, out)?;
            if !report.oracle_failures.is_empty() {
                return Err(CliError::Run(format!(
                    "{} differential oracle(s) failed",
                    report.oracle_failures.len()
                )));
            }
        }
        LabCommand::Analyze { run } => {
            let report = edge_llm_lab::analyze_run(Path::new(run)).map_err(run_err)?;
            print_analysis(&report, out)?;
            if !report.oracle_failures.is_empty() {
                return Err(CliError::Run(format!(
                    "{} differential oracle(s) failed",
                    report.oracle_failures.len()
                )));
            }
        }
        LabCommand::Check {
            run,
            baseline,
            update,
        } => {
            let report = edge_llm_lab::check_run(Path::new(run), Path::new(baseline), *update)
                .map_err(run_err)?;
            if report.updated {
                writeln!(out, "baseline regenerated: {baseline}").map_err(run_err)?;
                return Ok(());
            }
            for failure in &report.failures {
                writeln!(out, "FAIL {failure}").map_err(run_err)?;
            }
            if report.failures.is_empty() {
                writeln!(
                    out,
                    "check passed: {} assertions against {baseline}",
                    report.checked
                )
                .map_err(run_err)?;
            } else {
                return Err(CliError::Run(format!(
                    "{} of {} checks failed against {baseline}",
                    report.failures.len(),
                    report.checked
                )));
            }
        }
    }
    Ok(())
}

fn print_analysis<W: std::io::Write>(
    report: &edge_llm_lab::AnalysisReport,
    out: &mut W,
) -> Result<(), CliError> {
    for (table, rows) in &report.table_rows {
        writeln!(out, "  analysis/{table}: {rows} rows").map_err(run_err)?;
    }
    for failure in &report.oracle_failures {
        writeln!(out, "ORACLE FAIL {failure}").map_err(run_err)?;
    }
    Ok(())
}

/// Parses a serve request file: one request per line, `#` comment lines
/// and blank lines skipped. Each line is `key=value ... :: prompt text`.
/// Ids must be unique — outcomes are reported by id.
fn parse_request_file(
    text: &str,
    tok: &edge_llm_data::CharTokenizer,
    n_layers: usize,
) -> Result<Vec<ServeRequest>, CliError> {
    let mut requests = Vec::new();
    let mut id_lines = std::collections::HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = lineno + 1;
        // a line may start at the separator (no options at all)
        let (head, prompt_text) = if let Some(rest) = line.strip_prefix(":: ") {
            ("", rest)
        } else if let Some(split) = line.split_once(" :: ") {
            split
        } else {
            return Err(CliError::Usage(format!(
                "request line {n}: missing ' :: ' between options and prompt"
            )));
        };
        let mut id = format!("req{}", requests.len() + 1);
        let mut tokens = 20usize;
        let mut mode = "greedy".to_string();
        let mut k = 3usize;
        let mut temp = 0.8f32;
        let mut seed = 42u64;
        let mut depth = 1usize;
        let mut voting_name: Option<String> = None;
        let mut deadline = None;
        let mut tenant = None;
        for pair in head.split_whitespace() {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(CliError::Usage(format!(
                    "request line {n}: expected key=value, got {pair:?}"
                )));
            };
            let bad_value = || {
                CliError::Usage(format!(
                    "request line {n}: invalid value {value:?} for {key}"
                ))
            };
            match key {
                "id" => id = value.to_string(),
                "tokens" => tokens = value.parse().map_err(|_| bad_value())?,
                "mode" => mode = value.to_string(),
                "k" => k = value.parse().map_err(|_| bad_value())?,
                "depth" => depth = value.parse().map_err(|_| bad_value())?,
                "temp" => temp = value.parse().map_err(|_| bad_value())?,
                "seed" => seed = value.parse().map_err(|_| bad_value())?,
                "voting" => voting_name = Some(value.to_string()),
                "deadline" => deadline = Some(value.parse().map_err(|_| bad_value())?),
                "tenant" => {
                    if value.is_empty() {
                        return Err(bad_value());
                    }
                    tenant = Some(value.to_string());
                }
                other => {
                    return Err(CliError::Usage(format!(
                        "request line {n}: unknown option {other:?}"
                    )));
                }
            }
        }
        let decoding = match mode.as_str() {
            "greedy" => Decoding::Greedy,
            "sample" => Decoding::Sample { temperature: temp },
            "topk" => Decoding::TopK {
                k,
                temperature: temp,
            },
            "spec" => Decoding::SelfSpeculative {
                draft_depth: depth,
                k,
            },
            other => {
                return Err(CliError::Usage(format!(
                    "request line {n}: unknown mode {other:?} (greedy|sample|topk|spec)"
                )));
            }
        };
        // spec requests verify against the final exit, so default the
        // voting to `final` instead of the multi-exit blend
        let voting_name = voting_name
            .unwrap_or_else(|| if mode == "spec" { "final" } else { "conf" }.to_string());
        let voting = match voting_name.as_str() {
            "final" => VotingPolicy::final_only(n_layers),
            "last" => VotingPolicy::all_exits(n_layers, VotingCombiner::LastExit),
            "conf" => VotingPolicy::all_exits(
                n_layers,
                VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
            ),
            "avg" => VotingPolicy::all_exits(n_layers, VotingCombiner::Average),
            other => {
                return Err(CliError::Usage(format!(
                    "request line {n}: unknown voting {other:?} (final|last|conf|avg)"
                )));
            }
        };
        let prompt = tok.encode(prompt_text);
        if prompt.is_empty() {
            return Err(CliError::Usage(format!("request line {n}: empty prompt")));
        }
        if let Some(first) = id_lines.insert(id.clone(), n) {
            return Err(CliError::Usage(format!(
                "request line {n}: id {id:?} already used on line {first}"
            )));
        }
        requests.push(ServeRequest {
            id,
            prompt,
            max_new_tokens: tokens,
            decoding,
            voting,
            seed,
            deadline_steps: deadline,
            tenant,
        });
    }
    Ok(requests)
}

/// Restores the text model checkpointed at `path` — compressed as it was
/// tuned, with its optimizer, RNG, run metadata and iteration — through
/// [`restore_run`]. Corpora and prompts all go through the one character
/// tokenizer, so a model of any other vocabulary is refused.
fn load_text_run(path: &str) -> Result<(EdgeModel, Sgd, TensorRng, RunMeta, usize), CliError> {
    let tc = TrainingCheckpoint::load_file(Path::new(path)).map_err(run_err)?;
    let (model, opt, rng, meta) = restore_run(&tc).map_err(run_err)?;
    let have = model.config().vocab_size;
    let want = edge_llm_data::CharTokenizer::new().vocab_size();
    if have != want {
        return Err(CliError::Run(format!(
            "checkpoint vocabulary {have} is not a text-model vocabulary ({want})"
        )));
    }
    Ok((model, opt, rng, meta, tc.iteration as usize))
}

fn adapt_model(
    model: &mut EdgeModel,
    task: &TextLmTask,
    iterations: usize,
    window: usize,
    rng: &mut TensorRng,
) -> Result<f32, CliError> {
    let cfg = model.config().clone();
    let ds = Dataset::from_samples((0..32).map(|_| task.sample(cfg.seq_len, rng)).collect());
    let mut tuner = AdaptiveTuner::new(WindowSchedule::for_depth(window, cfg.n_layers));
    let mut opt = Sgd::new(0.1);
    let mut last = f32::NAN;
    for it in 0..iterations {
        let b = ds.batch_at(it * 4, 4);
        last = tuner
            .step(model, &mut opt, &b.tokens, &b.targets, b.batch)
            .map_err(run_err)?
            .loss;
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_adapt_with_defaults() {
        let cmd = parse_args(&argv("adapt --corpus notes.txt --out m.ckpt")).unwrap();
        assert_eq!(
            cmd,
            Command::Adapt {
                corpus: "notes.txt".into(),
                out: "m.ckpt".into(),
                budget: 0.25,
                window: 2,
                iterations: 400,
                seed: 42,
                checkpoint_every: 0,
                resume: None,
                threads: None,
                trace_out: None,
            }
        );
    }

    #[test]
    fn parse_trace_out_flag() {
        let cmd = parse_args(&argv("adapt --corpus a --out b --trace-out trace.jsonl")).unwrap();
        match cmd {
            Command::Adapt { trace_out, .. } => {
                assert_eq!(trace_out.as_deref(), Some("trace.jsonl"))
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse_args(&argv("serve --ckpt m --requests q --trace-out t.jsonl")).unwrap();
        match cmd {
            Command::Serve { trace_out, .. } => assert_eq!(trace_out.as_deref(), Some("t.jsonl")),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_adapt_threads_flag() {
        let cmd = parse_args(&argv("adapt --corpus notes.txt --out m.ckpt --threads 4")).unwrap();
        match cmd {
            Command::Adapt { threads, .. } => assert_eq!(threads, Some(4)),
            other => panic!("wrong command {other:?}"),
        }
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
            Command::Adapt {
                checkpoint_every,
                resume,
                ..
            } => {
                assert_eq!(checkpoint_every, 25);
                assert_eq!(resume.as_deref(), Some("m.ckpt"));
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
            Command::Generate {
                tokens,
                top_k,
                seed,
                ..
            } => {
                assert_eq!(tokens, 10);
                assert_eq!(top_k, 0);
                assert_eq!(seed, 7);
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
            Command::Generate {
                draft_depth,
                draft_k,
                ..
            } => {
                assert_eq!(draft_depth, Some(2));
                assert_eq!(draft_k, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
        // speculation is off by default
        match parse_args(&argv("generate --ckpt m.ckpt --prompt hi")).unwrap() {
            Command::Generate {
                draft_depth,
                draft_k,
                ..
            } => {
                assert_eq!(draft_depth, None);
                assert_eq!(draft_k, 4);
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
            Ok(Command::Lab(LabCommand::Check { update: true, .. }))
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
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        let mut buf = Vec::new();
        run(&Command::Help, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("edgellm adapt"));
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
        let adapt = Command::Adapt {
            corpus: corpus_path.to_string_lossy().into_owned(),
            out: ckpt_path.to_string_lossy().into_owned(),
            budget: 0.5,
            window: 2,
            iterations: 20,
            seed: 1,
            checkpoint_every: 0,
            resume: None,
            threads: None,
            trace_out: None,
        };
        let mut buf = Vec::new();
        run(&adapt, &mut buf).unwrap();
        let adapt_text = String::from_utf8(buf).unwrap();
        assert!(adapt_text.contains("checkpoint written"));
        let policy_line = adapt_text
            .lines()
            .find(|l| l.starts_with("policy: "))
            .expect("adapt prints its policy");

        let mut buf = Vec::new();
        run(
            &Command::Inspect {
                ckpt: ckpt_path.to_string_lossy().into_owned(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("layers: 4"));
        assert!(text.contains("vocab: 96"));
        assert!(text.contains("iteration: 20"), "{text}");
        // the file carries the policy it was tuned under
        assert!(text.lines().any(|l| l == policy_line), "{text}");

        let mut buf = Vec::new();
        run(
            &Command::Generate {
                ckpt: ckpt_path.to_string_lossy().into_owned(),
                prompt: "water".into(),
                tokens: 8,
                top_k: 0,
                temperature: 1.0,
                seed: 2,
                draft_depth: None,
                draft_k: 4,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("water"));
        assert!(text.trim_end().len() >= "water".len() + 8);

        // self-speculative decode emits the final exit's greedy stream, so
        // its text is identical for every draft depth and k
        let spec_text = |depth: usize, k: usize| {
            let mut buf = Vec::new();
            run(
                &Command::Generate {
                    ckpt: ckpt_path.to_string_lossy().into_owned(),
                    prompt: "water".into(),
                    tokens: 8,
                    top_k: 0,
                    temperature: 1.0,
                    seed: 2,
                    draft_depth: Some(depth),
                    draft_k: k,
                },
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf).unwrap()
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
        let served = run_text(&Command::Serve {
            ckpt: ckpt_path.to_string_lossy().into_owned(),
            requests: requests_path.to_string_lossy().into_owned(),
            batch: 2,
            threads: None,
            trace_out: None,
        });
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
        Command::Adapt {
            corpus: corpus.to_string_lossy().into_owned(),
            out: ckpt.to_string_lossy().into_owned(),
            budget: 1.0,
            window: 2,
            iterations,
            seed: 3,
            checkpoint_every,
            resume: resume.map(|p| p.to_string_lossy().into_owned()),
            threads: None,
            trace_out: None,
        }
    }

    fn run_text(cmd: &Command) -> String {
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
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
            match run(&cmd, &mut Vec::new()) {
                Err(CliError::Run(msg)) => msg,
                other => panic!("{name} accepted: {other:?}"),
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
            Command::Serve {
                ckpt: "m.ckpt".into(),
                requests: "q.txt".into(),
                batch: 8,
                threads: Some(2),
                trace_out: None,
            }
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
            Command::Loadgen {
                scenario: "burst".into(),
                workers: 4,
                batch: 4,
                queue: 16,
                retries: 2,
                slo: Some(8),
                seed: None,
                tenants: 3,
                threads: None,
                trace_out: None,
            }
        );
        assert!(matches!(
            parse_args(&argv("loadgen --workers 2")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn loadgen_rejects_unknown_scenarios() {
        let cmd = parse_args(&argv("loadgen --scenario banana")).unwrap();
        match run(&cmd, &mut Vec::new()) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("banana"), "{msg}");
                assert!(msg.contains("steady"), "names not listed: {msg}");
            }
            other => panic!("unknown scenario accepted: {other:?}"),
        }
    }

    #[test]
    fn end_to_end_loadgen_reports_fleet_behaviour() {
        let cmd = parse_args(&argv(
            "loadgen --scenario crash --workers 2 --batch 2 --queue 4 --retries 2",
        ))
        .unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
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
        let cmd = parse_args(&argv("loadgen --scenario steady --workers 2 --tenants 3")).unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
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
        run(&adapt_cmd(&corpus_path, &ckpt_path, 8), &mut Vec::new()).unwrap();

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
        let cmd = Command::Serve {
            ckpt: ckpt_path.to_string_lossy().into_owned(),
            requests: requests_path.to_string_lossy().into_owned(),
            batch: 2,
            threads: None,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
        };
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
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
        let cmd = Command::Serve {
            ckpt: "/nonexistent/nope.ckpt".into(),
            requests: "/nonexistent/queue.txt".into(),
            batch: 4,
            threads: None,
            trace_out: None,
        };
        assert!(matches!(run(&cmd, &mut Vec::new()), Err(CliError::Run(_))));
    }

    #[test]
    fn generate_rejects_missing_checkpoint() {
        let cmd = Command::Generate {
            ckpt: "/nonexistent/nope.ckpt".into(),
            prompt: "x".into(),
            tokens: 1,
            top_k: 0,
            temperature: 1.0,
            seed: 1,
            draft_depth: None,
            draft_k: 4,
        };
        let mut buf = Vec::new();
        assert!(matches!(run(&cmd, &mut buf), Err(CliError::Run(_))));
    }
}
