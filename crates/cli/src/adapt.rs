//! Tuning a model on the device and reading back what was tuned:
//! `edgellm adapt`, `policy` (the policy `adapt` would install) and
//! `inspect`.

use crate::{run_err, CliError};
use edge_llm::compress::apply_policy;
use edge_llm::pipeline::luc_profile;
use edge_llm::resilience::{resilient_adapt, restore_run, ResilienceConfig, RunMeta};
use edge_llm_data::{CharTokenizer, TaskGenerator, TextLmTask};
use edge_llm_luc::{search_policy, CompressionPolicy, SearchAlgorithm};
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, ModelConfig, Sgd, TrainingCheckpoint, WindowSchedule,
};
use edge_llm_tensor::TensorRng;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// `adapt`'s default `--iterations`, which `policy` warms up for too.
pub(crate) const DEFAULT_ITERATIONS: usize = 400;

/// Adapt a model to a text corpus and write a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Adapt {
    /// Path to the UTF-8 corpus file.
    pub corpus: String,
    /// Output checkpoint path.
    pub out: String,
    /// LUC mean-cost budget (1.0 = no compression).
    pub budget: f32,
    /// Backprop window depth.
    pub window: usize,
    /// Adaptation iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Also write the checkpoint every N iterations (0 = at the end only).
    pub checkpoint_every: usize,
    /// Resume from a checkpoint written by `adapt`.
    pub resume: Option<String>,
}

/// Search and print the LUC policy `adapt` would install, without
/// adapting.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Path to the UTF-8 corpus file.
    pub corpus: String,
    /// LUC mean-cost budget.
    pub budget: f32,
    /// RNG seed.
    pub seed: u64,
}

pub(crate) fn cli_model_config(vocab: usize) -> ModelConfig {
    ModelConfig::tiny()
        .with_layers(4)
        .with_d_model(64, 4)
        .with_seq_len(48)
        .with_vocab(vocab)
}

pub(crate) fn text_task(corpus_path: &str) -> Result<TextLmTask, CliError> {
    let corpus = fs::read_to_string(corpus_path)
        .map_err(|e| CliError::Run(format!("cannot read corpus {corpus_path}: {e}")))?;
    TextLmTask::new(&corpus).map_err(run_err)
}

/// The preamble of a fresh `adapt` run of `iterations` steps: the model
/// seeded from `seed`, warmed up at full depth for a quarter of the run so
/// the sensitivity profile reads a model that has seen the corpus, then
/// the DP-searched LUC policy on four fresh corpus sequences, installed.
/// At a budget of 1 nothing is searched and the policy is the identity.
pub(crate) fn warm_policy(
    task: &TextLmTask,
    budget: f32,
    iterations: usize,
    seed: u64,
) -> Result<(EdgeModel, CompressionPolicy, TensorRng), CliError> {
    let mut rng = TensorRng::seed_from(seed);
    let mut model =
        EdgeModel::new(cli_model_config(task.vocab_size()), &mut rng).map_err(run_err)?;
    let cfg = model.config().clone();
    let ds = task.dataset(32, cfg.seq_len, &mut rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::for_depth(cfg.n_layers, cfg.n_layers));
    let mut opt = Sgd::new(0.1);
    for it in 0..iterations / 4 {
        let b = ds.batch_at(it * 4, 4);
        tuner
            .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
            .map_err(run_err)?;
    }
    if budget >= 1.0 {
        return Ok((model, CompressionPolicy::identity(cfg.n_layers), rng));
    }
    let calib = task.dataset(4, cfg.seq_len, &mut rng).batch_at(0, 4);
    let prof = luc_profile(&model, &calib).map_err(run_err)?;
    let dp = SearchAlgorithm::DynamicProgramming;
    let policy = search_policy(&prof, budget, dp).map_err(run_err)?.policy;
    apply_policy(&mut model, &policy).map_err(run_err)?;
    Ok((model, policy, rng))
}

pub(crate) fn adapt<W: Write>(c: &Adapt, out: &mut W) -> Result<(), CliError> {
    let task = text_task(&c.corpus)?;
    // Dataset sampling uses its own seed-derived stream so a resumed
    // run can regenerate the identical dataset from the checkpoint.
    let (mut model, mut opt, mut rng, meta, start) = match &c.resume {
        Some(path) => load_text_run(path)
            .map_err(|e| CliError::Run(format!("cannot resume from {path}: {e}")))?,
        None => {
            let (model, policy, rng) = warm_policy(&task, c.budget, c.iterations, c.seed)?;
            let meta = RunMeta {
                policy,
                data_seed: c.seed ^ 0xDA7A_5EED,
                window: c.window,
            };
            (model, Sgd::new(0.1), rng, meta, 0)
        }
    };
    let cfg = model.config().clone();
    let mut data_rng = TensorRng::seed_from(meta.data_seed);
    let ds = task.dataset(32, cfg.seq_len, &mut data_rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::for_depth(meta.window, cfg.n_layers));
    tuner.set_iteration(start);
    // periodic snapshots land on the output path itself: one file
    let res = ResilienceConfig {
        checkpoint_every: c.checkpoint_every,
        checkpoint_path: (c.checkpoint_every > 0).then(|| PathBuf::from(&c.out)),
        ..ResilienceConfig::default()
    };
    let run = resilient_adapt(
        &mut model,
        &mut opt,
        &mut tuner,
        &mut rng,
        &ds,
        4,
        c.iterations,
        meta.encode(),
        &res,
    )
    .map_err(run_err)?;
    let done = tuner.iterations() as u64;
    TrainingCheckpoint::capture(&model, &opt, done, &rng, meta.encode())
        .save_file(Path::new(&c.out))
        .map_err(run_err)?;
    if run.steps_executed == 0 {
        writeln!(
            out,
            "nothing to do: resumed at iteration {start} of {}",
            c.iterations
        )?;
    } else {
        writeln!(
            out,
            "adapted on {}: final loss {:.3}",
            c.corpus, run.final_loss
        )?;
    }
    writeln!(out, "policy: {}", meta.policy.to_compact_string())?;
    if !run.journal.is_empty() {
        writeln!(out, "recovery journal:")?;
        write!(out, "{}", run.journal)?;
    }
    writeln!(out, "checkpoint written to {} (iteration {done})", c.out)?;
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
        )?;
    }
    Ok(())
}

pub(crate) fn policy<W: Write>(c: &Policy, out: &mut W) -> Result<(), CliError> {
    let task = text_task(&c.corpus)?;
    let (_, policy, _) = warm_policy(&task, c.budget, DEFAULT_ITERATIONS, c.seed)?;
    writeln!(out, "policy: {policy}")?;
    writeln!(out, "compact: {}", policy.to_compact_string())?;
    writeln!(
        out,
        "mean cost: {:.3}  mean bits: {:.1}",
        policy.mean_cost(),
        policy.mean_bits()
    )?;
    Ok(())
}

/// Print a checkpoint's configuration, size, policy and iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Inspect {
    /// Checkpoint path.
    pub ckpt: String,
}

pub(crate) fn inspect<W: Write>(c: &Inspect, out: &mut W) -> Result<(), CliError> {
    let tc = TrainingCheckpoint::load_file(Path::new(&c.ckpt)).map_err(run_err)?;
    let (model, _, _, meta) = restore_run(&tc).map_err(run_err)?;
    let cfg = model.config();
    writeln!(out, "layers: {}", cfg.n_layers)?;
    writeln!(out, "d_model: {} ({} heads)", cfg.d_model, cfg.n_heads)?;
    writeln!(out, "seq_len: {}", cfg.seq_len)?;
    writeln!(out, "vocab: {}", cfg.vocab_size)?;
    writeln!(out, "parameters: {}", model.num_params())?;
    writeln!(out, "policy: {}", meta.policy.to_compact_string())?;
    writeln!(out, "iteration: {}", tc.iteration)?;
    Ok(())
}

/// Restores the text model checkpointed at `path` — compressed as it was
/// tuned, with its optimizer, RNG, run metadata and iteration — through
/// [`restore_run`]. Corpora and prompts all go through the one character
/// tokenizer, so a model of any other vocabulary is refused.
pub(crate) fn load_text_run(
    path: &str,
) -> Result<(EdgeModel, Sgd, TensorRng, RunMeta, usize), CliError> {
    let tc = TrainingCheckpoint::load_file(Path::new(path)).map_err(run_err)?;
    let (model, opt, rng, meta) = restore_run(&tc).map_err(run_err)?;
    let have = model.config().vocab_size;
    let want = CharTokenizer::new().vocab_size();
    if have != want {
        return Err(CliError::Run(format!(
            "checkpoint vocabulary {have} is not a text-model vocabulary ({want})"
        )));
    }
    Ok((model, opt, rng, meta, tc.iteration as usize))
}
