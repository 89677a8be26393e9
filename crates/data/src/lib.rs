//! Synthetic adaptation tasks and data pipeline for the Edge-LLM
//! reproduction.
//!
//! The paper tunes LLaMA-class models on commonsense-QA / MMLU-style data.
//! Those corpora are not redistributable here, so this crate generates
//! synthetic tasks with the same *shape*: a prompt region whose tokens are
//! loss-masked and an answer region the model must learn — plus plain
//! language-modelling streams for perplexity tracking. Every generator is
//! seeded and deterministic, which is what makes the benchmark tables
//! reproducible.
//!
//! * [`CharTokenizer`] — a printable-ASCII tokenizer (vocab 96),
//! * [`MarkovTextTask`] — language modelling over a random Markov chain,
//! * [`ClozeQaTask`] — templated subject–relation–object QA (the stand-in
//!   for commonsense QA),
//! * [`TextLmTask`] — language modelling over a text corpus (`edgellm
//!   adapt`'s task),
//! * [`Dataset`] / [`Batch`] — batching with loss masks; every dataset is
//!   drawn through [`TaskGenerator::dataset`].
//!
//! Which positions count and which token a row predicts are decided by
//! `edge_llm_tensor::score`, the one scoring rule.
//!
//! # Example
//!
//! ```
//! use edge_llm_data::{ClozeQaTask, TaskGenerator};
//! use edge_llm_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from(0);
//! let task = ClozeQaTask::new(16, 8);
//! let sample = task.sample(32, &mut rng);
//! assert_eq!(sample.tokens.len(), 32);
//! assert_eq!(sample.targets.len(), 32);
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod batch;
mod cloze;
mod markov;
mod text;
mod tokenizer;

pub use batch::{Batch, Dataset};
pub use cloze::ClozeQaTask;
pub use markov::MarkovTextTask;
pub use text::{CorpusTooShortError, TextLmTask};
pub use tokenizer::CharTokenizer;

use edge_llm_tensor::TensorRng;

/// One training/eval sample: a token sequence and its next-token targets,
/// with prompt positions masked by [`edge_llm_tensor::IGNORE_TARGET`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Input token ids, length `seq_len`.
    pub tokens: Vec<usize>,
    /// Per-position next-token targets (`IGNORE_TARGET` on masked
    /// positions), length `seq_len`.
    pub targets: Vec<usize>,
}

/// A deterministic, seedable task that emits fixed-length samples.
///
/// All Edge-LLM experiments consume tasks through this trait, so adding a
/// new workload means implementing one method.
pub trait TaskGenerator {
    /// Vocabulary size the task's tokens are drawn from.
    fn vocab_size(&self) -> usize;

    /// A short stable name used in experiment tables.
    fn name(&self) -> &str;

    /// Generates one sample of exactly `seq_len` tokens.
    fn sample(&self, seq_len: usize, rng: &mut TensorRng) -> Sample;

    /// Generates a [`Dataset`] of `n` samples, drawn in order from `rng`:
    /// the one place task samples become a dataset.
    fn dataset(&self, n: usize, seq_len: usize, rng: &mut TensorRng) -> Dataset {
        Dataset::from_samples((0..n).map(|_| self.sample(seq_len, rng)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_default_method_sizes() {
        let mut rng = TensorRng::seed_from(1);
        let task = ClozeQaTask::new(8, 4);
        let ds = task.dataset(5, 16, &mut rng);
        assert_eq!(ds.len(), 5);
    }
}
