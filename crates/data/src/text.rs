use crate::tokenizer::CharTokenizer;
use crate::{Sample, TaskGenerator};
use edge_llm_tensor::TensorRng;

/// Character-level language modelling over a user-supplied text corpus —
/// the "adapt the model to my own notes" edge scenario.
///
/// Samples are random windows of the tokenized corpus with every position
/// supervised on its successor.
///
/// # Example
///
/// ```
/// use edge_llm_data::{TaskGenerator, TextLmTask};
/// use edge_llm_tensor::TensorRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let task = TextLmTask::new("the cat sat on the mat. the cat sat.")?;
/// let mut rng = TensorRng::seed_from(0);
/// let s = task.sample(16, &mut rng);
/// assert_eq!(s.tokens.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TextLmTask {
    ids: Vec<usize>,
    tokenizer: CharTokenizer,
}

/// Error returned when the corpus is too short to sample from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusTooShortError {
    /// Characters provided.
    pub len: usize,
}

impl std::fmt::Display for CorpusTooShortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corpus of {} characters is too short (need at least 2)",
            self.len
        )
    }
}

impl std::error::Error for CorpusTooShortError {}

impl TextLmTask {
    /// Tokenizes `corpus` with the printable-ASCII tokenizer.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusTooShortError`] for corpora under 2 characters.
    pub fn new(corpus: &str) -> Result<Self, CorpusTooShortError> {
        let tokenizer = CharTokenizer::new();
        let ids = tokenizer.encode(corpus);
        if ids.len() < 2 {
            return Err(CorpusTooShortError { len: ids.len() });
        }
        Ok(TextLmTask { ids, tokenizer })
    }

    /// The tokenizer used (for decoding generated continuations).
    pub fn tokenizer(&self) -> CharTokenizer {
        self.tokenizer
    }
}

impl TaskGenerator for TextLmTask {
    fn vocab_size(&self) -> usize {
        self.tokenizer.vocab_size()
    }

    fn name(&self) -> &str {
        "text-lm"
    }

    fn sample(&self, seq_len: usize, rng: &mut TensorRng) -> Sample {
        // window of seq_len + 1 tokens (wrapping) -> inputs + shifted targets
        let n = self.ids.len();
        let start = rng.index(n);
        let mut window = Vec::with_capacity(seq_len + 1);
        for i in 0..=seq_len {
            window.push(self.ids[(start + i) % n]);
        }
        Sample {
            tokens: window[..seq_len].to_vec(),
            targets: window[1..].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_tensor::IGNORE_TARGET;

    const CORPUS: &str = "It is a truth universally acknowledged, that a single model \
                          in possession of good weights must be in want of adaptation.";

    #[test]
    fn windows_come_from_the_corpus() {
        let task = TextLmTask::new(CORPUS).unwrap();
        let mut rng = TensorRng::seed_from(1);
        let tok = task.tokenizer();
        // the doubled corpus contains every wrapped window
        let doubled: String = format!("{CORPUS}{CORPUS}");
        for _ in 0..10 {
            let s = task.sample(12, &mut rng);
            let text = tok.decode(&s.tokens);
            assert!(doubled.contains(&text), "window {text:?} not in corpus");
        }
    }

    #[test]
    fn targets_are_next_characters() {
        let task = TextLmTask::new(CORPUS).unwrap();
        let mut rng = TensorRng::seed_from(2);
        let s = task.sample(20, &mut rng);
        assert_eq!(&s.targets[..19], &s.tokens[1..]);
        assert!(s.targets.iter().all(|&t| t != IGNORE_TARGET));
    }

    #[test]
    fn short_corpus_rejected() {
        assert!(TextLmTask::new("").is_err());
        assert!(TextLmTask::new("x").is_err());
        assert!(TextLmTask::new("xy").is_ok());
    }

    #[test]
    fn window_longer_than_corpus_wraps() {
        let task = TextLmTask::new("abc").unwrap();
        let mut rng = TensorRng::seed_from(3);
        let s = task.sample(8, &mut rng);
        assert_eq!(s.tokens.len(), 8);
        let tok = task.tokenizer();
        let text = tok.decode(&s.tokens);
        assert!("abcabcabcabc".contains(&text));
    }
}
