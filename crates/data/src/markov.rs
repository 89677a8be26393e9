use crate::{Sample, TaskGenerator};
use edge_llm_tensor::TensorRng;

/// Language modelling over a randomly generated first-order Markov chain.
///
/// A seed builds a sparse transition table over the vocabulary (each state
/// has `branching` successors with random probabilities); samples are walks
/// through the chain, and every position is a supervised next-token target.
/// Because the chain has bounded entropy, a capable model's perplexity
/// converges well below the uniform baseline — giving the experiments a
/// smooth "language-like" difficulty knob.
#[derive(Debug, Clone)]
pub struct MarkovTextTask {
    vocab: usize,
    successors: Vec<Vec<(usize, f32)>>,
    name: String,
}

impl MarkovTextTask {
    /// Builds a chain over `vocab` states with `branching` successors per
    /// state, using `seed` for the chain structure (samples use the RNG
    /// passed to [`TaskGenerator::sample`]).
    ///
    /// # Panics
    ///
    /// Panics if `vocab == 0` or `branching == 0`.
    pub fn new(vocab: usize, branching: usize, seed: u64) -> Self {
        assert!(
            vocab > 0 && branching > 0,
            "vocab and branching must be positive"
        );
        let mut rng = TensorRng::seed_from(seed);
        let branching = branching.min(vocab);
        let successors = (0..vocab)
            .map(|_| {
                let mut succ = Vec::with_capacity(branching);
                let mut total = 0.0f32;
                for _ in 0..branching {
                    let next = rng.index(vocab);
                    let w = rng.uniform(0.1, 1.0);
                    total += w;
                    succ.push((next, w));
                }
                for s in &mut succ {
                    s.1 /= total;
                }
                succ
            })
            .collect();
        MarkovTextTask {
            vocab,
            successors,
            name: format!("markov-b{branching}"),
        }
    }

    fn step(&self, state: usize, rng: &mut TensorRng) -> usize {
        let mut u = rng.uniform(0.0, 1.0);
        for &(next, p) in &self.successors[state] {
            if u < p {
                return next;
            }
            u -= p;
        }
        self.successors[state].last().map(|&(n, _)| n).unwrap_or(0)
    }
}

impl TaskGenerator for MarkovTextTask {
    fn vocab_size(&self) -> usize {
        self.vocab
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn sample(&self, seq_len: usize, rng: &mut TensorRng) -> Sample {
        let mut tokens = Vec::with_capacity(seq_len);
        let mut state = rng.index(self.vocab);
        for _ in 0..seq_len {
            tokens.push(state);
            state = self.step(state, rng);
        }
        // next-token targets: shift left, last target is the next walk step
        let mut targets: Vec<usize> = tokens[1..].to_vec();
        targets.push(state);
        Sample { tokens, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_structure_is_seed_deterministic() {
        let mut r1 = TensorRng::seed_from(5);
        let mut r2 = TensorRng::seed_from(5);
        let t1 = MarkovTextTask::new(32, 3, 9).sample(16, &mut r1);
        let t2 = MarkovTextTask::new(32, 3, 9).sample(16, &mut r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn targets_are_shifted_tokens() {
        let mut rng = TensorRng::seed_from(1);
        let s = MarkovTextTask::new(16, 2, 3).sample(10, &mut rng);
        assert_eq!(&s.targets[..9], &s.tokens[1..]);
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let mut rng = TensorRng::seed_from(2);
        let task = MarkovTextTask::new(8, 4, 7);
        for _ in 0..20 {
            let s = task.sample(32, &mut rng);
            assert!(s.tokens.iter().all(|&t| t < 8));
            assert!(s.targets.iter().all(|&t| t < 8));
        }
    }

    #[test]
    fn transitions_follow_the_table() {
        let mut rng = TensorRng::seed_from(3);
        let task = MarkovTextTask::new(16, 2, 11);
        let s = task.sample(64, &mut rng);
        for w in s.tokens.windows(2) {
            let allowed: Vec<usize> = task.successors[w[0]].iter().map(|&(n, _)| n).collect();
            assert!(allowed.contains(&w[1]), "{} -> {} not an edge", w[0], w[1]);
        }
    }

    #[test]
    #[should_panic]
    fn zero_vocab_panics() {
        let _ = MarkovTextTask::new(0, 2, 1);
    }
}
