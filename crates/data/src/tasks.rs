//! Algorithmic transduction task: modular arithmetic.
//!
//! Each sample is laid out as `prompt | separator | answer`, with targets
//! masked ([`IGNORE_TARGET`]) on prompt positions so only answer tokens are
//! supervised — the same shape as instruction-tuning data.

use crate::{Sample, TaskGenerator};
use edge_llm_tensor::{TensorRng, IGNORE_TARGET};

/// Modular arithmetic: the prompt encodes `a [op] b =` over a small modulus
/// and the answer is the result digitized in the same vocabulary.
#[derive(Debug, Clone)]
pub struct ModArithTask {
    modulus: usize,
}

impl ModArithTask {
    /// Creates an arithmetic task modulo `modulus`; tokens `0..modulus` are
    /// digits, then `+`, `*`, `=`, and padding, so the vocabulary is
    /// `modulus + 4`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn new(modulus: usize) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        ModArithTask { modulus }
    }
}

/// Builds a transduction sample: `payload SEP answer`, padded/truncated to
/// `seq_len`, with only answer positions supervised.
fn transduce(
    payload: &[usize],
    answer: &[usize],
    sep: usize,
    pad: usize,
    seq_len: usize,
) -> Sample {
    let mut tokens = Vec::with_capacity(seq_len);
    tokens.extend_from_slice(payload);
    tokens.push(sep);
    tokens.extend_from_slice(answer);
    tokens.truncate(seq_len);
    while tokens.len() < seq_len {
        tokens.push(pad);
    }
    // target[t] = tokens[t+1] but only supervised where tokens[t+1] is part
    // of the answer region
    let answer_start = payload.len() + 1;
    let answer_end = (answer_start + answer.len()).min(seq_len);
    let mut targets = vec![IGNORE_TARGET; seq_len];
    for (t, target) in targets
        .iter_mut()
        .enumerate()
        .take(seq_len.saturating_sub(1))
    {
        let next = t + 1;
        if next >= answer_start && next < answer_end {
            *target = tokens[next];
        }
    }
    Sample { tokens, targets }
}

impl TaskGenerator for ModArithTask {
    fn vocab_size(&self) -> usize {
        self.modulus + 4
    }

    fn name(&self) -> &str {
        "mod-arith"
    }

    fn sample(&self, seq_len: usize, rng: &mut TensorRng) -> Sample {
        let m = self.modulus;
        let (plus, times, eq, pad) = (m, m + 1, m + 2, m + 3);
        let a = rng.index(m);
        let b = rng.index(m);
        let mul = rng.bernoulli(0.5);
        let (op, result) = if mul {
            (times, (a * b) % m)
        } else {
            (plus, (a + b) % m)
        };
        let payload = vec![a, op, b];
        let answer = vec![result];
        transduce(&payload, &answer, eq, pad, seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_arith_results_are_correct() {
        let mut rng = TensorRng::seed_from(4);
        let task = ModArithTask::new(7);
        for _ in 0..50 {
            let s = task.sample(8, &mut rng);
            let (a, op, b, result) = (s.tokens[0], s.tokens[1], s.tokens[2], s.tokens[4]);
            let expect = if op == 7 { (a + b) % 7 } else { (a * b) % 7 };
            assert_eq!(result, expect, "a={a} op={op} b={b}");
            // exactly one supervised position: the answer
            let n_sup = s.targets.iter().filter(|&&t| t != IGNORE_TARGET).count();
            assert_eq!(n_sup, 1);
            assert_eq!(s.targets[3], result);
        }
    }

    #[test]
    fn all_tokens_in_vocab() {
        let mut rng = TensorRng::seed_from(5);
        for seq in [4usize, 9, 16, 33] {
            let task = ModArithTask::new(5);
            let s = task.sample(seq, &mut rng);
            assert!(s.tokens.iter().all(|&t| t < task.vocab_size()));
            assert_eq!(s.tokens.len(), seq);
        }
    }

    #[test]
    #[should_panic]
    fn tiny_vocab_panics() {
        let _ = ModArithTask::new(1);
    }
}
