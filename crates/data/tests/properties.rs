//! Property-based tests of the task generators and batching pipeline,
//! driven by the in-repo seeded case harness (`edge_llm_tensor::check`).

use edge_llm_data::{ClozeQaTask, MarkovTextTask, TaskGenerator};
use edge_llm_tensor::check::run_cases;
use edge_llm_tensor::{TensorRng, IGNORE_TARGET};

fn check_sample_invariants(task: &dyn TaskGenerator, seq_len: usize, seed: u64) {
    let mut rng = TensorRng::seed_from(seed);
    let s = task.sample(seq_len, &mut rng);
    assert_eq!(s.tokens.len(), seq_len);
    assert_eq!(s.targets.len(), seq_len);
    assert!(
        s.tokens.iter().all(|&t| t < task.vocab_size()),
        "token out of vocab"
    );
    assert!(
        s.targets
            .iter()
            .all(|&t| t == IGNORE_TARGET || t < task.vocab_size()),
        "target out of vocab"
    );
}

#[test]
fn all_generators_respect_shape_and_vocab() {
    run_cases("generator invariants", 48, |g| {
        let seq = g.usize_in(4, 64);
        let seed = g.u64();
        check_sample_invariants(&ClozeQaTask::new(8, 3), seq, seed);
        check_sample_invariants(&MarkovTextTask::new(16, 3, 1), seq, seed);
    });
}

#[test]
fn generators_are_deterministic() {
    run_cases("generator determinism", 48, |g| {
        let seq = g.usize_in(4, 32);
        let seed = g.u64();
        let task = ClozeQaTask::new(8, 3);
        let mut r1 = TensorRng::seed_from(seed);
        let mut r2 = TensorRng::seed_from(seed);
        assert_eq!(task.sample(seq, &mut r1), task.sample(seq, &mut r2));
    });
}

#[test]
fn markov_supervises_every_position() {
    run_cases("markov full supervision", 48, |g| {
        let seq = g.usize_in(2, 32);
        let mut rng = TensorRng::seed_from(g.u64());
        let s = MarkovTextTask::new(16, 3, 2).sample(seq, &mut rng);
        assert!(s.targets.iter().all(|&t| t != IGNORE_TARGET));
    });
}

#[test]
fn batches_concatenate_samples() {
    run_cases("batch concatenation", 48, |g| {
        let n = g.usize_in(1, 10);
        let batch = g.usize_in(1, 6);
        let mut rng = TensorRng::seed_from(g.u64());
        let task = ClozeQaTask::new(6, 2);
        let ds = task.dataset(n, 12, &mut rng);
        let b = ds.batch_at(0, batch);
        assert_eq!(b.tokens.len(), batch * 12);
        for i in 0..batch {
            let expect = &ds.samples()[i % n];
            assert_eq!(&b.tokens[i * 12..(i + 1) * 12], &expect.tokens[..]);
            assert_eq!(&b.targets[i * 12..(i + 1) * 12], &expect.targets[..]);
        }
    });
}

#[test]
fn split_partitions_dataset() {
    run_cases("split partitions", 48, |g| {
        let n = g.usize_in(2, 30);
        let frac = g.f32_in(0.0, 1.0);
        let mut rng = TensorRng::seed_from(g.u64());
        let ds = ClozeQaTask::new(6, 2).dataset(n, 8, &mut rng);
        let (train, eval) = ds.split(frac);
        assert_eq!(train.len() + eval.len(), n);
    });
}

#[test]
fn cloze_answers_are_kb_consistent() {
    run_cases("cloze KB consistency", 48, |g| {
        let seq = g.usize_in(8, 48);
        let task = ClozeQaTask::new(10, 3);
        let mut rng = TensorRng::seed_from(g.u64());
        let s = task.sample(seq, &mut rng);
        // every 4-token fact must agree with the KB
        let rel_base = 10;
        let obj_base = 13;
        let n_facts = seq / 4;
        for f in 0..n_facts {
            let base = f * 4;
            let subj = s.tokens[base];
            let rel = s.tokens[base + 1] - rel_base;
            let obj = s.tokens[base + 3] - obj_base;
            assert_eq!(obj, task.answer(subj, rel));
        }
    });
}

#[test]
fn tokenizer_round_trips_printable_ascii() {
    use edge_llm_data::CharTokenizer;
    let tok = CharTokenizer::new();
    run_cases("tokenizer round-trip", 64, |g| {
        let len = g.usize_in(0, 256);
        let text: String = (0..len)
            .map(|_| (0x20 + g.usize_in(0, 94) as u8) as char)
            .collect();
        let ids = tok.encode(&text);
        assert_eq!(ids.len(), text.len());
        assert!(ids.iter().all(|&id| id < tok.vocab_size()));
        assert_eq!(tok.decode(&ids), text, "printable ASCII must round-trip");
    });
}

#[test]
fn tokenizer_maps_non_printable_to_unknown() {
    use edge_llm_data::CharTokenizer;
    let tok = CharTokenizer::new();
    run_cases("tokenizer unknowns", 32, |g| {
        // control chars, DEL, and multi-byte UTF-8 all land on unk -> '?'
        let bad = *g.choose(&['\t', '\n', '\x7F', 'é', '日', '\u{1F600}']);
        let text = format!("ok{bad}ok");
        let ids = tok.encode(&text);
        assert!(ids.contains(&tok.unk_id()));
        let back = tok.decode(&ids);
        assert!(back.starts_with("ok") && back.ends_with("ok"));
        assert!(back.contains('?'), "unknowns decode to '?': {back:?}");
        // decode is total: out-of-range ids also map to '?', no panic
        assert_eq!(tok.decode(&[tok.vocab_size() + 7]), "?");
    });
}

#[test]
fn tokenizer_handles_degenerate_inputs() {
    use edge_llm_data::CharTokenizer;
    let tok = CharTokenizer::new();
    assert_eq!(tok.encode(""), Vec::<usize>::new());
    assert_eq!(tok.decode(&[]), "");
    let spaces = "   ";
    assert_eq!(tok.decode(&tok.encode(spaces)), spaces);
    let max_len = "~".repeat(1 << 16);
    assert_eq!(tok.decode(&tok.encode(&max_len)), max_len);
}

#[test]
fn cloze_answers_are_consistent_with_samples() {
    run_cases("cloze consistency", 48, |g| {
        let subjects = g.usize_in(2, 10);
        let relations = g.usize_in(1, 4);
        let task = ClozeQaTask::with_seed(subjects, relations, g.u64());
        assert_eq!(task.n_facts(), subjects * relations);
        // the fact table itself stays inside the vocabulary
        for s in 0..subjects {
            for r in 0..relations {
                assert!(task.answer(s, r) < task.vocab_size());
            }
        }
        // sampling never panics even at the minimum viable length
        let seq = g.usize_in(1, 48);
        let sample = task.sample(seq, g.rng());
        assert_eq!(sample.tokens.len(), seq);
        assert_eq!(sample.targets.len(), seq);
    });
}
