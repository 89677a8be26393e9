//! Lifecycle integration tests: checkpointing adapted models, generating
//! from them, activation quantization end-to-end, and text-corpus
//! adaptation — the deployment loop around the core pipeline.

use edge_llm::compress::apply_policy;
use edge_llm::eval::evaluate;
use edge_llm::resilience::{restore_run, RunMeta};
use edge_llm_data::{MarkovTextTask, TaskGenerator, TextLmTask};
use edge_llm_luc::CompressionPolicy;
use edge_llm_model::{
    generate, AdaptiveTuner, Decoding, EdgeModel, ModelConfig, Sgd, TrainingCheckpoint,
    VotingPolicy, WindowSchedule,
};
use edge_llm_quant::{BitWidth, QuantScheme};
use edge_llm_tensor::TensorRng;

fn adapt(
    model: &mut EdgeModel,
    task: &dyn TaskGenerator,
    iters: usize,
    lr: f32,
    rng: &mut TensorRng,
) -> f32 {
    let cfg = model.config().clone();
    let ds = task.dataset(16, cfg.seq_len, rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 2 });
    let mut opt = Sgd::new(lr);
    let mut last = f32::NAN;
    for it in 0..iters {
        let b = ds.batch_at(it * 2, 2);
        last = tuner
            .step(model, &mut opt, &b.tokens, &b.targets, b.batch)
            .unwrap()
            .loss;
    }
    last
}

#[test]
fn adapted_checkpoint_roundtrips_with_policy() {
    let mut rng = TensorRng::seed_from(31);
    let task = MarkovTextTask::new(24, 2, 5);
    let cfg = ModelConfig::tiny()
        .with_layers(4)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let policy = CompressionPolicy::uniform(4, BitWidth::W8, 0.25);
    apply_policy(&mut model, &policy).unwrap();
    adapt(&mut model, &task, 60, 0.1, &mut rng);

    // the file carries the policy: restoring needs nothing but its bytes
    let meta = RunMeta {
        policy,
        data_seed: 31,
        window: 2,
    };
    let mut bytes = Vec::new();
    TrainingCheckpoint::capture(&model, &Sgd::new(0.1), 60, &rng, meta.encode())
        .write_to(&mut bytes)
        .unwrap();
    let loaded = TrainingCheckpoint::read_from(&mut bytes.as_slice()).unwrap();
    let (restored, _, _, restored_meta) = restore_run(&loaded).unwrap();
    assert_eq!(restored_meta, meta);

    let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| i % task.vocab_size()).collect();
    let a = model.logits(&tokens, 1).unwrap();
    let b = restored.logits(&tokens, 1).unwrap();
    assert!(a.approx_eq(&b, 1e-6));
}

#[test]
fn generation_respects_learned_markov_structure() {
    let mut rng = TensorRng::seed_from(32);
    let task = MarkovTextTask::new(12, 2, 9);
    let cfg = ModelConfig::tiny()
        .with_layers(2)
        .with_d_model(32, 4)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    adapt(&mut model, &task, 200, 0.15, &mut rng);
    // greedy continuations should mostly follow chain edges
    let policy = VotingPolicy::final_only(model.n_layers());
    let mut gen_rng = TensorRng::seed_from(33);
    let sample = task.sample(cfg.seq_len, &mut gen_rng);
    let out = generate(
        &model,
        &policy,
        &sample.tokens[..4],
        20,
        Decoding::Greedy,
        &mut gen_rng,
    )
    .unwrap();
    assert_eq!(out.len(), 24);
    assert!(out.iter().all(|&t| t < task.vocab_size()));
}

#[test]
fn activation_quant_model_still_learns() {
    let mut rng = TensorRng::seed_from(34);
    let task = MarkovTextTask::new(16, 2, 3);
    let cfg = ModelConfig::tiny()
        .with_layers(2)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    // 8-bit activations on every projection
    for l in 0..model.n_layers() {
        for lin in model.block_mut(l).linears_mut() {
            lin.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
        }
    }
    let ds = task.dataset(8, cfg.seq_len, &mut rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::FullDepth);
    let mut opt = Sgd::new(0.1);
    let b0 = ds.batch_at(0, 2);
    let first = tuner
        .step(&mut model, &mut opt, &b0.tokens, &b0.targets, 2)
        .unwrap()
        .loss;
    let mut last = first;
    for it in 1..60 {
        let b = ds.batch_at(it * 2, 2);
        last = tuner
            .step(&mut model, &mut opt, &b.tokens, &b.targets, 2)
            .unwrap()
            .loss;
    }
    assert!(
        last < first,
        "8-bit activations must not block learning: {first} -> {last}"
    );
}

#[test]
fn text_corpus_adaptation_reduces_perplexity() {
    let corpus = "the quick brown fox jumps over the lazy dog. the lazy dog sleeps. \
                  the quick fox runs. the brown dog jumps over the quick fox.";
    let task = TextLmTask::new(corpus).unwrap();
    let mut rng = TensorRng::seed_from(35);
    let cfg = ModelConfig::tiny()
        .with_layers(2)
        .with_d_model(32, 4)
        .with_seq_len(24)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let eval_set = task.dataset(8, cfg.seq_len, &mut rng);
    let policy = VotingPolicy::final_only(model.n_layers());
    let before = evaluate(&model, &policy, &eval_set, 4).unwrap();
    adapt(&mut model, &task, 150, 0.15, &mut rng);
    let after = evaluate(&model, &policy, &eval_set, 4).unwrap();
    assert!(
        after.perplexity < before.perplexity / 2.0,
        "perplexity should at least halve: {} -> {}",
        before.perplexity,
        after.perplexity
    );
}

#[test]
fn policy_compact_string_survives_pipeline() {
    let policy = CompressionPolicy::uniform(3, BitWidth::W4, 0.5);
    let s = policy.to_compact_string();
    let parsed = CompressionPolicy::parse_compact(&s).unwrap();
    assert_eq!(parsed, policy);
    let mut rng = TensorRng::seed_from(37);
    let mut model = EdgeModel::new(ModelConfig::tiny().with_layers(3), &mut rng).unwrap();
    apply_policy(&mut model, &parsed).unwrap();
    let [qkv, ..] = model.block(0).linears();
    assert!(qkv.quant().is_some());
    assert!(qkv.mask().is_some());
}
