//! Robustness and failure-injection tests: the system must fail loudly and
//! cleanly at its boundaries — bad budgets, exhausted capacity, divergent
//! training, degenerate tasks — rather than panicking or silently
//! corrupting state.

use edge_llm::compress::apply_policy;
use edge_llm::oracle::ModelOracle;
use edge_llm::pipeline::{run_method, ExperimentConfig, Method, TaskKind};
use edge_llm_luc::{profile, search_policy, CompressionPolicy, LucError, SearchAlgorithm};
use edge_llm_model::{
    AdaptiveTuner, EdgeModel, InferenceSession, ModelConfig, Sgd, WindowSchedule,
};
use edge_llm_quant::BitWidth;
use edge_llm_tensor::TensorRng;

#[test]
fn infeasible_budget_propagates_cleanly_through_pipeline() {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.budget = 0.01; // below the cheapest 2-bit/75% combo
    let err = run_method(Method::EdgeLlm, &cfg).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("budget"), "unexpected error: {msg}");
}

#[test]
fn divergent_training_stays_finite_or_fails_loudly() {
    // an absurd learning rate must not panic; losses may grow but the
    // training loop and evaluation keep returning values
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.lr = 50.0;
    let out = run_method(Method::Vanilla, &cfg).unwrap();
    // the run completes and the outcome struct is intact even if the
    // numbers are degenerate (deterministic fields only: no assertion
    // here reads the wall clock)
    assert_eq!(out.method, "vanilla-ft");
    assert!(out.peak_activation_bytes > 0 && out.modeled_iter_us > 0.0);
}

#[test]
fn session_capacity_errors_are_recoverable() {
    let mut rng = TensorRng::seed_from(1);
    let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let mut session = InferenceSession::new(&model);
    for _ in 0..model.config().seq_len {
        session.push_token(0).unwrap();
    }
    for _ in 0..3 {
        assert!(
            session.push_token(0).is_err(),
            "capacity errors must repeat, not panic"
        );
    }
    session.reset();
    assert!(session.push_token(0).is_ok());
}

#[test]
fn tuner_survives_single_token_vocabulary_tasks() {
    // a one-fact cloze KB -> the smallest cloze vocabulary (5 tokens),
    // still trains
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.task = TaskKind::ClozeQa {
        subjects: 1,
        relations: 1,
    };
    let out = run_method(Method::Vanilla, &cfg).unwrap();
    assert!(out.final_loss.is_finite());
}

#[test]
fn oracle_survives_compressed_probe_failures() {
    // profiling with a ratio choice of ~1.0 is invalid per-layer policy;
    // profile() must surface it as a non-panicking outcome
    let mut rng = TensorRng::seed_from(2);
    let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let tokens: Vec<usize> = (0..8).collect();
    let mut oracle = ModelOracle::new(&model, &tokens, &tokens, 1);
    let prof = profile(&mut oracle, &[BitWidth::W4], &[1.0]).unwrap();
    // the invalid ratio produced an infinite-loss measurement, which the
    // profile clamps into a (large) delta rather than crashing
    assert_eq!(prof.prune_delta[0].len(), 1);
}

#[test]
fn search_rejects_corrupt_profiles() {
    let mut rng = TensorRng::seed_from(3);
    let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let tokens: Vec<usize> = (0..8).collect();
    let mut oracle = ModelOracle::new(&model, &tokens, &tokens, 1);
    let mut prof = profile(&mut oracle, &[BitWidth::W4, BitWidth::W16], &[0.0, 0.5]).unwrap();
    prof.quant_delta[0].pop(); // corrupt
    assert!(matches!(
        search_policy(&prof, 0.5, SearchAlgorithm::DynamicProgramming),
        Err(LucError::ProfileMismatch { .. })
    ));
}

#[test]
fn double_compression_is_idempotent_in_shape() {
    // applying a policy twice must not stack masks destructively beyond
    // the first application's sparsity
    let mut rng = TensorRng::seed_from(4);
    let mut model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
    let policy = CompressionPolicy::uniform(2, BitWidth::W4, 0.5);
    apply_policy(&mut model, &policy).unwrap();
    let zeros_once = count_zeros(&model);
    apply_policy(&mut model, &policy).unwrap();
    let zeros_twice = count_zeros(&model);
    assert_eq!(
        zeros_once, zeros_twice,
        "re-applying the same policy must be stable"
    );
}

fn count_zeros(model: &EdgeModel) -> usize {
    let mut zeros = 0;
    for l in 0..model.n_layers() {
        for lin in model.block(l).linears() {
            zeros += lin
                .weight()
                .as_slice()
                .iter()
                .filter(|&&v| v == 0.0)
                .count();
        }
    }
    zeros
}

#[test]
fn windowed_tuning_with_batch_larger_than_dataset_wraps() {
    let mut rng = TensorRng::seed_from(5);
    let task = edge_llm_data::ClozeQaTask::new(4, 2);
    use edge_llm_data::TaskGenerator;
    let cfg = ModelConfig::tiny().with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let ds = task.dataset(2, cfg.seq_len, &mut rng);
    // batch of 6 over a dataset of 2 samples wraps without panicking
    let b = ds.batch_at(0, 6);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let mut opt = Sgd::new(0.05);
    let rep = tuner
        .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
        .unwrap();
    assert!(rep.loss.is_finite());
}
