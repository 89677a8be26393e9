//! Cross-crate integration tests: compression machinery applied to live
//! models, oracle-driven LUC search, and schedule search on extracted
//! workloads.

use edge_llm::baselines::uniform_policy_for_budget;
use edge_llm::compress::{apply_policy, clear_compression};
use edge_llm::eval::evaluate;
use edge_llm::oracle::ModelOracle;
use edge_llm::schedule::{model_workloads, naive_latency_us, schedule_workloads, total_latency_us};
use edge_llm_data::{ClozeQaTask, MarkovTextTask, TaskGenerator};
use edge_llm_hw::{DeviceModel, ScheduleSpace};
use edge_llm_luc::{profile, search_policy, CompressionPolicy, SearchAlgorithm};
use edge_llm_model::{
    gradient_check, AdaptiveTuner, EdgeModel, LayerWindow, ModelConfig, Sgd, VotingCombiner,
    VotingPolicy, WindowSchedule,
};
use edge_llm_quant::BitWidth;
use edge_llm_tensor::{score, softmax_rows, TensorRng};

fn tiny_model(layers: usize, seed: u64) -> (ModelConfig, EdgeModel) {
    let mut rng = TensorRng::seed_from(seed);
    let cfg = ModelConfig::tiny().with_layers(layers);
    let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    (cfg, model)
}

#[test]
fn gradients_stay_correct_under_compression() {
    // The STE + mask gradients must agree with finite differences even on
    // a compressed model — the property that makes compressed adaptation
    // trustworthy end to end.
    let (cfg, mut model) = tiny_model(2, 4);
    let policy = CompressionPolicy::uniform(2, BitWidth::W8, 0.25);
    apply_policy(&mut model, &policy).unwrap();
    let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| (i * 5) % cfg.vocab_size).collect();
    let report = gradient_check(
        &mut model,
        &tokens,
        &tokens,
        1,
        LayerWindow { start: 1, end: 2 },
        151,
    )
    .unwrap();
    assert!(report.probed > 5);
    assert!(
        report.max_abs_err < 5e-2,
        "grad err {} under compression",
        report.max_abs_err
    );
}

#[test]
fn compressed_windowed_adaptation_learns() {
    let mut rng = TensorRng::seed_from(7);
    let task = ClozeQaTask::new(8, 2);
    let cfg = ModelConfig::tiny()
        .with_layers(2)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    apply_policy(
        &mut model,
        &CompressionPolicy::uniform(2, BitWidth::W8, 0.25),
    )
    .unwrap();
    let train = task.dataset(8, cfg.seq_len, &mut rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let mut opt = Sgd::new(0.1);
    let before = evaluate(&model, &VotingPolicy::final_only(2), &train, 2).unwrap();
    for it in 0..80 {
        let b = train.batch_at(it * 2, 2);
        tuner
            .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
            .unwrap();
    }
    let after = evaluate(&model, &VotingPolicy::final_only(2), &train, 2).unwrap();
    assert!(
        after.accuracy > before.accuracy,
        "adaptation must improve accuracy: {} -> {}",
        before.accuracy,
        after.accuracy
    );
    // pruned weights must still be pruned after 80 optimizer steps
    let [qkv, ..] = model.block(0).linears();
    let mask = qkv.mask().expect("mask installed");
    for r in 0..qkv.weight().rows() {
        for c in 0..qkv.weight().cols() {
            if !mask.is_kept(r, c) {
                assert_eq!(
                    qkv.weight().get(r, c),
                    0.0,
                    "pruned weight resurrected at ({r},{c})"
                );
            }
        }
    }
}

#[test]
fn luc_pipeline_profiles_and_searches_on_real_model() {
    let mut rng = TensorRng::seed_from(11);
    let task = ClozeQaTask::new(8, 2);
    let cfg = ModelConfig::tiny()
        .with_layers(3)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    // brief adaptation so sensitivity is meaningful
    let train = task.dataset(8, cfg.seq_len, &mut rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::FullDepth);
    let mut opt = Sgd::new(0.1);
    for it in 0..40 {
        let b = train.batch_at(it * 2, 2);
        tuner
            .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
            .unwrap();
    }
    let calib = train.batch_at(0, 2);
    let mut oracle = ModelOracle::new(&model, &calib.tokens, &calib.targets, 2);
    let prof = profile(
        &mut oracle,
        &[BitWidth::W2, BitWidth::W4, BitWidth::W16],
        &[0.0, 0.5],
    )
    .unwrap();
    prof.validate().unwrap();
    let out = search_policy(&prof, 0.3, SearchAlgorithm::DynamicProgramming).unwrap();
    assert_eq!(out.policy.n_layers(), 3);
    assert!(out.policy.mean_cost() <= 0.3 + 1e-5);
    // and the searched policy is applicable
    apply_policy(&mut model, &out.policy).unwrap();
    clear_compression(&mut model).unwrap();
}

#[test]
fn voting_recovers_windowed_accuracy() {
    // After round-robin windowed tuning, all exits are trained; voting
    // must not be (much) worse than the final exit, and usually helps.
    let mut rng = TensorRng::seed_from(13);
    let task = ClozeQaTask::new(8, 2);
    let cfg = ModelConfig::tiny()
        .with_layers(4)
        .with_vocab(task.vocab_size());
    let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let train = task.dataset(12, cfg.seq_len, &mut rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 1 });
    let mut opt = Sgd::new(0.1);
    for it in 0..120 {
        let b = train.batch_at(it * 2, 2);
        tuner
            .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
            .unwrap();
    }
    let last = evaluate(&model, &VotingPolicy::final_only(4), &train, 2).unwrap();
    let vote = evaluate(
        &model,
        &VotingPolicy::all_exits(4, VotingCombiner::ConfidenceWeighted { temperature: 1.0 }),
        &train,
        2,
    )
    .unwrap();
    assert!(
        vote.accuracy >= last.accuracy * 0.9,
        "voting {} should not collapse below last exit {}",
        vote.accuracy,
        last.accuracy
    );
}

#[test]
fn workload_extraction_and_scheduling_chain() {
    let cfg = ModelConfig::tiny().with_layers(2);
    let policy = uniform_policy_for_budget(2, 0.25);
    let workloads = model_workloads(&cfg, &policy, 2).unwrap();
    assert_eq!(workloads.len(), 12);
    let device = DeviceModel::jetson_class();
    let scheduled = schedule_workloads(&workloads, &device, &ScheduleSpace::default()).unwrap();
    let searched = total_latency_us(&scheduled);
    let naive = naive_latency_us(&workloads, &device).unwrap();
    assert!(searched < naive);
    // every scheduled GEMM fits SRAM
    for s in &scheduled {
        assert!(s.cost.sram_bytes <= device.sram_bytes);
    }
}

#[test]
fn tasks_are_learnable_by_full_tuning() {
    // Every task generator must be learnable enough that a tiny model
    // improves measurably in 60 iterations — guards against generators
    // emitting inconsistent supervision.
    for (name, task) in [
        (
            "cloze",
            Box::new(ClozeQaTask::new(6, 2)) as Box<dyn TaskGenerator>,
        ),
        ("markov", Box::new(MarkovTextTask::new(16, 2, 5))),
    ] {
        let mut rng = TensorRng::seed_from(17);
        let cfg = ModelConfig::tiny()
            .with_layers(2)
            .with_vocab(task.vocab_size());
        let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
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
        assert!(last < first, "{name}: loss should drop ({first} -> {last})");
    }
}

#[test]
fn accuracy_metric_consistent_with_eval() {
    let mut rng = TensorRng::seed_from(19);
    let task = ClozeQaTask::new(6, 2);
    let cfg = ModelConfig::tiny()
        .with_layers(2)
        .with_vocab(task.vocab_size());
    let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
    let ds = task.dataset(4, cfg.seq_len, &mut rng);
    let b = ds.batch_at(0, 4);
    let logits = model.logits(&b.tokens, 4).unwrap();
    let direct = score(&softmax_rows(&logits), &b.targets).unwrap();
    let via_eval = evaluate(&model, &VotingPolicy::final_only(2), &ds, 4).unwrap();
    assert_eq!(via_eval.positions, direct.supervised);
    let accuracy = direct.hits as f64 / direct.supervised as f64;
    assert_eq!(via_eval.accuracy, accuracy as f32);
}
