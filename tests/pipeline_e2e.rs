//! End-to-end pipeline tests: the one-call `run_method` API at smoke-test
//! scale, exercising every method, reproducibility, and the qualitative
//! claims of the paper (memory savings, modeled speedup, comparable
//! accuracy trends).

use edge_llm::pipeline::{run_method, ExperimentConfig, Method, TaskKind};
use edge_llm_model::ModelConfig;

fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        model: ModelConfig::tiny()
            .with_layers(4)
            .with_d_model(32, 4)
            .with_seq_len(16),
        task: TaskKind::ClozeQa {
            subjects: 10,
            relations: 2,
        },
        seed: 123,
        train_samples: 16,
        eval_samples: 8,
        batch: 4,
        iterations: 40,
        lr: 0.08,
        budget: 0.3,
        window_depth: 2,
        ..ExperimentConfig::smoke_test()
    }
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let cfg = quick_config();
    let a = run_method(Method::EdgeLlm, &cfg).unwrap();
    let b = run_method(Method::EdgeLlm, &cfg).unwrap();
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.final_loss, b.final_loss);
    assert_eq!(a.policy_bits, b.policy_bits);
    assert_eq!(a.peak_activation_bytes, b.peak_activation_bytes);
}

#[test]
fn different_seeds_differ() {
    let mut cfg = quick_config();
    let a = run_method(Method::Vanilla, &cfg).unwrap();
    cfg.seed = 456;
    let b = run_method(Method::Vanilla, &cfg).unwrap();
    assert_ne!(a.final_loss, b.final_loss);
}

#[test]
fn edge_llm_preserves_the_papers_efficiency_shape() {
    // The headline shape of T1/F1/T3: Edge-LLM cuts modeled per-iteration
    // latency by a large factor and peak activation memory substantially,
    // at a compressed policy cost.
    let cfg = quick_config();
    let vanilla = run_method(Method::Vanilla, &cfg).unwrap();
    let edge = run_method(Method::EdgeLlm, &cfg).unwrap();
    let modeled_speedup = vanilla.modeled_iter_us / edge.modeled_iter_us;
    assert!(
        modeled_speedup > 1.5,
        "modeled speedup only {modeled_speedup:.2}x"
    );
    assert!(edge.peak_activation_bytes < vanilla.peak_activation_bytes);
    assert!(edge.policy_cost < 0.5 * vanilla.policy_cost);
}

#[test]
fn adaptation_beats_chance_for_all_methods() {
    let mut cfg = quick_config();
    cfg.iterations = 120;
    cfg.lr = 0.15;
    let chance = 1.0 / 10.0; // objects pool == subjects pool (10)
    for method in [Method::Vanilla, Method::UniformCompressed, Method::EdgeLlm] {
        let out = run_method(method, &cfg).unwrap();
        assert!(
            out.accuracy > chance,
            "{method:?} accuracy {} not above chance {chance}",
            out.accuracy
        );
    }
}

#[test]
fn last_layer_baseline_trains_fewer_layers() {
    let cfg = quick_config();
    let out = run_method(Method::LastLayerOnly, &cfg).unwrap();
    let vanilla = run_method(Method::Vanilla, &cfg).unwrap();
    // head tuning holds less activation memory than full-depth tuning
    assert!(out.peak_activation_bytes < vanilla.peak_activation_bytes);
}

#[test]
fn markov_task_runs_through_pipeline() {
    let mut cfg = quick_config();
    cfg.task = TaskKind::Markov { branching: 3 };
    cfg.iterations = 150;
    cfg.lr = 0.1;
    let out = run_method(Method::EdgeLlm, &cfg).unwrap();
    // the 64-state chain has entropy ln(3); a briefly tuned compressed
    // model won't reach that, but must be far below a diverged model
    assert!(out.perplexity < 150.0, "perplexity {}", out.perplexity);
}

#[test]
fn greedy_and_dp_policies_both_meet_budget() {
    let cfg = quick_config();
    for method in [Method::EdgeLlm, Method::EdgeLlmGreedyLuc] {
        let out = run_method(method, &cfg).unwrap();
        assert!(
            out.policy_cost <= cfg.budget + 1e-4,
            "{method:?} cost {} exceeds budget {}",
            out.policy_cost,
            cfg.budget
        );
    }
}
