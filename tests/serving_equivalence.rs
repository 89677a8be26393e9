//! Differential proof of the serving engine's core invariant: for any
//! request mix, any arrival order, any batch size, and any kernel thread
//! count, every request's generated tokens — and the combined
//! distribution behind its final token — are **bit-identical** to running
//! that request alone through a single-sequence `InferenceSession`
//! (`run_solo`, an independently written reference decoder).
//!
//! The randomized-mix tests draw prompt lengths, decoding modes, voting
//! policies, deadlines, and scheduling shape from the in-repo property
//! harness, so every CI run explores fresh interleavings with a
//! reproducible per-case seed.

use edge_llm::compress::apply_activation_quant;
use edge_llm_model::{generate, Decoding, EdgeModel, ModelConfig, VotingCombiner, VotingPolicy};
use edge_llm_quant::{BitWidth, QuantScheme};
use edge_llm_serve::{run_solo, BatchedInferenceEngine, FinishReason, ServeOutcome, ServeRequest};
use edge_llm_tensor::check::{run_cases, Gen};
use edge_llm_tensor::{configured_threads, set_configured_threads, TensorRng};
use std::sync::Mutex;

/// Serializes tests that touch the process-wide thread setting.
static KNOB: Mutex<()> = Mutex::new(());

fn tiny_model(seed: u64) -> EdgeModel {
    let mut rng = TensorRng::seed_from(seed);
    EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
}

/// Draws one random request against `model`'s shape.
fn random_request(g: &mut Gen, model: &EdgeModel, id: usize) -> ServeRequest {
    let cfg = model.config();
    let n_layers = model.n_layers();
    let prompt_len = g.usize_in(1, cfg.seq_len + 2); // may exceed capacity
    let prompt: Vec<usize> = (0..prompt_len)
        .map(|_| g.usize_in(0, cfg.vocab_size))
        .collect();
    let decoding = match g.usize_in(0, 4) {
        0 => Decoding::Greedy,
        1 => Decoding::Sample {
            temperature: g.f32_in(0.3, 2.0),
        },
        2 => Decoding::TopK {
            k: g.usize_in(1, cfg.vocab_size + 4),
            temperature: g.f32_in(0.3, 2.0),
        },
        _ => Decoding::SelfSpeculative {
            draft_depth: g.usize_in(0, n_layers),
            k: g.usize_in(1, 7),
        },
    };
    // speculative requests verify against the final exit, so they only
    // validate with a final-exit voting policy
    let voting = if matches!(decoding, Decoding::SelfSpeculative { .. }) {
        VotingPolicy::final_only(n_layers)
    } else {
        match g.usize_in(0, 4) {
            0 => VotingPolicy::final_only(n_layers),
            1 => VotingPolicy::all_exits(n_layers, VotingCombiner::Average),
            2 => VotingPolicy::all_exits(n_layers, VotingCombiner::LastExit),
            _ => VotingPolicy::all_exits(
                n_layers,
                VotingCombiner::ConfidenceWeighted {
                    temperature: g.f32_in(0.5, 2.0),
                },
            ),
        }
    };
    ServeRequest {
        id: format!("r{id}"),
        prompt,
        max_new_tokens: g.usize_in(0, cfg.seq_len),
        decoding,
        voting,
        seed: g.u64(),
        deadline_steps: if g.bool() {
            Some(g.usize_in(0, 2 * cfg.seq_len))
        } else {
            None
        },
        tenant: None,
    }
}

fn assert_outcome_bit_equal(batched: &ServeOutcome, solo: &ServeOutcome, ctx: &str) {
    assert_eq!(batched.id, solo.id, "{ctx}: id");
    assert_eq!(batched.tokens, solo.tokens, "{ctx} {}: tokens", solo.id);
    assert_eq!(batched.finish, solo.finish, "{ctx} {}: finish", solo.id);
    assert_eq!(batched.steps, solo.steps, "{ctx} {}: steps", solo.id);
    let bits = |probs: &Option<Vec<f32>>| {
        probs
            .as_ref()
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
    };
    assert_eq!(
        bits(&batched.final_probs),
        bits(&solo.final_probs),
        "{ctx} {}: final distribution must be bit-identical",
        solo.id
    );
}

/// Serves `requests` at the given batch size and compares every outcome
/// against the solo reference, bitwise.
fn assert_engine_matches_solo(
    model: &EdgeModel,
    requests: &[ServeRequest],
    batch: usize,
    ctx: &str,
) {
    let mut engine = BatchedInferenceEngine::new(model, batch).unwrap();
    for r in requests {
        engine.submit(r.clone());
    }
    let outcomes = engine.run_to_completion().unwrap();
    assert_eq!(outcomes.len(), requests.len(), "{ctx}: outcome count");
    for req in requests {
        let solo = run_solo(model, req).unwrap();
        let batched = outcomes
            .iter()
            .find(|o| o.id == req.id)
            .unwrap_or_else(|| panic!("{ctx}: no outcome for {}", req.id));
        assert_outcome_bit_equal(batched, &solo, ctx);
    }
}

#[test]
fn randomized_mixes_match_solo_across_batch_sizes_and_threads() {
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    let model = tiny_model(11);
    run_cases("serving_equivalence_mix", 12, |g| {
        let n_requests = g.usize_in(1, 9);
        let requests: Vec<ServeRequest> = (0..n_requests)
            .map(|i| random_request(g, &model, i))
            .collect();
        let batch = *g.choose(&[1usize, 2, 4, 8]);
        let threads = *g.choose(&[1usize, 2, 4]);
        set_configured_threads(threads);
        assert_engine_matches_solo(
            &model,
            &requests,
            batch,
            &format!("batch {batch} threads {threads}"),
        );
    });
    set_configured_threads(saved);
}

#[test]
fn every_batch_size_yields_the_same_stream_for_a_fixed_mix() {
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    let model = tiny_model(12);
    let cfg = model.config();
    // a fixed heterogeneous mix: varied prompts, all decoding modes, a
    // deadline eviction, and a capacity eviction (prompt past seq_len)
    let requests = vec![
        ServeRequest {
            id: "greedy".into(),
            prompt: vec![1, 2, 3],
            max_new_tokens: 4,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 1,
            deadline_steps: None,
            tenant: None,
        },
        ServeRequest {
            id: "sample".into(),
            prompt: vec![4],
            max_new_tokens: 5,
            decoding: Decoding::Sample { temperature: 0.7 },
            voting: VotingPolicy::all_exits(model.n_layers(), VotingCombiner::Average),
            seed: 2,
            deadline_steps: None,
            tenant: None,
        },
        ServeRequest {
            id: "topk".into(),
            prompt: vec![5, 6, 7, 8],
            max_new_tokens: 3,
            decoding: Decoding::TopK {
                k: 3,
                temperature: 1.2,
            },
            voting: VotingPolicy::all_exits(
                model.n_layers(),
                VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
            ),
            seed: 3,
            deadline_steps: None,
            tenant: None,
        },
        ServeRequest {
            id: "deadline".into(),
            prompt: vec![1; 4],
            max_new_tokens: cfg.seq_len,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 4,
            deadline_steps: Some(5),
            tenant: None,
        },
        ServeRequest {
            id: "capacity".into(),
            prompt: (0..cfg.seq_len + 2).map(|i| i % cfg.vocab_size).collect(),
            max_new_tokens: 2,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 5,
            deadline_steps: None,
            tenant: None,
        },
    ];
    for threads in [1usize, 2, 4] {
        set_configured_threads(threads);
        for batch in [1usize, 2, 4, 8] {
            assert_engine_matches_solo(
                &model,
                &requests,
                batch,
                &format!("fixed mix, batch {batch}, threads {threads}"),
            );
        }
    }
    set_configured_threads(saved);
}

#[test]
fn arrival_order_never_changes_any_request() {
    let model = tiny_model(13);
    run_cases("serving_equivalence_order", 6, |g| {
        let mut requests: Vec<ServeRequest> =
            (0..5).map(|i| random_request(g, &model, i)).collect();
        let batch = *g.choose(&[2usize, 4]);
        assert_engine_matches_solo(&model, &requests, batch, "original order");
        // reverse the arrival order: every per-request outcome must be
        // unchanged because solo references don't depend on order at all
        requests.reverse();
        assert_engine_matches_solo(&model, &requests, batch, "reversed order");
    });
}

/// A self-speculative request with a final-exit voting policy.
fn spec_request(
    id: &str,
    n_layers: usize,
    draft_depth: usize,
    k: usize,
    prompt: Vec<usize>,
    max_new_tokens: usize,
) -> ServeRequest {
    ServeRequest {
        id: id.into(),
        prompt,
        max_new_tokens,
        decoding: Decoding::SelfSpeculative { draft_depth, k },
        voting: VotingPolicy::final_only(n_layers),
        seed: 0,
        deadline_steps: None,
        tenant: None,
    }
}

#[test]
fn mixed_speculative_and_greedy_slots_match_solo_bitwise() {
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    // 4 layers so the spec slots span shallow, mid, and final-exit drafts
    let mut rng = TensorRng::seed_from(21);
    let model = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
    let nl = model.n_layers();
    let requests = vec![
        spec_request("spec-shallow", nl, 1, 2, vec![1, 2, 3], 4),
        ServeRequest {
            id: "greedy-mate".into(),
            prompt: vec![3, 1],
            max_new_tokens: 5,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::all_exits(nl, VotingCombiner::Average),
            seed: 7,
            deadline_steps: None,
            tenant: None,
        },
        spec_request("spec-mid", nl, 2, 4, vec![4, 5], 5),
        ServeRequest {
            id: "sample-mate".into(),
            prompt: vec![6],
            max_new_tokens: 4,
            decoding: Decoding::Sample { temperature: 0.9 },
            voting: VotingPolicy::final_only(nl),
            seed: 8,
            deadline_steps: None,
            tenant: None,
        },
        spec_request("spec-deep", nl, nl - 1, 8, vec![7, 8, 9, 1], 3),
    ];
    for threads in [1usize, 2, 4] {
        set_configured_threads(threads);
        for batch in [1usize, 2, 3, 8] {
            assert_engine_matches_solo(
                &model,
                &requests,
                batch,
                &format!("spec mix, batch {batch}, threads {threads}"),
            );
        }
    }
    set_configured_threads(saved);
}

#[test]
fn eviction_mid_verify_leaves_surviving_slots_bit_identical() {
    let mut rng = TensorRng::seed_from(22);
    let model = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
    let nl = model.n_layers();
    let seq_len = model.config().seq_len;
    // a spec slot killed by its fed-token deadline partway through its
    // rounds, one killed by cache capacity, and batch-mates (one of them
    // speculative) that must retire unperturbed
    let mut deadline_victim = spec_request("deadline-victim", nl, 1, 8, vec![1, 2], seq_len);
    deadline_victim.deadline_steps = Some(4);
    let capacity_victim = spec_request(
        "capacity-victim",
        nl,
        2,
        4,
        (0..seq_len - 1)
            .map(|i| i % model.config().vocab_size)
            .collect(),
        seq_len,
    );
    let requests = vec![
        deadline_victim,
        capacity_victim,
        spec_request("spec-survivor", nl, 1, 3, vec![5, 6], 4),
        ServeRequest {
            id: "greedy-survivor".into(),
            prompt: vec![7, 8],
            max_new_tokens: 4,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(nl),
            seed: 9,
            deadline_steps: None,
            tenant: None,
        },
    ];
    for batch in [2usize, 4] {
        assert_engine_matches_solo(
            &model,
            &requests,
            batch,
            &format!("mid-verify evict, batch {batch}"),
        );
    }
    // and the victims really did evict for the reasons constructed above
    let mut engine = BatchedInferenceEngine::new(&model, 4).unwrap();
    for r in &requests {
        engine.submit(r.clone());
    }
    let outcomes = engine.run_to_completion().unwrap();
    let finish = |id: &str| outcomes.iter().find(|o| o.id == id).unwrap().finish.clone();
    assert_eq!(finish("deadline-victim"), FinishReason::DeadlineExceeded);
    assert_eq!(finish("capacity-victim"), FinishReason::CapacityExhausted);
    assert_eq!(finish("spec-survivor"), FinishReason::Completed);
    assert_eq!(finish("greedy-survivor"), FinishReason::Completed);
}

#[test]
fn activation_quantization_does_not_couple_batch_rows() {
    // a naive batched implementation would couple rows through activation
    // calibration (one range spanning all in-flight sequences); the engine
    // fits each row's range on its own and stays bit-identical to solo
    let schemes = [
        QuantScheme::asymmetric(BitWidth::W8),
        QuantScheme::asymmetric(BitWidth::W4),
    ];
    for (si, scheme) in schemes.into_iter().enumerate() {
        let mut model = tiny_model(14);
        apply_activation_quant(&mut model, Some(scheme)).unwrap();
        run_cases(&format!("serving_equivalence_quant_{si}"), 4, |g| {
            let requests: Vec<ServeRequest> =
                (0..4).map(|i| random_request(g, &model, i)).collect();
            let batch = *g.choose(&[2usize, 4, 8]);
            assert_engine_matches_solo(&model, &requests, batch, &format!("quant {scheme:?}"));
        });
    }
}

#[test]
fn rejected_and_evicted_requests_report_identically() {
    let model = tiny_model(15);
    let cfg = model.config();
    let requests = vec![
        ServeRequest {
            id: "empty-prompt".into(),
            prompt: vec![],
            max_new_tokens: 2,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 1,
            deadline_steps: None,
            tenant: None,
        },
        ServeRequest {
            id: "bad-token".into(),
            prompt: vec![cfg.vocab_size + 5],
            max_new_tokens: 2,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 2,
            deadline_steps: None,
            tenant: None,
        },
        ServeRequest {
            id: "bad-temp".into(),
            prompt: vec![1],
            max_new_tokens: 2,
            decoding: Decoding::Sample { temperature: -1.0 },
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 3,
            deadline_steps: None,
            tenant: None,
        },
        ServeRequest {
            id: "zero-deadline".into(),
            prompt: vec![1, 2],
            max_new_tokens: 2,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 4,
            deadline_steps: Some(0),
            tenant: None,
        },
        ServeRequest {
            id: "survivor".into(),
            prompt: vec![3, 4],
            max_new_tokens: 3,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed: 5,
            deadline_steps: None,
            tenant: None,
        },
    ];
    assert_engine_matches_solo(&model, &requests, 4, "degenerate requests");
    // and the reasons are the expected ones
    let mut engine = BatchedInferenceEngine::new(&model, 4).unwrap();
    for r in &requests {
        engine.submit(r.clone());
    }
    let outcomes = engine.run_to_completion().unwrap();
    let finish = |id: &str| outcomes.iter().find(|o| o.id == id).unwrap().finish.clone();
    assert!(matches!(
        finish("empty-prompt"),
        FinishReason::Rejected { .. }
    ));
    assert!(matches!(finish("bad-token"), FinishReason::Rejected { .. }));
    assert!(matches!(finish("bad-temp"), FinishReason::Rejected { .. }));
    assert_eq!(finish("zero-deadline"), FinishReason::DeadlineExceeded);
    assert_eq!(finish("survivor"), FinishReason::Completed);
}

#[test]
fn generate_decodes_exactly_what_a_served_request_decodes() {
    // `generate` and the engine share one decode walk, so the library
    // call and a served request must agree token for token in every
    // decoding mode under every voting policy shape — as long as the
    // stream fits one window (past it `generate` slides, a request
    // retires).
    let mut rng = TensorRng::seed_from(61);
    let model = EdgeModel::new(ModelConfig::tiny().with_layers(3), &mut rng).unwrap();
    let n = model.n_layers();
    let policies = [
        VotingPolicy::final_only(n),
        VotingPolicy::all_exits(n, VotingCombiner::LastExit),
        VotingPolicy::all_exits(n, VotingCombiner::Average),
        VotingPolicy::all_exits(n, VotingCombiner::ConfidenceWeighted { temperature: 0.8 }),
        VotingPolicy::all_exits(n, VotingCombiner::Learned(vec![1.0, 2.0, 3.0])),
    ];
    let decodings = [
        Decoding::Greedy,
        Decoding::Sample { temperature: 0.9 },
        Decoding::TopK {
            k: 5,
            temperature: 1.2,
        },
        Decoding::SelfSpeculative {
            draft_depth: 0,
            k: 3,
        },
    ];
    let prompt = vec![3usize, 7, 1];
    let n_new = model.config().seq_len - prompt.len();
    for voting in &policies {
        for (i, &decoding) in decodings.iter().enumerate() {
            let req = ServeRequest {
                id: "r".into(),
                prompt: prompt.clone(),
                max_new_tokens: n_new,
                decoding,
                voting: voting.clone(),
                seed: 70 + i as u64,
                deadline_steps: None,
                tenant: None,
            };
            let solo = run_solo(&model, &req).unwrap();
            let mut rng = TensorRng::seed_from(req.seed);
            let direct = generate(&model, voting, &prompt, n_new, decoding, &mut rng);
            let ctx = format!("{decoding:?} under {voting:?}");
            if let FinishReason::Rejected { .. } = solo.finish {
                // speculation verifies the final exit only, on both sides
                assert!(direct.is_err(), "{ctx}");
                continue;
            }
            assert_eq!(solo.finish, FinishReason::Completed, "{ctx}");
            assert_eq!(direct.unwrap()[prompt.len()..], solo.tokens[..], "{ctx}");
        }
    }
    // and through the public function, speculation is greedy from the
    // final exit — past the first window too
    let final_only = &policies[0];
    let long = 2 * model.config().seq_len + 3;
    let mut unused = TensorRng::seed_from(0);
    let greedy = generate(&model, final_only, &prompt, long, decodings[0], &mut unused).unwrap();
    let spec = generate(&model, final_only, &prompt, long, decodings[3], &mut unused).unwrap();
    assert_eq!(greedy, spec);
}
