//! Differential proof of the multi-tenant serving invariant: in a
//! mixed-tenant batch, every tenant's token stream — and the combined
//! distribution behind its final token — is **bit-identical** to running
//! that request alone through a single-sequence session with the
//! tenant's adapter attached (`run_solo_with_adapter`, the
//! solo-with-merged-adapter oracle). The shared base projections stay
//! one multi-row matmul; the engine applies each slot's low-rank delta
//! to that slot's rows only, so who shares the batch never leaks into
//! anyone's output.
//!
//! The invariant must hold for any batch size, any kernel thread count,
//! dense and packed (W4/W2) bases, greedy and self-speculative slots,
//! and across adapter re-registration mid-stream.

use edge_llm::compress::apply_policy;
use edge_llm_luc::{CompressionPolicy, LayerPolicy};
use edge_llm_model::{
    AdapterTarget, Decoding, EdgeModel, ModelConfig, TenantAdapter, VotingCombiner, VotingPolicy,
};
use edge_llm_quant::BitWidth;
use edge_llm_serve::{
    run_solo_with_adapter, BatchedInferenceEngine, FinishReason, ServeOutcome, ServeRequest,
};
use edge_llm_tensor::check::{run_cases, Gen};
use edge_llm_tensor::{configured_threads, set_configured_threads, TensorRng};
use std::sync::{Arc, Mutex};

/// Serializes tests that touch the process-wide thread setting.
static KNOB: Mutex<()> = Mutex::new(());

fn tiny_model(seed: u64) -> EdgeModel {
    // 4 layers so speculative slots have shallow and mid draft exits
    let mut rng = TensorRng::seed_from(seed);
    EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap()
}

/// The same model compressed layer-wise and served off packed codes.
fn packed_model(seed: u64, bits: BitWidth) -> EdgeModel {
    let mut model = tiny_model(seed);
    let policy = CompressionPolicy::from_layers(vec![
        LayerPolicy {
            bits,
            prune_ratio: 0.25,
        };
        model.n_layers()
    ]);
    apply_policy(&mut model, &policy).unwrap();
    model
}

/// Draws a random adapter valid for `model`: 1–3 distinct sites, rank
/// 1–2, seeded factors.
fn random_adapter(g: &mut Gen, model: &EdgeModel) -> TenantAdapter {
    let cfg = model.config();
    let mut sites: Vec<(usize, AdapterTarget)> = Vec::new();
    for _ in 0..g.usize_in(1, 4) {
        let site = (
            g.usize_in(0, cfg.n_layers),
            AdapterTarget::ALL[g.usize_in(0, AdapterTarget::ALL.len())],
        );
        if !sites.contains(&site) {
            sites.push(site);
        }
    }
    TenantAdapter::seeded(cfg, g.u64(), g.usize_in(1, 3), &sites)
}

/// Draws one random request, assigned to one of `tenants` or the base.
fn random_request(g: &mut Gen, model: &EdgeModel, id: usize, tenants: &[String]) -> ServeRequest {
    let cfg = model.config();
    let n_layers = model.n_layers();
    let prompt_len = g.usize_in(1, cfg.seq_len);
    let prompt: Vec<usize> = (0..prompt_len)
        .map(|_| g.usize_in(0, cfg.vocab_size))
        .collect();
    let decoding = match g.usize_in(0, 4) {
        0 | 1 => Decoding::Greedy,
        2 => Decoding::Sample {
            temperature: g.f32_in(0.3, 2.0),
        },
        _ => Decoding::SelfSpeculative {
            draft_depth: g.usize_in(1, n_layers),
            k: g.usize_in(1, 5),
        },
    };
    let voting = if matches!(decoding, Decoding::SelfSpeculative { .. }) {
        VotingPolicy::final_only(n_layers)
    } else {
        match g.usize_in(0, 3) {
            0 => VotingPolicy::final_only(n_layers),
            1 => VotingPolicy::all_exits(n_layers, VotingCombiner::Average),
            _ => VotingPolicy::all_exits(
                n_layers,
                VotingCombiner::ConfidenceWeighted { temperature: 1.0 },
            ),
        }
    };
    // base slots mix in so adapted and unadapted rows share batches
    let tenant =
        (!tenants.is_empty() && g.bool()).then(|| tenants[g.usize_in(0, tenants.len())].clone());
    ServeRequest {
        id: format!("r{id}"),
        prompt,
        max_new_tokens: g.usize_in(0, cfg.seq_len),
        decoding,
        voting,
        seed: g.u64(),
        deadline_steps: if g.bool() {
            Some(g.usize_in(1, 2 * cfg.seq_len))
        } else {
            None
        },
        tenant,
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

/// Runs `req` alone with its tenant's adapter attached — the oracle
/// every mixed-tenant engine outcome must reproduce bitwise.
fn solo_reference(
    model: &EdgeModel,
    adapters: &[(String, TenantAdapter)],
    req: &ServeRequest,
) -> ServeOutcome {
    let adapter = req.tenant.as_deref().map(|t| {
        let (_, a) = adapters
            .iter()
            .find(|(name, _)| name == t)
            .expect("test requests only name registered tenants");
        Arc::new(a.resolve(model).unwrap())
    });
    run_solo_with_adapter(model, req, adapter).unwrap()
}

/// Serves the mix at `batch` slots with all `adapters` registered and
/// compares every outcome against its solo-with-adapter reference,
/// bitwise.
fn assert_engine_matches_solo(
    model: &EdgeModel,
    adapters: &[(String, TenantAdapter)],
    requests: &[ServeRequest],
    batch: usize,
    ctx: &str,
) {
    let mut engine = BatchedInferenceEngine::new(model, batch).unwrap();
    for (tenant, adapter) in adapters {
        engine.register_adapter(tenant, adapter.clone()).unwrap();
    }
    for r in requests {
        engine.submit(r.clone());
    }
    let outcomes = engine.run_to_completion().unwrap();
    assert_eq!(outcomes.len(), requests.len(), "{ctx}: outcome count");
    for req in requests {
        let solo = solo_reference(model, adapters, req);
        let batched = outcomes
            .iter()
            .find(|o| o.id == req.id)
            .unwrap_or_else(|| panic!("{ctx}: no outcome for {}", req.id));
        assert_outcome_bit_equal(batched, &solo, ctx);
    }
}

#[test]
fn randomized_mixed_tenant_batches_match_solo_across_batch_sizes_and_threads() {
    let _guard = KNOB.lock().unwrap();
    let saved = configured_threads();
    let model = tiny_model(31);
    run_cases("tenant_equivalence_mix", 10, |g| {
        let n_tenants = g.usize_in(1, 4);
        let adapters: Vec<(String, TenantAdapter)> = (0..n_tenants)
            .map(|t| (format!("tenant-{t}"), random_adapter(g, &model)))
            .collect();
        let tenant_names: Vec<String> = adapters.iter().map(|(n, _)| n.clone()).collect();
        let n_requests = g.usize_in(1, 9);
        let requests: Vec<ServeRequest> = (0..n_requests)
            .map(|i| random_request(g, &model, i, &tenant_names))
            .collect();
        let batch = *g.choose(&[1usize, 2, 4, 8]);
        let threads = *g.choose(&[1usize, 2, 4]);
        set_configured_threads(threads);
        assert_engine_matches_solo(
            &model,
            &adapters,
            &requests,
            batch,
            &format!("batch {batch} threads {threads}"),
        );
    });
    set_configured_threads(saved);
}

#[test]
fn packed_w4_and_w2_bases_serve_tenants_bit_identically() {
    // the per-slot delta rides on top of the packed shared matmul — the
    // oracle must hold when the frozen base decodes off integer codes
    for (bi, bits) in [BitWidth::W4, BitWidth::W2].into_iter().enumerate() {
        let model = packed_model(32, bits);
        run_cases(&format!("tenant_equivalence_packed_{bi}"), 4, |g| {
            let adapters: Vec<(String, TenantAdapter)> = (0..2)
                .map(|t| (format!("tenant-{t}"), random_adapter(g, &model)))
                .collect();
            let names: Vec<String> = adapters.iter().map(|(n, _)| n.clone()).collect();
            let requests: Vec<ServeRequest> = (0..5)
                .map(|i| random_request(g, &model, i, &names))
                .collect();
            let batch = *g.choose(&[2usize, 4]);
            assert_engine_matches_solo(
                &model,
                &adapters,
                &requests,
                batch,
                &format!("packed {bits:?}"),
            );
        });
    }
}

#[test]
fn re_registering_an_adapter_mid_stream_keeps_streams_bit_identical() {
    let model = tiny_model(34);
    let cfg = model.config();
    let sites = [(0, AdapterTarget::Qkv), (2, AdapterTarget::Fc1)];
    let old = vec![(
        "acme".to_string(),
        TenantAdapter::seeded(cfg, 91, 2, &sites),
    )];
    let new = vec![(
        "acme".to_string(),
        TenantAdapter::seeded(cfg, 92, 2, &sites),
    )];
    let request = |id: &str, seed: u64| ServeRequest {
        id: id.into(),
        prompt: vec![1, 2, 3],
        max_new_tokens: 6,
        decoding: Decoding::Greedy,
        voting: VotingPolicy::final_only(model.n_layers()),
        seed,
        deadline_steps: None,
        tenant: Some("acme".to_string()),
    };
    let mut engine = BatchedInferenceEngine::new(&model, 2).unwrap();
    engine.register_adapter("acme", old[0].1.clone()).unwrap();
    engine.submit(request("before", 1));
    // step partway so "before" is mid-stream when the new version lands
    for _ in 0..3 {
        engine.step().unwrap();
    }
    engine.register_adapter("acme", new[0].1.clone()).unwrap();
    engine.submit(request("after", 2));
    let mut outcomes = engine.take_finished();
    outcomes.extend(engine.run_to_completion().unwrap());
    assert_eq!(
        engine.adapter_cache().evictions_replaced(),
        1,
        "re-registration drops the resident copy"
    );
    assert_eq!(
        engine.adapter_cache().misses(),
        2,
        "the first admission of the new version is a miss"
    );
    // the slot admitted before the swap finishes on the version it
    // acquired; the one admitted after decodes with the new one
    for (req, adapters) in [(request("before", 1), &old), (request("after", 2), &new)] {
        let solo = solo_reference(&model, adapters, &req);
        let batched = outcomes
            .iter()
            .find(|o| o.id == req.id)
            .unwrap_or_else(|| panic!("no outcome for {}", req.id));
        assert_outcome_bit_equal(batched, &solo, "adapter reload");
    }
    let before = request("before", 1);
    assert_ne!(
        solo_reference(&model, &old, &before).final_probs,
        solo_reference(&model, &new, &before).final_probs,
        "the two versions must decode differently for the swap to show"
    );
}

#[test]
fn unknown_tenants_are_rejected_and_batchmates_unaffected() {
    let model = tiny_model(35);
    let adapters = vec![(
        "known".to_string(),
        TenantAdapter::seeded(model.config(), 5, 1, &[(1, AdapterTarget::Proj)]),
    )];
    let mk = |id: &str, tenant: Option<&str>| ServeRequest {
        id: id.into(),
        prompt: vec![4, 5],
        max_new_tokens: 4,
        decoding: Decoding::Greedy,
        voting: VotingPolicy::final_only(model.n_layers()),
        seed: 3,
        deadline_steps: None,
        tenant: tenant.map(str::to_string),
    };
    let mut engine = BatchedInferenceEngine::new(&model, 4).unwrap();
    for (tenant, adapter) in &adapters {
        engine.register_adapter(tenant, adapter.clone()).unwrap();
    }
    for r in [
        mk("ok", Some("known")),
        mk("ghost", Some("nobody")),
        mk("base", None),
    ] {
        engine.submit(r);
    }
    let outcomes = engine.run_to_completion().unwrap();
    let outcome = |id: &str| outcomes.iter().find(|o| o.id == id).unwrap();
    match &outcome("ghost").finish {
        FinishReason::Rejected { reason } => {
            assert!(
                reason.contains("nobody"),
                "reason names the tenant: {reason}"
            );
        }
        other => panic!("unknown tenant served: {other:?}"),
    }
    for req in [mk("ok", Some("known")), mk("base", None)] {
        let solo = solo_reference(&model, &adapters, &req);
        assert_outcome_bit_equal(outcome(&req.id), &solo, "unknown-tenant mix");
    }
    // the rejection never touched the cache
    assert_eq!(engine.adapter_cache().misses(), 1);
}
