//! The continuous-batching engine.

use crate::adapter_cache::AdapterCache;
use crate::error::ServeError;
use crate::request::{validate_request, FinishReason, ServeOutcome, ServeRequest};
use crate::shed::ShedCause;
use edge_llm_model::{
    batched_decode_runs, combine, sample_token, spec_round_with_adapter, BatchedRun, Decoding,
    EdgeModel, ModelError, ResolvedAdapter, SequenceKv, TenantAdapter,
};
use edge_llm_telemetry::{self as telemetry, LatencySummary};
use edge_llm_tensor::TensorRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// One generated-token checkpoint captured by the engine when progress
/// capture is enabled: the token a session just accepted and the
/// sampling-rng state *after* drawing it. A router holding the stream of
/// these can replay the session's remaining tokens bit-identically on
/// another engine ([`BatchedInferenceEngine::submit_with_rng`] with the
/// prompt extended by the accepted tokens).
#[derive(Debug, Clone)]
pub struct SessionProgress {
    /// The owning request's id.
    pub id: String,
    /// The token just accepted into the session.
    pub token: usize,
    /// Sampling-rng state after the draw that produced `token`.
    pub rng: TensorRng,
}

/// One in-flight request bound to a batch slot.
#[derive(Debug)]
struct Slot {
    req: ServeRequest,
    kv: SequenceKv,
    rng: TensorRng,
    /// Prompt followed by every token generated so far.
    known: Vec<usize>,
    /// How many of `known` the model has consumed.
    fed: usize,
    generated: usize,
    last_probs: Option<Vec<f32>>,
    /// The tenant adapter acquired at admission. The slot holds its own
    /// `Arc`, so re-registering the tenant mid-stream never changes this
    /// slot's bits — only the *next* admission gets the new version.
    adapter: Option<Arc<ResolvedAdapter>>,
}

/// Serves many requests through shared batched forward passes with
/// continuous batching: queued requests are admitted the moment a slot
/// frees up, mid-flight, rather than waiting for the whole batch to
/// drain.
///
/// Each call to [`BatchedInferenceEngine::step`] runs one shared pass of
/// [`batched_decode_runs`]: a decoding slot feeds its newest token, and a
/// prefilling slot feeds every prompt token but the newest as one no-exit
/// run. Per-request state (KV cache, sampling rng seeded from the request,
/// deadline accounting in fed tokens) is fully isolated, and the pass's
/// rows are independent, so every request's output is bit-identical to the
/// token-at-a-time [`crate::run_solo`] regardless of arrival order, batch
/// size, or thread count.
#[derive(Debug)]
pub struct BatchedInferenceEngine<'a> {
    model: &'a EdgeModel,
    slots: Vec<Option<Slot>>,
    queue: VecDeque<QueuedRequest>,
    finished: Vec<ServeOutcome>,
    /// Retired KV caches kept warm for the next admission (slot reuse).
    spare_kvs: Vec<SequenceKv>,
    steps_run: usize,
    stats: EngineStats,
    /// When set, every accepted token is recorded as a
    /// [`SessionProgress`] for the fleet router's replay log.
    capture_progress: bool,
    progress: Vec<SessionProgress>,
    /// Per-tenant LoRA adapters over the shared frozen base.
    adapters: AdapterCache,
}

/// A request waiting for a slot, with its submission timestamp and an
/// optional sampling-rng override (crash replay resumes a mid-flight
/// rng stream instead of reseeding from the request seed).
#[derive(Debug)]
struct QueuedRequest {
    req: ServeRequest,
    submitted_ns: u64,
    rng_override: Option<TensorRng>,
}

/// Latency samples and eviction tallies accumulated by the engine.
#[derive(Debug, Default)]
struct EngineStats {
    queue_wait_ns: Vec<u64>,
    decode_token_ns: Vec<u64>,
    completed: usize,
    deadline_exceeded: usize,
    capacity_exhausted: usize,
    rejected: usize,
    spec_rounds: usize,
    spec_drafted: usize,
    spec_accepted: usize,
}

/// Serving telemetry summary: where requests ended up and how long they
/// waited. Returned by [`BatchedInferenceEngine::report`]; the `serve`
/// CLI prints it after draining the request file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineReport {
    /// Batched forward passes executed.
    pub steps: usize,
    /// Requests that produced their full token budget.
    pub completed: usize,
    /// Requests evicted by their deadline.
    pub deadline_exceeded: usize,
    /// Requests evicted by KV-capacity exhaustion.
    pub capacity_exhausted: usize,
    /// Requests rejected at validation, never admitted.
    pub rejected: usize,
    /// Submission-to-admission wait per admitted request.
    pub queue_wait: LatencySummary,
    /// Per generated token, the `serve.decode` pass that produced it.
    pub decode_token: LatencySummary,
    /// Self-speculative draft/verify rounds executed.
    pub spec_rounds: usize,
    /// Draft tokens proposed across all speculative rounds.
    pub spec_drafted: usize,
    /// Tokens the verifier accepted across all speculative rounds: each
    /// round's agreeing draft prefix plus its correction/bonus token,
    /// counted before a request's token budget cuts the round (the
    /// `spec.accepted_tokens` counter's count).
    pub spec_accepted: usize,
    /// Admissions that found their tenant's adapter resident.
    pub adapter_hits: u64,
    /// First admissions after their tenant's adapter was (re)registered.
    pub adapter_misses: u64,
    /// Resident adapters dropped by a tenant re-registering.
    pub adapter_evictions_replaced: u64,
    /// `(tenant, resident factor bytes)` per currently-resident adapter,
    /// in tenant order — the only per-tenant weight state in the engine.
    pub adapter_resident_bytes: Vec<(String, usize)>,
}

impl EngineReport {
    /// Fraction of drafted tokens the verifier accepted. Every round
    /// accepts exactly one non-draft token (the verifier's correction or
    /// bonus), so accepted drafts are `spec_accepted - spec_rounds`; a
    /// draft the verifier accepted counts even where the budget cut it.
    /// `None` when no tokens were drafted.
    pub fn spec_acceptance_rate(&self) -> Option<f64> {
        (self.spec_drafted > 0).then(|| {
            self.spec_accepted.saturating_sub(self.spec_rounds) as f64 / self.spec_drafted as f64
        })
    }

    /// Average tokens the verifier accepted per full-depth verify pass,
    /// budget cuts not subtracted. `None` when no speculative round ran.
    pub fn spec_tokens_per_verify_pass(&self) -> Option<f64> {
        (self.spec_rounds > 0).then(|| self.spec_accepted as f64 / self.spec_rounds as f64)
    }
}

impl<'a> BatchedInferenceEngine<'a> {
    /// Creates an engine serving at most `max_batch` requests per forward
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroCapacity`] when `max_batch` is zero and
    /// [`ServeError::Model`] when weight packing fails.
    pub fn new(model: &'a EdgeModel, max_batch: usize) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::ZeroCapacity {
                what: "batch slots",
            });
        }
        // Serving never mutates weights, so the packed codes every
        // quantized layer decodes from are built once, here, and the first
        // step pays no quantization.
        model.pack_frozen_weights()?;
        Ok(BatchedInferenceEngine {
            model,
            slots: (0..max_batch).map(|_| None).collect(),
            queue: VecDeque::new(),
            finished: Vec::new(),
            spare_kvs: Vec::new(),
            steps_run: 0,
            stats: EngineStats::default(),
            capture_progress: false,
            progress: Vec::new(),
            adapters: AdapterCache::default(),
        })
    }

    /// Registers (or replaces) `tenant`'s LoRA adapter, resolving it
    /// against the engine's model once, here, so a misshapen adapter
    /// fails at registration and leaves any earlier version serving.
    /// Requests naming an unregistered tenant are rejected at submission.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] when the adapter does not fit the
    /// model (bad layer, factor shapes, or scale).
    pub fn register_adapter(
        &mut self,
        tenant: &str,
        adapter: TenantAdapter,
    ) -> Result<(), ServeError> {
        self.adapters.register(tenant, adapter.resolve(self.model)?);
        Ok(())
    }

    /// Read access to the adapter cache (tests and reports).
    pub fn adapter_cache(&self) -> &AdapterCache {
        &self.adapters
    }

    /// Enqueues a request (FIFO admission). An invalid request never
    /// reaches the queue: it is reported immediately as a
    /// [`FinishReason::Rejected`] outcome.
    pub fn submit(&mut self, req: ServeRequest) {
        self.submit_inner(req, None);
    }

    /// As [`BatchedInferenceEngine::submit`], but the session's sampling
    /// rng starts from `rng` instead of being seeded from `req.seed`.
    ///
    /// This is the crash-replay admission path: the fleet router rebuilds
    /// a lost session by extending the prompt with the tokens it had
    /// already accepted and resuming the rng stream from the last
    /// [`SessionProgress`] snapshot, which reproduces the remaining
    /// tokens bit-identically.
    pub fn submit_with_rng(&mut self, req: ServeRequest, rng: TensorRng) {
        self.submit_inner(req, Some(rng));
    }

    fn submit_inner(&mut self, req: ServeRequest, rng_override: Option<TensorRng>) {
        // Tenant resolution is part of validation: a request naming a
        // tenant the engine has no adapter for can never decode
        // correctly, so it is rejected up front like a bad prompt.
        let unknown_tenant = req
            .tenant
            .as_deref()
            .filter(|t| !self.adapters.knows(t))
            .map(|t| format!("unknown tenant '{t}': no adapter registered"));
        if let Some(reason) = validate_request(self.model, &req)
            .err()
            .map(|e| e.to_string())
            .or(unknown_tenant)
        {
            self.stats.rejected += 1;
            telemetry::counter(ShedCause::Rejected.counter_name(), 1);
            self.finished.push(ServeOutcome {
                id: req.id,
                tokens: Vec::new(),
                finish: FinishReason::Rejected { reason },
                steps: 0,
                final_probs: None,
            });
            return;
        }
        self.queue.push_back(QueuedRequest {
            req,
            submitted_ns: telemetry::now_ns(),
            rng_override,
        });
    }

    /// Turns per-token progress capture on or off (off by default; the
    /// recording cost is one [`SessionProgress`] clone per generated
    /// token when on).
    pub fn set_progress_capture(&mut self, on: bool) {
        self.capture_progress = on;
        if !on {
            self.progress.clear();
        }
    }

    /// Drains the progress events recorded since the last call.
    pub fn take_progress(&mut self) -> Vec<SessionProgress> {
        std::mem::take(&mut self.progress)
    }

    /// Raw per-token decode latency samples (nanoseconds) accumulated so
    /// far; the fleet aggregates these across workers before
    /// summarizing.
    pub fn decode_token_samples(&self) -> &[u64] {
        &self.stats.decode_token_ns
    }

    /// Requests waiting for a slot.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently bound to a slot.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no queued or active work remains.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active() == 0
    }

    /// Batched forward passes executed so far.
    pub fn steps_run(&self) -> usize {
        self.steps_run
    }

    /// Bytes of decode-path weights resident for this engine's model,
    /// counting packed layers at their integer-code size.
    pub fn weight_resident_bytes(&self) -> usize {
        self.model.decode_weight_bytes()
    }

    /// Finished outcomes accumulated so far, in retirement order.
    pub fn take_finished(&mut self) -> Vec<ServeOutcome> {
        std::mem::take(&mut self.finished)
    }

    /// Retires finished slots, admits queued requests into free slots,
    /// then advances every active request through a single shared forward
    /// pass: a decoding slot by one token, a prefilling slot by its prompt
    /// but the newest token — or fewer, where its cache fills or its
    /// deadline falls inside the prompt, so it retires on the token the
    /// solo reference stops at. A self-speculative slot at its newest
    /// token runs its own draft/verify round instead. Returns `false` once
    /// the engine is idle.
    ///
    /// # Errors
    ///
    /// Propagates internal model failures; request-level problems
    /// (validation, deadline, capacity) are reported per request in
    /// outcomes, never as an `Err`.
    pub fn step(&mut self) -> Result<bool, ModelError> {
        let _span = telemetry::span("serve.step");
        self.retire_and_admit();
        // Split the active slots: a speculative slot at its generation
        // stage runs a private draft/verify round (its pass covers k+1
        // positions of its own sequence); everything else — prefill for
        // every mode, generation for the sampling modes — shares one
        // batched pass. Per-slot state stays fully isolated either way,
        // so the split cannot couple outputs.
        let mut batched: Vec<&mut Slot> = Vec::new();
        let mut speculative: Vec<&mut Slot> = Vec::new();
        for slot in self.slots.iter_mut().filter_map(|s| s.as_mut()) {
            let generating = slot.fed == slot.known.len() - 1;
            match slot.req.decoding {
                Decoding::SelfSpeculative { .. } if generating => speculative.push(slot),
                _ => batched.push(slot),
            }
        }
        if batched.is_empty() && speculative.is_empty() {
            return Ok(false);
        }
        let mut tokens_out = 0u64;
        if !batched.is_empty() {
            let mut runs: Vec<BatchedRun> = Vec::with_capacity(batched.len());
            for slot in batched.iter_mut() {
                let newest = slot.known.len() - 1;
                // A slot feeding its newest token decodes it at the
                // voting exits. Everything before it is prefill: one
                // no-exit run, cut where the solo reference stops feeding
                // it — at a full cache or at the deadline, which counts
                // fed tokens.
                let (tokens, exits): (&[usize], &[usize]) = if slot.fed == newest {
                    (&slot.known[newest..], &slot.req.voting.exits)
                } else {
                    let mut end = newest.min(slot.fed + slot.kv.remaining());
                    if let Some(d) = slot.req.deadline_steps {
                        end = end.min(d);
                    }
                    (&slot.known[slot.fed..end], &[])
                };
                runs.push(BatchedRun {
                    tokens,
                    kv: &mut slot.kv,
                    exits,
                    adapter: slot.adapter.as_deref(),
                });
            }
            let pass = telemetry::timed("serve.decode");
            let logits = batched_decode_runs(self.model, &mut runs)?;
            let pass_ns = pass.end();
            let fed: Vec<usize> = runs.iter().map(|r| r.tokens.len()).collect();
            drop(runs);
            for ((slot, logits), fed) in batched.iter_mut().zip(&logits).zip(fed) {
                if !logits.is_empty() {
                    let probs = combine(logits, &slot.req.voting.combiner)?;
                    let next = sample_token(probs.row(0), slot.req.decoding, &mut slot.rng);
                    slot.last_probs = Some(probs.row(0).to_vec());
                    slot.known.push(next);
                    slot.generated += 1;
                    tokens_out += 1;
                    if self.capture_progress {
                        self.progress.push(SessionProgress {
                            id: slot.req.id.clone(),
                            token: next,
                            rng: slot.rng.clone(),
                        });
                    }
                    // the shared pass is the latency every token in it saw
                    self.stats.decode_token_ns.push(pass_ns);
                }
                slot.fed += fed;
            }
        }
        for slot in speculative.iter_mut() {
            let Decoding::SelfSpeculative { draft_depth, k } = slot.req.decoding else {
                unreachable!("slot classified speculative above");
            };
            let token = slot.known[slot.fed];
            let pass = telemetry::timed("serve.decode");
            let round = spec_round_with_adapter(
                self.model,
                &mut slot.kv,
                token,
                draft_depth,
                k,
                slot.adapter.as_deref(),
            )?;
            let round_ns = pass.end();
            // tokens past the remaining budget are dropped and the cache
            // rolled back with them, exactly like the solo reference
            let keep = round
                .accepted
                .len()
                .min(slot.req.max_new_tokens - slot.generated);
            if keep < round.accepted.len() {
                slot.kv
                    .truncate(slot.kv.len() - (round.accepted.len() - keep));
            }
            for &next in &round.accepted[..keep] {
                slot.known.push(next);
                if self.capture_progress {
                    self.progress.push(SessionProgress {
                        id: slot.req.id.clone(),
                        token: next,
                        rng: slot.rng.clone(),
                    });
                }
                // the round is the latency every token it emitted saw
                self.stats.decode_token_ns.push(round_ns);
            }
            slot.generated += keep;
            slot.last_probs = Some(round.probs[keep - 1].clone());
            slot.fed += keep;
            tokens_out += keep as u64;
            self.stats.spec_rounds += 1;
            self.stats.spec_drafted += round.drafted;
            self.stats.spec_accepted += round.accepted.len();
        }
        telemetry::counter("serve.decode_tokens", tokens_out);
        self.steps_run += 1;
        Ok(true)
    }

    /// Serving telemetry accumulated so far: eviction causes and
    /// queue-wait / per-token decode latency percentiles.
    pub fn report(&self) -> EngineReport {
        EngineReport {
            steps: self.steps_run,
            completed: self.stats.completed,
            deadline_exceeded: self.stats.deadline_exceeded,
            capacity_exhausted: self.stats.capacity_exhausted,
            rejected: self.stats.rejected,
            queue_wait: LatencySummary::from_ns(self.stats.queue_wait_ns.clone()),
            decode_token: LatencySummary::from_ns(self.stats.decode_token_ns.clone()),
            spec_rounds: self.stats.spec_rounds,
            spec_drafted: self.stats.spec_drafted,
            spec_accepted: self.stats.spec_accepted,
            adapter_hits: self.adapters.hits(),
            adapter_misses: self.adapters.misses(),
            adapter_evictions_replaced: self.adapters.evictions_replaced(),
            adapter_resident_bytes: self.adapters.resident_by_tenant(),
        }
    }

    /// Steps until idle and returns every accumulated outcome.
    ///
    /// # Errors
    ///
    /// As [`BatchedInferenceEngine::step`].
    pub fn run_to_completion(&mut self) -> Result<Vec<ServeOutcome>, ModelError> {
        while self.step()? {}
        Ok(self.take_finished())
    }

    fn retire_and_admit(&mut self) {
        // An admitted request may already satisfy a finish condition
        // (zero token budget, zero deadline), in which case the solo
        // reference retires it before any forward pass — so re-run the
        // retire check over fresh admissions until the batch is stable.
        loop {
            self.retire_finished();
            if !self.admit_queued() {
                return;
            }
        }
    }

    fn retire_finished(&mut self) {
        // Finish checks in the same order as the solo reference:
        // completed, then deadline, then capacity.
        for slot_opt in self.slots.iter_mut() {
            let finish = match slot_opt {
                Some(slot) => {
                    if slot.generated == slot.req.max_new_tokens {
                        Some(FinishReason::Completed)
                    } else if slot.req.deadline_steps.is_some_and(|d| slot.fed >= d) {
                        Some(FinishReason::DeadlineExceeded)
                    } else if slot.kv.remaining() == 0 {
                        Some(FinishReason::CapacityExhausted)
                    } else {
                        None
                    }
                }
                None => None,
            };
            if let Some(finish) = finish {
                match finish {
                    FinishReason::Completed => self.stats.completed += 1,
                    FinishReason::DeadlineExceeded => self.stats.deadline_exceeded += 1,
                    FinishReason::CapacityExhausted => self.stats.capacity_exhausted += 1,
                    FinishReason::Rejected { .. } => {}
                }
                telemetry::counter(ShedCause::from(&finish).counter_name(), 1);
                // Invariant: `finish` is `Some` only for a live slot.
                #[allow(clippy::expect_used)]
                let slot = slot_opt.take().expect("finish computed from a live slot");
                self.finished.push(ServeOutcome {
                    id: slot.req.id.clone(),
                    tokens: slot.known[slot.req.prompt.len()..].to_vec(),
                    finish,
                    steps: slot.fed,
                    final_probs: slot.last_probs,
                });
                let mut kv = slot.kv;
                kv.reset();
                self.spare_kvs.push(kv);
            }
        }
    }

    /// Fills free slots from the queue (FIFO); reports whether anything
    /// was admitted.
    fn admit_queued(&mut self) -> bool {
        let mut admitted = false;
        for slot_opt in self.slots.iter_mut() {
            if slot_opt.is_none() {
                let Some(QueuedRequest {
                    req,
                    submitted_ns,
                    rng_override,
                }) = self.queue.pop_front()
                else {
                    break;
                };
                admitted = true;
                self.stats
                    .queue_wait_ns
                    .push(telemetry::now_ns().saturating_sub(submitted_ns));
                telemetry::counter("serve.admitted", 1);
                let kv = self
                    .spare_kvs
                    .pop()
                    .unwrap_or_else(|| SequenceKv::new(self.model));
                let rng = rng_override.unwrap_or_else(|| TensorRng::seed_from(req.seed));
                let known = req.prompt.clone();
                let adapter = req.tenant.as_deref().and_then(|t| self.adapters.acquire(t));
                *slot_opt = Some(Slot {
                    req,
                    kv,
                    rng,
                    known,
                    fed: 0,
                    generated: 0,
                    last_probs: None,
                    adapter,
                });
            }
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solo::{run_solo, run_solo_with_adapter};
    use edge_llm_model::{Decoding, ModelConfig, VotingCombiner, VotingPolicy};

    fn model() -> EdgeModel {
        let mut rng = TensorRng::seed_from(0);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    fn request(model: &EdgeModel, id: &str, seed: u64) -> ServeRequest {
        ServeRequest {
            id: id.into(),
            prompt: vec![1, 2, 3],
            max_new_tokens: 3,
            decoding: Decoding::Greedy,
            voting: VotingPolicy::final_only(model.n_layers()),
            seed,
            deadline_steps: None,
            tenant: None,
        }
    }

    fn assert_outcome_bit_equal(a: &ServeOutcome, b: &ServeOutcome) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tokens, b.tokens, "{}: tokens", a.id);
        assert_eq!(a.finish, b.finish, "{}: finish", a.id);
        assert_eq!(a.steps, b.steps, "{}: steps", a.id);
        let bits = |p: &Option<Vec<f32>>| {
            p.as_ref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
        };
        assert_eq!(
            bits(&a.final_probs),
            bits(&b.final_probs),
            "{}: probs",
            a.id
        );
    }

    #[test]
    fn batched_outcomes_match_solo_bitwise() {
        let m = model();
        let mut engine = BatchedInferenceEngine::new(&m, 3).unwrap();
        let requests: Vec<ServeRequest> = vec![
            request(&m, "a", 1),
            {
                let mut r = request(&m, "b", 2);
                r.prompt = vec![5, 6];
                r.decoding = Decoding::Sample { temperature: 0.8 };
                r
            },
            {
                let mut r = request(&m, "c", 3);
                r.voting = VotingPolicy::all_exits(m.n_layers(), VotingCombiner::Average);
                r.decoding = Decoding::TopK {
                    k: 4,
                    temperature: 1.3,
                };
                r
            },
            {
                let mut r = request(&m, "d", 4);
                r.deadline_steps = Some(4);
                r.max_new_tokens = 6;
                r
            },
        ];
        for r in &requests {
            engine.submit(r.clone());
        }
        let outcomes = engine.run_to_completion().unwrap();
        assert_eq!(outcomes.len(), requests.len());
        for req in &requests {
            let solo = run_solo(&m, req).unwrap();
            let batched = outcomes.iter().find(|o| o.id == req.id).unwrap();
            assert_outcome_bit_equal(batched, &solo);
        }
    }

    #[test]
    fn continuous_admission_fills_freed_slots() {
        let m = model();
        // batch of 1 forces strictly sequential admission through one slot
        let mut engine = BatchedInferenceEngine::new(&m, 1).unwrap();
        for i in 0..3 {
            engine.submit(request(&m, &format!("q{i}"), i as u64));
        }
        assert_eq!(engine.pending(), 3);
        let outcomes = engine.run_to_completion().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(engine.is_idle());
        assert!(outcomes.iter().all(|o| o.finish == FinishReason::Completed));
        // FIFO: single-slot serving must retire in submission order
        let ids: Vec<&str> = outcomes.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, ["q0", "q1", "q2"]);
    }

    #[test]
    fn rejected_requests_never_occupy_a_slot() {
        let m = model();
        let mut engine = BatchedInferenceEngine::new(&m, 2).unwrap();
        let mut bad = request(&m, "bad", 0);
        bad.prompt = vec![99_999];
        engine.submit(bad);
        engine.submit(request(&m, "good", 1));
        let outcomes = engine.run_to_completion().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(
            outcomes.iter().find(|o| o.id == "bad").unwrap().finish,
            FinishReason::Rejected { .. }
        ));
        assert_eq!(
            outcomes.iter().find(|o| o.id == "good").unwrap().finish,
            FinishReason::Completed
        );
    }

    #[test]
    fn nan_temperature_is_rejected_without_disturbing_its_batch_mate() {
        // `temp=nan` parses to an f32 NaN; admitted, its first draw would
        // panic the rng and take the whole batch down with it
        let m = model();
        let mut engine = BatchedInferenceEngine::new(&m, 2).unwrap();
        let mut bad = request(&m, "bad", 0);
        bad.decoding = Decoding::Sample {
            temperature: "nan".parse().unwrap(),
        };
        let mut good = request(&m, "good", 1);
        good.decoding = Decoding::Sample { temperature: 0.8 };
        engine.submit(bad);
        engine.submit(good.clone());
        let outcomes = engine.run_to_completion().unwrap();
        assert!(matches!(
            outcomes.iter().find(|o| o.id == "bad").unwrap().finish,
            FinishReason::Rejected { .. }
        ));
        let solo = run_solo(&m, &good).unwrap();
        assert_outcome_bit_equal(outcomes.iter().find(|o| o.id == "good").unwrap(), &solo);
    }

    #[test]
    fn zero_batch_rejected() {
        let m = model();
        assert!(BatchedInferenceEngine::new(&m, 0).is_err());
    }

    #[test]
    fn slot_reuse_recycles_kv_caches() {
        let m = model();
        let mut engine = BatchedInferenceEngine::new(&m, 1).unwrap();
        engine.submit(request(&m, "first", 1));
        engine.run_to_completion().unwrap();
        assert_eq!(engine.spare_kvs.len(), 1);
        engine.submit(request(&m, "second", 2));
        engine.run_to_completion().unwrap();
        assert_eq!(engine.spare_kvs.len(), 1, "cache is recycled, not leaked");
    }

    #[test]
    fn speculative_outcomes_match_solo_bitwise() {
        let mut rng = TensorRng::seed_from(9);
        let m = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
        let mut engine = BatchedInferenceEngine::new(&m, 3).unwrap();
        let mut requests = Vec::new();
        for (i, (depth, k)) in [(1usize, 2usize), (2, 4), (3, 1)].iter().enumerate() {
            let mut r = request(&m, &format!("spec{i}"), i as u64);
            r.decoding = Decoding::SelfSpeculative {
                draft_depth: *depth,
                k: *k,
            };
            r.max_new_tokens = 4;
            requests.push(r);
        }
        // a greedy batch-mate shares the engine with the speculative slots
        requests.push(request(&m, "greedy", 7));
        for r in &requests {
            engine.submit(r.clone());
        }
        let outcomes = engine.run_to_completion().unwrap();
        for req in &requests {
            let solo = run_solo(&m, req).unwrap();
            let batched = outcomes.iter().find(|o| o.id == req.id).unwrap();
            assert_outcome_bit_equal(batched, &solo);
        }
        let report = engine.report();
        assert!(report.spec_rounds > 0);
        assert!(report.spec_accepted >= report.spec_rounds);
        assert!(report.spec_tokens_per_verify_pass().unwrap() >= 1.0);
    }

    #[test]
    fn speculative_stream_equals_greedy_stream() {
        let mut rng = TensorRng::seed_from(10);
        let m = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
        let mut greedy = request(&m, "r", 1);
        greedy.max_new_tokens = 4;
        let mut spec = greedy.clone();
        spec.decoding = Decoding::SelfSpeculative {
            draft_depth: 1,
            k: 4,
        };
        let a = run_solo(&m, &greedy).unwrap();
        let b = run_solo(&m, &spec).unwrap();
        assert_eq!(a.tokens, b.tokens, "speculation must not change a token");
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn speculative_request_needs_final_exit_voting() {
        let mut rng = TensorRng::seed_from(11);
        let m = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
        let mut r = request(&m, "bad", 0);
        r.decoding = Decoding::SelfSpeculative {
            draft_depth: 1,
            k: 2,
        };
        r.voting = VotingPolicy::all_exits(m.n_layers(), VotingCombiner::Average);
        let mut engine = BatchedInferenceEngine::new(&m, 1).unwrap();
        engine.submit(r.clone());
        let outcomes = engine.run_to_completion().unwrap();
        assert!(matches!(outcomes[0].finish, FinishReason::Rejected { .. }));
        // bad draft parameters are rejected the same way
        let mut r2 = request(&m, "bad2", 0);
        r2.decoding = Decoding::SelfSpeculative {
            draft_depth: 99,
            k: 2,
        };
        engine.submit(r2);
        let outcomes = engine.run_to_completion().unwrap();
        assert!(matches!(outcomes[0].finish, FinishReason::Rejected { .. }));
    }

    /// [`BatchedInferenceEngine::run_to_completion`] within 64 passes, so
    /// an engine that stops making progress fails rather than hangs.
    fn drain(engine: &mut BatchedInferenceEngine<'_>) -> Vec<ServeOutcome> {
        while engine.step().unwrap() {
            assert!(
                engine.steps_run() <= 64,
                "the engine stopped making progress"
            );
        }
        engine.take_finished()
    }

    /// Serves `requests` through an engine of `batch` slots (all submitted
    /// up front), holds each outcome bit-equal to `run_solo`, and returns
    /// the engine's pass count.
    fn passes_matching_solo(m: &EdgeModel, batch: usize, requests: &[ServeRequest]) -> usize {
        let mut engine = BatchedInferenceEngine::new(m, batch).unwrap();
        for r in requests {
            engine.submit(r.clone());
        }
        let outcomes = drain(&mut engine);
        assert_eq!(outcomes.len(), requests.len());
        for req in requests {
            let solo = run_solo(m, req).unwrap();
            assert_outcome_bit_equal(outcomes.iter().find(|o| o.id == req.id).unwrap(), &solo);
        }
        engine.steps_run()
    }

    #[test]
    fn steps_counter_tracks_forward_passes() {
        let m = model();
        // each request prefills its first 2 prompt tokens in one pass,
        // then feeds the third and its 2 kept generated tokens one pass
        // each, producing 3 tokens; the two run concurrently
        let requests = [request(&m, "a", 1), request(&m, "b", 2)];
        assert_eq!(passes_matching_solo(&m, 2, &requests), 4);
    }

    #[test]
    fn a_deadline_inside_the_prompt_ends_the_prefill_run_where_solo_stops() {
        let m = model();
        let mut cut = request(&m, "cut", 1);
        cut.prompt = vec![1, 2, 3, 4, 5, 6];
        cut.deadline_steps = Some(4);
        // its batch-mate decodes from the first pass
        let mut mate = request(&m, "mate", 2);
        mate.prompt = vec![7];
        let solo = run_solo(&m, &cut).unwrap();
        assert_eq!(solo.finish, FinishReason::DeadlineExceeded);
        assert_eq!(solo.steps, 4);
        // one 4-token prefill pass retires "cut"; "mate" takes 3 passes
        assert_eq!(passes_matching_solo(&m, 2, &[cut.clone()]), 1);
        assert_eq!(passes_matching_solo(&m, 2, &[cut, mate]), 3);
    }

    #[test]
    fn a_cache_filling_inside_the_prompt_ends_the_prefill_run_where_solo_stops() {
        let m = model();
        let seq = m.config().seq_len;
        let mut long = request(&m, "long", 1);
        long.prompt = (0..seq + 3).map(|t| t % m.config().vocab_size).collect();
        let solo = run_solo(&m, &long).unwrap();
        assert_eq!(solo.finish, FinishReason::CapacityExhausted);
        assert_eq!(solo.steps, seq);
        assert_eq!(passes_matching_solo(&m, 1, &[long.clone()]), 1);
        // a deadline past the cache still ends it on capacity, one before
        // it on the deadline
        long.deadline_steps = Some(seq + 1);
        assert_eq!(passes_matching_solo(&m, 1, &[long.clone()]), 1);
        long.deadline_steps = Some(seq - 1);
        assert_eq!(passes_matching_solo(&m, 1, &[long]), 1);
    }

    #[test]
    fn a_one_token_prompt_makes_no_prefill_run() {
        let m = model();
        let mut r = request(&m, "one", 1);
        r.prompt = vec![4];
        // one pass per generated token and none before
        assert_eq!(passes_matching_solo(&m, 1, &[r]), 3);
    }

    #[test]
    fn speculative_and_adapter_slots_prefill_beside_decoding_slots() {
        use edge_llm_model::AdapterTarget;
        let mut rng = TensorRng::seed_from(12);
        let m = EdgeModel::new(ModelConfig::tiny().with_layers(4), &mut rng).unwrap();
        let adapter = TenantAdapter::seeded(m.config(), 3, 2, &[(1, AdapterTarget::Fc1)]);
        let resolved = Arc::new(adapter.resolve(&m).unwrap());
        // one-token prompts decode from the first pass, beside the
        // speculative and tenant slots' prefill runs
        let mut decoding = request(&m, "decoding", 1);
        decoding.prompt = vec![9];
        decoding.max_new_tokens = 5;
        let mut sampled = request(&m, "sampled", 2);
        sampled.prompt = vec![8];
        sampled.decoding = Decoding::Sample { temperature: 0.9 };
        let mut spec = request(&m, "spec", 3);
        spec.prompt = vec![1, 2, 3, 4, 5];
        spec.decoding = Decoding::SelfSpeculative {
            draft_depth: 1,
            k: 2,
        };
        spec.max_new_tokens = 4;
        let mut tenant = request(&m, "tenant", 4);
        tenant.prompt = vec![6, 5, 4, 3];
        tenant.tenant = Some("acme".into());
        let requests = [decoding, sampled, spec, tenant];

        let mut engine = BatchedInferenceEngine::new(&m, 4).unwrap();
        engine.register_adapter("acme", adapter).unwrap();
        for r in &requests {
            engine.submit(r.clone());
        }
        let outcomes = drain(&mut engine);
        for req in &requests {
            let ad = req.tenant.as_ref().map(|_| Arc::clone(&resolved));
            let solo = run_solo_with_adapter(&m, req, ad).unwrap();
            assert_outcome_bit_equal(outcomes.iter().find(|o| o.id == req.id).unwrap(), &solo);
        }
        // "decoding" takes 5 passes, "tenant" a prefill pass and 3, and
        // "spec" a prefill pass and one per round
        let report = engine.report();
        assert!(report.spec_rounds > 0);
        assert_eq!(engine.steps_run(), 5.max(1 + report.spec_rounds));
    }

    #[test]
    fn a_request_admitted_mid_flight_prefills_beside_decoding_slots() {
        let m = model();
        let mut engine = BatchedInferenceEngine::new(&m, 3).unwrap();
        let early = [request(&m, "a", 1), request(&m, "b", 2)];
        for r in &early {
            engine.submit(r.clone());
        }
        for _ in 0..2 {
            engine.step().unwrap();
        }
        let mut late = request(&m, "late", 3);
        late.prompt = vec![3, 1, 4, 1, 5];
        late.max_new_tokens = 4;
        engine.submit(late.clone());
        let outcomes = drain(&mut engine);
        for req in early.iter().chain([&late]) {
            let solo = run_solo(&m, req).unwrap();
            assert_outcome_bit_equal(outcomes.iter().find(|o| o.id == req.id).unwrap(), &solo);
        }
        // "late" joins at the third pass: one prefill pass, then 4
        assert_eq!(engine.steps_run(), 2 + 1 + 4);
    }

    #[test]
    fn prefill_runs_beside_decoding_runs_match_solo_at_every_logit() {
        // A pass's last block computes only the decoding runs' rows past
        // its K/V write. A request's K/V rows are read by every later
        // logit of its stream, and copies of one request cut after 1..=4
        // tokens end on each of its logits: all of them equal `run_solo`'s.
        // The lone request's first pass is a pass of one prefill run only.
        // (`batched::tests` holds the K/V rows themselves, on every
        // projection route.)
        let model = EdgeModel::new(
            ModelConfig::tiny().with_layers(3),
            &mut TensorRng::seed_from(5),
        )
        .unwrap();
        let m = &model;
        let mut lone = request(m, "lone", 1);
        lone.prompt = vec![2, 7, 1, 8];
        lone.max_new_tokens = 6;
        let cut: Vec<ServeRequest> = (1..=4)
            .map(|n| {
                let mut r = request(m, &format!("cut{n}"), 2);
                r.prompt = vec![3, 1, 4, 1, 5];
                r.voting = VotingPolicy::all_exits(m.n_layers(), VotingCombiner::Average);
                r.max_new_tokens = n;
                r
            })
            .collect();
        let mut engine = BatchedInferenceEngine::new(m, 5).unwrap();
        engine.submit(lone.clone());
        // a prefill-only pass, then a decoding pass
        for _ in 0..2 {
            engine.step().unwrap();
        }
        for r in &cut {
            engine.submit(r.clone());
        }
        let outcomes = drain(&mut engine);
        for req in cut.iter().chain([&lone]) {
            let solo = run_solo(m, req).unwrap();
            let got = outcomes.iter().find(|o| o.id == req.id).unwrap();
            assert_outcome_bit_equal(got, &solo);
        }
        // the cut copies join at the third pass: one prefill pass,
        // then up to 4
        assert_eq!(engine.steps_run(), 2 + 1 + 4);
    }

    #[test]
    fn a_misfit_adapter_is_refused_at_registration_and_the_old_one_keeps_serving() {
        use edge_llm_model::AdapterTarget;
        let m = model();
        let sites = [(0, AdapterTarget::Proj)];
        let fitting = TenantAdapter::seeded(m.config(), 1, 1, &sites);
        let wider = ModelConfig::tiny().with_d_model(32, 4);
        let misfit = TenantAdapter::seeded(&wider, 1, 1, &sites);
        let mut tenant = request(&m, "tenant", 5);
        tenant.tenant = Some("acme".into());

        let mut engine = BatchedInferenceEngine::new(&m, 2).unwrap();
        engine.register_adapter("acme", fitting.clone()).unwrap();
        engine.submit(tenant.clone());
        let first = drain(&mut engine);
        assert!(matches!(
            engine.register_adapter("acme", misfit.clone()),
            Err(ServeError::Model(_))
        ));
        assert!(matches!(
            engine.register_adapter("newcomer", misfit),
            Err(ServeError::Model(_))
        ));
        engine.submit(tenant.clone());
        let second = drain(&mut engine);

        let solo = run_solo_with_adapter(&m, &tenant, Some(Arc::new(fitting.resolve(&m).unwrap())))
            .unwrap();
        assert_outcome_bit_equal(&first[0], &solo);
        assert_outcome_bit_equal(&second[0], &solo);
        let cache = engine.adapter_cache();
        assert!(!cache.knows("newcomer"));
        // the refused version replaced nothing, so the second admission hits
        assert_eq!(cache.evictions_replaced(), 0);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }
}
