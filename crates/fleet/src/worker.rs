//! One fleet worker: a [`BatchedInferenceEngine`] the router owns and
//! drives through plain `&mut` calls.
//!
//! The worker owns no scheduling policy at all — it submits what it is
//! told, steps when it is told, and reports exactly what happened. Every
//! control-plane decision (placement, shedding, crash replay) lives in
//! the router, which is what makes an N-worker fleet deterministic:
//! workers run concurrently only inside step 5 of a single tick.

use edge_llm_model::{EdgeModel, TenantAdapter};
use edge_llm_serve::{
    BatchedInferenceEngine, ServeError, ServeOutcome, ServeRequest, SessionProgress,
};
use edge_llm_tensor::TensorRng;

/// Everything one step produced, handed back to the router.
pub(crate) struct StepReply {
    /// Sessions retired during this step, in retirement order.
    pub finished: Vec<ServeOutcome>,
    /// Per-token progress records (token + rng snapshot) for the
    /// router's replay log.
    pub progress: Vec<SessionProgress>,
    /// Decode-latency samples (ns) added during this step.
    pub decode_ns: Vec<u64>,
}

pub(crate) struct Worker<'m> {
    engine: BatchedInferenceEngine<'m>,
    /// Decode samples already handed to the router; each reply carries
    /// only the suffix the engine accumulated since.
    decode_taken: usize,
}

impl<'m> Worker<'m> {
    /// Builds a worker engine with every fleet tenant's adapter
    /// registered, or returns the engine's own construction / adapter
    /// resolution error. A crash fault rebuilds through here too, so the
    /// restarted worker has the same adapter registry and can replay a
    /// tenant session without the router re-shipping the adapter.
    pub(crate) fn new(
        model: &'m EdgeModel,
        batch: usize,
        adapters: &[(String, TenantAdapter)],
    ) -> Result<Self, ServeError> {
        let mut engine = BatchedInferenceEngine::new(model, batch)?;
        engine.set_progress_capture(true);
        for (tenant, adapter) in adapters {
            engine.register_adapter(tenant, adapter.clone())?;
        }
        Ok(Worker {
            engine,
            decode_taken: 0,
        })
    }

    /// Admits a session, optionally resuming a mid-flight sampling rng
    /// (crash replay).
    pub(crate) fn submit(&mut self, req: ServeRequest, rng: Option<TensorRng>) {
        match rng {
            Some(rng) => self.engine.submit_with_rng(req, rng),
            None => self.engine.submit(req),
        }
    }

    /// Advances the engine by one batched forward pass.
    pub(crate) fn step(&mut self) -> Result<StepReply, ServeError> {
        self.engine.step().map_err(ServeError::Model)?;
        let samples = self.engine.decode_token_samples();
        let decode_ns = samples[self.decode_taken..].to_vec();
        self.decode_taken = samples.len();
        Ok(StepReply {
            finished: self.engine.take_finished(),
            progress: self.engine.take_progress(),
            decode_ns,
        })
    }
}
