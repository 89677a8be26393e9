//! KV-cached incremental decoding.
//!
//! Re-running the full window per emitted token is simple but
//! O(seq²·layers) per token. An [`InferenceSession`] keeps each layer's
//! key/value projections cached so appending one token costs one token's
//! worth of compute, which is how an adapted Edge-LLM model would
//! actually serve on a device.
//!
//! A session is a single-slot view over the same machinery the serving
//! engine batches: it owns one [`SequenceKv`] and runs every push through
//! [`batched_decode_step`] — a one-row pass of the crate's single frozen
//! layer walk (see `crate::batched`), which speculative rounds drive with
//! multi-position runs and [`EdgeModel::logits`] with whole sequences.
//! Solo, batched, speculative and full-window forwards cannot drift apart:
//! they are one code path with different row shapes, and the tests below
//! hold a session's logits to the full window's bit for bit.

use crate::adapter::ResolvedAdapter;
use crate::batched::{batched_decode_step, BatchedStep, SequenceKv};
use crate::error::ModelError;
use crate::model::EdgeModel;
use crate::spec::{spec_round_with_adapter, SpecReport};
use edge_llm_tensor::Tensor;
use std::sync::Arc;

/// Incremental decoding state over a borrowed model.
///
/// # Example
///
/// ```
/// use edge_llm_model::{EdgeModel, InferenceSession, ModelConfig};
/// use edge_llm_tensor::TensorRng;
///
/// # fn main() -> Result<(), edge_llm_model::ModelError> {
/// let mut rng = TensorRng::seed_from(0);
/// let model = EdgeModel::new(ModelConfig::tiny(), &mut rng)?;
/// let mut session = InferenceSession::new(&model);
/// let logits = session.push_token(3)?;
/// assert_eq!(logits.shape(), (1, model.config().vocab_size));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InferenceSession<'a> {
    model: &'a EdgeModel,
    kv: SequenceKv,
    adapter: Option<Arc<ResolvedAdapter>>,
}

impl<'a> InferenceSession<'a> {
    /// Starts an empty session (capacity = the model's `seq_len`).
    pub fn new(model: &'a EdgeModel) -> Self {
        InferenceSession {
            model,
            kv: SequenceKv::new(model),
            adapter: None,
        }
    }

    /// Attaches (or clears) a tenant adapter; every subsequent push and
    /// speculative round applies its deltas after the base projections.
    /// The session is the oracle side of the multi-tenant differential
    /// tests: solo-with-adapter is what mixed-tenant batching must match
    /// bit-for-bit.
    pub fn set_adapter(&mut self, adapter: Option<Arc<ResolvedAdapter>>) {
        self.adapter = adapter;
    }

    /// Tokens consumed so far.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// Whether no token has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }

    /// Remaining capacity before the positional table is exhausted.
    pub fn remaining(&self) -> usize {
        self.kv.remaining()
    }

    /// Bytes held by the key/value caches.
    pub fn cache_bytes(&self) -> usize {
        self.kv.cache_bytes()
    }

    /// Resets the session to empty without reallocating.
    pub fn reset(&mut self) {
        self.kv.reset();
    }

    /// Rolls the session back to `len` consumed tokens (no-op past the
    /// current length) — see [`SequenceKv::truncate`].
    pub fn truncate(&mut self, len: usize) {
        self.kv.truncate(len);
    }

    /// Feeds one token and returns the next-token logits `(1, vocab)` from
    /// the final exit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExhausted`] when capacity (`seq_len`)
    /// is exhausted and [`ModelError::BadConfig`] for an
    /// out-of-vocabulary token.
    pub fn push_token(&mut self, token: usize) -> Result<Tensor, ModelError> {
        let exits = [self.model.n_layers() - 1];
        let mut rows = self.push_token_exits(token, &exits)?;
        Ok(rows.swap_remove(0))
    }

    /// Feeds one token without computing any logits (prompt prefill).
    ///
    /// # Errors
    ///
    /// As [`InferenceSession::push_token`].
    pub fn advance_token(&mut self, token: usize) -> Result<(), ModelError> {
        self.push_token_exits(token, &[]).map(|_| ())
    }

    /// Feeds one token and returns per-exit logits for the given exits
    /// (for voting during incremental decoding).
    ///
    /// # Errors
    ///
    /// As [`InferenceSession::push_token`], plus
    /// [`ModelError::LayerOutOfRange`] for a bad exit index.
    pub fn push_token_exits(
        &mut self,
        token: usize,
        exits: &[usize],
    ) -> Result<Vec<Tensor>, ModelError> {
        let mut steps = [BatchedStep {
            token,
            kv: &mut self.kv,
            exits,
            adapter: self.adapter.as_deref(),
        }];
        let mut out = batched_decode_step(self.model, &mut steps)?;
        Ok(out.swap_remove(0))
    }

    /// One self-speculative draft/verify round: feeds `token`, drafts up
    /// to `k` tokens from exit `draft_depth`, verifies them in one
    /// full-depth pass, and rolls the cache back past rejected positions
    /// — see [`spec_round`](crate::spec_round) for the exact semantics and
    /// the bit-identity argument.
    ///
    /// # Errors
    ///
    /// As [`spec_round`](crate::spec_round).
    pub fn speculative_round(
        &mut self,
        token: usize,
        draft_depth: usize,
        k: usize,
    ) -> Result<SpecReport, ModelError> {
        spec_round_with_adapter(
            self.model,
            &mut self.kv,
            token,
            draft_depth,
            k,
            self.adapter.as_deref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{AdapterTarget, TenantAdapter};
    use crate::batched::{decode_runs, BatchedRun, Entry, Reads};
    use crate::config::ModelConfig;
    use edge_llm_prune::magnitude_prune;
    use edge_llm_quant::{BitWidth, QuantScheme};
    use edge_llm_tensor::{configured_threads, set_configured_threads, TensorRng};

    fn model(seed: u64) -> EdgeModel {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    /// `model(seed)` with `weight` / `act` schemes and a magnitude mask
    /// pruning `prune` of each weight on every block projection.
    fn compressed(
        seed: u64,
        weight: Option<QuantScheme>,
        prune: f32,
        act: Option<QuantScheme>,
    ) -> EdgeModel {
        let mut m = model(seed);
        for l in 0..m.n_layers() {
            for lin in m.block_mut(l).linears_mut() {
                lin.set_quant(weight);
                lin.set_activation_quant(act);
                let mask = magnitude_prune(lin.weight(), prune).unwrap();
                lin.set_mask(Some(mask)).unwrap();
            }
        }
        m
    }

    /// Calls `check(case, model, tokens)` with two sequences of tokens for
    /// every model shape the full-window ≡ decode oracles cover, at one
    /// and two kernel threads.
    fn for_each_oracle_case(seed: u64, check: impl Fn(&str, &EdgeModel, &[usize])) {
        let w2 = Some(QuantScheme::symmetric(BitWidth::W2));
        let w4 = Some(QuantScheme::symmetric(BitWidth::W4));
        let a8 = Some(QuantScheme::asymmetric(BitWidth::W8));
        let packed = compressed(seed, w4, 0.4, None);
        packed.pack_frozen_weights().unwrap();
        let models = [
            ("dense", model(seed)),
            ("w4 + 40% mask", compressed(seed, w4, 0.4, None)),
            ("w4 + 40% mask, packed", packed),
            ("a8 only", compressed(seed, None, 0.0, a8)),
            // the integer route: the full window must quantize on the
            // grid decode serves, in all four projections of a block
            ("w4/a8, integer route", compressed(seed, w4, 0.0, a8)),
            ("w2/a8, integer route", compressed(seed, w2, 0.0, a8)),
        ];
        let before = configured_threads();
        for (name, m) in &models {
            let cfg = m.config();
            let mut rng = TensorRng::seed_from(seed + 1);
            let tokens: Vec<usize> = (0..2 * cfg.seq_len)
                .map(|_| rng.index(cfg.vocab_size))
                .collect();
            for threads in [1usize, 2] {
                set_configured_threads(threads);
                check(&format!("{name}, {threads} threads"), m, &tokens);
            }
        }
        set_configured_threads(before);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn incremental_matches_full_forward_exactly() {
        for_each_oracle_case(1, |case, m, tokens| {
            let seq = m.config().seq_len;
            let full = m.logits(tokens, 2).unwrap();
            for (b, sequence) in tokens.chunks(seq).enumerate() {
                let mut session = InferenceSession::new(m);
                for (t, &tok) in sequence.iter().enumerate() {
                    let row = session.push_token(tok).unwrap();
                    assert_eq!(
                        bits(full.row(b * seq + t)),
                        bits(row.row(0)),
                        "{case}: sequence {b} position {t}"
                    );
                }
            }
        });
    }

    #[test]
    fn per_exit_logits_match_batched_exits() {
        for_each_oracle_case(3, |case, m, tokens| {
            let seq = m.config().seq_len;
            let exits = [0usize, m.n_layers() - 1];
            let full = m.logits_at_exits(tokens, 2, &exits).unwrap();
            for (b, sequence) in tokens.chunks(seq).enumerate() {
                let mut session = InferenceSession::new(m);
                for (t, &tok) in sequence.iter().enumerate() {
                    let rows = session.push_token_exits(tok, &exits).unwrap();
                    for (e, row) in rows.iter().enumerate() {
                        assert_eq!(
                            bits(full[e].row(b * seq + t)),
                            bits(row.row(0)),
                            "{case}: exit {e} sequence {b} position {t}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn capacity_is_enforced() {
        let m = model(4);
        let mut session = InferenceSession::new(&m);
        for _ in 0..m.config().seq_len {
            session.push_token(1).unwrap();
        }
        assert_eq!(session.remaining(), 0);
        assert!(session.push_token(1).is_err());
        session.reset();
        assert!(session.is_empty());
        assert!(session.push_token(1).is_ok());
    }

    #[test]
    fn bad_token_rejected() {
        let m = model(5);
        let mut session = InferenceSession::new(&m);
        assert!(session.push_token(9999).is_err());
        // a failed push must not consume capacity
        assert_eq!(session.len(), 0);
    }

    #[test]
    fn bad_exit_rejected() {
        let m = model(6);
        let mut session = InferenceSession::new(&m);
        assert!(session.push_token_exits(1, &[99]).is_err());
        assert_eq!(session.len(), 0);
    }

    #[test]
    fn cache_bytes_scale_with_model() {
        let m = model(7);
        let session = InferenceSession::new(&m);
        let cfg = m.config();
        assert_eq!(
            session.cache_bytes(),
            2 * m.n_layers() * cfg.seq_len * cfg.d_model * 4
        );
    }

    #[test]
    fn truncate_rolls_back_and_replays_identically() {
        let m = model(8);
        let mut session = InferenceSession::new(&m);
        session.advance_token(1).unwrap();
        session.advance_token(2).unwrap();
        let reference = session.push_token(3).unwrap();
        // roll back past the last token, then replay it
        session.truncate(2);
        assert_eq!(session.len(), 2);
        let replay = session.push_token(3).unwrap();
        for v in 0..m.config().vocab_size {
            assert_eq!(reference.get(0, v).to_bits(), replay.get(0, v).to_bits());
        }
        // truncating past the end is a no-op
        session.truncate(99);
        assert_eq!(session.len(), 3);
    }

    #[test]
    fn mixed_length_runs_match_solo_sessions_bitwise() {
        // One pass, two row shapes at once: an adapted 3-position run and a
        // 1-position run. Logits and every written K/V row must equal the
        // same tokens pushed one at a time through solo sessions.
        let m = model(9);
        let exits = [0usize, m.n_layers() - 1];
        let sites: Vec<(usize, AdapterTarget)> = (0..m.n_layers())
            .flat_map(|l| AdapterTarget::ALL.into_iter().map(move |t| (l, t)))
            .collect();
        let adapter = Arc::new(
            TenantAdapter::seeded(m.config(), 3, 2, &sites)
                .resolve(&m)
                .unwrap(),
        );
        let feeds: [(&[usize], Option<Arc<ResolvedAdapter>>); 2] =
            [(&[4, 9, 2], Some(adapter)), (&[7], None)];
        // stagger the histories so the two runs start at different positions
        let contexts: [&[usize]; 2] = [&[1], &[5, 6, 3]];
        let mut solos: Vec<InferenceSession> = Vec::new();
        let mut kvs: Vec<SequenceKv> = Vec::new();
        for ((_, ad), context) in feeds.iter().zip(contexts) {
            let mut solo = InferenceSession::new(&m);
            solo.set_adapter(ad.clone());
            for &t in context {
                solo.advance_token(t).unwrap();
            }
            kvs.push(solo.kv.clone());
            solos.push(solo);
        }
        let mut runs: Vec<BatchedRun> = kvs
            .iter_mut()
            .zip(&feeds)
            .map(|(kv, (tokens, ad))| BatchedRun {
                tokens,
                kv,
                exits: &exits,
                adapter: ad.as_deref(),
            })
            .collect();
        let (_, got) = decode_runs(
            &m,
            &mut runs,
            Entry::EMBEDDING,
            m.n_layers(),
            Reads::Logits,
            None,
        )
        .unwrap();
        for (r, (tokens, _)) in feeds.iter().enumerate() {
            for (i, &tok) in tokens.iter().enumerate() {
                let want = solos[r].push_token_exits(tok, &exits).unwrap();
                for (e, w) in want.iter().enumerate() {
                    assert_eq!(got[r][e].shape(), (tokens.len(), w.cols()));
                    assert_eq!(bits(got[r][e].row(i)), bits(w.row(0)), "run {r} row {i}");
                }
            }
            assert_eq!(kvs[r].len(), solos[r].len());
            for l in 0..m.n_layers() {
                for p in 0..kvs[r].len() {
                    let key = |kv: &SequenceKv| bits(&kv.key(l, p));
                    assert_eq!(key(&kvs[r]), key(&solos[r].kv), "run {r} K[{l}][{p}]");
                    let (v, sv) = (&kvs[r].values[l], &solos[r].kv.values[l]);
                    assert_eq!(bits(v.row(p)), bits(sv.row(p)), "run {r} V[{l}][{p}]");
                }
            }
        }
    }
}
