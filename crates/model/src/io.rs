//! Checkpoint serialization: one on-disk format.
//!
//! An adapted model is only useful if it can be stored on the device and
//! reloaded. Everything that leaves the process is a
//! [`TrainingCheckpoint`]: the [`ModelConfig`], every parameter in the
//! model's canonical visitation order (little-endian `f32`), optimizer and
//! RNG state, the iteration cursor, and a caller blob in which the
//! runtime records its compression policy — length-framed, checksummed,
//! and with every count checked against the bytes actually present before
//! anything is allocated. Compression state (masks/quant hooks) is runtime
//! configuration: `edge_llm::resilience::restore_run`, the one restore
//! path, re-applies the recorded policy once the parameters are back.

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::model::EdgeModel;
use crate::optim::{Sgd, SgdState};
use edge_llm_tensor::{fnv1a64, RngState, TensorRng, RNG_STATE_BYTES};
use std::io::{Read, Write};
use std::path::Path;

/// The retired model-only format: parameters without checksum or policy.
/// Recognised only to reject it by name.
const V1_MAGIC: &[u8; 8] = b"EDGELLM\x01";
const MAGIC: &[u8; 8] = b"EDGELLM\x02";
/// Upper bound on a plausible payload, so a corrupt length field fails
/// cleanly instead of attempting a giant allocation.
const MAX_PAYLOAD: u64 = 1 << 32;

fn config_fields(config: &ModelConfig) -> [u64; 7] {
    [
        config.vocab_size as u64,
        config.d_model as u64,
        config.n_heads as u64,
        config.n_layers as u64,
        config.seq_len as u64,
        config.d_ff as u64,
        config.tie_exit_heads as u64,
    ]
}

fn ck(reason: impl Into<String>) -> ModelError {
    ModelError::Checkpoint {
        reason: reason.into(),
    }
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn take_u64(cur: &mut &[u8]) -> Result<u64, ModelError> {
    let mut b = [0u8; 8];
    cur.read_exact(&mut b)
        .map_err(|_| ck("truncated payload"))?;
    Ok(u64::from_le_bytes(b))
}

fn take_f32(cur: &mut &[u8]) -> Result<f32, ModelError> {
    let mut b = [0u8; 4];
    cur.read_exact(&mut b)
        .map_err(|_| ck("truncated payload"))?;
    Ok(f32::from_le_bytes(b))
}

/// Reads a count field and then that many `f32`s. The count is bounded by
/// division against the bytes actually left, so a header that lies about
/// its size is rejected before anything is allocated for it.
fn take_f32s(cur: &mut &[u8]) -> Result<Vec<f32>, ModelError> {
    let n = take_u64(cur)?;
    if n > (cur.len() / 4) as u64 {
        return Err(ck("truncated payload"));
    }
    let (body, rest) = cur.split_at(n as usize * 4);
    *cur = rest;
    let word = |b: &[u8]| f32::from_le_bytes(b.try_into().expect("chunks_exact(4)"));
    Ok(body.chunks_exact(4).map(word).collect())
}

/// [`EdgeModel::num_params`] for `config` — what a checkpoint of that
/// architecture stores — or `None` if that is beyond any file this format
/// can frame. Computed from the header alone, so a parameter count can be
/// held to it before any model is built.
fn stored_scalars(config: &ModelConfig) -> Option<usize> {
    let [vocab, d, _, layers, seq, ff, _] = config_fields(config).map(u128::from);
    // with every dimension below 2^32 no term below can overflow a u128
    if (vocab | d | layers | seq | ff) >> 32 != 0 {
        return None;
    }
    // qkv, proj, fc1, fc2 weights; their biases (3d + d + ff + d); two
    // LayerNorms (4d)
    let block = 4 * d * d + 2 * d * ff + 9 * d + ff;
    // Every exit owns a LayerNorm. Tied exits share one unembedding;
    // untied exits each own one and the shared one is never visited.
    let heads = if config.tie_exit_heads { 1 } else { layers };
    usize::try_from((vocab + seq) * d + layers * (block + 2 * d) + heads * d * vocab).ok()
}

/// A full snapshot of an adaptation run: model parameters, optimizer
/// state, schedule cursor, RNG state, and an opaque caller blob (the
/// runtime stores its compression policy there).
///
/// The on-disk format is framed as
/// `magic | payload_len | payload | fnv1a64(payload)`, so truncation and
/// bit corruption are both detected before any field is trusted.
/// [`TrainingCheckpoint::save_file`] writes atomically (temp file in the
/// same directory, synced, then renamed) so a crash mid-write never
/// clobbers the previous good checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// Architecture of the checkpointed model.
    pub config: ModelConfig,
    /// Every parameter in the model's canonical visitation order.
    pub params: Vec<f32>,
    /// Optimizer hyperparameters and per-slice velocity.
    pub optimizer: SgdState,
    /// Adaptation iterations completed when the snapshot was taken.
    pub iteration: u64,
    /// Training RNG state at the snapshot point.
    pub rng: RngState,
    /// Opaque caller data carried alongside the core state.
    pub extra: Vec<u8>,
}

impl TrainingCheckpoint {
    /// Snapshots a live training run.
    ///
    /// Parameters are reached through the read-only canonical visitor, so
    /// periodic checkpointing never evicts compressed-weight caches.
    pub fn capture(
        model: &EdgeModel,
        opt: &Sgd,
        iteration: u64,
        rng: &TensorRng,
        extra: Vec<u8>,
    ) -> Self {
        let mut params = Vec::new();
        model.visit_params_all_ro(&mut |_, p| params.extend_from_slice(p));
        TrainingCheckpoint {
            config: model.config().clone(),
            params,
            optimizer: opt.export_state(),
            iteration,
            rng: rng.state(),
            extra,
        }
    }

    /// Writes the checkpoint's parameters back into `model` in place
    /// (rollback path: compression hooks and masks stay installed, and the
    /// write re-masks each pruned weight, as every `visit_params` does).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Checkpoint`] if the model's architecture or
    /// parameter count does not match the snapshot.
    pub fn restore_params(&self, model: &mut EdgeModel) -> Result<(), ModelError> {
        if model.config() != &self.config {
            return Err(ck("checkpoint architecture does not match the live model"));
        }
        let mut cursor = 0usize;
        let mut overrun = false;
        model.visit_params_all(&mut |_, p, _| {
            if cursor + p.len() > self.params.len() {
                overrun = true;
                return;
            }
            p.copy_from_slice(&self.params[cursor..cursor + p.len()]);
            cursor += p.len();
        });
        if overrun || cursor != self.params.len() {
            return Err(ck(format!(
                "checkpoint holds {} params, model needs a different count",
                self.params.len()
            )));
        }
        Ok(())
    }

    /// Builds a fresh model from the snapshot (resume path).
    ///
    /// Compression is runtime state: `edge_llm::resilience::restore_run`,
    /// the one caller, re-applies the policy recorded in
    /// [`TrainingCheckpoint::extra`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Checkpoint`] on a parameter-count mismatch,
    /// or any construction error for the recorded config.
    pub fn build_model(&self) -> Result<EdgeModel, ModelError> {
        let mut rng = TensorRng::seed_from(0);
        let mut model = EdgeModel::new(self.config.clone(), &mut rng)?;
        self.restore_params(&mut model)?;
        Ok(model)
    }

    /// Rebuilds the optimizer exactly as captured.
    pub fn optimizer(&self) -> Sgd {
        Sgd::from_state(&self.optimizer)
    }

    /// Rebuilds the training RNG exactly as captured.
    pub fn rng(&self) -> TensorRng {
        TensorRng::from_state(self.rng)
    }

    fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.params.len() * 4 + self.extra.len());
        for f in config_fields(&self.config) {
            push_u64(&mut buf, f);
        }
        push_u64(&mut buf, self.params.len() as u64);
        for &v in &self.params {
            push_f32(&mut buf, v);
        }
        push_f32(&mut buf, self.optimizer.lr);
        push_f32(&mut buf, self.optimizer.momentum);
        push_f32(&mut buf, self.optimizer.clip);
        push_u64(&mut buf, self.optimizer.velocity.len() as u64);
        for (id, v) in &self.optimizer.velocity {
            push_u64(&mut buf, *id as u64);
            push_u64(&mut buf, v.len() as u64);
            for &x in v {
                push_f32(&mut buf, x);
            }
        }
        push_u64(&mut buf, self.iteration);
        buf.extend_from_slice(&self.rng.to_bytes());
        push_u64(&mut buf, self.extra.len() as u64);
        buf.extend_from_slice(&self.extra);
        buf
    }

    fn parse_payload(payload: &[u8]) -> Result<Self, ModelError> {
        let mut cur = payload;
        let mut f = [0usize; 7];
        for v in f.iter_mut() {
            *v = usize::try_from(take_u64(&mut cur)?)
                .map_err(|_| ck("model dimension does not fit this platform"))?;
        }
        let config = ModelConfig {
            vocab_size: f[0],
            d_model: f[1],
            n_heads: f[2],
            n_layers: f[3],
            seq_len: f[4],
            d_ff: f[5],
            tie_exit_heads: f[6] != 0,
        };
        config
            .validate()
            .map_err(|e| ck(format!("invalid model config: {e}")))?;
        let params = take_f32s(&mut cur)?;
        // Held to the header before `build_model` can allocate a model of
        // the header's dimensions.
        if stored_scalars(&config) != Some(params.len()) {
            return Err(ck(format!(
                "checkpoint holds {} params, not what its model config stores",
                params.len()
            )));
        }
        let lr = take_f32(&mut cur)?;
        let momentum = take_f32(&mut cur)?;
        let clip = take_f32(&mut cur)?;
        let n_slices = take_u64(&mut cur)?;
        // each slice costs at least its id and length fields
        if n_slices > (cur.len() / 16) as u64 {
            return Err(ck("truncated payload"));
        }
        let mut velocity = Vec::with_capacity(n_slices as usize);
        for _ in 0..n_slices {
            let id = usize::try_from(take_u64(&mut cur)?)
                .map_err(|_| ck("velocity slice id does not fit this platform"))?;
            velocity.push((id, take_f32s(&mut cur)?));
        }
        let iteration = take_u64(&mut cur)?;
        let mut rng_bytes = [0u8; RNG_STATE_BYTES];
        (&mut cur)
            .read_exact(&mut rng_bytes)
            .map_err(|_| ck("truncated payload"))?;
        let rng = RngState::from_bytes(&rng_bytes)
            .ok_or_else(|| ck("invalid RNG state in checkpoint"))?;
        if take_u64(&mut cur)? != cur.len() as u64 {
            return Err(ck("payload length inconsistent with extra-blob length"));
        }
        let extra = cur.to_vec();
        Ok(TrainingCheckpoint {
            config,
            params,
            optimizer: SgdState {
                lr,
                momentum,
                clip,
                velocity,
            },
            iteration,
            rng,
            extra,
        })
    }

    /// Serializes the checkpoint (magic, length, payload, checksum) and
    /// returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Checkpoint`] wrapping any I/O error.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<usize, ModelError> {
        let payload = self.payload();
        let len = (payload.len() as u64).to_le_bytes();
        let sum = fnv1a64(&payload).to_le_bytes();
        let parts = [MAGIC.as_slice(), &len, &payload, &sum];
        parts
            .iter()
            .try_for_each(|part| writer.write_all(part))
            .map_err(|e| ck(format!("write failed: {e}")))?;
        Ok(parts.iter().map(|part| part.len()).sum())
    }

    /// Deserializes a checkpoint written by [`TrainingCheckpoint::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Checkpoint`] for a wrong or older-version
    /// magic, a truncated stream, a checksum mismatch, or a payload whose
    /// counts disagree with its own length or model config.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, ModelError> {
        let mut magic = [0u8; 8];
        reader
            .read_exact(&mut magic)
            .map_err(|_| ck("truncated checkpoint header"))?;
        if &magic == V1_MAGIC {
            return Err(ck(
                "model-only checkpoint (format v1): no longer read, re-run `edgellm adapt`",
            ));
        }
        if &magic != MAGIC {
            return Err(ck("not an edge-llm checkpoint"));
        }
        let mut len_bytes = [0u8; 8];
        reader
            .read_exact(&mut len_bytes)
            .map_err(|_| ck("truncated checkpoint header"))?;
        let len = u64::from_le_bytes(len_bytes);
        if len > MAX_PAYLOAD {
            return Err(ck(format!("implausible payload length {len}")));
        }
        let mut payload = vec![0u8; len as usize];
        reader
            .read_exact(&mut payload)
            .map_err(|_| ck("truncated checkpoint payload"))?;
        let mut sum_bytes = [0u8; 8];
        reader
            .read_exact(&mut sum_bytes)
            .map_err(|_| ck("missing checkpoint checksum"))?;
        if u64::from_le_bytes(sum_bytes) != fnv1a64(&payload) {
            return Err(ck("checksum mismatch: checkpoint is corrupt"));
        }
        Self::parse_payload(&payload)
    }

    /// Atomically and durably writes the checkpoint to `path` and returns
    /// its size in bytes: the bytes land in a `.tmp` sibling, are synced
    /// to the device, and only then renamed into place, so an interrupted
    /// save — a crash or a power loss — never destroys the previous
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Checkpoint`] wrapping any filesystem error.
    pub fn save_file(&self, path: &Path) -> Result<usize, ModelError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| ck(format!("cannot create {}: {e}", tmp.display())))?;
        let bytes = self.write_to(&mut file)?;
        file.sync_all()
            .map_err(|e| ck(format!("cannot sync {}: {e}", tmp.display())))?;
        drop(file);
        std::fs::rename(&tmp, path)
            .map_err(|e| ck(format!("cannot rename into {}: {e}", path.display())))?;
        Ok(bytes)
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Checkpoint`] if the file cannot be read or
    /// fails any of [`TrainingCheckpoint::read_from`]'s validation.
    pub fn load_file(path: &Path) -> Result<Self, ModelError> {
        let bytes =
            std::fs::read(path).map_err(|e| ck(format!("cannot read {}: {e}", path.display())))?;
        Self::read_from(&mut bytes.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn model(seed: u64) -> EdgeModel {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    fn training_state(seed: u64) -> (EdgeModel, Sgd, TensorRng) {
        let mut m = model(seed);
        let mut opt = Sgd::with_momentum(0.05, 0.9).with_clip(1.0);
        let mut rng = TensorRng::seed_from(seed ^ 0xabcd);
        // a few real steps so velocity and RNG state are non-trivial
        let tokens: Vec<usize> = (0..m.config().seq_len).map(|i| i % 16).collect();
        let mut tuner =
            crate::adaptive::AdaptiveTuner::new(crate::adaptive::WindowSchedule::FullDepth);
        for _ in 0..3 {
            tuner.step(&mut m, &mut opt, &tokens, &tokens, 1).unwrap();
            let _ = rng.normal();
        }
        (m, opt, rng)
    }

    #[test]
    fn training_checkpoint_roundtrips_bit_identically() {
        let (m, opt, rng) = training_state(6);
        let ckpt = TrainingCheckpoint::capture(&m, &opt, 3, &rng, b"policy=none".to_vec());
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();
        let back = TrainingCheckpoint::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(ckpt, back);
        let rebuilt = back.build_model().unwrap();
        let tokens: Vec<usize> = (0..m.config().seq_len).map(|i| i % 16).collect();
        let a = m.logits(&tokens, 1).unwrap();
        let b = rebuilt.logits(&tokens, 1).unwrap();
        assert!(a.approx_eq(&b, 0.0), "restored model must be bit-identical");
        assert_eq!(
            back.rng().next_u64(),
            TensorRng::from_state(rng.state()).next_u64()
        );
    }

    #[test]
    fn training_checkpoint_detects_truncation_and_bitflips() {
        let (m, opt, rng) = training_state(7);
        let ckpt = TrainingCheckpoint::capture(&m, &opt, 1, &rng, Vec::new());
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();
        // every truncation point fails with a typed error
        for cut in [4usize, 12, bytes.len() / 2, bytes.len() - 1] {
            let short = &bytes[..cut];
            let err = TrainingCheckpoint::read_from(&mut &short[..]).unwrap_err();
            assert!(
                matches!(err, ModelError::Checkpoint { .. }),
                "cut {cut}: {err}"
            );
        }
        // a single flipped payload bit trips the checksum
        let mut flipped = bytes.clone();
        let mid = 16 + (flipped.len() - 24) / 2;
        flipped[mid] ^= 0x40;
        let err = TrainingCheckpoint::read_from(&mut flipped.as_slice()).unwrap_err();
        assert!(err.to_string().contains("corrupt") || err.to_string().contains("truncated"));
    }

    #[test]
    fn training_checkpoint_rejects_v1_and_foreign_files() {
        // the retired model-only layout: the v1 magic, then the config
        let mut v1 = b"EDGELLM\x01".to_vec();
        for f in config_fields(&ModelConfig::tiny()) {
            push_u64(&mut v1, f);
        }
        let err = TrainingCheckpoint::read_from(&mut v1.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("format v1"),
            "v1 gets a pointed message: {err}"
        );
        let junk = b"GARBAGE!whatever".to_vec();
        assert!(TrainingCheckpoint::read_from(&mut junk.as_slice()).is_err());
    }

    #[test]
    fn training_checkpoint_restore_rejects_wrong_architecture() {
        let (m, opt, rng) = training_state(9);
        let ckpt = TrainingCheckpoint::capture(&m, &opt, 0, &rng, Vec::new());
        let mut rng2 = TensorRng::seed_from(1);
        let mut other = EdgeModel::new(
            ModelConfig::tiny().with_layers(m.config().n_layers + 1),
            &mut rng2,
        )
        .unwrap();
        assert!(ckpt.restore_params(&mut other).is_err());
    }

    #[test]
    fn save_file_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join("edgellm-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let (m, opt, rng) = training_state(10);
        let ckpt = TrainingCheckpoint::capture(&m, &opt, 2, &rng, vec![1, 2, 3]);
        let bytes = ckpt.save_file(&path).unwrap();
        assert_eq!(bytes as u64, std::fs::metadata(&path).unwrap().len());
        // no temp file left behind
        assert!(!path.with_extension("ckpt.tmp").exists());
        let back = TrainingCheckpoint::load_file(&path).unwrap();
        assert_eq!(back, ckpt);
        // overwrite with new state keeps the file valid
        let ckpt2 = TrainingCheckpoint::capture(&m, &opt, 5, &rng, vec![9]);
        ckpt2.save_file(&path).unwrap();
        assert_eq!(TrainingCheckpoint::load_file(&path).unwrap().iteration, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stored_scalar_count_matches_the_visitor() {
        // The header check stands in for the visitor, so hold the two
        // together wherever they could part: tied exits share one
        // unembedding, untied exits own theirs and the shared one is
        // never emitted.
        let shapes = [
            ModelConfig::tiny(),
            ModelConfig::tiny()
                .with_layers(3)
                .with_d_model(24, 3)
                .with_seq_len(5)
                .with_vocab(19),
        ];
        for shape in shapes {
            for tied in [true, false] {
                let cfg = shape.clone().with_tied_exits(tied);
                let m = EdgeModel::new(cfg.clone(), &mut TensorRng::seed_from(1)).unwrap();
                let rng = TensorRng::seed_from(0);
                let stored = TrainingCheckpoint::capture(&m, &Sgd::new(0.1), 0, &rng, Vec::new());
                assert_eq!(stored_scalars(&cfg), Some(stored.params.len()), "{cfg:?}");
                assert_eq!(m.num_params(), stored.params.len(), "{cfg:?}");
            }
        }
        let huge = ModelConfig::tiny().with_vocab(usize::MAX / 2);
        assert_eq!(stored_scalars(&huge), None);
    }

    /// Wraps `payload` in a sound envelope (magic, length, FNV), so a
    /// crafted payload reaches the parser body instead of the checksum.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        push_u64(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
        push_u64(&mut bytes, fnv1a64(payload));
        bytes
    }

    #[test]
    fn headers_that_lie_about_their_size_are_rejected_before_allocating() {
        let (m, opt, rng) = training_state(11);
        let payload = TrainingCheckpoint::capture(&m, &opt, 1, &rng, Vec::new()).payload();
        let field = |payload: &[u8], index: usize, value: u64| {
            let mut p = payload.to_vec();
            p[index * 8..index * 8 + 8].copy_from_slice(&value.to_le_bytes());
            p
        };
        let crafted = [
            // a parameter count whose byte size wraps to something small
            ("n_params = 2^62", field(&payload, 7, 1 << 62)),
            // dimensions that would allocate a petabyte model
            (
                "vocab = d_model = 2^24",
                field(&field(&payload, 0, 1 << 24), 1, 1 << 24),
            ),
            // dimensions whose product does not fit usize at all
            (
                "vocab = d_model = 2^40",
                field(&field(&payload, 0, 1 << 40), 1, 1 << 40),
            ),
        ];
        for (name, bad) in crafted {
            let err = TrainingCheckpoint::read_from(&mut framed(&bad).as_slice()).unwrap_err();
            assert!(
                matches!(err, ModelError::Checkpoint { .. }),
                "{name}: {err}"
            );
        }
        // the helper itself frames soundly: the untouched payload parses
        assert!(TrainingCheckpoint::read_from(&mut framed(&payload).as_slice()).is_ok());
    }
}
