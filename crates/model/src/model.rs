use crate::adaptive::LayerWindow;
use crate::batched::{full_window, Entry};
use crate::block::{Block, BlockTape};
use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::linear::{grad_buffer, Linear, LinearCache};
use crate::norm::LayerNorm;
use edge_llm_tensor::{embedding_backward, LayerNormCache, Tensor, TensorRng};

/// Visitor over `(parameter id, parameter slice, gradient slice)` used by
/// the parameter-traversal methods.
pub type ParamVisitor<'a> = dyn FnMut(usize, &mut [f32], &mut [f32]) + 'a;

/// Read-only visitor over `(parameter id, parameter slice)` — same ids and
/// emission order as [`ParamVisitor`] traversals, without the mutable
/// borrow (so compressed-weight caches survive the walk).
pub type ParamVisitorRo<'a> = dyn FnMut(usize, &[f32]) + 'a;

/// An early-exit head: a LayerNorm plus (optionally) a private unembedding.
///
/// When the head `Linear` is `None` the exit projects through the model's
/// shared unembedding — the parameter-cheap configuration the paper's
/// adaptive layer voting uses by default.
#[derive(Debug, Clone)]
struct ExitHead {
    norm: LayerNorm,
    head: Option<Linear>,
}

/// A module that owns parameter slices, as [`EdgeModel::modules`] walks
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Module {
    /// The token embedding, then the position embedding: one slice each.
    Embeddings,
    Block(usize),
    ExitNorm(usize),
    /// The unembedding exit `l` projects through ([`EdgeModel::exit_head`]):
    /// walked for every untied exit, and once, as exit 0's, for the head
    /// tied exits share.
    Head(usize),
}

/// The Edge-LLM decoder-only transformer.
///
/// Every layer has an early-exit head, so the model can produce logits from
/// any depth; adaptive layer tuning trains a window of blocks against the
/// exit at the window's end, and adaptive layer voting combines several
/// exits at inference time.
#[derive(Debug, Clone)]
pub struct EdgeModel {
    config: ModelConfig,
    tok_emb: Tensor,
    /// Empty until a backward reaches the embeddings, as is `dpos_emb`.
    dtok_emb: Tensor,
    pos_emb: Tensor,
    dpos_emb: Tensor,
    blocks: Vec<Block>,
    exits: Vec<ExitHead>,
    shared_head: Linear,
}

/// Caches retained by [`EdgeModel::forward_exit`] for the backward pass.
#[derive(Debug, Clone)]
pub struct ForwardCaches {
    tokens: Vec<usize>,
    batch: usize,
    grad_from: usize,
    exit_layer: usize,
    /// One tape per block from `grad_from` (or `exit_layer + 1`, whichever
    /// is lower) through `exit_layer`.
    tape: Vec<BlockTape>,
    exit_norm_cache: LayerNormCache,
    head_cache: LinearCache,
}

impl ForwardCaches {
    /// Approximate activation bytes held alive — the quantity the paper's
    /// memory experiments (F2) track as a function of backprop depth.
    pub fn activation_bytes(&self) -> usize {
        let blocks: usize = self.tape.iter().map(BlockTape::bytes).sum();
        blocks
            + self.exit_norm_cache.xhat.len() * 4
            + self.exit_norm_cache.rstd.len() * 4
            + self.head_cache.bytes()
    }

    /// The exit layer this forward ran to.
    pub fn exit_layer(&self) -> usize {
        self.exit_layer
    }

    /// First layer with gradients enabled.
    pub fn grad_from(&self) -> usize {
        self.grad_from
    }
}

/// Result of a cached partial forward: logits at the requested exit plus the
/// caches needed to run the truncated backward.
#[derive(Debug, Clone)]
pub struct ExitForward {
    /// Logits at the exit layer, `(batch * seq) x vocab`.
    pub logits: Tensor,
    /// Caches for [`EdgeModel::backward_exit`].
    pub caches: ForwardCaches,
}

impl EdgeModel {
    /// Builds a model with randomly initialized parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] if `config` fails validation.
    pub fn new(config: ModelConfig, rng: &mut TensorRng) -> Result<Self, ModelError> {
        config.validate()?;
        let c = config.d_model;
        let tok_emb = Tensor::randn(config.vocab_size, c, 0.02, rng);
        let pos_emb = Tensor::randn(config.seq_len, c, 0.02, rng);
        let blocks = (0..config.n_layers)
            .map(|_| Block::new(c, config.n_heads, config.d_ff, rng))
            .collect();
        let exits = (0..config.n_layers)
            .map(|_| ExitHead {
                norm: LayerNorm::new(c),
                head: if config.tie_exit_heads {
                    None
                } else {
                    Some(Linear::new_no_bias(c, config.vocab_size, rng))
                },
            })
            .collect();
        let shared_head = Linear::new_no_bias(c, config.vocab_size, rng);
        Ok(EdgeModel {
            dtok_emb: Tensor::zeros(0, 0),
            dpos_emb: Tensor::zeros(0, 0),
            config,
            tok_emb,
            pos_emb,
            blocks,
            exits,
            shared_head,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Model depth in blocks.
    pub fn n_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Mutable access to block `l` (compression policies install masks and
    /// quantization schemes through this).
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn block_mut(&mut self, l: usize) -> &mut Block {
        &mut self.blocks[l]
    }

    /// Read access to block `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn block(&self, l: usize) -> &Block {
        &self.blocks[l]
    }

    /// Total number of trainable scalars: what a checkpoint stores, so
    /// untied exits count their own heads and not the shared one no exit
    /// projects through.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params_all_ro(&mut |_, p| n += p.len());
        n
    }

    /// The unembedding exit `l` projects through: its own head, or the
    /// shared one when exits are tied.
    fn exit_head(&self, l: usize) -> &Linear {
        self.exits[l].head.as_ref().unwrap_or(&self.shared_head)
    }

    /// Mutable twin of [`EdgeModel::exit_head`].
    fn exit_head_mut(&mut self, l: usize) -> &mut Linear {
        self.exits[l].head.as_mut().unwrap_or(&mut self.shared_head)
    }

    fn check_tokens(&self, tokens: &[usize], batch: usize) -> Result<(), ModelError> {
        let expected = batch * self.config.seq_len;
        if tokens.len() != expected {
            return Err(ModelError::BadBatch {
                expected,
                actual: tokens.len(),
            });
        }
        Ok(())
    }

    /// Embedding of a single token at position `pos` (incremental decoding).
    pub(crate) fn embed_one(&self, token: usize, pos: usize) -> Result<Tensor, ModelError> {
        if token >= self.config.vocab_size {
            return Err(ModelError::BadConfig {
                reason: format!(
                    "token {token} outside vocabulary {}",
                    self.config.vocab_size
                ),
            });
        }
        if pos >= self.config.seq_len {
            return Err(ModelError::LayerOutOfRange {
                layer: pos,
                depth: self.config.seq_len,
            });
        }
        let mut x = Tensor::zeros(1, self.config.d_model);
        for ((o, &e), &p) in x
            .row_mut(0)
            .iter_mut()
            .zip(self.tok_emb.row(token))
            .zip(self.pos_emb.row(pos))
        {
            *o = e + p;
        }
        Ok(x)
    }

    /// Exit `exit_layer`'s logits for a batch of hidden-state rows. Both
    /// stages are row-wise, so rows from different sequences get the
    /// logits separate single-row calls would give them.
    pub(crate) fn exit_logits_no_cache(
        &self,
        h: &Tensor,
        exit_layer: usize,
    ) -> Result<Tensor, ModelError> {
        let n = self.exits[exit_layer].norm.forward_no_cache(h)?;
        self.exit_head(exit_layer).forward_no_cache(&n)
    }

    /// Runs the model to `exit_layer` (inclusive), keeping backward caches
    /// only for blocks `grad_from..=exit_layer`.
    ///
    /// Blocks past the exit never execute — the forward-compute saving.
    /// The rest is two passes of the decode walk (`crate::batched`): the
    /// blocks before `grad_from` are frozen, walked as
    /// [`EdgeModel::frozen_forward`] walks them, on whatever route their
    /// projections decode on, and keep nothing — the memory saving; then
    /// one taped pass enters at `grad_from` with their rows (at the
    /// embedding when `grad_from` is 0) and records each block's
    /// [`BlockTape`], its projections on the f32 training route. The exit
    /// norm and head run on their cached forwards.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerOutOfRange`] for a bad exit layer,
    /// [`ModelError::BadBatch`] for a wrong token count and
    /// [`ModelError::BadConfig`] for a token outside the vocabulary.
    pub fn forward_exit(
        &self,
        tokens: &[usize],
        batch: usize,
        exit_layer: usize,
        grad_from: usize,
    ) -> Result<ExitForward, ModelError> {
        if exit_layer >= self.n_layers() {
            return Err(ModelError::LayerOutOfRange {
                layer: exit_layer,
                depth: self.n_layers(),
            });
        }
        self.check_tokens(tokens, batch)?;
        let frozen = grad_from.min(exit_layer + 1);
        let prefix = match frozen {
            0 => None,
            _ => Some(self.frozen_forward(tokens, batch, 0, None, None, frozen, &[])?),
        };
        let entry = Entry {
            from: frozen,
            hidden: prefix.as_ref().map(|(rows, _)| rows.as_slice()),
            block: None,
        };
        let mut tape = Vec::new();
        let (x, _) = full_window(self, tokens, entry, exit_layer + 1, &[], Some(&mut tape))?;
        let (n, exit_norm_cache) = self.exits[exit_layer].norm.forward(&x)?;
        let (logits, head_cache) = self.exit_head(exit_layer).forward(n)?;
        Ok(ExitForward {
            logits,
            caches: ForwardCaches {
                tokens: tokens.to_vec(),
                batch,
                grad_from,
                exit_layer,
                tape,
                exit_norm_cache,
                head_cache,
            },
        })
    }

    /// Truncated backward from `dlogits` through the exit head and the
    /// blocks `grad_from..=exit_layer`, accumulating gradients in place —
    /// into buffers the first backward to reach a module allocates.
    ///
    /// Gradients reach the embeddings only when `grad_from == 0`; above
    /// layer 0 the window's bottom block computes no input gradient, which
    /// nothing would read.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward_exit(
        &mut self,
        caches: &ForwardCaches,
        dlogits: &Tensor,
    ) -> Result<(), ModelError> {
        let exit_layer = caches.exit_layer;
        let dn = self
            .exit_head_mut(exit_layer)
            .backward(&caches.head_cache, dlogits)?;
        let mut dx = self.exits[exit_layer]
            .norm
            .backward(&caches.exit_norm_cache, &dn)?;
        let first = exit_layer + 1 - caches.tape.len();
        for (l, tape) in (first..exit_layer + 1).zip(&caches.tape).rev() {
            // only the embeddings read the gradient leaving the window
            let input_grad = l > first || caches.grad_from == 0;
            match self.blocks[l].backward_to(tape, &dx, input_grad)? {
                Some(below) => dx = below,
                None => return Ok(()),
            }
        }
        if caches.grad_from == 0 {
            let (vocab, seq, c) = (
                self.config.vocab_size,
                self.config.seq_len,
                self.config.d_model,
            );
            let dtok = grad_buffer(&mut self.dtok_emb, vocab, c);
            embedding_backward(&caches.tokens, &dx, dtok)?;
            let dpos = grad_buffer(&mut self.dpos_emb, seq, c);
            for b in 0..caches.batch {
                for t in 0..seq {
                    let src = dx.row(b * seq + t);
                    for (acc, &g) in dpos.row_mut(t).iter_mut().zip(src.iter()) {
                        *acc += g;
                    }
                }
            }
        }
        Ok(())
    }

    /// Full-depth logits from the final exit (the frozen forward).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadBatch`] for a wrong token count.
    pub fn logits(&self, tokens: &[usize], batch: usize) -> Result<Tensor, ModelError> {
        let mut last = self.logits_at_exits(tokens, batch, &[self.n_layers() - 1])?;
        Ok(last.pop().expect("one exit requested"))
    }

    /// Logits from every exit in `exit_layers` in one frozen forward from
    /// the embedding ([`EdgeModel::frozen_forward`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadBatch`] for a wrong token count and
    /// [`ModelError::LayerOutOfRange`] if any exit is out of range.
    pub fn logits_at_exits(
        &self,
        tokens: &[usize],
        batch: usize,
        exit_layers: &[usize],
    ) -> Result<Vec<Tensor>, ModelError> {
        let depth = exit_layers.iter().max().map_or(0, |&e| e + 1);
        Ok(self
            .frozen_forward(tokens, batch, 0, None, None, depth, exit_layers)?
            .1)
    }

    /// The frozen forward over layers `from..depth`: `batch` runs of
    /// `seq_len` positions through the KV-cached decode walk, on scratch
    /// K/V — bit for bit what decoding the same tokens serves, so
    /// evaluation, the voting fit and LUC's probes score the deployed
    /// model. `entering` holds the hidden rows entering layer `from`, one
    /// per token in `(b, t)` order; `None` (with `from` 0) embeds `tokens`.
    /// `block`, when given, is walked at layer `from` in place of the
    /// model's own, bit for bit as if it were installed there: a LUC probe
    /// scores a compressed copy of one block without a second model.
    /// A pass split at any layer `k` — `0..k`, then `k..depth` from the
    /// rows the first returns — is bit-identical to the unsplit one.
    ///
    /// Returns the hidden rows leaving layer `depth - 1` (the entering rows
    /// when `from == depth`) and one logits tensor per entry of
    /// `exit_layers`, each of which must lie in `from..depth`.
    ///
    /// # Errors
    ///
    /// Fails before walking any layer: [`ModelError::BadBatch`] for a
    /// wrong token count, `entering` rows that are not one per token or not
    /// `d_model` wide, or no `entering` rows with `from > 0`;
    /// [`ModelError::LayerOutOfRange`] for `depth > n_layers()`,
    /// `from > depth`, or an exit outside `from..depth`;
    /// [`ModelError::BadConfig`] for a `block` whose projections are not
    /// the model's shapes.
    #[allow(clippy::too_many_arguments)] // `from`, `entering`, `block`: one entry
    pub fn frozen_forward(
        &self,
        tokens: &[usize],
        batch: usize,
        from: usize,
        entering: Option<&Tensor>,
        block: Option<&Block>,
        depth: usize,
        exit_layers: &[usize],
    ) -> Result<(Tensor, Vec<Tensor>), ModelError> {
        self.check_tokens(tokens, batch)?;
        // One row per token; the pass then checks the floats, and so the
        // width.
        if let Some(h) = entering.filter(|h| h.rows() != tokens.len()) {
            return Err(ModelError::BadBatch {
                expected: tokens.len(),
                actual: h.rows(),
            });
        }
        let entry = Entry {
            from,
            hidden: entering.map(Tensor::as_slice),
            block,
        };
        full_window(self, tokens, entry, depth, exit_layers, None)
    }

    /// Visits `(id, param, grad)` for every parameter whose module is
    /// *trainable* under `window` with the exit at `exit_layer`:
    ///
    /// * embeddings — only when the window starts at layer 0,
    /// * blocks inside the window,
    /// * the exit norm (and untied head) at `exit_layer`,
    /// * the shared head — whenever the exit at `exit_layer` is tied to it.
    ///
    /// Ids come from [`EdgeModel::visit_params_all`]'s walk of the
    /// **whole** model, so a parameter keeps its id across windows — which
    /// is what lets stateful optimizers keep per-parameter state — and
    /// they are emitted in ascending order. Modules outside the window are
    /// not borrowed at all: a mutable borrow would invalidate their
    /// compressed-weight caches every iteration.
    pub fn visit_params_window(
        &mut self,
        window: LayerWindow,
        exit_layer: usize,
        f: &mut ParamVisitor<'_>,
    ) {
        let tied = self.config.tie_exit_heads;
        for (m, id) in self.modules(false) {
            let trains = match m {
                Module::Embeddings => window.start == 0,
                Module::Block(l) => window.contains(l),
                Module::ExitNorm(l) => l == exit_layer,
                Module::Head(l) => tied || l == exit_layer,
            };
            if trains {
                self.visit_module(m, id, f);
            }
        }
    }

    /// Visits every parameter in the model (full tuning baseline) in the
    /// order checkpoints lay them out: embeddings, blocks, then each exit's
    /// norm and untied head, with the tied shared head right after exit
    /// 0's norm. Ids number the slices in that order, except that the tied
    /// shared head takes the last ids.
    pub fn visit_params_all(&mut self, f: &mut ParamVisitor<'_>) {
        for (m, id) in self.modules(true) {
            self.visit_module(m, id, f);
        }
    }

    /// Read-only mirror of [`EdgeModel::visit_params_all`] — identical ids
    /// and emission order, shared borrows — so checkpoint and model-file
    /// byte layouts match while the weight caches survive serialization.
    pub fn visit_params_all_ro(&self, f: &mut ParamVisitorRo<'_>) {
        for (m, id) in self.modules(true) {
            self.visit_module_ro(m, id, f);
        }
    }

    /// The one walk every parameter traversal takes: each module that owns
    /// parameters, with the id of its first slice. Ids number the slices in
    /// declaration order — embeddings, blocks, each exit's norm and untied
    /// head, then the tied shared head — and each kind's slice count is
    /// what its first module's own visit emits (blocks, norms and heads are
    /// each built alike). The walk goes in id order or, when `stored`, in
    /// the order checkpoints lay the slices out, which puts the tied shared
    /// head right after exit 0's norm. It borrows nothing, so a mutable
    /// visit can follow it without a copy of the list.
    fn modules(&self, stored: bool) -> impl Iterator<Item = (Module, usize)> {
        let slices = |m| {
            let mut count = 0;
            self.visit_module_ro(m, 0, &mut |_, _| count += 1);
            count
        };
        let (emb, block, norm) = (
            slices(Module::Embeddings),
            slices(Module::Block(0)),
            slices(Module::ExitNorm(0)),
        );
        let (n, tied) = (self.n_layers(), self.config.tie_exit_heads);
        let exit = if tied {
            norm
        } else {
            norm + slices(Module::Head(0))
        };
        let first_exit = emb + n * block;
        let id = move |m| match m {
            Module::Embeddings => 0,
            Module::Block(l) => emb + l * block,
            Module::ExitNorm(l) => first_exit + l * exit,
            Module::Head(_) if tied => first_exit + n * exit,
            Module::Head(l) => first_exit + l * exit + norm,
        };
        let exits = (0..n).flat_map(move |l| {
            let head = (!tied || (stored && l == 0)).then_some(Module::Head(l));
            std::iter::once(Module::ExitNorm(l)).chain(head)
        });
        std::iter::once(Module::Embeddings)
            .chain((0..n).map(Module::Block))
            .chain(exits)
            .chain((tied && !stored).then_some(Module::Head(0)))
            .map(move |m| (m, id(m)))
    }

    /// Visits module `m`'s slices under ids `first..`.
    fn visit_module(&mut self, m: Module, first: usize, f: &mut ParamVisitor<'_>) {
        let mut id = first;
        let mut emit = |p: &mut [f32], g: &mut [f32]| {
            f(id, p, g);
            id += 1;
        };
        match m {
            Module::Embeddings => {
                emit(self.tok_emb.as_mut_slice(), self.dtok_emb.as_mut_slice());
                emit(self.pos_emb.as_mut_slice(), self.dpos_emb.as_mut_slice());
            }
            Module::Block(l) => self.blocks[l].visit_params(&mut emit),
            Module::ExitNorm(l) => self.exits[l].norm.visit_params(&mut emit),
            Module::Head(l) => self.exit_head_mut(l).visit_params(&mut emit),
        }
    }

    /// Read-only twin of [`EdgeModel::visit_module`].
    fn visit_module_ro(&self, m: Module, first: usize, f: &mut ParamVisitorRo<'_>) {
        let mut id = first;
        let mut emit = |p: &[f32]| {
            f(id, p);
            id += 1;
        };
        match m {
            Module::Embeddings => {
                emit(self.tok_emb.as_slice());
                emit(self.pos_emb.as_slice());
            }
            Module::Block(l) => self.blocks[l].visit_params_ro(&mut emit),
            Module::ExitNorm(l) => self.exits[l].norm.visit_params_ro(&mut emit),
            Module::Head(l) => self.exit_head(l).visit_params_ro(&mut emit),
        }
    }

    /// Every projection that can carry a compression scheme: each block's
    /// four, the shared unembedding, and the untied exit heads.
    fn projections(&self) -> impl Iterator<Item = &Linear> {
        self.blocks
            .iter()
            .flat_map(Block::linears)
            .chain(std::iter::once(&self.shared_head))
            .chain(self.exits.iter().filter_map(|e| e.head.as_ref()))
    }

    /// Mutable mirror of [`EdgeModel::projections`].
    fn projections_mut(&mut self) -> impl Iterator<Item = &mut Linear> {
        self.blocks
            .iter_mut()
            .flat_map(Block::linears_mut)
            .chain(std::iter::once(&mut self.shared_head))
            .chain(self.exits.iter_mut().filter_map(|e| e.head.as_mut()))
    }

    /// Builds now, on every compressed projection, the packed codes its
    /// first frozen forward would build ([`Linear::pack_weights`]), so
    /// serving pays no quantization on its first pass. Layers without a
    /// quant scheme are untouched.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures (e.g. non-finite weights).
    pub fn pack_frozen_weights(&self) -> Result<(), ModelError> {
        self.projections().try_for_each(Linear::pack_weights)
    }

    /// Enables or disables the packed integer-GEMM decode route on every
    /// projection (enabled by default). Only layers carrying both a
    /// symmetric per-row weight scheme and an asymmetric per-row
    /// activation scheme at ≤ 8 bits are affected; disabling reproduces
    /// the f32 row-dequantizing baseline the decode benchmark gates
    /// against.
    pub fn set_integer_decode_enabled(&mut self, enabled: bool) {
        self.projections_mut()
            .for_each(|l| l.set_integer_decode_enabled(enabled));
    }

    /// Bytes the decode path keeps resident for projection weights (block
    /// QKV/proj/fc1/fc2 plus unembedding heads): packed-code bytes for
    /// packed layers, dense f32 bytes otherwise. Embeddings and norms are
    /// excluded — they are never quantized.
    pub fn decode_weight_bytes(&self) -> usize {
        self.projections().map(Linear::weight_storage_bytes).sum()
    }

    /// Lifetime re-quantization count of each block's projections, in
    /// layer order. The tuner diffs consecutive snapshots to report how
    /// many *layers* re-quantized in one step — the quantity the depth-1
    /// regression test pins at exactly one.
    pub fn block_requant_counts(&self) -> Vec<u64> {
        self.blocks
            .iter()
            .map(|b| b.linears().into_iter().map(Linear::requant_count).sum())
            .collect()
    }

    /// Aggregate compressed-weight-cache telemetry over every projection
    /// (blocks, exit heads, shared head).
    pub fn weight_cache_stats(&self) -> WeightCacheStats {
        let mut stats = WeightCacheStats::default();
        for l in self.projections() {
            stats.requants += l.requant_count();
            stats.invalidations += l.cache_invalidation_count();
        }
        stats
    }
}

/// Model-wide compressed-weight-cache tallies (monotonic over the model's
/// lifetime; diff snapshots for per-step deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WeightCacheStats {
    /// Effective-weight materializations with a quant scheme installed.
    pub requants: u64,
    /// Cache evictions that dropped a cached weight form.
    pub invalidations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::runs_per_group;
    use edge_llm_tensor::{cross_entropy_backward, cross_entropy_forward};

    fn tiny_model(seed: u64) -> EdgeModel {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    fn tokens_for(model: &EdgeModel, batch: usize, seed: u64) -> Vec<usize> {
        let mut rng = TensorRng::seed_from(seed);
        (0..batch * model.config().seq_len)
            .map(|_| rng.index(model.config().vocab_size))
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn logits_shape() {
        let model = tiny_model(1);
        let tokens = tokens_for(&model, 2, 10);
        let logits = model.logits(&tokens, 2).unwrap();
        assert_eq!(logits.shape(), (2 * 8, 32));
    }

    #[test]
    fn forward_exit_matches_full_forward_at_last_layer() {
        let model = tiny_model(2);
        let tokens = tokens_for(&model, 1, 11);
        let full = model.logits(&tokens, 1).unwrap();
        let last = model.n_layers() - 1;
        // training forward ≡ frozen forward, bit for bit, with every
        // number of blocks below the window
        for grad_from in 0..=last {
            let exit = model.forward_exit(&tokens, 1, last, grad_from).unwrap();
            assert_eq!(bits(&full), bits(&exit.logits), "grad_from {grad_from}");
        }
    }

    #[test]
    fn early_exit_differs_from_final() {
        let model = tiny_model(3);
        let tokens = tokens_for(&model, 1, 12);
        let exits = model.logits_at_exits(&tokens, 1, &[0, 1]).unwrap();
        assert_eq!(exits.len(), 2);
        assert!(!exits[0].approx_eq(&exits[1], 1e-3));
    }

    #[test]
    fn truncated_forward_skips_caches() {
        let model = tiny_model(4);
        let tokens = tokens_for(&model, 1, 13);
        let full = model.forward_exit(&tokens, 1, 1, 0).unwrap();
        let trunc = model.forward_exit(&tokens, 1, 1, 1).unwrap();
        assert!(full.caches.activation_bytes() > trunc.caches.activation_bytes());
        assert_eq!(full.caches.tape.len(), 2);
        // block 1 only: block 0 keeps nothing
        assert_eq!(trunc.caches.tape.len(), 1);
        // logits identical either way, bit for bit
        assert_eq!(bits(&full.logits), bits(&trunc.logits));
    }

    #[test]
    fn backward_only_touches_window() {
        // a fresh model: no backward has reached any module yet
        let mut model = tiny_model(5);
        let tokens = tokens_for(&model, 1, 14);
        let targets: Vec<usize> = tokens.clone();
        let fwd = model.forward_exit(&tokens, 1, 1, 1).unwrap();
        let ce = cross_entropy_forward(&fwd.logits, &targets).unwrap();
        let dl = cross_entropy_backward(&ce, &targets).unwrap();
        model.backward_exit(&fwd.caches, &dl).unwrap();
        // block 0 frozen: zero grads
        let mut b0_grad = 0.0f32;
        model.blocks[0].visit_params(&mut |_, g| b0_grad += g.iter().map(|x| x.abs()).sum::<f32>());
        assert_eq!(b0_grad, 0.0);
        let mut b1_grad = 0.0f32;
        model.blocks[1].visit_params(&mut |_, g| b1_grad += g.iter().map(|x| x.abs()).sum::<f32>());
        assert!(b1_grad > 0.0);
        // embeddings frozen because grad_from > 0
        assert!(model.dtok_emb.is_empty() && model.dpos_emb.is_empty());
    }

    #[test]
    fn full_window_reaches_embeddings() {
        // a fresh model: no backward has reached any module yet
        let mut model = tiny_model(6);
        let tokens = tokens_for(&model, 1, 15);
        let fwd = model.forward_exit(&tokens, 1, 1, 0).unwrap();
        let ce = cross_entropy_forward(&fwd.logits, &tokens).unwrap();
        let dl = cross_entropy_backward(&ce, &tokens).unwrap();
        model.backward_exit(&fwd.caches, &dl).unwrap();
        let g: f32 = model.dtok_emb.as_slice().iter().map(|x| x.abs()).sum();
        assert!(g > 0.0);
        let gp: f32 = model.dpos_emb.as_slice().iter().map(|x| x.abs()).sum();
        assert!(gp > 0.0);
    }

    #[test]
    fn visit_all_covers_every_param_once() {
        let mut model = tiny_model(8);
        let mut total = 0usize;
        let mut seen = std::collections::HashSet::new();
        model.visit_params_all(&mut |id, p, _| {
            assert!(seen.insert(id), "duplicate id {id}");
            total += p.len();
        });
        assert_eq!(total, model.num_params());
        // the memory model's per-block count is the walk's
        for block in &model.blocks {
            let mut scalars = 0;
            block.visit_params_ro(&mut |p| scalars += p.len());
            assert_eq!(scalars, model.config().block_param_count());
        }
    }

    #[test]
    fn ro_visitors_mirror_mutable_ids_order_and_content() {
        for tied in [true, false] {
            let mut rng = TensorRng::seed_from(20);
            let cfg = ModelConfig::tiny().with_tied_exits(tied);
            let mut model = EdgeModel::new(cfg, &mut rng).unwrap();
            let mut mutable: Vec<(usize, Vec<f32>)> = Vec::new();
            model.visit_params_all(&mut |id, p, _| mutable.push((id, p.to_vec())));
            let mut ro: Vec<(usize, Vec<f32>)> = Vec::new();
            model.visit_params_all_ro(&mut |id, p| ro.push((id, p.to_vec())));
            assert_eq!(mutable, ro, "tied={tied}");
        }
    }

    #[test]
    fn visit_all_emission_order_is_pinned() {
        // The order ids are *emitted* in is the byte layout of
        // `TrainingCheckpoint`, and it is not ascending: with tied
        // exits the sweep for exit 0 reaches the shared head (the last
        // ids) before the later sweeps add the other exits' norms.
        for tied in [true, false] {
            let mut rng = TensorRng::seed_from(23);
            let cfg = ModelConfig::tiny().with_layers(3).with_tied_exits(tied);
            let mut model = EdgeModel::new(cfg, &mut rng).unwrap();
            let n = model.n_layers();
            // embeddings + blocks (two norms and four biased projections,
            // two slices each), then per exit a 2-slice norm and, untied, a
            // 1-slice bias-free head; tied, one shared head after them all
            let body = 2 + 12 * n;
            let want: Vec<usize> = if tied {
                (0..body + 2)
                    .chain([body + 2 * n])
                    .chain(body + 2..body + 2 * n)
                    .collect()
            } else {
                (0..body + 3 * n).collect()
            };
            let mut ro = Vec::new();
            model.visit_params_all_ro(&mut |id, _| ro.push(id));
            assert_eq!(ro, want, "tied={tied}");
            let mut mutable = Vec::new();
            model.visit_params_all(&mut |id, _, _| mutable.push(id));
            assert_eq!(mutable, want, "tied={tied} (mutable)");
        }
    }

    #[test]
    fn window_ids_are_stable_across_windows() {
        // Every window visit is the full walk restricted to what trains: in
        // ascending id order, the embeddings only from layer 0, the
        // window's blocks and the exit's norm and head (the shared head at
        // every exit when tied), each under the id and with the slice the
        // full walk gives it.
        for tied in [true, false] {
            let cfg = ModelConfig::tiny().with_layers(3).with_tied_exits(tied);
            let mut model = EdgeModel::new(cfg, &mut TensorRng::seed_from(24)).unwrap();
            let n = model.n_layers();
            let mut all = std::collections::HashMap::new();
            model.visit_params_all_ro(&mut |id, p| {
                all.insert(id, p.to_vec());
            });
            // the layout `visit_all_emission_order_is_pinned` pins
            let body = 2 + 12 * n;
            let exit_ids = |l: usize| match tied {
                true => vec![body + 2 * l, body + 2 * l + 1, body + 2 * n],
                false => (body + 3 * l..body + 3 * l + 3).collect(),
            };
            for start in 0..n {
                for end in start + 1..=n {
                    for exit in 0..n {
                        let window = LayerWindow { start, end };
                        let what = format!("tied={tied}, window {start}..{end}, exit {exit}");
                        let embeddings = if start == 0 { 0..2 } else { 0..0 };
                        let want: Vec<usize> = embeddings
                            .chain(2 + 12 * start..2 + 12 * end)
                            .chain(exit_ids(exit))
                            .collect();
                        let mut got = Vec::new();
                        model.visit_params_window(window, exit, &mut |id, p, _| {
                            assert_eq!(p, &all[&id][..], "{what}: slice {id}");
                            got.push(id);
                        });
                        assert_eq!(got, want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn window_visit_skips_frozen_block_caches() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        let mut model = tiny_model(21);
        let scheme = QuantScheme::symmetric(BitWidth::W4);
        for l in 0..model.n_layers() {
            for lin in model.block_mut(l).linears_mut() {
                lin.set_quant(Some(scheme));
            }
        }
        // warm every block's cache with a forward pass
        let tokens = tokens_for(&model, 1, 22);
        model.logits(&tokens, 1).unwrap();
        let cached = |m: &EdgeModel, l: usize| m.block(l).linears()[0].is_packed();
        assert!(cached(&model, 0) && cached(&model, 1));
        // an optimizer pass over window [1, 2) must leave block 0's cache
        model.visit_params_window(LayerWindow { start: 1, end: 2 }, 1, &mut |_, _, _| {});
        assert!(cached(&model, 0), "frozen block cache must survive");
        assert!(!cached(&model, 1), "trained block cache must be dropped");
        // a read-only sweep touches nothing
        model.logits(&tokens, 1).unwrap();
        model.visit_params_all_ro(&mut |_, _| {});
        assert!(cached(&model, 0) && cached(&model, 1));
    }

    #[test]
    fn packed_model_logits_are_bit_identical() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        let mut model = tiny_model(23);
        let scheme = QuantScheme::symmetric(BitWidth::W2);
        for l in 0..model.n_layers() {
            let [qkv, _, fc1, _] = model.block_mut(l).linears_mut();
            qkv.set_quant(Some(scheme));
            fc1.set_quant(Some(scheme));
        }
        let tokens = tokens_for(&model, 1, 24);
        // the dense twin: no scheme, each quantized weight written as its
        // fake-quantized self, so it runs the uncompressed route
        let mut twin = model.clone();
        for l in 0..twin.n_layers() {
            let [qkv, _, fc1, _] = twin.block_mut(l).linears_mut();
            for lin in [qkv, fc1] {
                let w = lin.effective_weight().unwrap().into_owned();
                lin.set_quant(None);
                let mut weight = Some(w.as_slice());
                lin.visit_params(&mut |p, _| {
                    if let Some(w) = weight.take() {
                        p.copy_from_slice(w);
                    }
                });
            }
        }
        let dense = twin.logits(&tokens, 1).unwrap();
        model.pack_frozen_weights().unwrap();
        assert!(model.block(0).linears()[0].is_packed());
        let packed = model.logits(&tokens, 1).unwrap();
        assert_eq!(dense.as_slice(), packed.as_slice());
        // and identical to recomputing every weight: drop the caches first
        model.visit_params_all(&mut |_, _, _| {});
        assert!(!model.block(0).linears()[0].is_packed());
        let baseline = model.logits(&tokens, 1).unwrap();
        assert_eq!(baseline.as_slice(), packed.as_slice());
    }

    #[test]
    fn a_packed_model_stays_packed_through_every_frozen_forward() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        let mut model = tiny_model(26);
        for l in 0..model.n_layers() {
            for lin in model.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
            }
        }
        model.pack_frozen_weights().unwrap();
        let resident = model.decode_weight_bytes();
        let dense_in = |m: &EdgeModel, l: usize| -> Vec<bool> {
            m.block(l).linears().map(Linear::has_cached_weight).to_vec()
        };
        let tokens = tokens_for(&model, 2, 27);
        model.logits(&tokens, 2).unwrap();
        model.logits_at_exits(&tokens, 2, &[0, 1]).unwrap();
        for l in 0..model.n_layers() {
            assert_eq!(dense_in(&model, l), [false; 4], "block {l} after logits");
        }
        // block 0 is the prefix below a window at layer 1; only the
        // training block may materialize its dense weight
        model.forward_exit(&tokens, 2, 1, 1).unwrap();
        assert_eq!(dense_in(&model, 0), [false; 4], "frozen prefix block");
        assert_eq!(dense_in(&model, 1), [true; 4], "training block");
        assert_eq!(model.decode_weight_bytes(), resident);
    }

    #[test]
    fn decode_weight_bytes_shrink_after_packing() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        let mut model = tiny_model(25);
        let before = model.decode_weight_bytes();
        let scheme = QuantScheme::symmetric(BitWidth::W4);
        for l in 0..model.n_layers() {
            for lin in model.block_mut(l).linears_mut() {
                lin.set_quant(Some(scheme));
            }
        }
        assert_eq!(model.decode_weight_bytes(), before);
        let block_bytes = |m: &EdgeModel| -> usize {
            (0..m.n_layers())
                .flat_map(|l| m.block(l).linears())
                .map(Linear::weight_storage_bytes)
                .sum()
        };
        let blocks_dense = block_bytes(&model);
        model.pack_frozen_weights().unwrap();
        let blocks_packed = block_bytes(&model);
        // W4 codes are 8x smaller than f32; per-row scales add some back
        // (significant at the tiny config's short rows)
        assert!(
            blocks_packed * 5 < blocks_dense,
            "packed {blocks_packed} vs dense {blocks_dense}"
        );
        assert!(model.decode_weight_bytes() < before);
        // with activations quantized too the layers move to the integer
        // route and hold its transposed codes instead of the row codes —
        // no layer ever holds both forms
        let one_form = |m: &EdgeModel| {
            m.projections()
                .all(|l| !(l.is_packed() && l.is_int_packed()))
        };
        assert!(one_form(&model));
        let act = QuantScheme::asymmetric(BitWidth::W8);
        for l in 0..model.n_layers() {
            for lin in model.block_mut(l).linears_mut() {
                lin.set_activation_quant(Some(act));
            }
        }
        model.pack_frozen_weights().unwrap();
        assert!(model.block(0).linears()[0].is_int_packed());
        assert!(one_form(&model));
        // W4 codes plus one f32 scale per output channel
        let want: usize = (0..model.n_layers())
            .flat_map(|l| model.block(l).linears())
            .map(|lin| lin.shape().0 * lin.shape().1 / 2 + lin.shape().1 * 4)
            .sum();
        assert_eq!(block_bytes(&model), want);
    }

    #[test]
    fn bad_inputs_error() {
        let model = tiny_model(9);
        let tokens = tokens_for(&model, 1, 16);
        assert!(model.logits(&tokens[..5], 1).is_err());
        assert!(model.forward_exit(&tokens, 1, 99, 0).is_err());
        assert!(model.logits_at_exits(&tokens, 1, &[7]).is_err());
        // an out-of-vocabulary token is refused by type whatever the window:
        // every pass validates it the way the walk does
        let mut hostile = tokens.clone();
        hostile[3] = model.config().vocab_size;
        let last = model.n_layers() - 1;
        for grad_from in 0..=model.n_layers() {
            assert!(
                matches!(
                    model.forward_exit(&hostile, 1, last, grad_from),
                    Err(ModelError::BadConfig { .. })
                ),
                "grad_from {grad_from}"
            );
        }
    }

    /// Every field of every taped layer, and the rows leaving the pass,
    /// to_bits-equal to the training forward the walk replaced, at every
    /// `grad_from` and at threads 1 and 2.
    fn assert_the_walk_tapes_the_reference(model: &EdgeModel, batch: usize, what: &str) {
        use crate::batched::full_window;
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        let (n, seq) = (model.n_layers(), model.config().seq_len);
        // every recorded tensor: name, shape and bits
        let fields = |tape: &BlockTape| -> Vec<(String, (usize, usize), Vec<u32>)> {
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
            let all = tape.fields().into_iter();
            all.map(|(name, shape, xs)| (name, shape, bits(xs)))
                .collect()
        };
        let tokens = tokens_for(model, batch, 71);
        let before = configured_threads();
        for threads in [1usize, 2] {
            set_configured_threads(threads);
            for grad_from in 0..n {
                let what = format!("{what} batch {batch} threads {threads} from {grad_from}");
                let mut x = match grad_from {
                    0 => {
                        let mut rows = Vec::new();
                        for (i, &token) in tokens.iter().enumerate() {
                            let row = model.embed_one(token, i % seq).unwrap();
                            rows.extend_from_slice(row.as_slice());
                        }
                        Tensor::from_vec(tokens.len(), model.config().d_model, rows).unwrap()
                    }
                    _ => {
                        let prefix =
                            model.frozen_forward(&tokens, batch, 0, None, None, grad_from, &[]);
                        prefix.unwrap().0
                    }
                };
                let entry = Entry {
                    from: grad_from,
                    hidden: (grad_from > 0).then_some(x.as_slice()),
                    block: None,
                };
                let mut tape = Vec::new();
                let (rows, _) =
                    full_window(model, &tokens, entry, n, &[], Some(&mut tape)).unwrap();
                assert_eq!(tape.len(), n - grad_from, "{what}: layers taped");
                for (l, got) in (grad_from..n).zip(&tape) {
                    let (y, want) = model.blocks[l].forward_reference(&x, batch, seq).unwrap();
                    let (got, want) = (fields(got), fields(&want));
                    assert_eq!(got.len(), want.len(), "{what}: layer {l} fields");
                    for (got, want) in got.iter().zip(&want) {
                        assert!(got == want, "{what}: layer {l} {} differs", want.0);
                    }
                    x = y;
                }
                assert_eq!(bits(&rows), bits(&x), "{what}: rows leaving the pass");
            }
        }
        set_configured_threads(before);
    }

    #[test]
    fn the_walk_records_the_tape_the_reference_forward_builds() {
        use edge_llm_prune::magnitude_prune;
        use edge_llm_quant::{BitWidth, QuantScheme};
        // Under W4/A8 a frozen layer takes the integer route, so a taped
        // layer that did would show here.
        let cfg = ModelConfig::tiny().with_layers(3);
        let dense = EdgeModel::new(cfg, &mut TensorRng::seed_from(70)).unwrap();
        let (mut masked, mut integer) = (dense.clone(), dense.clone());
        for l in 0..dense.n_layers() {
            for lin in masked.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                let mask = magnitude_prune(lin.weight(), 0.4).unwrap();
                lin.set_mask(Some(mask)).unwrap();
            }
            for lin in integer.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                lin.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
            }
        }
        integer.pack_frozen_weights().unwrap();
        assert!(integer.block(0).linears()[0].int_decode_schemes().is_some());
        let seq = dense.config().seq_len;
        let models = [
            ("dense", &dense),
            ("W4 + 40% mask", &masked),
            ("W4/A8", &integer),
        ];
        for (name, model) in models {
            // the last batch takes two groups of a full-window pass
            for batch in [1, 3, runs_per_group(seq) + 1] {
                assert_the_walk_tapes_the_reference(model, batch, name);
            }
        }
    }

    #[test]
    fn the_walk_tapes_the_reference_at_ragged_lengths() {
        // runs whose lengths are odd or even, past one 32-row panel and
        // off every 16-column strip, so each row block of the triangle
        // ends ragged somewhere
        for seq in [33, 50] {
            let cfg = ModelConfig::tiny().with_layers(2).with_seq_len(seq);
            let model = EdgeModel::new(cfg, &mut TensorRng::seed_from(72)).unwrap();
            for batch in [1, 3] {
                assert_the_walk_tapes_the_reference(&model, batch, &format!("seq {seq}"));
            }
        }
    }

    #[test]
    fn the_triangle_backward_is_the_full_square_one_bit_for_bit() {
        use crate::batched::full_window;
        use edge_llm_prune::magnitude_prune;
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        // Every gradient bit — `dx` and each projection's `dw`/`db` —
        // signed zeros included, against the backward that ran every
        // product over the square. The upstream gradient holds exact
        // zeros of both signs, as an all-masked row or a pruned column
        // would send.
        let before = configured_threads();
        for seq in [8, 33, 50] {
            let cfg = ModelConfig::tiny().with_layers(1).with_seq_len(seq);
            let dense = EdgeModel::new(cfg, &mut TensorRng::seed_from(73)).unwrap();
            let mut masked = dense.clone();
            for lin in masked.block_mut(0).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                let mask = magnitude_prune(lin.weight(), 0.4).unwrap();
                lin.set_mask(Some(mask)).unwrap();
            }
            for (name, model) in [("dense", &dense), ("W4 + 40% mask", &masked)] {
                for batch in [1, 3] {
                    let tokens = tokens_for(model, batch, 74);
                    let mut tape = Vec::new();
                    full_window(model, &tokens, Entry::EMBEDDING, 1, &[], Some(&mut tape)).unwrap();
                    let c = model.config().d_model;
                    let mut rng = TensorRng::seed_from(75);
                    let mut dy = Tensor::randn(batch * seq, c, 1.0, &mut rng);
                    for (i, v) in dy.as_mut_slice().iter_mut().enumerate() {
                        match i % 7 {
                            0 => *v = 0.0,
                            3 => *v = -0.0,
                            _ => {}
                        }
                    }
                    let grads = |attn: &mut crate::Attention| {
                        let mut out = Vec::new();
                        for lin in [&mut attn.qkv, &mut attn.proj] {
                            lin.visit_params(&mut |_, g| {
                                out.extend(g.iter().map(|x| x.to_bits()));
                            });
                        }
                        out
                    };
                    for threads in [1usize, 2] {
                        set_configured_threads(threads);
                        let what = format!("{name} seq {seq} batch {batch} threads {threads}");
                        let mut triangle = model.block(0).attn().clone();
                        let mut square = triangle.clone();
                        let got = triangle.backward(&tape[0], &dy).unwrap();
                        let want = square.backward_reference(&tape[0], &dy).unwrap();
                        assert_eq!(bits(&got), bits(&want), "{what}: dx");
                        assert_eq!(grads(&mut triangle), grads(&mut square), "{what}: grads");
                    }
                }
            }
        }
        set_configured_threads(before);
    }

    #[test]
    fn the_window_bottom_skips_only_what_nothing_reads() {
        // Above layer 0 the window's bottom block computes no input
        // gradient; every parameter gradient stays the unskipped bits.
        // At layer 0 the input gradient is the embeddings'.
        let cfg = ModelConfig::tiny().with_layers(4);
        let model = EdgeModel::new(cfg, &mut TensorRng::seed_from(76)).unwrap();
        let tokens = tokens_for(&model, 2, 77);
        let grads = |m: &mut EdgeModel| {
            let mut out = Vec::new();
            m.visit_params_all(&mut |_, _, g| out.extend(g.iter().map(|x| x.to_bits())));
            out
        };
        for grad_from in 0..4 {
            let exit = 3;
            let fwd = model.forward_exit(&tokens, 2, exit, grad_from).unwrap();
            let ce = cross_entropy_forward(&fwd.logits, &tokens).unwrap();
            let dl = cross_entropy_backward(&ce, &tokens).unwrap();
            let mut skipped = model.clone();
            skipped.backward_exit(&fwd.caches, &dl).unwrap();
            // the same backward with every block's input gradient computed
            let mut full = model.clone();
            let caches = &fwd.caches;
            let dn = full
                .exit_head_mut(exit)
                .backward(&caches.head_cache, &dl)
                .unwrap();
            let norm = &mut full.exits[exit].norm;
            let mut dx = norm.backward(&caches.exit_norm_cache, &dn).unwrap();
            for (l, tape) in (grad_from..exit + 1).zip(&caches.tape).rev() {
                dx = full.blocks[l].backward(tape, &dx).unwrap();
            }
            if grad_from == 0 {
                // the embeddings learn from the bottom block's input gradient
                let g: f32 = skipped.dtok_emb.as_slice().iter().map(|x| x.abs()).sum();
                assert!(g > 0.0, "embeddings reached at grad_from 0");
                // which the reference loop above does not apply: compare
                // the blocks and heads only
                skipped.dtok_emb = Tensor::zeros(0, 0);
                skipped.dpos_emb = Tensor::zeros(0, 0);
            }
            assert_eq!(
                grads(&mut skipped),
                grads(&mut full),
                "grad_from {grad_from}"
            );
        }
    }

    #[test]
    fn a_frozen_pass_split_at_any_layer_is_bit_identical_to_one_pass() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        // Wide enough that a batch of one threads its matmul kernels; a
        // batch of three splits the run axis, and the entering rows with it.
        let cfg = ModelConfig::tiny()
            .with_layers(4)
            .with_d_model(64, 4)
            .with_seq_len(32);
        let dense = EdgeModel::new(cfg, &mut TensorRng::seed_from(30)).unwrap();
        let mut integer = dense.clone();
        for l in 0..integer.n_layers() {
            for lin in integer.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                lin.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
            }
        }
        let before = configured_threads();
        for (name, model) in [("dense", &dense), ("W4/A8", &integer)] {
            let n = model.n_layers();
            let exits: Vec<usize> = (0..n).collect();
            for batch in [1usize, 3] {
                let tokens = tokens_for(model, batch, 31);
                for threads in [1usize, 2] {
                    set_configured_threads(threads);
                    let (hidden, logits) = model
                        .frozen_forward(&tokens, batch, 0, None, None, n, &exits)
                        .unwrap();
                    for k in 0..=n {
                        let what = format!("{name} batch {batch} threads {threads} split {k}");
                        let (mid, low) = model
                            .frozen_forward(&tokens, batch, 0, None, None, k, &exits[..k])
                            .unwrap();
                        let (top, high) = model
                            .frozen_forward(&tokens, batch, k, Some(&mid), None, n, &exits[k..])
                            .unwrap();
                        assert_eq!(bits(&top), bits(&hidden), "{what}: hidden rows");
                        for (e, got) in low.iter().chain(&high).enumerate() {
                            assert_eq!(bits(got), bits(&logits[e]), "{what}: exit {e}");
                        }
                    }
                }
            }
        }
        set_configured_threads(before);
    }

    /// Runs `pass` on a W4 model at two threads with `batch` sequences of
    /// tokens (at three or more the run axis would be split) and asserts it
    /// failed as `want` says without walking a layer: no weight was
    /// quantized.
    fn refused_before_any_walk(
        batch: usize,
        pass: impl Fn(&EdgeModel, &[usize], &Tensor) -> Result<(Tensor, Vec<Tensor>), ModelError>,
        want: impl Fn(&ModelError) -> bool,
    ) {
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        let mut model = tiny_model(32);
        for l in 0..model.n_layers() {
            for lin in model.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
            }
        }
        let tokens = tokens_for(&model, batch, 33);
        let rows = Tensor::zeros(tokens.len(), model.config().d_model);
        let before = configured_threads();
        set_configured_threads(2);
        let got = pass(&model, &tokens, &rows);
        set_configured_threads(before);
        match got {
            Err(e) => assert!(want(&e), "wrong error: {e:?}"),
            Ok(_) => panic!("hostile pass accepted"),
        }
        assert_eq!(model.weight_cache_stats().requants, 0, "a layer was walked");
    }

    #[test]
    fn entering_rows_not_one_per_token_are_refused() {
        refused_before_any_walk(
            3,
            |m, tokens, _| {
                let short = Tensor::zeros(tokens.len() - 1, m.config().d_model);
                m.frozen_forward(tokens, 3, 1, Some(&short), None, 2, &[1])
            },
            |e| matches!(e, ModelError::BadBatch { .. }),
        );
        // as many floats as the right shape holds, in half the rows
        refused_before_any_walk(
            3,
            |m, tokens, _| {
                let wide = Tensor::zeros(tokens.len() / 2, 2 * m.config().d_model);
                m.frozen_forward(tokens, 3, 1, Some(&wide), None, 2, &[1])
            },
            |e| matches!(e, ModelError::BadBatch { .. }),
        );
        // no rows at all above the embedding
        refused_before_any_walk(
            3,
            |m, tokens, _| m.frozen_forward(tokens, 3, 1, None, None, 2, &[1]),
            |e| matches!(e, ModelError::BadBatch { .. }),
        );
    }

    #[test]
    fn entering_rows_of_the_wrong_width_are_refused() {
        refused_before_any_walk(
            3,
            |m, tokens, _| {
                let wide = Tensor::zeros(tokens.len(), m.config().d_model + 1);
                m.frozen_forward(tokens, 3, 1, Some(&wide), None, 2, &[1])
            },
            |e| matches!(e, ModelError::BadBatch { .. }),
        );
    }

    #[test]
    fn an_entry_above_the_depth_is_refused() {
        refused_before_any_walk(
            3,
            |m, tokens, rows| m.frozen_forward(tokens, 3, 2, Some(rows), None, 1, &[]),
            |e| matches!(e, ModelError::LayerOutOfRange { layer: 2, depth: 1 }),
        );
        // an exit below the entry has no rows to read
        refused_before_any_walk(
            3,
            |m, tokens, rows| m.frozen_forward(tokens, 3, 1, Some(rows), None, 2, &[0]),
            |e| matches!(e, ModelError::LayerOutOfRange { layer: 0, .. }),
        );
    }

    #[test]
    fn a_stand_in_block_walks_as_if_installed() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        let cfg = ModelConfig::tiny().with_layers(4);
        let model = EdgeModel::new(cfg, &mut TensorRng::seed_from(50)).unwrap();
        let n = model.n_layers();
        let batch = 3;
        let tokens = tokens_for(&model, batch, 51);
        let before = configured_threads();
        for from in [0, 2] {
            let mut block = model.block(from).clone();
            for lin in block.linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
            }
            let mut installed = model.clone();
            *installed.block_mut(from) = block.clone();
            let exits: Vec<usize> = (from..n).collect();
            for threads in [1usize, 2] {
                set_configured_threads(threads);
                let what = format!("from {from} threads {threads}");
                let entering = (from > 0)
                    .then(|| model.frozen_forward(&tokens, batch, 0, None, None, from, &[]))
                    .transpose()
                    .unwrap()
                    .map(|(rows, _)| rows);
                let pass = |m: &EdgeModel, block| {
                    m.frozen_forward(&tokens, batch, from, entering.as_ref(), block, n, &exits)
                        .unwrap()
                };
                let (h, l) = pass(&model, Some(&block));
                let (want_h, want_l) = pass(&installed, None);
                let (own_h, _) = pass(&model, None);
                assert_eq!(bits(&h), bits(&want_h), "{what}: hidden rows");
                for (e, (got, want)) in l.iter().zip(&want_l).enumerate() {
                    assert_eq!(bits(got), bits(want), "{what}: exit {}", exits[e]);
                }
                assert_ne!(
                    bits(&h),
                    bits(&own_h),
                    "{what}: the stand-in was not walked"
                );
            }
        }
        set_configured_threads(before);
    }

    #[test]
    fn a_stand_in_block_of_another_shape_is_refused() {
        let cfg = ModelConfig::tiny();
        let (c, heads, ff) = (cfg.d_model, cfg.n_heads, cfg.d_ff);
        for (d_model, d_ff) in [(c, ff + 4), (2 * c, ff)] {
            let block = Block::new(d_model, heads, d_ff, &mut TensorRng::seed_from(52));
            refused_before_any_walk(
                3,
                |m, tokens, rows| m.frozen_forward(tokens, 3, 1, Some(rows), Some(&block), 2, &[1]),
                |e| matches!(e, ModelError::BadConfig { .. }),
            );
        }
    }

    #[test]
    fn a_depth_past_the_model_is_refused() {
        refused_before_any_walk(
            3,
            |m, tokens, rows| m.frozen_forward(tokens, 3, 1, Some(rows), None, 3, &[]),
            |e| matches!(e, ModelError::LayerOutOfRange { layer: 2, depth: 2 }),
        );
    }

    #[test]
    fn a_refusal_in_the_last_group_walks_no_group() {
        // two whole groups of runs, then the run that is refused: a pass
        // validated group by group would walk the first two before it
        let batch = 2 * runs_per_group(ModelConfig::tiny().seq_len) + 1;
        refused_before_any_walk(
            batch,
            |m, tokens, _| {
                let mut hostile = tokens.to_vec();
                *hostile.last_mut().unwrap() = m.config().vocab_size;
                m.frozen_forward(&hostile, batch, 0, None, None, 2, &[1])
            },
            |e| matches!(e, ModelError::BadConfig { .. }),
        );
        refused_before_any_walk(
            batch,
            |m, tokens, rows| m.frozen_forward(tokens, batch, 1, Some(rows), None, 2, &[1, 2]),
            |e| matches!(e, ModelError::LayerOutOfRange { layer: 2, depth: 2 }),
        );
    }

    #[test]
    fn a_full_window_pass_is_bit_identical_across_group_boundaries() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        // Long runs keep a group to a few of them.
        let cfg = ModelConfig::tiny().with_layers(3).with_seq_len(64);
        let g = runs_per_group(cfg.seq_len);
        assert!(
            g >= 2,
            "a group must hold several runs for their order to show"
        );
        let dense = EdgeModel::new(cfg, &mut TensorRng::seed_from(40)).unwrap();
        let mut integer = dense.clone();
        for l in 0..integer.n_layers() {
            for lin in integer.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                lin.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
            }
        }
        let before = configured_threads();
        for (name, model) in [("dense", &dense), ("W4/A8", &integer)] {
            let (n, seq, c) = (
                model.n_layers(),
                model.config().seq_len,
                model.config().d_model,
            );
            for batch in [g - 1, g, g + 1, 2 * g + 1] {
                let tokens = tokens_for(model, batch, 41);
                for threads in [1usize, 2] {
                    set_configured_threads(threads);
                    for from in [0, 1] {
                        let what = format!("{name} batch {batch} threads {threads} from {from}");
                        let exits: Vec<usize> = (from..n).collect();
                        // each run alone, entering `from` from its own rows
                        let (mut entering, mut hidden) = (Vec::new(), Vec::new());
                        let mut logits = vec![Vec::new(); exits.len()];
                        for run in tokens.chunks(seq) {
                            let rows = (from > 0)
                                .then(|| model.frozen_forward(run, 1, 0, None, None, from, &[]))
                                .transpose()
                                .unwrap()
                                .map(|(rows, _)| rows);
                            let (h, l) = model
                                .frozen_forward(run, 1, from, rows.as_ref(), None, n, &exits)
                                .unwrap();
                            entering.extend(rows.iter().flat_map(|r| r.as_slice()));
                            hidden.extend(bits(&h));
                            for (acc, l) in logits.iter_mut().zip(&l) {
                                acc.extend(bits(l));
                            }
                        }
                        let entering = (from > 0)
                            .then(|| Tensor::from_vec(tokens.len(), c, entering).unwrap());
                        let (h, l) = model
                            .frozen_forward(
                                &tokens,
                                batch,
                                from,
                                entering.as_ref(),
                                None,
                                n,
                                &exits,
                            )
                            .unwrap();
                        assert_eq!(bits(&h), hidden, "{what}: hidden rows");
                        for (e, (got, want)) in l.iter().zip(&logits).enumerate() {
                            assert_eq!(&bits(got), want, "{what}: exit {}", exits[e]);
                        }
                    }
                }
            }
        }
        set_configured_threads(before);
    }

    /// Gradient floats outside the layer norms (whose `2 · d_model` floats
    /// per norm come with the model): per block, then the exit path (exit
    /// heads and the shared head), then the embeddings.
    fn grad_floats(m: &EdgeModel) -> (Vec<usize>, usize, usize) {
        let linears =
            |ls: &mut dyn Iterator<Item = &Linear>| -> usize { ls.map(Linear::grad_floats).sum() };
        let blocks = m
            .blocks
            .iter()
            .map(|b| linears(&mut b.linears().into_iter()))
            .collect();
        let heads = linears(
            &mut std::iter::once(&m.shared_head).chain(m.exits.iter().flat_map(|e| &e.head)),
        );
        (blocks, heads, m.dtok_emb.len() + m.dpos_emb.len())
    }

    #[test]
    fn gradients_live_only_where_a_backward_reached() {
        use crate::{generate, AdaptiveTuner, Decoding, Sgd, TrainingCheckpoint};
        use crate::{VotingPolicy, WindowSchedule};
        use edge_llm_prune::magnitude_prune;
        use edge_llm_quant::{BitWidth, QuantScheme};
        let cfg = ModelConfig::tiny().with_layers(8);
        let none = (vec![0; cfg.n_layers], 0, 0);
        // served: compressed as a LUC policy installs it, packed, one request
        let mut served = EdgeModel::new(cfg.clone(), &mut TensorRng::seed_from(50)).unwrap();
        for l in 0..served.n_layers() {
            for lin in served.block_mut(l).linears_mut() {
                lin.set_mask(Some(magnitude_prune(lin.weight(), 0.3).unwrap()))
                    .unwrap();
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
            }
        }
        served.pack_frozen_weights().unwrap();
        let voting = VotingPolicy::final_only(served.n_layers());
        let mut rng = TensorRng::seed_from(51);
        generate(&served, &voting, &[1, 2, 3], 4, Decoding::Greedy, &mut rng).unwrap();
        assert_eq!(grad_floats(&served), none, "served model");
        // restored from a checkpoint, whose params are written through
        // `visit_params_all`
        let ckpt = TrainingCheckpoint::capture(&served, &Sgd::new(0.1), 0, &rng, Vec::new());
        assert_eq!(grad_floats(&ckpt.build_model().unwrap()), none, "restored");
        // one tuner step at window [3, 6): blocks 3-5 and the exit path
        let mut model = EdgeModel::new(cfg, &mut TensorRng::seed_from(52)).unwrap();
        let window = LayerWindow { start: 3, end: 6 };
        let mut tuner = AdaptiveTuner::new(WindowSchedule::Ordered(vec![window]));
        let tokens = tokens_for(&model, 2, 53);
        tuner
            .step(&mut model, &mut Sgd::new(0.1), &tokens, &tokens, 2)
            .unwrap();
        let (blocks, heads, embeddings) = grad_floats(&model);
        for (l, &g) in blocks.iter().enumerate() {
            assert_eq!(
                g > 0,
                window.contains(l),
                "block {l} holds {g} gradient floats"
            );
        }
        assert!(
            heads > 0 && embeddings == 0,
            "heads {heads}, embeddings {embeddings}"
        );
    }

    #[test]
    fn untied_exits_have_private_heads() {
        let mut rng = TensorRng::seed_from(10);
        let cfg = ModelConfig::tiny().with_tied_exits(false);
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tied = EdgeModel::new(cfg.clone().with_tied_exits(true), &mut rng).unwrap();
        // every exit owns a head in place of the one shared head, which no
        // untied exit projects through and no checkpoint stores
        let head = cfg.d_model * cfg.vocab_size;
        assert_eq!(
            model.num_params(),
            tied.num_params() + (cfg.n_layers - 1) * head
        );
    }
}
