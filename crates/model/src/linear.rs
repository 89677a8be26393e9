use crate::error::ModelError;
use edge_llm_prune::PruneMask;
use edge_llm_quant::{
    fake_quant, packed_decode_matmul, packed_gemm_supported, quantize_activations, QuantScheme,
    QuantizedTensor,
};
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{
    add_bias_backward, add_bias_forward, matmul_a_bt, matmul_at_b, matmul_fill_b_with, Tensor,
    TensorRng,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A fully-connected layer `y = x · W + b` with explicit gradients and
/// optional per-layer compression state.
///
/// The weight is stored as `(d_in, d_out)`. Compression hooks:
///
/// * a [`PruneMask`] keeps pruned weights (and their gradients) at zero,
/// * a [`QuantScheme`] makes the forward pass use the fake-quantized weight
///   while gradients flow via the straight-through estimator — the
///   identity, since each row's range is fitted to that row.
///
/// These are exactly the per-layer knobs a LUC policy assigns.
///
/// The gradients `dw` / `db` exist from the first [`Linear::backward`] on:
/// a layer no backward has reached — every layer of a served model, and
/// every frozen layer of a windowed run until its window comes — holds
/// none, and [`Linear::visit_params`] hands it an empty gradient slice.
///
/// # Compressed-weight cache
///
/// Masking + fake-quantizing the whole weight on every forward call wastes
/// the one property Edge-LLM's compressed layers have: they are *frozen*
/// almost all of the time (only the layers inside the adaptive tuning
/// window change per iteration, and at inference nothing changes at all).
/// A compressed layer therefore computes its frozen forwards from packed
/// integer codes, which the first frozen forward after a mutation builds,
/// in the **one** orientation its route reads: transposed codes for the
/// integer GEMM ([`Linear::int_decode_schemes`]), row codes for the
/// row-dequantizing f32 kernel otherwise. Only [`Linear::forward`] — the
/// taped window — holds a dense effective weight; it dequantizes the row
/// codes when the layer holds them, which reproduces `fake_quant` bit for
/// bit, so a layer entering the window re-quantizes nothing.
///
/// Every mutation path (`visit_params`, `set_mask` / `set_quant` /
/// `set_activation_quant`, and a route flip) drops both forms, so cached
/// results are **bit-identical** to recomputing the effective weight on
/// every call — the invariant the staleness tests in `tests/weight_cache.rs`
/// pin down. Each form has one builder per fill: forwards that share the
/// layer across the chunks of a multi-worker pass wait for the chunk
/// building it, so the layer decides alone when its weight is quantized,
/// once per mutation at any worker count.
///
/// The mask invariant is held at the write: `set_mask` masks the weight
/// it installs on, and `visit_params` — the one path optimizer steps and
/// checkpoint restores write through — re-masks after its visitor runs.
/// Those are the only writes, so a pruned weight is always `+0.0`, and
/// every quantization grid maps `+0.0` to `+0.0`: no frozen route reads
/// the mask. A layer nobody visits is never touched.
///
/// # One frozen forward
///
/// A layer that is not training runs through [`Linear::forward_no_cache`],
/// which picks its route in one `match` — and it has one caller shape: the
/// KV-cached layer walk in `crate::batched`, which every decode row, the
/// tuner's blocks below the window, evaluation, the voting fit and LUC's
/// probes all take (a full-window forward is `batch` runs of `seq_len`
/// positions on scratch K/V). [`Linear::forward`] is for layers inside the
/// window and the exit head being trained, nothing else; so a packed layer
/// is never asked for its dense weight by a forward that will not train
/// it, and an integer-eligible layer is evaluated on the route it serves.
/// Every [`QuantScheme`] is fitted **per row**, so an activation scheme
/// quantizes one token's activations at a time, in training and frozen
/// forwards alike: a row's output never depends on which other rows share
/// the call, so a batched decode step equals a solo session bit for bit
/// and the full-window forward *is* decode.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Tensor,
    b: Vec<f32>,
    /// Empty until the first backward (see the type docs), as is `db`.
    dw: Tensor,
    db: Vec<f32>,
    mask: Option<PruneMask>,
    quant: Option<QuantScheme>,
    act_quant: Option<QuantScheme>,
    wcache: WeightCache,
    int_decode_enabled: bool,
    counters: CacheCounters,
}

/// Telemetry tallies for the compressed-weight datapath. Atomics because
/// the immutable forward paths (shared across batched-decode workers)
/// bump them through `&self`; purely observational — they never influence
/// computed values.
#[derive(Debug, Default)]
struct CacheCounters {
    /// Re-quantizations of the full weight: code builds and fake-quantized
    /// effective weights.
    requants: AtomicU64,
    /// Cache evictions that actually dropped a cached form.
    invalidations: AtomicU64,
}

impl Clone for CacheCounters {
    fn clone(&self) -> Self {
        CacheCounters {
            requants: AtomicU64::new(self.requants.load(Ordering::Relaxed)),
            invalidations: AtomicU64::new(self.invalidations.load(Ordering::Relaxed)),
        }
    }
}

/// Lazily-populated derived forms of the weight, one [`Slot`] each. A
/// slot has exactly one builder per fill: the immutable forward paths
/// (shared across the chunks of a multi-worker pass) fill it through
/// `OnceLock::get_or_init`, so a chunk that meets a slot another chunk is
/// building waits for that build instead of repeating it. A failed build
/// is held until the next mutation, as a built form is — the weight it
/// failed on cannot change before then — and counts one re-quantization
/// but no eviction. Every mutating method clears both slots by replacing
/// them.
#[derive(Debug, Clone, Default)]
struct WeightCache {
    /// The weight as packed codes, read by the frozen route: the
    /// *transposed* weight (one symmetric scale per **output channel**) on
    /// the integer decode route, the stored weight (one grid per input
    /// row) on the row-dequantizing f32 route. It holds the layer's
    /// resident weight bytes at the LUC policy's bit-width ratio.
    codes: Slot<QuantizedTensor>,
    /// The dense effective (fake-quantized) weight, read only by
    /// [`Linear::forward`].
    dense: Slot<Tensor>,
}

/// One cached weight form, or the error its one build failed with. Boxed
/// so a `Linear` stays as wide as one caching the bare `Arc` (224 bytes
/// on x86-64, 320 unboxed): the wider layout alone raised both adaptation
/// benchmarks' peak RSS by about 3%, through allocation order.
type Slot<T> = OnceLock<Box<Result<Arc<T>, ModelError>>>;

/// The form a slot holds, if its build succeeded.
fn held<T>(slot: &Slot<T>) -> Option<&T> {
    slot.get()?.as_deref().ok()
}

/// Activations cached by [`Linear::forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct LinearCache {
    /// The input the matmul saw, one row per token.
    pub(crate) x: Tensor,
    w_eff: Option<Arc<Tensor>>,
}

impl LinearCache {
    /// Approximate bytes held alive by this cache.
    pub fn bytes(&self) -> usize {
        let w = self.w_eff.as_ref().map_or(0, |t| t.len() * 4);
        self.x.len() * 4 + w
    }
}

impl Linear {
    /// Creates a layer with Kaiming-initialized weights and zero bias.
    pub fn new(d_in: usize, d_out: usize, rng: &mut TensorRng) -> Self {
        Linear {
            w: Tensor::kaiming(d_in, d_out, rng),
            b: vec![0.0; d_out],
            dw: Tensor::zeros(0, 0),
            db: Vec::new(),
            mask: None,
            quant: None,
            act_quant: None,
            wcache: WeightCache::default(),
            int_decode_enabled: true,
            counters: CacheCounters::default(),
        }
    }

    /// A copy for a frozen walk: weight, bias, mask and schemes, without
    /// the gradient buffers only a backward reads, and nothing cached.
    pub(crate) fn frozen_copy(&self) -> Self {
        Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            dw: Tensor::zeros(0, 0),
            db: Vec::new(),
            mask: self.mask.clone(),
            wcache: WeightCache::default(),
            counters: CacheCounters::default(),
            ..*self
        }
    }

    /// Creates a bias-free layer (used for the unembedding head).
    pub fn new_no_bias(d_in: usize, d_out: usize, rng: &mut TensorRng) -> Self {
        let mut l = Self::new(d_in, d_out, rng);
        l.b.clear();
        l
    }

    /// `(d_in, d_out)`.
    pub fn shape(&self) -> (usize, usize) {
        self.w.shape()
    }

    /// Read access to the weight.
    pub fn weight(&self) -> &Tensor {
        &self.w
    }

    /// Installs (or clears) a pruning mask; the weight is masked immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Compression`] if the mask shape differs.
    pub fn set_mask(&mut self, mask: Option<PruneMask>) -> Result<(), ModelError> {
        if let Some(m) = &mask {
            m.apply(&mut self.w)?;
        }
        self.mask = mask;
        self.invalidate_weight_cache();
        Ok(())
    }

    /// Installs (or clears) a fake-quantization scheme for the forward pass.
    pub fn set_quant(&mut self, quant: Option<QuantScheme>) {
        self.quant = quant;
        self.invalidate_weight_cache();
    }

    /// Installs (or clears) an *activation* fake-quantization scheme: each
    /// input row is quantize-dequantized on its own grid before the
    /// matmul, modelling a fully integer datapath. Use an asymmetric
    /// scheme (activations are not zero-centred); because the fitted range
    /// covers the row, the straight-through backward is exactly the
    /// identity.
    pub fn set_activation_quant(&mut self, act_quant: Option<QuantScheme>) {
        self.act_quant = act_quant;
        // The weight cache does not depend on the activation scheme, but a
        // scheme change redefines the layer's datapath; drop derived state
        // conservatively rather than reason about which parts survive.
        self.invalidate_weight_cache();
    }

    /// The installed mask, if any.
    pub fn mask(&self) -> Option<&PruneMask> {
        self.mask.as_ref()
    }

    /// The installed quantization scheme, if any.
    pub fn quant(&self) -> Option<QuantScheme> {
        self.quant
    }

    /// Enables or disables the packed integer-GEMM decode route (enabled
    /// by default). Disabling falls back to the f32 routes
    /// (fake-quantized activations x dequantized weight panels) — the
    /// baseline the decode benchmarks compare against. Layers outside
    /// [`Linear::int_decode_schemes`] eligibility ignore the flag; on an
    /// eligible layer a flip moves it to the other route, whose codes lie
    /// in the other orientation, so the cached forms are dropped and the
    /// next frozen forward builds the new route's codes.
    pub fn set_integer_decode_enabled(&mut self, enabled: bool) {
        let before = self.int_decode_schemes();
        self.int_decode_enabled = enabled;
        if before != self.int_decode_schemes() {
            self.invalidate_weight_cache();
        }
    }

    /// The `(weight, activation)` schemes of the integer decode route, or
    /// `None` when this layer stays on the f32 paths.
    ///
    /// Eligible layers carry a symmetric per-row weight scheme **and** an
    /// asymmetric per-row activation scheme, both at ≤ 8-bit codes
    /// ([`packed_gemm_supported`]) — i.e. layers whose LUC policy already
    /// models a fully integer datapath. Weight-only or activation-only
    /// layers keep their existing f32 routes bit-for-bit.
    pub fn int_decode_schemes(&self) -> Option<(QuantScheme, QuantScheme)> {
        if !self.int_decode_enabled {
            return None;
        }
        match (self.quant, self.act_quant) {
            (Some(w), Some(a)) if packed_gemm_supported(w, a) => Some((w, a)),
            _ => None,
        }
    }

    /// Whether the weight is held as the integer route's transposed codes.
    pub fn is_int_packed(&self) -> bool {
        held(&self.wcache.codes).is_some() && self.int_decode_schemes().is_some()
    }

    /// Whether a dense effective weight is currently cached (test hook for
    /// the staleness suite).
    pub fn has_cached_weight(&self) -> bool {
        held(&self.wcache.dense).is_some()
    }

    /// Whether the weight is held as packed row codes (the f32
    /// row-dequantizing route's form).
    pub fn is_packed(&self) -> bool {
        self.row_codes().is_some()
    }

    /// The codes the layer holds, when they are row codes.
    fn row_codes(&self) -> Option<&QuantizedTensor> {
        held(&self.wcache.codes).filter(|_| self.int_decode_schemes().is_none())
    }

    /// Bytes the decode path keeps resident for this layer's weight: its
    /// codes plus their per-row metadata once it holds them, the dense f32
    /// weight otherwise.
    pub fn weight_storage_bytes(&self) -> usize {
        let codes = held(&self.wcache.codes);
        codes.map_or(self.w.len() * 4, QuantizedTensor::storage_bytes)
    }

    fn invalidate_weight_cache(&mut self) {
        let WeightCache { codes, dense } = std::mem::take(&mut self.wcache);
        if held(&codes).is_some() || held(&dense).is_some() {
            self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Times this layer re-quantized its full weight — built its codes or
    /// fake-quantized its effective weight; dequantizing held codes is not
    /// one. Monotonic over the layer's lifetime; the tuner reports
    /// per-step deltas.
    pub fn requant_count(&self) -> u64 {
        self.counters.requants.load(Ordering::Relaxed)
    }

    /// Cache invalidations that actually evicted a cached weight form.
    pub fn cache_invalidation_count(&self) -> u64 {
        self.counters.invalidations.load(Ordering::Relaxed)
    }

    /// Builds now the codes the layer's first frozen forward would build
    /// (see the type docs). A no-op for a layer without a weight scheme or
    /// one that holds its codes already.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Compression`] if quantization fails (e.g.
    /// non-finite weights).
    pub fn pack_weights(&self) -> Result<(), ModelError> {
        match self.quant {
            Some(scheme) => self.codes(scheme).map(drop),
            None => Ok(()),
        }
    }

    /// The codes the frozen route reads, quantized under the weight
    /// `scheme` at most once per mutation; each build is a full
    /// re-quantization. On the integer route they are the **transposed**
    /// weight (`d_out x d_in`, so symmetric per-row scales land on output
    /// channels and hoist out of the reduction); a pruned weight is
    /// already `+0.0` in `w` and maps to the zero-point code, so it adds
    /// exactly nothing to the integer accumulation. That grid is the
    /// canonical numerics of the integer decode route (DESIGN.md §5k): the
    /// stored `(d_in, d_out)` orientation's per-*input*-row scales, which
    /// the row codes and the fake-quant weight use, cannot be hoisted out
    /// of an integer accumulation at all.
    fn codes(&self, scheme: QuantScheme) -> Result<&QuantizedTensor, ModelError> {
        let quantize = || -> Result<_, ModelError> {
            self.counters.requants.fetch_add(1, Ordering::Relaxed);
            let _span = telemetry::span("model.requant");
            let q = match self.int_decode_schemes() {
                Some(_) => QuantizedTensor::quantize(&self.w.transpose(), scheme)?,
                None => QuantizedTensor::quantize(&self.w, scheme)?,
            };
            Ok(Arc::new(q))
        };
        let built = self.wcache.codes.get_or_init(|| Box::new(quantize()));
        built.as_deref().map_err(ModelError::clone)
    }

    /// The weight actually used by the forward pass: fake-quantized when a
    /// scheme is installed, in which pruned weights stay `+0.0`. Borrows
    /// the stored weight when no scheme is installed — the uncompressed
    /// path allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Compression`] if fake quantization fails.
    pub fn effective_weight(&self) -> Result<Cow<'_, Tensor>, ModelError> {
        let Some(scheme) = self.quant else {
            return Ok(Cow::Borrowed(&self.w));
        };
        self.counters.requants.fetch_add(1, Ordering::Relaxed);
        let _span = telemetry::span("model.requant");
        Ok(Cow::Owned(fake_quant(&self.w, scheme)?))
    }

    /// [`Linear::effective_weight`] through the cache: computed at most
    /// once per mutation, shared via `Arc` — the operand of
    /// [`Linear::forward`] and of nothing else. A layer holding row codes
    /// dequantizes them, which is `fake_quant`'s bits without a second
    /// quantization. Without a scheme installed it is a fresh copy of the
    /// stored weight, which a cache would only duplicate.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Compression`] if fake quantization fails.
    pub fn cached_effective_weight(&self) -> Result<Arc<Tensor>, ModelError> {
        if self.quant.is_none() {
            return Ok(Arc::new(self.effective_weight()?.into_owned()));
        }
        let build = || -> Result<_, ModelError> {
            Ok(Arc::new(match self.row_codes() {
                Some(q) => q.dequantize(),
                None => self.effective_weight()?.into_owned(),
            }))
        };
        let built = self.wcache.dense.get_or_init(|| Box::new(build()));
        (**built).clone()
    }

    /// Forward pass, caching what the backward pass needs: the cache keeps
    /// the input it is given (or, under an activation scheme, its
    /// fake-quantized form) without a copy.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels.
    pub fn forward(&self, x: Tensor) -> Result<(Tensor, LinearCache), ModelError> {
        let x = self.effective_input(Cow::Owned(x))?.into_owned();
        let (y, w_eff) = match self.quant {
            Some(_) => {
                let w = self.cached_effective_weight()?;
                (x.matmul(w.as_ref())?, Some(w))
            }
            None => (x.matmul(&self.w)?, None),
        };
        let y = self.add_bias(y)?;
        Ok((y, LinearCache { x, w_eff }))
    }

    /// The input the f32 matmuls see: fake-quantized under an installed
    /// activation scheme, each row — one token's activations — on its own
    /// grid, and `x` itself otherwise. This is the only place a scheme
    /// meets f32 activations; the integer route's [`quantize_activations`]
    /// fits the same grids.
    fn effective_input<'a>(&self, x: Cow<'a, Tensor>) -> Result<Cow<'a, Tensor>, ModelError> {
        match self.act_quant {
            Some(scheme) => Ok(Cow::Owned(fake_quant(&x, scheme)?)),
            None => Ok(x),
        }
    }

    /// Forward pass without retaining activations — the one projection
    /// every layer that is not training runs through, always from the
    /// layer walk in `crate::batched` or an exit head. Output row `r` is
    /// bit-identical to calling this on row `r` alone: the kernels
    /// accumulate each output element in a fixed order independent of the
    /// row count and activations are quantized per row, which is what
    /// batched serving, speculative chunks and per-row adapter deltas lean
    /// on. Every route is bit-identical to recomputing its operand from the
    /// stored weight on every call.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels.
    pub fn forward_no_cache(&self, x: &Tensor) -> Result<Tensor, ModelError> {
        let y = match (self.int_decode_schemes(), self.quant) {
            // Integer GEMM: per-row activation codes against the packed
            // transposed weight words.
            (Some((ws, act)), _) => {
                let x_q = {
                    let _span = telemetry::span("model.act_quant");
                    quantize_activations(x, act)?
                };
                let codes = self.codes(ws)?;
                let _span = telemetry::span("model.pgemm");
                packed_decode_matmul(&x_q, codes, 0)?
            }
            // Row codes, dequantized panel by panel inside the kernel.
            (None, Some(scheme)) => {
                let q = self.codes(scheme)?;
                self.packed_matmul(self.effective_input(Cow::Borrowed(x))?.as_ref(), q)?
            }
            (None, None) => self.effective_input(Cow::Borrowed(x))?.matmul(&self.w)?,
        };
        self.add_bias(y)
    }

    fn add_bias(&self, y: Tensor) -> Result<Tensor, ModelError> {
        if self.b.is_empty() {
            Ok(y)
        } else {
            Ok(add_bias_forward(&y, &self.b)?)
        }
    }

    /// `x · W_eff` where the weight lives as packed codes: `TILE`-row
    /// panels are dequantized on demand inside the kernel, so the dense
    /// weight never materializes. Bit-identical to
    /// `x.matmul(&effective_weight())` because panel dequantization
    /// reproduces `fake_quant` bit-for-bit and the kernel preserves the
    /// per-element accumulation order.
    fn packed_matmul(&self, x: &Tensor, q: &QuantizedTensor) -> Result<Tensor, ModelError> {
        let (rows, cols) = self.w.shape();
        let fill = |p0: usize, panel: &mut [f32]| {
            for (r, row) in panel.chunks_mut(cols).enumerate() {
                q.dequantize_row_into(p0 + r, row);
            }
        };
        Ok(matmul_fill_b_with(x, rows, cols, 0, &fill)?)
    }

    /// Backward pass: accumulates `dw`/`db`, allocating them zeroed on the
    /// first call, and returns `dx`.
    ///
    /// Pruned positions receive zero gradient; with quantization installed
    /// the weight gradient passes straight through the quantizer, which
    /// clips nothing (its range is fitted to the weight it quantizes).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernels.
    pub fn backward(&mut self, cache: &LinearCache, dy: &Tensor) -> Result<Tensor, ModelError> {
        let w_used: &Tensor = match &cache.w_eff {
            Some(w) => w,
            None => &self.w,
        };
        let dx = matmul_a_bt(dy, w_used)?;
        let mut dw = matmul_at_b(&cache.x, dy)?;
        if let Some(m) = &self.mask {
            m.apply(&mut dw)?;
        }
        let (d_in, d_out) = self.w.shape();
        grad_buffer(&mut self.dw, d_in, d_out).axpy(1.0, &dw)?;
        if !self.b.is_empty() {
            let db = add_bias_backward(dy);
            self.db.resize(self.b.len(), 0.0);
            for (acc, g) in self.db.iter_mut().zip(db.iter()) {
                *acc += g;
            }
        }
        Ok(dx)
    }

    /// Visits `(param, grad)` slice pairs in a stable order (weight, then
    /// bias). Optimizers use this to update parameters without owning them.
    /// A layer no backward has reached hands an empty gradient slice; the
    /// visit allocates none. Invalidates the compressed-weight cache — the
    /// visitor may write the parameters — so callers that only *read*
    /// should use [`Linear::visit_params_ro`]. Pruned weights are set back
    /// to `+0.0` after the visitor runs, whatever it wrote there.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.invalidate_weight_cache();
        f(self.w.as_mut_slice(), self.dw.as_mut_slice());
        if let Some(m) = &self.mask {
            for (v, &k) in self.w.as_mut_slice().iter_mut().zip(m.as_slice()) {
                *v = if k { *v } else { 0.0 };
            }
        }
        if !self.b.is_empty() {
            f(&mut self.b, &mut self.db);
        }
    }

    /// Read-only mirror of [`Linear::visit_params`]: identical slice order,
    /// shared borrows, and no cache invalidation. Checkpoint capture and
    /// model serialization use this so saving never forces the next forward
    /// pass to re-quantize.
    pub fn visit_params_ro(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.w.as_slice());
        if !self.b.is_empty() {
            f(&self.b);
        }
    }
}

/// A gradient accumulator of `(rows, cols)`, allocated zeroed by the first
/// backward that accumulates into it: adding onto zeros keeps every
/// accumulated bit what an accumulator built with the model held.
pub(crate) fn grad_buffer(grad: &mut Tensor, rows: usize, cols: usize) -> &mut Tensor {
    if grad.is_empty() {
        *grad = Tensor::zeros(rows, cols);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_prune::magnitude_prune;
    use edge_llm_quant::BitWidth;

    impl Linear {
        /// Gradient floats held, `dw` and `db`: none until a backward
        /// reaches the layer.
        pub(crate) fn grad_floats(&self) -> usize {
            self.dw.len() + self.db.len()
        }
    }

    impl LinearCache {
        /// A cache with nothing recorded, for a reference forward to fill.
        pub(crate) fn empty() -> Self {
            LinearCache {
                x: Tensor::zeros(0, 0),
                w_eff: None,
            }
        }

        /// The effective weight the backward multiplies by, when it is not
        /// the layer's own.
        pub(crate) fn weight(&self) -> Option<&Tensor> {
            self.w_eff.as_deref()
        }
    }

    #[test]
    fn forward_matches_manual() {
        let mut rng = TensorRng::seed_from(1);
        let mut l = Linear::new(3, 2, &mut rng);
        l.w.as_mut_slice()
            .copy_from_slice(&[1., 0., 0., 1., 1., 1.]);
        l.b.copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(1, 3, vec![2., 3., 4.]).unwrap();
        let (y, _) = l.forward(x.clone()).unwrap();
        assert_eq!(y.as_slice(), &[2. + 4. + 0.5, 3. + 4. - 0.5]);
    }

    #[test]
    fn backward_grad_shapes_and_accumulation() {
        let mut rng = TensorRng::seed_from(2);
        let mut l = Linear::new(4, 3, &mut rng);
        // no gradient until a backward reaches the layer
        assert!(l.dw.is_empty() && l.db.is_empty());
        let x = Tensor::randn(5, 4, 1.0, &mut rng);
        let (_, cache) = l.forward(x.clone()).unwrap();
        let dy = Tensor::randn(5, 3, 1.0, &mut rng);
        let dx = l.backward(&cache, &dy).unwrap();
        assert_eq!(dx.shape(), (5, 4));
        assert_eq!((l.dw.shape(), l.db.len()), ((4, 3), 3));
        let g1 = l.dw.clone();
        l.backward(&cache, &dy).unwrap();
        // gradients accumulate
        assert!(l.dw.approx_eq(&g1.scale(2.0), 1e-5));
    }

    #[test]
    fn mask_zeroes_weights_and_grads() {
        let mut rng = TensorRng::seed_from(3);
        let mut l = Linear::new(8, 8, &mut rng);
        let mask = magnitude_prune(l.weight(), 0.5).unwrap();
        l.set_mask(Some(mask.clone())).unwrap();
        // weights masked immediately
        for r in 0..8 {
            for c in 0..8 {
                if !mask.is_kept(r, c) {
                    assert_eq!(l.weight().get(r, c), 0.0);
                }
            }
        }
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let (_, cache) = l.forward(x.clone()).unwrap();
        let dy = Tensor::randn(2, 8, 1.0, &mut rng);
        l.backward(&cache, &dy).unwrap();
        for r in 0..8 {
            for c in 0..8 {
                if !mask.is_kept(r, c) {
                    assert_eq!(l.dw.get(r, c), 0.0, "pruned grad must be zero");
                }
            }
        }
    }

    #[test]
    fn quantized_forward_uses_quantized_weight() {
        let mut rng = TensorRng::seed_from(4);
        let mut l = Linear::new(8, 8, &mut rng);
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let y_fp = l.forward_no_cache(&x).unwrap();
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W2)));
        let y_q = l.forward_no_cache(&x).unwrap();
        assert!(
            !y_fp.approx_eq(&y_q, 1e-4),
            "2-bit quantization must perturb outputs"
        );
    }

    #[test]
    fn activation_quant_perturbs_outputs() {
        let mut rng = TensorRng::seed_from(7);
        let mut l = Linear::new(8, 8, &mut rng);
        let x = Tensor::randn(3, 8, 1.0, &mut rng);
        let clean = l.forward_no_cache(&x).unwrap();
        l.set_activation_quant(Some(QuantScheme::asymmetric(edge_llm_quant::BitWidth::W2)));
        let quantized = l.forward_no_cache(&x).unwrap();
        assert!(!clean.approx_eq(&quantized, 1e-4));
        // at 8 bits the perturbation is small
        l.set_activation_quant(Some(QuantScheme::asymmetric(edge_llm_quant::BitWidth::W8)));
        let fine = l.forward_no_cache(&x).unwrap();
        assert!(clean.approx_eq(&fine, 0.05));
    }

    #[test]
    fn activation_quant_backward_uses_quantized_input() {
        let mut rng = TensorRng::seed_from(8);
        let mut l = Linear::new(4, 4, &mut rng);
        l.set_activation_quant(Some(QuantScheme::asymmetric(edge_llm_quant::BitWidth::W4)));
        let x = Tensor::randn(2, 4, 1.0, &mut rng);
        let (_, cache) = l.forward(x.clone()).unwrap();
        let dy = Tensor::ones(2, 4);
        let dx = l.backward(&cache, &dy).unwrap();
        assert_eq!(dx.shape(), (2, 4));
        // dW = x_qᵀ·dy with the quantized input
        let xq =
            edge_llm_quant::fake_quant(&x, QuantScheme::asymmetric(edge_llm_quant::BitWidth::W4))
                .unwrap();
        let expect = edge_llm_tensor::matmul_at_b(&xq, &dy).unwrap();
        assert!(l.dw.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn quantized_backward_accumulates_exactly_the_masked_xt_dy() {
        // Every quantizer range is fitted to the row it covers, so no
        // weight lies outside it and the straight-through weight gradient
        // of a masked, quantized layer is `mask ⊙ (x̂ᵀ·dy)` to the bit,
        // where `x̂` is the input the forward saw.
        let mut rng = TensorRng::seed_from(22);
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            for act in [None, Some(QuantScheme::asymmetric(BitWidth::W4))] {
                let mut l = Linear::new(12, 10, &mut rng);
                let mask = magnitude_prune(l.weight(), 0.4).unwrap();
                l.set_mask(Some(mask.clone())).unwrap();
                l.set_quant(Some(QuantScheme::symmetric(bits)));
                l.set_activation_quant(act);
                let x = Tensor::randn(5, 12, 1.0, &mut rng);
                let dy = Tensor::randn(5, 10, 1.0, &mut rng);
                let (_, cache) = l.forward(x.clone()).unwrap();
                l.backward(&cache, &dy).unwrap();
                let x_seen = match act {
                    Some(s) => fake_quant(&x, s).unwrap(),
                    None => x,
                };
                let mut want = matmul_at_b(&x_seen, &dy).unwrap();
                mask.apply(&mut want).unwrap();
                // accumulated onto a zeroed gradient
                want.as_mut_slice().iter_mut().for_each(|g| *g += 0.0);
                let raw = |t: &Tensor| t.as_slice().iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(raw(&l.dw), raw(&want), "{bits}, activations {act:?}");
            }
        }
    }

    #[test]
    fn no_bias_layer_visits_one_param() {
        let mut rng = TensorRng::seed_from(5);
        let mut l = Linear::new_no_bias(4, 4, &mut rng);
        let mut lens = Vec::new();
        l.visit_params(&mut |p, _| lens.push(p.len()));
        let mut lens_ro = Vec::new();
        l.visit_params_ro(&mut |p| lens_ro.push(p.len()));
        assert_eq!((lens, lens_ro), (vec![16], vec![16]));
    }

    #[test]
    fn visit_params_leaves_pruned_weights_at_positive_zero() {
        let mut rng = TensorRng::seed_from(6);
        let mut l = Linear::new(6, 6, &mut rng);
        let mask = magnitude_prune(l.weight(), 0.5).unwrap();
        l.set_mask(Some(mask.clone())).unwrap();
        // a visitor that writes everywhere, pruned positions included
        let written = [1.0, -0.0, f32::NAN, -2.5];
        let at = |i: usize| written[i % written.len()];
        l.visit_params(&mut |p, _| {
            for (i, v) in p.iter_mut().enumerate() {
                *v = at(i);
            }
        });
        for (i, (&v, &k)) in l
            .weight()
            .as_slice()
            .iter()
            .zip(mask.as_slice())
            .enumerate()
        {
            let want = if k { at(i) } else { 0.0 };
            assert_eq!(v.to_bits(), want.to_bits(), "weight {i}, kept {k}");
        }
        // the bias has no mask: written through untouched
        assert!(l
            .b
            .iter()
            .enumerate()
            .all(|(i, b)| b.to_bits() == at(i).to_bits()));
    }

    #[test]
    fn uncompressed_effective_weight_borrows() {
        let mut rng = TensorRng::seed_from(11);
        let l = Linear::new(4, 4, &mut rng);
        assert!(matches!(
            l.effective_weight().unwrap(),
            Cow::Borrowed(w) if std::ptr::eq(w, l.weight())
        ));
    }

    #[test]
    fn cache_populates_lazily_and_matches_fresh() {
        let mut rng = TensorRng::seed_from(12);
        let mut l = Linear::new(8, 8, &mut rng);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        assert!(!l.is_packed() && !l.has_cached_weight());
        let x = Tensor::randn(2, 8, 1.0, &mut rng);
        let y = l.forward_no_cache(&x).unwrap();
        // the frozen route builds its codes, once, and no dense copy
        assert!(l.is_packed() && !l.has_cached_weight());
        assert_eq!(l.requant_count(), 1);
        // the dense weight is the codes dequantized, with no second
        // quantization, and carries fake_quant's bits
        let dense = l.cached_effective_weight().unwrap();
        assert_eq!(l.requant_count(), 1);
        assert_eq!(dense.as_slice(), l.effective_weight().unwrap().as_slice());
        // repeated forwards hit the cache and stay bit-identical
        let before = l.requant_count();
        assert_eq!(y.as_slice(), l.forward_no_cache(&x).unwrap().as_slice());
        assert_eq!(l.requant_count(), before);
    }

    #[test]
    fn every_mutation_path_invalidates() {
        let mut rng = TensorRng::seed_from(13);
        let mut l = Linear::new(8, 8, &mut rng);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        let warm = |l: &Linear| {
            let _ = l.cached_effective_weight().unwrap();
            let _ = l.pack_weights();
            // one code form, whichever the layer's route reads
            assert!(l.has_cached_weight() && (l.is_packed() != l.is_int_packed()));
        };
        warm(&l);
        l.visit_params(&mut |_, _| {});
        assert!(!l.has_cached_weight() && !l.is_packed(), "visit_params");
        warm(&l);
        l.set_mask(Some(magnitude_prune(l.weight(), 0.5).unwrap()))
            .unwrap();
        assert!(!l.has_cached_weight() && !l.is_packed(), "set_mask");
        warm(&l);
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
        assert!(
            !l.has_cached_weight() && !l.is_packed(),
            "set_activation_quant"
        );
        warm(&l);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W2)));
        assert!(
            !l.has_cached_weight() && !l.is_packed() && !l.is_int_packed(),
            "set_quant"
        );
    }

    #[test]
    fn packed_forward_is_bit_identical_to_dense() {
        let mut rng = TensorRng::seed_from(15);
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let mut l = Linear::new(40, 24, &mut rng);
            l.set_mask(Some(magnitude_prune(l.weight(), 0.4).unwrap()))
                .unwrap();
            l.set_quant(Some(QuantScheme::symmetric(bits)));
            let x = Tensor::randn(3, 40, 1.0, &mut rng);
            let lazy = l.forward_no_cache(&x).unwrap();
            assert!(l.is_packed());
            // packing up front builds what the first frozen forward built
            l.visit_params(&mut |_, _| {});
            l.pack_weights().unwrap();
            assert!(l.is_packed());
            let packed = l.forward_no_cache(&x).unwrap();
            assert_eq!(lazy.as_slice(), packed.as_slice(), "{bits}");
            // and bit-identical to `x · effective_weight()` recomputed fresh
            let w = l.effective_weight().unwrap();
            let baseline = l.add_bias(x.matmul(&w).unwrap()).unwrap();
            assert_eq!(baseline.as_slice(), packed.as_slice(), "{bits} baseline");
        }
    }

    /// One momentum-SGD step through `visit_params`, the optimizer's write.
    fn sgd_step(l: &mut Linear, opt: &mut crate::Sgd, rng: &mut TensorRng) {
        use crate::Optimizer;
        let (d_in, d_out) = l.shape();
        let x = Tensor::randn(8, d_in, 1.0, rng);
        let (_, cache) = l.forward(x.clone()).unwrap();
        l.backward(&cache, &Tensor::randn(8, d_out, 1.0, rng))
            .unwrap();
        let mut id = 0;
        l.visit_params(&mut |p, g| {
            opt.update(id, p, g);
            id += 1;
        });
    }

    /// Every route of `l` — packed row codes and, where eligible, the
    /// integer GEMM under A8 activations, plus the taped window's
    /// [`Linear::forward`] on a dense weight built by `fake_quant` and on
    /// one dequantized from held row codes — must bit-equal a reference
    /// built from the masking formula `x · mask(fake_quant(w)) + b` (for
    /// the integer route, the masked transpose, quantized), at one and two
    /// threads.
    fn assert_routes_match_masked_formula(l: &mut Linear, x: &Tensor, what: &str) {
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        let raw = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (scheme, mask) = (l.quant.unwrap(), l.mask.clone().unwrap());
        let mut w = fake_quant(&l.w, scheme).unwrap();
        mask.apply(&mut w).unwrap();
        let formula = |x: &Tensor| l.add_bias(x.matmul_with(&w, 1).unwrap()).unwrap();
        let want = formula(x);
        let a8 = QuantScheme::asymmetric(BitWidth::W8);
        // the window trains an integer-route layer on the f32 route
        let want_taped_a8 = formula(&fake_quant(x, a8).unwrap());
        let want_int = packed_gemm_supported(scheme, a8).then(|| {
            let (d_in, d_out) = l.shape();
            let mut wt = Tensor::zeros(d_out, d_in);
            for p in 0..d_in {
                for j in 0..d_out {
                    if mask.is_kept(p, j) {
                        wt.set(j, p, l.w.get(p, j));
                    }
                }
            }
            let w_q = QuantizedTensor::quantize(&wt, scheme).unwrap();
            let x_q = quantize_activations(x, a8).unwrap();
            l.add_bias(packed_decode_matmul(&x_q, &w_q, 1).unwrap())
                .unwrap()
        });
        let before = configured_threads();
        for threads in [1, 2] {
            set_configured_threads(threads);
            let at = format!("{what}, {threads} threads");
            // drops every cached form without writing the weight
            l.set_activation_quant(None);
            let taped = l.forward(x.clone()).unwrap().0;
            assert!(l.has_cached_weight() && !l.is_packed(), "{at}");
            assert_eq!(raw(&taped), raw(&want), "dense by fake_quant, {at}");
            l.set_activation_quant(None);
            let packed = l.forward_no_cache(x).unwrap();
            assert!(l.is_packed() && !l.has_cached_weight(), "{at}");
            assert_eq!(raw(&packed), raw(&want), "row codes, {at}");
            let requants = l.requant_count();
            let taped = l.forward(x.clone()).unwrap().0;
            assert!(l.has_cached_weight(), "{at}");
            assert_eq!(
                l.requant_count(),
                requants,
                "dequantizing requantized, {at}"
            );
            assert_eq!(raw(&taped), raw(&want), "dense from row codes, {at}");
            if let Some(want_int) = &want_int {
                l.set_activation_quant(Some(a8));
                let int = l.forward_no_cache(x).unwrap();
                assert!(l.is_int_packed(), "{at}");
                assert_eq!(raw(&int), raw(want_int), "integer, {at}");
                // transposed codes lie on another grid: the window's dense
                // weight comes from fake_quant
                let taped = l.forward(x.clone()).unwrap().0;
                assert_eq!(raw(&taped), raw(&want_taped_a8), "taped A8, {at}");
            }
        }
        set_configured_threads(before);
        l.set_activation_quant(None);
    }

    #[test]
    fn every_frozen_route_matches_the_masked_fake_quant_formula() {
        // 24 x 64 x 48 clears the spawn cutoff, so two threads really split.
        // At d_out = 50 a weight row starts inside a packed word at 2, 4
        // and 8 bits, so the row-code route decodes a head and a tail.
        let d_in = 64;
        let mut rng = TensorRng::seed_from(23);
        let x = Tensor::randn(24, d_in, 1.0, &mut rng);
        for d_out in [48, 50] {
            for scheme in [
                QuantScheme::symmetric(BitWidth::W2),
                QuantScheme::symmetric(BitWidth::W4),
                QuantScheme::symmetric(BitWidth::W8),
                QuantScheme::asymmetric(BitWidth::W4),
                QuantScheme::asymmetric(BitWidth::W8),
            ] {
                let mut l = Linear::new(d_in, d_out, &mut rng);
                // velocity built while dense keeps moving weights the mask
                // prunes, so every later step writes at pruned positions
                let mut opt = crate::Sgd::with_momentum(0.05, 0.9);
                for _ in 0..2 {
                    sgd_step(&mut l, &mut opt, &mut rng);
                }
                // 40% by magnitude, plus all of row 3 and all of column 5
                let mut keep = magnitude_prune(l.weight(), 0.4)
                    .unwrap()
                    .as_slice()
                    .to_vec();
                keep[3 * d_out..4 * d_out].fill(false);
                (0..d_in).for_each(|p| keep[p * d_out + 5] = false);
                l.set_mask(Some(PruneMask::from_vec(d_in, d_out, keep).unwrap()))
                    .unwrap();
                l.set_quant(Some(scheme));
                assert_routes_match_masked_formula(&mut l, &x, &format!("{scheme:?} as installed"));
                for step in 0..3 {
                    sgd_step(&mut l, &mut opt, &mut rng);
                    let what = format!("{scheme:?} after step {step}");
                    assert_routes_match_masked_formula(&mut l, &x, &what);
                }
            }
        }
    }

    #[test]
    fn packed_weight_bytes_drop_by_bit_width_ratio() {
        let mut rng = TensorRng::seed_from(16);
        let mut l = Linear::new(64, 64, &mut rng);
        let dense_bytes = l.weight_storage_bytes();
        assert_eq!(dense_bytes, 64 * 64 * 4);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        l.pack_weights().unwrap();
        // 4-bit codes: 8x fewer code bytes, plus per-row metadata
        assert_eq!(l.weight_storage_bytes(), 64 * 64 / 2 + 64 * 4);
        assert!(l.weight_storage_bytes() * 7 < dense_bytes);
        // an integer-route layer holds the transposed codes *instead*
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
        l.pack_weights().unwrap();
        assert!(l.is_int_packed() && !l.is_packed());
        assert_eq!(l.weight_storage_bytes(), 64 * 64 / 2 + 64 * 4);
    }

    #[test]
    fn integer_decode_is_bit_identical_across_routes() {
        let mut rng = TensorRng::seed_from(18);
        for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
            let mut l = Linear::new(40, 24, &mut rng);
            l.set_mask(Some(magnitude_prune(l.weight(), 0.4).unwrap()))
                .unwrap();
            l.set_quant(Some(QuantScheme::symmetric(bits)));
            l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
            assert!(l.int_decode_schemes().is_some());
            let x = Tensor::randn(3, 40, 1.0, &mut rng);
            // lazy cache build
            let lazy = l.forward_no_cache(&x).unwrap();
            assert!(l.is_int_packed());
            // explicit pack, solo row, batched rows — all the same kernel
            let packed = l.forward_no_cache(&x).unwrap();
            assert_eq!(lazy.as_slice(), packed.as_slice(), "{bits}");
            for r in 0..3 {
                let row = Tensor::from_vec(1, 40, x.row(r).to_vec()).unwrap();
                let solo = l.forward_no_cache(&row).unwrap();
                assert_eq!(lazy.row(r), solo.row(0), "{bits} row {r}");
            }
            // an invalidated layer rebuilds the operand from the weight
            l.visit_params(&mut |_, _| {});
            assert!(!l.is_int_packed());
            let fresh = l.forward_no_cache(&x).unwrap();
            assert_eq!(lazy.as_slice(), fresh.as_slice(), "{bits} no-cache");
        }
    }

    #[test]
    fn integer_decode_solo_rows_equal_batched_rows() {
        let mut rng = TensorRng::seed_from(19);
        let mut l = Linear::new(16, 10, &mut rng);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
        let x = Tensor::randn(5, 16, 1.0, &mut rng);
        let batched = l.forward_no_cache(&x).unwrap();
        for r in 0..5 {
            let row = Tensor::from_vec(1, 16, x.row(r).to_vec()).unwrap();
            let solo = l.forward_no_cache(&row).unwrap();
            assert_eq!(batched.row(r), solo.row(0), "row {r}");
        }
    }

    #[test]
    fn integer_decode_knob_reverts_to_f32_route() {
        let mut rng = TensorRng::seed_from(20);
        let mut l = Linear::new(24, 12, &mut rng);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
        let x = Tensor::randn(2, 24, 1.0, &mut rng);
        l.pack_weights().unwrap();
        assert!(l.is_int_packed() && !l.is_packed());
        let int_y = l.forward_no_cache(&x).unwrap();
        // a flip drops the other route's codes rather than keep both
        l.set_integer_decode_enabled(false);
        assert!(l.int_decode_schemes().is_none());
        assert!(!l.is_int_packed() && !l.is_packed());
        // f32 fallback: fake-quantized activations x row codes, built by
        // the forward
        let f32_y = l.forward_no_cache(&x).unwrap();
        assert!(l.is_packed() && !l.is_int_packed());
        let x_hat = fake_quant(&x, QuantScheme::asymmetric(BitWidth::W8)).unwrap();
        let expect = x_hat.matmul(&l.effective_weight().unwrap()).unwrap();
        assert_eq!(f32_y.as_slice(), expect.as_slice());
        // and back: the integer route re-packs lazily, same bits as before
        l.set_integer_decode_enabled(true);
        assert!(!l.is_packed());
        assert_eq!(l.forward_no_cache(&x).unwrap().as_slice(), int_y.as_slice());
        assert!(l.is_int_packed() && !l.is_packed());
        // the two grids agree to quantization error, not bitwise
        let rel = edge_llm_tensor::l2_norm(&int_y.sub(&f32_y).unwrap())
            / edge_llm_tensor::l2_norm(&f32_y).max(1e-6);
        assert!(rel < 0.3, "grid divergence too large: rel {rel}");
        // W16 activations are never eligible (i32 lane budget)
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W16)));
        assert!(l.int_decode_schemes().is_none());
    }

    #[test]
    fn mutations_invalidate_int_packed_weight() {
        let mut rng = TensorRng::seed_from(21);
        let mut l = Linear::new(8, 8, &mut rng);
        l.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
        l.pack_weights().unwrap();
        assert!(l.is_int_packed() && !l.is_packed());
        l.visit_params(&mut |_, _| {});
        assert!(!l.is_int_packed(), "visit_params must drop packed_t");
    }

    #[test]
    fn forward_rows_matches_per_row_calls_with_act_quant() {
        let mut rng = TensorRng::seed_from(17);
        let mut l = Linear::new(8, 6, &mut rng);
        l.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W4)));
        let x = Tensor::randn(5, 8, 1.0, &mut rng);
        let batched = l.forward_no_cache(&x).unwrap();
        for r in 0..5 {
            let row = Tensor::from_vec(1, 8, x.row(r).to_vec()).unwrap();
            let solo = l.forward_no_cache(&row).unwrap();
            assert_eq!(batched.row(r), solo.row(0), "row {r}");
        }
    }
}
