//! The forward: one layer walk over (sequence, position) rows.
//!
//! Every block forward runs here, frozen or training. Each `Run` feeds
//! `tokens.len()` consecutive positions of one sequence; every fed
//! position is one row of a shared `(n, d_model)` activation and every
//! projection one matmul over all rows, while each sequence attends over
//! its own [`SequenceKv`] only. Three row shapes drive the walk:
//!
//! - [`batched_decode_step`] — many runs of length 1 at full depth: one
//!   token from each active sequence (an [`crate::InferenceSession`] is
//!   the one-slot case);
//! - the speculative chunk in `crate::spec` — one run of length n,
//!   stopped at the draft or the final exit;
//! - `full_window` — `batch` runs of `seq_len` positions, walked in
//!   consecutive groups of whole runs (at most 256 rows a group, unless
//!   one run is longer) on one group's worth of one-pair scratch caches
//!   dropped with the pass: evaluation and the voting fit
//!   (`EdgeModel::logits_at_exits`), the tuner's blocks below the window
//!   and then the window itself (`EdgeModel::forward_exit`, below) and
//!   LUC's probes, which enter above layer 0 from cached hidden rows
//!   with a compressed copy of the entry layer's block standing in for
//!   the model's own (`EdgeModel::frozen_forward`). A
//!   group bounds what the pass holds at once: intermediates scale with
//!   the rows walked together, and row independence (below) makes the
//!   grouping bit-free. Only this shape may start above layer 0: its K/V
//!   is scratch, so no persistent [`SequenceKv`] is left with layers it
//!   never wrote.
//!
//! There is no second block forward, so a route, span or K/V format
//! changed here is changed for all of them.
//!
//! # Training
//!
//! A full-window pass given a tape walks the window's blocks for the
//! tuner and records, per layer, exactly what [`crate::Block::backward`]
//! reads: one [`BlockTape`]. On such a *taped* layer the walk differs at
//! four sites and nowhere else:
//!
//! - both layer norms keep their [`edge_llm_tensor::LayerNormCache`];
//! - every projection runs through [`crate::Linear::forward`] — the f32
//!   training route, whose cache the tape keeps — never the integer or
//!   packed route a frozen layer may take: under an activation scheme
//!   those are not bit-equal to what the backward differentiates;
//! - each (run, head)'s probabilities are computed in a zeroed `(seq,
//!   seq)` square of the tape, which keeps them, and the `qkv` output is
//!   kept;
//! - GELU runs as [`gelu_forward_train`], whose derivative is kept.
//!
//! On finite activations a taped layer is bit for bit the test-only
//! reference forward (`crate::block::reference`: per-head matmuls over a
//! masked square, `softmax_rows`), and `model::tests` holds every tape
//! field and output row to it: a masked entry's probability is
//! `exp(-1e30 - max) = +0`, which is the square's untouched zero. A taped
//! pass carries no adapter.
//!
//! # Bit-identity
//!
//! Three properties carry batched ≡ solo, speculative ≡ greedy and full
//! window ≡ decode:
//!
//! - **Row-independent stages.** The blocked matmul kernel accumulates
//!   each output element over the shared dimension in a fixed ascending
//!   order regardless of how many rows are in flight (and the threaded
//!   kernel splits by output row); layer norm, softmax, GELU, bias-add
//!   and the residual adds are per-row or elementwise; every frozen
//!   projection is [`crate::Linear::forward_no_cache`], and every quantization
//!   scheme is fitted per row, so activation calibration cannot couple
//!   rows; adapter deltas are added per row
//!   ([`ResolvedAdapter::apply_row`]).
//! - **K/V write before attend.** Each layer writes the K/V rows of every
//!   fed position first (keys in transposed tiles, as the score product
//!   reads them); row `(s, t)` then attends over positions `0..=t` of
//!   sequence `s`'s cache only — exactly the causal prefix a
//!   token-at-a-time session would have cached by then. Each run's rows attend together,
//!   per head, in one block over the causal triangle
//!   (`attention::Heads::attend_run`): the scores and the weighted sum go
//!   through the blocked matmul kernel, and each element still adds its
//!   products in ascending order, so a row's bits do not depend on which
//!   rows share its block. Row `t` never reads a key, value or weight past
//!   position `t`, so a non-finite position reaches no earlier row.
//! - **Cursor-only rollback.** Rows past a cache's cursor are never read,
//!   only overwritten ([`SequenceKv::truncate`]), so a shallow draft or a
//!   rejected position leaves no trace in later passes.
//!
//! Every row is therefore bit-identical to pushing the same token through
//! a solo session with the same history. A taped layer's projections are
//! [`crate::Linear::forward`], which fits its schemes per row too.
//!
//! # Multi-threading
//!
//! The runs are the parallel axis: with more than one worker configured
//! (`EDGELLM_THREADS`) a pass splits its runs into contiguous chunks and
//! walks them concurrently, kernel-level threading suppressed inside. One
//! spawn per pass amortizes over the whole layer stack and covers the
//! per-row attention and elementwise work too. The split is a pure
//! function of `(runs, workers)`, so every thread count gives the same
//! bits. A taped pass keeps the split: each chunk records its own runs'
//! tapes, appended in run order as the hidden rows are; at one worker the
//! one chunk's tape is the pass's, with nothing copied.

use crate::adapter::{AdapterTarget, ResolvedAdapter};
use crate::attention::Heads;
use crate::block::{Block, BlockTape};
use crate::error::ModelError;
use crate::linear::Linear;
use crate::model::EdgeModel;
use crate::norm::LayerNorm;
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{gelu_forward, gelu_forward_train, pool, Tensor};

/// Per-sequence key/value cache for [`batched_decode_step`] — the state an
/// [`crate::InferenceSession`] keeps internally, split out so a scheduler
/// can own one per request and batch any subset of them each step.
#[derive(Debug, Clone)]
pub struct SequenceKv {
    /// Per layer (full-window scratch: one pair for all): cached keys and
    /// values, `seq_len x d_model` floats each, filled up to position `t`.
    /// Values are row-major. Keys are stored in tiles of [`KEY_TILE`]
    /// positions, each tile transposed ([`key_tile`]): a head's rows of a
    /// tile are the `kᵀ` operand its scores multiply by, and a tile's
    /// pages are first touched when its first position is written, as a
    /// row-major cache's are.
    pub(crate) keys: Vec<Tensor>,
    pub(crate) values: Vec<Tensor>,
    pub(crate) t: usize,
    pub(crate) capacity: usize,
    pub(crate) d_model: usize,
}

impl SequenceKv {
    /// Starts an empty cache sized for `model` (capacity = `seq_len`).
    pub fn new(model: &EdgeModel) -> Self {
        Self::with_layers(model, model.n_layers())
    }

    /// An empty cache of `layers` K/V pairs. One pair is scratch for a pass
    /// that feeds a whole sequence at once ([`full_window`]): layer `l`
    /// reads only what layer `l` wrote in the same pass, so every layer
    /// reuses the pair, and validation admits it only while empty.
    fn with_layers(model: &EdgeModel, layers: usize) -> Self {
        let cfg = model.config();
        let buffer = |_| Tensor::zeros(cfg.seq_len, cfg.d_model);
        SequenceKv {
            keys: (0..layers).map(buffer).collect(),
            values: (0..layers).map(buffer).collect(),
            t: 0,
            capacity: cfg.seq_len,
            d_model: cfg.d_model,
        }
    }

    /// Index of the K/V pair layer `l` writes and reads.
    fn slot(&self, l: usize) -> usize {
        l.min(self.keys.len() - 1)
    }

    /// Tokens consumed so far.
    pub fn len(&self) -> usize {
        self.t
    }

    /// Whether no token has been fed yet.
    pub fn is_empty(&self) -> bool {
        self.t == 0
    }

    /// Remaining capacity before the positional table is exhausted.
    pub fn remaining(&self) -> usize {
        self.capacity - self.t
    }

    /// Resets the cache to empty without reallocating, so a serving slot
    /// can be reused for the next queued request.
    pub fn reset(&mut self) {
        self.t = 0;
    }

    /// Rolls the cache back to `len` consumed tokens (no-op when `len`
    /// is at or past the current length). Rows past `len` are never read
    /// by later steps — every attention pass scans `0..t` only and every
    /// write lands at `t` — so discarding them is purely a cursor move.
    /// This is the rollback primitive speculative decoding uses to drop
    /// rejected draft positions.
    pub fn truncate(&mut self, len: usize) {
        self.t = self.t.min(len);
    }

    /// Bytes held by the key/value buffers.
    pub fn cache_bytes(&self) -> usize {
        self.keys
            .iter()
            .chain(self.values.iter())
            .map(|t| t.len() * 4)
            .sum()
    }

    pub(crate) fn check_model(&self, model: &EdgeModel) -> Result<(), ModelError> {
        let cfg = model.config();
        // a one-pair scratch cache cannot be continued
        let scratch = self.keys.len() == 1 && self.t == 0;
        if (self.keys.len() != model.n_layers() && !scratch)
            || self.capacity != cfg.seq_len
            || self.d_model != cfg.d_model
        {
            return Err(ModelError::BadConfig {
                reason: format!(
                    "sequence cache shaped for {} layers / seq {} / d_model {} \
                     does not match model with {} layers / seq {} / d_model {}",
                    self.keys.len(),
                    self.capacity,
                    self.d_model,
                    model.n_layers(),
                    cfg.seq_len,
                    cfg.d_model
                ),
            });
        }
        Ok(())
    }
}

/// Positions per tile of a cached key buffer ([`SequenceKv`]): one
/// micro-tile strip of the blocked kernel.
pub(crate) const KEY_TILE: usize = 16;

/// Where tile `tile` of a key buffer for `capacity` positions of `d_model`
/// features starts, and how many positions it holds: every tile holds
/// [`KEY_TILE`] but the last, which holds the rest. Within a tile of
/// width `w`, position `tile * KEY_TILE + i`'s feature `d` is at `d * w +
/// i`, so tile buffers add up to `capacity * d_model` floats.
pub(crate) fn key_tile(capacity: usize, d_model: usize, tile: usize) -> (usize, usize) {
    let first = tile * KEY_TILE;
    (first * d_model, KEY_TILE.min(capacity - first))
}

/// One sequence's contribution to a batched decode step.
#[derive(Debug)]
pub struct BatchedStep<'a> {
    /// Token to feed at this sequence's current position.
    pub token: usize,
    /// The sequence's cache, advanced by one position on success.
    pub kv: &'a mut SequenceKv,
    /// Exit layers to return logits for (empty to skip logits entirely,
    /// e.g. during prompt prefill).
    pub exits: &'a [usize],
    /// This slot's tenant adapter, if any. The base projections stay one
    /// shared multi-row matmul; the delta is added to this slot's rows
    /// only, via [`ResolvedAdapter::apply_row`].
    pub adapter: Option<&'a ResolvedAdapter>,
}

/// Advances every sequence in `steps` by one token through a shared
/// batched forward pass and returns, per slot, one `(1, vocab)` logits
/// tensor per requested exit (in the slot's `exits` order).
///
/// All slots are validated before any cache is touched, so on error no
/// sequence has advanced.
///
/// # Errors
///
/// Returns [`ModelError::CapacityExhausted`] if any slot's cache is full,
/// [`ModelError::BadConfig`] for an out-of-vocabulary token or a cache
/// shaped for a different model, and [`ModelError::LayerOutOfRange`] for
/// an exit index past the model depth.
pub fn batched_decode_step(
    model: &EdgeModel,
    steps: &mut [BatchedStep<'_>],
) -> Result<Vec<Vec<Tensor>>, ModelError> {
    let mut runs: Vec<Run<'_>> = steps
        .iter_mut()
        .map(|s| Run {
            tokens: std::slice::from_ref(&s.token),
            kv: &mut *s.kv,
            exits: s.exits,
            adapter: s.adapter,
        })
        .collect();
    Ok(decode_runs(model, &mut runs, Entry::EMBEDDING, model.n_layers(), None)?.1)
}

/// Where a pass enters the layer stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'a> {
    /// First layer walked.
    pub(crate) from: usize,
    /// The hidden rows entering layer `from`, `d_model` floats per fed
    /// position in run order; `None` embeds the fed tokens, at layer 0
    /// only.
    pub(crate) hidden: Option<&'a [f32]>,
    /// The block walked at layer `from` in place of the model's own;
    /// `None` walks the model's.
    pub(crate) block: Option<&'a Block>,
}

impl Entry<'_> {
    /// Every decode pass: the token embedding into layer 0.
    pub(crate) const EMBEDDING: Entry<'static> = Entry {
        from: 0,
        hidden: None,
        block: None,
    };
}

/// One sequence's share of a decode pass: `tokens` are fed at the
/// consecutive positions `kv.len()..kv.len() + tokens.len()`.
pub(crate) struct Run<'a> {
    pub(crate) tokens: &'a [usize],
    /// Advanced by `tokens.len()` positions on success.
    pub(crate) kv: &'a mut SequenceKv,
    /// Exit layers to return logits for, each below the pass depth.
    pub(crate) exits: &'a [usize],
    pub(crate) adapter: Option<&'a ResolvedAdapter>,
}

/// The checks of a pass over layers `entry.from..depth`: the layer range,
/// the stand-in block's projection shapes, then per run — its `(tokens,
/// cache, exits)` — the token, cache-shape, capacity and exit checks in
/// that order, then the entering rows' length.
pub(crate) fn validate_runs<'r>(
    model: &EdgeModel,
    runs: impl IntoIterator<Item = (&'r [usize], &'r SequenceKv, &'r [usize])>,
    entry: Entry<'_>,
    depth: usize,
) -> Result<(), ModelError> {
    let n_layers = model.n_layers();
    if depth > n_layers {
        return Err(ModelError::LayerOutOfRange {
            layer: depth - 1,
            depth: n_layers,
        });
    }
    if entry.from > depth {
        return Err(ModelError::LayerOutOfRange {
            layer: entry.from,
            depth,
        });
    }
    if let Some(block) = entry.block {
        let (c, ff) = (model.config().d_model, model.config().d_ff);
        let want = [(c, 3 * c), (c, c), (c, ff), (ff, c)];
        let got = block.linears().map(Linear::shape);
        if got != want {
            let reason = format!("stand-in block projections {got:?}, the model's {want:?}");
            return Err(ModelError::BadConfig { reason });
        }
    }
    let vocab = model.config().vocab_size;
    let mut fed = 0;
    for (tokens, kv, exits) in runs {
        if let Some(&token) = tokens.iter().find(|&&t| t >= vocab) {
            return Err(ModelError::BadConfig {
                reason: format!("token {token} outside vocabulary {vocab}"),
            });
        }
        kv.check_model(model)?;
        // Layers below the entry write no K/V rows, so only a scratch
        // pair, dropped with the pass, may skip them.
        if entry.from > 0 && kv.keys.len() != 1 {
            return Err(ModelError::BadConfig {
                reason: format!("a pass entering at layer {} needs scratch K/V", entry.from),
            });
        }
        if kv.remaining() < tokens.len() {
            return Err(ModelError::CapacityExhausted {
                capacity: kv.capacity,
            });
        }
        if let Some(&layer) = exits.iter().find(|&&e| e < entry.from || e >= depth) {
            return Err(ModelError::LayerOutOfRange { layer, depth });
        }
        fed += tokens.len();
    }
    let floats = fed * model.config().d_model;
    match entry.hidden {
        None if entry.from > 0 => Err(ModelError::BadBatch {
            expected: floats,
            actual: 0,
        }),
        Some(h) if h.len() != floats => Err(ModelError::BadBatch {
            expected: floats,
            actual: h.len(),
        }),
        _ => Ok(()),
    }
}

/// Feeds every run through layers `entry.from..depth` in one shared pass
/// and returns the hidden rows of every fed position after the last layer,
/// in run order, and per run one `(tokens.len(), vocab)` logits tensor per
/// requested exit (in the run's `exits` order). Decode passes enter at
/// [`Entry::EMBEDDING`]; only [`full_window`] enters higher, and only it
/// passes a `tape`, which then gains every walked layer's [`BlockTape`]
/// (module docs, "Training").
///
/// A pass is all-or-nothing: every run is validated before any cache is
/// touched, and no cursor moves until every chunk's walk has returned
/// `Ok`. The walk *can* fail past validation — the integer route reports
/// a projection input that went non-finite (a tenant adapter whose finite
/// factors overflow, say) as `QuantError::NonFinite` — and with several
/// workers one chunk fails while another finishes; the K/V rows a failed
/// pass wrote lie at or past every cursor, where the next pass overwrites
/// them before anything reads them.
pub(crate) fn decode_runs(
    model: &EdgeModel,
    runs: &mut [Run<'_>],
    entry: Entry<'_>,
    depth: usize,
    mut tape: Option<&mut Vec<BlockTape>>,
) -> Result<(Tensor, Vec<Vec<Tensor>>), ModelError> {
    let c = model.config().d_model;
    let views = runs.iter().map(|r| (r.tokens, &*r.kv, r.exits));
    validate_runs(model, views, entry, depth)?;
    if runs.is_empty() {
        return Ok((Tensor::zeros(0, c), Vec::new()));
    }
    let taped = tape.is_some();
    // A chunk's layer tapes join those of the runs before it.
    let mut record = |part: Vec<BlockTape>| match tape.as_deref_mut() {
        Some(tape) if tape.is_empty() => {
            *tape = part;
            Ok(())
        }
        Some(tape) => tape
            .iter_mut()
            .zip(part)
            .try_for_each(|(layer, part)| layer.append(part)),
        None => Ok(()),
    };
    let workers = pool::resolve_threads(0).min(runs.len());
    let out = if workers <= 1 {
        let walked = walk(model, runs, entry, depth, taped)?;
        record(walked.tape)?;
        (walked.hidden, walked.logits)
    } else {
        // Run-partitioned parallel pass (module docs, "Multi-threading").
        // Kernel-level threading is suppressed inside each chunk
        // (`serial_scope`) so workers do not spawn nested workers. Each
        // chunk enters with its own runs' rows (validated: the lengths
        // add up).
        let total = runs.len();
        let mut rest = &mut *runs;
        let mut hidden = entry.hidden;
        let chunks = pool::partition(total, workers)
            .into_iter()
            .map(|part| {
                let chunk = rest.split_off_mut(..part.len()).expect("in bounds");
                let fed: usize = chunk.iter().map(|r| r.tokens.len()).sum();
                let mine = hidden.map(|h| {
                    let (mine, tail) = h.split_at(fed * c);
                    hidden = Some(tail);
                    mine
                });
                let entry = Entry {
                    hidden: mine,
                    ..entry
                };
                (chunk, entry)
            })
            .collect();
        let walk_chunk =
            |(chunk, entry)| pool::serial_scope(|| walk(model, chunk, entry, depth, taped));
        let (mut hidden, mut out) = (Vec::new(), Vec::with_capacity(total));
        for r in pool::fan_out(chunks, walk_chunk) {
            let walked = r?;
            hidden.extend_from_slice(walked.hidden.as_slice());
            out.extend(walked.logits);
            record(walked.tape)?;
        }
        let hidden = Tensor::from_vec(hidden.len() / c, c, hidden).map_err(ModelError::Tensor)?;
        (hidden, out)
    };
    for run in runs.iter_mut() {
        run.kv.t += run.tokens.len();
    }
    Ok(out)
}

/// Rows a group of a full-window pass holds at most, unless one run alone
/// is longer. A pass's intermediates scale with the rows walked together,
/// so a group bounds them; rows are independent, so grouping moves no bit.
const FULL_WINDOW_ROWS: usize = 256;

/// Runs per group of a full-window pass over sequences of `seq_len`: as
/// many whole runs as [`FULL_WINDOW_ROWS`] holds, and at least one.
pub(crate) fn runs_per_group(seq_len: usize) -> usize {
    (FULL_WINDOW_ROWS / seq_len).max(1)
}

/// A full-window forward: `batch` runs of `seq_len` positions (`tokens`,
/// `batch * seq_len` ids) through layers `entry.from..depth`, walked as
/// consecutive [`decode_runs`] passes over groups of
/// [`runs_per_group`] runs. Every group reuses one group's worth of
/// one-pair scratch caches, dropped with the pass, and appends its hidden
/// rows and exit logits straight into the outputs — and, given a `tape`,
/// its layer tapes to the tape's. The whole pass is validated before the
/// first group walks, so a refused pass walks no layer. Returns the hidden
/// rows after layer `depth - 1` and one logits tensor per entry of
/// `exits`, all in `(b, t)` row order.
pub(crate) fn full_window(
    model: &EdgeModel,
    tokens: &[usize],
    entry: Entry<'_>,
    depth: usize,
    exits: &[usize],
    mut tape: Option<&mut Vec<BlockTape>>,
) -> Result<(Tensor, Vec<Tensor>), ModelError> {
    let cfg = model.config();
    let (seq, c, vocab) = (cfg.seq_len, cfg.d_model, cfg.vocab_size);
    let group_runs = runs_per_group(seq);
    let mut scratch: Vec<SequenceKv> = (0..(tokens.len() / seq).min(group_runs))
        .map(|_| SequenceKv::with_layers(model, 1))
        .collect();
    // each run against the scratch pair it will walk on
    let views = tokens
        .chunks(seq)
        .zip(scratch.iter().cycle())
        .map(|(tokens, kv)| (tokens, kv, exits));
    validate_runs(model, views, entry, depth)?;
    let mut hidden = Vec::with_capacity(tokens.len() * c);
    let mut logits: Vec<Vec<f32>> = exits
        .iter()
        .map(|_| Vec::with_capacity(tokens.len() * vocab))
        .collect();
    let mut entering = entry.hidden;
    for group in tokens.chunks(group_runs * seq) {
        let mine = entering.map(|h| {
            let (mine, rest) = h.split_at(group.len() * c);
            entering = Some(rest);
            mine
        });
        let mut runs: Vec<Run<'_>> = scratch
            .iter_mut()
            .zip(group.chunks(seq))
            .map(|(kv, tokens)| {
                kv.reset();
                Run {
                    tokens,
                    kv,
                    exits,
                    adapter: None,
                }
            })
            .collect();
        let entry = Entry {
            hidden: mine,
            ..entry
        };
        let (x, per_run) = decode_runs(model, &mut runs, entry, depth, tape.as_deref_mut())?;
        hidden.extend_from_slice(x.as_slice());
        for run in per_run {
            for (out, exit) in logits.iter_mut().zip(run) {
                out.extend_from_slice(exit.as_slice());
            }
        }
    }
    let n = tokens.len();
    let hidden = Tensor::from_vec(n, c, hidden).map_err(ModelError::Tensor)?;
    let logits = logits
        .into_iter()
        .map(|l| Tensor::from_vec(n, vocab, l).map_err(ModelError::Tensor))
        .collect::<Result<_, _>>()?;
    Ok((hidden, logits))
}

/// What [`walk`] returns for its chunk of runs.
struct Walked {
    /// The rows leaving the last layer, one per fed position in run order.
    hidden: Tensor,
    /// Per run, one logits tensor per requested exit.
    logits: Vec<Vec<Tensor>>,
    /// One tape per walked layer in a taped pass; empty otherwise.
    tape: Vec<BlockTape>,
}

/// The serial layer walk over one contiguous chunk of runs — all of them
/// when one worker is configured. Runs must already be validated; the
/// caller advances their cursors.
fn walk(
    model: &EdgeModel,
    runs: &mut [Run<'_>],
    entry: Entry<'_>,
    depth: usize,
    taped: bool,
) -> Result<Walked, ModelError> {
    let cfg = model.config();
    let (c, heads) = (cfg.d_model, cfg.n_heads);
    // One activation row per fed position: (run, position, adapter).
    let mut rows = Vec::new();
    let mut embedded = Vec::new();
    for (r, run) in runs.iter().enumerate() {
        for (i, &token) in run.tokens.iter().enumerate() {
            let pos = run.kv.t + i;
            if entry.hidden.is_none() {
                embedded.extend_from_slice(model.embed_one(token, pos)?.row(0));
            }
            rows.push((r, pos, run.adapter));
        }
    }
    let n = rows.len();
    let input = entry.hidden.map_or(embedded, <[f32]>::to_vec);
    let mut x = Tensor::from_vec(n, c, input).map_err(ModelError::Tensor)?;
    // One projection. A taped layer's runs through `Linear::forward`, the
    // f32 route its backward reads, and keeps its cache; any other layer's
    // is frozen, plus its rows' adapter deltas. It consumes its input: a
    // full-window group feeds hundreds of rows, so intermediates are freed
    // at their last reader, not at the end of the layer.
    let project = |l, target, lin: &Linear, input: Tensor| {
        if taped {
            let (out, cache) = lin.forward(input)?;
            return Ok::<_, ModelError>((out, Some(cache)));
        }
        let mut out = lin.forward_no_cache(&input)?;
        for (i, &(_, _, adapter)) in rows.iter().enumerate() {
            if let Some(ad) = adapter {
                ad.apply_row(l, target, input.row(i), out.row_mut(i))?;
            }
        }
        Ok((out, None))
    };
    let normalize = |norm: &LayerNorm, x: &Tensor| {
        if taped {
            let (y, cache) = norm.forward(x)?;
            return Ok::<_, ModelError>((y, Some(cache)));
        }
        Ok((norm.forward_no_cache(x)?, None))
    };
    // Per run, one logits tensor per requested exit; every placeholder is
    // overwritten below because validation holds each exit under `depth`.
    let mut per_exit: Vec<Vec<Tensor>> = runs
        .iter()
        .map(|r| vec![Tensor::zeros(0, 0); r.exits.len()])
        .collect();
    let mut tape = Vec::new();
    let heads_of = Heads::new(c, heads);
    // a frozen run's scores, reused by every run and head
    let mut scores = Vec::new();
    for l in entry.from..depth {
        let block = match entry.block {
            Some(block) if l == entry.from => block,
            _ => model.block(l),
        };
        let [qkv_lin, proj, fc1, fc2] = block.linears();
        // (n, 3c). Adapter deltas land *before* the key/value rows are
        // copied into the caches, so adapted K/V history is what later
        // passes attend over — same as a solo run with the adapter.
        let (n1, ln1) = normalize(block.ln1(), &x)?;
        let (qkv, qkv_in) = project(l, AdapterTarget::Qkv, qkv_lin, n1)?;
        // the K/V write and every run's attention
        let span = telemetry::span("model.attention");
        // Write every fed position's K/V first; row (r, pos) then attends
        // over positions 0..=pos of its own sequence only.
        for (i, &(r, pos, _)) in rows.iter().enumerate() {
            let row = qkv.row(i);
            let kv = &mut *runs[r].kv;
            let s = kv.slot(l);
            let (start, width) = key_tile(kv.capacity, c, pos / KEY_TILE);
            let tile = &mut kv.keys[s].as_mut_slice()[start..start + width * c];
            for (d, &k) in row[c..2 * c].iter().enumerate() {
                tile[d * width + pos % KEY_TILE] = k;
            }
            kv.values[s].row_mut(pos).copy_from_slice(&row[2 * c..]);
        }
        // A taped layer's probabilities: a zeroed square per (run, head),
        // whose row `pos` gets the weights over `0..=pos` (a taped run
        // starts at position 0). The masked tail is the `+0` that
        // `softmax_rows` gives `-1e30` scores.
        let mut probs: Vec<Tensor> = runs
            .iter()
            .filter(|_| taped)
            .flat_map(|r| (0..heads).map(|_| Tensor::zeros(r.tokens.len(), r.tokens.len())))
            .collect();
        let mut concat = Tensor::zeros(n, c);
        // each run's rows are consecutive, in run order
        let mut row0 = 0;
        for (r, run) in runs.iter().enumerate() {
            let fed = run.tokens.len();
            let kv = &*run.kv;
            let s = kv.slot(l);
            let squares = probs.get_mut(r * heads..(r + 1) * heads);
            heads_of.attend_run(
                &qkv.as_slice()[row0 * 3 * c..(row0 + fed) * 3 * c],
                kv.t,
                (&kv.keys[s], &kv.values[s]),
                &mut concat.as_mut_slice()[row0 * c..(row0 + fed) * c],
                squares,
                &mut scores,
            )?;
            row0 += fed;
        }
        drop(span);
        // a frozen layer is done with the q/k/v rows
        let qkv_out = taped.then_some(qkv);
        let (attn_out, proj_in) = project(l, AdapterTarget::Proj, proj, concat)?;
        let x1 = x.add(&attn_out)?;
        let (n2, ln2) = normalize(block.ln2(), &x1)?;
        let (mut pre, fc1_in) = project(l, AdapterTarget::Fc1, fc1, n2)?;
        // A taped layer keeps GELU's derivative, written over `pre`.
        let act = if taped {
            gelu_forward_train(&mut pre)
        } else {
            gelu_forward(&pre)
        };
        let gelu_grad = taped.then_some(pre);
        let (mlp_out, fc2_in) = project(l, AdapterTarget::Fc2, fc2, act)?;
        x = x1.add(&mlp_out)?;
        if taped {
            let kept = "a taped layer keeps every part";
            tape.push(BlockTape {
                ln1: ln1.expect(kept),
                qkv: qkv_in.expect(kept),
                qkv_out: qkv_out.expect(kept),
                probs,
                proj: proj_in.expect(kept),
                ln2: ln2.expect(kept),
                fc1: fc1_in.expect(kept),
                gelu_grad: gelu_grad.expect(kept),
                fc2: fc2_in.expect(kept),
            });
        }
        // one shared unembedding matmul over every row of a run exiting at l
        let mut needing = Vec::new();
        for (i, &(r, _, _)) in rows.iter().enumerate() {
            if runs[r].exits.contains(&l) {
                needing.extend_from_slice(x.row(i));
            }
        }
        if needing.is_empty() {
            continue;
        }
        let sub = Tensor::from_vec(needing.len() / c, c, needing).map_err(ModelError::Tensor)?;
        let logits = model.exit_logits_no_cache(&sub, l)?;
        let vocab = logits.cols();
        let mut rest = logits.as_slice();
        for (run, slots) in runs.iter().zip(per_exit.iter_mut()) {
            if !run.exits.contains(&l) {
                continue;
            }
            let (mine, tail) = rest.split_at(run.tokens.len() * vocab);
            rest = tail;
            for (slot, _) in slots.iter_mut().zip(run.exits).filter(|(_, &e)| e == l) {
                *slot = Tensor::from_vec(run.tokens.len(), vocab, mine.to_vec())
                    .map_err(ModelError::Tensor)?;
            }
        }
    }
    Ok(Walked {
        hidden: x,
        logits: per_exit,
        tape,
    })
}

#[cfg(test)]
impl SequenceKv {
    /// Position `pos`'s key at layer `l`, read out of its tile.
    pub(crate) fn key(&self, l: usize, pos: usize) -> Vec<f32> {
        let (start, width) = key_tile(self.capacity, self.d_model, pos / KEY_TILE);
        let tile = &self.keys[self.slot(l)].as_slice()[start..start + width * self.d_model];
        tile.iter()
            .skip(pos % KEY_TILE)
            .step_by(width)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::infer::InferenceSession;
    use edge_llm_tensor::TensorRng;

    fn model(seed: u64) -> EdgeModel {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    fn assert_rows_bit_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        let (rows, cols) = a.shape();
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(
                    a.get(r, c).to_bits(),
                    b.get(r, c).to_bits(),
                    "{what}: ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn batched_rows_match_solo_sessions_bitwise() {
        let m = model(1);
        let cfg = m.config().clone();
        let exits: Vec<usize> = vec![0, m.n_layers() - 1];
        let sequences: Vec<Vec<usize>> = vec![
            (0..cfg.seq_len)
                .map(|i| (i * 5 + 1) % cfg.vocab_size)
                .collect(),
            (0..cfg.seq_len)
                .map(|i| (i * 7 + 2) % cfg.vocab_size)
                .collect(),
            (0..cfg.seq_len)
                .map(|i| (i * 11 + 3) % cfg.vocab_size)
                .collect(),
        ];
        let mut kvs: Vec<SequenceKv> = sequences.iter().map(|_| SequenceKv::new(&m)).collect();
        let mut solos: Vec<InferenceSession> = sequences
            .iter()
            .map(|_| InferenceSession::new(&m))
            .collect();
        // lockstep over time: `t` indexes every sequence at once
        #[allow(clippy::needless_range_loop)]
        for t in 0..cfg.seq_len {
            let mut steps: Vec<BatchedStep> = kvs
                .iter_mut()
                .enumerate()
                .map(|(i, kv)| BatchedStep {
                    token: sequences[i][t],
                    kv,
                    exits: &exits,
                    adapter: None,
                })
                .collect();
            let batched = batched_decode_step(&m, &mut steps).unwrap();
            for (i, solo) in solos.iter_mut().enumerate() {
                let reference = solo.push_token_exits(sequences[i][t], &exits).unwrap();
                for (e, r) in reference.iter().enumerate() {
                    assert_rows_bit_equal(&batched[i][e], r, &format!("slot {i} exit {e} t {t}"));
                }
            }
        }
    }

    #[test]
    fn late_joining_sequence_is_unaffected_by_batch_mates() {
        let m = model(2);
        let exits = [m.n_layers() - 1];
        // sequence A runs alone for 3 tokens, then B joins mid-flight
        let a_tokens = [1usize, 2, 3, 4, 5, 6];
        let b_tokens = [9usize, 8, 7];
        let mut kv_a = SequenceKv::new(&m);
        let mut kv_b = SequenceKv::new(&m);
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for t in 0..a_tokens.len() {
            let mut steps = Vec::new();
            steps.push(BatchedStep {
                token: a_tokens[t],
                kv: &mut kv_a,
                exits: &exits,
                adapter: None,
            });
            if t >= 3 {
                steps.push(BatchedStep {
                    token: b_tokens[t - 3],
                    kv: &mut kv_b,
                    exits: &exits,
                    adapter: None,
                });
            }
            let out = batched_decode_step(&m, &mut steps).unwrap();
            got_a.push(out[0][0].clone());
            if t >= 3 {
                got_b.push(out[1][0].clone());
            }
        }
        let mut solo_a = InferenceSession::new(&m);
        for (t, &tok) in a_tokens.iter().enumerate() {
            let r = solo_a.push_token_exits(tok, &exits).unwrap();
            assert_rows_bit_equal(&got_a[t], &r[0], &format!("A t {t}"));
        }
        let mut solo_b = InferenceSession::new(&m);
        for (t, &tok) in b_tokens.iter().enumerate() {
            let r = solo_b.push_token_exits(tok, &exits).unwrap();
            assert_rows_bit_equal(&got_b[t], &r[0], &format!("B t {t}"));
        }
    }

    #[test]
    fn thread_count_does_not_change_a_single_bit() {
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        let m = model(8);
        let cfg = m.config().clone();
        let exits: Vec<usize> = (0..m.n_layers()).collect();
        let sequences: Vec<Vec<usize>> = (0..5)
            .map(|s| {
                (0..cfg.seq_len)
                    .map(|i| (i * 3 + s * 5 + 1) % cfg.vocab_size)
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            let before = configured_threads();
            set_configured_threads(threads);
            let mut kvs: Vec<SequenceKv> = sequences.iter().map(|_| SequenceKv::new(&m)).collect();
            let mut all = Vec::new();
            // lockstep over time: `t` indexes every sequence at once
            #[allow(clippy::needless_range_loop)]
            for t in 0..cfg.seq_len {
                let mut steps: Vec<BatchedStep> = kvs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, kv)| BatchedStep {
                        token: sequences[i][t],
                        kv,
                        exits: &exits,
                        adapter: None,
                    })
                    .collect();
                all.push(batched_decode_step(&m, &mut steps).unwrap());
            }
            set_configured_threads(before);
            all
        };
        let serial = run(1);
        for threads in [2usize, 3, 8] {
            let par = run(threads);
            for (t, (a, b)) in serial.iter().zip(par.iter()).enumerate() {
                for (slot, (sa, sb)) in a.iter().zip(b.iter()).enumerate() {
                    for (e, (ta, tb)) in sa.iter().zip(sb.iter()).enumerate() {
                        assert_rows_bit_equal(
                            ta,
                            tb,
                            &format!("threads {threads} t {t} slot {slot} exit {e}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefill_skips_logits() {
        let m = model(3);
        let mut kv = SequenceKv::new(&m);
        let mut steps = [BatchedStep {
            token: 1,
            kv: &mut kv,
            exits: &[],
            adapter: None,
        }];
        let out = batched_decode_step(&m, &mut steps).unwrap();
        assert!(out[0].is_empty());
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn validation_is_all_or_nothing() {
        let m = model(4);
        let mut kv_good = SequenceKv::new(&m);
        let mut kv_bad = SequenceKv::new(&m);
        let exits = [0usize];
        {
            let mut steps = [
                BatchedStep {
                    token: 1,
                    kv: &mut kv_good,
                    exits: &exits,
                    adapter: None,
                },
                BatchedStep {
                    token: 99_999,
                    kv: &mut kv_bad,
                    exits: &exits,
                    adapter: None,
                },
            ];
            assert!(matches!(
                batched_decode_step(&m, &mut steps),
                Err(ModelError::BadConfig { .. })
            ));
        }
        // neither sequence advanced
        assert_eq!(kv_good.len(), 0);
        assert_eq!(kv_bad.len(), 0);
        {
            let mut steps = [BatchedStep {
                token: 1,
                kv: &mut kv_good,
                exits: &[99],
                adapter: None,
            }];
            assert!(matches!(
                batched_decode_step(&m, &mut steps),
                Err(ModelError::LayerOutOfRange { .. })
            ));
        }
        assert_eq!(kv_good.len(), 0);
    }

    #[test]
    fn capacity_is_enforced_before_any_mutation() {
        let m = model(5);
        let seq_len = m.config().seq_len;
        let mut kv_full = SequenceKv::new(&m);
        for _ in 0..seq_len {
            let mut steps = [BatchedStep {
                token: 1,
                kv: &mut kv_full,
                exits: &[],
                adapter: None,
            }];
            batched_decode_step(&m, &mut steps).unwrap();
        }
        assert_eq!(kv_full.remaining(), 0);
        let mut kv_fresh = SequenceKv::new(&m);
        let mut steps = [
            BatchedStep {
                token: 1,
                kv: &mut kv_fresh,
                exits: &[],
                adapter: None,
            },
            BatchedStep {
                token: 1,
                kv: &mut kv_full,
                exits: &[],
                adapter: None,
            },
        ];
        assert!(matches!(
            batched_decode_step(&m, &mut steps),
            Err(ModelError::CapacityExhausted { .. })
        ));
        assert_eq!(kv_fresh.len(), 0, "batch-mate must not advance");
        kv_full.reset();
        assert!(kv_full.is_empty());
        assert_eq!(kv_full.remaining(), seq_len);
    }

    #[test]
    fn a_pass_that_fails_in_the_walk_advances_no_cursor_at_any_thread_count() {
        use crate::adapter::TenantAdapter;
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        // The integer route: it refuses a non-finite projection input
        // (`QuantError::NonFinite`) where the f32 routes would carry it on.
        let mut m = model(12);
        for l in 0..m.n_layers() {
            for lin in m.block_mut(l).linears_mut() {
                lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                lin.set_activation_quant(Some(QuantScheme::asymmetric(BitWidth::W8)));
            }
        }
        // Finite factors (so `resolve` accepts them) whose product
        // overflows: the poisoned run's q/k/v rows go infinite, its
        // attention output NaN, and `proj` fails — past validation.
        let cfg = m.config().clone();
        let mut delta =
            TenantAdapter::seeded(&cfg, 3, 1, &[(0, AdapterTarget::Qkv)]).deltas()[0].clone();
        delta.a = Tensor::full(cfg.d_model, 1, 1e30);
        delta.b = Tensor::full(1, 3 * cfg.d_model, 1e30);
        let poison = TenantAdapter::new(vec![delta]).resolve(&m).unwrap();
        let exits = [m.n_layers() - 1];
        let step = |kv: &mut SequenceKv, token: usize| {
            let mut steps = [BatchedStep {
                token,
                kv,
                exits: &exits,
                adapter: None,
            }];
            batched_decode_step(&m, &mut steps)
                .unwrap()
                .remove(0)
                .remove(0)
        };
        // what the healthy sequence computes when nothing ever fails
        let mut reference = SequenceKv::new(&m);
        let want: Vec<Tensor> = [4, 7, 9, 2]
            .iter()
            .map(|&t| step(&mut reference, t))
            .collect();

        let before = configured_threads();
        for threads in [1usize, 2] {
            // two runs and two workers put each run in a chunk of its own
            set_configured_threads(threads);
            let (mut healthy, mut poisoned) = (SequenceKv::new(&m), SequenceKv::new(&m));
            for (&t, w) in [4, 7].iter().zip(&want) {
                assert_rows_bit_equal(&step(&mut healthy, t), w, "context");
                step(&mut poisoned, t);
            }
            let mut steps = [
                BatchedStep {
                    token: 9,
                    kv: &mut healthy,
                    exits: &exits,
                    adapter: None,
                },
                BatchedStep {
                    token: 9,
                    kv: &mut poisoned,
                    exits: &exits,
                    adapter: Some(&poison),
                },
            ];
            assert!(
                matches!(
                    batched_decode_step(&m, &mut steps),
                    Err(ModelError::Compression { .. })
                ),
                "threads {threads}: the poisoned pass must fail typed"
            );
            assert_eq!(healthy.len(), 2, "threads {threads}: batch-mate advanced");
            assert_eq!(poisoned.len(), 2, "threads {threads}: failed run advanced");
            // a clean retry of the healthy run alone: as if nothing failed
            for (&t, w) in [9, 2].iter().zip(&want[2..]) {
                assert_rows_bit_equal(&step(&mut healthy, t), w, "retry");
            }
        }
        set_configured_threads(before);
    }

    #[test]
    fn a_non_finite_frozen_weight_fails_typed_and_advances_no_cursor() {
        use edge_llm_quant::{BitWidth, QuantScheme};
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        // A frozen compressed layer builds its codes on the walk, and the
        // quantizer refuses a non-finite master weight: on the row-code
        // route and on the integer route, logits and a batched step fail
        // with `ModelError::Compression`, and no sequence advances.
        let before = configured_threads();
        for act in [None, Some(QuantScheme::asymmetric(BitWidth::W8))] {
            let mut m = model(15);
            for l in 0..m.n_layers() {
                for lin in m.block_mut(l).linears_mut() {
                    lin.set_quant(Some(QuantScheme::symmetric(BitWidth::W4)));
                    lin.set_activation_quant(act);
                }
            }
            m.pack_frozen_weights().unwrap();
            let exits = [m.n_layers() - 1];
            let (mut a, mut b) = (SequenceKv::new(&m), SequenceKv::new(&m));
            for kv in [&mut a, &mut b] {
                let mut steps = [BatchedStep {
                    token: 3,
                    kv,
                    exits: &exits,
                    adapter: None,
                }];
                batched_decode_step(&m, &mut steps).unwrap();
            }
            let fc1 = &mut m.block_mut(1).linears_mut()[2];
            let mut weight = true;
            fc1.visit_params(&mut |p, _| {
                if std::mem::take(&mut weight) {
                    p[7] = f32::NAN;
                }
            });
            let tokens = vec![1; m.config().seq_len];
            assert!(
                matches!(m.logits(&tokens, 1), Err(ModelError::Compression { .. })),
                "{act:?}: logits"
            );
            for threads in [1usize, 2] {
                set_configured_threads(threads);
                let mut steps = [&mut a, &mut b].map(|kv| BatchedStep {
                    token: 4,
                    kv,
                    exits: &exits,
                    adapter: None,
                });
                assert!(
                    matches!(
                        batched_decode_step(&m, &mut steps),
                        Err(ModelError::Compression { .. })
                    ),
                    "{act:?}, threads {threads}: decode step"
                );
                assert_eq!((a.len(), b.len()), (1, 1), "{act:?}, threads {threads}");
            }
        }
        set_configured_threads(before);
    }

    #[test]
    fn a_non_finite_last_position_reaches_no_earlier_row_and_no_batch_mate() {
        use edge_llm_tensor::{configured_threads, set_configured_threads};
        // Row t reads no key, value or weight past position t, so a NaN or
        // Inf planted at a run's last fed position changes no earlier row
        // of that run and nothing of its batch-mate: every other row is
        // bit-identical to the pass that never fed the position. Attention
        // over the square would carry it everywhere (0 · NaN is NaN).
        let m = model(13);
        let (n_layers, c, seq) = (m.n_layers(), m.config().d_model, m.config().seq_len);
        let mut rng = TensorRng::seed_from(14);
        let exits = [n_layers - 1];
        // one pass over two runs of `lens` entering at `from` with
        // `hidden`; returns every fed row's hidden state and final logits
        let pass = |kvs: &mut [SequenceKv], lens: [usize; 2], from: usize, hidden: &[f32]| {
            let tokens = [3usize; 8];
            let mut runs: Vec<Run<'_>> = kvs
                .iter_mut()
                .zip(lens)
                .map(|(kv, len)| Run {
                    tokens: &tokens[..len],
                    kv,
                    exits: &exits,
                    adapter: None,
                })
                .collect();
            let entry = Entry {
                from,
                hidden: Some(hidden),
                block: None,
            };
            let (rows, logits) = decode_runs(&m, &mut runs, entry, n_layers, None).unwrap();
            let logits: Vec<Tensor> = logits.into_iter().map(|mut l| l.remove(0)).collect();
            (rows, logits)
        };
        let before = configured_threads();
        for bad in [f32::NAN, f32::INFINITY] {
            for threads in [1usize, 2] {
                set_configured_threads(threads);
                // a frozen full-window pass entering above layer 0 on
                // scratch K/V, and a five-row speculative chunk on caches
                // with history, its batch-mate three rows long
                for (from, lens) in [(1, [seq, seq]), (0, [5, 3])] {
                    let what = format!("{bad} threads {threads} from {from} runs {lens:?}");
                    let fresh = || -> Vec<SequenceKv> {
                        if from > 0 {
                            return (0..2).map(|_| SequenceKv::with_layers(&m, 1)).collect();
                        }
                        let mut kvs: Vec<SequenceKv> =
                            (0..2).map(|_| SequenceKv::new(&m)).collect();
                        for token in [1, 2, 3] {
                            let mut steps: Vec<BatchedStep> = kvs
                                .iter_mut()
                                .map(|kv| BatchedStep {
                                    token,
                                    kv,
                                    exits: &[],
                                    adapter: None,
                                })
                                .collect();
                            batched_decode_step(&m, &mut steps).unwrap();
                        }
                        kvs
                    };
                    let fed = lens[0] + lens[1];
                    let hidden = Tensor::randn(fed, c, 1.0, &mut rng).into_vec();
                    let mut planted = hidden.clone();
                    let last = lens[0] - 1;
                    planted[last * c..(last + 1) * c].fill(bad);
                    let (rows, logits) = pass(&mut fresh(), lens, from, &planted);
                    // the pass without that position
                    let mut shorter = hidden[..last * c].to_vec();
                    shorter.extend_from_slice(&hidden[lens[0] * c..]);
                    let (want_rows, want_logits) =
                        pass(&mut fresh(), [last, lens[1]], from, &shorter);
                    assert!(
                        rows.row(last).iter().all(|v| !v.is_finite()),
                        "{what}: planted"
                    );
                    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let kept: Vec<usize> = (0..last).chain(lens[0]..fed).collect();
                    for (want, &got) in kept.iter().enumerate() {
                        let row = format!("{what}: row {got}");
                        assert_eq!(bits(rows.row(got)), bits(want_rows.row(want)), "{row}");
                    }
                    for i in 0..last {
                        let (got, want) = (logits[0].row(i), want_logits[0].row(i));
                        assert_eq!(bits(got), bits(want), "{what}: run 0 logits {i}");
                    }
                    assert_rows_bit_equal(&logits[1], &want_logits[1], &format!("{what}: run 1"));
                }
            }
        }
        set_configured_threads(before);
    }

    #[test]
    fn a_one_pair_scratch_cache_cannot_be_continued() {
        // every layer overwrites the pair, so there is no history to resume
        let m = model(10);
        let mut kv = SequenceKv::with_layers(&m, 1);
        let feed = |kv: &mut SequenceKv| {
            let mut runs = [Run {
                tokens: &[1, 2],
                kv,
                exits: &[],
                adapter: None,
            }];
            decode_runs(&m, &mut runs, Entry::EMBEDDING, m.n_layers(), None).map(|_| ())
        };
        feed(&mut kv).unwrap();
        assert!(matches!(feed(&mut kv), Err(ModelError::BadConfig { .. })));
        kv.reset();
        feed(&mut kv).unwrap();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let m = model(6);
        let out = batched_decode_step(&m, &mut []).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn cache_bytes_match_session() {
        let m = model(7);
        let kv = SequenceKv::new(&m);
        let session = InferenceSession::new(&m);
        assert_eq!(kv.cache_bytes(), session.cache_bytes());
    }
}
