use crate::batched::{key_tile, KEY_TILE};
use crate::block::BlockTape;
use crate::error::ModelError;
use crate::linear::Linear;
use edge_llm_telemetry as telemetry;
use edge_llm_tensor::{
    causal_prefix, causal_scores, causal_suffix, pool, Rows, RowsMut, Tensor, TensorError,
    TensorRng,
};

/// Causal multi-head self-attention.
///
/// Input and output are `(batch * seq) x d_model` row-major token matrices.
/// The QKV projection is a single fused [`Linear`] (`d_model -> 3 d_model`)
/// followed by per-head scaled dot-product attention with a causal mask and
/// an output projection. The forward is the decode walk's
/// (`crate::batched`), which attends once per run of fed rows: per head, the scores, softmax and weighted sum over the causal
/// triangle, each product on the tensor crate's blocked kernel. For a
/// block in the training window the walk records the `qkv` output and
/// the probabilities in the block's [`BlockTape`]; [`Attention::backward`]
/// reads them and differentiates the same triangle.
#[derive(Debug, Clone)]
pub struct Attention {
    pub(crate) qkv: Linear,
    pub(crate) proj: Linear,
    n_heads: usize,
    d_model: usize,
}

impl Attention {
    /// Creates an attention module for `d_model` with `n_heads` heads.
    pub fn new(d_model: usize, n_heads: usize, rng: &mut TensorRng) -> Self {
        Attention {
            qkv: Linear::new(d_model, 3 * d_model, rng),
            proj: Linear::new(d_model, d_model, rng),
            n_heads,
            d_model,
        }
    }

    /// Read access to the projections, in `(qkv, proj)` order; write them
    /// through [`crate::Block::linears_mut`].
    pub fn linears(&self) -> (&Linear, &Linear) {
        (&self.qkv, &self.proj)
    }

    /// Backward pass from the attention fields of `tape`: accumulates
    /// projection gradients, returns `dx`.
    ///
    /// Each run's rows of the `qkv` gradient are written by one task, per
    /// head straight into the head's columns: `datt = dy · vᵀ`, the softmax
    /// gradient, `dq = ds · k`, `dk = dsᵀ · q` and `dv = attᵀ · dy`, every
    /// product over the causal triangle ([`edge_llm_tensor::causal_scores`]
    /// and its two sums). On finite activations that is bit for bit the
    /// full-square backward the test-only reference keeps: outside the
    /// triangle `att` is the tape's `+0`, so every term there is `±0`, and
    /// each sum starts at `+0.0`, which a `±0` term never changes.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn backward(&mut self, tape: &BlockTape, dout: &Tensor) -> Result<Tensor, ModelError> {
        let (c, heads) = (self.d_model, self.n_heads);
        let dconcat = self.proj.backward(&tape.proj, dout)?;
        let mut dqkv = Tensor::zeros(dconcat.rows(), 3 * c);
        {
            let _span = telemetry::span("model.attention_backward");
            let seq = tape.probs.first().map_or(0, Tensor::rows);
            let runs = tape.probs.len() / heads;
            if runs * seq != dconcat.rows() || tape.qkv_out.shape() != (runs * seq, 3 * c) {
                return Err(ModelError::BadBatch {
                    expected: runs * seq,
                    actual: dconcat.rows(),
                });
            }
            // Runs are the parallel axis: each owns its rows of `dqkv`.
            // Each head costs about `2 · seq² · hs` MACs.
            let workers = pool::workers(0, runs * 2 * seq * seq * c, runs);
            let per_run = seq * 3 * c;
            let mut rest = dqkv.as_mut_slice();
            let parts: Vec<_> = pool::partition(runs, workers)
                .into_iter()
                .map(|p| {
                    let panel = rest.split_off_mut(..p.len() * per_run);
                    (p.start, panel.expect("runs fit the gradient"))
                })
                .collect();
            let geometry = Heads::new(c, heads);
            let backward_runs = |(run0, panel): (usize, &mut [f32])| {
                let mut scratch = BackwardScratch::default();
                for (dr, dqkv_run) in panel.chunks_mut(per_run).enumerate() {
                    let b = run0 + dr;
                    let (first, end) = (b * seq, (b + 1) * seq);
                    let run = RunRows {
                        qkv: &tape.qkv_out.as_slice()[first * 3 * c..end * 3 * c],
                        dy: &dconcat.as_slice()[first * c..end * c],
                    };
                    for h in 0..heads {
                        let att = tape.probs[b * heads + h].as_slice();
                        geometry.head_backward(h, att, run, dqkv_run, &mut scratch)?;
                    }
                }
                Ok::<_, TensorError>(())
            };
            for done in pool::fan_out(parts, backward_runs) {
                done?;
            }
        }
        self.qkv.backward(&tape.qkv, &dqkv)
    }
}

/// Head geometry: `d_model` columns in `heads` heads of `hs`, scores
/// scaled by `1 / sqrt(hs)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Heads {
    c: usize,
    heads: usize,
    hs: usize,
    scale: f32,
}

impl Heads {
    pub(crate) fn new(d_model: usize, heads: usize) -> Self {
        let hs = d_model / heads;
        Heads {
            c: d_model,
            heads,
            hs,
            scale: 1.0 / (hs as f32).sqrt(),
        }
    }

    /// The `hs` columns from `at` of `data`'s rows (`width` floats each),
    /// transposed into `out` as `hs` rows of one float per row of `data`.
    fn transpose_head(&self, data: &[f32], width: usize, at: usize, out: &mut Vec<f32>) {
        let t = data.len() / width;
        out.resize(self.hs * t, 0.0);
        for (p, row) in data.chunks_exact(width).enumerate() {
            for (d, &v) in row[at..at + self.hs].iter().enumerate() {
                out[d * t + p] = v;
            }
        }
    }

    /// One (run, head) of the triangle backward: adds the head's `dq`,
    /// `dk` and `dv` into its columns of the run's `qkv` gradient rows
    /// (zeroed).
    fn head_backward(
        &self,
        h: usize,
        att: &[f32],
        run: RunRows<'_>,
        dqkv: &mut [f32],
        scratch: &mut BackwardScratch,
    ) -> Result<(), TensorError> {
        let (c, hs) = (self.c, self.hs);
        let m = run.dy.len() / c;
        let [q, k] = [0, c].map(|at| rows(run.qkv, 3 * c, at + h * hs));
        let dy = rows(run.dy, c, h * hs);
        let BackwardScratch {
            vt,
            ds,
            ds_t,
            att_t,
        } = scratch;
        self.transpose_head(run.qkv, 3 * c, 2 * c + h * hs, vt);
        // every entry a product reads is written below first
        for buf in [&mut *ds, &mut *ds_t, &mut *att_t] {
            buf.resize(m * m, 0.0);
        }
        // datt = dy · vᵀ over the triangle, into `ds`
        causal_scores(dy, rows(vt, m, 0), rows_mut(ds, m, 0), (m, hs, 0), 0..m)?;
        // the softmax gradient row by row over its prefix, in
        // `softmax_backward`'s order, then the scale; both transposes keep
        // the triangle on and above their diagonal
        for i in 0..m {
            let y = &att[i * m..i * m + i + 1];
            let row = &mut ds[i * m..i * m + i + 1];
            let dot: f32 = y.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
            for (p, (g, &yp)) in row.iter_mut().zip(y).enumerate() {
                *g = yp * (*g - dot) * self.scale;
                ds_t[p * m + i] = *g;
                att_t[p * m + i] = yp;
            }
        }
        let dq = rows_mut(dqkv, 3 * c, h * hs);
        causal_prefix(rows(ds, m, 0), k, dq, (m, hs, 0))?;
        let dk = rows_mut(dqkv, 3 * c, c + h * hs);
        causal_suffix(rows(ds_t, m, 0), q, dk, (m, hs))?;
        let dv = rows_mut(dqkv, 3 * c, 2 * c + h * hs);
        causal_suffix(rows(att_t, m, 0), dy, dv, (m, hs))?;
        Ok(())
    }

    /// One run's attention in the layer walk: the `n` fed rows of one
    /// sequence, at positions `t0..t0 + n`, each over its causal prefix of
    /// the sequence's keys and values (cached as [`crate::SequenceKv`]
    /// lays them out, written up to position `t0 + n`). Per head, the
    /// scores `q · kᵀ` go through [`causal_scores`], one key tile at a
    /// time, each row's softmax runs over positions `0..=t` in
    /// `softmax_rows`'s order (max, exp and ascending sum, one scale per
    /// weight), and [`causal_prefix`] adds `p · v` onto the head's columns
    /// of `concat` (the run's rows, zeroed). Row `t` reads no key, value or
    /// weight past position `t`.
    ///
    /// Given `squares` — a taped run, `t0 = 0` — head `h`'s probabilities
    /// are computed in `squares[h]`, a zeroed `(n, n)` square whose entries
    /// past the triangle stay `+0`; otherwise in `scratch`.
    pub(crate) fn attend_run(
        &self,
        qkv: &[f32],
        t0: usize,
        (keys, values): (&Tensor, &Tensor),
        concat: &mut [f32],
        mut squares: Option<&mut [Tensor]>,
        scratch: &mut Vec<f32>,
    ) -> Result<(), TensorError> {
        let (c, hs) = (self.c, self.hs);
        let n = concat.len() / c;
        // every position this run's rows read
        let t = t0 + n;
        for h in 0..self.heads {
            let probs: &mut [f32] = match squares.as_deref_mut() {
                Some(squares) => squares[h].as_mut_slice(),
                None => {
                    scratch.resize(n * t, 0.0);
                    scratch
                }
            };
            let q = rows(qkv, 3 * c, h * hs);
            for tile in 0..t.div_ceil(KEY_TILE) {
                let (start, width) = key_tile(keys.rows(), c, tile);
                let head = &keys.as_slice()[start + h * hs * width..start + (h + 1) * hs * width];
                let first = tile * KEY_TILE;
                let cols = first..(first + width).min(t);
                let scores = rows_mut(probs, t, 0);
                causal_scores(q, rows(head, width, 0), scores, (n, hs, t0), cols)?;
            }
            for i in 0..n {
                let row = &mut probs[i * t..i * t + t0 + i + 1];
                for s in row.iter_mut() {
                    *s *= self.scale;
                }
                let max = row_max(row);
                let mut sum = 0.0;
                for s in row.iter_mut() {
                    *s = (*s - max).exp();
                    sum += *s;
                }
                let inv = 1.0 / sum;
                for s in row.iter_mut() {
                    *s *= inv;
                }
            }
            let v = rows(values.as_slice(), c, h * hs);
            let out = rows_mut(concat, c, h * hs);
            causal_prefix(rows(probs, t, 0), v, out, (n, hs, t0))?;
        }
        Ok(())
    }
}

/// The largest of `row`, `-Inf` when empty, taken in eight independent
/// lanes so that the compiler keeps them in vector registers. A maximum
/// ignores order but for the sign of a zero result, and a softmax reads
/// `+0` and `-0` alike: `s - max` is then `±0` for a zero `s` and `s`
/// otherwise, and `exp(±0)` is 1.
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v);
        }
    }
    for (m, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *m = m.max(v);
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// Columns `col..` of `data`'s rows of `stride` floats.
fn rows(data: &[f32], stride: usize, col: usize) -> Rows<'_> {
    Rows { data, stride, col }
}

/// The writable [`rows`].
fn rows_mut(data: &mut [f32], stride: usize, col: usize) -> RowsMut<'_> {
    RowsMut { data, stride, col }
}

/// One run's rows of the tape's `qkv` output and of the gradient reaching
/// the attention output.
#[derive(Clone, Copy)]
struct RunRows<'a> {
    qkv: &'a [f32],
    dy: &'a [f32],
}

/// Reused buffers of one backward task: one head's values transposed,
/// the score gradient, and the two triangles transposed.
#[derive(Debug, Default)]
struct BackwardScratch {
    vt: Vec<f32>,
    ds: Vec<f32>,
    ds_t: Vec<f32>,
    att_t: Vec<f32>,
}

/// The training attention the window ran before it moved onto the layer
/// walk and the full-square backward it ran before the triangle: the
/// walk's and [`Attention::backward`]'s independent references (see
/// `crate::block::reference`).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use edge_llm_tensor::{matmul_a_bt_with, matmul_at_b_with, softmax_backward, softmax_rows};

    /// Head `h`'s `(seq, hs)` block of sequence `b`, read from the columns
    /// at `offset + h * hs`.
    fn read_head(x: &Tensor, b: usize, seq: usize, h: usize, hs: usize, offset: usize) -> Tensor {
        let mut out = Tensor::zeros(seq, hs);
        for t in 0..seq {
            out.row_mut(t)
                .copy_from_slice(&x.row(b * seq + t)[offset + h * hs..offset + (h + 1) * hs]);
        }
        out
    }

    fn scatter_head(
        dst: &mut Tensor,
        src: &Tensor,
        b: usize,
        seq: usize,
        h: usize,
        hs: usize,
        offset: usize,
    ) {
        for t in 0..seq {
            dst.row_mut(b * seq + t)[offset + h * hs..offset + (h + 1) * hs]
                .copy_from_slice(src.row(t));
        }
    }

    impl Attention {
        /// Attention over `batch` sequences of `seq` rows, filling the
        /// attention fields of `tape`.
        pub(crate) fn forward_reference(
            &self,
            x: &Tensor,
            batch: usize,
            seq: usize,
            tape: &mut BlockTape,
        ) -> Result<Tensor, ModelError> {
            if x.rows() != batch * seq || x.cols() != self.d_model {
                return Err(ModelError::BadBatch {
                    expected: batch * seq,
                    actual: x.rows(),
                });
            }
            let (c, hs) = (self.d_model, self.d_model / self.n_heads);
            let scale = 1.0 / (hs as f32).sqrt();
            let (qkv_out, qkv_cache) = self.qkv.forward(x.clone())?;
            let mut concat = Tensor::zeros(batch * seq, c);
            let mut probs = Vec::new();
            for idx in 0..batch * self.n_heads {
                let (b, h) = (idx / self.n_heads, idx % self.n_heads);
                let [q, k, v] = [0, c, 2 * c].map(|at| read_head(&qkv_out, b, seq, h, hs, at));
                let mut scores = matmul_a_bt_with(&q, &k, 1)?;
                scores.scale_in_place(scale);
                apply_causal_mask(&mut scores);
                let att = softmax_rows(&scores);
                let y = att.matmul_with(&v, 1)?;
                scatter_head(&mut concat, &y, b, seq, h, hs, 0);
                probs.push(att);
            }
            let (out, proj_cache) = self.proj.forward(concat)?;
            tape.qkv = qkv_cache;
            tape.qkv_out = qkv_out;
            tape.probs = probs;
            tape.proj = proj_cache;
            Ok(out)
        }
    }

    impl Attention {
        /// The full-square backward: per (run, head), every product over
        /// the whole `(seq, seq)` square, then scattered into the `qkv`
        /// gradient. Accumulates projection gradients, returns `dx`.
        pub(crate) fn backward_reference(
            &mut self,
            tape: &BlockTape,
            dout: &Tensor,
        ) -> Result<Tensor, ModelError> {
            let (c, hs) = (self.d_model, self.d_model / self.n_heads);
            let scale = 1.0 / (hs as f32).sqrt();
            let seq = tape.probs.first().map_or(0, Tensor::rows);
            let dconcat = self.proj.backward(&tape.proj, dout)?;
            let mut dqkv = Tensor::zeros(dconcat.rows(), 3 * c);
            for (idx, att) in tape.probs.iter().enumerate() {
                let (b, h) = (idx / self.n_heads, idx % self.n_heads);
                let [q, k, v] = [0, c, 2 * c].map(|at| read_head(&tape.qkv_out, b, seq, h, hs, at));
                let dy = read_head(&dconcat, b, seq, h, hs, 0);
                // y = att · v
                let datt = matmul_a_bt_with(&dy, &v, 1)?;
                let dv = matmul_at_b_with(att, &dy, 1)?;
                // att = softmax(scores); masked entries have att == 0 so
                // their score gradient is identically zero.
                let mut ds = softmax_backward(att, &datt)?;
                ds.scale_in_place(scale);
                // scores = q · kᵀ (pre-scale)
                let dq = ds.matmul_with(&k, 1)?;
                let dk = matmul_at_b_with(&ds, &q, 1)?;
                scatter_head(&mut dqkv, &dq, b, seq, h, hs, 0);
                scatter_head(&mut dqkv, &dk, b, seq, h, hs, c);
                scatter_head(&mut dqkv, &dv, b, seq, h, hs, 2 * c);
            }
            self.qkv.backward(&tape.qkv, &dqkv)
        }
    }

    fn apply_causal_mask(scores: &mut Tensor) {
        let (rows, cols) = scores.shape();
        for i in 0..rows {
            let row = scores.row_mut(i);
            for v in row.iter_mut().take(cols).skip(i + 1) {
                *v = -1e30;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_quant::{BitWidth, QuantScheme};

    fn forward(
        attn: &Attention,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Result<(Tensor, BlockTape), ModelError> {
        let mut tape = BlockTape::empty();
        let y = attn.forward_reference(x, batch, seq, &mut tape)?;
        Ok((y, tape))
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = TensorRng::seed_from(1);
        let attn = Attention::new(16, 4, &mut rng);
        let x = Tensor::randn(2 * 6, 16, 1.0, &mut rng);
        let (y, _) = forward(&attn, &x, 2, 6).unwrap();
        assert_eq!(y.shape(), (12, 16));
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        let mut rng = TensorRng::seed_from(2);
        let mut attn = Attention::new(8, 2, &mut rng);
        let seq = 5;
        let x1 = Tensor::randn(seq, 8, 1.0, &mut rng);
        let mut x2 = x1.clone();
        // perturb the last token only
        for c in 0..8 {
            let v = x2.get(seq - 1, c);
            x2.set(seq - 1, c, v + 3.0);
        }
        // and with an activation scheme on `qkv`, whose ranges must not be
        // shared across tokens either
        for act in [
            None,
            Some(QuantScheme::asymmetric(BitWidth::W4)),
            Some(QuantScheme::asymmetric(BitWidth::W8)),
        ] {
            attn.qkv.set_activation_quant(act);
            let y1 = forward(&attn, &x1, 1, seq).unwrap().0;
            let y2 = forward(&attn, &x2, 1, seq).unwrap().0;
            for t in 0..seq - 1 {
                for c in 0..8 {
                    assert!(
                        (y1.get(t, c) - y2.get(t, c)).abs() < 1e-5,
                        "token {t} changed"
                    );
                }
            }
            // but the perturbed position itself must change
            let last_diff: f32 = (0..8)
                .map(|c| (y1.get(seq - 1, c) - y2.get(seq - 1, c)).abs())
                .sum();
            assert!(last_diff > 1e-3);
        }
    }

    #[test]
    fn batch_sequences_are_independent() {
        let mut rng = TensorRng::seed_from(3);
        let attn = Attention::new(8, 2, &mut rng);
        let seq = 4;
        let a = Tensor::randn(seq, 8, 1.0, &mut rng);
        let b = Tensor::randn(seq, 8, 1.0, &mut rng);
        // batched forward
        let mut xb = Tensor::zeros(2 * seq, 8);
        for t in 0..seq {
            xb.row_mut(t).copy_from_slice(a.row(t));
            xb.row_mut(seq + t).copy_from_slice(b.row(t));
        }
        let yb = forward(&attn, &xb, 2, seq).unwrap().0;
        let ya = forward(&attn, &a, 1, seq).unwrap().0;
        for t in 0..seq {
            for c in 0..8 {
                assert!((yb.get(t, c) - ya.get(t, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = TensorRng::seed_from(4);
        let mut attn = Attention::new(4, 2, &mut rng);
        let seq = 3;
        let x = Tensor::randn(seq, 4, 0.7, &mut rng);
        let dy = Tensor::randn(seq, 4, 1.0, &mut rng);
        let (_, cache) = forward(&attn, &x, 1, seq).unwrap();
        let dx = attn.backward(&cache, &dy).unwrap();
        // numeric dL/dx where L = sum(y * dy)
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..x.len() {
            let orig = xp.as_slice()[i];
            xp.as_mut_slice()[i] = orig + eps;
            let lp: f32 = forward(&attn, &xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig - eps;
            let lm: f32 = forward(&attn, &xp, 1, seq)
                .unwrap()
                .0
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            xp.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.as_slice()[i];
            assert!(
                (num - ana).abs() < 3e-2,
                "element {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn bad_batch_shape_errors() {
        let mut rng = TensorRng::seed_from(5);
        let attn = Attention::new(8, 2, &mut rng);
        let x = Tensor::zeros(7, 8);
        assert!(matches!(
            forward(&attn, &x, 2, 4),
            Err(ModelError::BadBatch { .. })
        ));
    }
}
