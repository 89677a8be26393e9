//! The LUC sensitivity oracle over a live [`EdgeModel`].
//!
//! Sensitivity of layer *l* to a candidate compression is measured as the
//! calibration-batch loss of the model with **only** layer *l* compressed.
//! A probe changes block *l* alone, so layers `0..l` produce the baseline's
//! hidden rows bit for bit. On first use the oracle therefore walks the
//! baseline one layer at a time, keeping the rows entering every layer;
//! the last of those passes gives the baseline loss. A probe of layer *l*
//! installs the policy on a copy of block *l* and walks `l..n` of the model
//! from the kept rows, the copy standing in for layer *l*
//! ([`EdgeModel::frozen_forward`]). A probe that installs nothing — 16
//! bits, no pruning, on a layer with no mask and no quantization scheme —
//! returns the baseline loss without a pass. Every loss is bit-equal to
//! cloning the whole model, installing the policy and running
//! [`EdgeModel::logits`]; yet no second model is built, and the model,
//! held by shared reference, is never disturbed.

use crate::compress::compress_block;
use edge_llm_luc::{LayerPolicy, SensitivityOracle};
use edge_llm_model::{Block, EdgeModel};
use edge_llm_tensor::{cross_entropy_forward, Tensor};

/// A [`SensitivityOracle`] backed by a model and a calibration batch.
pub struct ModelOracle<'a> {
    model: &'a EdgeModel,
    tokens: &'a [usize],
    targets: &'a [usize],
    batch: usize,
    /// `entering[l - 1]`: the baseline's hidden rows entering layer `l`,
    /// for every layer the baseline walk reached.
    entering: Vec<Tensor>,
    baseline: Option<f32>,
    probes: usize,
    layers_walked: usize,
}

impl<'a> ModelOracle<'a> {
    /// Wraps `model` with a calibration batch of `batch` sequences.
    pub fn new(
        model: &'a EdgeModel,
        tokens: &'a [usize],
        targets: &'a [usize],
        batch: usize,
    ) -> Self {
        ModelOracle {
            model,
            tokens,
            targets,
            batch,
            entering: Vec::new(),
            baseline: None,
            probes: 0,
            layers_walked: 0,
        }
    }

    /// Number of compressed-model evaluations performed so far.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Layers walked so far, by the baseline and every probe: the
    /// baseline walks each layer once, a probe of layer `l` walks `l..n`,
    /// and a probe that installs nothing walks none.
    pub fn layers_walked(&self) -> usize {
        self.layers_walked
    }

    fn loss(&self, logits: &Tensor) -> f32 {
        cross_entropy_forward(logits, self.targets).map_or(f32::INFINITY, |ce| ce.loss)
    }
}

/// `source` under `policy`, copied without the gradients pretraining left.
fn probe_block(source: &Block, policy: LayerPolicy) -> Option<Block> {
    let mut block = source.frozen_copy();
    compress_block(&mut block, policy).ok()?;
    Some(block)
}

impl SensitivityOracle for ModelOracle<'_> {
    fn n_layers(&self) -> usize {
        self.model.n_layers()
    }

    fn loss_with(&mut self, layer: usize, policy: LayerPolicy) -> f32 {
        self.probes += 1;
        let baseline = self.baseline_loss();
        let n = self.model.n_layers();
        if layer >= n {
            return f32::INFINITY;
        }
        let source = self.model.block(layer);
        let bare = source
            .linears()
            .iter()
            .all(|lin| lin.mask().is_none() && lin.quant().is_none());
        if bare && policy == LayerPolicy::uncompressed() {
            return baseline;
        }
        let Some(block) = probe_block(source, policy) else {
            return f32::INFINITY;
        };
        // Where the baseline walk failed below `layer` there are no rows,
        // and the pass is refused: a walk through those layers fails too.
        let entering = layer.checked_sub(1).and_then(|i| self.entering.get(i));
        self.layers_walked += n - layer;
        let (model, tokens, batch) = (self.model, self.tokens, self.batch);
        let pass = model.frozen_forward(tokens, batch, layer, entering, Some(&block), n, &[n - 1]);
        pass.map_or(f32::INFINITY, |(_, logits)| self.loss(&logits[0]))
    }

    fn baseline_loss(&mut self) -> f32 {
        if let Some(loss) = self.baseline {
            return loss;
        }
        // One layer per pass, keeping each pass's output rows; the split
        // walk is bit-identical to one full-depth pass.
        let n = self.model.n_layers();
        let mut loss = f32::INFINITY;
        for l in 0..n {
            self.layers_walked += 1;
            let exits: &[usize] = if l + 1 == n { &[l] } else { &[] };
            let pass = self.model.frozen_forward(
                self.tokens,
                self.batch,
                l,
                self.entering.last(),
                None,
                l + 1,
                exits,
            );
            match pass {
                Ok((rows, _)) if l + 1 < n => self.entering.push(rows),
                Ok((_, logits)) => loss = self.loss(&logits[0]),
                Err(_) => break,
            }
        }
        self.baseline = Some(loss);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::apply_layer_policy;
    use crate::pipeline::{LUC_BIT_CHOICES, LUC_RATIO_CHOICES};
    use edge_llm_luc::{profile, search_policy, SearchAlgorithm};
    use edge_llm_model::{AdaptiveTuner, ModelConfig, Sgd, WindowSchedule};
    use edge_llm_quant::BitWidth;
    use edge_llm_tensor::{configured_threads, fnv1a64, set_configured_threads, TensorRng};

    #[test]
    fn oracle_profiles_a_real_model() {
        let mut rng = TensorRng::seed_from(3);
        let cfg = ModelConfig::tiny();
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| (i * 7) % cfg.vocab_size).collect();
        let mut oracle = ModelOracle::new(&model, &tokens, &tokens, 1);
        let prof = profile(&mut oracle, &[BitWidth::W2, BitWidth::W8], &[0.5]).unwrap();
        prof.validate().unwrap();
        assert_eq!(prof.n_layers(), 2);
        // 2-bit must hurt at least as much as 8-bit on every layer
        for l in 0..2 {
            assert!(prof.quant_delta[l][0] >= prof.quant_delta[l][1]);
        }
        assert_eq!(oracle.probes(), 2 * (2 + 1));
        assert!(prof.baseline.is_finite());
    }

    #[test]
    fn oracle_leaves_model_untouched() {
        // A compressed model builds its layers' codes on its first frozen
        // pass, whoever makes it, so its state is read after one
        // evaluation: a whole profile may then change nothing at all.
        let (model, tokens, targets) = calibration_case(true);
        let logits = |m: &EdgeModel| {
            let l = m.logits(&tokens, CALIB_BATCH).unwrap();
            l.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let state = |m: &EdgeModel| {
            let mut bytes = Vec::new();
            m.visit_params_all_ro(&mut |id, p| {
                bytes.extend_from_slice(&id.to_le_bytes());
                p.iter()
                    .for_each(|x| bytes.extend_from_slice(&x.to_le_bytes()));
            });
            let caches = m.block_requant_counts();
            let caches = (caches, m.weight_cache_stats(), m.decode_weight_bytes());
            (fnv1a64(&bytes), caches)
        };
        let before = (logits(&model), state(&model));
        let mut oracle = ModelOracle::new(&model, &tokens, &targets, CALIB_BATCH);
        profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES).unwrap();
        assert_eq!(oracle.probes(), 4 * 8);
        assert_eq!(state(&model), before.1);
        assert_eq!(logits(&model), before.0);
    }

    /// Calibration sequences per probe: three runs, so two kernel threads
    /// split the run axis (a batch of one threads the kernels instead).
    const CALIB_BATCH: usize = 3;

    /// Every policy `profile` asks for under the LUC candidate sets.
    fn luc_choices() -> Vec<LayerPolicy> {
        let quant = LUC_BIT_CHOICES.iter().map(|&bits| LayerPolicy {
            bits,
            prune_ratio: 0.0,
        });
        let prune = LUC_RATIO_CHOICES.iter().map(|&prune_ratio| LayerPolicy {
            bits: BitWidth::W16,
            prune_ratio,
        });
        quant.chain(prune).collect()
    }

    /// A seeded 4-layer model and calibration batch. `compressed` installs
    /// a policy on layers 1 and 3 first, so every probe's frozen layers
    /// carry hooks of their own.
    fn calibration_case(compressed: bool) -> (EdgeModel, Vec<usize>, Vec<usize>) {
        let mut rng = TensorRng::seed_from(31);
        let cfg = ModelConfig::tiny().with_layers(4);
        let mut model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        if compressed {
            let w4 = LayerPolicy {
                bits: BitWidth::W4,
                prune_ratio: 0.25,
            };
            let w8 = LayerPolicy {
                bits: BitWidth::W8,
                prune_ratio: 0.5,
            };
            apply_layer_policy(&mut model, 1, w4).unwrap();
            apply_layer_policy(&mut model, 3, w8).unwrap();
        }
        let n = CALIB_BATCH * cfg.seq_len;
        let tokens: Vec<usize> = (0..n).map(|_| rng.index(cfg.vocab_size)).collect();
        let targets: Vec<usize> = (0..n).map(|_| rng.index(cfg.vocab_size)).collect();
        (model, tokens, targets)
    }

    /// What a probe must equal bit for bit: the whole model cloned, the
    /// policy installed on one layer, one full-depth pass, cross-entropy.
    fn reference_loss(
        model: &EdgeModel,
        tokens: &[usize],
        targets: &[usize],
        layer: usize,
        policy: LayerPolicy,
    ) -> f32 {
        let mut probe = model.clone();
        if apply_layer_policy(&mut probe, layer, policy).is_err() {
            return f32::INFINITY;
        }
        let logits = probe.logits(tokens, CALIB_BATCH).unwrap();
        cross_entropy_forward(&logits, targets).unwrap().loss
    }

    /// Runs `f` with `threads` kernel workers, whatever `EDGELLM_THREADS`
    /// says, and restores the previous setting.
    fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let before = configured_threads();
        set_configured_threads(threads);
        let out = f();
        set_configured_threads(before);
        out
    }

    #[test]
    fn every_probe_is_bit_equal_to_a_whole_model_clone() {
        let invalid = LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: 1.5,
        };
        for compressed in [false, true] {
            let (model, tokens, targets) = calibration_case(compressed);
            let full = model.logits(&tokens, CALIB_BATCH).unwrap();
            let baseline = cross_entropy_forward(&full, &targets).unwrap().loss;
            for threads in [1usize, 2] {
                at_threads(threads, || {
                    let mut oracle = ModelOracle::new(&model, &tokens, &targets, CALIB_BATCH);
                    let what = format!("compressed {compressed} threads {threads}");
                    assert_eq!(
                        oracle.baseline_loss().to_bits(),
                        baseline.to_bits(),
                        "{what}: baseline"
                    );
                    // Deepest layer first, so every probe walks through
                    // blocks an earlier probe compressed: a block left
                    // compressed is read, unlike in `profile`'s order.
                    // Within a layer the heaviest pruning comes first, so
                    // a probe that started from an earlier probe's copy
                    // would read weights that copy's mask zeroed.
                    for layer in (0..model.n_layers()).rev() {
                        for policy in luc_choices().into_iter().rev() {
                            let want = reference_loss(&model, &tokens, &targets, layer, policy);
                            let got = oracle.loss_with(layer, policy);
                            assert_eq!(got.to_bits(), want.to_bits(), "{what}: {layer} {policy}");
                        }
                        assert_eq!(
                            oracle.loss_with(layer, invalid),
                            f32::INFINITY,
                            "{what}: layer {layer} invalid ratio"
                        );
                    }
                });
            }
        }
        // Uncompressing a compressed layer is a real probe, not the baseline.
        let (model, tokens, targets) = calibration_case(true);
        let mut oracle = ModelOracle::new(&model, &tokens, &targets, CALIB_BATCH);
        let baseline = oracle.baseline_loss();
        assert_ne!(
            oracle.loss_with(1, LayerPolicy::uncompressed()).to_bits(),
            baseline.to_bits()
        );
    }

    #[test]
    fn a_probe_copies_no_gradients() {
        // one full-depth step leaves gradient buffers on every projection
        let (mut model, tokens, targets) = calibration_case(true);
        let n = model.n_layers();
        let mut tuner = AdaptiveTuner::new(WindowSchedule::for_depth(n, n));
        let mut opt = Sgd::new(0.1);
        tuner
            .step(&mut model, &mut opt, &tokens, &targets, CALIB_BATCH)
            .unwrap();
        let grad_floats = |block: &mut Block| {
            let mut floats = 0;
            for lin in block.linears_mut() {
                lin.visit_params(&mut |_, grad| floats += grad.len());
            }
            floats
        };
        let policy = LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: 0.5,
        };
        let mut oracle = ModelOracle::new(&model, &tokens, &targets, CALIB_BATCH);
        for l in 0..n {
            assert!(grad_floats(&mut model.block(l).clone()) > 0, "layer {l}");
            let mut copy = probe_block(model.block(l), policy).unwrap();
            assert_eq!(grad_floats(&mut copy), 0, "layer {l}");
            // and the probe still reads what a whole-model clone reads
            let want = reference_loss(&model, &tokens, &targets, l, policy);
            assert_eq!(oracle.loss_with(l, policy).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn a_calibration_batch_the_model_refuses_scores_every_probe_infinite() {
        // The baseline walk fails at layer 0, so no probe above it has
        // rows to enter with; none may panic or read another layer's rows.
        let (model, mut tokens, targets) = calibration_case(false);
        tokens[5] = model.config().vocab_size;
        let mut oracle = ModelOracle::new(&model, &tokens, &targets, CALIB_BATCH);
        assert_eq!(oracle.baseline_loss(), f32::INFINITY);
        for layer in 0..model.n_layers() {
            let policy = LayerPolicy {
                bits: BitWidth::W4,
                prune_ratio: 0.0,
            };
            assert_eq!(oracle.loss_with(layer, policy), f32::INFINITY);
        }
    }

    #[test]
    fn a_profile_walks_only_the_layers_its_probes_change() {
        // The benchmark's shape: 8 layers, 4 bit-widths × 4 ratios. Every
        // probe walking from the embedding was 65 passes × 8 = 520 layers.
        // Now: 8 for the baseline, none for the two probes per layer that
        // install nothing (W16 at ratio 0), 6 probes × (8 − l) per layer l.
        let mut rng = TensorRng::seed_from(5);
        let cfg = ModelConfig::tiny().with_layers(8);
        let model = EdgeModel::new(cfg.clone(), &mut rng).unwrap();
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| (i * 5) % cfg.vocab_size).collect();
        let mut oracle = ModelOracle::new(&model, &tokens, &tokens, 1);
        profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES).unwrap();
        assert_eq!(oracle.probes(), 64);
        assert_eq!(oracle.layers_walked(), 8 + 6 * (1..=8).sum::<usize>());
        assert_eq!(oracle.layers_walked(), 224);
        // On a compressed layer the shortcut must not fire, whether the
        // layer carries a quantization scheme (2) or only a mask (5):
        // uncompressing it is a real probe.
        let mut compressed = model.clone();
        for (layer, bits, prune_ratio) in [(2, BitWidth::W4, 0.0), (5, BitWidth::W16, 0.5)] {
            let policy = LayerPolicy { bits, prune_ratio };
            apply_layer_policy(&mut compressed, layer, policy).unwrap();
        }
        let mut oracle = ModelOracle::new(&compressed, &tokens, &tokens, 1);
        profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES).unwrap();
        assert_eq!(oracle.layers_walked(), 224 + 2 * (8 - 2) + 2 * (8 - 5));
    }

    /// FNV-1a over the bits of every delta and the baseline, plus the
    /// policy the DP search picks from the profile at budget 0.3.
    fn profile_digest(model: &EdgeModel, tokens: &[usize], targets: &[usize]) -> (u64, String) {
        let mut oracle = ModelOracle::new(model, tokens, targets, CALIB_BATCH);
        let prof = profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES).unwrap();
        let mut bytes = Vec::new();
        for row in prof.quant_delta.iter().chain(&prof.prune_delta) {
            for d in row {
                bytes.extend_from_slice(&d.to_bits().to_le_bytes());
            }
        }
        bytes.extend_from_slice(&prof.baseline.to_bits().to_le_bytes());
        let found = search_policy(&prof, 0.3, SearchAlgorithm::DynamicProgramming).unwrap();
        (fnv1a64(&bytes), found.policy.to_string())
    }

    #[test]
    fn sensitivity_profile_bits_are_pinned() {
        // Recorded while every probe still cloned the whole model and
        // walked it from the embedding.
        let pinned = [
            (
                false,
                0xdbc2_960f_02ba_4ba6_u64,
                "[4b·p75% 16b·p50% 8b·p0% 2b·p0%]",
            ),
            (
                true,
                0x1b5c_d316_4900_2a8a_u64,
                "[8b·p0% 2b·p50% 8b·p0% 8b·p75%]",
            ),
        ];
        for (compressed, digest, policy) in pinned {
            let (model, tokens, targets) = calibration_case(compressed);
            for threads in [1usize, 2] {
                let (got, found) =
                    at_threads(threads, || profile_digest(&model, &tokens, &targets));
                let what = format!("compressed {compressed} threads {threads}");
                assert_eq!(got, digest, "{what}: profile digest {got:#018x}");
                assert_eq!(found, policy, "{what}: searched policy");
            }
        }
    }
}
