use crate::LucError;
use edge_llm_quant::BitWidth;
use std::fmt;

/// The compression assignment for one transformer layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPolicy {
    /// Weight quantization bit-width.
    pub bits: BitWidth,
    /// Unstructured pruning ratio in `[0, 1)`.
    pub prune_ratio: f32,
}

impl LayerPolicy {
    /// Full precision, no pruning.
    pub fn uncompressed() -> Self {
        LayerPolicy {
            bits: BitWidth::W16,
            prune_ratio: 0.0,
        }
    }

    /// Relative compute cost of a layer under this policy, normalized so
    /// that 16-bit dense is `1.0`: `(bits / 16) * (1 - prune_ratio)`.
    ///
    /// This mirrors how an edge accelerator's MAC throughput scales with
    /// operand width and skipped zeros, and is the cost the LUC budget is
    /// expressed in.
    pub fn cost(&self) -> f32 {
        (self.bits.bits() as f32 / 16.0) * (1.0 - self.prune_ratio)
    }

    /// Validates the ratio range.
    ///
    /// # Errors
    ///
    /// Returns [`LucError::BadParameter`] if the ratio is outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), LucError> {
        if !(0.0..1.0).contains(&self.prune_ratio) || self.prune_ratio.is_nan() {
            return Err(LucError::BadParameter {
                reason: format!("prune ratio {} outside [0,1)", self.prune_ratio),
            });
        }
        Ok(())
    }
}

impl Default for LayerPolicy {
    fn default() -> Self {
        Self::uncompressed()
    }
}

impl fmt::Display for LayerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}·p{:.0}%", self.bits, self.prune_ratio * 100.0)
    }
}

/// A per-layer compression policy for the whole model — LUC's output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressionPolicy {
    layers: Vec<LayerPolicy>,
}

impl CompressionPolicy {
    /// A policy assigning the same `(bits, ratio)` to every layer — the
    /// uniform-compression baseline LUC is compared against (T2).
    pub fn uniform(n_layers: usize, bits: BitWidth, prune_ratio: f32) -> Self {
        CompressionPolicy {
            layers: vec![LayerPolicy { bits, prune_ratio }; n_layers],
        }
    }

    /// A fully uncompressed policy.
    pub fn identity(n_layers: usize) -> Self {
        Self::uniform(n_layers, BitWidth::W16, 0.0)
    }

    /// Builds from explicit per-layer assignments.
    pub fn from_layers(layers: Vec<LayerPolicy>) -> Self {
        CompressionPolicy { layers }
    }

    /// Number of layers covered.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer assignments.
    pub fn layers(&self) -> &[LayerPolicy] {
        &self.layers
    }

    /// The assignment for layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: usize) -> LayerPolicy {
        self.layers[l]
    }

    /// Mean per-layer compute cost (the LUC budget metric).
    pub fn mean_cost(&self) -> f32 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(LayerPolicy::cost).sum::<f32>() / self.layers.len() as f32
    }

    /// Average assigned bit-width.
    pub fn mean_bits(&self) -> f32 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.bits.bits() as f32)
            .sum::<f32>()
            / self.layers.len() as f32
    }

    /// Average assigned pruning ratio.
    pub fn mean_prune_ratio(&self) -> f32 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.prune_ratio).sum::<f32>() / self.layers.len() as f32
    }

    /// Validates every layer assignment.
    ///
    /// # Errors
    ///
    /// Propagates the first [`LucError::BadParameter`].
    pub fn validate(&self) -> Result<(), LucError> {
        for l in &self.layers {
            l.validate()?;
        }
        Ok(())
    }
}

impl CompressionPolicy {
    /// Serializes to a compact machine-readable string, e.g.
    /// `"4:0.25,8:0,2:0.5"` (bits`:`ratio per layer, comma separated).
    pub fn to_compact_string(&self) -> String {
        self.layers
            .iter()
            .map(|l| format!("{}:{}", l.bits.bits(), l.prune_ratio))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses the format produced by
    /// [`CompressionPolicy::to_compact_string`].
    ///
    /// # Errors
    ///
    /// Returns [`LucError::BadParameter`] for malformed input, unknown
    /// bit-widths, or out-of-range ratios.
    pub fn parse_compact(s: &str) -> Result<Self, LucError> {
        let bad = |reason: String| LucError::BadParameter { reason };
        let mut layers = Vec::new();
        for (i, part) in s.split(',').enumerate() {
            let (b, r) = part
                .split_once(':')
                .ok_or_else(|| bad(format!("layer {i}: expected bits:ratio, got {part:?}")))?;
            let bits_raw: u32 = b
                .trim()
                .parse()
                .map_err(|_| bad(format!("layer {i}: bad bits {b:?}")))?;
            let bits = BitWidth::try_from(bits_raw)
                .map_err(|_| bad(format!("layer {i}: unsupported width {bits_raw}")))?;
            let prune_ratio: f32 = r
                .trim()
                .parse()
                .map_err(|_| bad(format!("layer {i}: bad ratio {r:?}")))?;
            let layer = LayerPolicy { bits, prune_ratio };
            layer.validate()?;
            layers.push(layer);
        }
        Ok(CompressionPolicy { layers })
    }
}

impl fmt::Display for CompressionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_extremes() {
        assert_eq!(LayerPolicy::uncompressed().cost(), 1.0);
        let aggressive = LayerPolicy {
            bits: BitWidth::W2,
            prune_ratio: 0.75,
        };
        assert!((aggressive.cost() - (2.0 / 16.0) * 0.25).abs() < 1e-6);
    }

    #[test]
    fn uniform_policy_means() {
        let p = CompressionPolicy::uniform(8, BitWidth::W4, 0.5);
        assert_eq!(p.mean_bits(), 4.0);
        assert_eq!(p.mean_prune_ratio(), 0.5);
        assert!((p.mean_cost() - 0.125).abs() < 1e-6);
    }

    #[test]
    fn identity_policy_cost_is_one() {
        let p = CompressionPolicy::identity(4);
        assert_eq!(p.mean_cost(), 1.0);
    }

    #[test]
    fn mixed_layer_policy_means() {
        let p = CompressionPolicy::from_layers(vec![
            LayerPolicy {
                bits: BitWidth::W2,
                prune_ratio: 0.0,
            },
            LayerPolicy::uncompressed(),
        ]);
        assert_eq!(p.mean_bits(), 9.0);
        assert_eq!(p.mean_prune_ratio(), 0.0);
        assert!((p.mean_cost() - (2.0 / 16.0 + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_bad_ratio() {
        let p = CompressionPolicy::from_layers(vec![LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: 1.0,
        }]);
        assert!(p.validate().is_err());
        assert!(LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: f32::NAN
        }
        .validate()
        .is_err());
    }

    #[test]
    fn empty_policy_zero_means() {
        let p = CompressionPolicy::default();
        assert_eq!(p.mean_cost(), 0.0);
        assert_eq!(p.mean_bits(), 0.0);
    }

    #[test]
    fn compact_string_roundtrip() {
        let p = CompressionPolicy::from_layers(vec![
            LayerPolicy {
                bits: BitWidth::W4,
                prune_ratio: 0.25,
            },
            LayerPolicy {
                bits: BitWidth::W16,
                prune_ratio: 0.0,
            },
            LayerPolicy {
                bits: BitWidth::W2,
                prune_ratio: 0.5,
            },
        ]);
        let s = p.to_compact_string();
        assert_eq!(s, "4:0.25,16:0,2:0.5");
        assert_eq!(CompressionPolicy::parse_compact(&s).unwrap(), p);
    }

    #[test]
    fn parse_compact_rejects_malformed() {
        assert!(CompressionPolicy::parse_compact("4").is_err());
        assert!(CompressionPolicy::parse_compact("3:0.5").is_err());
        assert!(CompressionPolicy::parse_compact("4:abc").is_err());
        assert!(CompressionPolicy::parse_compact("4:1.5").is_err());
    }

    #[test]
    fn display_roundtrip_contains_layers() {
        let p = CompressionPolicy::uniform(2, BitWidth::W4, 0.25);
        let s = p.to_string();
        assert!(s.contains("4b"));
        assert!(s.contains("25%"));
    }
}
