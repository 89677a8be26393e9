//! Analytic memory accounting for adaptation.
//!
//! The paper's memory claim is that adaptive layer tuning cuts peak tuning
//! memory because activations and optimizer state only exist for the layers
//! in the current window. This module computes that breakdown analytically
//! from the configuration, and the F2 experiment cross-checks it against the
//! measured cache sizes reported by the training loop.

use crate::config::ModelConfig;

/// Byte-level breakdown of adaptation memory for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Model weights (all layers, always resident).
    pub weight_bytes: usize,
    /// Activation caches for the backprop window.
    pub activation_bytes: usize,
    /// Gradient buffers for trainable parameters (window only).
    pub gradient_bytes: usize,
    /// Optimizer state (`optimizer_moments` values per trainable
    /// parameter).
    pub optimizer_bytes: usize,
}

impl MemoryBreakdown {
    /// Total peak bytes.
    pub fn total(&self) -> usize {
        self.weight_bytes + self.activation_bytes + self.gradient_bytes + self.optimizer_bytes
    }
}

/// Analytic memory model parameterized by the adaptation setup.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    /// Batch size used for tuning.
    pub batch: usize,
    /// Optimizer state values kept per trainable parameter (0 = plain
    /// SGD, 1 = SGD with momentum).
    pub optimizer_moments: usize,
    /// Average weight storage bits per parameter after compression
    /// (32 for uncompressed f32).
    pub weight_bits: f32,
}

impl MemoryModel {
    /// Per-block activation cache bytes for one forward (f32):
    /// LayerNorm x̂ (x2), attention q/k/v/att per head, MLP pre-activation,
    /// and the cached linear inputs.
    fn block_activation_bytes(config: &ModelConfig, batch: usize) -> usize {
        let tokens = batch * config.seq_len;
        let c = config.d_model;
        let t = config.seq_len;
        let heads = config.n_heads;
        let hs = config.head_dim();
        let ln = 2 * tokens * c; // two x-hat caches
        let attn = batch * heads * (t * t + 3 * t * hs) // att + q,k,v
            + tokens * c            // qkv linear input cache
            + tokens * c; // proj input cache
        let mlp = tokens * c        // fc1 input
            + tokens * config.d_ff  // pre-activation
            + tokens * config.d_ff; // fc2 input
        4 * (ln + attn + mlp)
    }

    /// Estimates peak memory when tuning `window_depth` layers of a model
    /// with backprop truncated to that window.
    pub fn estimate(&self, config: &ModelConfig, window_depth: usize) -> MemoryBreakdown {
        let depth = window_depth.min(config.n_layers).max(1);
        let total_params = config.param_count();
        let weight_bytes = (total_params as f64 * self.weight_bits as f64 / 8.0) as usize;
        let activation_bytes = depth * Self::block_activation_bytes(config, self.batch)
            + 4 * self.batch * config.seq_len * (config.d_model + config.vocab_size);
        let window_params = depth * config.block_param_count()
            + 2 * config.d_model // exit norm
            + config.d_model * config.vocab_size; // (shared) head
        let gradient_bytes = 4 * window_params;
        let optimizer_bytes = 4 * self.optimizer_moments * window_params;
        MemoryBreakdown {
            weight_bytes,
            activation_bytes,
            gradient_bytes,
            optimizer_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_model(batch: usize, optimizer_moments: usize) -> MemoryModel {
        MemoryModel {
            batch,
            optimizer_moments,
            weight_bits: 32.0,
        }
    }

    #[test]
    fn shallower_windows_use_less_memory() {
        let cfg = ModelConfig::edge_base();
        let model = f32_model(4, 1);
        let full = model.estimate(&cfg, cfg.n_layers);
        let one = model.estimate(&cfg, 1);
        assert!(one.total() < full.total());
        assert!(one.activation_bytes * 4 < full.activation_bytes);
        // weights are resident either way
        assert_eq!(one.weight_bytes, full.weight_bytes);
    }

    #[test]
    fn compression_shrinks_weight_memory() {
        let cfg = ModelConfig::edge_base();
        let fp = f32_model(1, 1).estimate(&cfg, 2);
        let q4 = MemoryModel {
            weight_bits: 4.0,
            ..f32_model(1, 1)
        }
        .estimate(&cfg, 2);
        assert!(q4.weight_bytes * 7 < fp.weight_bytes);
    }

    #[test]
    fn optimizer_moments_scale_state() {
        let cfg = ModelConfig::tiny();
        let plain = f32_model(1, 0).estimate(&cfg, 1);
        let momentum = f32_model(1, 1).estimate(&cfg, 1);
        assert_eq!(plain.optimizer_bytes, 0);
        assert_eq!(momentum.optimizer_bytes, momentum.gradient_bytes);
    }

    #[test]
    fn window_depth_is_clamped() {
        let cfg = ModelConfig::tiny();
        let m = f32_model(1, 1);
        assert_eq!(m.estimate(&cfg, 100), m.estimate(&cfg, cfg.n_layers));
        assert_eq!(m.estimate(&cfg, 0), m.estimate(&cfg, 1));
    }
}
