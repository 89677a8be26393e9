use crate::error::ModelError;

/// Hyper-parameters of the decoder-only transformer.
///
/// Use the `with_*` builder-style methods to adjust a preset:
///
/// ```
/// use edge_llm_model::ModelConfig;
///
/// # fn main() -> Result<(), edge_llm_model::ModelError> {
/// let cfg = ModelConfig::tiny().with_layers(4).with_d_model(32, 4);
/// cfg.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads; must divide `d_model`.
    pub n_heads: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Maximum (and training) sequence length.
    pub seq_len: usize,
    /// MLP hidden dimension (usually `4 * d_model`).
    pub d_ff: usize,
    /// Whether every early-exit head shares the final unembedding weight.
    /// Sharing keeps the per-exit parameter overhead to one LayerNorm.
    pub tie_exit_heads: bool,
}

impl ModelConfig {
    /// A minimal configuration for unit tests and doctests
    /// (2 layers, d_model 16, 2 heads, vocab 32, seq 8).
    pub fn tiny() -> Self {
        ModelConfig {
            vocab_size: 32,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            seq_len: 8,
            d_ff: 32,
            tie_exit_heads: true,
        }
    }

    /// The "edge" configuration the experiment tables use by default
    /// (8 layers, d_model 128, 4 heads, byte-level vocab, seq 64).
    pub fn edge_base() -> Self {
        ModelConfig {
            vocab_size: 96,
            d_model: 128,
            n_heads: 4,
            n_layers: 8,
            seq_len: 64,
            d_ff: 512,
            tie_exit_heads: true,
        }
    }

    /// Sets the depth.
    pub fn with_layers(mut self, n_layers: usize) -> Self {
        self.n_layers = n_layers;
        self
    }

    /// Sets width and head count together (they must stay compatible).
    pub fn with_d_model(mut self, d_model: usize, n_heads: usize) -> Self {
        self.d_model = d_model;
        self.n_heads = n_heads;
        self.d_ff = 4 * d_model;
        self
    }

    /// Sets the sequence length.
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// Sets the vocabulary size.
    pub fn with_vocab(mut self, vocab_size: usize) -> Self {
        self.vocab_size = vocab_size;
        self
    }

    /// Sets whether exit heads share the unembedding weight.
    pub fn with_tied_exits(mut self, tie: bool) -> Self {
        self.tie_exit_heads = tie;
        self
    }

    /// Head dimension, `d_model / n_heads`.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] when any dimension is zero or
    /// `n_heads` does not divide `d_model`.
    pub fn validate(&self) -> Result<(), ModelError> {
        let bad = |reason: &str| {
            Err(ModelError::BadConfig {
                reason: reason.to_string(),
            })
        };
        if self.vocab_size == 0
            || self.d_model == 0
            || self.n_layers == 0
            || self.seq_len == 0
            || self.d_ff == 0
        {
            return bad("all dimensions must be positive");
        }
        if self.n_heads == 0 || !self.d_model.is_multiple_of(self.n_heads) {
            return bad("n_heads must be positive and divide d_model");
        }
        Ok(())
    }

    /// Total parameter count (embeddings + blocks + final norm + head),
    /// excluding untied exit-head weights.
    pub fn param_count(&self) -> usize {
        let c = self.d_model;
        let emb = self.vocab_size * c + self.seq_len * c;
        let head = c * self.vocab_size;
        let final_norm = 2 * c;
        emb + self.n_layers * self.block_param_count() + final_norm + head
    }

    /// Trainable scalars in one block.
    pub(crate) fn block_param_count(&self) -> usize {
        let c = self.d_model;
        let attn = c * 3 * c + 3 * c + c * c + c; // qkv + proj
        let mlp = c * self.d_ff + self.d_ff + self.d_ff * c + c;
        let norms = 4 * c; // two LayerNorms
        attn + mlp + norms
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig::edge_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ModelConfig::tiny().validate().unwrap();
        ModelConfig::edge_base().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ModelConfig::tiny().with_d_model(10, 3).validate().is_err());
        assert!(ModelConfig::tiny().with_layers(0).validate().is_err());
        assert!(ModelConfig::tiny().with_vocab(0).validate().is_err());
        assert!(ModelConfig::tiny().with_seq_len(0).validate().is_err());
    }

    #[test]
    fn head_dim_divides() {
        let cfg = ModelConfig::edge_base();
        assert_eq!(cfg.head_dim() * cfg.n_heads, cfg.d_model);
    }

    #[test]
    fn param_count_grows_with_depth() {
        let small = ModelConfig::tiny().param_count();
        let deep = ModelConfig::tiny().with_layers(8).param_count();
        assert!(deep > small);
    }
}
