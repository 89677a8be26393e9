use edge_llm_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error type for model construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The configuration was internally inconsistent.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A token batch did not match `batch * seq_len`, or a batch of hidden
    /// rows did not have one `d_model`-wide row per token.
    BadBatch {
        /// Expected token count, row count or row width.
        expected: usize,
        /// Provided token count, row count or row width.
        actual: usize,
    },
    /// A layer index exceeded the model depth.
    LayerOutOfRange {
        /// Requested layer.
        layer: usize,
        /// Model depth.
        depth: usize,
    },
    /// A decoding session was pushed past the positional capacity
    /// (`seq_len`) of its key/value cache.
    CapacityExhausted {
        /// The session capacity that was exceeded.
        capacity: usize,
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A compression operation failed.
    Compression {
        /// Human-readable reason.
        reason: String,
    },
    /// A checkpoint could not be written, or was unreadable, corrupt, or
    /// incompatible with this model.
    Checkpoint {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadConfig { reason } => write!(f, "invalid model config: {reason}"),
            ModelError::BadBatch { expected, actual } => {
                write!(f, "batch length {actual} does not equal {expected}")
            }
            ModelError::LayerOutOfRange { layer, depth } => {
                write!(f, "layer {layer} out of range for depth {depth}")
            }
            ModelError::CapacityExhausted { capacity } => {
                write!(f, "session capacity of {capacity} tokens exhausted")
            }
            ModelError::Tensor(e) => write!(f, "tensor error: {e}"),
            ModelError::Compression { reason } => write!(f, "compression error: {reason}"),
            ModelError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

impl From<edge_llm_quant::QuantError> for ModelError {
    fn from(e: edge_llm_quant::QuantError) -> Self {
        ModelError::Compression {
            reason: e.to_string(),
        }
    }
}

impl From<edge_llm_prune::PruneError> for ModelError {
    fn from(e: edge_llm_prune::PruneError) -> Self {
        ModelError::Compression {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ModelError::from(TensorError::ZeroDimension { op: "x" });
        assert!(e.to_string().contains("tensor error"));
        assert!(e.source().is_some());
        let e = ModelError::BadConfig {
            reason: "d_model not divisible".into(),
        };
        assert!(e.to_string().contains("invalid model config"));
    }
}
