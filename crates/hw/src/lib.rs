//! Hardware scheduling search — the third of Edge-LLM's three components.
//!
//! Compressing layers to mixed bit-widths and sparsities makes the on-device
//! workload irregular: a fixed kernel schedule that was tuned for dense
//! 16-bit GEMMs under-utilizes the accelerator on a 2-bit 75%-sparse layer.
//! Edge-LLM therefore searches a **schedule space** — tile sizes, loop
//! order, and double-buffering — per layer, against an analytical cost
//! model of an edge accelerator.
//!
//! * [`DeviceModel`] — compute/bandwidth/SRAM/energy description of the
//!   target device (Jetson-class presets included),
//! * [`GemmWorkload`] — one layer's GEMM with its assigned precision and
//!   sparsity ([`transformer_layer_workloads`] extracts them from a model
//!   shape and compression policy),
//! * [`Schedule`] / [`ScheduleSpace`] — the search space,
//! * [`estimate_cost`] — latency / energy / utilization roofline model with
//!   loop-order-aware DRAM traffic,
//! * [`search_schedule`] — exhaustive search: every point of the space is
//!   costed and the fastest feasible one wins.
//!
//! # Example
//!
//! ```
//! use edge_llm_hw::{DeviceModel, GemmWorkload, ScheduleSpace, search_schedule};
//!
//! # fn main() -> Result<(), edge_llm_hw::HwError> {
//! let device = DeviceModel::jetson_class();
//! let gemm = GemmWorkload::new("fc1", 64, 512, 128).with_bits(4).with_sparsity(0.5);
//! let best = search_schedule(&gemm, &device, &ScheduleSpace::default())?;
//! assert!(best.cost.utilization > 0.0);
//! # Ok(())
//! # }
//! ```

mod cost;
mod device;
mod schedule;
mod search;
mod workload;

pub use cost::{estimate_cost, CostEstimate};
pub use device::DeviceModel;
pub use schedule::{LoopOrder, Schedule, ScheduleSpace};
pub use search::{search_schedule, ScheduledGemm};
pub use workload::{transformer_layer_workloads, GemmWorkload};

/// Error type for hardware-model operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// No schedule in the space fits the device's SRAM.
    NoFeasibleSchedule {
        /// Workload name.
        workload: String,
    },
    /// A schedule's tiles exceed on-chip memory.
    SramOverflow {
        /// Required bytes.
        required: usize,
        /// Available bytes.
        available: usize,
    },
    /// A parameter was out of range.
    BadParameter {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for HwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwError::NoFeasibleSchedule { workload } => {
                write!(f, "no feasible schedule for workload {workload}")
            }
            HwError::SramOverflow {
                required,
                available,
            } => {
                write!(
                    f,
                    "schedule needs {required} bytes of sram, device has {available}"
                )
            }
            HwError::BadParameter { reason } => write!(f, "bad parameter: {reason}"),
        }
    }
}

impl std::error::Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = HwError::SramOverflow {
            required: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
    }
}
