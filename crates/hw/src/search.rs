use crate::cost::{estimate_cost, CostEstimate};
use crate::device::DeviceModel;
use crate::schedule::{Schedule, ScheduleSpace};
use crate::workload::GemmWorkload;
use crate::HwError;

/// A workload with its chosen schedule and estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledGemm {
    /// The scheduled workload.
    pub gemm: GemmWorkload,
    /// Winning schedule.
    pub schedule: Schedule,
    /// Its estimated cost.
    pub cost: CostEstimate,
}

/// Finds the lowest-latency feasible schedule for `gemm` on `device` by
/// costing every point of `space` (the default space has 1.5k points, so
/// the exhaustive search is fast and exact).
///
/// # Errors
///
/// Returns [`HwError::NoFeasibleSchedule`] when every point in the space
/// overflows SRAM, and [`HwError::BadParameter`] for an empty space.
pub fn search_schedule(
    gemm: &GemmWorkload,
    device: &DeviceModel,
    space: &ScheduleSpace,
) -> Result<ScheduledGemm, HwError> {
    if space.is_empty() {
        return Err(HwError::BadParameter {
            reason: "empty schedule space".to_string(),
        });
    }
    let mut best: Option<(Schedule, CostEstimate)> = None;
    for schedule in space.iter() {
        if let Ok(cost) = estimate_cost(gemm, &schedule, device) {
            if best.as_ref().is_none_or(|(_, b)| cost.cycles < b.cycles) {
                best = Some((schedule, cost));
            }
        }
    }
    let (schedule, cost) = best.ok_or_else(|| HwError::NoFeasibleSchedule {
        workload: gemm.name.clone(),
    })?;
    Ok(ScheduledGemm {
        gemm: gemm.clone(),
        schedule,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LoopOrder;

    fn gemm() -> GemmWorkload {
        GemmWorkload::new("fc1", 64, 512, 128)
            .with_bits(4)
            .with_sparsity(0.5)
    }

    #[test]
    fn exhaustive_beats_naive() {
        let d = DeviceModel::jetson_class();
        let best = search_schedule(&gemm(), &d, &ScheduleSpace::default()).unwrap();
        let naive = estimate_cost(&gemm(), &Schedule::naive(), &d).unwrap();
        assert!(
            best.cost.cycles < naive.cycles / 2.0,
            "searched schedule ({}) should be >2x faster than naive ({})",
            best.cost.cycles,
            naive.cycles
        );
        assert!(best.cost.utilization > naive.utilization);
    }

    #[test]
    fn infeasible_space_errors() {
        let d = DeviceModel {
            sram_bytes: 16,
            ..DeviceModel::jetson_class()
        };
        let space = ScheduleSpace {
            tile_options: vec![128],
            loop_orders: vec![LoopOrder::Mnk],
            allow_double_buffer: false,
        };
        let big = GemmWorkload::new("big", 512, 512, 512);
        assert!(matches!(
            search_schedule(&big, &d, &space),
            Err(HwError::NoFeasibleSchedule { .. })
        ));
    }

    #[test]
    fn empty_space_is_bad_parameter() {
        let d = DeviceModel::jetson_class();
        let space = ScheduleSpace {
            tile_options: vec![],
            ..Default::default()
        };
        assert!(matches!(
            search_schedule(&gemm(), &d, &space),
            Err(HwError::BadParameter { .. })
        ));
    }
}
