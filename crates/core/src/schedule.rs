//! Mapping a compressed model onto the edge-device cost model.
//!
//! Bridges the LUC policy (per-layer bits/sparsity) and the `edge-llm-hw`
//! schedule search: extracts every GEMM of the model, searches a schedule
//! per GEMM, and aggregates modeled latency/energy for both inference and
//! training iterations. These modeled numbers are what reproduce the
//! paper's on-device speedup claims; the measured CPU wall-clock from the
//! tuner tracks the same ratios at kernel granularity.

use crate::EdgeLlmError;
use edge_llm_hw::{
    estimate_cost, search_schedule, DeviceModel, GemmWorkload, Schedule, ScheduleSpace,
    ScheduledGemm,
};
use edge_llm_luc::CompressionPolicy;
use edge_llm_model::{LayerWindow, ModelConfig, WindowSchedule};
use std::collections::HashMap;

/// Memoization key: two GEMMs with the same shape, precision, and sparsity
/// have the same optimal schedule on a given device.
fn gemm_key(g: &GemmWorkload) -> (usize, usize, usize, u32, u32) {
    (g.m, g.n, g.k, g.bits, g.sparsity.to_bits())
}

/// All GEMMs of a model under a compression policy.
///
/// # Errors
///
/// Returns [`EdgeLlmError::BadConfig`] if policy depth disagrees with the
/// model depth.
pub fn model_workloads(
    config: &ModelConfig,
    policy: &CompressionPolicy,
    batch: usize,
) -> Result<Vec<GemmWorkload>, EdgeLlmError> {
    if policy.n_layers() != config.n_layers {
        return Err(EdgeLlmError::BadConfig {
            reason: format!(
                "policy covers {} layers, model has {}",
                policy.n_layers(),
                config.n_layers
            ),
        });
    }
    let mut out = Vec::new();
    for l in 0..config.n_layers {
        let lp = policy.layer(l);
        out.extend(edge_llm_hw::transformer_layer_workloads(
            l,
            config.d_model,
            config.d_ff,
            config.seq_len,
            batch,
            config.n_heads,
            lp.bits.bits(),
            lp.prune_ratio,
        ));
    }
    Ok(out)
}

/// Searches a schedule for every workload and returns the scheduled set.
///
/// # Errors
///
/// Propagates schedule-search failures.
pub fn schedule_workloads(
    workloads: &[GemmWorkload],
    device: &DeviceModel,
    space: &ScheduleSpace,
) -> Result<Vec<ScheduledGemm>, EdgeLlmError> {
    // many layers share GEMM shapes and policies; search each distinct
    // (shape, bits, sparsity) once
    let mut memo: HashMap<(usize, usize, usize, u32, u32), ScheduledGemm> = HashMap::new();
    workloads
        .iter()
        .map(|w| {
            if let Some(hit) = memo.get(&gemm_key(w)) {
                let mut s = hit.clone();
                s.gemm = w.clone();
                return Ok(s);
            }
            let s = search_schedule(w, device, space).map_err(EdgeLlmError::from)?;
            memo.insert(gemm_key(w), s.clone());
            Ok(s)
        })
        .collect()
}

/// Total modeled latency (microseconds) of a scheduled workload set.
pub fn total_latency_us(scheduled: &[ScheduledGemm]) -> f64 {
    scheduled.iter().map(|s| s.cost.latency_us).sum()
}

/// Total modeled energy (microjoules) of a scheduled workload set.
pub fn total_energy_uj(scheduled: &[ScheduledGemm]) -> f64 {
    scheduled.iter().map(|s| s.cost.energy_uj).sum()
}

/// Modeled latency of the same workloads under the naive (unsearched)
/// schedule — the F3 baseline.
///
/// # Errors
///
/// Propagates cost-model failures.
pub fn naive_latency_us(
    workloads: &[GemmWorkload],
    device: &DeviceModel,
) -> Result<f64, EdgeLlmError> {
    let mut total = 0.0;
    for w in workloads {
        total += estimate_cost(w, &Schedule::naive(), device)?.latency_us;
    }
    Ok(total)
}

/// Modeled latency and energy of one **training iteration** on the device
/// (microseconds, microjoules) at a round-robin backprop depth: the
/// [`modeled_schedule_iteration`] of [`WindowSchedule::for_depth`]. With
/// `window_depth >= n_layers` this is vanilla full tuning.
///
/// # Errors
///
/// Propagates workload or schedule errors.
pub fn modeled_training_iteration(
    config: &ModelConfig,
    policy: &CompressionPolicy,
    window_depth: usize,
    batch: usize,
    device: &DeviceModel,
) -> Result<(f64, f64), EdgeLlmError> {
    let schedule = WindowSchedule::for_depth(window_depth, config.n_layers);
    modeled_schedule_iteration(config, policy, &schedule, batch, device)
}

/// Modeled latency and energy of one **training iteration** under
/// `schedule` on the device (microseconds, microjoules), averaged over one
/// cycle of its windows ([`WindowSchedule::cycle`]).
///
/// A window `[start, end)` executes forward layers `0..end`; backward
/// re-executes the window's layers at ~2x forward cost (the standard
/// dX+dW accounting).
///
/// # Errors
///
/// Returns [`EdgeLlmError::BadConfig`] for a schedule without windows
/// (an empty `Ordered` list, a `RoundRobin` depth of zero) or a window
/// that is empty or reaches past the model, and propagates workload or
/// schedule errors.
pub fn modeled_schedule_iteration(
    config: &ModelConfig,
    policy: &CompressionPolicy,
    schedule: &WindowSchedule,
    batch: usize,
    device: &DeviceModel,
) -> Result<(f64, f64), EdgeLlmError> {
    let space = ScheduleSpace::default();
    let n = config.n_layers;
    let windows = schedule.cycle(n);
    if windows.is_empty() || windows.iter().any(|w| w.start >= w.end || w.end > n) {
        return Err(EdgeLlmError::BadConfig {
            reason: format!("schedule {schedule:?} does not fit {n} layers"),
        });
    }
    let mut memo: HashMap<(u32, u32), (f64, f64)> = HashMap::new();
    let per_layer: Vec<(f64, f64)> = (0..n)
        .map(|l| {
            let lp = policy.layer(l);
            let key = (lp.bits.bits(), lp.prune_ratio.to_bits());
            if let Some(&hit) = memo.get(&key) {
                return Ok(hit);
            }
            let ws = edge_llm_hw::transformer_layer_workloads(
                l,
                config.d_model,
                config.d_ff,
                config.seq_len,
                batch,
                config.n_heads,
                lp.bits.bits(),
                lp.prune_ratio,
            );
            let scheduled = schedule_workloads(&ws, device, &space)?;
            let cost = (total_latency_us(&scheduled), total_energy_uj(&scheduled));
            memo.insert(key, cost);
            Ok(cost)
        })
        .collect::<Result<_, EdgeLlmError>>()?;
    let mut total_us = 0.0;
    let mut total_uj = 0.0;
    for &LayerWindow { start, end } in &windows {
        let fwd_us: f64 = per_layer[..end].iter().map(|p| p.0).sum();
        let bwd_us: f64 = 2.0 * per_layer[start..end].iter().map(|p| p.0).sum::<f64>();
        total_us += fwd_us + bwd_us;
        let fwd_uj: f64 = per_layer[..end].iter().map(|p| p.1).sum();
        let bwd_uj: f64 = 2.0 * per_layer[start..end].iter().map(|p| p.1).sum::<f64>();
        total_uj += fwd_uj + bwd_uj;
    }
    let cycle = windows.len() as f64;
    Ok((total_us / cycle, total_uj / cycle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_quant::BitWidth;

    fn cfg() -> ModelConfig {
        ModelConfig::tiny().with_layers(4)
    }

    #[test]
    fn workload_count_is_six_per_layer() {
        let c = cfg();
        let ws = model_workloads(&c, &CompressionPolicy::identity(4), 1).unwrap();
        assert_eq!(ws.len(), 24);
    }

    #[test]
    fn policy_depth_mismatch_rejected() {
        let c = cfg();
        assert!(model_workloads(&c, &CompressionPolicy::identity(3), 1).is_err());
    }

    #[test]
    fn searched_beats_naive_in_aggregate() {
        let c = cfg();
        let policy = CompressionPolicy::uniform(4, BitWidth::W4, 0.5);
        let ws = model_workloads(&c, &policy, 1).unwrap();
        let device = DeviceModel::jetson_class();
        let scheduled = schedule_workloads(&ws, &device, &ScheduleSpace::default()).unwrap();
        let searched = total_latency_us(&scheduled);
        let naive = naive_latency_us(&ws, &device).unwrap();
        assert!(searched < naive, "searched {searched} vs naive {naive}");
        assert!(total_energy_uj(&scheduled) > 0.0);
    }

    #[test]
    fn compression_cuts_modeled_latency() {
        let c = cfg();
        let device = DeviceModel::jetson_class();
        let fp = modeled_training_iteration(&c, &CompressionPolicy::identity(4), 4, 1, &device)
            .unwrap()
            .0;
        let q4 = modeled_training_iteration(
            &c,
            &CompressionPolicy::uniform(4, BitWidth::W4, 0.5),
            4,
            1,
            &device,
        )
        .unwrap()
        .0;
        assert!(q4 < fp, "compressed {q4} vs full {fp}");
    }

    #[test]
    fn windowed_training_is_cheaper_than_full() {
        let c = cfg();
        let device = DeviceModel::jetson_class();
        let policy = CompressionPolicy::identity(4);
        let full = modeled_training_iteration(&c, &policy, 4, 1, &device)
            .unwrap()
            .0;
        let windowed = modeled_training_iteration(&c, &policy, 1, 1, &device)
            .unwrap()
            .0;
        assert!(windowed < full, "windowed {windowed} vs full {full}");
    }

    #[test]
    fn a_depth_costs_the_bits_of_its_round_robin_schedule() {
        let (c, device) = (cfg(), DeviceModel::jetson_class());
        // each layer has its own cost, so each window sums different ones
        let widths = [BitWidth::W16, BitWidth::W8, BitWidth::W4, BitWidth::W2];
        let mixed = (0..4).map(|l| edge_llm_luc::LayerPolicy {
            bits: widths[l % 4],
            prune_ratio: 0.125 * (l % 3) as f32,
        });
        let policy = CompressionPolicy::from_layers(mixed.collect());
        let bits = |(us, uj): (f64, f64)| (us.to_bits(), uj.to_bits());
        for d in 1..=4 {
            let by_depth = modeled_training_iteration(&c, &policy, d, 2, &device).unwrap();
            let schedule = WindowSchedule::for_depth(d, 4);
            let by_schedule = modeled_schedule_iteration(&c, &policy, &schedule, 2, &device);
            assert_eq!(bits(by_depth), bits(by_schedule.unwrap()), "depth {d}");
        }
    }

    #[test]
    fn last_layer_tuning_walks_every_layer_forward() {
        // every step runs all n layers forward and the top one backward:
        // n + 2 layer units, where a depth-1 sweep averages (n + 1) / 2
        // forward layers
        let (c, device) = (cfg(), DeviceModel::jetson_class());
        let n = 4;
        let layer = edge_llm_hw::transformer_layer_workloads(
            0, c.d_model, c.d_ff, c.seq_len, 1, c.n_heads, 16, 0.0,
        );
        let scheduled = schedule_workloads(&layer, &device, &ScheduleSpace::default()).unwrap();
        let units = |u: f64| ((0..n).map(|_| u).sum::<f64>() + 2.0 * u).to_bits();
        let top = WindowSchedule::Ordered(vec![LayerWindow { start: 3, end: 4 }]);
        let policy = CompressionPolicy::identity(n);
        let (us, uj) = modeled_schedule_iteration(&c, &policy, &top, 1, &device).unwrap();
        assert_eq!(us.to_bits(), units(total_latency_us(&scheduled)));
        assert_eq!(uj.to_bits(), units(total_energy_uj(&scheduled)));
    }

    #[test]
    fn a_schedule_that_does_not_fit_the_model_is_refused() {
        let (c, device) = (cfg(), DeviceModel::jetson_class());
        let w = |start, end| LayerWindow { start, end };
        let ordered = [vec![], vec![w(3, 5)], vec![w(2, 2)]].map(WindowSchedule::Ordered);
        let no_depth = WindowSchedule::RoundRobin { depth: 0 };
        for schedule in ordered.into_iter().chain([no_depth]) {
            let policy = CompressionPolicy::identity(4);
            let cost = modeled_schedule_iteration(&c, &policy, &schedule, 1, &device);
            assert!(cost.is_err(), "{schedule:?}");
        }
    }

    #[test]
    fn edge_llm_combined_speedup_is_large() {
        // the T1/F1 headline shape: compression + windowing together give
        // a multi-x modeled per-iteration speedup
        let c = cfg();
        let device = DeviceModel::jetson_class();
        let vanilla =
            modeled_training_iteration(&c, &CompressionPolicy::identity(4), 4, 1, &device)
                .unwrap()
                .0;
        let edge = modeled_training_iteration(
            &c,
            &CompressionPolicy::uniform(4, BitWidth::W4, 0.5),
            2,
            1,
            &device,
        )
        .unwrap()
        .0;
        assert!(vanilla / edge > 2.0, "combined speedup {}", vanilla / edge);
    }
}
