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
use edge_llm_model::ModelConfig;
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
/// (microseconds, microjoules).
///
/// Forward executes layers `0..=exit`; backward re-executes the window's
/// layers at ~2x forward cost (the standard dX+dW accounting). With
/// `window_depth >= n_layers` this degenerates to vanilla full tuning.
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
    let space = ScheduleSpace::default();
    let n = config.n_layers;
    let depth = window_depth.clamp(1, n);
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
    // average over the round-robin window cycle
    let n_positions = n.div_ceil(depth);
    let mut total_us = 0.0;
    let mut total_uj = 0.0;
    for pos in 0..n_positions {
        let start = (pos * depth).min(n - depth);
        let exit = start + depth - 1;
        let fwd_us: f64 = per_layer[..=exit].iter().map(|p| p.0).sum();
        let bwd_us: f64 = 2.0 * per_layer[start..=exit].iter().map(|p| p.0).sum::<f64>();
        total_us += fwd_us + bwd_us;
        let fwd_uj: f64 = per_layer[..=exit].iter().map(|p| p.1).sum();
        let bwd_uj: f64 = 2.0 * per_layer[start..=exit].iter().map(|p| p.1).sum::<f64>();
        total_uj += fwd_uj + bwd_uj;
    }
    Ok((total_us / n_positions as f64, total_uj / n_positions as f64))
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
