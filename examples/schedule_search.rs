//! Hardware scheduling search for a mixed-precision compressed workload.
//!
//! Takes an 8-layer model whose layers carry different LUC assignments and
//! shows, per layer, the latency and utilization of the naive schedule vs
//! the searched one on a Jetson-class device model — the paper's third
//! component in isolation.
//!
//! ```text
//! cargo run --release --example schedule_search
//! ```

use edge_llm::report::{f3, pct, speedup, Table};
use edge_llm::schedule::{model_workloads, naive_latency_us, schedule_workloads, total_latency_us};
use edge_llm::EdgeLlmError;
use edge_llm_hw::{DeviceModel, ScheduleSpace};
use edge_llm_luc::{CompressionPolicy, LayerPolicy};
use edge_llm_model::ModelConfig;
use edge_llm_quant::BitWidth;

fn main() -> Result<(), EdgeLlmError> {
    let cfg = ModelConfig::edge_base();
    // A deliberately irregular policy: early layers compressed hard, late
    // layers kept gentle — the shape LUC typically produces.
    let policy = CompressionPolicy::from_layers(vec![
        LayerPolicy {
            bits: BitWidth::W2,
            prune_ratio: 0.75,
        },
        LayerPolicy {
            bits: BitWidth::W2,
            prune_ratio: 0.5,
        },
        LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: 0.5,
        },
        LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: 0.25,
        },
        LayerPolicy {
            bits: BitWidth::W4,
            prune_ratio: 0.25,
        },
        LayerPolicy {
            bits: BitWidth::W8,
            prune_ratio: 0.25,
        },
        LayerPolicy {
            bits: BitWidth::W8,
            prune_ratio: 0.0,
        },
        LayerPolicy {
            bits: BitWidth::W16,
            prune_ratio: 0.0,
        },
    ]);
    let device = DeviceModel::jetson_class();
    let space = ScheduleSpace::default();

    let workloads = model_workloads(&cfg, &policy, 1)?;
    let scheduled = schedule_workloads(&workloads, &device, &space)?;

    let mut table = Table::new(
        format!("per-GEMM schedules on {}", device.name),
        &["gemm", "bits", "sparsity", "schedule", "latency us", "util"],
    );
    for s in scheduled.iter().take(12) {
        table.add_row(vec![
            s.gemm.name.clone(),
            format!("{}", s.gemm.bits),
            pct(s.gemm.sparsity as f64),
            s.schedule.to_string(),
            f3(s.cost.latency_us),
            pct(s.cost.utilization),
        ]);
    }
    println!("{table}");
    println!(
        "(first two layers shown; {} GEMMs scheduled in total)\n",
        scheduled.len()
    );

    let searched = total_latency_us(&scheduled);
    let naive = naive_latency_us(&workloads, &device)?;
    println!("whole-model forward latency (modeled):");
    println!("  naive schedule   : {} us", f3(naive));
    println!("  searched schedule: {} us", f3(searched));
    println!("  speedup          : {}", speedup(naive / searched));
    Ok(())
}
