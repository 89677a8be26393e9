//! Property-based tests of the hardware cost model and schedule search,
//! driven by the in-repo seeded case harness (`edge_llm_tensor::check`).

use edge_llm_hw::{
    estimate_cost, search_schedule, DeviceModel, GemmWorkload, LoopOrder, Schedule, ScheduleSpace,
};
use edge_llm_tensor::check::{run_cases, Gen};

fn random_gemm(g: &mut Gen) -> GemmWorkload {
    let m = g.usize_in(1, 256);
    let n = g.usize_in(1, 256);
    let k = g.usize_in(1, 256);
    let bits = *g.choose(&[2u32, 4, 8, 16]);
    let sparsity = g.f32_in(0.0, 0.9);
    GemmWorkload::new("prop", m, n, k)
        .with_bits(bits)
        .with_sparsity(sparsity)
}

fn random_schedule(g: &mut Gen) -> Schedule {
    Schedule {
        tile_m: *g.choose(&[8usize, 16, 32, 64]),
        tile_n: *g.choose(&[8usize, 16, 32, 64]),
        tile_k: *g.choose(&[8usize, 16, 32, 64]),
        loop_order: LoopOrder::ALL[g.usize_in(0, LoopOrder::ALL.len())],
        double_buffer: g.bool(),
    }
}

#[test]
fn cost_estimates_are_sane() {
    run_cases("cost estimate sanity", 64, |g| {
        let gemm = random_gemm(g);
        let schedule = random_schedule(g);
        let device = DeviceModel::jetson_class();
        if let Ok(cost) = estimate_cost(&gemm, &schedule, &device) {
            assert!(cost.cycles > 0.0);
            assert!(cost.latency_us > 0.0);
            assert!(cost.energy_uj > 0.0);
            assert!(cost.utilization > 0.0 && cost.utilization <= 1.0);
            assert!(cost.dram_bytes > 0.0);
            assert!(cost.sram_bytes <= device.sram_bytes);
        }
    });
}

#[test]
fn narrower_bits_never_slow_down() {
    run_cases("bits monotone", 64, |g| {
        let m = g.usize_in(4, 64);
        let n = g.usize_in(4, 64);
        let k = g.usize_in(4, 64);
        let device = DeviceModel::jetson_class();
        let schedule = Schedule {
            tile_m: 16,
            tile_n: 16,
            tile_k: 16,
            loop_order: LoopOrder::Mnk,
            double_buffer: false,
        };
        let mut prev = f64::INFINITY;
        for bits in [16u32, 8, 4, 2] {
            let gemm = GemmWorkload::new("w", m, n, k).with_bits(bits);
            let cost = estimate_cost(&gemm, &schedule, &device).unwrap();
            assert!(cost.cycles <= prev + 1e-6, "{bits} bits slower");
            prev = cost.cycles;
        }
    });
}

#[test]
fn sparsity_never_slows_down() {
    run_cases("sparsity monotone", 64, |g| {
        let m = g.usize_in(4, 64);
        let n = g.usize_in(4, 64);
        let k = g.usize_in(4, 64);
        let device = DeviceModel::jetson_class();
        let schedule = Schedule {
            tile_m: 16,
            tile_n: 16,
            tile_k: 16,
            loop_order: LoopOrder::Mnk,
            double_buffer: false,
        };
        let mut prev = f64::INFINITY;
        for sparsity in [0.0f32, 0.25, 0.5, 0.75] {
            let gemm = GemmWorkload::new("w", m, n, k).with_sparsity(sparsity);
            let cost = estimate_cost(&gemm, &schedule, &device).unwrap();
            assert!(cost.cycles <= prev + 1e-6);
            prev = cost.cycles;
        }
    });
}

#[test]
fn double_buffering_never_slows_down() {
    run_cases("double buffering", 64, |g| {
        let gemm = random_gemm(g);
        let schedule = random_schedule(g);
        let device = DeviceModel::tx2_class();
        let nodb = Schedule {
            double_buffer: false,
            ..schedule
        };
        let db = Schedule {
            double_buffer: true,
            ..schedule
        };
        if let (Ok(a), Ok(b)) = (
            estimate_cost(&gemm, &nodb, &device),
            estimate_cost(&gemm, &db, &device),
        ) {
            assert!(b.cycles <= a.cycles + 1e-6);
        }
    });
}

#[test]
fn searched_schedule_is_at_least_as_good_as_any_space_point() {
    run_cases("search optimality", 24, |g| {
        let gemm = random_gemm(g);
        let probe = random_schedule(g);
        let device = DeviceModel::jetson_class();
        let space = ScheduleSpace {
            tile_options: vec![8, 16, 32, 64],
            loop_orders: LoopOrder::ALL.to_vec(),
            allow_double_buffer: true,
        };
        let best = search_schedule(&gemm, &device, &space).unwrap();
        assert!(space.iter().any(|s| s == best.schedule));
        assert!(best.cost.sram_bytes <= device.sram_bytes);
        if let Ok(probe_cost) = estimate_cost(&gemm, &probe, &device) {
            assert!(
                best.cost.cycles <= probe_cost.cycles + 1e-6,
                "probe {} beat search {}",
                probe_cost.cycles,
                best.cost.cycles
            );
        }
    });
}
