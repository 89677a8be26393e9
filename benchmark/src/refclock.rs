//! The reference clock: wall time scaled by how fast the machine was
//! running while it passed.
//!
//! The benchmark runs on a few cores of a shared host. For minutes at a
//! time a neighbour on the same physical core makes every throughput-bound
//! loop — the product's kernels included — run 1.4–1.6x slower, and a run
//! may sit wholly inside such a phase; on-CPU time equals wall time
//! throughout, so no scheduler clock shows it. A wall-clock median is then
//! a measurement of the neighbour. So the benchmark keeps running a small
//! kernel **of its own** (a textbook f32 matmul that no product change can
//! touch) between the product's steps, and every timing it reports is in
//! *reference seconds*: a stretch of wall time counts for
//! `NOMINAL_KERNEL_US / kernel time measured around it`. On a quiet
//! machine of the baseline's kind a reference second is a second; on a
//! disturbed one it is what the same work would have taken undisturbed.
//!
//! Single-threaded workloads interleave the kernel on their own thread
//! ([`RefClock`]), which samples exactly the core the product runs on.
//! `fleet_mixed` cannot — a fleet pass is one product call that keeps two
//! worker threads busy — so a [`Sampler`] thread wakes every few
//! milliseconds instead (under 2% of one core).

use crate::metrics::pct;
use edge_llm_telemetry::span;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one [`Kernel::run`] takes on the baseline box when nothing
/// disturbs it (`BASELINE.md`). Only a scale: it makes reference seconds
/// read as seconds there.
pub const NOMINAL_KERNEL_US: f64 = 57.0;

/// Kernel readings are smoothed by the median of this many neighbours on
/// each side, so one reading hit by an interrupt moves nothing. The
/// sampler's readings come from whichever core it woke on, between two
/// busy workers, and are noisier: they get a wider window (about 0.2 s).
const SMOOTH_INTERLEAVED: usize = 2;
const SMOOTH_SAMPLER: usize = 12;

const M: usize = 32;
const K: usize = 64;
const N: usize = 64;
const REPS: usize = 4;

/// `REPS` naive `M×K · K×N` f32 products over operands that stay in the
/// first-level cache: throughput-bound like the product's own kernels, so
/// it slows down when they do, and short enough (tens of microseconds) to
/// run between two decode steps.
struct Kernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            a: (0..M * K).map(|i| (i % 7) as f32 * 0.125).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 * 0.25).collect(),
            c: vec![0.0; M * N],
        }
    }

    fn run(&mut self) {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        for _ in 0..REPS {
            self.c.fill(0.0);
            for i in 0..M {
                let row = &mut self.c[i * N..(i + 1) * N];
                for k in 0..K {
                    let x = a[i * K + k];
                    for (out, w) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *out += x * w;
                    }
                }
            }
            black_box(&mut self.c);
        }
    }

    fn read(&mut self) -> Reading {
        let start = Instant::now();
        self.run();
        let end = Instant::now();
        Reading {
            start,
            end,
            kernel_us: (end - start).as_secs_f64() * 1e6,
        }
    }
}

/// One kernel reading. The interval `start..end` is the kernel's own and
/// counts for no reference time; a reading taken on another thread has
/// `start == end`.
#[derive(Debug, Clone, Copy)]
struct Reading {
    start: Instant,
    end: Instant,
    kernel_us: f64,
}

/// Interleaved readings on the calling thread.
pub struct RefClock {
    kernel: Kernel,
    readings: Vec<Reading>,
}

impl RefClock {
    /// Starts the clock with a first reading.
    pub fn start() -> Self {
        let mut clock = RefClock {
            kernel: Kernel::new(),
            readings: Vec::new(),
        };
        clock.kernel.run(); // operands into cache
        clock.sample();
        clock
    }

    /// Runs the kernel once. Call it between the product's steps, at
    /// most some tens of milliseconds apart.
    pub fn sample(&mut self) {
        let _s = span("bench.ref.sample");
        self.readings.push(self.kernel.read());
    }

    /// Takes a last reading and closes the clock.
    pub fn finish(mut self) -> Timeline {
        self.sample();
        Timeline::new(&self.readings, SMOOTH_INTERLEAVED)
    }
}

/// Readings from a thread of its own, for a workload whose product calls
/// are long and multi-threaded.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Reading>>,
}

impl Sampler {
    pub fn start(period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            let mut readings = Vec::new();
            loop {
                // twice: the first run refills the cache after the sleep
                kernel.run();
                let r = kernel.read();
                // on another thread than the product: charge it nothing
                readings.push(Reading { end: r.start, ..r });
                if stopped.load(Ordering::Relaxed) {
                    return readings;
                }
                std::thread::sleep(period);
            }
        });
        Sampler { stop, thread }
    }

    /// Stops the thread, waits for it and closes the clock.
    pub fn finish(self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        let readings = self.thread.join().expect("sampler thread ends");
        Timeline::new(&readings, SMOOTH_SAMPLER)
    }
}

/// Reference time as a function of wall time: piecewise linear through
/// the readings, flat across each reading's own interval.
pub struct Timeline {
    /// `(wall instant, reference seconds since the first reading)`,
    /// ascending in both.
    knots: Vec<(Instant, f64)>,
    /// Reference seconds per wall second before the first and after the
    /// last knot.
    edge_rates: (f64, f64),
    kernel_us: Vec<f64>,
}

impl Timeline {
    fn new(readings: &[Reading], smooth_each_side: usize) -> Self {
        assert!(!readings.is_empty(), "a clock takes at least one reading");
        let kernel_us: Vec<f64> = readings.iter().map(|r| r.kernel_us).collect();
        let rates: Vec<f64> = (0..readings.len())
            .map(|i| {
                let lo = i.saturating_sub(smooth_each_side);
                let hi = (i + smooth_each_side + 1).min(readings.len());
                NOMINAL_KERNEL_US / pct(&kernel_us[lo..hi], 50)
            })
            .collect();
        let mut knots = Vec::with_capacity(2 * readings.len());
        let mut reference = 0.0;
        for (i, r) in readings.iter().enumerate() {
            if i > 0 {
                let wall = (r.start - readings[i - 1].end).as_secs_f64();
                reference += wall * (rates[i - 1] + rates[i]) / 2.0;
            }
            knots.push((r.start, reference));
            knots.push((r.end, reference));
        }
        Timeline {
            knots,
            edge_rates: (rates[0], rates[rates.len() - 1]),
            kernel_us,
        }
    }

    /// Reference seconds at wall instant `t`.
    fn at(&self, t: Instant) -> f64 {
        let after = self.knots.partition_point(|(k, _)| *k <= t);
        if after == 0 {
            let (first, v) = self.knots[0];
            return v - (first - t).as_secs_f64() * self.edge_rates.0;
        }
        let (t0, v0) = self.knots[after - 1];
        match self.knots.get(after) {
            None => v0 + (t - t0).as_secs_f64() * self.edge_rates.1,
            Some(&(t1, v1)) => {
                let share = (t - t0).as_secs_f64() / (t1 - t0).as_secs_f64();
                v0 + (v1 - v0) * share
            }
        }
    }

    /// Reference seconds from `a` to `b`.
    pub fn secs(&self, a: Instant, b: Instant) -> f64 {
        self.at(b) - self.at(a)
    }

    /// Median length of `spans` in reference seconds.
    pub fn median_secs(&self, spans: &[(Instant, Instant)]) -> f64 {
        let secs: Vec<f64> = spans.iter().map(|&(a, b)| self.secs(a, b)).collect();
        pct(&secs, 50)
    }

    /// Median kernel reading in microseconds: [`NOMINAL_KERNEL_US`] on a
    /// quiet baseline box.
    pub fn kernel_us_p50(&self) -> f64 {
        pct(&self.kernel_us, 50)
    }

    pub fn readings(&self) -> usize {
        self.kernel_us.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(origin: Instant, start_ms: u64, end_ms: u64, kernel_us: f64) -> Reading {
        Reading {
            start: origin + Duration::from_millis(start_ms),
            end: origin + Duration::from_millis(end_ms),
            kernel_us,
        }
    }

    #[test]
    fn a_quiet_machine_keeps_wall_time_and_skips_the_kernel() {
        let o = Instant::now();
        let readings: Vec<Reading> = (0..5)
            .map(|i| reading(o, i * 10, i * 10 + 1, NOMINAL_KERNEL_US))
            .collect();
        let t = Timeline::new(&readings, SMOOTH_INTERLEAVED);
        let ms = |a: u64, b: u64| {
            t.secs(o + Duration::from_millis(a), o + Duration::from_millis(b)) * 1e3
        };
        // 1..10 is all product time; 0..1 and 10..11 are the kernel's own
        assert!((ms(1, 10) - 9.0).abs() < 1e-9);
        assert!((ms(0, 11) - 9.0).abs() < 1e-9);
        assert!((ms(5, 25) - (5.0 + 9.0 + 4.0)).abs() < 1e-9);
        // past the last reading the last rate carries on
        assert!((ms(41, 51) - 10.0).abs() < 1e-9);
        assert_eq!(t.readings(), 5);
    }

    #[test]
    fn a_machine_at_half_speed_halves_the_time_it_is_charged() {
        let o = Instant::now();
        let readings: Vec<Reading> = (0..8)
            .map(|i| reading(o, i * 10, i * 10, 2.0 * NOMINAL_KERNEL_US))
            .collect();
        let t = Timeline::new(&readings, SMOOTH_INTERLEAVED);
        let secs = t.secs(o, o + Duration::from_millis(70));
        assert!((secs - 0.035).abs() < 1e-9);
        assert!((t.kernel_us_p50() - 2.0 * NOMINAL_KERNEL_US).abs() < 1e-9);
    }

    #[test]
    fn one_disturbed_reading_moves_nothing() {
        let o = Instant::now();
        let mut readings: Vec<Reading> = (0..9)
            .map(|i| reading(o, i * 10, i * 10, NOMINAL_KERNEL_US))
            .collect();
        readings[4].kernel_us *= 30.0;
        let t = Timeline::new(&readings, SMOOTH_INTERLEAVED);
        let secs = t.secs(o, o + Duration::from_millis(80));
        assert!((secs - 0.080).abs() < 1e-9);
    }

    // `RefClock::sample` opens a span and span recording is process-global
    // (the trace test owns it), so the kernel and the sampler are tested
    // directly; every workload run exercises the clock itself.
    #[test]
    fn the_kernel_and_the_sampler_take_readings() {
        let r = Kernel::new().read();
        assert!(r.end > r.start && r.kernel_us > 0.0);

        // the sampler reads before it looks at the stop flag
        let t = Sampler::start(Duration::from_millis(1)).finish();
        assert!(t.readings() >= 1 && t.kernel_us_p50() > 0.0);
    }
}
