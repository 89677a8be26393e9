//! Order statistics over latency samples (the serve-report
//! p50/p95/p99/max).

use std::fmt;

/// Zero-based index of the nearest-rank `p`-th percentile in a sorted
/// set of `n >= 1` samples: the smallest sample such that at least `p`%
/// of the set is ≤ it (`p` clamped to [0, 100]; `p = 0` yields the
/// minimum). The one rank computation behind every percentile the repo
/// reports — [`LatencySummary`] and the lab analysis tables both index
/// through it.
pub fn nearest_rank_index(p: u8, n: usize) -> usize {
    (u64::from(p.min(100)) * n as u64).div_ceil(100).max(1) as usize - 1
}

/// Percentile summary of a set of nanosecond samples, computed with the
/// nearest-rank method (deterministic, no interpolation).
///
/// The fields are named for nanoseconds — the dominant use — but the
/// math is unit-agnostic: the fleet router summarizes queue-wait
/// measured in scheduler ticks through the same type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile (the tail the fleet's SLO gates watch).
    pub p99_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes `samples` (order irrelevant). An empty set yields the
    /// all-zero summary.
    pub fn from_ns(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let Some(&max_ns) = samples.last() else {
            return LatencySummary::default();
        };
        let nearest_rank = |p: u8| samples[nearest_rank_index(p, samples.len())];
        LatencySummary {
            count: samples.len(),
            p50_ns: nearest_rank(50),
            p95_ns: nearest_rank(95),
            p99_ns: nearest_rank(99),
            max_ns,
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |ns: u64| ns as f64 / 1e3;
        write!(
            f,
            "n={} p50={:.1}us p95={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            us(self.p50_ns),
            us(self.p95_ns),
            us(self.p99_ns),
            us(self.max_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(
            LatencySummary::from_ns(Vec::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = LatencySummary::from_ns((1..=100).rev().collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let s = LatencySummary::from_ns(vec![42]);
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns), (42, 42, 42, 42));
    }

    #[test]
    fn p99_sits_between_p95_and_max() {
        let s = LatencySummary::from_ns((1..=1000).collect());
        assert_eq!(s.p95_ns, 950);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn display_reads_in_microseconds() {
        let text = LatencySummary::from_ns(vec![1500, 2500]).to_string();
        assert!(text.contains("p50=1.5us"), "{text}");
        assert!(text.contains("max=2.5us"), "{text}");
    }
}
