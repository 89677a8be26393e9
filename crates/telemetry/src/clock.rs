//! The clock abstraction: monotonic nanoseconds from a swappable source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic nanosecond source. The recorder stamps every event through
/// one of these, so tests inject a [`FakeClock`] and get bit-exact,
/// machine-independent timestamps while production uses the OS monotonic
/// clock.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary (per-clock) origin. Must never
    /// decrease.
    fn now_ns(&self) -> u64;
}

/// Production clock: nanoseconds since the clock was constructed, from
/// [`std::time::Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The one process-wide [`MonotonicClock`] read while no session records.
pub(crate) fn process_ns() -> u64 {
    static PROCESS: OnceLock<MonotonicClock> = OnceLock::new();
    PROCESS.get_or_init(MonotonicClock::new).now_ns()
}

/// Deterministic test clock: reads return a manually-controlled counter,
/// optionally auto-advancing by a fixed tick per read so every recorded
/// timestamp is distinct and exactly predictable.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
    tick: u64,
}

impl FakeClock {
    /// A clock frozen at zero; advance it with [`FakeClock::advance`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock that returns `0, tick, 2*tick, ...` on successive reads.
    pub fn with_tick(tick: u64) -> Self {
        FakeClock {
            now: AtomicU64::new(0),
            tick,
        }
    }

    /// Moves the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }

    /// The current reading without consuming a tick.
    pub fn peek(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.tick, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_ticks_deterministically() {
        let c = FakeClock::with_tick(7);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 7);
        c.advance(100);
        assert_eq!(c.now_ns(), 114);
        assert_eq!(c.peek(), 121);
    }

    #[test]
    fn frozen_fake_clock_holds_still() {
        let c = FakeClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(5);
        assert_eq!(c.now_ns(), 5);
    }
}
