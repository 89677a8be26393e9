//! Chunked thread pool for the CPU kernels.
//!
//! Every parallel kernel in the workspace splits its **output** into
//! contiguous, disjoint row panels and hands each panel to one worker, so
//! each output element is written by exactly one thread and the
//! per-element arithmetic (including the floating-point reduction order)
//! is the same code path the serial kernel runs. The panel boundaries are
//! a pure function of `(total, threads)` — never of timing — which makes
//! every kernel **bit-identical across thread counts** (see DESIGN.md,
//! "Deterministic multi-threading").
//!
//! **Threads are created in [`fan_out`] and nowhere else**
//! (`tests/one_thread_site.rs` scans the workspace for any other site).
//! Callers decide the split; `fan_out` decides nothing. It has four:
//! [`parallel_rows_mut`] (parts are `(start_row, &mut [f32])` row panels
//! — every matmul-shaped kernel), `edge_llm_model`'s attention backward
//! (each part the `qkv` gradient rows of whole runs), its `decode_runs`
//! (chunks of one decode pass's runs) and `edge_llm_fleet`'s router
//! (shares of the workers stepping in one tick); `decode_runs` walks each
//! of several chunks under [`serial_scope`], the router every share.
//! Workers are scoped per call rather than parked in a persistent pool
//! (`std::thread::scope` only; the workspace builds offline): borrowed
//! operands can then cross into workers without `'static` erasure or
//! unsafe lifetime laundering, and the spawn cost is amortized by the
//! work-size thresholds the kernels apply before going parallel.
//!
//! The global thread count defaults to `1` (serial, the seed behaviour)
//! and is raised either programmatically ([`set_configured_threads`]) or
//! through the `EDGELLM_THREADS` environment variable, which the CLI and
//! the benchmark harness also honour. `0` means "use all available
//! cores".

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable controlling the default worker count.
pub const THREADS_ENV_VAR: &str = "EDGELLM_THREADS";

/// Work below this many multiply-accumulates stays serial even when more
/// workers are configured.
///
/// Rationale: [`fan_out`] spawns scoped workers per call (no parked
/// threads, see the module docs), so going parallel costs one
/// `thread::spawn` + `join` per extra worker — roughly 10–30 µs on a
/// CPU-class edge part. At ~1 MAC/ns serial throughput, `2^16` MACs is
/// ~65 µs of arithmetic: below that the spawn overhead rivals or exceeds
/// the work being split. Because the serial and parallel paths are
/// bit-identical by construction, the cutoff affects wall-clock only,
/// never results. Every parallel kernel in the workspace (dense f32,
/// row-dequantizing, packed-integer, the attention backward) shares this one
/// constant through [`workers`].
pub const MIN_PARALLEL_MACS: usize = 1 << 16;

/// Workers a kernel call actually uses for `macs` multiply-accumulates
/// that split into at most `splits` parts (a matmul's output rows, the
/// runs of an attention backward): the resolved request, capped
/// by `splits` and forced serial below [`MIN_PARALLEL_MACS`].
pub fn workers(requested: usize, macs: usize, splits: usize) -> usize {
    if macs < MIN_PARALLEL_MACS {
        return 1;
    }
    resolve_threads(requested).min(splits.max(1))
}

/// Upper bound on workers per kernel call; panels shrink past the point
/// of usefulness long before this.
const MAX_THREADS: usize = 64;

/// `usize::MAX` marks "not yet configured" so `0` can mean "auto".
static CONFIGURED: AtomicUsize = AtomicUsize::new(usize::MAX);
static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set inside [`serial_scope`]: kernels on this thread resolve to one
    /// worker regardless of the global setting.
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every kernel-level thread request on the current thread
/// resolved to `1`.
///
/// Used by callers that already parallelized at a coarser granularity
/// (e.g. the batched decode step splitting its slots across workers):
/// nested kernel-level spawns would oversubscribe the machine for
/// microseconds of work per call. The override is per-thread and restored
/// on exit, including on unwind.
pub fn serial_scope<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_SERIAL.with(|c| c.replace(true)));
    f()
}

fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn clamp_threads(n: usize) -> usize {
    if n == 0 {
        auto_threads().clamp(1, MAX_THREADS)
    } else {
        n.min(MAX_THREADS)
    }
}

fn env_default() -> usize {
    *ENV_DEFAULT.get_or_init(|| {
        match std::env::var(THREADS_ENV_VAR) {
            // unset or unparseable -> serial, the seed behaviour
            Err(_) => 1,
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => clamp_threads(n),
                Err(_) => 1,
            },
        }
    })
}

/// The process-wide worker count used by kernels when the caller does not
/// pass an explicit one. Resolution order: an enclosing [`serial_scope`]
/// (always 1), else the last [`set_configured_threads`] call, else
/// `EDGELLM_THREADS`, else 1.
pub fn configured_threads() -> usize {
    if FORCE_SERIAL.with(|c| c.get()) {
        return 1;
    }
    match CONFIGURED.load(Ordering::Relaxed) {
        usize::MAX => env_default(),
        n => n,
    }
}

/// Sets the process-wide worker count (`0` = all available cores).
/// Overrides `EDGELLM_THREADS`.
pub fn set_configured_threads(threads: usize) {
    CONFIGURED.store(clamp_threads(threads), Ordering::Relaxed);
}

/// Resolves a kernel-level request: `0` defers to the global setting,
/// anything else is clamped to the pool's cap. Inside a [`serial_scope`]
/// every request resolves to 1.
pub fn resolve_threads(requested: usize) -> usize {
    if FORCE_SERIAL.with(|c| c.get()) {
        1
    } else if requested == 0 {
        configured_threads()
    } else {
        clamp_threads(requested)
    }
}

/// Splits `0..total` into at most `chunks` contiguous, near-equal ranges.
///
/// The split depends only on `(total, chunks)`: the first `total % chunks`
/// ranges get one extra element. Empty input yields no ranges; excess
/// chunks are dropped rather than emitted empty.
pub fn partition(total: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.max(1).min(total);
    let mut out = Vec::with_capacity(chunks);
    if total == 0 {
        return out;
    }
    let base = total / chunks;
    let extra = total % chunks;
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` over every part and returns the results in part order — the
/// one place the workspace creates threads. Zero or one part runs inline
/// (no thread, no telemetry); otherwise each part after the first gets a
/// scoped thread, the caller takes the first, and workers are joined in
/// part order. How many parts, what is in them and whether they run
/// under [`serial_scope`] is the caller's business.
pub fn fan_out<T, R, F>(parts: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    edge_llm_telemetry::counter("pool.parallel_ops", 1);
    let mut results = Vec::with_capacity(parts.len());
    let mut parts = parts.into_iter();
    let first = parts.next();
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = parts.map(|part| scope.spawn(move || f(part))).collect();
        results.extend(first.map(f));
        for w in workers {
            // a panicking worker propagates: determinism bugs must not be
            // silently swallowed
            results.push(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    results
}

/// Runs `body` over disjoint row panels of a `rows x cols` row-major
/// output buffer, one panel per worker.
///
/// `body` receives the panel's starting row and its mutable slice
/// (`panel_rows * cols` long). Panels are contiguous and cover the buffer
/// exactly once, so every output element is written by exactly one
/// thread. With one worker (or an empty output) the body runs inline on
/// the calling thread — byte-for-byte the serial kernel.
pub fn parallel_rows_mut<F>(out: &mut [f32], rows: usize, cols: usize, threads: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * cols);
    let mut rest = out;
    // Invariant: the partition covers `rows` exactly, so each panel fits
    // what is left of the buffer.
    #[allow(clippy::expect_used)]
    let panels = partition(rows, threads.max(1))
        .into_iter()
        .map(|p| {
            let panel = rest.split_off_mut(..p.len() * cols);
            (p.start, panel.expect("panels fit the buffer"))
        })
        .collect();
    fan_out(panels, |(start, chunk)| body(start, chunk));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly_once() {
        for total in [0usize, 1, 2, 7, 32, 33, 100] {
            for chunks in 1..9 {
                let parts = partition(total, chunks);
                let mut next = 0;
                for p in &parts {
                    assert_eq!(p.start, next, "gap at {total}/{chunks}");
                    assert!(!p.is_empty(), "empty panel at {total}/{chunks}");
                    next = p.end;
                }
                assert_eq!(next, total, "coverage at {total}/{chunks}");
            }
        }
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        let a = partition(100, 8);
        let b = partition(100, 8);
        assert_eq!(a, b);
        let lens: Vec<usize> = a.iter().map(|r| r.len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    /// `pool.parallel_ops` bumps by the calling thread during `f` —
    /// recording is process-global and sibling tests fan out too.
    fn own_parallel_ops(f: impl FnOnce()) -> usize {
        use edge_llm_telemetry::{self as telemetry, Event};
        telemetry::enable(std::sync::Arc::new(telemetry::FakeClock::with_tick(1)));
        telemetry::counter("test.marker", 1);
        f();
        let events = telemetry::disable();
        let threads_of = |wanted| {
            events.iter().filter_map(move |e| match e {
                Event::Counter { name, thread, .. } if *name == wanted => Some(*thread),
                _ => None,
            })
        };
        let me = threads_of("test.marker").next().expect("marker recorded");
        threads_of("pool.parallel_ops").filter(|&t| t == me).count()
    }

    #[test]
    fn fan_out_keeps_part_order_and_spawns_only_past_one_part() {
        for n in [0usize, 1, 2, 7] {
            let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
            assert_eq!(fan_out((0..n).collect(), |i| i * 10), want, "{n} parts");
        }
        let caller = std::thread::current().id();
        let whoami = |()| std::thread::current().id();
        let inline_ops = own_parallel_ops(|| assert_eq!(fan_out(vec![()], whoami), [caller]));
        assert_eq!(inline_ops, 0, "one part: no thread, no telemetry");
        let ops = own_parallel_ops(|| {
            let ids = fan_out(vec![(); 3], whoami);
            assert!(ids[0] == caller && ids[1..].iter().all(|&id| id != caller));
        });
        assert_eq!(ops, 1);
    }

    #[test]
    fn fan_out_propagates_a_workers_panic_payload() {
        let run = || {
            fan_out(vec![0, 1, 2], |i| {
                if i == 2 {
                    std::panic::panic_any("part 2")
                }
            })
        };
        let payload = std::panic::catch_unwind(run).expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part 2"));
    }

    #[test]
    fn parallel_rows_mut_writes_every_row_once() {
        for threads in [1usize, 2, 3, 8] {
            let (rows, cols) = (13, 5);
            let mut buf = vec![0.0f32; rows * cols];
            parallel_rows_mut(&mut buf, rows, cols, threads, |start, panel| {
                for (r, row) in panel.chunks_mut(cols).enumerate() {
                    for v in row.iter_mut() {
                        *v += (start + r) as f32;
                    }
                }
            });
            for r in 0..rows {
                assert!(
                    buf[r * cols..(r + 1) * cols].iter().all(|&v| v == r as f32),
                    "row {r} wrong under {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_rows_mut_handles_empty_output() {
        let mut buf: Vec<f32> = Vec::new();
        parallel_rows_mut(&mut buf, 0, 4, 4, |_, _| panic!("no panels expected"));
        parallel_rows_mut(&mut buf, 4, 0, 4, |_, panel| assert!(panel.is_empty()));
    }

    #[test]
    fn resolve_and_clamp() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(MAX_THREADS + 10), MAX_THREADS);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn serial_scope_forces_one_worker_and_restores() {
        assert_eq!(serial_scope(|| resolve_threads(8)), 1);
        assert_eq!(serial_scope(configured_threads), 1);
        // nested scopes restore the outer override, not the global state
        serial_scope(|| {
            serial_scope(|| assert_eq!(resolve_threads(4), 1));
            assert_eq!(resolve_threads(4), 1);
        });
        assert_eq!(resolve_threads(3), 3);
        // the override is per-thread, not process-wide
        serial_scope(|| {
            let other = std::thread::spawn(|| resolve_threads(5)).join().unwrap();
            assert_eq!(other, 5);
        });
    }

    #[test]
    fn matmul_workers_applies_cutoff_and_row_cap() {
        let matmul = |threads, m: usize, k: usize, n: usize| {
            workers(threads, m.saturating_mul(k).saturating_mul(n), m)
        };
        // below the MAC cutoff: always serial, whatever was requested
        assert_eq!(matmul(8, 4, 16, 16), 1);
        assert_eq!(workers(8, MIN_PARALLEL_MACS - 1, 64), 1);
        // above the cutoff: the request resolves, capped by the split count
        assert_eq!(matmul(8, 256, 64, 64), 8);
        assert_eq!(matmul(8, 3, 512, 512), 3);
        assert_eq!(workers(8, MIN_PARALLEL_MACS, 2), 2);
        // degenerate shapes never panic and stay serial
        assert_eq!(matmul(8, 0, 0, 0), 1);
        assert_eq!(workers(8, MIN_PARALLEL_MACS, 0), 1);
        // saturating product: absurd shapes cannot overflow the cutoff math
        assert_eq!(matmul(2, usize::MAX, 2, 2), 2);
    }

    #[test]
    fn set_configured_threads_round_trips() {
        let before = configured_threads();
        set_configured_threads(2);
        assert_eq!(configured_threads(), 2);
        set_configured_threads(before);
        assert_eq!(configured_threads(), before);
    }
}
