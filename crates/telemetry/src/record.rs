//! The global recording session: the enabled flag, the event buffer, and
//! the span/counter entry points instrumented code calls.

use crate::clock::{process_ns, Clock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Small per-process thread ordinal (not the OS thread id): assigned on a
/// thread's first recorded event, so traces from `tensor::pool` workers
/// stay distinguishable and cheap to stamp.
pub type ThreadId = u64;

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Session-unique span id.
        id: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Static span label (dot-separated convention, e.g. `tune.forward`).
        name: &'static str,
        /// Recording thread's ordinal.
        thread: ThreadId,
        /// Clock reading at open.
        t_ns: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Id from the matching [`Event::SpanStart`].
        id: u64,
        /// Clock reading at close.
        t_ns: u64,
    },
    /// A named tally was bumped.
    Counter {
        /// Static counter label.
        name: &'static str,
        /// Amount added.
        delta: u64,
        /// Recording thread's ordinal.
        thread: ThreadId,
        /// Clock reading at the bump.
        t_ns: u64,
    },
}

struct Recorder {
    clock: Arc<dyn Clock>,
    events: Vec<Event>,
    next_span_id: u64,
}

/// The whole disabled-path cost: one relaxed load of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's ordinal, assigned lazily on first use.
    static THREAD_ID: ThreadId = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last (parent linkage).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> ThreadId {
    THREAD_ID.with(|id| *id)
}

/// A panicking recorder thread must not silence every later event.
fn lock_recorder() -> MutexGuard<'static, Option<Recorder>> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a recording session stamped by `clock` and turns recording
/// on. Any previous session's unclaimed events are dropped.
pub fn enable(clock: Arc<dyn Clock>) {
    let mut rec = lock_recorder();
    *rec = Some(Recorder {
        clock,
        events: Vec::new(),
        next_span_id: 0,
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off and returns every event recorded since [`enable`]
/// (or the last [`take_events`]). Returns an empty trace when recording
/// was not on.
pub fn disable() -> Vec<Event> {
    ENABLED.store(false, Ordering::SeqCst);
    lock_recorder().take().map(|r| r.events).unwrap_or_default()
}

/// Whether a recording session is active.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains the recorded events without ending the session (periodic trace
/// flushing).
pub fn take_events() -> Vec<Event> {
    lock_recorder()
        .as_mut()
        .map(|r| std::mem::take(&mut r.events))
        .unwrap_or_default()
}

/// The telemetry clock: the session's clock while one records, the
/// process-wide monotonic clock otherwise. For durations no span names.
pub fn now_ns() -> u64 {
    let session = ENABLED.load(Ordering::Relaxed).then(lock_recorder);
    let session = session.as_ref().and_then(|rec| rec.as_ref());
    session.map_or_else(process_ns, |r| r.clock.now_ns())
}

/// Closes the span scope on drop. The disabled-path guard is inert.
#[must_use = "a span measures the scope it is alive in"]
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u64>,
}

impl SpanGuard {
    fn close(&mut self) -> Option<u64> {
        let id = self.id.take()?;
        // Unwind the thread's stack even if recording stopped mid-span;
        // guards drop innermost-first, so popping to `id` is exact.
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            while let Some(top) = s.pop() {
                if top == id {
                    break;
                }
            }
        });
        let mut rec = lock_recorder();
        let r = rec.as_mut()?;
        let t_ns = r.clock.now_ns();
        r.events.push(Event::SpanEnd { id, t_ns });
        Some(t_ns)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Records a span start: `(id, the reading it stamped)`.
fn open(name: &'static str) -> Option<(u64, u64)> {
    let thread = thread_id();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let mut rec = lock_recorder();
    let r = rec.as_mut()?;
    let id = r.next_span_id;
    r.next_span_id += 1;
    let t_ns = r.clock.now_ns();
    r.events.push(Event::SpanStart {
        id,
        parent,
        name,
        thread,
        t_ns,
    });
    drop(rec);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Some((id, t_ns))
}

/// Opens a span named `name` covering the guard's lifetime. Free (one
/// atomic load) when recording is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    let opened = ENABLED
        .load(Ordering::Relaxed)
        .then(|| open(name))
        .flatten();
    SpanGuard {
        id: opened.map(|(id, _)| id),
    }
}

/// A [`span`] that also returns its duration; see [`timed`].
#[must_use = "a timed span reports its duration through `end`"]
#[derive(Debug)]
pub struct Timed {
    guard: SpanGuard,
    start_ns: u64,
}

impl Timed {
    /// Closes the span and returns its duration in ns: while recording,
    /// exactly the one its `SpanStart`/`SpanEnd` stamps record.
    pub fn end(mut self) -> u64 {
        let end_ns = self.guard.close().unwrap_or_else(process_ns);
        end_ns.saturating_sub(self.start_ns)
    }
}

/// Opens a span that reads [`now_ns`]'s clock at both ends, recording or
/// not — every duration the product reports is one of these. Off, that
/// is a clock read per end where [`span`] costs one relaxed load.
pub fn timed(name: &'static str) -> Timed {
    let opened = ENABLED
        .load(Ordering::Relaxed)
        .then(|| open(name))
        .flatten();
    Timed {
        guard: SpanGuard {
            id: opened.map(|(id, _)| id),
        },
        start_ns: opened.map_or_else(process_ns, |(_, t_ns)| t_ns),
    }
}

/// Adds `delta` to the counter named `name`. Free (one atomic load) when
/// recording is disabled; safe from any thread.
pub fn counter(name: &'static str, delta: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let thread = thread_id();
    let mut rec = lock_recorder();
    if let Some(r) = rec.as_mut() {
        let t_ns = r.clock.now_ns();
        r.events.push(Event::Counter {
            name,
            delta,
            thread,
            t_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    /// Recording is process-global; tests touching it run serialized.
    static SESSION: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_inert() {
        let _g = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        let _ = disable();
        {
            let _s = span("ignored");
            counter("ignored", 1);
        }
        assert!(!is_enabled());
        assert!(disable().is_empty());
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _g = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        enable(Arc::new(FakeClock::with_tick(1)));
        {
            let _a = span("outer");
            let _b = span("inner");
        }
        let events = disable();
        let starts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart {
                    id, parent, name, ..
                } => Some((*id, *parent, *name)),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![(0, None, "outer"), (1, Some(0), "inner")]);
        // inner closes before outer
        let ends: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ends, vec![1, 0]);
    }

    #[test]
    fn timed_spans_return_the_durations_they_record() {
        let _g = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        enable(Arc::new(FakeClock::with_tick(10)));
        let outer = timed("outer"); // 0
        let inner = timed("inner"); // 10
        assert_eq!(inner.end(), 10); // 20
        assert_eq!(now_ns(), 30);
        assert_eq!(outer.end(), 40);
        let tree = crate::span_tree(&disable());
        assert_eq!((tree[0].start_ns, tree[0].end_ns), (0, 40));
        assert_eq!(tree[0].children[0].duration_ns(), 10);
        // off: the process clock times the span and nothing is recorded
        let off = timed("off");
        let _ = off.end();
        assert!(disable().is_empty());
    }

    #[test]
    fn counters_record_from_worker_threads() {
        let _g = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        enable(Arc::new(FakeClock::new()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| counter("work", 2));
            }
        });
        counter("work", 1);
        let events = disable();
        let total: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    name: "work",
                    delta,
                    ..
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn take_events_drains_without_ending_session() {
        let _g = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        enable(Arc::new(FakeClock::new()));
        counter("a", 1);
        assert_eq!(take_events().len(), 1);
        assert!(is_enabled());
        counter("b", 1);
        let rest = disable();
        assert_eq!(rest.len(), 1);
    }
}
