//! Trace analysis: reconstruct span trees and aggregate counters.

use crate::record::{Event, ThreadId};
use std::collections::BTreeMap;

/// One reconstructed span with its children, in recording order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span label.
    pub name: &'static str,
    /// Thread ordinal that recorded the span.
    pub thread: ThreadId,
    /// Clock reading at open.
    pub start_ns: u64,
    /// Clock reading at close (equals `start_ns` for spans never closed).
    pub end_ns: u64,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall-clock the span covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Flattens the subtree to `(depth, name)` pairs in open order — the
    /// shape tests assert exactly.
    pub fn flatten(&self) -> Vec<(usize, &'static str)> {
        fn walk(node: &SpanNode, depth: usize, out: &mut Vec<(usize, &'static str)>) {
            out.push((depth, node.name));
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(self, 0, &mut out);
        out
    }
}

#[derive(Debug)]
struct Flat {
    name: &'static str,
    thread: ThreadId,
    start_ns: u64,
    end_ns: Option<u64>,
    children: Vec<u64>,
}

/// Reconstructs the span forest from a trace: roots in open order, each
/// node's children in open order. Spans without a recorded end (recording
/// stopped mid-span) get a zero duration.
pub fn span_tree(events: &[Event]) -> Vec<SpanNode> {
    let mut flat: BTreeMap<u64, Flat> = BTreeMap::new();
    let mut roots: Vec<u64> = Vec::new();
    for e in events {
        match e {
            Event::SpanStart {
                id,
                parent,
                name,
                thread,
                t_ns,
            } => {
                flat.insert(
                    *id,
                    Flat {
                        name,
                        thread: *thread,
                        start_ns: *t_ns,
                        end_ns: None,
                        children: Vec::new(),
                    },
                );
                match parent.and_then(|p| flat.get_mut(&p)) {
                    Some(p) => p.children.push(*id),
                    None => roots.push(*id),
                }
            }
            Event::SpanEnd { id, t_ns } => {
                if let Some(f) = flat.get_mut(id) {
                    f.end_ns = Some(*t_ns);
                }
            }
            Event::Counter { .. } => {}
        }
    }
    fn build(id: u64, flat: &BTreeMap<u64, Flat>) -> SpanNode {
        let f = &flat[&id];
        SpanNode {
            name: f.name,
            thread: f.thread,
            start_ns: f.start_ns,
            end_ns: f.end_ns.unwrap_or(f.start_ns),
            children: f.children.iter().map(|&c| build(c, flat)).collect(),
        }
    }
    roots.into_iter().map(|id| build(id, &flat)).collect()
}

/// Sums every counter by name across all threads (the thread-aware
/// aggregate view).
pub fn counter_totals(events: &[Event]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for e in events {
        if let Event::Counter { name, delta, .. } = e {
            *totals.entry(*name).or_insert(0) += delta;
        }
    }
    totals
}

/// Aggregates spans by name: `(count, total duration)` across the whole
/// trace, all threads included.
pub fn aggregate_span_ns(events: &[Event]) -> BTreeMap<&'static str, (usize, u64)> {
    fn walk(node: &crate::SpanNode, agg: &mut BTreeMap<&'static str, (usize, u64)>) {
        let slot = agg.entry(node.name).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += node.duration_ns();
        for c in &node.children {
            walk(c, agg);
        }
    }
    let mut agg = BTreeMap::new();
    for root in span_tree(events) {
        walk(&root, &mut agg);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, name: &'static str, t: u64) -> Event {
        Event::SpanStart {
            id,
            parent,
            name,
            thread: 0,
            t_ns: t,
        }
    }

    fn end(id: u64, t: u64) -> Event {
        Event::SpanEnd { id, t_ns: t }
    }

    #[test]
    fn tree_rebuilds_nesting_and_order() {
        let events = vec![
            start(0, None, "step", 0),
            start(1, Some(0), "fwd", 1),
            end(1, 3),
            start(2, Some(0), "bwd", 4),
            end(2, 9),
            end(0, 10),
            start(3, None, "step", 11),
            end(3, 12),
        ];
        let tree = span_tree(&events);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].flatten(), vec![(0, "step"), (1, "fwd"), (1, "bwd")]);
        assert_eq!(tree[0].duration_ns(), 10);
        assert_eq!(tree[0].children[1].duration_ns(), 5);
        assert_eq!(tree[1].flatten(), vec![(0, "step")]);
    }

    #[test]
    fn unclosed_span_gets_zero_duration() {
        let tree = span_tree(&[start(0, None, "open", 5)]);
        assert_eq!(tree[0].duration_ns(), 0);
    }

    #[test]
    fn aggregates_sum_across_roots() {
        let events = vec![
            start(0, None, "step", 0),
            end(0, 4),
            start(1, None, "step", 10),
            end(1, 16),
            Event::Counter {
                name: "tokens",
                delta: 2,
                thread: 0,
                t_ns: 1,
            },
            Event::Counter {
                name: "tokens",
                delta: 3,
                thread: 1,
                t_ns: 2,
            },
        ];
        let agg = aggregate_span_ns(&events);
        assert_eq!(agg["step"], (2, 10));
        assert_eq!(counter_totals(&events)["tokens"], 5);
    }
}
