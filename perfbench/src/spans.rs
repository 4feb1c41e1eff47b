//! In-memory span tree for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program crates' public functions; nothing inside the program is
//! instrumented. A span is identified by its name and its parent, and all
//! calls of the same span are folded into one node (call count and total
//! nanoseconds), so a 10⁶-job stream keeps a handful of nodes rather than
//! millions of records. A node's self time is its total minus the total of
//! its children.

use std::time::Instant;

#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    calls: u64,
    total_ns: u64,
}

/// Aggregated spans, each naming its parent.
#[derive(Debug, Default)]
pub struct SpanTree {
    nodes: Vec<Node>,
}

impl SpanTree {
    /// The span `name` under `parent`, created on first use.
    pub fn node(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if let Some(i) = self
            .nodes
            .iter()
            .position(|n| n.name == name && n.parent == parent)
        {
            return i;
        }
        self.nodes.push(Node {
            name,
            parent,
            calls: 0,
            total_ns: 0,
        });
        self.nodes.len() - 1
    }

    /// Fold `calls` calls lasting `ns` nanoseconds in total into span `id`.
    pub fn add(&mut self, id: usize, calls: u64, ns: u64) {
        self.nodes[id].calls += calls;
        self.nodes[id].total_ns += ns;
    }

    /// Total (inclusive) nanoseconds of span `id`.
    pub fn total_ns(&self, id: usize) -> u64 {
        self.nodes[id].total_ns
    }

    /// Mean inclusive nanoseconds per call of span `id` (0 if never called).
    pub fn mean_ns(&self, id: usize) -> f64 {
        let n = &self.nodes[id];
        if n.calls == 0 {
            0.0
        } else {
            n.total_ns as f64 / n.calls as f64
        }
    }

    /// Nanoseconds of span `id` not covered by its child spans.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .nodes
            .iter()
            .filter(|n| n.parent == Some(id))
            .map(|n| n.total_ns)
            .sum();
        self.nodes[id].total_ns.saturating_sub(children)
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut t = SpanTree::default();
        let root = t.node("sim", None);
        let a = t.node("alloc", Some(root));
        let b = t.node("sink", Some(root));
        let grandchild = t.node("inner", Some(a));
        t.add(root, 1, 1000);
        t.add(a, 10, 300);
        t.add(b, 10, 200);
        t.add(grandchild, 5, 100);
        assert_eq!(t.self_ns(root), 500);
        assert_eq!(t.self_ns(a), 200);
        assert_eq!(
            t.node("alloc", Some(root)),
            a,
            "same name and parent is the same span"
        );
        assert_ne!(
            t.node("alloc", None),
            a,
            "a different parent is a different span"
        );
        assert_eq!(t.mean_ns(a), 30.0);
    }
}
