//! `tc-trace`: structured telemetry for the pipeline.
//!
//! Zero-dependency observability primitives shared by every stage of
//! the dictionary-passing pipeline:
//!
//! * [`EventLog`] — the flight recorder ([`events`]): one request's
//!   stage boundaries, resolver goals, evaluator checkpoints,
//!   cancellations and injected faults as fixed-size events in a
//!   ring, keyed by `trace_id`. Every per-request timing view reads
//!   it: [`events::stage_spans`] pairs a trace's stage boundaries into
//!   [`StageSpan`]s, which the timing table
//!   ([`events::timing_table`]), the Chrome trace-event export
//!   ([`events::chrome_spans`], [`events::traces_chrome_json`]) and
//!   the example runner's `--trace-json` all derive from. A disabled
//!   log ([`EventLog::off`], the default) records nothing and
//!   **allocates nothing** — an untraced run pays one branch per site.
//! * [`TraceNode`] — a generic labelled tree, used by the resolver's
//!   explain-traces to render instance derivations as an indented goal
//!   tree ([`TraceNode::render`]). Rendering is iterative, so
//!   adversarially deep derivations cannot overflow the native stack.
//! * [`MetricsRegistry`] — statically-keyed **counters, gauges, and
//!   log2-bucketed histograms** ([`metrics`]), threaded through every
//!   crate with the same zero-cost-when-off discipline as the
//!   recorder: one branch + one add when enabled, no allocation when
//!   disabled.
//! * [`CancelToken`] — a cooperative cancellation flag with an
//!   optional deadline ([`cancel`]), polled by the resolver and
//!   evaluator budget loops and at stage boundaries so a server can
//!   bound a request's wall-clock time without killing threads.
//! * [`json`] — the shared [`json::JsonWriter`], the [`json::check`]
//!   well-formedness validator, and the [`json::parse`] value parser,
//!   so stats and trace output cannot drift into invalid JSON and
//!   requests and our own reports can be read back (the server,
//!   the runner's `report`).
//!
//! The crate deliberately knows nothing about types, classes, or core
//! IR: stages describe themselves through [`Stage`] names, labels, and
//! counters, which keeps `tc-trace` at the bottom of the dependency
//! graph where every other crate can use it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod cancel;
pub mod events;
pub mod json;
pub mod metrics;

pub use cancel::CancelToken;
pub use events::{Event, EventKind, EventLog, EventScope, SpanEvent, StageSpan};
pub use json::JsonWriter;
pub use metrics::{
    bucket_index, bucket_lo, CounterId, GaugeId, Histogram, HistogramId, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot,
};

use std::fmt;

/// The pipeline stages a span can describe, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    Lex,
    Parse,
    ClassEnv,
    Coherence,
    Elaborate,
    Share,
    Lint,
    Eval,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Lex,
        Stage::Parse,
        Stage::ClassEnv,
        Stage::Coherence,
        Stage::Elaborate,
        Stage::Share,
        Stage::Lint,
        Stage::Eval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Lex => "lex",
            Stage::Parse => "parse",
            Stage::ClassEnv => "class-env",
            Stage::Coherence => "coherence",
            Stage::Elaborate => "elaborate",
            Stage::Share => "share",
            Stage::Lint => "lint",
            Stage::Eval => "eval",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A labelled tree node: the building block of resolution
/// explain-traces (and any future hierarchical trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    pub label: String,
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    pub fn leaf(label: impl Into<String>) -> Self {
        TraceNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    pub fn new(label: impl Into<String>, children: Vec<TraceNode>) -> Self {
        TraceNode {
            label: label.into(),
            children,
        }
    }

    /// Total number of nodes in the tree (iterative).
    pub fn size(&self) -> usize {
        let mut n = 0;
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            n += 1;
            stack.extend(node.children.iter());
        }
        n
    }

    /// Render the tree as indented lines, two spaces per level.
    /// Iterative depth-first traversal: derivations as deep as the
    /// resolver's budget allows cannot overflow the native stack.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    pub fn render_into(&self, out: &mut String) {
        let mut stack: Vec<(&TraceNode, usize)> = vec![(self, 0)];
        while let Some((node, depth)) = stack.pop() {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&node.label);
            out.push('\n');
            for child in node.children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_tree_renders_indented() {
        let tree = TraceNode::new(
            "goal A",
            vec![
                TraceNode::new("goal B", vec![TraceNode::leaf("goal C")]),
                TraceNode::leaf("goal D"),
            ],
        );
        assert_eq!(tree.size(), 4);
        assert_eq!(tree.render(), "goal A\n  goal B\n    goal C\n  goal D\n");
    }

    #[test]
    fn deep_trace_tree_renders_iteratively() {
        // Deep enough that a recursive render would overflow the native
        // stack; indentation grows with depth so keep it modest — the
        // rendered size is quadratic in depth.
        const DEPTH: usize = 10_000;
        let mut node = TraceNode::leaf("bottom");
        for i in 0..DEPTH {
            node = TraceNode::new(format!("level {i}"), vec![node]);
        }
        assert_eq!(node.size(), DEPTH + 1);
        let rendered = node.render();
        assert!(rendered.ends_with(&format!("{}bottom\n", "  ".repeat(DEPTH))));
        // Dismantle iteratively too: Drop on a deep Vec chain recurses.
        let mut stack = vec![node];
        while let Some(mut n) = stack.pop() {
            stack.append(&mut n.children);
        }
    }
}
