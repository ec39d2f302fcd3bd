//! Reproduction of *Implementing Type Classes* (Peterson & Jones,
//! PLDI 1993): a Mini-Haskell compiler built around placeholder-based
//! dictionary conversion, plus a resource-bounded lazy evaluator.
//!
//! This facade crate re-exports the pipeline crates; see the README
//! for the stage-by-stage tour and [`tc_driver::run_source`] for the
//! one-call entry point.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

pub use tc_classes as classes;
pub use tc_coherence as coherence;
pub use tc_core as core_elab;
pub use tc_coreir as coreir;
pub use tc_driver as driver;
pub use tc_eval as eval;
pub use tc_lint as lint;
pub use tc_serve as serve;
pub use tc_syntax as syntax;
pub use tc_trace as trace;
pub use tc_types as types;

pub use tc_driver::{
    check_source, lint_source, run_checked, run_source, Check, FaultPlan, Options, Outcome,
    PipelineStats, RunResult, CANCELLED_CODE, PRELUDE,
};
pub use tc_eval::{Budget, BudgetSnapshot, EvalError, EvalProfile, EvalStats};
pub use tc_lint::{LintConfig, Rule};
pub use tc_serve::{
    retry_after_hint, serve_socket, AccessLog, RecorderConfig, RetainedTrace, ServeConfig,
    ServeSummary, SocketHandle, SHED_WINDOW_SECS,
};
pub use tc_syntax::LintLevel;
pub use tc_trace::{
    bucket_index, CancelToken, CounterId, Event, EventKind, EventLog, EventScope, GaugeId,
    Histogram, HistogramId, HistogramSnapshot, JsonWriter, MetricsRegistry, MetricsSnapshot,
    SpanEvent, Stage, StageSpan, TraceNode,
};
