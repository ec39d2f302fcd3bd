//! The flight recorder: request-scoped event tracing over fixed-size
//! ring buffers, and the per-request timing views derived from it.
//!
//! Where [`crate::metrics::MetricsRegistry`] answers "how much work
//! happened" in aggregate, the [`EventLog`] answers "what happened
//! *inside this request*, and when": a monotonic-clock-stamped
//! sequence of statically-keyed events (stage boundaries, resolver
//! goals, evaluator budget checkpoints, cancellations, injected
//! faults, sheds) tagged with a per-request
//! `trace_id`. The design constraints mirror the metrics registry:
//!
//! * **Static keys.** Every event is an [`EventKind`] variant with two
//!   `u64` payload slots whose meaning is fixed per kind. No strings on
//!   the hot path; names only appear at serialization time.
//! * **Fixed memory.** An enabled log is one pre-allocated ring of
//!   [`Event`]s (plain `Copy` structs). Recording overwrites the oldest
//!   entry when full, so steady-state recording never allocates after
//!   warm-up — [`EventLog::capacity_is_fixed`] is asserted by tests.
//! * **Zero cost when off.** [`EventLog::off`] holds `None`; every
//!   record call is a branch and nothing else, in the same style as
//!   `MetricsRegistry::allocates_nothing`.
//!
//! Servers hand each request an [`EventScope`] (the log plus the
//! request's `trace_id`) so pipeline stages record without knowing
//! where ids come from; a tail sampler later extracts one request's
//! events with [`EventLog::extract`] when the request turns out to be
//! worth keeping.
//!
//! Every per-request timing view reads one trace's events through a
//! single pairing function, [`stage_spans`]: the stage timing table
//! ([`timing_table`]), the Chrome trace-event export ([`chrome_spans`]
//! and [`traces_chrome_json`], behind both `report --chrome` and the
//! example runner's `--chrome-trace`), and the runner's `--trace-json`.

use crate::json::{JsonWriter, Value};
use crate::Stage;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Outcome-class codes carried by [`EventKind::RequestEnd`] (`arg0`).
pub const OUTCOME_OK: u64 = 0;
pub const OUTCOME_INTERNAL: u64 = 1;
pub const OUTCOME_DEADLINE: u64 = 2;
pub const OUTCOME_OVERLOADED: u64 = 3;
pub const OUTCOME_BAD_REQUEST: u64 = 4;

/// The class label for a [`EventKind::RequestEnd`] outcome code.
pub fn outcome_name(code: u64) -> &'static str {
    match code {
        OUTCOME_OK => "ok",
        OUTCOME_INTERNAL => "internal",
        OUTCOME_DEADLINE => "deadline",
        OUTCOME_OVERLOADED => "overloaded",
        OUTCOME_BAD_REQUEST => "bad-request",
        _ => "unknown",
    }
}

/// The outcome code a class label names: the inverse of
/// [`outcome_name`].
pub fn outcome_code(name: &str) -> Option<u64> {
    [
        OUTCOME_OK,
        OUTCOME_INTERNAL,
        OUTCOME_DEADLINE,
        OUTCOME_OVERLOADED,
        OUTCOME_BAD_REQUEST,
    ]
    .into_iter()
    .find(|&code| outcome_name(code) == name)
}

/// What a recorded event means. The two payload args are interpreted
/// per kind; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request began processing. `arg0` = request sequence number.
    RequestStart,
    /// A request finished. `arg0` = outcome code ([`outcome_name`]),
    /// `arg1` = end-to-end latency in microseconds.
    RequestEnd,
    /// A pipeline stage began. `arg0` = [`Stage`] index in
    /// [`Stage::ALL`].
    StageStart,
    /// A pipeline stage ended. `arg0` = stage index, `arg1` =
    /// diagnostics the stage itself produced (always 0 for `share` and
    /// `eval`, which produce none).
    StageEnd,
    /// The resolver answered one goal. `arg0` = backward-chaining
    /// depth, `arg1` = 0 memo miss / 1 memo hit / 2 not cacheable.
    Goal,
    /// The evaluator passed a budget checkpoint (the cancellation-poll
    /// cadence). `arg0` = fuel used so far, `arg1` = current depth.
    EvalCheckpoint,
    /// Cooperative cancellation observed. `arg0` = stage index where
    /// the deadline tripped.
    Cancelled,
    /// The deterministic fault plan fired. `arg0` = stage index,
    /// `arg1` = 0 panic / 1 delay / 2 budget.
    FaultInjected,
    /// The request was shed at admission. `arg0` = queue depth,
    /// `arg1` = the `retry_after_ms` hint returned.
    Shed,
}

impl EventKind {
    pub const ALL: [EventKind; 9] = [
        EventKind::RequestStart,
        EventKind::RequestEnd,
        EventKind::StageStart,
        EventKind::StageEnd,
        EventKind::Goal,
        EventKind::EvalCheckpoint,
        EventKind::Cancelled,
        EventKind::FaultInjected,
        EventKind::Shed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestStart => "request-start",
            EventKind::RequestEnd => "request-end",
            EventKind::StageStart => "stage-start",
            EventKind::StageEnd => "stage-end",
            EventKind::Goal => "goal",
            EventKind::EvalCheckpoint => "eval-checkpoint",
            EventKind::Cancelled => "cancelled",
            EventKind::FaultInjected => "fault-injected",
            EventKind::Shed => "shed",
        }
    }
}

/// The stage name for an event's stage-index payload ("?" when the
/// index is out of range — a malformed event, not a panic).
fn stage_name(index: u64) -> &'static str {
    Stage::ALL.get(index as usize).map_or("?", |s| s.name())
}

/// The stage index a stage name stands for: the inverse of
/// [`stage_name`], out of range (so "?" again) for an unknown name.
fn stage_index(name: &str) -> u64 {
    Stage::ALL
        .iter()
        .position(|s| s.name() == name)
        .unwrap_or(Stage::ALL.len()) as u64
}

/// A goal's memo payload (`arg1`), named by index; 2 and up are
/// "uncached".
const MEMO: [&str; 3] = ["miss", "hit", "uncached"];

/// A fault's action payload (`arg1`), named by index; 2 and up are
/// "budget".
const FAULT_ACTIONS: [&str; 3] = ["panic", "delay", "budget"];

/// The name of payload `arg` in `names`; the last name stands for
/// every larger value.
fn arg_name(names: &[&'static str; 3], arg: u64) -> &'static str {
    names[(arg as usize).min(names.len() - 1)]
}

/// The payload `name` stands for in `names`; an unknown name is read
/// as the last.
fn arg_code(names: &[&str; 3], name: &str) -> u64 {
    names
        .iter()
        .position(|n| *n == name)
        .unwrap_or(names.len() - 1) as u64
}

/// One recorded event: fixed-size, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The request this event belongs to.
    pub trace_id: u64,
    /// Nanoseconds since the log's epoch (monotonic clock).
    pub ts_ns: u64,
    pub kind: EventKind,
    pub arg0: u64,
    pub arg1: u64,
}

impl Event {
    /// Serialize as one object with kind-specific field names, so
    /// dumps are self-describing without consumers memorizing the
    /// `arg0`/`arg1` conventions.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("ts_ns", self.ts_ns);
        w.field_str("kind", self.kind.name());
        match self.kind {
            EventKind::RequestStart => w.field_u64("seq", self.arg0),
            EventKind::RequestEnd => {
                w.field_str("outcome", outcome_name(self.arg0));
                w.field_u64("latency_us", self.arg1);
            }
            EventKind::StageStart => w.field_str("stage", stage_name(self.arg0)),
            EventKind::StageEnd => {
                w.field_str("stage", stage_name(self.arg0));
                w.field_u64("diags", self.arg1);
            }
            EventKind::Goal => {
                w.field_u64("depth", self.arg0);
                w.field_str("memo", arg_name(&MEMO, self.arg1));
            }
            EventKind::EvalCheckpoint => {
                w.field_u64("fuel_used", self.arg0);
                w.field_u64("depth", self.arg1);
            }
            EventKind::Cancelled => w.field_str("stage", stage_name(self.arg0)),
            EventKind::FaultInjected => {
                w.field_str("stage", stage_name(self.arg0));
                w.field_str("action", arg_name(&FAULT_ACTIONS, self.arg1));
            }
            EventKind::Shed => {
                w.field_u64("queue_depth", self.arg0);
                w.field_u64("retry_after_ms", self.arg1);
            }
        }
        w.end_object();
    }

    /// The event that [`Event::write_json`] wrote as `v`, in trace
    /// `trace_id` (a dump names the trace once, not per event): the
    /// field names decoded back into `arg0`/`arg1`. `None` when `v`
    /// has no timestamp or names no [`EventKind`].
    pub fn from_json(trace_id: u64, v: &Value) -> Option<Event> {
        let ts_ns = v.get("ts_ns")?.as_u64()?;
        let name = v.get("kind")?.as_str()?;
        let kind = EventKind::ALL.into_iter().find(|k| k.name() == name)?;
        let num = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let text = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("");
        let (arg0, arg1) = match kind {
            EventKind::RequestStart => (num("seq"), 0),
            EventKind::RequestEnd => (
                outcome_code(text("outcome")).unwrap_or(u64::MAX),
                num("latency_us"),
            ),
            EventKind::StageStart | EventKind::Cancelled => (stage_index(text("stage")), 0),
            EventKind::StageEnd => (stage_index(text("stage")), num("diags")),
            EventKind::Goal => (num("depth"), arg_code(&MEMO, text("memo"))),
            EventKind::EvalCheckpoint => (num("fuel_used"), num("depth")),
            EventKind::FaultInjected => (
                stage_index(text("stage")),
                arg_code(&FAULT_ACTIONS, text("action")),
            ),
            EventKind::Shed => (num("queue_depth"), num("retry_after_ms")),
        };
        Some(Event {
            trace_id,
            ts_ns,
            kind,
            arg0,
            arg1,
        })
    }
}

/// Fixed-capacity overwrite-oldest ring. `events` is allocated once at
/// construction and never grows.
#[derive(Debug)]
struct Ring {
    events: Vec<Event>,
    capacity: usize,
    /// Next write position.
    head: usize,
    /// Live entries (≤ capacity).
    len: usize,
    /// Total events ever recorded, including overwritten ones.
    recorded: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    ring: Mutex<Ring>,
}

/// Non-poisoning lock: a worker that panicked mid-record leaves at
/// worst one torn `Copy` event, never a torn data structure, so the
/// recorder keeps working after isolation catches the panic.
fn lock_ring(inner: &Inner) -> std::sync::MutexGuard<'_, Ring> {
    inner.ring.lock().unwrap_or_else(|e| e.into_inner())
}

/// The flight-recorder handle. Cloning shares the underlying ring
/// (it is an `Arc`); the disabled log is a single `None`.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<Inner>>,
}

impl EventLog {
    /// The disabled recorder: records nothing, allocates nothing.
    pub fn off() -> Self {
        EventLog::default()
    }

    /// An enabled recorder holding a ring of exactly `capacity`
    /// events (minimum 1), allocated here and never again.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventLog {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                ring: Mutex::new(Ring {
                    events: Vec::with_capacity(capacity),
                    capacity,
                    head: 0,
                    len: 0,
                    recorded: 0,
                }),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True iff the recorder is disabled and holds no heap memory —
    /// the zero-cost-when-off guarantee, asserted by tests.
    pub fn allocates_nothing(&self) -> bool {
        self.inner.is_none()
    }

    /// True iff the ring's backing storage still has its construction
    /// capacity — recording can never have grown it. Vacuously true
    /// when disabled.
    pub fn capacity_is_fixed(&self) -> bool {
        self.inner.as_ref().is_none_or(|i| {
            let r = lock_ring(i);
            r.events.capacity() == r.capacity && r.len <= r.capacity
        })
    }

    /// Record one event. No-op when disabled; overwrites the oldest
    /// event when the ring is full.
    pub fn record(&self, trace_id: u64, kind: EventKind, arg0: u64, arg1: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let ts_ns = inner.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let ev = Event {
            trace_id,
            ts_ns,
            kind,
            arg0,
            arg1,
        };
        let mut r = lock_ring(inner);
        if r.len < r.capacity {
            r.events.push(ev);
            r.len += 1;
        } else {
            let h = r.head;
            r.events[h] = ev;
        }
        r.head = (r.head + 1) % r.capacity;
        r.recorded = r.recorded.saturating_add(1);
    }

    /// Total events ever recorded (0 when disabled), including those
    /// later overwritten by ring wraparound.
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock_ring(i).recorded)
    }

    /// Copy out one request's surviving events, oldest first. Events
    /// already overwritten by wraparound are gone — the returned
    /// prefix may be truncated for requests larger than the ring.
    pub fn extract(&self, trace_id: u64) -> Vec<Event> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let r = lock_ring(inner);
        let mut out = Vec::new();
        // Oldest entry sits at `head` once the ring has wrapped, at 0
        // before that.
        let start = if r.len < r.capacity { 0 } else { r.head };
        for k in 0..r.len {
            let ev = r.events[(start + k) % r.capacity];
            if ev.trace_id == trace_id {
                out.push(ev);
            }
        }
        out
    }

    /// One request's events, as [`EventLog::extract`] returns them,
    /// provided the ring has overwritten nothing yet. Once it has, the
    /// trace may be missing its oldest events, and `Err` carries a
    /// notice saying how many were lost: views that must see a request
    /// whole (a stage table, a trace file) report the loss instead of
    /// showing a shorter trace.
    pub fn extract_whole(&self, trace_id: u64) -> Result<Vec<Event>, String> {
        if let Some(inner) = self.inner.as_ref() {
            let r = lock_ring(inner);
            let lost = r.recorded - r.len as u64;
            if lost > 0 {
                return Err(format!(
                    "the flight recorder's ring holds {} events and overwrote the oldest \
                     {lost} of the {} recorded, so the trace is incomplete",
                    r.capacity, r.recorded
                ));
            }
        }
        Ok(self.extract(trace_id))
    }

    /// A recording scope bound to one request's `trace_id`.
    pub fn scope(&self, trace_id: u64) -> EventScope {
        EventScope {
            log: self.clone(),
            trace_id,
        }
    }
}

/// One request's handle into the recorder: the log plus the request's
/// `trace_id`, cloned cheaply into every pipeline layer. The default
/// scope is disabled, so code paths outside a server record nothing
/// and pay one branch.
#[derive(Debug, Clone, Default)]
pub struct EventScope {
    log: EventLog,
    trace_id: u64,
}

impl EventScope {
    /// The disabled scope (the default): every record is one branch.
    pub fn off() -> Self {
        EventScope::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// See [`EventLog::allocates_nothing`].
    pub fn allocates_nothing(&self) -> bool {
        self.log.allocates_nothing()
    }

    pub fn record(&self, kind: EventKind, arg0: u64, arg1: u64) {
        self.log.record(self.trace_id, kind, arg0, arg1);
    }

    pub fn stage_start(&self, stage: Stage) {
        self.record(EventKind::StageStart, stage as u64, 0);
    }

    pub fn stage_end(&self, stage: Stage, diags: u64) {
        self.record(EventKind::StageEnd, stage as u64, diags);
    }

    pub fn cancelled(&self, stage: Stage) {
        self.record(EventKind::Cancelled, stage as u64, 0);
    }
}

/// One stage of a trace, paired from its `StageStart` and `StageEnd`
/// events by [`stage_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    pub stage: Stage,
    /// Nanoseconds after the trace's first event.
    pub start_ns: u64,
    pub duration_ns: u64,
    /// Diagnostics the stage produced (the `StageEnd` payload).
    pub diags: u64,
    /// False for a stage that started and never ended (a panic, a
    /// tripped deadline): it runs to the trace's last event.
    pub finished: bool,
}

impl StageSpan {
    /// Nanosecond offset at which the span ended.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }
}

/// Pair a trace's stage boundaries into spans, rebased so the trace's
/// first event sits at t=0: the finished stages in the order they
/// ended (the pipeline's order, since stages do not nest), then the
/// unfinished ones. Boundaries naming no [`Stage`] are ignored. This is
/// the one pairing every per-request timing view reads.
pub fn stage_spans(events: &[Event]) -> Vec<StageSpan> {
    let t0 = events.first().map_or(0, |e| e.ts_ns);
    let end = events.last().map_or(0, |e| e.ts_ns.saturating_sub(t0));
    let mut spans = Vec::new();
    let mut open: Vec<(Stage, u64)> = Vec::new();
    for e in events {
        let stage = match e.kind {
            EventKind::StageStart | EventKind::StageEnd => Stage::ALL.get(e.arg0 as usize),
            _ => None,
        };
        let Some(&stage) = stage else {
            continue;
        };
        let ts = e.ts_ns.saturating_sub(t0);
        if e.kind == EventKind::StageStart {
            open.push((stage, ts));
        } else if let Some(pos) = open.iter().rposition(|&(s, _)| s == stage) {
            let (_, start) = open.remove(pos);
            spans.push(StageSpan {
                stage,
                start_ns: start,
                duration_ns: ts.saturating_sub(start),
                diags: e.arg1,
                finished: true,
            });
        }
    }
    spans.extend(open.into_iter().map(|(stage, start)| StageSpan {
        stage,
        start_ns: start,
        duration_ns: end.saturating_sub(start),
        diags: 0,
        finished: false,
    }));
    spans
}

/// The per-stage timing table of one trace: a row per finished stage
/// in the order the stages ran, a `total` row, then `counters` after a
/// `--` line.
///
/// ```text
/// stage              time       %   diags
/// lex             0.041ms    3.1%       0
/// ...
/// total           1.315ms               2
/// ```
pub fn timing_table(events: &[Event], counters: &[(&str, u64)]) -> String {
    use std::fmt::Write as _;
    let spans: Vec<StageSpan> = stage_spans(events)
        .into_iter()
        .filter(|s| s.finished)
        .collect();
    let total: u64 = spans.iter().map(|s| s.duration_ns).sum();
    let ms = |ns: u64| format!("{:.3}ms", ns as f64 / 1e6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>7} {:>7}",
        "stage", "time", "%", "diags"
    );
    for s in &spans {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>6.1}% {:>7}",
            s.stage.name(),
            ms(s.duration_ns),
            s.duration_ns as f64 * 100.0 / total.max(1) as f64,
            s.diags,
        );
    }
    let diags: u64 = spans.iter().map(|s| s.diags).sum();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>7} {:>7}",
        "total",
        ms(total),
        "",
        diags
    );
    if !counters.is_empty() {
        let _ = writeln!(out, "--");
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<24} {value}");
        }
    }
    out
}

/// One generic named span for the Chrome trace-event export,
/// nanoseconds relative to its track's start. [`chrome_spans`] derives
/// them from a trace's events; other producers (the benchmark's
/// layer-by-layer replay) build them directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name shown in the viewer (a stage, `goal`, ...).
    pub name: String,
    /// Event category (`"stage"`, `"event"`, ...), filterable in the
    /// viewer.
    pub cat: &'static str,
    /// Start offset, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub duration_ns: u64,
}

/// A trace's events as Chrome spans, rebased so the trace's first
/// event sits at t=0: [`stage_spans`]' stages become stage spans
/// (`(unfinished)` for a stage that never ended, so the failing stage
/// is visible in the viewer), `RequestStart`/`RequestEnd` a
/// whole-request span, and point events (goals, checkpoints, faults,
/// ...) zero-duration markers.
pub fn chrome_spans(events: &[Event]) -> Vec<SpanEvent> {
    let t0 = events.first().map_or(0, |e| e.ts_ns);
    let mut spans = Vec::new();
    let mut request_start: Option<u64> = None;
    for e in events {
        let ts = e.ts_ns.saturating_sub(t0);
        match e.kind {
            EventKind::RequestStart => request_start = Some(ts),
            EventKind::RequestEnd => {
                let start = request_start.take().unwrap_or(0);
                spans.push(SpanEvent {
                    name: format!("request ({})", outcome_name(e.arg0)),
                    cat: "request",
                    start_ns: start,
                    duration_ns: ts.saturating_sub(start),
                });
            }
            EventKind::StageStart | EventKind::StageEnd => {}
            _ => spans.push(SpanEvent {
                name: e.kind.name().to_string(),
                cat: "event",
                start_ns: ts,
                duration_ns: 0,
            }),
        }
    }
    if let Some(start) = request_start {
        let end = events.last().map_or(0, |e| e.ts_ns.saturating_sub(t0));
        spans.push(SpanEvent {
            name: "request (unfinished)".to_string(),
            cat: "request",
            start_ns: start,
            duration_ns: end.saturating_sub(start),
        });
    }
    spans.extend(stage_spans(events).into_iter().map(|s| SpanEvent {
        name: if s.finished {
            s.stage.name().to_string()
        } else {
            format!("{} (unfinished)", s.stage.name())
        },
        cat: "stage",
        start_ns: s.start_ns,
        duration_ns: s.duration_ns,
    }));
    spans.sort_by_key(|s| s.start_ns);
    spans
}

/// Render several traces' spans as one Chrome trace-event document,
/// one `pid` per trace so the viewer shows each request on its own
/// track. Used by `report --chrome`.
pub fn traces_chrome_json(traces: &[(u64, Vec<SpanEvent>)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.begin_array_field("traceEvents");
    for (trace_id, spans) in traces {
        for s in spans {
            w.begin_object();
            w.field_str("name", &s.name);
            w.field_str("cat", s.cat);
            w.field_str("ph", "X");
            w.field_f64("ts", s.start_ns as f64 / 1e3, 3);
            w.field_f64("dur", s.duration_ns as f64 / 1e3, 3);
            w.field_u64("pid", *trace_id);
            w.field_u64("tid", 1);
            w.end_object();
        }
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_event_kind_round_trips_through_json() {
        // One event of each kind, with payloads its JSON fields can name.
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            let (arg0, arg1) = match kind {
                EventKind::RequestStart => (41, 0),
                EventKind::RequestEnd => (OUTCOME_OVERLOADED, 1_234),
                EventKind::StageStart | EventKind::Cancelled => (3, 0),
                EventKind::StageEnd => (4, 2),
                EventKind::Goal => (5, 1),
                EventKind::EvalCheckpoint => (80_000, 17),
                EventKind::FaultInjected => (2, 1),
                EventKind::Shed => (64, 250),
            };
            let event = Event {
                trace_id: 9,
                ts_ns: 1_000 + i as u64,
                kind,
                arg0,
                arg1,
            };
            let mut w = JsonWriter::new();
            event.write_json(&mut w);
            let text = w.finish();
            let v = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(Event::from_json(9, &v), Some(event), "{text}");
        }
        // The outcome and stage names invert too.
        for code in 0..5 {
            assert_eq!(outcome_code(outcome_name(code)), Some(code));
        }
        assert_eq!(outcome_code("unknown"), None);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage_index(stage.name()), i as u64);
        }
    }

    #[test]
    fn off_log_allocates_nothing_and_records_nothing() {
        let log = EventLog::off();
        assert!(!log.is_enabled());
        assert!(log.allocates_nothing());
        log.record(1, EventKind::Goal, 2, 1);
        assert!(log.allocates_nothing(), "recording must not allocate");
        assert_eq!(log.recorded(), 0);
        assert!(log.extract(1).is_empty());
        let scope = EventScope::off();
        scope.record(EventKind::Goal, 0, 0);
        scope.stage_start(Stage::Parse);
        assert!(scope.allocates_nothing());
    }

    #[test]
    fn ring_overwrites_oldest_and_never_grows() {
        let log = EventLog::with_capacity(4);
        for i in 0..10u64 {
            log.record(7, EventKind::Goal, i, 0);
        }
        assert_eq!(log.recorded(), 10);
        assert!(
            log.capacity_is_fixed(),
            "ring must never grow past construction capacity"
        );
        let events = log.extract(7);
        assert_eq!(events.len(), 4, "only the newest `capacity` survive");
        let depths: Vec<u64> = events.iter().map(|e| e.arg0).collect();
        assert_eq!(depths, vec![6, 7, 8, 9], "oldest-first order");
        // Timestamps are monotone.
        for pair in events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    #[test]
    fn extract_filters_by_trace_id() {
        let log = EventLog::with_capacity(16);
        let a = log.scope(1);
        let b = log.scope(2);
        a.record(EventKind::RequestStart, 1, 0);
        b.record(EventKind::RequestStart, 2, 0);
        a.stage_start(Stage::Parse);
        a.stage_end(Stage::Parse, 0);
        b.record(EventKind::RequestEnd, OUTCOME_OK, 10);
        a.record(EventKind::RequestEnd, OUTCOME_DEADLINE, 99);
        let ta = log.extract(1);
        let tb = log.extract(2);
        assert_eq!(ta.len(), 4);
        assert_eq!(tb.len(), 2);
        assert!(ta.iter().all(|e| e.trace_id == 1));
        assert_eq!(ta[3].kind, EventKind::RequestEnd);
        assert_eq!(ta[3].arg0, OUTCOME_DEADLINE);
    }

    #[test]
    fn event_json_is_valid_and_self_describing() {
        let log = EventLog::with_capacity(16);
        let s = log.scope(3);
        s.record(EventKind::RequestStart, 3, 0);
        s.stage_start(Stage::Elaborate);
        s.record(EventKind::Goal, 2, 1);
        s.record(EventKind::FaultInjected, 4, 0);
        s.record(EventKind::Shed, 31, 50);
        for e in log.extract(3) {
            let mut w = JsonWriter::new();
            e.write_json(&mut w);
            let out = w.finish();
            json::check(&out).unwrap_or_else(|err| panic!("{err}\n{out}"));
        }
        let goal = log.extract(3)[2];
        let mut w = JsonWriter::new();
        goal.write_json(&mut w);
        let out = w.finish();
        assert!(out.contains("\"kind\": \"goal\""), "{out}");
        assert!(out.contains("\"memo\": \"hit\""), "{out}");
        let fault = log.extract(3)[3];
        let mut w = JsonWriter::new();
        fault.write_json(&mut w);
        let out = w.finish();
        assert!(out.contains("\"stage\": \"elaborate\""), "{out}");
        assert!(out.contains("\"action\": \"panic\""), "{out}");
    }

    #[test]
    fn chrome_spans_pair_stage_boundaries_and_flag_unfinished_work() {
        let log = EventLog::with_capacity(32);
        let s = log.scope(5);
        s.record(EventKind::RequestStart, 5, 0);
        s.stage_start(Stage::Parse);
        s.stage_end(Stage::Parse, 0);
        s.stage_start(Stage::Elaborate);
        s.record(EventKind::FaultInjected, 4, 0); // panic: elaborate never ends
        let spans = chrome_spans(&log.extract(5));
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"parse"), "{names:?}");
        assert!(names.contains(&"fault-injected"), "{names:?}");
        assert!(
            names.contains(&"elaborate (unfinished)"),
            "the failing stage must be visible: {names:?}"
        );
        assert!(names.contains(&"request (unfinished)"), "{names:?}");
        let doc = traces_chrome_json(&[(5, spans)]);
        json::check(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(doc.contains("\"ph\": \"X\""), "{doc}");
        assert!(doc.contains("\"pid\": 5"), "{doc}");
    }

    fn ev(ts_ns: u64, kind: EventKind, arg0: u64, arg1: u64) -> Event {
        Event {
            trace_id: 1,
            ts_ns,
            kind,
            arg0,
            arg1,
        }
    }

    /// A trace that lexes, elaborates with three errors, passes a
    /// boundary naming no stage, and dies in `eval`.
    fn unfinished_trace() -> Vec<Event> {
        vec![
            ev(1_000, EventKind::StageStart, Stage::Lex as u64, 0),
            ev(1_400, EventKind::StageEnd, Stage::Lex as u64, 0),
            ev(1_500, EventKind::StageStart, Stage::Elaborate as u64, 0),
            ev(1_600, EventKind::Goal, 0, 1),
            ev(2_500, EventKind::StageEnd, Stage::Elaborate as u64, 3),
            ev(2_600, EventKind::StageStart, 99, 0),
            ev(2_700, EventKind::StageEnd, 99, 5),
            ev(3_000, EventKind::StageStart, Stage::Eval as u64, 0),
            ev(3_500, EventKind::EvalCheckpoint, 256, 1),
        ]
    }

    #[test]
    fn stage_spans_are_rebased_paired_and_carry_their_diagnostics() {
        let span = |stage, start_ns, duration_ns, diags, finished| StageSpan {
            stage,
            start_ns,
            duration_ns,
            diags,
            finished,
        };
        assert_eq!(
            stage_spans(&unfinished_trace()),
            [
                span(Stage::Lex, 0, 400, 0, true),
                span(Stage::Elaborate, 500, 1_000, 3, true),
                span(Stage::Eval, 2_000, 500, 0, false),
            ],
            "rebased to the first event; stage 99 ignored; eval runs to the last event"
        );
        assert!(stage_spans(&[]).is_empty());
    }

    #[test]
    fn timing_table_lists_finished_stages_in_order_then_counters() {
        let table = timing_table(
            &unfinished_trace(),
            &[("core_nodes", 7), ("diagnostics", 3)],
        );
        assert_eq!(
            table,
            "stage              time       %   diags\n\
             lex             0.000ms   28.6%       0\n\
             elaborate       0.001ms   71.4%       3\n\
             total           0.001ms               3\n\
             --\n\
             core_nodes               7\n\
             diagnostics              3\n",
            "the unfinished eval stage has no row"
        );
        assert!(
            !timing_table(&[], &[]).contains("--"),
            "no counters, no separator"
        );
    }

    #[test]
    fn chrome_spans_show_the_unfinished_stage_the_table_leaves_out() {
        let spans = chrome_spans(&unfinished_trace());
        let named: Vec<(&str, &str, u64)> = spans
            .iter()
            .map(|s| (s.name.as_str(), s.cat, s.start_ns))
            .collect();
        assert_eq!(
            named,
            [
                ("lex", "stage", 0),
                ("elaborate", "stage", 500),
                ("goal", "event", 600),
                ("eval (unfinished)", "stage", 2_000),
                ("eval-checkpoint", "event", 2_500),
            ]
        );
    }

    #[test]
    fn extract_whole_reports_a_ring_that_overwrote_events() {
        let log = EventLog::with_capacity(4);
        let s = log.scope(1);
        for _ in 0..4 {
            s.record(EventKind::Goal, 0, 0);
        }
        assert_eq!(log.extract_whole(1).map(|e| e.len()), Ok(4));
        s.record(EventKind::Goal, 0, 0);
        let notice = log.extract_whole(1).unwrap_err();
        assert!(
            notice.contains("holds 4 events and overwrote the oldest 1 of the 5"),
            "{notice}"
        );
        assert_eq!(EventLog::off().extract_whole(1), Ok(Vec::new()));
    }
}
