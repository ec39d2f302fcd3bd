//! `tc-serve`: a fault-isolated compilation server over the pipeline.
//!
//! The driver compiles one program per process invocation; this crate
//! turns it into a **batch/server front end**: a stream of JSONL
//! requests (one JSON object per line, one program per request) is
//! compiled and evaluated on a fixed pool of worker threads, and each
//! request gets **exactly one** JSONL response — whatever happens
//! inside the pipeline. Four robustness mechanisms back that promise:
//!
//! - **Panic isolation.** Every request runs under `catch_unwind`
//!   ([`tc_driver::resilience::isolated`]); a panic — real bug or
//!   injected fault — becomes an `{"error":"internal"}` response and
//!   the worker thread lives on.
//! - **Deadlines.** `deadline_ms` arms a [`CancelToken`] at admission
//!   (queue wait counts against the budget). The token is polled at
//!   stage boundaries, inside the resolver's search loop, and inside
//!   the evaluator's fuel loop, so a deadline trips mid-stage and the
//!   request answers `{"error":"deadline"}` instead of hogging a
//!   worker.
//! - **Load shedding and graceful degradation.** Admission is a
//!   fixed-capacity queue: a full queue answers
//!   `{"error":"overloaded","retry_after_ms":...}` immediately. Under
//!   partial load the server degrades before it sheds — at ≥50%
//!   occupancy optional observability (explain traces and the
//!   evaluator profile) is dropped, while the flight recorder stays
//!   on; at ≥75% the resolution memo table is capped so memory stays
//!   bounded.
//! - **Deterministic fault injection.** A [`FaultPlan`] makes workers
//!   panic / stall / exhaust budgets at named pipeline sites, keyed by
//!   the request sequence number — the chaos suite replays the exact
//!   same failures every run.
//! - **Flight recorder with tail sampling.** With
//!   [`RecorderConfig::enabled`], every request records its pipeline
//!   events (stage boundaries, resolver goals, evaluator checkpoints,
//!   injected faults, cancellations) into a per-worker fixed-capacity
//!   [`EventLog`] ring under `trace_id = seq`. Most rings are simply
//!   overwritten; a request that turns out to be *anomalous* — errored,
//!   shed, deadline-exceeded, fault-injected, slower than
//!   [`RecorderConfig::latency_threshold_us`], or picked by 1-in-N head
//!   sampling — has its events extracted and **retained** after the
//!   fact (tail-based sampling: the keep/drop decision happens when the
//!   outcome is known, so anomalies are never lost to an up-front coin
//!   flip). `{"cmd":"dump"}` drains the retained set as one JSON line.
//!
//! # Request protocol
//!
//! One JSON object per line. Fields (all optional except `program`):
//!
//! | field         | type   | meaning                                        |
//! |---------------|--------|------------------------------------------------|
//! | `id`          | num/str| echoed on the response (default: line number)  |
//! | `cmd`         | str    | `"run"` (default), `"check"`, `"stats"`, `"dump"`, `"health"`, or `"watch"` (socket only) |
//! | `interval_ms` | num    | `watch` tick period (default 1000, min 10)     |
//! | `program`     | str    | Mini-Haskell source (required for `run`/`check`)|
//! | `deadline_ms` | num    | per-request deadline, admission to answer      |
//! | `prelude`     | bool   | splice the prelude (default true)              |
//! | `memoize`     | bool   | tabled resolution (default true)               |
//! | `share`       | bool   | dictionary sharing (default true)              |
//! | `lint`        | bool   | also run the lint pass (default false for `run`, true for `check`) |
//! | `check_laws`  | bool   | also run the Eq/Ord law harness (default false)|
//! | `explain`     | bool   | include the resolution explain-trace           |
//! | `stats`       | bool   | include pipeline stats in the response         |
//! | `fuel`, `max_depth`, `max_allocs` | num | evaluator budget overrides    |
//!
//! Responses are single-line JSON with `"status":"ok"` (outcome
//! `value` / `compile-errors` / `no-main` / `eval-error`) or
//! `"status":"error"` (`internal` / `deadline` / `overloaded` /
//! `bad-request`). Responses stream in **completion order**; match
//! them to requests by `id`.
//!
//! `{"cmd":"check"}` is the static-analysis product surface: the full
//! pipeline runs *without evaluating `main`* — parse, class env,
//! coherence (overlap / orphan / cycle, `L0008`–`L0010`), elaboration,
//! lint, and (with `check_laws`) the class-law harness (`L0011`) —
//! and the response carries every diagnostic as a structured object
//! (`code`, `severity`, `message`, byte span) plus an overall
//! `"ok"` verdict. Deadlines, shedding, and degradation apply exactly
//! as for `run`; the law harness reuses the request's warm resolve
//! cache, so `check_laws` costs one cheap extra elaboration, not a
//! cold resolution sweep.
//!
//! `{"cmd":"stats"}` answers with the fleet metrics snapshot: every
//! worker keeps a private [`MetricsRegistry`] (no contention on the
//! hot path beyond one mutex lock per request) and the snapshot merges
//! them all. The response also carries `uptime_ms`, per-worker request
//! counts (`workers`), and a `latency` object with p50/p90/p99 per
//! outcome class (`ok` / `internal` / `deadline` / `overloaded`),
//! interpolated from the log2-bucketed latency histograms.
//!
//! `{"cmd":"dump"}` is a barrier: admission waits for every in-flight
//! request to finish, then answers with the retained traces
//! (`traces`, sorted by `trace_id`) and clears the store. Because the
//! barrier drains the pipeline first, a dump after a deterministic
//! fault run always sees the same retained set.
//!
//! # Transports and the telemetry plane
//!
//! The same protocol runs over two transports sharing one admission
//! queue and worker pool:
//!
//! - **stdin** ([`serve`]): newline-delimited JSON in, completion-order
//!   responses out; the session ends at EOF.
//! - **socket** ([`serve_socket`]): a std-only [`std::net::TcpListener`]
//!   accepting many concurrent clients. Each connection gets a reader
//!   thread (admission); workers write answers straight to the admitting
//!   connection (ids never cross connections). A client that falls
//!   [`WRITE_TIMEOUT`] behind its answers, reading nothing or reading
//!   too slowly, is hung up; until then every worker holding one of
//!   its answers waits on it.
//!   Frames are lines; a frame split across TCP reads is reassembled by
//!   the buffered reader.
//!
//! Three telemetry surfaces ride on top:
//!
//! - `{"cmd":"health"}` — a cheap readiness/liveness probe: queue
//!   depth vs capacity, worker liveness, shed rate over the last
//!   [`SHED_WINDOW_SECS`] seconds, and the retained-trace backlog. It
//!   bypasses admission entirely (no queue push, no gate), so it
//!   answers in O(1) even when the queue is saturated. Available on
//!   both transports.
//! - `{"cmd":"watch","interval_ms":N}` — a streaming subscription
//!   (socket only): after an ack, the server pushes one tick line per
//!   interval carrying the fleet-snapshot *delta* since the previous
//!   tick ([`tc_trace::MetricsSnapshot::delta`] — counters as
//!   differences, histograms via differenced buckets) plus
//!   server-computed qps and p50/p99 per outcome class, queue
//!   occupancy, cache hit rate, and shed/fault counts. The first tick
//!   deltas from zero, so a consumer summing every tick holds the
//!   absolute fleet snapshot. The subscription ends when the client
//!   disconnects; the server reaps the ticker without wedging.
//! - **Access log** ([`ServeConfig::access_log`]): one JSONL record
//!   per request on the completion path — id, seq, outcome class,
//!   latency, trace-retention decision, worker — so every request
//!   leaves a greppable trail even when its flight-recorder trace is
//!   not retained. Shed and bad-request lines are logged too (with a
//!   null worker).
//!
//! # Allocation
//!
//! Compiling a request allocates and frees many small blocks: about
//! 15,600 per module_check request and 250 per small_run request, over
//! 97% of them at most 1,032 bytes. [`alloc::ThreadCache`] serves those
//! from per-thread free lists in front of [`std::alloc::System`], so
//! that churn stays off the C allocator; every other request goes
//! straight to `System`. The library never installs it: a server binary
//! names it as its `#[global_allocator]`, as the `run` example does.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use tc_driver::resilience::{self, FaultPlan};
use tc_driver::{
    check_source, lint_source, run_checked, Check, Options, Outcome, RunResult, CANCELLED_CODE,
};
use tc_eval::EvalError;
use tc_syntax::Severity;
use tc_trace::events::{
    outcome_name, OUTCOME_BAD_REQUEST, OUTCOME_DEADLINE, OUTCOME_INTERNAL, OUTCOME_OK,
    OUTCOME_OVERLOADED,
};
use tc_trace::{
    json, CancelToken, CounterId, Event, EventKind, EventLog, HistogramId, JsonWriter,
    MetricsRegistry, MetricsSnapshot,
};

pub mod alloc;
pub mod socket;

pub use socket::{serve_socket, SocketHandle, WRITE_TIMEOUT};

/// Memo-table cap applied under heavy load (≥75% queue occupancy).
const DEGRADED_CACHE_CAPACITY: usize = 256;

/// Length of the health probe's sliding shed-rate window, seconds.
pub const SHED_WINDOW_SECS: u64 = 10;

/// A client's output, shared by every thread that answers it: a
/// socket connection or the stdin session. Each line is one
/// `write_all` and flush under the lock, so lines never interleave;
/// after the first failed write, every line is dropped.
struct LineSink<W: ?Sized = dyn Write + Send> {
    broken: AtomicBool,
    out: Mutex<W>,
}

impl<W: Write> LineSink<W> {
    fn new(out: W) -> LineSink<W> {
        LineSink {
            broken: AtomicBool::new(false),
            out: Mutex::new(out),
        }
    }
}

impl<W: Write + ?Sized> LineSink<W> {
    /// Write one line; `false` if the sink is, or just became, broken.
    fn write_line(&self, mut line: String) -> bool {
        line.push('\n');
        let mut out = lock_unpoisoned(&self.out);
        let ok = !self.is_broken()
            && out
                .write_all(line.as_bytes())
                .and_then(|()| out.flush())
                .is_ok();
        if !ok {
            self.broken.store(true, Ordering::SeqCst);
        }
        ok
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }
}

/// A shared line-oriented sink for the per-request access log. Cloned
/// into every worker and admission thread; records are whole lines
/// written under one lock so they never interleave. Sink errors are
/// swallowed — observability must never take down serving.
#[derive(Clone)]
pub struct AccessLog {
    sink: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AccessLog(..)")
    }
}

impl AccessLog {
    /// Log to any line sink (a file, a Vec in tests, ...).
    pub fn to_writer(w: Box<dyn Write + Send>) -> AccessLog {
        AccessLog {
            sink: Arc::new(Mutex::new(w)),
        }
    }

    /// Open the conventional CLI spelling: a file path, or `-` for
    /// stderr (stdout carries responses).
    pub fn create(path: &str) -> std::io::Result<AccessLog> {
        if path == "-" {
            return Ok(AccessLog::to_writer(Box::new(std::io::stderr())));
        }
        Ok(AccessLog::to_writer(Box::new(std::fs::File::create(path)?)))
    }

    fn record(&self, line: &str) {
        let mut sink = lock_unpoisoned(&self.sink);
        let _ = writeln!(sink, "{line}");
        let _ = sink.flush();
    }
}

/// One JSONL access-log record: the completion-path summary of a
/// request. `worker` is `None` for requests that never reached the
/// pool (shed, bad-request); `retained` is the tail-sampler's reason
/// when the trace was kept.
fn access_line(
    id: &ReqId,
    seq: u64,
    t_ms: u64,
    outcome: u64,
    latency_us: u64,
    retained: Option<&'static str>,
    worker: Option<usize>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_id(&mut w, id);
    w.field_u64("seq", seq);
    w.field_u64("t_ms", t_ms);
    w.field_str("outcome", outcome_name(outcome));
    w.field_u64("latency_us", latency_us);
    match retained {
        Some(reason) => w.field_str("retained", reason),
        None => w.field_null("retained"),
    }
    match worker {
        Some(i) => w.field_u64("worker", i as u64),
        None => w.field_null("worker"),
    }
    w.end_object();
    w.finish()
}

/// A fixed ring of one-second buckets backing the health probe's
/// shed-rate-over-the-last-window report. Recording and reading are
/// O([`SHED_WINDOW_SECS`]) with one short lock — safe to touch from
/// every admission thread and from `health` even under overload.
struct ShedWindow {
    slots: Mutex<[ShedSlot; SHED_WINDOW_SECS as usize]>,
}

#[derive(Clone, Copy, Default)]
struct ShedSlot {
    /// Which second this slot currently holds counts for.
    epoch_sec: u64,
    admitted: u64,
    shed: u64,
}

impl ShedWindow {
    fn new() -> ShedWindow {
        ShedWindow {
            slots: Mutex::new([ShedSlot::default(); SHED_WINDOW_SECS as usize]),
        }
    }

    /// Count one admission decision in the current second's bucket.
    fn record(&self, now_sec: u64, shed: bool) {
        let mut slots = lock_unpoisoned(&self.slots);
        let slot = &mut slots[(now_sec % SHED_WINDOW_SECS) as usize];
        if slot.epoch_sec != now_sec {
            *slot = ShedSlot {
                epoch_sec: now_sec,
                admitted: 0,
                shed: 0,
            };
        }
        if shed {
            slot.shed += 1;
        } else {
            slot.admitted += 1;
        }
    }

    /// `(admitted, shed)` over the last [`SHED_WINDOW_SECS`] seconds.
    fn totals(&self, now_sec: u64) -> (u64, u64) {
        let slots = lock_unpoisoned(&self.slots);
        let floor = now_sec.saturating_sub(SHED_WINDOW_SECS - 1);
        slots
            .iter()
            .filter(|s| s.epoch_sec >= floor && s.epoch_sec <= now_sec)
            .fold((0, 0), |(a, s), slot| (a + slot.admitted, s + slot.shed))
    }
}

/// Flight-recorder configuration: off by default (the recorder is
/// zero-cost when off — every record site pays one branch and no
/// allocation, asserted by tests).
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Record pipeline events and tail-sample anomalous requests.
    pub enabled: bool,
    /// Per-worker event ring capacity (events, min 1). The ring is
    /// allocated once at startup and never grows.
    pub capacity: usize,
    /// Retain any request slower than this, microseconds
    /// (`u64::MAX` = never retain on latency alone).
    pub latency_threshold_us: u64,
    /// Head sampling: retain every Nth request regardless of outcome
    /// (0 = none). Keyed on the deterministic sequence number.
    pub sample_every: u64,
    /// Retained-trace store cap; beyond it new traces are counted as
    /// dropped instead of growing memory.
    pub max_retained: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            enabled: false,
            capacity: 4096,
            latency_threshold_us: u64::MAX,
            sample_every: 0,
            max_retained: 256,
        }
    }
}

/// The adaptive `retry_after_ms` hint for a shed response: scale the
/// configured base by the backlog each worker must clear first, so a
/// barely-full queue hints a short backoff and a deep one hints
/// proportionally longer. Pure — tested directly.
pub fn retry_after_hint(base_ms: u64, queue_depth: usize, workers: usize) -> u64 {
    let per_worker = (queue_depth as u64).div_ceil(workers.max(1) as u64);
    base_ms.saturating_mul(per_worker.max(1))
}

/// One tail-sampled request: the outcome that made it worth keeping
/// plus every event its trace recorded.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The request sequence number (`trace_id` in every event).
    pub trace_id: u64,
    /// Outcome-class code ([`outcome_name`]).
    pub outcome: u64,
    /// Why the tail sampler kept it: the error class, `"fault"`,
    /// `"slow"`, or `"sampled"`.
    pub reason: &'static str,
    pub latency_us: u64,
    pub events: Vec<Event>,
}

impl RetainedTrace {
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("trace_id", self.trace_id);
        w.field_str("outcome", outcome_name(self.outcome));
        w.field_str("reason", self.reason);
        w.field_u64("latency_us", self.latency_us);
        w.begin_array_field("events");
        for e in &self.events {
            e.write_json(w);
        }
        w.end_array();
        w.end_object();
    }
}

/// The bounded retained-trace store shared by admission and workers.
#[derive(Debug)]
struct RetainedStore {
    traces: Vec<RetainedTrace>,
    dropped: u64,
    max: usize,
}

/// Push a trace into the store; `false` means the store was full and
/// the trace was counted as dropped instead.
fn retain(store: &Mutex<RetainedStore>, t: RetainedTrace) -> bool {
    let mut st = lock_unpoisoned(store);
    if st.traces.len() < st.max {
        st.traces.push(t);
        true
    } else {
        st.dropped += 1;
        false
    }
}

/// The tail-sampling decision: keep this request's trace? Checked
/// *after* the outcome is known, from the outcome, the latency, the
/// sequence number and how many faults fired, so the ring is read only
/// for a trace that is kept. Returns the retention reason, or `None` to
/// let the ring overwrite the events.
fn retention_reason(
    rec: &RecorderConfig,
    seq: u64,
    outcome: u64,
    latency_us: u64,
    faults_injected: u64,
) -> Option<&'static str> {
    if !rec.enabled {
        return None;
    }
    if outcome != OUTCOME_OK {
        return Some(outcome_name(outcome));
    }
    if faults_injected > 0 {
        return Some("fault");
    }
    if latency_us >= rec.latency_threshold_us {
        return Some("slow");
    }
    if rec.sample_every > 0 && seq.is_multiple_of(rec.sample_every) {
        return Some("sampled");
    }
    None
}

/// The per-class latency histogram for an outcome code (`None` for
/// classes without one, e.g. bad requests that never ran).
fn latency_class(code: u64) -> Option<HistogramId> {
    match code {
        OUTCOME_OK => Some(HistogramId::ServeLatencyOkUs),
        OUTCOME_INTERNAL => Some(HistogramId::ServeLatencyInternalUs),
        OUTCOME_DEADLINE => Some(HistogramId::ServeLatencyDeadlineUs),
        OUTCOME_OVERLOADED => Some(HistogramId::ServeLatencyOverloadedUs),
        _ => None,
    }
}

/// Server configuration. [`ServeConfig::default`] is a sensible
/// interactive setup: a small pool, a 64-deep queue, no deadline, no
/// faults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Admission queue capacity; a full queue sheds (min 1).
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// The `retry_after_ms` hint sent with shed responses.
    pub retry_after_ms: u64,
    /// Deterministic fault injection plan (chaos testing).
    pub faults: Option<FaultPlan>,
    /// Flight-recorder / tail-sampling configuration.
    pub recorder: RecorderConfig,
    /// Per-request JSONL access log written on the completion path
    /// (`None` = no access logging).
    pub access_log: Option<AccessLog>,
    /// Base pipeline options; per-request fields override a copy.
    pub options: Options,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            queue_capacity: 64,
            default_deadline_ms: None,
            retry_after_ms: 50,
            faults: None,
            recorder: RecorderConfig::default(),
            access_log: None,
            options: Options::default(),
        }
    }
}

/// What one [`serve`] session did, for callers and tests. The
/// reconciliation invariant — every input line got exactly one
/// response — is `lines == responses + write_errors`.
#[derive(Debug, Default)]
pub struct ServeSummary {
    /// Non-empty input lines seen.
    pub lines: u64,
    /// Requests admitted to the worker queue.
    pub admitted: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Lines that failed to parse as requests.
    pub bad_requests: u64,
    /// `stats` commands answered.
    pub stats_requests: u64,
    /// `dump` commands answered.
    pub dump_requests: u64,
    /// `health` probes answered (they bypass admission and are not
    /// counted in `serve.requests`).
    pub health_requests: u64,
    /// `watch` subscriptions accepted (socket transport).
    pub watch_requests: u64,
    /// Responses successfully written.
    pub responses: u64,
    /// Responses dropped because the client's sink failed (a broken
    /// pipe, or a stalled socket), including the answers of jobs not
    /// run because their client was already gone; the server keeps
    /// draining.
    pub write_errors: u64,
    /// Merged fleet metrics (admission + every worker).
    pub fleet: MetricsRegistry,
    /// Tail-sampled traces still in the store at shutdown (whatever
    /// `dump` commands did not already drain), sorted by `trace_id`.
    pub retained: Vec<RetainedTrace>,
}

impl ServeSummary {
    /// Requests that completed `status:"ok"` (from the fleet metrics).
    pub fn ok(&self) -> u64 {
        self.fleet.counter(CounterId::ServeOk)
    }
    /// Requests answered `error:"internal"` (isolated panics).
    pub fn internal(&self) -> u64 {
        self.fleet.counter(CounterId::ServeErrInternal)
    }
    /// Requests answered `error:"deadline"`.
    pub fn deadline(&self) -> u64 {
        self.fleet.counter(CounterId::ServeErrDeadline)
    }
    /// Traces the tail sampler kept (including ones later drained by
    /// `dump`).
    pub fn traces_retained(&self) -> u64 {
        self.fleet.counter(CounterId::ServeTracesRetained)
    }
    /// Traces lost to the retained-store cap.
    pub fn traces_dropped(&self) -> u64 {
        self.fleet.counter(CounterId::ServeTracesDropped)
    }
}

/// A request id, echoed verbatim on the response. Requests without
/// one get their input line number.
#[derive(Debug, Clone)]
enum ReqId {
    Num(u64),
    Str(String),
    Seq(u64),
}

fn write_id(w: &mut JsonWriter, id: &ReqId) {
    match id {
        ReqId::Num(n) | ReqId::Seq(n) => w.field_u64("id", *n),
        ReqId::Str(s) => w.field_str("id", s),
    }
}

/// One admitted compilation job.
struct Job {
    id: ReqId,
    seq: u64,
    program: String,
    /// `cmd:"check"`: run the static passes only and answer with
    /// structured diagnostics instead of evaluating `main`.
    check: bool,
    lint: bool,
    explain: bool,
    want_stats: bool,
    deadline_ms: Option<u64>,
    opts: Options,
    token: Option<CancelToken>,
    degrade_traces: bool,
    degrade_cache: bool,
    admitted_at: Instant,
}

enum Parsed {
    Run(Box<Job>),
    Stats,
    Dump,
    Health,
    Watch { interval_ms: u64 },
}

/// Floor for `watch` tick periods: faster than this and the snapshot
/// merges themselves would become the load.
const MIN_WATCH_INTERVAL_MS: u64 = 10;

/// Lock a mutex, riding through poisoning: workers isolate panics
/// with `catch_unwind`, so a poisoned registry still holds coherent
/// counts.
fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn bool_field(v: &json::Value, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(json::Value::Null) => Ok(None),
        Some(json::Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("field `{key}` must be a boolean")),
    }
}

fn u64_field(v: &json::Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(json::Value::Null) => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

/// Parse one request line. The id comes back even on failure so the
/// error response can still be correlated.
fn parse_request(line: &str, seq: u64, base: &Options) -> (ReqId, Result<Parsed, String>) {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (ReqId::Seq(seq), Err(format!("malformed JSON: {e}"))),
    };
    let id = match v.get("id") {
        Some(json::Value::Str(s)) => ReqId::Str(s.clone()),
        Some(other) => match other.as_u64() {
            Some(n) => ReqId::Num(n),
            None => ReqId::Seq(seq),
        },
        None => ReqId::Seq(seq),
    };
    if v.as_object().is_none() {
        return (id, Err("request must be a JSON object".to_string()));
    }
    let cmd = match v.get("cmd") {
        None => "run",
        Some(json::Value::Str(s)) => s.as_str(),
        Some(_) => return (id, Err("field `cmd` must be a string".to_string())),
    };
    match cmd {
        "stats" => (id, Ok(Parsed::Stats)),
        "dump" => (id, Ok(Parsed::Dump)),
        "health" => (id, Ok(Parsed::Health)),
        "watch" => match u64_field(&v, "interval_ms") {
            Ok(ms) => (
                id,
                Ok(Parsed::Watch {
                    interval_ms: ms.unwrap_or(1000).max(MIN_WATCH_INTERVAL_MS),
                }),
            ),
            Err(e) => (id, Err(e)),
        },
        "run" | "check" => {
            let check = cmd == "check";
            let spec = (|| {
                let program = match v.get("program") {
                    Some(json::Value::Str(s)) => s.clone(),
                    Some(_) => return Err("field `program` must be a string".to_string()),
                    None => return Err("missing `program`".to_string()),
                };
                let mut opts = base.clone();
                if let Some(b) = bool_field(&v, "prelude")? {
                    opts.use_prelude = b;
                }
                if let Some(b) = bool_field(&v, "memoize")? {
                    opts.memoize_resolution = b;
                }
                if let Some(b) = bool_field(&v, "share")? {
                    opts.share_dictionaries = b;
                }
                if let Some(b) = bool_field(&v, "check_laws")? {
                    opts.check_laws = b;
                }
                let explain = bool_field(&v, "explain")?.unwrap_or(false);
                if explain {
                    opts.trace_resolution = true;
                }
                if let Some(n) = u64_field(&v, "fuel")? {
                    opts.budget.fuel = n;
                }
                if let Some(n) = u64_field(&v, "max_depth")? {
                    opts.budget.max_depth = n as usize;
                }
                if let Some(n) = u64_field(&v, "max_allocs")? {
                    opts.budget.max_allocs = n;
                }
                Ok(Job {
                    id: id.clone(),
                    seq,
                    program,
                    check,
                    // `check` is the static-analysis surface, so the
                    // lint pass defaults on there.
                    lint: bool_field(&v, "lint")?.unwrap_or(check),
                    explain,
                    want_stats: bool_field(&v, "stats")?.unwrap_or(false),
                    deadline_ms: u64_field(&v, "deadline_ms")?,
                    opts,
                    token: None,
                    degrade_traces: false,
                    degrade_cache: false,
                    admitted_at: Instant::now(),
                })
            })();
            match spec {
                Ok(job) => (id, Ok(Parsed::Run(Box::new(job)))),
                Err(e) => (id, Err(e)),
            }
        }
        other => (id, Err(format!("unknown command `{other}`"))),
    }
}

fn error_response(id: &ReqId, class: &str, detail: &str, retry_after_ms: Option<u64>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_id(&mut w, id);
    w.field_str("status", "error");
    w.field_str("error", class);
    w.field_str("detail", detail);
    if let Some(ms) = retry_after_ms {
        w.field_u64("retry_after_ms", ms);
    }
    w.end_object();
    w.finish()
}

/// Build the `status:"ok"` response for a finished run.
fn ok_response(job: &Job, r: &RunResult, latency_us: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_id(&mut w, &job.id);
    w.field_str("status", "ok");
    match &r.outcome {
        Outcome::Value(v) => {
            w.field_str("outcome", "value");
            w.field_str("value", v);
            w.field_null("detail");
        }
        Outcome::CompileErrors => {
            w.field_str("outcome", "compile-errors");
            w.field_null("value");
            w.field_str("detail", &r.check.render_diagnostics());
        }
        Outcome::NoMain => {
            w.field_str("outcome", "no-main");
            w.field_null("value");
            w.field_null("detail");
        }
        Outcome::Eval(e) => {
            w.field_str("outcome", "eval-error");
            w.field_null("value");
            w.field_str("detail", &e.to_string());
            w.field_str("code", e.code());
            if let Some(b) = e.budget() {
                w.begin_object_field("budget");
                match &b.binding {
                    Some(name) => w.field_str("binding", name),
                    None => w.field_null("binding"),
                }
                w.field_u64("fuel_left", b.fuel_left);
                w.field_u64("allocs_left", b.allocs_left);
                w.field_u64("depth", b.depth as u64);
                w.end_object();
            }
        }
    }
    if job.explain && !job.degrade_traces {
        match r.check.render_explain() {
            Some(t) => w.field_str("explain", &t),
            None => w.field_null("explain"),
        }
    }
    if job.want_stats {
        w.begin_object_field("stats");
        r.check.stats.write_json(&mut w);
        w.end_object();
    }
    if job.degrade_traces || job.degrade_cache {
        w.begin_array_field("degraded");
        if job.degrade_traces {
            w.elem_str("traces");
        }
        if job.degrade_cache {
            w.elem_str("cache");
        }
        w.end_array();
    }
    w.field_u64("latency_us", latency_us);
    w.end_object();
    w.finish()
}

/// Build the `status:"ok"` response for a `cmd:"check"` job: the
/// overall verdict plus every diagnostic as a structured object, so
/// machine consumers never have to parse rendered text.
fn check_response(job: &Job, c: &Check, latency_us: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_id(&mut w, &job.id);
    w.field_str("status", "ok");
    w.field_str("cmd", "check");
    w.field_bool("ok", c.ok());
    w.begin_array_field("diagnostics");
    for d in c.diags.iter() {
        w.begin_object();
        w.field_str("code", d.code);
        w.field_str(
            "severity",
            match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            },
        );
        w.field_str("message", &d.message);
        w.field_u64("start", u64::from(d.span.start));
        w.field_u64("end", u64::from(d.span.end));
        w.end_object();
    }
    w.end_array();
    if job.want_stats {
        w.begin_object_field("stats");
        c.stats.write_json(&mut w);
        w.end_object();
    }
    if job.degrade_traces || job.degrade_cache {
        w.begin_array_field("degraded");
        if job.degrade_traces {
            w.elem_str("traces");
        }
        if job.degrade_cache {
            w.elem_str("cache");
        }
        w.end_array();
    }
    w.field_u64("latency_us", latency_us);
    w.end_object();
    w.finish()
}

/// Did compilation get cut short by its deadline? Either the driver
/// stopped the pipeline at a stage boundary (`E0430`) or the
/// resolver's in-flight poll tripped (`E0423`).
fn compile_cancelled(c: &Check) -> bool {
    c.diags
        .iter()
        .any(|d| d.code == CANCELLED_CODE || d.code == "E0423")
}

/// Did this run die of its deadline (rather than finishing or hitting
/// an ordinary error)? Either compilation was cut short, or the
/// evaluator's fuel-loop poll tripped.
fn deadline_hit(r: &RunResult) -> bool {
    matches!(r.outcome, Outcome::Eval(EvalError::Cancelled(_))) || compile_cancelled(&r.check)
}

/// A finished job, either flavor.
enum Done {
    Run(RunResult),
    Check(Check),
}

/// Classify a finished job's outcome and build its response line.
fn classify(job: &Job, outcome: Result<Done, String>, latency_us: u64) -> (u64, String) {
    match outcome {
        Err(panic_msg) => (
            OUTCOME_INTERNAL,
            error_response(&job.id, "internal", &panic_msg, None),
        ),
        Ok(Done::Run(r)) if deadline_hit(&r) => (
            OUTCOME_DEADLINE,
            error_response(&job.id, "deadline", "deadline exceeded", None),
        ),
        Ok(Done::Check(c)) if compile_cancelled(&c) => (
            OUTCOME_DEADLINE,
            error_response(&job.id, "deadline", "deadline exceeded", None),
        ),
        Ok(Done::Run(r)) => (OUTCOME_OK, ok_response(job, &r, latency_us)),
        Ok(Done::Check(c)) => (OUTCOME_OK, check_response(job, &c, latency_us)),
    }
}

/// Per-session tallies, shared by every admission thread (stdin has
/// one; the socket transport has one per connection).
#[derive(Debug, Default)]
struct Tally {
    lines: u64,
    admitted: u64,
    shed: u64,
    bad_requests: u64,
    stats_requests: u64,
    dump_requests: u64,
    health_requests: u64,
    watch_requests: u64,
}

/// The per-outcome-class watch rate rows: response counter, latency
/// histogram, and class label, in protocol order.
const WATCH_CLASSES: [(CounterId, HistogramId, &str); 4] = [
    (CounterId::ServeOk, HistogramId::ServeLatencyOkUs, "ok"),
    (
        CounterId::ServeErrInternal,
        HistogramId::ServeLatencyInternalUs,
        "internal",
    ),
    (
        CounterId::ServeErrDeadline,
        HistogramId::ServeLatencyDeadlineUs,
        "deadline",
    ),
    (
        CounterId::ServeErrOverloaded,
        HistogramId::ServeLatencyOverloadedUs,
        "overloaded",
    ),
];

/// The transport-independent server: admission queue, worker pool
/// state, fleet metrics, flight recorder, and the telemetry plane's
/// shared counters. Both the stdin session ([`serve`]) and the socket
/// listener ([`serve_socket`]) drive one of these; the socket
/// transport wraps it in an [`Arc`] so reader, worker, and ticker
/// threads all see the same server.
struct Core {
    cfg: ServeConfig,
    workers: usize,
    cap: usize,
    queue: Queue,
    gate: Gate,
    worker_regs: Vec<Mutex<MetricsRegistry>>,
    worker_logs: Vec<EventLog>,
    admission_reg: Mutex<MetricsRegistry>,
    admission_log: EventLog,
    store: Mutex<RetainedStore>,
    tally: Mutex<Tally>,
    shed_window: ShedWindow,
    started: Instant,
    /// Global arrival-order sequence numbers. A single sequential
    /// client therefore sees the same seqs over the socket as over
    /// stdin — which is what makes seeded fault runs replay
    /// identically across transports.
    seq: AtomicU64,
    responses: AtomicU64,
    write_errors: AtomicU64,
    active_connections: AtomicU64,
    workers_alive: AtomicU64,
    transport: &'static str,
}

impl Core {
    fn new(cfg: &ServeConfig, transport: &'static str) -> Core {
        let workers = cfg.workers.max(1);
        let event_log = |enabled: bool| {
            if enabled {
                EventLog::with_capacity(cfg.recorder.capacity)
            } else {
                EventLog::off()
            }
        };
        Core {
            workers,
            cap: cfg.queue_capacity.max(1),
            queue: Queue::new(),
            gate: Gate::new(),
            worker_regs: (0..workers)
                .map(|_| Mutex::new(MetricsRegistry::new()))
                .collect(),
            // One event ring per worker (a worker records one request
            // at a time, so rings never mix concurrent traces) plus
            // one for admission-side synthesized traces.
            worker_logs: (0..workers)
                .map(|_| event_log(cfg.recorder.enabled))
                .collect(),
            admission_reg: Mutex::new(MetricsRegistry::new()),
            admission_log: event_log(cfg.recorder.enabled),
            store: Mutex::new(RetainedStore {
                traces: Vec::new(),
                dropped: 0,
                max: cfg.recorder.max_retained.max(1),
            }),
            tally: Mutex::new(Tally::default()),
            shed_window: ShedWindow::new(),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            workers_alive: AtomicU64::new(workers as u64),
            cfg: cfg.clone(),
            transport,
        }
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn now_sec(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Merged fleet registry: admission plus every worker.
    fn fleet(&self) -> MetricsRegistry {
        let mut fleet = MetricsRegistry::new();
        fleet.merge(&lock_unpoisoned(&self.admission_reg));
        for reg in &self.worker_regs {
            fleet.merge(&lock_unpoisoned(reg));
        }
        fleet
    }

    /// The worker thread body: pop, process, and write the response to
    /// the admitting client's sink. A job whose client has already been
    /// hung up (its sink is broken) is not processed.
    ///
    /// `workers_alive` starts at the configured pool size (so a
    /// health probe racing worker startup still reads full liveness)
    /// and is decremented by a drop guard — a worker dying any way at
    /// all, including an unexpected unwinding panic, is counted out.
    fn worker_loop(&self, idx: usize) {
        struct Alive<'a>(&'a AtomicU64);
        impl Drop for Alive<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _alive = Alive(&self.workers_alive);
        while let Some((job, sink)) = self.queue.pop() {
            if sink.is_broken() {
                // The client is gone, so the answer could only be
                // dropped: skip the work too, and count the answer as
                // the write error it would have been.
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            } else {
                let resp = self.process(job, idx);
                self.reply(&sink, resp);
            }
            self.gate.exit();
        }
    }

    /// Write one line to a client and count it as a response, or (the
    /// client being gone) as a write error.
    fn reply(&self, sink: &LineSink, line: String) {
        let counter = if sink.write_line(line) {
            &self.responses
        } else {
            &self.write_errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Write one access-log record, if an access log is configured.
    fn access(
        &self,
        id: &ReqId,
        seq: u64,
        outcome: u64,
        latency_us: u64,
        retained: Option<&'static str>,
        worker: Option<usize>,
    ) {
        if let Some(log) = &self.cfg.access_log {
            log.record(&access_line(
                id,
                seq,
                self.uptime_ms(),
                outcome,
                latency_us,
                retained,
                worker,
            ));
        }
    }

    /// A transport's reader: admit every request line of `input` until
    /// EOF, a read error, or a broken sink. A `watch` subscription goes
    /// to `watch`, because only the transport knows whether it can
    /// stream (socket spawns a ticker, stdin rejects).
    fn admit_all(
        &self,
        mut input: impl BufRead,
        sink: &Arc<LineSink>,
        mut watch: impl FnMut(ReqId, u64),
    ) {
        let mut line = String::new();
        while !sink.is_broken() {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                self.handle_line(trimmed, sink, &mut watch);
            }
        }
    }

    /// Admit one request line: parse, classify, and either answer it
    /// directly on `sink` (errors, stats, dump, health), queue it with
    /// the sink for the pool (run/check), or hand a `watch`
    /// subscription to the transport.
    fn handle_line(&self, trimmed: &str, sink: &Arc<LineSink>, watch: &mut impl FnMut(ReqId, u64)) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        lock_unpoisoned(&self.tally).lines += 1;
        let (id, parsed) = parse_request(trimmed, seq, &self.cfg.options);
        // Health is a probe, not a request: it bypasses admission and
        // stays out of `serve.requests` so probing a saturated server
        // does not disturb its counters.
        if !matches!(parsed, Ok(Parsed::Health)) {
            lock_unpoisoned(&self.admission_reg).incr(CounterId::ServeRequests);
        }
        match parsed {
            Err(msg) => {
                lock_unpoisoned(&self.tally).bad_requests += 1;
                lock_unpoisoned(&self.admission_reg).incr(CounterId::ServeErrBadRequest);
                let kept = self.synth_trace(seq, OUTCOME_BAD_REQUEST, None);
                self.access(&id, seq, OUTCOME_BAD_REQUEST, 0, kept, None);
                self.reply(sink, error_response(&id, "bad-request", &msg, None));
            }
            Ok(Parsed::Stats) => {
                lock_unpoisoned(&self.tally).stats_requests += 1;
                self.reply(sink, self.stats_response(&id));
            }
            Ok(Parsed::Dump) => {
                lock_unpoisoned(&self.tally).dump_requests += 1;
                // Barrier: wait out every in-flight request so the
                // drained set is complete and (under a fault seed)
                // deterministic.
                self.gate.wait_idle();
                self.reply(sink, self.dump_response(&id));
            }
            Ok(Parsed::Health) => {
                lock_unpoisoned(&self.tally).health_requests += 1;
                self.reply(sink, self.health_response(&id));
            }
            Ok(Parsed::Watch { interval_ms }) => watch(id, interval_ms),
            Ok(Parsed::Run(mut job)) => {
                let depth = self.queue.depth();
                let mut reg = lock_unpoisoned(&self.admission_reg);
                reg.observe(HistogramId::ServeQueueDepth, depth as u64);
                if depth >= self.cap {
                    reg.incr(CounterId::ServeErrOverloaded);
                    reg.observe(HistogramId::ServeLatencyOverloadedUs, 0);
                    drop(reg);
                    lock_unpoisoned(&self.tally).shed += 1;
                    self.shed_window.record(self.now_sec(), true);
                    let hint = retry_after_hint(self.cfg.retry_after_ms, depth, self.workers);
                    let kept = self.synth_trace(
                        seq,
                        OUTCOME_OVERLOADED,
                        Some((EventKind::Shed, depth as u64, hint)),
                    );
                    self.access(&id, seq, OUTCOME_OVERLOADED, 0, kept, None);
                    self.reply(
                        sink,
                        error_response(&id, "overloaded", "admission queue is full", Some(hint)),
                    );
                    return;
                }
                drop(reg);
                self.shed_window.record(self.now_sec(), false);
                // Degrade *before* shedding: at half occupancy the
                // pool is behind, so optional observability goes
                // first; at three quarters, cap the memo table too.
                job.degrade_traces = depth * 2 >= self.cap;
                job.degrade_cache = depth * 4 >= self.cap * 3;
                job.admitted_at = Instant::now();
                job.token = job
                    .deadline_ms
                    .or(self.cfg.default_deadline_ms)
                    .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
                lock_unpoisoned(&self.tally).admitted += 1;
                self.gate.enter();
                self.queue.push(*job, Arc::clone(sink));
            }
        }
    }

    /// The `stats` response: uptime, transport, per-worker counts,
    /// per-class latency quantiles, and the full fleet snapshot.
    fn stats_response(&self, id: &ReqId) -> String {
        let fleet = self.fleet();
        let mut w = JsonWriter::new();
        w.begin_object();
        write_id(&mut w, id);
        w.field_str("status", "ok");
        w.field_str("cmd", "stats");
        w.field_u64("uptime_ms", self.uptime_ms());
        w.field_str("transport", self.transport);
        w.field_u64(
            "active_connections",
            self.active_connections.load(Ordering::SeqCst),
        );
        w.begin_array_field("workers");
        for reg in &self.worker_regs {
            w.elem_u64(lock_unpoisoned(reg).counter(CounterId::ServeProcessed));
        }
        w.end_array();
        w.begin_object_field("latency");
        for (hid, class) in HistogramId::LATENCY_CLASSES {
            w.begin_object_field(class);
            let h = fleet.histogram(hid);
            w.field_u64("count", h.map_or(0, |h| h.count));
            for (key, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                match h.and_then(|h| h.quantile(q)) {
                    Some(v) => w.field_f64(key, v, 1),
                    None => w.field_null(key),
                }
            }
            w.end_object();
        }
        w.end_object();
        w.begin_object_field("fleet");
        fleet.write_json(&mut w);
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// The `dump` response: drain and clear the retained-trace store.
    /// Call [`Gate::wait_idle`] first — the barrier is what makes the
    /// drained set complete.
    fn dump_response(&self, id: &ReqId) -> String {
        let (mut traces, dropped) = {
            let mut st = lock_unpoisoned(&self.store);
            (std::mem::take(&mut st.traces), st.dropped)
        };
        traces.sort_by_key(|t| t.trace_id);
        let mut w = JsonWriter::new();
        w.begin_object();
        write_id(&mut w, id);
        w.field_str("status", "ok");
        w.field_str("cmd", "dump");
        w.field_u64("retained", traces.len() as u64);
        w.field_u64("dropped", dropped);
        w.begin_array_field("traces");
        for t in &traces {
            t.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The `health` response. Deliberately O(1): a queue-depth read,
    /// a few atomics, the shed window, and the store length — no
    /// admission, no gate, no fleet merge — so it answers promptly
    /// even when the admission queue is saturated.
    fn health_response(&self, id: &ReqId) -> String {
        let depth = self.queue.depth();
        let alive = self.workers_alive.load(Ordering::SeqCst);
        let (admitted, shed) = self.shed_window.totals(self.now_sec());
        let (backlog, trace_cap, dropped) = {
            let st = lock_unpoisoned(&self.store);
            (st.traces.len() as u64, st.max as u64, st.dropped)
        };
        let accepting = depth < self.cap;
        let mut w = JsonWriter::new();
        w.begin_object();
        write_id(&mut w, id);
        w.field_str("status", "ok");
        w.field_str("cmd", "health");
        w.field_bool("healthy", alive > 0 && accepting);
        w.field_str("transport", self.transport);
        w.field_u64("uptime_ms", self.uptime_ms());
        w.begin_object_field("queue");
        w.field_u64("depth", depth as u64);
        w.field_u64("capacity", self.cap as u64);
        w.field_bool("accepting", accepting);
        w.end_object();
        w.begin_object_field("workers");
        w.field_u64("configured", self.workers as u64);
        w.field_u64("alive", alive);
        w.end_object();
        w.begin_object_field("shed_window");
        w.field_u64("seconds", SHED_WINDOW_SECS);
        w.field_u64("admitted", admitted);
        w.field_u64("shed", shed);
        let decisions = admitted + shed;
        w.field_f64(
            "shed_rate_pct",
            if decisions == 0 {
                0.0
            } else {
                shed as f64 * 100.0 / decisions as f64
            },
            1,
        );
        w.end_object();
        w.begin_object_field("traces");
        w.field_u64("retained_backlog", backlog);
        w.field_u64("capacity", trace_cap);
        w.field_u64("dropped", dropped);
        w.end_object();
        w.field_u64(
            "active_connections",
            self.active_connections.load(Ordering::SeqCst),
        );
        w.end_object();
        w.finish()
    }

    /// The ack line confirming a `watch` subscription.
    fn watch_ack(&self, id: &ReqId, interval_ms: u64) -> String {
        lock_unpoisoned(&self.tally).watch_requests += 1;
        let mut w = JsonWriter::new();
        w.begin_object();
        write_id(&mut w, id);
        w.field_str("status", "ok");
        w.field_str("cmd", "watch");
        w.field_u64("interval_ms", interval_ms);
        w.field_bool("streaming", true);
        w.end_object();
        w.finish()
    }

    /// One `watch` tick: the fleet-snapshot delta since `prev` plus
    /// server-computed rates over the window. Returns the tick line
    /// and the new absolute snapshot to difference against next time.
    /// The first tick differences against the zero snapshot, so the
    /// sum of every tick's delta *is* the absolute fleet snapshot —
    /// the reconciliation invariant the acceptance tests check.
    fn watch_tick(
        &self,
        id: &ReqId,
        tick: u64,
        window_ms: u64,
        prev: &MetricsSnapshot,
    ) -> (String, MetricsSnapshot) {
        let now = self.fleet().snapshot();
        let delta = now.delta(prev);
        let window_s = window_ms.max(1) as f64 / 1000.0;
        let mut w = JsonWriter::new();
        w.begin_object();
        write_id(&mut w, id);
        w.field_str("cmd", "watch");
        w.field_u64("tick", tick);
        w.field_u64("window_ms", window_ms);
        w.field_u64("uptime_ms", self.uptime_ms());
        w.begin_object_field("queue");
        w.field_u64("depth", self.queue.depth() as u64);
        w.field_u64("capacity", self.cap as u64);
        w.end_object();
        w.field_u64(
            "active_connections",
            self.active_connections.load(Ordering::SeqCst),
        );
        w.field_f64(
            "qps",
            delta.counter(CounterId::ServeRequests) as f64 / window_s,
            2,
        );
        w.begin_object_field("classes");
        for (cid, hid, class) in WATCH_CLASSES {
            w.begin_object_field(class);
            let n = delta.counter(cid);
            w.field_u64("count", n);
            w.field_f64("rps", n as f64 / window_s, 2);
            for (key, q) in [("p50", 0.5), ("p99", 0.99)] {
                match delta.histogram(hid).quantile(q) {
                    Some(v) => w.field_f64(key, v, 1),
                    None => w.field_null(key),
                }
            }
            w.end_object();
        }
        w.end_object();
        let hits = delta.counter(CounterId::ResolveCacheHits);
        let misses = delta.counter(CounterId::ResolveCacheMisses);
        w.begin_object_field("cache");
        w.field_u64("hits", hits);
        w.field_u64("misses", misses);
        let lookups = hits + misses;
        w.field_f64(
            "hit_rate_pct",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 * 100.0 / lookups as f64
            },
            1,
        );
        w.end_object();
        w.field_u64("shed", delta.counter(CounterId::ServeErrOverloaded));
        w.field_u64("faults", delta.counter(CounterId::ServeFaultsInjected));
        w.begin_object_field("delta");
        delta.write_json(&mut w);
        w.end_object();
        w.end_object();
        (w.finish(), now)
    }

    /// Synthesize and retain a minimal trace for a request that never
    /// reached a worker (shed at admission, or unparseable), so
    /// *every* anomalous request has a retained trace, not just the
    /// ones that ran. Returns the retention reason if the store kept
    /// it.
    fn synth_trace(
        &self,
        seq: u64,
        outcome: u64,
        cause: Option<(EventKind, u64, u64)>,
    ) -> Option<&'static str> {
        if !self.cfg.recorder.enabled {
            return None;
        }
        let scope = self.admission_log.scope(seq);
        scope.record(EventKind::RequestStart, seq, 0);
        if let Some((kind, a0, a1)) = cause {
            scope.record(kind, a0, a1);
        }
        scope.record(EventKind::RequestEnd, outcome, 0);
        let reason = outcome_name(outcome);
        let kept = retain(
            &self.store,
            RetainedTrace {
                trace_id: seq,
                outcome,
                reason,
                latency_us: 0,
                events: self.admission_log.extract(seq),
            },
        );
        lock_unpoisoned(&self.admission_reg).incr(if kept {
            CounterId::ServeTracesRetained
        } else {
            CounterId::ServeTracesDropped
        });
        kept.then_some(reason)
    }

    /// Process one admitted job on a worker: apply degradation, arm
    /// faults, run the pipeline under panic isolation (recording its
    /// events under `trace_id = seq`), classify, record metrics and
    /// the access-log record, make the tail-sampling decision, and
    /// return the single response line.
    fn process(&self, mut job: Job, worker_idx: usize) -> String {
        let cfg = &self.cfg;
        let reg = &self.worker_regs[worker_idx];
        let log = &self.worker_logs[worker_idx];
        let scope = log.scope(job.seq);
        scope.record(
            EventKind::RequestStart,
            job.seq,
            job.admitted_at.elapsed().as_micros() as u64,
        );
        {
            let mut m = lock_unpoisoned(reg);
            m.incr(CounterId::ServeProcessed);
            if job.degrade_traces {
                m.incr(CounterId::ServeDegradedTraces);
            }
            if job.degrade_cache {
                m.incr(CounterId::ServeDegradedCache);
            }
        }
        if job.degrade_traces {
            // Shed optional observability first: correctness of the
            // answer is untouched, only explain/profile detail is
            // lost. The flight recorder stays on — it is the
            // instrument that explains exactly these degraded
            // requests.
            job.opts.trace_resolution = false;
            job.opts.profile_eval = false;
        }
        if job.degrade_cache {
            job.opts.cache_capacity = Some(DEGRADED_CACHE_CAPACITY);
        }
        job.opts.cancel = job.token.clone();
        job.opts.events = scope.clone();
        let faults = cfg
            .faults
            .as_ref()
            .map(|p| p.for_request(job.seq))
            .unwrap_or_default();
        job.opts.faults = faults.clone();

        // A deadline that expired while the job sat in the queue:
        // answer without burning any pipeline work.
        let (code, resp, injected) = if job.token.as_ref().is_some_and(|t| t.is_cancelled()) {
            let resp = error_response(
                &job.id,
                "deadline",
                "deadline expired before compilation started",
                None,
            );
            (OUTCOME_DEADLINE, resp, 0)
        } else {
            let outcome = resilience::isolated(|| {
                let check = if job.lint {
                    lint_source(&job.program, &job.opts)
                } else {
                    check_source(&job.program, &job.opts)
                };
                if job.check {
                    // Static surface: stop after the analysis passes;
                    // `main` (if any) is never evaluated.
                    Done::Check(check)
                } else {
                    Done::Run(run_checked(check, &job.opts))
                }
            });
            let latency_us = job.admitted_at.elapsed().as_micros() as u64;
            let (code, resp) = classify(&job, outcome, latency_us);
            (code, resp, faults.injected())
        };

        let latency_us = job.admitted_at.elapsed().as_micros() as u64;
        scope.record(EventKind::RequestEnd, code, latency_us);

        // Tail sampling: now that the outcome is known, decide
        // whether this request's events are worth keeping.
        let kept =
            retention_reason(&cfg.recorder, job.seq, code, latency_us, injected).map(|reason| {
                let stored = retain(
                    &self.store,
                    RetainedTrace {
                        trace_id: job.seq,
                        outcome: code,
                        reason,
                        latency_us,
                        events: log.extract(job.seq),
                    },
                );
                (reason, stored)
            });

        self.access(
            &job.id,
            job.seq,
            code,
            latency_us,
            kept.and_then(|(reason, stored)| stored.then_some(reason)),
            Some(worker_idx),
        );

        let mut m = lock_unpoisoned(reg);
        m.add(CounterId::ServeFaultsInjected, injected);
        m.observe(HistogramId::ServeLatencyUs, latency_us);
        if let Some(h) = latency_class(code) {
            m.observe(h, latency_us);
        }
        match code {
            OUTCOME_INTERNAL => m.incr(CounterId::ServeErrInternal),
            OUTCOME_DEADLINE => m.incr(CounterId::ServeErrDeadline),
            _ => m.incr(CounterId::ServeOk),
        }
        match kept {
            Some((_, true)) => m.incr(CounterId::ServeTracesRetained),
            Some((_, false)) => m.incr(CounterId::ServeTracesDropped),
            None => {}
        }
        resp
    }

    /// Fold the session into a [`ServeSummary`], draining whatever the
    /// retained store still holds.
    fn summary(&self) -> ServeSummary {
        let t = lock_unpoisoned(&self.tally);
        let mut summary = ServeSummary {
            lines: t.lines,
            admitted: t.admitted,
            shed: t.shed,
            bad_requests: t.bad_requests,
            stats_requests: t.stats_requests,
            dump_requests: t.dump_requests,
            health_requests: t.health_requests,
            watch_requests: t.watch_requests,
            responses: self.responses.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            fleet: self.fleet(),
            retained: Vec::new(),
        };
        drop(t);
        let mut st = lock_unpoisoned(&self.store);
        summary.retained = std::mem::take(&mut st.traces);
        summary.retained.sort_by_key(|t| t.trace_id);
        summary
    }
}

/// In-flight request gate: admission increments before pushing a job,
/// the worker decrements after the response *and* the tail-sampling
/// decision are out. `dump` waits on zero, making it a barrier — the
/// retained set it drains is complete for everything admitted before
/// it.
struct Gate {
    count: Mutex<u64>,
    zero: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    fn enter(&self) {
        *lock_unpoisoned(&self.count) += 1;
    }

    fn exit(&self) {
        let mut n = lock_unpoisoned(&self.count);
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut n = lock_unpoisoned(&self.count);
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Bounded MPMC job queue: admission pushes (never blocks — the
/// caller sheds on full), workers block on pop until closed + empty.
/// Each job carries the sink of the connection (or stdin session)
/// that admitted it, so responses reach the right client no matter
/// which worker finishes them.
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<(Job, Arc<LineSink>)>,
    closed: bool,
}

impl Queue {
    fn new() -> Queue {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Current depth (for admission decisions and the depth metric).
    fn depth(&self) -> usize {
        lock_unpoisoned(&self.state).jobs.len()
    }

    fn push(&self, job: Job, sink: Arc<LineSink>) {
        lock_unpoisoned(&self.state).jobs.push_back((job, sink));
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<(Job, Arc<LineSink>)> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Keep *injected* panics (recognizable `tc-fault:` payloads) off
/// stderr — the chaos suite fires hundreds — while real panics keep
/// the default hook's full report. Installed once per process.
fn install_fault_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !resilience::is_injected_panic(info.payload()) {
                prev(info);
            }
        }));
    });
}

/// Run the serve loop: read JSONL requests from `input` until EOF,
/// answer every one of them on `output` (completion order), then
/// drain the queue, join the pool, and return the session summary.
///
/// The calling thread does admission; `cfg.workers` scoped threads
/// compile and write each answer straight to `output`, whole lines
/// under one lock, so response lines never interleave.
pub fn serve<R: BufRead, W: Write + Send + 'static>(
    input: R,
    output: W,
    cfg: &ServeConfig,
) -> ServeSummary {
    serve_to(input, Arc::new(LineSink::new(output)), cfg)
}

fn serve_to(input: impl BufRead, sink: Arc<LineSink>, cfg: &ServeConfig) -> ServeSummary {
    install_fault_panic_hook();
    let core = Core::new(cfg, "stdin");
    std::thread::scope(|s| {
        let core = &core;
        for i in 0..core.workers {
            s.spawn(move || core.worker_loop(i));
        }
        core.admit_all(input, &sink, |id, _| {
            // Streaming needs a connection to stream to; on the
            // one-shot stdin transport it is a bad request.
            lock_unpoisoned(&core.tally).bad_requests += 1;
            lock_unpoisoned(&core.admission_reg).incr(CounterId::ServeErrBadRequest);
            core.reply(
                &sink,
                error_response(
                    &id,
                    "bad-request",
                    "watch streams over the socket transport; connect with --listen / tc top",
                    None,
                ),
            );
        });
        core.queue.close();
    });

    core.summary()
}

/// Convenience for tests and the differential harness: serve a batch
/// of request lines from memory and return the response lines.
pub fn serve_lines(lines: &[String], cfg: &ServeConfig) -> (Vec<String>, ServeSummary) {
    let input = lines.join("\n");
    let out = Arc::new(LineSink::new(Vec::new()));
    let summary = serve_to(input.as_bytes(), out.clone(), cfg);
    let text = String::from_utf8_lossy(&lock_unpoisoned(&out.out)).to_string();
    (text.lines().map(|l| l.to_string()).collect(), summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, program: &str) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("id", id);
        w.field_str("program", program);
        w.end_object();
        w.finish()
    }

    fn parse_all(lines: &[String]) -> Vec<json::Value> {
        lines
            .iter()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}\n{l}")))
            .collect()
    }

    fn by_id(vals: &[json::Value], id: u64) -> &json::Value {
        vals.iter()
            .find(|v| v.get("id").and_then(|i| i.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    }

    #[test]
    fn serves_a_small_batch() {
        let lines = vec![
            req(1, "main = member 3 (enumFromTo 1 5);"),
            req(2, "main = eq 1 True;"),
            req(3, "x = 1;"),
        ];
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 3);
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.responses, 3);
        assert_eq!(summary.ok(), 3);
        let vals = parse_all(&out);
        let ok = by_id(&vals, 1);
        assert_eq!(ok.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(ok.get("outcome").and_then(|v| v.as_str()), Some("value"));
        assert_eq!(ok.get("value").and_then(|v| v.as_str()), Some("True"));
        let bad = by_id(&vals, 2);
        assert_eq!(
            bad.get("outcome").and_then(|v| v.as_str()),
            Some("compile-errors")
        );
        assert!(bad
            .get("detail")
            .and_then(|v| v.as_str())
            .is_some_and(|d| d.contains("error")));
        let nomain = by_id(&vals, 3);
        assert_eq!(
            nomain.get("outcome").and_then(|v| v.as_str()),
            Some("no-main")
        );
    }

    #[test]
    fn malformed_lines_get_bad_request_responses() {
        let lines = vec![
            "{not json".to_string(),
            "{\"id\": 9}".to_string(),
            "{\"id\": 10, \"cmd\": \"frobnicate\"}".to_string(),
            "{\"id\": 11, \"program\": \"main = 1;\", \"fuel\": \"lots\"}".to_string(),
        ];
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 4);
        assert_eq!(summary.bad_requests, 4);
        assert_eq!(summary.admitted, 0);
        let vals = parse_all(&out);
        for v in &vals {
            assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("error"));
            assert_eq!(v.get("error").and_then(|s| s.as_str()), Some("bad-request"));
        }
        // The unparseable line still got an id (its line number).
        assert!(vals
            .iter()
            .any(|v| v.get("id").and_then(|i| i.as_u64()) == Some(1)));
    }

    #[test]
    fn eval_errors_carry_code_and_budget() {
        let line = "{\"id\": 1, \"program\": \"from n = cons n (from (add n 1));\\nmain = from 0;\", \"fuel\": 5000}".to_string();
        let (out, _) = serve_lines(&[line], &ServeConfig::default());
        let vals = parse_all(&out);
        let v = by_id(&vals, 1);
        assert_eq!(
            v.get("outcome").and_then(|s| s.as_str()),
            Some("eval-error")
        );
        assert_eq!(
            v.get("code").and_then(|s| s.as_str()),
            Some("fuel-exhausted")
        );
        let budget = v.get("budget").unwrap_or_else(|| panic!("budget: {out:?}"));
        assert_eq!(budget.get("fuel_left").and_then(|n| n.as_u64()), Some(0));
    }

    #[test]
    fn stats_command_reports_fleet_counters() {
        let lines = vec![
            req(1, "main = add 1 2;"),
            "{\"id\": 2, \"cmd\": \"stats\"}".to_string(),
        ];
        // One worker makes the request complete before EOF handling,
        // but stats may still race the in-flight request — so drive
        // sequentially: first the run, then a second session's stats
        // would be empty. Instead assert on the summary fleet, which
        // is always post-drain.
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 2);
        assert_eq!(summary.stats_requests, 1);
        assert_eq!(summary.fleet.counter(CounterId::ServeRequests), 2);
        assert_eq!(summary.fleet.counter(CounterId::ServeOk), 1);
        let vals = parse_all(&out);
        let stats = by_id(&vals, 2);
        assert_eq!(stats.get("cmd").and_then(|s| s.as_str()), Some("stats"));
        assert!(stats.get("fleet").is_some());
    }

    #[test]
    fn queue_overflow_sheds_with_retry_hint() {
        // One worker, capacity 1, and a batch of slow-ish programs:
        // some must shed. Every line still answers exactly once.
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let lines: Vec<String> = (0..40)
            .map(|i| req(i, "main = length (enumFromTo 1 400);"))
            .collect();
        let (out, summary) = serve_lines(&lines, &cfg);
        assert_eq!(out.len(), 40);
        assert_eq!(summary.admitted + summary.shed, 40);
        assert_eq!(summary.responses, 40);
        if summary.shed > 0 {
            let vals = parse_all(&out);
            let shed = vals
                .iter()
                .find(|v| v.get("error").and_then(|e| e.as_str()) == Some("overloaded"))
                .unwrap_or_else(|| panic!("no overloaded response"));
            assert!(shed
                .get("retry_after_ms")
                .and_then(|n| n.as_u64())
                .is_some());
        }
    }

    #[test]
    fn tight_deadlines_answer_deadline_errors() {
        let cfg = ServeConfig {
            workers: 2,
            default_deadline_ms: Some(0),
            ..ServeConfig::default()
        };
        let lines = vec![req(1, "main = member 3 (enumFromTo 1 5);")];
        let (out, summary) = serve_lines(&lines, &cfg);
        let vals = parse_all(&out);
        let v = by_id(&vals, 1);
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("error"));
        assert_eq!(v.get("error").and_then(|s| s.as_str()), Some("deadline"));
        assert_eq!(summary.deadline(), 1);
    }

    #[test]
    fn injected_panics_become_internal_errors_and_workers_survive() {
        let cfg = ServeConfig {
            workers: 2,
            faults: Some(
                FaultPlan::parse("seed=7;elaborate=panic").unwrap_or_else(|e| panic!("{e}")),
            ),
            ..ServeConfig::default()
        };
        let lines: Vec<String> = (0..10).map(|i| req(i, "main = add 1 2;")).collect();
        let (out, summary) = serve_lines(&lines, &cfg);
        // Every request answers despite every one of them panicking
        // mid-pipeline — the pool of 2 workers survived 10 panics.
        assert_eq!(out.len(), 10);
        assert_eq!(summary.internal(), 10);
        assert!(summary.fleet.counter(CounterId::ServeFaultsInjected) >= 10);
        let vals = parse_all(&out);
        for v in &vals {
            assert_eq!(v.get("error").and_then(|s| s.as_str()), Some("internal"));
            assert!(v
                .get("detail")
                .and_then(|s| s.as_str())
                .is_some_and(|d| d.contains("tc-fault")));
        }
    }

    #[test]
    fn explain_and_stats_fields_ride_along() {
        let line = "{\"id\": 1, \"program\": \"main = eq (cons 1 nil) nil;\", \"explain\": true, \"stats\": true}".to_string();
        let (out, _) = serve_lines(&[line], &ServeConfig::default());
        let vals = parse_all(&out);
        let v = by_id(&vals, 1);
        assert!(v
            .get("explain")
            .and_then(|s| s.as_str())
            .is_some_and(|t| t.contains("Eq")));
        assert!(v.get("stats").and_then(|s| s.get("goals")).is_some());
    }

    fn check_req(id: u64, program: &str, check_laws: bool, prelude: bool) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("id", id);
        w.field_str("cmd", "check");
        w.field_str("program", program);
        w.field_bool("check_laws", check_laws);
        w.field_bool("prelude", prelude);
        w.end_object();
        w.finish()
    }

    #[test]
    fn check_command_reports_structured_diagnostics_without_evaluating() {
        let lines = vec![
            // A prelude duplicate: coherence reports L0009, deny by
            // default, so the verdict is not-ok.
            check_req(
                1,
                "instance Eq Int where { eq = primEqInt; neq = \\x y -> False; };",
                false,
                true,
            ),
            // An infinite main: check must answer instantly because it
            // never evaluates.
            check_req(2, "loop x = loop x;\nmain = loop 1;", false, true),
        ];
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 2);
        assert_eq!(summary.ok(), 2);
        let vals = parse_all(&out);
        let dup = by_id(&vals, 1);
        assert_eq!(dup.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(dup.get("cmd").and_then(|s| s.as_str()), Some("check"));
        assert_eq!(dup.get("ok").and_then(|b| b.as_bool()), Some(false));
        let diags = dup
            .get("diagnostics")
            .and_then(|d| d.as_array())
            .unwrap_or_else(|| panic!("diagnostics array: {out:?}"));
        let orphan = diags
            .iter()
            .find(|d| d.get("code").and_then(|c| c.as_str()) == Some("L0009"))
            .unwrap_or_else(|| panic!("no L0009 in {diags:?}"));
        assert_eq!(
            orphan.get("severity").and_then(|s| s.as_str()),
            Some("error")
        );
        assert!(orphan.get("start").and_then(|n| n.as_u64()).is_some());
        let looping = by_id(&vals, 2);
        assert_eq!(looping.get("ok").and_then(|b| b.as_bool()), Some(true));
        assert!(looping.get("value").is_none(), "check must not evaluate");
    }

    #[test]
    fn check_command_runs_the_law_harness_on_request() {
        let bad_eq = "class Eq a where { eq :: a -> a -> Bool; };\n\
                      instance Eq Int where { eq = primLeInt; };";
        let lines = vec![
            check_req(1, bad_eq, true, false),
            check_req(2, bad_eq, false, false),
        ];
        let (out, _) = serve_lines(&lines, &ServeConfig::default());
        let vals = parse_all(&out);
        let with_laws = by_id(&vals, 1);
        let diags = with_laws
            .get("diagnostics")
            .and_then(|d| d.as_array())
            .unwrap_or_else(|| panic!("diagnostics array: {out:?}"));
        let violation = diags
            .iter()
            .find(|d| d.get("code").and_then(|c| c.as_str()) == Some("L0011"))
            .unwrap_or_else(|| panic!("no L0011 in {diags:?}"));
        assert!(violation
            .get("message")
            .and_then(|m| m.as_str())
            .is_some_and(|m| m.contains("symmetry")));
        // Laws default to warn, so the verdict stays ok.
        assert_eq!(with_laws.get("ok").and_then(|b| b.as_bool()), Some(true));
        // Without check_laws the harness never runs.
        let without = by_id(&vals, 2);
        let diags = without
            .get("diagnostics")
            .and_then(|d| d.as_array())
            .unwrap_or_else(|| panic!("diagnostics array: {out:?}"));
        assert!(diags
            .iter()
            .all(|d| d.get("code").and_then(|c| c.as_str()) != Some("L0011")));
    }

    #[test]
    fn string_ids_echo_verbatim() {
        let line = "{\"id\": \"req-a\", \"program\": \"main = 1;\"}".to_string();
        let (out, _) = serve_lines(&[line], &ServeConfig::default());
        let vals = parse_all(&out);
        assert_eq!(vals[0].get("id").and_then(|s| s.as_str()), Some("req-a"));
    }

    #[test]
    fn retry_after_hint_grows_with_queue_occupancy() {
        // Empty-ish queues hint the base; deeper backlogs per worker
        // hint proportionally longer.
        assert_eq!(retry_after_hint(50, 0, 4), 50);
        assert_eq!(retry_after_hint(50, 2, 4), 50);
        assert_eq!(retry_after_hint(50, 8, 4), 100);
        assert_eq!(retry_after_hint(50, 40, 4), 500);
        let mut last = 0;
        for depth in [1usize, 4, 16, 64, 256] {
            let hint = retry_after_hint(50, depth, 4);
            assert!(hint >= last, "hint must be monotone in occupancy");
            last = hint;
        }
        assert!(
            retry_after_hint(50, 256, 4) > retry_after_hint(50, 4, 4),
            "a fuller queue must yield a strictly larger hint"
        );
        // Degenerate worker counts never divide by zero.
        assert_eq!(retry_after_hint(50, 10, 0), 500);
    }

    fn recorder_cfg(faults: Option<&str>) -> ServeConfig {
        ServeConfig {
            workers: 2,
            faults: faults.map(|f| FaultPlan::parse(f).unwrap_or_else(|e| panic!("{e}"))),
            recorder: RecorderConfig {
                enabled: true,
                ..RecorderConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn recorder_off_retains_nothing_and_allocates_nothing() {
        let lines: Vec<String> = (0..4).map(|i| req(i, "main = add 1 2;")).collect();
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 4);
        assert!(summary.retained.is_empty());
        assert_eq!(summary.traces_retained(), 0);
        assert_eq!(summary.traces_dropped(), 0);
        // The off recorder is literally no heap: the same handle shape
        // every request pays one branch on.
        assert!(EventLog::off().allocates_nothing());
    }

    #[test]
    fn fault_runs_retain_deterministic_traces_naming_the_failing_stage() {
        let run = || {
            let cfg = recorder_cfg(Some("seed=7;elaborate=panic"));
            let lines: Vec<String> = (0..10).map(|i| req(i, "main = add 1 2;")).collect();
            let (_, summary) = serve_lines(&lines, &cfg);
            summary
        };
        let a = run();
        assert_eq!(a.internal(), 10);
        assert_eq!(a.traces_retained(), 10, "every errored request is kept");
        assert_eq!(a.retained.len(), 10);
        for t in &a.retained {
            assert_eq!(t.outcome, tc_trace::events::OUTCOME_INTERNAL);
            assert_eq!(t.reason, "internal");
            let fault = t
                .events
                .iter()
                .find(|e| e.kind == EventKind::FaultInjected)
                .unwrap_or_else(|| panic!("no fault event in trace {}", t.trace_id));
            assert_eq!(
                fault.arg0,
                tc_trace::Stage::Elaborate as u64,
                "the retained trace must name the failing stage"
            );
            assert!(
                t.events.iter().any(|e| {
                    e.kind == EventKind::StageStart && e.arg0 == tc_trace::Stage::Elaborate as u64
                }),
                "the failing stage started but never ended"
            );
        }
        // Identical seeded runs retain the identical trace set.
        let b = run();
        let shape = |s: &ServeSummary| {
            s.retained
                .iter()
                .map(|t| {
                    let kinds: Vec<&str> = t.events.iter().map(|e| e.kind.name()).collect();
                    (t.trace_id, t.outcome, t.reason, kinds)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b), "retained set must be deterministic");
    }

    #[test]
    fn dump_command_drains_retained_traces_as_one_valid_json_line() {
        let cfg = recorder_cfg(Some("seed=3;elaborate=panic"));
        let mut lines: Vec<String> = (1..=3).map(|i| req(i, "main = add 1 2;")).collect();
        lines.push("{\"id\": 99, \"cmd\": \"dump\"}".to_string());
        let (out, summary) = serve_lines(&lines, &cfg);
        assert_eq!(out.len(), 4);
        assert_eq!(summary.dump_requests, 1);
        assert!(
            summary.retained.is_empty(),
            "dump drains the retained store"
        );
        let vals = parse_all(&out); // parse_all validates every line
        let dump = by_id(&vals, 99);
        assert_eq!(dump.get("cmd").and_then(|s| s.as_str()), Some("dump"));
        // The dump is a barrier, so all three panicked requests are
        // already retained when it answers.
        assert_eq!(dump.get("retained").and_then(|n| n.as_u64()), Some(3));
        let traces = dump
            .get("traces")
            .and_then(|t| t.as_array())
            .unwrap_or_else(|| panic!("traces array: {out:?}"));
        assert_eq!(traces.len(), 3);
        for t in traces {
            assert_eq!(t.get("outcome").and_then(|s| s.as_str()), Some("internal"));
            let events = t
                .get("events")
                .and_then(|e| e.as_array())
                .unwrap_or_else(|| panic!("events array"));
            assert!(events.iter().any(|e| {
                e.get("kind").and_then(|k| k.as_str()) == Some("fault-injected")
                    && e.get("stage").and_then(|s| s.as_str()) == Some("elaborate")
            }));
        }
    }

    #[test]
    fn shed_requests_get_synthesized_traces_and_adaptive_hints() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            recorder: RecorderConfig {
                enabled: true,
                ..RecorderConfig::default()
            },
            ..ServeConfig::default()
        };
        let lines: Vec<String> = (0..60)
            .map(|i| req(i, "main = length (enumFromTo 1 400);"))
            .collect();
        let (out, summary) = serve_lines(&lines, &cfg);
        assert_eq!(out.len(), 60);
        if summary.shed == 0 {
            return; // machine drained too fast to overload; nothing to check
        }
        let vals = parse_all(&out);
        let shed = vals
            .iter()
            .find(|v| v.get("error").and_then(|e| e.as_str()) == Some("overloaded"))
            .unwrap_or_else(|| panic!("no overloaded response"));
        // Shedding only happens at full occupancy, so the adaptive
        // hint is the base scaled by the whole backlog.
        assert_eq!(
            shed.get("retry_after_ms").and_then(|n| n.as_u64()),
            Some(retry_after_hint(cfg.retry_after_ms, 8, 1))
        );
        let overloaded: Vec<_> = summary
            .retained
            .iter()
            .filter(|t| t.outcome == tc_trace::events::OUTCOME_OVERLOADED)
            .collect();
        assert_eq!(overloaded.len() as u64, summary.shed);
        for t in overloaded {
            assert!(
                t.events.iter().any(|e| e.kind == EventKind::Shed),
                "synthesized shed trace must carry the shed event"
            );
        }
    }

    #[test]
    fn stats_reports_uptime_worker_counts_and_latency_quantiles() {
        let cfg = recorder_cfg(None);
        let lines = vec![
            req(1, "main = add 1 2;"),
            req(2, "main = member 3 (enumFromTo 1 5);"),
            "{\"id\": 90, \"cmd\": \"dump\"}".to_string(), // barrier
            "{\"id\": 91, \"cmd\": \"stats\"}".to_string(),
        ];
        let (out, _) = serve_lines(&lines, &cfg);
        let vals = parse_all(&out);
        let stats = by_id(&vals, 91);
        assert!(stats.get("uptime_ms").and_then(|n| n.as_u64()).is_some());
        let workers = stats
            .get("workers")
            .and_then(|w| w.as_array())
            .unwrap_or_else(|| panic!("workers array: {out:?}"));
        assert_eq!(workers.len(), cfg.workers);
        let total: u64 = workers.iter().filter_map(|w| w.as_u64()).sum();
        // The dump barrier ran first, so both requests are counted.
        assert_eq!(total, 2);
        let ok = stats
            .get("latency")
            .and_then(|l| l.get("ok"))
            .unwrap_or_else(|| panic!("latency.ok: {out:?}"));
        assert_eq!(ok.get("count").and_then(|n| n.as_u64()), Some(2));
        assert!(ok.get("p50").and_then(|v| v.as_f64()).is_some());
        assert!(ok.get("p99").and_then(|v| v.as_f64()).is_some());
    }

    #[test]
    fn a_fault_is_retained_after_the_ring_overwrites_its_event() {
        // A ring of 8 events holds less than one request records, so
        // the parse-time `fault-injected` event is overwritten before
        // the request ends; the decision must not depend on it.
        let mut cfg = recorder_cfg(Some("parse=delay:1"));
        cfg.recorder.capacity = 8;
        let lines: Vec<String> = (0..3).map(|i| req(i, "main = add 1 2;")).collect();
        let (_, summary) = serve_lines(&lines, &cfg);
        assert_eq!(summary.ok(), 3);
        assert_eq!(summary.traces_retained(), 3);
        for t in &summary.retained {
            assert_eq!(t.reason, "fault", "trace {}", t.trace_id);
            assert!(t.events.len() <= 8);
            assert!(t.events.iter().all(|e| e.kind != EventKind::FaultInjected));
        }
    }

    #[test]
    fn head_sampling_and_latency_threshold_retain_ok_traces() {
        let mut cfg = recorder_cfg(None);
        cfg.recorder.sample_every = 2;
        let lines: Vec<String> = (1..=4).map(|i| req(i, "main = add 1 2;")).collect();
        let (_, summary) = serve_lines(&lines, &cfg);
        let ids: Vec<u64> = summary.retained.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![2, 4], "every 2nd request is head-sampled");
        for t in &summary.retained {
            assert_eq!(t.reason, "sampled");
            // A sampled ok trace carries real pipeline events.
            assert!(t.events.iter().any(|e| e.kind == EventKind::StageStart));
            assert!(
                t.events
                    .iter()
                    .any(|e| e.kind == EventKind::RequestEnd
                        && e.arg0 == tc_trace::events::OUTCOME_OK)
            );
        }

        let mut cfg = recorder_cfg(None);
        cfg.recorder.latency_threshold_us = 0; // everything is "slow"
        let lines = vec![req(1, "main = add 1 2;")];
        let (_, summary) = serve_lines(&lines, &cfg);
        assert_eq!(summary.retained.len(), 1);
        assert_eq!(summary.retained[0].reason, "slow");
    }

    #[test]
    fn health_probe_answers_on_stdin_and_stays_out_of_request_counters() {
        let lines = vec![
            req(1, "main = add 1 2;"),
            "{\"id\": 2, \"cmd\": \"health\"}".to_string(),
        ];
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 2);
        assert_eq!(summary.health_requests, 1);
        // A probe is not a request: only the run counts.
        assert_eq!(summary.fleet.counter(CounterId::ServeRequests), 1);
        let vals = parse_all(&out);
        let h = by_id(&vals, 2);
        assert_eq!(h.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(h.get("cmd").and_then(|s| s.as_str()), Some("health"));
        assert_eq!(h.get("healthy").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(h.get("transport").and_then(|s| s.as_str()), Some("stdin"));
        let queue = h.get("queue").unwrap_or_else(|| panic!("queue: {out:?}"));
        assert_eq!(
            queue.get("capacity").and_then(|n| n.as_u64()),
            Some(ServeConfig::default().queue_capacity as u64)
        );
        assert_eq!(queue.get("accepting").and_then(|b| b.as_bool()), Some(true));
        let workers = h
            .get("workers")
            .unwrap_or_else(|| panic!("workers: {out:?}"));
        assert_eq!(
            workers.get("configured").and_then(|n| n.as_u64()),
            Some(ServeConfig::default().workers as u64)
        );
        let window = h
            .get("shed_window")
            .unwrap_or_else(|| panic!("shed_window: {out:?}"));
        assert_eq!(
            window.get("seconds").and_then(|n| n.as_u64()),
            Some(SHED_WINDOW_SECS)
        );
        // The run was admitted inside the window and nothing shed.
        assert_eq!(window.get("admitted").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(window.get("shed").and_then(|n| n.as_u64()), Some(0));
    }

    #[test]
    fn watch_on_stdin_is_rejected_as_bad_request() {
        let lines = vec!["{\"id\": 1, \"cmd\": \"watch\", \"interval_ms\": 50}".to_string()];
        let (out, summary) = serve_lines(&lines, &ServeConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(summary.watch_requests, 0, "nothing subscribed");
        assert_eq!(summary.bad_requests, 1);
        let vals = parse_all(&out);
        assert_eq!(
            vals[0].get("error").and_then(|s| s.as_str()),
            Some("bad-request")
        );
        assert!(vals[0]
            .get("detail")
            .and_then(|s| s.as_str())
            .is_some_and(|d| d.contains("socket")));
    }

    #[test]
    fn stats_reports_transport_and_active_connections() {
        let lines = vec!["{\"id\": 1, \"cmd\": \"stats\"}".to_string()];
        let (out, _) = serve_lines(&lines, &ServeConfig::default());
        let vals = parse_all(&out);
        let stats = by_id(&vals, 1);
        assert_eq!(
            stats.get("transport").and_then(|s| s.as_str()),
            Some("stdin")
        );
        assert_eq!(
            stats.get("active_connections").and_then(|n| n.as_u64()),
            Some(0)
        );
    }

    /// A `Write` that appends into shared memory, for capturing the
    /// access log inside a test.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock_unpoisoned(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn access_log_records_every_completion_even_unretained_ones() {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let cfg = ServeConfig {
            access_log: Some(AccessLog::to_writer(Box::new(buf.clone()))),
            ..ServeConfig::default()
        };
        let lines = vec![
            req(1, "main = add 1 2;"),
            "{not json".to_string(),
            req(3, "main = mul 2 3;"),
        ];
        let (out, summary) = serve_lines(&lines, &cfg);
        assert_eq!(out.len(), 3);
        // The recorder is off, so no trace was retained — but every
        // request still left an access record.
        assert!(summary.retained.is_empty());
        let text = String::from_utf8_lossy(&lock_unpoisoned(&buf.0)).to_string();
        let records: Vec<json::Value> = text
            .lines()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("access line {l:?}: {e}")))
            .collect();
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(r.get("seq").and_then(|n| n.as_u64()).is_some());
            assert!(r.get("outcome").and_then(|s| s.as_str()).is_some());
            assert!(r.get("latency_us").and_then(|n| n.as_u64()).is_some());
        }
        let bad = records
            .iter()
            .find(|r| r.get("outcome").and_then(|s| s.as_str()) == Some("bad-request"))
            .unwrap_or_else(|| panic!("no bad-request access record in {text}"));
        assert!(
            bad.get("worker")
                .is_some_and(|w| matches!(w, json::Value::Null)),
            "a request that never reached the pool has no worker"
        );
        let ok: Vec<_> = records
            .iter()
            .filter(|r| r.get("outcome").and_then(|s| s.as_str()) == Some("ok"))
            .collect();
        assert_eq!(ok.len(), 2);
        for r in ok {
            assert!(r.get("worker").and_then(|n| n.as_u64()).is_some());
        }
    }

    #[test]
    fn watch_ticks_difference_against_the_previous_snapshot_and_reconcile() {
        // Drive the Core directly: admission-side counters are enough
        // to exercise the delta arithmetic without a worker pool.
        let core = Core::new(&ServeConfig::default(), "stdin");
        let id = ReqId::Num(7);
        {
            let mut reg = lock_unpoisoned(&core.admission_reg);
            reg.add(CounterId::ServeRequests, 5);
            reg.observe(HistogramId::ServeLatencyOkUs, 100);
        }
        let zero = MetricsSnapshot::default();
        let (line1, snap1) = core.watch_tick(&id, 1, 1000, &zero);
        let v1 = json::parse(&line1).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(v1.get("cmd").and_then(|s| s.as_str()), Some("watch"));
        assert_eq!(v1.get("tick").and_then(|n| n.as_u64()), Some(1));
        // 5 requests over a 1000 ms window.
        assert_eq!(v1.get("qps").and_then(|n| n.as_f64()), Some(5.0));
        {
            let mut reg = lock_unpoisoned(&core.admission_reg);
            reg.add(CounterId::ServeRequests, 3);
        }
        let (line2, snap2) = core.watch_tick(&id, 2, 1000, &snap1);
        let v2 = json::parse(&line2).unwrap_or_else(|e| panic!("{e}"));
        // Only the increment since the previous tick is reported.
        assert_eq!(v2.get("qps").and_then(|n| n.as_f64()), Some(3.0));
        // Reconciliation: zero + delta1 + delta2 == the absolute
        // snapshot at the last tick.
        let mut summed = MetricsSnapshot::default();
        summed.absorb(&snap1.delta(&zero));
        summed.absorb(&snap2.delta(&snap1));
        assert_eq!(
            summed.counter(CounterId::ServeRequests),
            snap2.counter(CounterId::ServeRequests)
        );
        assert_eq!(summed.counter(CounterId::ServeRequests), 8);
        assert_eq!(
            summed.histogram(HistogramId::ServeLatencyOkUs).count,
            snap2.histogram(HistogramId::ServeLatencyOkUs).count
        );
    }
}
