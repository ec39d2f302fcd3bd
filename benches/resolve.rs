//! Benchmark for tabled instance resolution and dictionary sharing.
//!
//! This is a plain `fn main` harness (`harness = false`): the build
//! environment is offline, so criterion is unavailable. It mirrors the
//! criterion CLI just enough for CI:
//!
//! ```sh
//! cargo bench --bench resolve            # full run
//! cargo bench --bench resolve -- --test  # smoke mode (small iteration counts)
//! ```
//!
//! Either way it writes `BENCH_resolve.json` to the current directory
//! (the workspace root under cargo) with per-workload counters from
//! [`tc_classes::ResolveStats`], wall-clock times, and per-stage
//! pipeline timings paired from the run's flight-recorder events
//! ([`typeclasses::trace::events::stage_spans`]), and it
//! *asserts* the headline acceptance numbers: on the deep instance
//! tower the memo table must reach a >=90% hit rate and cut dictionary
//! constructions by >=2x versus cache-off.
//!
//! The output is produced by [`typeclasses::JsonWriter`] and checked
//! with `tc_trace::json::check` before it is written, so the bench
//! artifact can never be malformed JSON.
//!
//! Unknown flags are ignored: cargo itself passes `--bench` to
//! harness-less bench binaries.

use std::fmt::Write as _;
use std::time::Instant;
use typeclasses::classes::{build_class_env, ClassEnv, ReduceBudget, ResolveCache};
use typeclasses::serve::{serve_lines, ServeConfig};
use typeclasses::syntax::Span;
use typeclasses::trace::events::stage_spans;
use typeclasses::types::{Pred, Type, VarGen};
use typeclasses::{EventLog, JsonWriter, Options};

/// Build a [`ClassEnv`] from Mini-Haskell class/instance declarations.
fn env_from_source(src: &str) -> ClassEnv {
    let (toks, diags) = typeclasses::syntax::lex(src);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let (prog, pd) = typeclasses::syntax::parse_program(&toks, Default::default());
    assert!(!pd.has_errors(), "{}", pd.render_all(src));
    let mut gen = VarGen::new();
    let (cenv, cd) = build_class_env(&prog, &mut gen);
    assert!(!cd.has_errors(), "{}", cd.render_all(src));
    cenv
}

/// `List (List (... Int))`, `depth` lists deep.
fn tower_type(depth: usize) -> Type {
    let mut t = Type::int();
    for _ in 0..depth {
        t = Type::list(t);
    }
    t
}

#[derive(Default)]
struct Row {
    name: &'static str,
    goals: u64,
    table_hits: u64,
    table_misses: u64,
    dicts_constructed: u64,
    dicts_constructed_off: u64,
    hit_rate: f64,
    construction_ratio: f64,
    nanos_on: u128,
    nanos_off: u128,
    /// Per-stage pipeline timings `(stage name, duration in ns)`.
    /// Example workloads pair them from recorded events; raw-resolution
    /// workloads never run the front end, so they carry a single
    /// synthetic `resolve` stage covering the cache-on loop.
    stages: Vec<(String, u64)>,
    /// Deterministic metric counters `(name, value)` from the
    /// metrics registry — no wall-clock readings, so the baseline
    /// comparator can hold them to exact equality.
    metrics: Vec<(&'static str, u64)>,
}

impl Row {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", self.name);
        w.field_u64("goals", self.goals);
        w.field_u64("table_hits", self.table_hits);
        w.field_u64("table_misses", self.table_misses);
        w.field_f64("hit_rate", self.hit_rate, 4);
        w.field_u64("dicts_constructed", self.dicts_constructed);
        w.field_u64("dicts_constructed_cache_off", self.dicts_constructed_off);
        w.field_f64("construction_ratio", self.construction_ratio, 2);
        w.field_u64("nanos_cache_on", saturate(self.nanos_on));
        w.field_u64("nanos_cache_off", saturate(self.nanos_off));
        w.begin_object_field("stage_nanos");
        for (stage, ns) in &self.stages {
            w.field_u64(stage, *ns);
        }
        w.end_object();
        w.begin_object_field("metrics");
        for (name, value) in &self.metrics {
            w.field_u64(name, *value);
        }
        w.end_object();
        w.end_object();
    }
}

fn saturate(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Resolve `pred` `iters` times against `cenv`, once with a shared memo
/// table and once with the table disabled.
fn bench_resolution(name: &'static str, cenv: &ClassEnv, pred: &Pred, iters: usize) -> Row {
    let budget = ReduceBudget::default();

    let mut cache = ResolveCache::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        cenv.resolve_with(pred, &[], budget, &mut cache)
            .unwrap_or_else(|e| panic!("{name}: resolution failed: {e}"));
    }
    let nanos_on = t0.elapsed().as_nanos();
    let on = cache.stats;

    let mut off_cache = ResolveCache::disabled();
    let t1 = Instant::now();
    for _ in 0..iters {
        cenv.resolve_with(pred, &[], budget, &mut off_cache)
            .unwrap_or_else(|e| panic!("{name}: resolution failed: {e}"));
    }
    let nanos_off = t1.elapsed().as_nanos();
    let off = off_cache.stats;

    // Counters are folded after the timed loops, so enabling metrics
    // here costs the measurement nothing.
    cache.enable_metrics();
    cache.flush_metrics();

    Row {
        name,
        goals: on.goals,
        table_hits: on.table_hits,
        table_misses: on.table_misses,
        dicts_constructed: on.dicts_constructed,
        dicts_constructed_off: off.dicts_constructed,
        hit_rate: on.hit_rate(),
        construction_ratio: off.dicts_constructed as f64 / on.dicts_constructed.max(1) as f64,
        nanos_on,
        nanos_off,
        // Raw resolution has exactly one "stage": the cache-on loop.
        stages: vec![("resolve".to_string(), saturate(nanos_on))],
        metrics: cache.metrics.counters_snapshot(),
    }
}

/// Compile one example program with the optimizations on vs off.
///
/// The optimized run records into a flight recorder of its own, so
/// the row carries per-stage timings paired from its stage events.
fn bench_example(name: &'static str, src: &str) -> Row {
    let log = EventLog::with_capacity(4096);
    let on_opts = Options {
        collect_metrics: true,
        events: log.scope(1),
        ..Options::default()
    };
    let t0 = Instant::now();
    let on = typeclasses::check_source(src, &on_opts);
    let nanos_on = t0.elapsed().as_nanos();
    assert!(on.ok(), "{name}: {}", on.render_diagnostics());
    let events = log
        .extract_whole(1)
        .expect("the ring holds an example's run");

    let off_opts = Options::unoptimized();
    let t1 = Instant::now();
    let off = typeclasses::check_source(src, &off_opts);
    let nanos_off = t1.elapsed().as_nanos();
    assert!(off.ok(), "{name}: {}", off.render_diagnostics());

    Row {
        name,
        goals: on.stats.resolve.goals,
        table_hits: on.stats.resolve.table_hits,
        table_misses: on.stats.resolve.table_misses,
        dicts_constructed: on.stats.resolve.dicts_constructed,
        dicts_constructed_off: off.stats.resolve.dicts_constructed,
        hit_rate: on.stats.resolve.hit_rate(),
        construction_ratio: off.stats.resolve.dicts_constructed as f64
            / on.stats.resolve.dicts_constructed.max(1) as f64,
        nanos_on,
        nanos_off,
        stages: stage_spans(&events)
            .iter()
            .map(|s| (s.stage.name().to_string(), s.duration_ns))
            .collect(),
        metrics: on.stats.metrics.counters_snapshot(),
    }
}

/// End-to-end server throughput: the three example programs repeated
/// `reps` times, pushed through the serve worker pool as one JSONL
/// batch.
///
/// The counters (`programs`, `responses_ok`) are deterministic and
/// held to exact equality by the baseline gate; `nanos_batch` gets
/// timing tolerance and `programs_per_sec` gets the one-sided
/// throughput tolerance (a collapse gates, a speedup never does).
struct ServeRow {
    programs: u64,
    responses_ok: u64,
    nanos_batch: u128,
    programs_per_sec: f64,
}

impl ServeRow {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", "serve_batch_throughput");
        w.field_u64("programs", self.programs);
        w.field_u64("responses_ok", self.responses_ok);
        w.field_u64("nanos_batch", saturate(self.nanos_batch));
        w.field_f64("programs_per_sec", self.programs_per_sec, 1);
        w.end_object();
    }
}

/// The three example programs repeated `reps` times as one JSONL batch.
fn example_batch_lines(reps: usize) -> Vec<String> {
    let sources: Vec<String> = [
        "examples/member.mh",
        "examples/maxlist.mh",
        "examples/sumsquares.mh",
    ]
    .iter()
    .map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the workspace root)"))
    })
    .collect();
    let mut lines = Vec::new();
    for i in 0..reps {
        for (j, src) in sources.iter().enumerate() {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_u64("id", (i * sources.len() + j) as u64 + 1);
            w.field_str("program", src);
            w.end_object();
            lines.push(w.finish());
        }
    }
    lines
}

fn bench_serve_batch(reps: usize) -> ServeRow {
    let lines = example_batch_lines(reps);
    // The queue holds the whole batch so admission never sheds and the
    // measurement is pure pipeline + pool overhead.
    let cfg = ServeConfig {
        queue_capacity: lines.len().max(64),
        ..ServeConfig::default()
    };

    // Best of three batches: the pool's thread spawn/join cost is part
    // of what we measure, but a single cold run is too noisy to gate on.
    let mut best_nanos = u128::MAX;
    let mut responses_ok = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let (out, summary) = serve_lines(&lines, &cfg);
        let nanos = t0.elapsed().as_nanos();
        assert_eq!(out.len(), lines.len(), "every request must be answered");
        assert_eq!(
            summary.ok(),
            lines.len() as u64,
            "examples must all succeed through serve"
        );
        responses_ok = summary.ok();
        best_nanos = best_nanos.min(nanos);
    }

    let programs = lines.len() as u64;
    ServeRow {
        programs,
        responses_ok,
        nanos_batch: best_nanos,
        programs_per_sec: programs as f64 * 1e9 / best_nanos.max(1) as f64,
    }
}

/// Flight-recorder overhead: the same serve batch with the recorder
/// off vs on. The recorder-on run head-samples *every* request
/// (`sample_every = 1`) so the tail sampler does maximal work —
/// record, extract, and retain a trace per request. Counters are
/// deterministic and gate exactly; both timings are `nanos_*` fields,
/// so the comparator holds the recorder-on cost to the same ratio
/// tolerance as every other timing, bounding recorder overhead.
struct ObsRow {
    programs: u64,
    traces_retained: u64,
    nanos_recorder_off: u128,
    nanos_recorder_on: u128,
}

impl ObsRow {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", "obs_overhead");
        w.field_u64("programs", self.programs);
        w.field_u64("traces_retained", self.traces_retained);
        w.field_u64("nanos_recorder_off", saturate(self.nanos_recorder_off));
        w.field_u64("nanos_recorder_on", saturate(self.nanos_recorder_on));
        w.end_object();
    }
}

fn bench_obs_overhead(reps: usize) -> ObsRow {
    use typeclasses::RecorderConfig;
    let lines = example_batch_lines(reps);
    let base = ServeConfig {
        queue_capacity: lines.len().max(64),
        ..ServeConfig::default()
    };
    let run = |cfg: &ServeConfig| {
        let mut best = u128::MAX;
        let mut retained = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            let (out, summary) = serve_lines(&lines, cfg);
            let nanos = t0.elapsed().as_nanos();
            assert_eq!(out.len(), lines.len(), "every request must be answered");
            assert_eq!(summary.ok(), lines.len() as u64);
            retained = summary.traces_retained();
            best = best.min(nanos);
        }
        (best, retained)
    };

    let (nanos_off, retained_off) = run(&base);
    assert_eq!(retained_off, 0, "recorder off must retain nothing");
    let cfg_on = ServeConfig {
        recorder: RecorderConfig {
            enabled: true,
            sample_every: 1,
            max_retained: lines.len().max(1),
            ..RecorderConfig::default()
        },
        ..base.clone()
    };
    let (nanos_on, retained_on) = run(&cfg_on);
    assert_eq!(
        retained_on,
        lines.len() as u64,
        "sample_every=1 must retain every request's trace"
    );

    ObsRow {
        programs: lines.len() as u64,
        traces_retained: retained_on,
        nanos_recorder_off: nanos_off,
        nanos_recorder_on: nanos_on,
    }
}

/// Socket-transport round-trip throughput: the same example batch
/// pushed through a loopback TCP server by one pipelining client, so
/// the row prices the full framing + admission + response-routing
/// path rather than the in-process `serve_lines` shortcut.
///
/// `programs`/`responses_ok` are deterministic and gate exactly;
/// `nanos_batch` gets timing tolerance and `requests_per_sec` the
/// one-sided throughput tolerance.
struct SocketRow {
    programs: u64,
    responses_ok: u64,
    nanos_batch: u128,
    requests_per_sec: f64,
}

impl SocketRow {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", "socket_roundtrip");
        w.field_u64("programs", self.programs);
        w.field_u64("responses_ok", self.responses_ok);
        w.field_u64("nanos_batch", saturate(self.nanos_batch));
        w.field_f64("requests_per_sec", self.requests_per_sec, 1);
        w.end_object();
    }
}

fn bench_socket_roundtrip(reps: usize) -> SocketRow {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use typeclasses::serve::serve_socket;

    let lines = example_batch_lines(reps);
    let cfg = ServeConfig {
        queue_capacity: lines.len().max(64),
        ..ServeConfig::default()
    };

    // Best of three batches over a fresh server each time, so listener
    // setup and worker spawn amortize the same way in every round.
    let mut best_nanos = u128::MAX;
    let mut responses_ok = 0;
    for _ in 0..3 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let handle = serve_socket(listener, &cfg).expect("serve_socket");
        let stream = TcpStream::connect(handle.addr()).expect("connect loopback");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);

        let blob = lines.join("\n") + "\n";
        let t0 = Instant::now();
        writer
            .write_all(blob.as_bytes())
            .and_then(|()| writer.flush())
            .expect("send batch");
        let mut line = String::new();
        for _ in 0..lines.len() {
            line.clear();
            let n = reader.read_line(&mut line).expect("read response");
            assert!(n > 0, "server closed before answering the batch");
        }
        let nanos = t0.elapsed().as_nanos();
        drop(writer);
        drop(reader);
        let summary = handle.shutdown();
        assert_eq!(
            summary.ok(),
            lines.len() as u64,
            "examples must all succeed over the socket"
        );
        responses_ok = summary.ok();
        best_nanos = best_nanos.min(nanos);
    }

    let programs = lines.len() as u64;
    SocketRow {
        programs,
        responses_ok,
        nanos_batch: best_nanos,
        requests_per_sec: programs as f64 * 1e9 / best_nanos.max(1) as f64,
    }
}

/// Coherence-checker throughput: pairwise overlap detection over a
/// deliberately wide (and deliberately disjoint — the pass must come
/// back clean) instance world, reported as instances/sec.
///
/// The instance/pair counters are deterministic and gate exactly;
/// `nanos_check` gets timing tolerance and `instances_per_sec` the
/// one-sided throughput tolerance, like the serve row.
struct CoherenceRow {
    instances: u64,
    pairs: u64,
    nanos_check: u128,
    instances_per_sec: f64,
    metrics: Vec<(&'static str, u64)>,
}

impl CoherenceRow {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", "coherence_check");
        w.field_u64("instances", self.instances);
        w.field_u64("pairs", self.pairs);
        w.field_u64("nanos_check", saturate(self.nanos_check));
        w.field_f64("instances_per_sec", self.instances_per_sec, 1);
        w.begin_object_field("metrics");
        for (name, value) in &self.metrics {
            w.field_u64(name, *value);
        }
        w.end_object();
        w.end_object();
    }
}

/// `classes` classes, each instanced at every `List^d Int` / `List^d
/// Bool` for `d < depths` — disjoint heads, so the check is all work
/// and no findings.
fn coherence_source(classes: usize, depths: usize) -> String {
    let mut src = String::new();
    for c in 0..classes {
        let _ = writeln!(src, "class C{c} a where {{ m{c} :: a -> Bool; }};");
        for d in 0..depths {
            for base in ["Int", "Bool"] {
                let mut ty = base.to_string();
                for _ in 0..d {
                    ty = format!("(List {ty})");
                }
                let _ = writeln!(src, "instance C{c} {ty} where {{ m{c} = \\x -> True; }};");
            }
        }
    }
    src
}

fn bench_coherence(iters: usize) -> CoherenceRow {
    use typeclasses::coherence::{check_coherence, CoherenceConfig, CoherenceInput};
    use typeclasses::MetricsRegistry;

    let cenv = env_from_source(&coherence_source(6, 4));
    let cfg = CoherenceConfig::default();
    let mut metrics = MetricsRegistry::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        let diags = check_coherence(
            &CoherenceInput {
                cenv: &cenv,
                user_start: 0,
            },
            &cfg,
            &mut metrics,
        );
        assert!(
            diags.is_empty(),
            "disjoint instance world must check clean: {diags:?}"
        );
    }
    let nanos_check = t0.elapsed().as_nanos();

    let total = metrics.counter(typeclasses::CounterId::CoherenceInstancesChecked);
    let pairs = metrics.counter(typeclasses::CounterId::CoherencePairsUnified);
    CoherenceRow {
        instances: total / iters.max(1) as u64,
        pairs: pairs / iters.max(1) as u64,
        nanos_check,
        instances_per_sec: total as f64 * 1e9 / nanos_check.max(1) as f64,
        metrics: metrics.counters_snapshot(),
    }
}

const TOWER_SRC: &str = "\
    class Eq a where { eq :: a -> a -> Bool; };\n\
    instance Eq Int where { eq = primEqInt; };\n\
    instance Eq a => Eq (List a) where { eq = \\x y -> True; };\n";

/// Like [`TOWER_SRC`] but the tower instance is *derived*: the
/// `deriving (Eq)` clause on `Wrap` generates
/// `instance Eq a => Eq (Wrap a)` mechanically, so resolving
/// `Eq (Wrap^8 Int)` measures the memo table over derived instances.
const DERIVED_TOWER_SRC: &str = "\
    class Eq a where { eq :: a -> a -> Bool; neq :: a -> a -> Bool; };\n\
    instance Eq Int where { eq = primEqInt; neq = \\x y -> False; };\n\
    data Wrap a = Wrap a deriving (Eq);\n";

/// `Wrap (Wrap (... Int))`, `depth` wraps deep.
fn wrap_tower_type(depth: usize) -> Type {
    let mut t = Type::int();
    for _ in 0..depth {
        t = Type::App(Box::new(Type::Con("Wrap".into())), Box::new(t));
    }
    t
}

/// Eight sibling superclasses under one class, all instanced at Int.
fn wide_super_source(width: usize) -> String {
    let mut src = String::new();
    for i in 0..width {
        let _ = writeln!(src, "class S{i} a where {{ s{i} :: a -> Bool; }};");
        let _ = writeln!(src, "instance S{i} Int where {{ s{i} = \\x -> True; }};");
    }
    let supers: Vec<String> = (0..width).map(|i| format!("S{i} a")).collect();
    let _ = writeln!(
        src,
        "class ({}) => K a where {{ k :: a -> Bool; }};",
        supers.join(", ")
    );
    let _ = writeln!(src, "instance K Int where {{ k = \\x -> True; }};");
    src
}

fn main() {
    // Cargo passes `--bench`; criterion uses `--test` for smoke mode.
    // Ignore anything else so the harness never trips on runner flags.
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = if smoke { 100 } else { 10_000 };

    let sp = Span::DUMMY;
    let mut rows = Vec::new();

    // Deep instance tower: Eq (List^8 Int), resolved `iters` times.
    let tower_env = env_from_source(TOWER_SRC);
    let deep = Pred::new("Eq", tower_type(8), sp);
    let row = bench_resolution("deep_tower_eq_list8_int", &tower_env, &deep, iters);
    assert!(
        row.hit_rate >= 0.90,
        "deep tower hit rate {:.4} < 0.90",
        row.hit_rate
    );
    assert!(
        row.construction_ratio >= 2.0,
        "deep tower construction ratio {:.2} < 2.0",
        row.construction_ratio
    );
    rows.push(row);

    // Same tower through a *derived* instance: `deriving (Eq)` on
    // `Wrap a` must resolve exactly like the handwritten List tower.
    let derived_env = env_from_source(DERIVED_TOWER_SRC);
    let derived = Pred::new("Eq", wrap_tower_type(8), sp);
    let row = bench_resolution("derived_eq_tower", &derived_env, &derived, iters);
    assert!(
        row.hit_rate >= 0.90,
        "derived tower hit rate {:.4} < 0.90",
        row.hit_rate
    );
    assert!(
        row.construction_ratio >= 2.0,
        "derived tower construction ratio {:.2} < 2.0",
        row.construction_ratio
    );
    rows.push(row);

    // Wide superclass graph: K Int pulls in 8 sibling superclass dicts.
    let wide_env = env_from_source(&wide_super_source(8));
    let wide = Pred::new("K", Type::int(), sp);
    rows.push(bench_resolution(
        "wide_supers_k_int",
        &wide_env,
        &wide,
        iters,
    ));

    // The three checked-in example programs, full pipeline on vs off.
    for (name, path) in [
        ("example_member", "examples/member.mh"),
        ("example_maxlist", "examples/maxlist.mh"),
        ("example_sumsquares", "examples/sumsquares.mh"),
        ("example_deriving", "examples/deriving.mh"),
    ] {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the workspace root)"));
        rows.push(bench_example(name, &src));
    }

    // End-to-end server throughput over the same example programs.
    let serve_row = bench_serve_batch(if smoke { 20 } else { 200 });

    // Flight-recorder overhead: the same batch, recorder off vs on.
    let obs_row = bench_obs_overhead(if smoke { 10 } else { 100 });

    // The same batch over loopback TCP: framing + routing overhead.
    let socket_row = bench_socket_roundtrip(if smoke { 20 } else { 200 });

    // Coherence-checker throughput over a wide disjoint instance world.
    let coherence_row = bench_coherence(iters);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "resolve");
    w.field_str("mode", if smoke { "smoke" } else { "full" });
    w.field_u64("iters", iters as u64);
    w.begin_array_field("workloads");
    for r in &rows {
        r.write_json(&mut w);
    }
    serve_row.write_json(&mut w);
    obs_row.write_json(&mut w);
    socket_row.write_json(&mut w);
    coherence_row.write_json(&mut w);
    w.end_array();
    w.end_object();
    let json = w.finish();
    typeclasses::trace::json::check(&json)
        .unwrap_or_else(|e| panic!("bench emitted malformed JSON: {e}"));
    std::fs::write("BENCH_resolve.json", &json).expect("cannot write BENCH_resolve.json");

    for r in &rows {
        println!(
            "{:28} goals={:8} hits={:8} hit_rate={:6.2}% dicts on/off={}/{} ({:.1}x) \
             time on/off={:.3}ms/{:.3}ms",
            r.name,
            r.goals,
            r.table_hits,
            r.hit_rate * 100.0,
            r.dicts_constructed,
            r.dicts_constructed_off,
            r.construction_ratio,
            r.nanos_on as f64 / 1e6,
            r.nanos_off as f64 / 1e6,
        );
    }
    println!(
        "{:28} programs={:6} ok={:6} batch={:.3}ms throughput={:.0}/s",
        "serve_batch_throughput",
        serve_row.programs,
        serve_row.responses_ok,
        serve_row.nanos_batch as f64 / 1e6,
        serve_row.programs_per_sec,
    );
    println!(
        "{:28} programs={:6} retained={:4} off={:.3}ms on={:.3}ms ({:+.1}% overhead)",
        "obs_overhead",
        obs_row.programs,
        obs_row.traces_retained,
        obs_row.nanos_recorder_off as f64 / 1e6,
        obs_row.nanos_recorder_on as f64 / 1e6,
        (obs_row.nanos_recorder_on as f64 / obs_row.nanos_recorder_off.max(1) as f64 - 1.0) * 100.0,
    );
    println!(
        "{:28} programs={:6} ok={:6} batch={:.3}ms throughput={:.0}/s",
        "socket_roundtrip",
        socket_row.programs,
        socket_row.responses_ok,
        socket_row.nanos_batch as f64 / 1e6,
        socket_row.requests_per_sec,
    );
    println!(
        "{:28} instances={:4} pairs={:5} check={:.3}ms throughput={:.0} instances/s",
        "coherence_check",
        coherence_row.instances,
        coherence_row.pairs,
        coherence_row.nanos_check as f64 / 1e6,
        coherence_row.instances_per_sec,
    );
    println!("wrote BENCH_resolve.json");
}
