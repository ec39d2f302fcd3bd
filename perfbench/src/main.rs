//! Benchmark of the `run serve --listen` compilation server.
//!
//! ```text
//! perfbench --server <run binary> --out <dir> --workload <name>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures end to end: cold starts, then a fresh server
//! driven by a closed loop of two callers over the seeded request
//! sequence. `--trace 1` replays part of the same sequence in-process,
//! layer by layer, and one request at a time over the socket. Either way
//! every answer is checked, a report goes to stderr, and the last line
//! of stdout is one JSON object of metrics. See README.md.

mod client;
mod gen;
mod replay;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{closed_loop, cold_start, Conn, Server};
use gen::{Request, Workload};
use replay::{Samples, Tracer};

/// The timed window is cut into this many consecutive segments of the
/// request sequence; each end-to-end metric is the median over segments.
const SEGMENTS: usize = 5;
/// Cold starts before each segment and after the last; `setup_s` is the
/// median of all of them.
const COLD_STARTS: usize = 4;
/// Concurrent callers in the closed loop (the server runs two workers).
const CALLERS: usize = 2;
/// The traced run replays every `TRACE_STRIDE`-th request.
const TRACE_STRIDE: usize = 10;
/// (units, bindings) of the elaboration scaling sweep's two module
/// sizes, and modules per size.
const SWEEP: [(usize, usize); 2] = [(3, 28), (12, 112)];
const SWEEP_MODULES: usize = 7;

struct Args {
    server: String,
    out: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a non-negative integer"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        server: get("--server")?.to_string(),
        out: get("--out")?.to_string(),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
        },
    })
}

/// The result line's `metrics` object plus the counts around it.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("{name} is not a number ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// A latency percentile of one segment, in ms; refused when fewer than
/// ten samples lie beyond it.
fn percentile(latencies: &mut [f64], q: f64) -> Result<f64, String> {
    let beyond = stats::beyond(latencies.len(), q);
    if beyond < 10 {
        return Err(format!(
            "p{}: only {beyond} of {} samples lie beyond it; run longer",
            q * 100.0,
            latencies.len()
        ));
    }
    Ok(stats::quantile(latencies, q))
}

fn lines(requests: &[Request], first_id: u64) -> Vec<String> {
    requests
        .iter()
        .zip(first_id..)
        .map(|(r, id)| r.line(id) + "\n")
        .collect()
}

fn cold_starts(bin: &str, into: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..COLD_STARTS {
        into.push(cold_start(bin)?.as_secs_f64());
    }
    Ok(())
}

/// Throughput and latency percentiles of one segment of the timed window.
struct Segment {
    throughput_rps: f64,
    p50_ms: f64,
    p90_ms: f64,
}

/// Cold starts, warm-up, and the timed closed loop over the full request
/// sequence, with tracing off. The sequence runs as consecutive segments
/// against one server, with a few cold starts in each pause, so both
/// the segment medians and the cold-start median sample the machine
/// across the whole run.
fn end_to_end(args: &Args, requests: &[Request], warmup: &[Request]) -> Result<Report, String> {
    let mut starts = Vec::new();
    let server = Server::start(&args.server)?;
    let warm = closed_loop(&server.addr, &lines(warmup, 1_000_000), CALLERS)?;
    let warm_failed = warm
        .iter()
        .filter(|s| !warmup[s.index].expect.matches(&s.response))
        .count();
    if warm_failed > 0 {
        eprintln!("  {warm_failed} wrong answers during warm-up");
    }
    let mut failed = 0;
    let all_lines = lines(requests, 0);
    let per = requests.len().div_ceil(SEGMENTS);
    let mut segments = Vec::new();
    eprintln!("  segment  answers  window_s  throughput_rps  p50_ms  p90_ms  (samples beyond p90)");
    for (k, chunk) in all_lines.chunks(per).enumerate() {
        cold_starts(&args.server, &mut starts)?;
        let timed = closed_loop(&server.addr, chunk, CALLERS)?;
        let first = timed
            .iter()
            .map(|s| s.sent)
            .min()
            .ok_or("no requests sent")?;
        let last = timed
            .iter()
            .map(|s| s.sent + s.latency)
            .max()
            .ok_or("no requests answered")?;
        for s in &timed {
            let request = &requests[k * per + s.index];
            if !request.expect.matches(&s.response) {
                failed += 1;
                eprintln!(
                    "  wrong answer to request {}: {}",
                    k * per + s.index,
                    s.response
                );
            }
        }
        let window = (last - first).as_secs_f64();
        let mut latencies: Vec<f64> = timed.iter().map(|s| ms(s.latency)).collect();
        let segment = Segment {
            throughput_rps: timed.len() as f64 / window,
            p50_ms: percentile(&mut latencies, 0.5)?,
            p90_ms: percentile(&mut latencies, 0.9)?,
        };
        eprintln!(
            "  {k:>7}  {:>7}  {window:>8.3}  {:>14.2}  {:>6.3}  {:>6.3}  ({})",
            timed.len(),
            segment.throughput_rps,
            segment.p50_ms,
            segment.p90_ms,
            stats::beyond(timed.len(), 0.9)
        );
        segments.push(segment);
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(server);
    cold_starts(&args.server, &mut starts)?;

    let median_of =
        |f: fn(&Segment) -> f64| stats::median(&mut segments.iter().map(f).collect::<Vec<_>>());
    let throughput_rps = median_of(|s| s.throughput_rps);
    let p50 = median_of(|s| s.p50_ms);
    let p90 = median_of(|s| s.p90_ms);
    let setup_s = stats::median(&mut starts);
    let ok_ratio = (requests.len() - failed) as f64 / requests.len() as f64;
    eprintln!(
        "  medians of {SEGMENTS} segments: throughput_rps {throughput_rps:.2}, latency_p50_ms {p50:.3}, latency_p90_ms {p90:.3}\n  \
         setup_s {setup_s:.6} (median of {} cold starts; quartiles {:.6} .. {:.6})\n  \
         ok_ratio {ok_ratio:.4}, peak_rss_mb {peak_rss_mb:.3}",
        starts.len(),
        stats::quantile(&mut starts, 0.25),
        stats::quantile(&mut starts, 0.75),
    );
    Ok(Report {
        correct: warm_failed == 0,
        attempted: requests.len(),
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_rps", throughput_rps, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("ok_ratio", ok_ratio, "ratio"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    })
}

/// Per-layer metrics: the in-process layer-by-layer replay (reconciled
/// with the driver), the recorder on/off comparison, the elaboration
/// scaling sweep, and one-at-a-time socket calls.
fn traced(args: &Args, requests: &[Request], warmup: &[Request]) -> Result<Report, String> {
    let opts = tc_driver::Options::default();
    let mut tracer = Tracer::new();
    let mut m = Samples::default();
    let (mut attempted, mut failed) = (0, 0);
    // The server idles while the in-process calls run, so each socket
    // call sits right after the same request's driver run.
    let server = Server::start(&args.server)?;
    closed_loop(
        &server.addr,
        &lines(&warmup[..warmup.len().min(50)], 1_000_000),
        1,
    )?;
    let mut conn = Conn::connect(&server.addr)?;
    for (r, id) in requests.iter().zip(0u64..).step_by(TRACE_STRIDE) {
        attempted += 1;
        let check = r.is_check();
        let produced = replay::replay(&r.program, check, id, &opts, &mut tracer, &mut m);
        // Alternate which recorder setting runs first.
        let ((plain, off_us), (_, on_us)) = if id % 2 == 0 {
            let off = replay::driver(&r.program, check, id, &opts, false);
            (off, replay::driver(&r.program, check, id, &opts, true))
        } else {
            let on = replay::driver(&r.program, check, id, &opts, true);
            (replay::driver(&r.program, check, id, &opts, false), on)
        };
        if produced != plain {
            failed += 1;
            eprintln!("  replay of request {id} differs from the driver:\n    replay {produced:?}\n    driver {plain:?}");
        }
        m.add("driver.run_us", off_us);
        m.add("trace.recorder_overhead_ratio", on_us / off_us);
        let prelude_us = replay::elaborate_us("", &opts);
        let request_us = m.0["core.elaborate_us"]
            .last()
            .expect("replay times elaborate");
        m.add("core.prelude_share", prelude_us / request_us);

        let t0 = Instant::now();
        let response = conn.call(&(r.line(id) + "\n"))?;
        let client_us = t0.elapsed().as_nanos() as f64 / 1e3;
        let server_us = tc_trace::json::parse(response)
            .ok()
            .and_then(|v| v.get("latency_us").and_then(|l| l.as_u64()))
            .ok_or_else(|| format!("no latency_us in `{response}`"))?
            as f64;
        if !r.expect.matches(response) {
            failed += 1;
            eprintln!("  wrong answer to request {id}: {response}");
        }
        m.add("serve.overhead_us", server_us - off_us);
        m.add("serve.transport_us", client_us - server_us);
    }
    drop(conn);
    drop(server);

    // The two sizes alternate, so a drift in machine speed hits both.
    let mut rng = gen::Rng::new(args.seed, "sweep");
    let (mut small, mut large) = (Vec::new(), Vec::new());
    for _ in 0..SWEEP_MODULES {
        for ((units, bindings), times) in SWEEP.into_iter().zip([&mut small, &mut large]) {
            let module = gen::module(&mut rng, units, bindings, None);
            times.push(replay::elaborate_us(&module.program, &opts));
        }
    }
    let (small, large) = (stats::median(&mut small), stats::median(&mut large));
    m.add("core.elaborate_scaling_4x", large / small);

    let doc = tracer.chrome_json();
    tc_trace::json::check(&doc).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {}: {e}", args.out))?;
    let path = format!(
        "{}/{}-seed{}.trace.json",
        args.out,
        args.workload.name(),
        args.seed
    );
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "  {attempted} requests replayed ({} spans) -> {path}",
        tracer.spans.len()
    );

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let values =
            m.0.get_mut(name)
                .ok_or_else(|| format!("{name} was never measured on {}", args.workload.name()))?;
        let value = stats::median(values);
        eprintln!(
            "  {name:<34} {value:>14.4} {unit}  (median of {})",
            values.len()
        );
        metrics.push((name, value, unit));
    }
    Ok(Report {
        correct: true,
        attempted,
        failed,
        metrics,
    })
}

/// Every per-layer metric, with its unit; each is the median over the
/// traced requests.
const PER_LAYER: [(&str, &str); 25] = [
    ("syntax.lex_us", "us"),
    ("syntax.parse_us", "us"),
    ("syntax.tokens", "count"),
    ("classes.env_us", "us"),
    ("classes.resolve_goals", "count"),
    ("classes.resolve_hit_ratio", "ratio"),
    ("classes.dicts_constructed", "count"),
    ("coherence.check_us", "us"),
    ("core.elaborate_us", "us"),
    ("core.elaborate_us_per_binding", "us"),
    ("core.prelude_share", "ratio"),
    ("core.elaborate_scaling_4x", "ratio"),
    ("coreir.share_us", "us"),
    ("coreir.core_nodes", "count"),
    ("coreir.dicts_shared", "count"),
    ("lint.run_us", "us"),
    ("eval.run_us", "us"),
    ("eval.fuel", "count"),
    ("eval.ns_per_fuel", "ns"),
    ("eval.peak_allocs", "count"),
    ("driver.run_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.transport_us", "us"),
    ("trace.recorder_overhead_ratio", "ratio"),
    ("replay.glue_us", "us"),
];

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let count = (args.workload.nominal_rps() * args.seconds) as usize;
    let requests = gen::requests(args.workload, args.seed, "timed", count);
    let warmup = gen::requests(args.workload, args.seed, "warmup", count / 10);
    eprintln!(
        "perfbench {} seed {} trace {}: {count} requests",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args, &requests, &warmup)?
    } else {
        end_to_end(&args, &requests, &warmup)?
    };
    report.json()
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
