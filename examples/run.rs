//! Run a Mini-Haskell program through the whole pipeline:
//!
//! ```sh
//! cargo run --example run -- program.mh
//! echo 'main = member 3 (enumFromTo 1 5);' | cargo run --example run
//! cargo run --example run -- --core program.mh     # dump converted core
//! cargo run --example run -- --lint program.mh     # run the tc-lint pass
//! cargo run --example run -- --stats program.mh    # pipeline stats (JSON, stderr)
//! cargo run --example run -- --trace --profile program.mh  # timings + hot bindings
//! cargo run --example run -- --explain program.mh  # resolution derivation trees
//! cargo run --example run -- --explain L0008       # explain one diagnostic code
//! cargo run --example run -- --check-laws program.mh  # Eq/Ord class-law harness
//! cargo run --example run -- --metrics program.mh  # metric counters/histograms (stderr)
//! cargo run --example run -- --chrome-trace=t.json program.mh  # Perfetto-loadable trace
//! cargo run --example run -- serve --workers=4     # JSONL batch server on stdin/stdout
//! cargo run --example run -- serve --record --faults=seed=7;elaborate=panic%20
//! cargo run --example run -- serve --listen=127.0.0.1:7441 --access-log=access.jsonl
//! cargo run --example run -- top --connect=127.0.0.1:7441  # live telemetry dashboard
//! cargo run --example run -- json-check output.jsonl  # RFC 8259-check every line
//! cargo run --example run -- report dump.jsonl     # aggregate a dumped event log
//! cargo run --example run -- report dump.jsonl --chrome=t.json  # + Perfetto trace
//! ```
//!
//! Exit codes: 0 success, 1 compile errors, 2 usage/IO errors or
//! conflicting flags, 3 runtime error.

use std::io::{Read, Write};
use std::process::ExitCode;
use typeclasses::serve::alloc::ThreadCache;
use typeclasses::serve::ServeConfig;
use typeclasses::trace::events::{chrome_spans, stage_spans, timing_table, traces_chrome_json};
use typeclasses::{
    run_checked, Budget, EventLog, FaultPlan, LintConfig, LintLevel, Options, Outcome,
};

/// Small allocations come from a per-thread free-list cache: compiling
/// a request allocates and frees thousands of small blocks.
#[global_allocator]
static GLOBAL: ThreadCache = ThreadCache;

/// Ring size of the recorder behind `--time`/`--trace`, `--trace-json`
/// and `--chrome-trace` (2.5 MiB, allocated only when one of them is
/// given). A run that overflows it is reported, never shown short; the
/// largest shipped example records 29 events (237 with `--check-laws`).
const TIMING_RING: usize = 1 << 16;

/// The trace id the runner records its one run under (the Chrome
/// trace's `pid`).
const TIMING_TRACE: u64 = 1;

/// One command-line option: its name, argument shape (if any), and
/// help line. `USAGE` is generated from this table, so the two cannot
/// drift apart.
struct FlagSpec {
    name: &'static str,
    arg: Option<&'static str>,
    help: &'static str,
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--small",
        arg: None,
        help: "use the tiny evaluator budget",
    },
    FlagSpec {
        name: "--core",
        arg: None,
        help: "dump the converted core program",
    },
    FlagSpec {
        name: "--no-prelude",
        arg: None,
        help: "compile the program without the standard prelude",
    },
    FlagSpec {
        name: "--stats",
        arg: None,
        help: "print pipeline stats as one JSON object (stderr)",
    },
    FlagSpec {
        name: "--no-memo",
        arg: None,
        help: "disable resolution memoization (baseline mode)",
    },
    FlagSpec {
        name: "--no-share",
        arg: None,
        help: "disable dictionary sharing (baseline mode)",
    },
    FlagSpec {
        name: "--lint",
        arg: None,
        help: "run the tc-lint pass (findings warn)",
    },
    FlagSpec {
        name: "--deny-lints",
        arg: None,
        help: "run tc-lint with every rule escalated to deny",
    },
    FlagSpec {
        name: "--lint-level",
        arg: Some("<rule>=<allow|warn|deny>"),
        help: "set one lint or coherence rule's level (lint rules imply --lint)",
    },
    FlagSpec {
        name: "--check-laws",
        arg: None,
        help: "run the class-law harness over Eq/Ord instances (violations warn)",
    },
    FlagSpec {
        name: "--law-budget",
        arg: Some("<fuel>"),
        help: "evaluator fuel per generated law program (implies --check-laws)",
    },
    FlagSpec {
        name: "--time",
        arg: None,
        help: "print the per-stage timing table (stderr)",
    },
    FlagSpec {
        name: "--trace",
        arg: None,
        help: "print per-stage timings and pipeline counters (stderr)",
    },
    FlagSpec {
        name: "--explain",
        arg: None,
        help: "print instance-resolution derivation trees (stdout); with a \
               diagnostic <CODE> argument, explain that code and exit",
    },
    FlagSpec {
        name: "--profile",
        arg: None,
        help: "print the evaluator's hot-bindings table (stderr)",
    },
    FlagSpec {
        name: "--trace-json",
        arg: Some("<file>"),
        help: "write the full run trace as JSON to <file>",
    },
    FlagSpec {
        name: "--metrics",
        arg: None,
        help: "collect metrics and print the sorted metric table (stderr)",
    },
    FlagSpec {
        name: "--chrome-trace",
        arg: Some("<file>"),
        help: "write a Chrome trace-event JSON (Perfetto-loadable) to <file>",
    },
];

/// Flag pairs that contradict each other (exit code 2).
const CONFLICTS: &[(&str, &str, &str)] = &[(
    "--no-memo",
    "--explain",
    "explain traces report memo-hit provenance, which requires the memo table",
)];

/// Flags understood by the `serve` subcommand (in addition to the
/// pipeline baseline flags `--small`, `--no-prelude`, `--no-memo`,
/// and `--no-share`, which set the base options for every request).
const SERVE_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--workers",
        arg: Some("<n>"),
        help: "worker threads (default: cores, capped at 4)",
    },
    FlagSpec {
        name: "--queue",
        arg: Some("<n>"),
        help: "admission queue capacity; a full queue sheds (default 64)",
    },
    FlagSpec {
        name: "--deadline-ms",
        arg: Some("<ms>"),
        help: "default per-request deadline (requests may override)",
    },
    FlagSpec {
        name: "--faults",
        arg: Some("<spec>"),
        help: "deterministic fault injection, e.g. seed=42;elaborate=panic%30",
    },
    FlagSpec {
        name: "--record",
        arg: None,
        help: "enable the flight recorder (tail-sampled traces; drain with {\"cmd\":\"dump\"})",
    },
    FlagSpec {
        name: "--record-capacity",
        arg: Some("<n>"),
        help: "per-worker event ring capacity (implies --record; default 4096)",
    },
    FlagSpec {
        name: "--latency-threshold-us",
        arg: Some("<us>"),
        help: "retain any request slower than this (implies --record)",
    },
    FlagSpec {
        name: "--sample-every",
        arg: Some("<n>"),
        help: "head-sample every Nth request's trace (implies --record; 0 = off)",
    },
    FlagSpec {
        name: "--max-retained",
        arg: Some("<n>"),
        help: "retained-trace store cap; overflow counts as dropped (default 256)",
    },
    FlagSpec {
        name: "--listen",
        arg: Some("<host:port>"),
        help: "serve the same protocol over TCP instead of stdin (port 0 picks a free port)",
    },
    FlagSpec {
        name: "--port-file",
        arg: Some("<file>"),
        help: "with --listen, write the bound address to <file> once listening",
    },
    FlagSpec {
        name: "--access-log",
        arg: Some("<file|->"),
        help: "append one JSONL access record per request (`-` logs to stderr)",
    },
];

/// Flags understood by the `top` subcommand.
const TOP_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--connect",
        arg: Some("<host:port>"),
        help: "address of a `serve --listen` server (required)",
    },
    FlagSpec {
        name: "--interval-ms",
        arg: Some("<ms>"),
        help: "watch subscription interval (default 1000)",
    },
    FlagSpec {
        name: "--frames",
        arg: Some("<n>"),
        help: "exit after <n> dashboard frames (default: run until the server closes)",
    },
    FlagSpec {
        name: "--plain",
        arg: None,
        help: "append frames instead of redrawing in place (no ANSI escapes)",
    },
];

/// Flags understood by the `report` subcommand.
const REPORT_FLAGS: &[FlagSpec] = &[FlagSpec {
    name: "--chrome",
    arg: Some("<file>"),
    help: "also write the traces as Chrome trace-event JSON (Perfetto-loadable)",
}];

fn usage() -> String {
    let mut out = String::from(
        "usage: run [options] [program.mh]   (reads stdin when no file is given)\n\
         \x20      run serve [serve options]   (JSONL requests on stdin, responses on stdout)\n\
         \x20      run top --connect=<host:port> [top options]   (live telemetry dashboard)\n\
         \x20      run json-check <file|->   (validate each line as RFC 8259 JSON)\n\
         \x20      run report <dump.jsonl> [report options]   (aggregate a dumped event log)\n\noptions:\n",
    );
    for f in FLAGS {
        let left = match f.arg {
            Some(a) => format!("{}={}", f.name, a),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {left:<36} {}\n", f.help));
    }
    out.push_str("\nserve options:\n");
    for f in SERVE_FLAGS {
        let left = match f.arg {
            Some(a) => format!("{}={}", f.name, a),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {left:<36} {}\n", f.help));
    }
    out.push_str("\ntop options:\n");
    for f in TOP_FLAGS {
        let left = match f.arg {
            Some(a) => format!("{}={}", f.name, a),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {left:<36} {}\n", f.help));
    }
    out.push_str("\nreport options:\n");
    for f in REPORT_FLAGS {
        let left = match f.arg {
            Some(a) => format!("{}={}", f.name, a),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {left:<36} {}\n", f.help));
    }
    out
}

/// Levenshtein distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest known flag name, if it is close enough to be a
/// plausible typo.
fn suggest(unknown: &str) -> Option<&'static str> {
    let name = unknown.split('=').next().unwrap_or(unknown);
    FLAGS
        .iter()
        .map(|f| (edit_distance(name, f.name), f.name))
        .min()
        .filter(|(d, _)| *d <= 3)
        .map(|(_, n)| n)
}

/// Write to stdout without panicking when the reader hung up (`head`,
/// a dead pipe): returns whether the caller should keep emitting.
/// Rust ignores `SIGPIPE`, so an unguarded `println!` would panic.
fn emit(text: &str) -> bool {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .is_ok()
}

/// Is `s` shaped like a diagnostic code (`E0420`, `L0008`, `S0442`, ...)?
fn looks_like_code(s: &str) -> bool {
    s.len() == 5
        && (s.starts_with('E') || s.starts_with('L') || s.starts_with('S'))
        && s[1..].chars().all(|c| c.is_ascii_digit())
}

/// Pipeline error codes that are not lint/coherence rules: stable
/// resolver and driver codes, with the same one-line style as
/// [`Rule::description`].
const ERROR_CODES: &[(&str, &str, &str)] = &[
    (
        "E0210",
        "empty-case",
        "a `case` expression has no alternatives; at least one `pattern -> \
         expression` arm is required",
    ),
    (
        "E0211",
        "bad-pattern",
        "a `case` pattern is malformed: patterns are a constructor applied \
         to variable binders (`Cons x xs`), a variable, or `_`",
    ),
    (
        "E0212",
        "bad-deriving",
        "a `deriving` clause is malformed or names an underivable class; \
         only `Eq` and `Ord` can be derived",
    ),
    (
        "E0317",
        "duplicate-data-type",
        "a `data` declaration redefines an existing data type (or a builtin \
         like `Bool`/`List`), or repeats a type parameter",
    ),
    (
        "E0318",
        "duplicate-constructor",
        "a data constructor name is already defined by an earlier `data` \
         declaration; constructor names share one global namespace",
    ),
    (
        "E0319",
        "unbound-type-variable",
        "a constructor field mentions a type variable that is not a \
         parameter of its `data` declaration",
    ),
    (
        "E0403",
        "type-too-large",
        "a type outgrew one of the type checker's three size limits: one \
         unification compared more pairs of nodes than its work budget; \
         the program's types filled the request's type store past its cap \
         (reported once per binding group or instance method, and nothing \
         after it is type-checked); or an inferred type has more nodes as \
         a tree than a scheme may hold (the binding gets `forall a. a`)",
    ),
    (
        "E0416",
        "pattern-arity",
        "a constructor pattern binds the wrong number of fields for its \
         constructor",
    ),
    (
        "E0420",
        "resolution-cycle",
        "instance resolution entered a cycle: a goal recurred as its own \
         subgoal while walking instance contexts",
    ),
    (
        "E0421",
        "resolution-budget",
        "instance resolution exceeded its depth/work budget before finding \
         a derivation",
    ),
    (
        "E0422",
        "unknown-class",
        "a constraint names a class that is not defined by the program or \
         the prelude",
    ),
    (
        "E0423",
        "resolution-cancelled",
        "instance resolution was cancelled cooperatively (request deadline \
         or client abort)",
    ),
    (
        "E0430",
        "compile-cancelled",
        "the pipeline hit its deadline and stopped at a stage boundary \
         before finishing compilation",
    ),
    (
        "S0440",
        "serve-internal",
        "a request panicked inside the pipeline; isolation answered \
         `error:\"internal\"` and (with the flight recorder on) retained the \
         trace, whose events name the failing stage",
    ),
    (
        "S0441",
        "serve-deadline",
        "a request exceeded its deadline (in the queue or mid-stage) and \
         answered `error:\"deadline\"`; the retained trace's `cancelled` \
         event names the stage where the deadline tripped",
    ),
    (
        "S0442",
        "serve-overloaded",
        "admission shed the request because the queue was full; the \
         `retry_after_ms` hint scales with the backlog each worker must \
         clear, and the retained trace carries a `shed` event",
    ),
    (
        "S0443",
        "serve-bad-request",
        "the request line was not a valid request object (malformed JSON, \
         missing `program`, or a bad field type); nothing was compiled",
    ),
    (
        "S0444",
        "serve-watch",
        "`{\"cmd\":\"watch\",\"interval_ms\":N}` streams one fleet-telemetry \
         delta line per interval over the socket transport (counters as \
         differences, per-class rps/p50/p99 from differenced histograms); \
         the stream ends when the connection closes, and the stdin \
         transport rejects it as a bad request because there is no \
         connection to stream to",
    ),
    (
        "S0445",
        "serve-health",
        "`{\"cmd\":\"health\"}` is an O(1) readiness/liveness probe — queue \
         depth vs capacity, worker liveness, shed rate over the last \
         window, retained-trace backlog — that bypasses admission and \
         stays out of `serve.requests`, so it answers even when the \
         admission queue is saturated",
    ),
    (
        "S0446",
        "serve-access-log",
        "`--access-log <file|->` appends one JSONL record per request on \
         the completion path (id, seq, outcome class, latency_us, trace \
         retention decision, worker), so every request leaves a greppable \
         record even when its flight-recorder trace is not retained",
    ),
    (
        "S0447",
        "serve-top",
        "`run top --connect=<host:port>` subscribes to a socket server via \
         `watch` and renders a self-refreshing terminal dashboard: qps, \
         per-class latency quantiles, queue occupancy, cache hit rate, and \
         shed/fault counters",
    ),
];

/// The codes-table entry for `code`: `(code, rule-name, default, text)`.
fn explain_entry(code: &str) -> Option<(String, String, &'static str, String)> {
    if let Some((c, n, d)) = ERROR_CODES.iter().find(|(c, _, _)| *c == code) {
        return Some(((*c).into(), (*n).into(), "error", (*d).into()));
    }
    if let Some(r) = typeclasses::lint::Rule::ALL
        .iter()
        .find(|r| r.code() == code)
    {
        return Some((
            r.code().into(),
            r.name().into(),
            "warn by default",
            r.description().into(),
        ));
    }
    if let Some(r) = typeclasses::coherence::Rule::ALL
        .iter()
        .copied()
        .find(|r| r.code() == code)
    {
        let default = match r.default_level() {
            LintLevel::Deny => "deny by default",
            LintLevel::Warn => "warn by default",
            LintLevel::Allow => "allow by default",
        };
        return Some((
            r.code().into(),
            r.name().into(),
            default,
            r.description().into(),
        ));
    }
    None
}

/// `--explain <CODE>`: print one codes-table entry and exit. Unknown
/// codes exit 2 with the full table so the caller can find the one
/// they meant.
fn explain_code_main(code: &str) -> ExitCode {
    match explain_entry(code) {
        Some((code, name, default, text)) => {
            let _ = emit(&format!("{code} ({name}, {default})\n  {text}\n"));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: unknown diagnostic code `{code}`; known codes:");
            for (c, n, _) in ERROR_CODES {
                eprintln!("  {c} ({n})");
            }
            for r in typeclasses::lint::Rule::ALL {
                eprintln!("  {} ({})", r.code(), r.name());
            }
            for r in typeclasses::coherence::Rule::ALL {
                eprintln!("  {} ({})", r.code(), r.name());
            }
            ExitCode::from(2)
        }
    }
}

/// Parse an unsigned flag value, exiting with usage (code 2) on junk.
fn parse_num(flag: &str, value: &str) -> Result<u64, ExitCode> {
    value.parse::<u64>().map_err(|_| {
        eprintln!("error: bad value for `{flag}`: `{value}` (expected a non-negative integer)");
        ExitCode::from(2)
    })
}

/// The `serve` subcommand: stream JSONL requests from stdin through a
/// bounded worker pool and answer each one on stdout. A one-line
/// session summary goes to stderr at EOF.
fn serve_main(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut listen: Option<String> = None;
    let mut port_file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--small" => cfg.options.budget = Budget::small(),
            "--no-prelude" => cfg.options.use_prelude = false,
            "--no-memo" => cfg.options.memoize_resolution = false,
            "--no-share" => cfg.options.share_dictionaries = false,
            _ if arg.starts_with("--workers=") => {
                match parse_num("--workers", &arg["--workers=".len()..]) {
                    Ok(n) => cfg.workers = (n as usize).max(1),
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--queue=") => {
                match parse_num("--queue", &arg["--queue=".len()..]) {
                    Ok(n) => cfg.queue_capacity = (n as usize).max(1),
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--deadline-ms=") => {
                match parse_num("--deadline-ms", &arg["--deadline-ms=".len()..]) {
                    Ok(n) => cfg.default_deadline_ms = Some(n),
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--faults=") => {
                match FaultPlan::parse(&arg["--faults=".len()..]) {
                    Ok(plan) => cfg.faults = Some(plan),
                    Err(e) => {
                        eprintln!("error: bad --faults spec: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--record" => cfg.recorder.enabled = true,
            _ if arg.starts_with("--record-capacity=") => {
                match parse_num("--record-capacity", &arg["--record-capacity=".len()..]) {
                    Ok(n) => {
                        cfg.recorder.enabled = true;
                        cfg.recorder.capacity = (n as usize).max(1);
                    }
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--latency-threshold-us=") => {
                match parse_num(
                    "--latency-threshold-us",
                    &arg["--latency-threshold-us=".len()..],
                ) {
                    Ok(n) => {
                        cfg.recorder.enabled = true;
                        cfg.recorder.latency_threshold_us = n;
                    }
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--sample-every=") => {
                match parse_num("--sample-every", &arg["--sample-every=".len()..]) {
                    Ok(n) => {
                        cfg.recorder.enabled = true;
                        cfg.recorder.sample_every = n;
                    }
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--max-retained=") => {
                match parse_num("--max-retained", &arg["--max-retained=".len()..]) {
                    Ok(n) => cfg.recorder.max_retained = (n as usize).max(1),
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--listen=") => {
                listen = Some(arg["--listen=".len()..].to_string());
            }
            _ if arg.starts_with("--port-file=") => {
                port_file = Some(arg["--port-file=".len()..].to_string());
            }
            _ if arg.starts_with("--access-log=") => {
                match typeclasses::serve::AccessLog::create(&arg["--access-log=".len()..]) {
                    Ok(log) => cfg.access_log = Some(log),
                    Err(e) => {
                        eprintln!("error: cannot open access log: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => {
                eprintln!("error: unknown serve option `{arg}`");
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let summary = if let Some(addr) = listen {
        // Socket transport: bind first (so port 0 resolves), announce,
        // then serve until the process is killed.
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: cannot listen on {addr}: {e}");
                return ExitCode::from(2);
            }
        };
        let handle = match typeclasses::serve::serve_socket(listener, &cfg) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: cannot start socket server: {e}");
                return ExitCode::from(2);
            }
        };
        let bound = handle.addr();
        if let Some(p) = &port_file {
            if let Err(e) = std::fs::write(p, format!("{bound}\n")) {
                eprintln!("error: cannot write {p}: {e}");
                return ExitCode::from(2);
            }
        }
        eprintln!("serve: listening on {bound} (health: {{\"cmd\":\"health\"}}; live view: run top --connect={bound})");
        handle.wait()
    } else {
        if port_file.is_some() {
            eprintln!("error: --port-file only makes sense with --listen");
            return ExitCode::from(2);
        }
        let stdin = std::io::stdin().lock();
        let stdout = std::io::stdout();
        typeclasses::serve::serve(stdin, stdout, &cfg)
    };
    eprintln!(
        "serve: {} requests ({} ok, {} internal, {} deadline, {} shed, {} bad), {} responses",
        summary.lines,
        summary.ok(),
        summary.internal(),
        summary.deadline(),
        summary.shed(),
        summary.bad_requests(),
        summary.responses,
    );
    if cfg.recorder.enabled {
        eprintln!(
            "serve: flight recorder retained {} traces ({} dropped, {} still undumped)",
            summary.traces_retained(),
            summary.traces_dropped(),
            summary.retained.len(),
        );
    }
    if summary.write_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Render one `watch` tick as a dashboard frame: a header line, a
/// one-line gauge row, and the per-outcome-class rate table.
fn render_top_frame(addr: &str, v: &typeclasses::trace::json::Value) -> String {
    let num = |k: &str| v.get(k).and_then(|n| n.as_u64()).unwrap_or(0);
    let mut out = format!(
        "tc top — {addr} · tick {} · window {} ms · uptime {:.1}s\n",
        num("tick"),
        num("window_ms"),
        num("uptime_ms") as f64 / 1000.0,
    );
    let sub = |obj: &str, k: &str| {
        v.get(obj)
            .and_then(|o| o.get(k))
            .and_then(|n| n.as_u64())
            .unwrap_or(0)
    };
    let hit_rate = v
        .get("cache")
        .and_then(|c| c.get("hit_rate_pct"))
        .and_then(|n| n.as_f64())
        .unwrap_or(0.0);
    out.push_str(&format!(
        "qps {:.2} · queue {}/{} · connections {} · shed {} · faults {} · \
         cache {hit_rate:.1}% ({} hit / {} miss)\n\n",
        v.get("qps").and_then(|n| n.as_f64()).unwrap_or(0.0),
        sub("queue", "depth"),
        sub("queue", "capacity"),
        num("active_connections"),
        num("shed"),
        num("faults"),
        sub("cache", "hits"),
        sub("cache", "misses"),
    ));
    out.push_str(&format!(
        "  {:<12} {:>8} {:>10} {:>12} {:>12}\n",
        "class", "count", "rps", "p50_us", "p99_us"
    ));
    for class in ["ok", "internal", "deadline", "overloaded"] {
        let Some(c) = v.get("classes").and_then(|cs| cs.get(class)) else {
            continue;
        };
        let quantile = |k: &str| {
            c.get(k)
                .and_then(|n| n.as_f64())
                .map_or_else(|| "-".to_string(), |x| format!("{x:.1}"))
        };
        out.push_str(&format!(
            "  {:<12} {:>8} {:>10.2} {:>12} {:>12}\n",
            class,
            c.get("count").and_then(|n| n.as_u64()).unwrap_or(0),
            c.get("rps").and_then(|n| n.as_f64()).unwrap_or(0.0),
            quantile("p50"),
            quantile("p99"),
        ));
    }
    out
}

/// The `top` subcommand: subscribe to a socket server's `watch`
/// stream and redraw a telemetry dashboard on every tick.
fn top_main(args: &[String]) -> ExitCode {
    use typeclasses::trace::json;
    let mut addr: Option<String> = None;
    let mut interval_ms = 1000u64;
    let mut frames = 0u64;
    let mut plain = false;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--plain" => plain = true,
            _ if arg.starts_with("--connect=") => {
                addr = Some(arg["--connect=".len()..].to_string());
            }
            _ if arg.starts_with("--interval-ms=") => {
                match parse_num("--interval-ms", &arg["--interval-ms=".len()..]) {
                    Ok(n) => interval_ms = n.max(10),
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--frames=") => {
                match parse_num("--frames", &arg["--frames=".len()..]) {
                    Ok(n) => frames = n,
                    Err(code) => return code,
                }
            }
            _ => {
                eprintln!("error: unknown top option `{arg}`");
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!(
            "error: top needs --connect=<host:port> (start a server with `run serve --listen=...`)"
        );
        return ExitCode::from(2);
    };
    let stream = match std::net::TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot split the connection: {e}");
            return ExitCode::from(2);
        }
    };
    let sub = format!("{{\"id\":\"top\",\"cmd\":\"watch\",\"interval_ms\":{interval_ms}}}\n");
    if writer
        .write_all(sub.as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        eprintln!("error: cannot send the watch subscription to {addr}");
        return ExitCode::FAILURE;
    }

    use std::io::BufRead;
    let reader = std::io::BufReader::new(stream);
    let mut shown = 0u64;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = json::parse(line) else { continue };
        if v.get("status").and_then(|s| s.as_str()) == Some("error") {
            eprintln!(
                "error: server rejected the subscription: {}",
                v.get("detail").and_then(|d| d.as_str()).unwrap_or("?")
            );
            return ExitCode::from(2);
        }
        if v.get("tick").is_none() {
            continue; // the subscription ack
        }
        shown += 1;
        if !plain && !emit("\x1b[2J\x1b[H") {
            return ExitCode::SUCCESS;
        }
        if !emit(&render_top_frame(&addr, &v)) {
            return ExitCode::SUCCESS;
        }
        if frames > 0 && shown >= frames {
            break;
        }
    }
    if shown == 0 {
        eprintln!("error: {addr} closed the stream before the first tick");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `json-check` subcommand: validate every nonempty line of a
/// file (or stdin, with `-`) against the strict RFC 8259 checker.
/// Exit 0 only when every line passes.
fn json_check_main(args: &[String]) -> ExitCode {
    use typeclasses::trace::json;
    let [path] = args else {
        eprintln!("error: json-check takes exactly one file (or `-` for stdin)");
        return ExitCode::from(2);
    };
    let text = if path == "-" {
        let mut s = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut s) {
            eprintln!("error: cannot read stdin: {e}");
            return ExitCode::from(2);
        }
        s
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let mut checked = 0u64;
    let mut bad = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        checked += 1;
        if let Err(e) = json::check(line) {
            bad += 1;
            eprintln!("{path}:{}: {e}", i + 1);
        }
    }
    if bad > 0 {
        eprintln!("json-check: {bad} of {checked} line(s) failed");
        return ExitCode::FAILURE;
    }
    let _ = emit(&format!("json-check: {checked} line(s) ok\n"));
    ExitCode::SUCCESS
}

/// One trace pulled back out of a dump file.
struct ReportTrace {
    trace_id: u64,
    outcome: String,
    reason: String,
    latency_us: u64,
    events: Vec<typeclasses::Event>,
}

/// Exact nearest-rank quantile over a sorted sample.
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `report` subcommand: aggregate a dumped event-log file (the
/// serve session's output, or just its `dump` response lines) into a
/// latency / error / cache-behavior report, optionally also writing
/// the traces as a Chrome trace-event document.
fn report_main(args: &[String]) -> ExitCode {
    use typeclasses::trace::json;
    use typeclasses::EventKind;

    let mut path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with("--chrome=") => {
                chrome_path = Some(arg["--chrome=".len()..].to_string());
            }
            _ if arg.starts_with('-') => {
                eprintln!("error: unknown report option `{arg}`");
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
            _ => {
                if path.is_some() {
                    eprintln!("error: report takes exactly one dump file");
                    return ExitCode::from(2);
                }
                path = Some(arg.clone());
            }
        }
    }
    let Some(path) = path else {
        eprintln!("error: report needs a dump file (JSONL from a `serve --record` session)");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut traces: Vec<ReportTrace> = Vec::new();
    let mut dump_lines = 0u64;
    let mut other_lines = 0u64;
    let mut dropped = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = json::parse(line) else {
            other_lines += 1;
            continue;
        };
        let objs: Vec<&json::Value> = if let Some(arr) = v.get("traces").and_then(|t| t.as_array())
        {
            // A `dump` response line: every retained trace at once.
            dump_lines += 1;
            dropped += v.get("dropped").and_then(|n| n.as_u64()).unwrap_or(0);
            arr.iter().collect()
        } else if v.get("trace_id").is_some() && v.get("events").is_some() {
            // A bare trace object (one per line).
            vec![&v]
        } else {
            other_lines += 1;
            continue;
        };
        for t in objs {
            let Some(trace_id) = t.get("trace_id").and_then(|n| n.as_u64()) else {
                continue;
            };
            let events = t
                .get("events")
                .and_then(|e| e.as_array())
                .map(|evs| {
                    evs.iter()
                        .filter_map(|e| typeclasses::Event::from_json(trace_id, e))
                        .collect()
                })
                .unwrap_or_default();
            traces.push(ReportTrace {
                trace_id,
                outcome: t
                    .get("outcome")
                    .and_then(|s| s.as_str())
                    .unwrap_or("ok")
                    .to_string(),
                reason: t
                    .get("reason")
                    .and_then(|s| s.as_str())
                    .unwrap_or("?")
                    .to_string(),
                latency_us: t.get("latency_us").and_then(|n| n.as_u64()).unwrap_or(0),
                events,
            });
        }
    }
    if traces.is_empty() && dump_lines == 0 {
        eprintln!("error: {path} contains no dump responses or trace objects");
        return ExitCode::from(2);
    }
    traces.sort_by_key(|t| t.trace_id);

    use std::collections::BTreeMap;
    let mut report = format!(
        "flight report: {path}\n  {} trace(s) from {} dump line(s) ({} dropped at the server, {} other line(s) ignored)\n",
        traces.len(),
        dump_lines,
        dropped,
        other_lines,
    );

    // Latency per outcome class, exact quantiles over the retained
    // sample (the server's `stats` reports the streaming-histogram
    // view of the same distribution).
    let mut by_outcome: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut by_reason: BTreeMap<&str, u64> = BTreeMap::new();
    for t in &traces {
        by_outcome.entry(&t.outcome).or_default().push(t.latency_us);
        *by_reason.entry(&t.reason).or_default() += 1;
    }
    report.push_str("\nlatency_us by outcome:\n");
    report.push_str(&format!(
        "  {:<12} {:>6} {:>8} {:>8} {:>8} {:>8}\n",
        "outcome", "count", "p50", "p90", "p99", "max"
    ));
    for (outcome, mut lats) in by_outcome {
        lats.sort_unstable();
        report.push_str(&format!(
            "  {:<12} {:>6} {:>8} {:>8} {:>8} {:>8}\n",
            outcome,
            lats.len(),
            pct(&lats, 0.5),
            pct(&lats, 0.9),
            pct(&lats, 0.99),
            lats.last().copied().unwrap_or(0),
        ));
    }
    report.push_str("\nretention reasons:\n");
    for (reason, n) in by_reason {
        report.push_str(&format!("  {reason:<12} {n:>6}\n"));
    }

    // Stage behavior: completed spans with mean duration, plus the
    // stages that never finished (panics, deadlines).
    let mut stages: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // (count, total_ns)
    let mut unfinished: BTreeMap<&str, u64> = BTreeMap::new();
    let mut goals = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    let mut cancelled: BTreeMap<String, u64> = BTreeMap::new();
    let mut sheds = 0u64;
    for t in &traces {
        for s in stage_spans(&t.events) {
            if s.finished {
                let e = stages.entry(s.stage.name()).or_default();
                e.0 += 1;
                e.1 += s.duration_ns;
            } else {
                *unfinished.entry(s.stage.name()).or_default() += 1;
            }
        }
        for e in &t.events {
            match e.kind {
                EventKind::Goal => {
                    goals += 1;
                    match e.arg1 {
                        0 => misses += 1,
                        1 => hits += 1,
                        _ => {}
                    }
                }
                EventKind::FaultInjected => {
                    let action = match e.arg1 {
                        0 => "panic",
                        1 => "delay",
                        _ => "budget",
                    };
                    *faults.entry(action).or_default() += 1;
                }
                EventKind::Cancelled => {
                    let stage = typeclasses::Stage::ALL
                        .get(e.arg0 as usize)
                        .map_or("?", |s| s.name());
                    *cancelled.entry(stage.to_string()).or_default() += 1;
                }
                EventKind::Shed => sheds += 1,
                _ => {}
            }
        }
    }
    report.push_str("\nstages (completed spans):\n");
    report.push_str(&format!(
        "  {:<12} {:>6} {:>10}\n",
        "stage", "spans", "mean_us"
    ));
    for (stage, (count, total_ns)) in &stages {
        report.push_str(&format!(
            "  {:<12} {:>6} {:>10.1}\n",
            stage,
            count,
            *total_ns as f64 / 1e3 / (*count).max(1) as f64,
        ));
    }
    if !unfinished.is_empty() {
        report.push_str("stages that never finished (panic/deadline):\n");
        for (stage, n) in &unfinished {
            report.push_str(&format!("  {stage:<12} {n:>6}\n"));
        }
    }
    report.push_str(&format!(
        "\ncache: {goals} goal(s) ({hits} memo hits, {misses} misses)\n"
    ));
    if !faults.is_empty() {
        let parts: Vec<String> = faults.iter().map(|(a, n)| format!("{a}={n}")).collect();
        report.push_str(&format!("faults injected: {}\n", parts.join(", ")));
    }
    if !cancelled.is_empty() {
        let parts: Vec<String> = cancelled.iter().map(|(s, n)| format!("{s}={n}")).collect();
        report.push_str(&format!(
            "deadline cancellations by stage: {}\n",
            parts.join(", ")
        ));
    }
    if sheds > 0 {
        report.push_str(&format!("shed at admission: {sheds}\n"));
    }
    if !emit(&report) {
        return ExitCode::SUCCESS;
    }

    if let Some(p) = &chrome_path {
        let spans: Vec<(u64, Vec<typeclasses::SpanEvent>)> = traces
            .iter()
            .map(|t| (t.trace_id, chrome_spans(&t.events)))
            .collect();
        if let Err(e) = std::fs::write(p, traces_chrome_json(&spans)) {
            eprintln!("error: cannot write {p}: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("report") {
        return report_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("top") {
        return top_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("json-check") {
        return json_check_main(&args[1..]);
    }

    // `--explain <CODE>` / `--explain=<CODE>` is a lookup, not a run:
    // answer it before touching any input. A bare `--explain` (no code
    // following) keeps its derivation-trace meaning below.
    if let Some(code) = args.iter().enumerate().find_map(|(i, a)| {
        a.strip_prefix("--explain=")
            .map(str::to_string)
            .or_else(|| {
                (a == "--explain")
                    .then(|| args.get(i + 1))
                    .flatten()
                    .filter(|c| looks_like_code(c))
                    .cloned()
            })
    }) {
        return explain_code_main(&code);
    }

    let mut opts = Options::default();
    let mut dump_core = false;
    let mut lint = false;
    let mut stats = false;
    let mut explain = false;
    let mut profile = false;
    let mut show_timing = false;
    let mut metrics = false;
    let mut trace_json_path: Option<String> = None;
    let mut chrome_trace_path: Option<String> = None;
    let mut path: Option<String> = None;
    let mut seen: Vec<&'static str> = Vec::new();

    for arg in args {
        if let Some(f) = FLAGS
            .iter()
            .find(|f| arg == f.name || arg.starts_with(&format!("{}=", f.name)))
        {
            seen.push(f.name);
        }
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--small" => opts.budget = Budget::small(),
            "--core" => dump_core = true,
            "--no-prelude" => opts.use_prelude = false,
            "--stats" => stats = true,
            "--no-memo" => opts.memoize_resolution = false,
            "--no-share" => opts.share_dictionaries = false,
            "--lint" => lint = true,
            "--deny-lints" => {
                lint = true;
                opts.lint_levels = LintConfig::all(LintLevel::Deny);
            }
            "--time" | "--trace" => show_timing = true,
            "--explain" => {
                opts.trace_resolution = true;
                explain = true;
            }
            "--profile" => {
                opts.profile_eval = true;
                profile = true;
            }
            "--check-laws" => opts.check_laws = true,
            "--metrics" => {
                opts.collect_metrics = true;
                metrics = true;
            }
            _ if arg.starts_with("--chrome-trace=") => {
                chrome_trace_path = Some(arg["--chrome-trace=".len()..].to_string());
            }
            _ if arg.starts_with("--trace-json=") => {
                trace_json_path = Some(arg["--trace-json=".len()..].to_string());
            }
            _ if arg.starts_with("--law-budget=") => {
                match parse_num("--law-budget", &arg["--law-budget=".len()..]) {
                    Ok(n) => {
                        opts.check_laws = true;
                        opts.law_budget.fuel = n.max(1);
                    }
                    Err(code) => return code,
                }
            }
            _ if arg.starts_with("--lint-level=") => {
                let spec = &arg["--lint-level=".len()..];
                // Lint rules switch the lint pass on; coherence rules
                // always run, so their overrides only adjust levels.
                let ok = match spec.split_once('=') {
                    Some((rule, level)) => {
                        if opts.lint_levels.set_by_name(rule, level) {
                            lint = true;
                            true
                        } else {
                            opts.coherence_levels.set_by_name(rule, level)
                        }
                    }
                    None => false,
                };
                if !ok {
                    eprintln!(
                        "error: bad lint level `{spec}` \
                         (expected <rule>=<allow|warn|deny>, e.g. unused-binding=allow \
                         or overlapping-instances=warn)"
                    );
                    return ExitCode::from(2);
                }
            }
            _ if arg.starts_with('-') => {
                match suggest(&arg) {
                    Some(s) => eprintln!("error: unknown option `{arg}` (did you mean `{s}`?)"),
                    None => eprintln!("error: unknown option `{arg}`"),
                }
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
            _ => path = Some(arg),
        }
    }

    for (a, b, why) in CONFLICTS {
        if seen.contains(a) && seen.contains(b) {
            eprintln!("error: `{a}` conflicts with `{b}`: {why}");
            return ExitCode::from(2);
        }
    }

    let src = match &path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("error: cannot read stdin: {e}");
                return ExitCode::from(2);
            }
            s
        }
    };

    // The timing views read the run's flight recording.
    let timing = if show_timing || trace_json_path.is_some() || chrome_trace_path.is_some() {
        EventLog::with_capacity(TIMING_RING)
    } else {
        EventLog::off()
    };
    opts.events = timing.scope(TIMING_TRACE);
    let check = if lint {
        typeclasses::lint_source(&src, &opts)
    } else {
        typeclasses::check_source(&src, &opts)
    };
    let r = run_checked(check, &opts);

    if !r.check.diags.is_empty() {
        eprintln!("{}", r.check.render_diagnostics());
    }
    if dump_core && !emit(&format!("{}\n", r.check.pretty_core())) {
        return ExitCode::SUCCESS;
    }
    if explain {
        let shown = match r.check.render_explain() {
            Some(t) if !t.is_empty() => emit(&t),
            _ => emit("(no resolution goals)\n"),
        };
        if !shown {
            return ExitCode::SUCCESS;
        }
    }
    // Stats are printed after the run so evaluator counters (fuel,
    // allocations) are included when the program was evaluated.
    if stats {
        eprintln!("{}", r.check.stats.to_json());
        let rs = &r.check.stats.resolve;
        eprintln!(
            "resolution: {} hits / {} misses ({:.1}% hit rate)",
            rs.table_hits,
            rs.table_misses,
            rs.hit_rate() * 100.0
        );
    }
    if metrics {
        eprint!("{}", r.check.stats.metrics.render_table());
    }
    let events = match timing.extract_whole(TIMING_TRACE) {
        Ok(events) => events,
        Err(notice) => {
            eprintln!("error: {notice}");
            return ExitCode::from(2);
        }
    };
    if show_timing {
        eprint!("{}", timing_table(&events, &r.check.counters()));
    }
    if profile {
        match &r.profile {
            Some(p) => eprint!("{}", p.render_table()),
            None => eprintln!("note: nothing was evaluated, so there is no profile"),
        }
    }
    if let Some(p) = &trace_json_path {
        if let Err(e) = std::fs::write(p, r.trace_json(&events)) {
            eprintln!("error: cannot write {p}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(p) = &chrome_trace_path {
        let doc = traces_chrome_json(&[(TIMING_TRACE, chrome_spans(&events))]);
        if let Err(e) = std::fs::write(p, doc) {
            eprintln!("error: cannot write {p}: {e}");
            return ExitCode::from(2);
        }
    }

    match r.outcome {
        Outcome::Value(v) => {
            // A closed pipe here is the reader's choice, not a failure.
            let _ = emit(&format!("{v}\n"));
            ExitCode::SUCCESS
        }
        Outcome::NoMain => {
            eprintln!("note: program has no `main`; nothing to evaluate");
            ExitCode::SUCCESS
        }
        Outcome::CompileErrors => ExitCode::FAILURE,
        Outcome::Eval(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::from(3)
        }
    }
}
