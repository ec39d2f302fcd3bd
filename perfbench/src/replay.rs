//! The traced run's in-process half: each request replayed through every
//! crate's public entry point, in the driver's order, with the driver's
//! prelude splice and options. Each call is a span whose parent is the
//! request span; the spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use tc_classes::build_class_env;
use tc_coherence::{check_coherence, CoherenceInput};
use tc_core::{elaborate_with, ElabOptions};
use tc_coreir::share_program_metered;
use tc_driver::{Options, Outcome, PRELUDE};
use tc_eval::{run_entry_with, EvalOptions, EvalRun};
use tc_lint::{run_lints, LintInput};
use tc_trace::{EventLog, MetricsRegistry, SpanEvent};
use tc_types::VarGen;

/// Per-worker ring size of the server's flight recorder (its default).
const RECORDER_CAPACITY: usize = 4096;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span; `None` for a request span and for
    /// off-path calls.
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span; returns its result and duration in µs.
    fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (out, (end_ns - start_ns) as f64 / 1e3)
    }

    /// A span's duration minus the time its children cover, in µs.
    fn self_time_us(&self, index: usize) -> f64 {
        let s = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns - children) as f64 / 1e3
    }

    /// The spans as a Chrome trace-event document, one track per
    /// request.
    pub fn chrome_json(&self) -> String {
        let mut tracks: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
        for s in &self.spans {
            let cat = match s.parent {
                Some(_) => "layer",
                None if s.name == "request" => "request",
                None => "off-path",
            };
            tracks.entry(s.request).or_default().push(SpanEvent {
                name: s.name.to_string(),
                cat,
                start_ns: s.start_ns,
                duration_ns: s.end_ns - s.start_ns,
            });
        }
        let tracks: Vec<(u64, Vec<SpanEvent>)> = tracks.into_iter().collect();
        tc_trace::events::traces_chrome_json(&tracks)
    }
}

/// Per-request samples of each per-layer metric, by name.
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// What one pipeline run produced: the parts the replay must reproduce.
#[derive(Debug, PartialEq)]
pub struct Produced {
    pub outcome: String,
    pub codes: Vec<&'static str>,
    pub core_nodes: u64,
}

fn eval_outcome(run: &EvalRun) -> String {
    match &run.result {
        Ok(v) => format!("value {v}"),
        Err(e) => format!("eval-error {}", e.code()),
    }
}

fn add_eval(m: &mut Samples, run: &EvalRun, us: f64) {
    let fuel = run.stats.fuel_used as f64;
    m.add("eval.run_us", us);
    m.add("eval.fuel", fuel);
    m.add("eval.ns_per_fuel", us * 1e3 / fuel.max(1.0));
    m.add("eval.peak_allocs", run.stats.peak_allocs as f64);
}

/// Replay one request layer by layer. A `check` request lints and stops;
/// a `run` request evaluates `main`. The layer the request path skips
/// (lint for `run`, eval for `check`) then runs once more outside the
/// request span, so every layer reports on every workload.
pub fn replay(
    src: &str,
    check: bool,
    id: u64,
    opts: &Options,
    tr: &mut Tracer,
    m: &mut Samples,
) -> Produced {
    let root = tr.spans.len();
    let start_ns = tr.now();
    tr.spans.push(Span {
        name: "request",
        start_ns,
        end_ns: start_ns,
        parent: None,
        request: id,
    });
    let at = Some(root);

    let full = format!("{PRELUDE}\n{src}");
    let user_start = PRELUDE.len() + 1;
    let ((toks, mut diags), us) = tr.span("lex", id, at, || tc_syntax::lex(&full));
    m.add("syntax.lex_us", us);
    m.add("syntax.tokens", toks.len() as f64);
    let ((prog, pd, _), us) = tr.span("parse", id, at, || {
        tc_syntax::parse_program_with(&toks, opts.parse.clone())
    });
    diags.extend(pd);
    m.add("syntax.parse_us", us);
    let mut gen = VarGen::new();
    let ((cenv, cd), us) = tr.span("classenv", id, at, || build_class_env(&prog, &mut gen));
    diags.extend(cd);
    m.add("classes.env_us", us);
    let mut metrics = MetricsRegistry::off();
    let coherence = CoherenceInput {
        cenv: &cenv,
        user_start,
    };
    let (cd, us) = tr.span("coherence", id, at, || {
        check_coherence(&coherence, &opts.coherence_levels, &mut metrics)
    });
    diags.extend(cd);
    m.add("coherence.check_us", us);
    let ((mut elab, ed), us) = tr.span("elaborate", id, at, || {
        elaborate_with(&prog, &cenv, &mut gen, elab_options(opts))
    });
    diags.extend(ed);
    m.add("core.elaborate_us", us);
    m.add(
        "core.elaborate_us_per_binding",
        us / elab.core.binds.len().max(1) as f64,
    );
    m.add("classes.resolve_goals", elab.stats.goals as f64);
    m.add("classes.resolve_hit_ratio", elab.stats.hit_rate());
    m.add(
        "classes.dicts_constructed",
        elab.stats.dicts_constructed as f64,
    );
    // `Options::default()` shares dictionaries.
    let (share, us) = tr.span("share", id, at, || {
        share_program_metered(&mut elab.core, &mut metrics)
    });
    m.add("coreir.share_us", us);
    m.add("coreir.dicts_shared", share.occurrences_shared as f64);
    m.add("coreir.core_nodes", elab.core.node_count() as f64);
    let lint_input = LintInput {
        program: &prog,
        cenv: &cenv,
        core: &elab.core,
        user_start,
    };
    let lint = || run_lints(&lint_input, &opts.lint_levels);
    let eval_opts = EvalOptions {
        budget: opts.budget,
        ..EvalOptions::default()
    };
    let entry = elab.core.main.clone();
    let eval = |entry: &str| run_entry_with(&elab.core, entry, &eval_opts);

    let outcome = if check {
        let (ld, us) = tr.span("lint", id, at, lint);
        diags.extend(ld);
        m.add("lint.run_us", us);
        "checked".to_string()
    } else if diags.has_errors() {
        "compile-errors".to_string()
    } else if let Some(entry) = &entry {
        let (run, us) = tr.span("eval", id, at, || eval(entry));
        add_eval(m, &run, us);
        eval_outcome(&run)
    } else {
        "no-main".to_string()
    };
    tr.spans[root].end_ns = tr.now();
    m.add("replay.glue_us", tr.self_time_us(root));

    if !check {
        let (_, us) = tr.span("lint (off-path)", id, None, lint);
        m.add("lint.run_us", us);
    } else if let (false, Some(entry)) = (diags.has_errors(), &entry) {
        let (run, us) = tr.span("eval (off-path)", id, None, || eval(entry));
        add_eval(m, &run, us);
    }
    Produced {
        outcome,
        codes: diags.iter().map(|d| d.code).collect(),
        core_nodes: elab.core.node_count(),
    }
}

/// The same request through the driver's own entry point, as the server
/// runs it, with the flight recorder on or off; returns what it produced
/// and its duration in µs.
pub fn driver(src: &str, check: bool, id: u64, opts: &Options, record: bool) -> (Produced, f64) {
    let mut opts = opts.clone();
    let log = if record {
        EventLog::with_capacity(RECORDER_CAPACITY)
    } else {
        EventLog::off()
    };
    opts.events = log.scope(id);
    let t0 = Instant::now();
    let (outcome, check) = if check {
        ("checked".to_string(), tc_driver::lint_source(src, &opts))
    } else {
        let r = tc_driver::run_source(src, &opts);
        let outcome = match &r.outcome {
            Outcome::Value(v) => format!("value {v}"),
            Outcome::CompileErrors => "compile-errors".to_string(),
            Outcome::NoMain => "no-main".to_string(),
            Outcome::Eval(e) => format!("eval-error {}", e.code()),
        };
        (outcome, r.check)
    };
    let us = t0.elapsed().as_nanos() as f64 / 1e3;
    let produced = Produced {
        outcome,
        codes: check.diags.iter().map(|d| d.code).collect(),
        core_nodes: check.elab.core.node_count(),
    };
    (produced, us)
}

/// The elaboration options the driver derives from `opts`.
fn elab_options(opts: &Options) -> ElabOptions {
    ElabOptions {
        budget: opts.reduce,
        memoize: opts.memoize_resolution,
        ..ElabOptions::default()
    }
}

/// Elaborate time, in µs, of `src` behind the driver's prelude splice
/// (or of the prelude alone for an empty `src`).
pub fn elaborate_us(src: &str, opts: &Options) -> f64 {
    let full = if src.is_empty() {
        PRELUDE.to_string()
    } else {
        format!("{PRELUDE}\n{src}")
    };
    let (toks, _) = tc_syntax::lex(&full);
    let (prog, _, _) = tc_syntax::parse_program_with(&toks, opts.parse.clone());
    let mut gen = VarGen::new();
    let (cenv, _) = build_class_env(&prog, &mut gen);
    let t0 = Instant::now();
    let elab = elaborate_with(&prog, &cenv, &mut gen, elab_options(opts));
    let us = t0.elapsed().as_nanos() as f64 / 1e3;
    drop(elab);
    us
}
