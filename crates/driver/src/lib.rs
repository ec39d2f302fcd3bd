//! `tc-driver`: the end-to-end pipeline.
//!
//! One call to [`run_source`] takes Mini-Haskell source text through
//! every stage of the dictionary-passing compilation scheme of
//! Peterson & Jones:
//!
//! 1. **lex** / **parse** ([`tc_syntax`]) — error-recovering; junk
//!    input yields diagnostics plus a partial AST, never a panic;
//! 2. **class environment** ([`tc_classes`]) — class and instance
//!    declarations are checked (duplicate methods, overlapping
//!    instances, superclass cycles) and method slots laid out;
//! 3. **elaboration** ([`tc_core`]) — Hindley-Milner inference with
//!    class contexts, inserting dictionary placeholders, then the
//!    conversion pass that spells each placeholder out as a parameter
//!    reference, superclass projection, or instance application;
//! 4. **lint** ([`tc_lint`], via [`lint_source`] only) — the
//!    whole-program static-analysis pass over the surface AST, class
//!    environment, and converted core, with per-rule allow/warn/deny
//!    levels ([`Options::lint_levels`]);
//! 5. **evaluation** ([`tc_eval`]) — the lazy core interpreter runs
//!    `main` under an explicit [`Budget`] (fuel, nesting depth,
//!    allocation cap), so even adversarial programs terminate with a
//!    structured [`EvalError`].
//!
//! A prelude (classes `Eq`, `Ord`, `Num`; instances for `Int`, `Bool`
//! and `List`; `member` and the usual list functions) is in scope by
//! default. It is compiled once per process into a frozen snapshot —
//! its parsed program, class environment, generalized schemes,
//! dictionary-converted core, and counters — and each request
//! compiles only its own text on top of it: lexing and parsing it,
//! extending the class environment, checking coherence of its own
//! instances, elaborating its own bindings against the prelude's
//! schemes, then sharing, linting, and evaluating its own core linked
//! to the prelude's (lowered once per thread). The result is what
//! compiling `PRELUDE`, a newline, and the program as one text gives,
//! down to diagnostic spans — user code starts at byte
//! `PRELUDE.len() + 1` of [`Check::full_source`] — type-variable
//! numbers, and dictionary names. Two things differ by design. The
//! prelude is closed: a program cannot rebind the names the prelude's
//! own code uses; its bindings shadow builtins only for itself. And a
//! request's options reach only its own code: its budgets and injected
//! faults, and the counters, traces and events it records, cover the
//! program's work, never the prelude's. A program compiled without the
//! prelude takes the same path over an empty snapshot.
//!
//! Every stage accumulates into one [`Diagnostics`] collection; no
//! stage aborts the pipeline, so a single call reports parse errors,
//! type errors, and unresolved constraints together.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod resilience;

use resilience::{FaultOutcome, FaultSite, Faults};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use tc_classes::{build_class_env, extend_class_env, ClassEnv, ReduceBudget};
use tc_coherence::{CoherenceInput, LawInput, LawOptions};
use tc_core::{elaborate_over, ElabBase, ElabOptions, Elaboration};
use tc_coreir::{CoreProgram, Link, LinkedBase, ShareStats};
use tc_eval::{Budget, EvalError, EvalOptions, LoweredProgram};
use tc_lint::LintInput;
use tc_syntax::{Diagnostics, ParseOptions, Program, Span, Stage as DiagStage};
use tc_trace::{
    CancelToken, CounterId, Event, EventScope, HistogramId, JsonWriter, MetricsRegistry,
    Stage as TraceStage,
};
use tc_types::VarGen;

pub use resilience::FaultPlan;
pub use tc_classes::{ResolveStats, ResolveTraceLog};
pub use tc_coherence::{CoherenceConfig, Rule as CoherenceRule};
pub use tc_coreir::ShareStats as DictShareStats;
pub use tc_eval::{BudgetSnapshot, EvalProfile, EvalStats};
pub use tc_lint::{LintConfig, Rule as LintRule};
pub use tc_syntax::LintLevel;

/// Diagnostic code for a compilation cut short by its deadline (the
/// resolver's in-flight flavor of the same event is `E0423`).
pub const CANCELLED_CODE: &str = "E0430";

/// The prelude source. Programs compile as if spliced after it and a
/// newline.
pub const PRELUDE: &str = include_str!("prelude.mh");

/// What every request compiles on top of: the prelude, compiled once
/// per process, or nothing (the builtins alone).
struct Snapshot {
    /// Byte offset of user code in [`Check::full_source`].
    user_start: usize,
    /// Tokens the prelude lexes to, not counting its end marker.
    tokens: usize,
    program: Program,
    cenv: ClassEnv,
    /// The prelude's schemes, counters, and converted, shared core,
    /// which every request's core links to (the builtins alone without
    /// a prelude). Sharing hoists nothing in the prelude, so this is
    /// also its unshared core, and memoization never changes core: one
    /// snapshot serves every memo/share mode.
    elab: ElabBase,
}

static PRELUDE_SNAPSHOT: OnceLock<Snapshot> = OnceLock::new();

impl Snapshot {
    fn get(use_prelude: bool) -> &'static Snapshot {
        static NO_PRELUDE: OnceLock<Snapshot> = OnceLock::new();
        if use_prelude {
            PRELUDE_SNAPSHOT.get_or_init(Snapshot::prelude)
        } else {
            NO_PRELUDE.get_or_init(|| Snapshot {
                user_start: 0,
                tokens: 0,
                program: Program::default(),
                cenv: ClassEnv::builtin(),
                elab: ElabBase::builtins().clone(),
            })
        }
    }

    /// Compile the prelude alone, with default options: a request's
    /// budgets and injected faults apply to its own code only. The
    /// prelude is diagnostic-free (pinned by the driver's tests), so
    /// there is nothing to report.
    fn prelude() -> Snapshot {
        let (toks, _) = tc_syntax::lex(PRELUDE);
        let (program, _, _) = tc_syntax::parse_program_with(&toks, ParseOptions::default());
        let mut gen = VarGen::new();
        let (cenv, _) = build_class_env(&program, &mut gen);
        let (mut elab, _) = elaborate_over(
            &program,
            &cenv,
            ElabBase::builtins(),
            &mut gen,
            ElabOptions::default(),
        );
        tc_coreir::share_program(&mut elab.core);
        Snapshot {
            user_start: PRELUDE.len() + 1,
            tokens: toks.len() - 1,
            elab: ElabBase::of_program(&program, elab),
            program,
            cenv: cenv.into_base(),
        }
    }

    /// `core`, a program compiled on top of this snapshot, lowered for
    /// evaluation and linked to the snapshot's core.
    fn lower(&self, core: &CoreProgram) -> LoweredProgram {
        match &self.elab.core {
            Some(base) => LoweredProgram::over(lowered(base), &core.binds),
            None => LoweredProgram::new(core),
        }
    }
}

/// `base` lowered for evaluation. The prelude snapshot's core is
/// lowered once per thread (the evaluator is `Rc`-based) and reused;
/// any other base is lowered afresh.
fn lowered(base: &Arc<LinkedBase>) -> Rc<LoweredProgram> {
    thread_local! {
        static PRELUDE: OnceCell<Rc<LoweredProgram>> = const { OnceCell::new() };
    }
    let prelude = PRELUDE_SNAPSHOT.get().and_then(|s| s.elab.core.as_ref());
    if !prelude.is_some_and(|p| Arc::ptr_eq(p, base)) {
        return Rc::new(LoweredProgram::closed(&base.core));
    }
    PRELUDE.with(|l| {
        l.get_or_init(|| Rc::new(LoweredProgram::closed(&base.core)))
            .clone()
    })
}

/// Pipeline configuration: which prelude to use and how much of each
/// resource the stages may spend.
#[derive(Debug, Clone)]
pub struct Options {
    /// Compile the program on top of the standard prelude.
    pub use_prelude: bool,
    /// Parser robustness limits (expression depth, error cap, ...).
    pub parse: ParseOptions,
    /// Instance-resolution / context-reduction budget.
    pub reduce: ReduceBudget,
    /// Evaluator budget (fuel, nesting depth, allocation cap).
    pub budget: Budget,
    /// Per-rule lint levels, used by [`lint_source`]. Rules left at
    /// their default warn; `deny` escalates findings to errors (so
    /// [`Check::ok`] fails), `allow` silences a rule.
    pub lint_levels: LintConfig,
    /// Per-rule coherence levels (`L0008`–`L0011`). The structural
    /// rules — overlapping instances, prelude duplicates, superclass
    /// cycles — deny by default, so an incoherent instance world
    /// still fails compilation the way it did when the class-env
    /// build rejected it outright; now with spans for *both*
    /// instances and a counterexample type.
    pub coherence_levels: CoherenceConfig,
    /// Run the class-law harness ([`tc_coherence::check_laws`]) after
    /// the static passes: generated `Eq`/`Ord` law programs are
    /// elaborated through the ordinary dictionary conversion (a second
    /// elaboration of the program, with its own resolve cache) and
    /// evaluated under [`Options::law_budget`]; violations report as
    /// `L0011`. Off by default — it costs one extra elaboration plus a
    /// few dozen tiny evaluations.
    pub check_laws: bool,
    /// Evaluator budget per generated law program. Laws are a handful
    /// of applications over enumerated samples, so the default is the
    /// evaluator's small budget.
    pub law_budget: Budget,
    /// Memoize instance resolution across the whole elaboration (the
    /// tabled-resolution layer). On by default; the off switch exists
    /// for baselines and the differential suite.
    pub memoize_resolution: bool,
    /// Hoist repeated compound-dictionary constructions into shared
    /// bindings after conversion (and before linting, so `L0007` sees
    /// the shared program). On by default.
    pub share_dictionaries: bool,
    /// Record an explain-trace of every instance resolution in
    /// [`Elaboration::resolution_trace`] (rendered by
    /// [`Check::render_explain`]). Off by default and zero-cost when
    /// off.
    pub trace_resolution: bool,
    /// Profile the evaluator per top-level binding; the profile lands
    /// in [`RunResult::profile`]. Off by default and zero-cost when
    /// off.
    pub profile_eval: bool,
    /// Collect the whole-pipeline metric catalog — parser recoveries,
    /// interner traffic, resolver cache counters and goal-depth
    /// histogram, sharing counters, evaluator counters — into
    /// [`PipelineStats::metrics`]. Off by default; when off, every
    /// instrumented path is a single branch and allocates nothing.
    pub collect_metrics: bool,
    /// Cooperative cancellation token (usually deadline-backed, from
    /// the serve layer). Checked at stage boundaries, inside the
    /// resolver's search loop, and inside the evaluator's fuel loop;
    /// a tripped token yields an `E0430` diagnostic (or a structured
    /// `cancelled` eval error), never a partial hang. `None` (the
    /// default) disables every check's slow path.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for this run; disabled (and one
    /// branch per site) by default. See [`resilience`].
    pub faults: Faults,
    /// Flight-recorder scope for this run (see [`tc_trace::events`]):
    /// stage boundaries, resolver goals, evaluator budget
    /// checkpoints, deadline cancellations, and fault firings
    /// each record one fixed-size event into the scope's ring buffer.
    /// This is the run's only timing record: the stage timing table,
    /// the Chrome trace, and [`RunResult::trace_json`] are views over
    /// its events ([`tc_trace::events::stage_spans`]). Off by default —
    /// every site is a single branch and allocates nothing.
    pub events: EventScope,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            use_prelude: true,
            parse: ParseOptions::default(),
            reduce: ReduceBudget::default(),
            budget: Budget::default(),
            lint_levels: LintConfig::default(),
            coherence_levels: CoherenceConfig::default(),
            check_laws: false,
            law_budget: Budget::small(),
            memoize_resolution: true,
            share_dictionaries: true,
            trace_resolution: false,
            profile_eval: false,
            collect_metrics: false,
            cancel: None,
            faults: Faults::none(),
            events: EventScope::off(),
        }
    }
}

impl Options {
    /// Options without the prelude — the program is compiled over the
    /// builtins alone.
    pub fn bare() -> Self {
        Options {
            use_prelude: false,
            ..Options::default()
        }
    }

    /// Options with the resolution memo table and dictionary sharing
    /// both off — the unoptimized baseline the differential suite
    /// compares against.
    pub fn unoptimized() -> Self {
        Options {
            memoize_resolution: false,
            share_dictionaries: false,
            ..Options::default()
        }
    }

    /// Replace the evaluator budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Counters from one pipeline run: instance resolution, dictionary
/// sharing, and — after evaluation — evaluator resource usage.
/// Rendered by the example runner's `--stats` flag and by a serve
/// response's `stats` object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    pub resolve: ResolveStats,
    pub share: ShareStats,
    /// Evaluator counters; `None` until the program has been run
    /// (populated by [`run_checked`]).
    pub eval: Option<EvalStats>,
    /// The whole-pipeline metric catalog; enabled (and populated) iff
    /// [`Options::collect_metrics`] was set, otherwise off and
    /// allocation-free.
    pub metrics: MetricsRegistry,
}

impl PipelineStats {
    /// Write the counters as fields of the writer's current object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("goals", self.resolve.goals);
        w.field_u64("table_hits", self.resolve.table_hits);
        w.field_u64("table_misses", self.resolve.table_misses);
        w.field_f64("hit_rate", self.resolve.hit_rate(), 4);
        w.field_f64("hit_rate_pct", self.resolve.hit_rate() * 100.0, 1);
        w.field_u64("dicts_constructed", self.resolve.dicts_constructed);
        w.field_u64("resolve_steps", self.resolve.steps);
        w.field_u64("dict_sites_before_sharing", self.share.constructions_before);
        w.field_u64("dict_sites_after_sharing", self.share.constructions_after);
        w.field_u64("dicts_shared", self.share.occurrences_shared);
        w.field_u64("share_bindings", self.share.hoisted_bindings);
        match &self.eval {
            Some(e) => {
                w.begin_object_field("eval");
                w.field_u64("fuel_used", e.fuel_used);
                w.field_u64("peak_allocs", e.peak_allocs);
                w.field_u64("thunks_created", e.thunks_created);
                w.field_u64("forces", e.forces);
                w.end_object();
            }
            None => w.field_null("eval"),
        }
        if self.metrics.is_enabled() {
            w.begin_object_field("metrics");
            self.metrics.write_json(w);
            w.end_object();
        } else {
            w.field_null("metrics");
        }
    }

    /// One JSON object (the build is offline — no serde; serialization
    /// goes through the shared [`tc_trace::JsonWriter`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

/// The result of compiling (but not running) a program: the combined
/// source, the elaborated core, and every diagnostic from every stage.
pub struct Check {
    /// The prelude, a newline, and the user program (just the program
    /// without the prelude). All diagnostic spans index into this.
    pub full_source: String,
    /// Byte offset where the user program starts in `full_source`.
    pub user_offset: usize,
    /// Elaborated core program and the inferred type schemes. The core's
    /// `binds` are the program's own, linked to the prelude's shared
    /// core; [`tc_coreir::CoreProgram::all_binds`] lists the whole
    /// program in the order one-text compilation gives. The schemes,
    /// counters, and traces are the program's own (see
    /// [`Check::scheme`] for prelude names).
    pub elab: Elaboration,
    /// Accumulated diagnostics from lexing through dictionary
    /// conversion.
    pub diags: Diagnostics,
    /// Resolution and sharing counters for this run.
    pub stats: PipelineStats,
    /// What the program was compiled on top of.
    snapshot: &'static Snapshot,
}

impl Check {
    /// Did the program compile without errors? (Warnings are fine.)
    pub fn ok(&self) -> bool {
        !self.diags.has_errors()
    }

    /// Render every diagnostic against the compiled source, in source
    /// order (errors before warnings at the same location) with a
    /// severity summary line.
    pub fn render_diagnostics(&self) -> String {
        self.diags.render_all_sorted(&self.full_source)
    }

    /// The inferred type scheme of a top-level binding of the program
    /// or the prelude, rendered.
    pub fn scheme(&self, name: &str) -> Option<String> {
        if let Some(own) = self.elab.scheme(name) {
            return Some(own.to_string());
        }
        let base = &self.snapshot.elab;
        base.bindings
            .contains(name)
            .then(|| base.globals.get(name))?
            .map(|s| s.to_string())
    }

    /// Render the resolution explain-trace as an indented goal tree.
    /// `None` unless [`Options::trace_resolution`] was set.
    pub fn render_explain(&self) -> Option<String> {
        self.elab.resolution_trace.as_ref().map(|t| t.render())
    }

    /// The counters a timing view lists after its stages: core
    /// bindings and nodes (the prelude's included) and diagnostics.
    pub fn counters(&self) -> [(&'static str, u64); 3] {
        [
            ("core_bindings", self.elab.core.all_binds().count() as u64),
            ("core_nodes", self.elab.core.node_count()),
            ("diagnostics", self.diags.len() as u64),
        ]
    }

    /// Pretty-print the whole converted core program (for debugging
    /// and for tests that inspect the translation).
    pub fn pretty_core(&self) -> String {
        let mut out = String::new();
        for (name, body) in self.elab.core.all_binds() {
            out.push_str(name);
            out.push_str(" = ");
            out.push_str(&tc_coreir::pretty(body));
            out.push_str(";\n");
        }
        out
    }
}

/// What happened when the program was run.
#[derive(Debug)]
pub enum Outcome {
    /// `main` evaluated to a value, rendered as text.
    Value(String),
    /// The program did not compile; see [`Check::diags`].
    CompileErrors,
    /// The program compiled but defines no `main`.
    NoMain,
    /// `main` evaluation failed with a structured error (including
    /// budget exhaustion — never a panic, never a hang).
    Eval(EvalError),
}

/// A full pipeline run: the compilation record, the outcome, and —
/// when [`Options::profile_eval`] was set — the evaluator profile.
pub struct RunResult {
    pub check: Check,
    pub outcome: Outcome,
    /// Per-binding evaluator profile; `None` unless profiling was on
    /// and the program was actually evaluated.
    pub profile: Option<EvalProfile>,
}

impl RunResult {
    /// Serialize the whole run — the finished stage spans of `events`
    /// (the run's recorded trace; empty when nothing was recorded),
    /// [`Check::counters`], pipeline stats, profile, outcome — as one
    /// JSON object.
    pub fn trace_json(&self, events: &[Event]) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_array_field("spans");
        for s in tc_trace::events::stage_spans(events) {
            if s.finished {
                w.begin_object();
                w.field_str("stage", s.stage.name());
                w.field_u64("start_ns", s.start_ns);
                w.field_u64("duration_ns", s.duration_ns);
                w.field_u64("diags", s.diags);
                w.end_object();
            }
        }
        w.end_array();
        w.begin_object_field("counters");
        for (name, value) in self.check.counters() {
            w.field_u64(name, value);
        }
        w.end_object();
        w.begin_object_field("stats");
        self.check.stats.write_json(&mut w);
        w.end_object();
        match &self.profile {
            Some(p) => {
                w.begin_array_field("profile");
                for b in &p.bindings {
                    w.begin_object();
                    w.field_str("binding", &b.name);
                    w.field_u64("forces", b.forces);
                    w.field_u64("fuel", b.fuel);
                    w.field_u64("thunks", b.thunks);
                    w.end_object();
                }
                w.end_array();
            }
            None => w.field_null("profile"),
        }
        w.begin_object_field("outcome");
        let (kind, detail) = match &self.outcome {
            Outcome::Value(v) => ("value", Some(v.clone())),
            Outcome::CompileErrors => ("compile-errors", None),
            Outcome::NoMain => ("no-main", None),
            Outcome::Eval(e) => ("eval-error", Some(e.to_string())),
        };
        w.field_str("kind", kind);
        match &detail {
            Some(d) => w.field_str("detail", d),
            None => w.field_null("detail"),
        }
        // Structured error shape for machine consumers (the serve
        // protocol relays these): a stable kebab-case code plus, for
        // budget errors, where the budget died and what was left.
        if let Outcome::Eval(e) = &self.outcome {
            w.field_str("code", e.code());
            match e.budget() {
                Some(b) => {
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
                None => w.field_null("budget"),
            }
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Stage-boundary cancellation check. The first tripped check emits
/// one `E0430` diagnostic, records a `Cancelled` event naming the
/// stage that was about to run, and latches `cancelled`, so later
/// boundaries skip their stages silently instead of piling on
/// duplicate errors.
fn deadline_tripped(
    opts: &Options,
    diags: &mut Diagnostics,
    cancelled: &mut bool,
    next_stage: TraceStage,
) -> bool {
    if *cancelled {
        return true;
    }
    if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        *cancelled = true;
        opts.events.cancelled(next_stage);
        diags.error(
            DiagStage::Driver,
            CANCELLED_CODE,
            "compilation deadline exceeded; remaining stages skipped",
            Span::DUMMY,
        );
        return true;
    }
    false
}

/// Shared pipeline body behind [`check_source`] and [`lint_source`].
fn compile(src: &str, opts: &Options, lint: bool) -> Check {
    let snap = Snapshot::get(opts.use_prelude);
    let user_offset = snap.user_start;
    let full_source = if opts.use_prelude {
        format!("{PRELUDE}\n{src}")
    } else {
        src.to_string()
    };

    opts.events.stage_start(TraceStage::Lex);
    let (toks, mut diags) = tc_syntax::lex_continuing(src, user_offset, snap.tokens);
    opts.events.stage_end(TraceStage::Lex, diags.len() as u64);
    let mut seen = diags.len();

    let mut metrics = if opts.collect_metrics {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::off()
    };

    // Every stage boundary below doubles as a cancellation point: a
    // deadline that expires mid-pipeline stops the run at the next
    // boundary with one `E0430` diagnostic, and the skipped stages
    // leave default (empty) results. Fault sites sit at stage entry,
    // so an injected panic unwinds out of this function exactly where
    // a real stage bug would.
    let mut cancelled = false;

    opts.events.stage_start(TraceStage::Parse);
    let _ = opts.faults.fire_traced(FaultSite::Parse, &opts.events);
    let (prog, pd, pstats) = tc_syntax::parse_program_with(&toks, opts.parse.clone());
    diags.extend(pd);
    opts.events
        .stage_end(TraceStage::Parse, (diags.len() - seen) as u64);
    metrics.add(CounterId::ParseRecoveries, pstats.recoveries);
    seen = diags.len();

    let mut gen = VarGen::new();
    let cenv = if deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::ClassEnv) {
        Cow::Borrowed(&snap.cenv)
    } else {
        opts.events.stage_start(TraceStage::ClassEnv);
        let _ = opts.faults.fire_traced(FaultSite::ClassEnv, &opts.events);
        let (cenv, cd) = extend_class_env(&snap.cenv, &prog, &mut gen);
        diags.extend(cd);
        opts.events
            .stage_end(TraceStage::ClassEnv, (diags.len() - seen) as u64);
        seen = diags.len();
        cenv
    };

    // Coherence runs between the class env and elaboration: overlap
    // and cycle findings only need instance heads, so they stay
    // available even when a tripped deadline skips elaboration. No
    // fault site here — the pass is pure table-walking over the env.
    if !deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::Coherence) {
        opts.events.stage_start(TraceStage::Coherence);
        diags.extend(tc_coherence::check_coherence(
            &CoherenceInput {
                cenv: &cenv,
                user_start: user_offset,
            },
            &opts.coherence_levels,
            &mut metrics,
        ));
        opts.events
            .stage_end(TraceStage::Coherence, (diags.len() - seen) as u64);
        seen = diags.len();
    }

    let elaborated = !deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::Elaborate);
    let mut elab = if !elaborated {
        Elaboration::default()
    } else {
        opts.events.stage_start(TraceStage::Elaborate);
        let mut reduce = opts.reduce;
        if opts.faults.fire_traced(FaultSite::Elaborate, &opts.events) == FaultOutcome::Budget {
            // Injected budget exhaustion: every nontrivial resolution
            // goal now fails structurally (E0421), never hangs.
            reduce = ReduceBudget {
                max_depth: 1,
                max_steps: 1,
            };
        }
        let (elab, ed) = elaborate_over(
            &prog,
            &cenv,
            &snap.elab,
            &mut gen,
            ElabOptions {
                budget: reduce,
                memoize: opts.memoize_resolution,
                trace_resolution: opts.trace_resolution,
                collect_metrics: opts.collect_metrics,
                cancel: opts.cancel.clone(),
                events: opts.events.clone(),
            },
        );
        diags.extend(ed);
        opts.events
            .stage_end(TraceStage::Elaborate, (diags.len() - seen) as u64);
        seen = diags.len();
        elab
    };

    // Dictionary sharing runs between conversion and linting: `L0007`
    // must see the shared program, or it would report constructions
    // the pass has already hoisted.
    let share = if opts.share_dictionaries
        && !deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::Share)
    {
        opts.events.stage_start(TraceStage::Share);
        let _ = opts.faults.fire_traced(FaultSite::Share, &opts.events);
        let share = tc_coreir::share_program_metered(&mut elab.core, &mut metrics);
        opts.events.stage_end(TraceStage::Share, 0);
        share
    } else {
        ShareStats::default()
    };

    if lint && !deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::Lint) {
        opts.events.stage_start(TraceStage::Lint);
        let _ = opts.faults.fire_traced(FaultSite::Lint, &opts.events);
        diags.extend(tc_lint::run_lints_over(
            &LintInput {
                program: &prog,
                cenv: &cenv,
                core: &elab.core,
                user_start: user_offset,
            },
            &snap.program,
            &opts.lint_levels,
        ));
        opts.events
            .stage_end(TraceStage::Lint, (diags.len() - seen) as u64);
    }

    // The law harness runs last among the static passes: it only makes
    // sense for programs that compile — law verdicts on an erroneous
    // program would blame dictionaries that were never built. It runs
    // as a second `Coherence` stage, the structural checks' stage, so
    // its goal events fall inside a stage span like every other goal's.
    if opts.check_laws
        && !diags.has_errors()
        && !deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::Coherence)
    {
        let before = diags.len();
        opts.events.stage_start(TraceStage::Coherence);
        diags.extend(tc_coherence::check_laws(
            &LawInput {
                program: &prog,
                cenv: &cenv,
                user_start: user_offset,
                base: &snap.elab,
            },
            &opts.coherence_levels,
            &LawOptions {
                eval_budget: opts.law_budget,
                reduce: opts.reduce,
                cancel: opts.cancel.clone(),
            },
            &mut gen,
            &mut metrics,
            &opts.events,
        ));
        opts.events
            .stage_end(TraceStage::Coherence, (diags.len() - before) as u64);
    }

    // Final boundary: a deadline that expired during the last stage
    // still surfaces as E0430 (there is no later boundary to catch it).
    let _ = deadline_tripped(opts, &mut diags, &mut cancelled, TraceStage::Eval);

    // A program that was never elaborated has no core, not even the
    // prelude's.
    if elaborated {
        elab.core.linked = snap.elab.core.as_ref().map(|base| Link {
            base: base.clone(),
            group_binds: elab.group_binds,
        });
    }
    // Fold the elaboration's resolver/interner metrics into the
    // pipeline registry (counters add; gauges and histograms come only
    // from the elaboration side, so the merge is lossless).
    metrics.merge(&elab.metrics);

    let stats = PipelineStats {
        resolve: elab.stats,
        share,
        eval: None,
        metrics,
    };
    Check {
        full_source,
        user_offset,
        elab,
        diags,
        stats,
        snapshot: snap,
    }
}

/// Compile source text through elaboration and dictionary conversion.
/// Never panics; all failures are reported in [`Check::diags`].
pub fn check_source(src: &str, opts: &Options) -> Check {
    compile(src, opts, false)
}

/// Like [`check_source`], but additionally run the `tc-lint`
/// static-analysis pass over the surface AST, the class environment,
/// and the converted core, at the levels in [`Options::lint_levels`].
/// Warn-level findings never make [`Check::ok`] fail; deny-level
/// findings do.
pub fn lint_source(src: &str, opts: &Options) -> Check {
    compile(src, opts, true)
}

/// Run an already-compiled program: if it is error-free and has a
/// `main`, evaluate it under the evaluator budget. Evaluation is
/// recorded as the `eval` stage in [`Options::events`], and its
/// resource counters land in [`PipelineStats::eval`].
pub fn run_checked(mut check: Check, opts: &Options) -> RunResult {
    let mut profile = None;
    let outcome = if !check.ok() {
        Outcome::CompileErrors
    } else {
        match check.elab.core.main.clone() {
            None => Outcome::NoMain,
            Some(entry) => {
                opts.events.stage_start(TraceStage::Eval);
                // Metrics want the per-binding fuel histogram, which
                // only the profiler collects — profile internally when
                // metrics are on, but surface the profile to the
                // caller only when they asked for it.
                let metrics_on = check.stats.metrics.is_enabled();
                let mut budget = opts.budget;
                if opts.faults.fire_traced(FaultSite::Eval, &opts.events) == FaultOutcome::Budget {
                    // Injected exhaustion: the very first tick trips,
                    // producing a structured fuel error with a
                    // zero-remaining budget snapshot.
                    budget = Budget {
                        fuel: 1,
                        max_depth: 1,
                        max_allocs: 1,
                    };
                }
                let lowered = check.snapshot.lower(&check.elab.core);
                let run = tc_eval::run_lowered_with(
                    &lowered,
                    &entry,
                    &EvalOptions {
                        budget,
                        profile: opts.profile_eval || metrics_on,
                        cancel: opts.cancel.clone(),
                        events: opts.events.clone(),
                    },
                );
                opts.events.stage_end(TraceStage::Eval, 0);
                check.stats.eval = Some(run.stats);
                if metrics_on {
                    let m = &mut check.stats.metrics;
                    m.add(CounterId::EvalThunksCreated, run.stats.thunks_created);
                    m.add(CounterId::EvalForces, run.stats.forces);
                    m.add(CounterId::EvalFuelUsed, run.stats.fuel_used);
                    if let Some(p) = &run.profile {
                        for b in &p.bindings {
                            m.observe(HistogramId::EvalBindingFuel, b.fuel);
                        }
                    }
                }
                profile = if opts.profile_eval { run.profile } else { None };
                match run.result {
                    Ok(v) => Outcome::Value(v),
                    Err(e) => Outcome::Eval(e),
                }
            }
        }
    };
    RunResult {
        check,
        outcome,
        profile,
    }
}

/// Compile and, if the program is error-free and has a `main`, run it
/// under the evaluator budget.
pub fn run_source(src: &str, opts: &Options) -> RunResult {
    run_checked(check_source(src, opts), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> RunResult {
        run_source(src, &Options::default())
    }

    fn value(src: &str) -> String {
        let r = run(src);
        match r.outcome {
            Outcome::Value(v) => v,
            other => panic!(
                "expected a value, got {other:?}\n{}",
                r.check.render_diagnostics()
            ),
        }
    }

    #[test]
    fn prelude_is_clean() {
        let c = check_source("", &Options::default());
        assert!(c.ok(), "{}", c.render_diagnostics());
        assert!(c.elab.core.verify_converted().is_empty());
    }

    #[test]
    fn member_from_the_paper() {
        let v = value("main = member 3 (enumFromTo 1 5);");
        assert_eq!(v, "True");
        let c = check_source("", &Options::default());
        assert_eq!(
            c.scheme("member").as_deref(),
            Some("Eq a => a -> List a -> Bool")
        );
    }

    #[test]
    fn num_methods_dispatch_through_dictionaries() {
        assert_eq!(value("main = add (mul 6 7) (neg 2);"), "40");
    }

    #[test]
    fn equality_on_lists_uses_instance_context() {
        assert_eq!(
            value("main = eq (cons 1 (cons 2 nil)) (enumFromTo 1 2);"),
            "True"
        );
        assert_eq!(value("main = neq nil (cons False nil);"), "True");
    }

    #[test]
    fn list_pipeline_renders() {
        assert_eq!(
            value("main = map (\\x -> mul x x) (enumFromTo 1 4);"),
            "[1, 4, 9, 16]"
        );
    }

    #[test]
    fn laziness_take_from_infinite_list() {
        let v = value("from n = cons n (from (add n 1));\nmain = take 3 (from 10);");
        assert_eq!(v, "[10, 11, 12]");
    }

    #[test]
    fn compile_errors_stop_evaluation() {
        let r = run("main = eq 1 True;");
        assert!(matches!(r.outcome, Outcome::CompileErrors));
        assert!(r.check.diags.has_errors());
        // Rendering must point into the combined source without panicking.
        let rendered = r.check.render_diagnostics();
        assert!(!rendered.is_empty());
    }

    #[test]
    fn missing_main_reported() {
        let r = run("x = 1;");
        assert!(matches!(r.outcome, Outcome::NoMain));
    }

    #[test]
    fn fuel_exhaustion_is_structured() {
        // Rendering an infinite list forces cell after cell at shallow
        // depth, so the fuel budget is what trips.
        let opts = Options::default().with_budget(Budget::small());
        let r = run_source("from n = cons n (from (add n 1));\nmain = from 0;", &opts);
        assert!(
            matches!(r.outcome, Outcome::Eval(EvalError::FuelExhausted(_))),
            "{:?}",
            r.outcome
        );
        // The budget payload shows an empty tank (fuel died while
        // rendering, outside any named global, so no binding here)
        // and the run trace relays the structured shape.
        let Outcome::Eval(e) = &r.outcome else {
            unreachable!()
        };
        let b = e.budget().expect("fuel errors carry a snapshot");
        assert_eq!(b.fuel_left, 0);
        let json = r.trace_json(&[]);
        assert!(json.contains("\"code\": \"fuel-exhausted\""), "{json}");
        assert!(json.contains("\"fuel_left\": 0"), "{json}");
    }

    #[test]
    fn nonterminating_loop_is_budgeted() {
        // Deep non-tail recursion trips whichever budget fills first —
        // either way the outcome is structured, not a hang.
        let opts = Options::default().with_budget(Budget::small());
        let r = run_source("loop x = loop x;\nmain = loop 1;", &opts);
        assert!(
            matches!(
                r.outcome,
                Outcome::Eval(EvalError::FuelExhausted(_) | EvalError::DepthExceeded(_))
            ),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn user_code_diagnostics_point_after_prelude() {
        let r = run("main = undefinedName;");
        assert!(matches!(r.outcome, Outcome::CompileErrors));
        assert!(r
            .check
            .diags
            .iter()
            .any(|d| d.code == "E0405" && (d.span.start as usize) >= r.check.user_offset));
    }

    #[test]
    fn bare_options_skip_prelude() {
        let c = check_source("main = eq 1 1;", &Options::bare());
        // No prelude => no Eq class => unbound `eq`.
        assert!(c.diags.iter().any(|d| d.code == "E0405"));
    }

    #[test]
    fn core_dump_mentions_dictionaries() {
        let c = check_source("same x y = eq x y;", &Options::default());
        assert!(c.ok(), "{}", c.render_diagnostics());
        let core = c.pretty_core();
        assert!(core.contains("$dict"), "{core}");
    }

    #[test]
    fn stats_are_populated_and_memo_hits() {
        // Two uses of `Eq (List Int)`: with the memo table on, the
        // second hits.
        let c = check_source(
            "a = eq (cons 1 nil) nil;\nb = eq (cons 2 nil) nil;",
            &Options::default(),
        );
        assert!(c.ok(), "{}", c.render_diagnostics());
        assert!(c.stats.resolve.goals > 0);
        assert!(c.stats.resolve.table_hits > 0, "{:?}", c.stats.resolve);
        let off = check_source(
            "a = eq (cons 1 nil) nil;\nb = eq (cons 2 nil) nil;",
            &Options::unoptimized(),
        );
        assert_eq!(off.stats.resolve.table_hits, 0, "{:?}", off.stats.resolve);
        assert!(
            off.stats.resolve.dicts_constructed > c.stats.resolve.dicts_constructed,
            "memoization must reduce fresh constructions: {:?} vs {:?}",
            off.stats.resolve,
            c.stats.resolve
        );
        // JSON rendering stays well-formed enough to eyeball.
        let json = c.stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"table_hits\""), "{json}");
    }

    #[test]
    fn sharing_hoists_repeated_dictionaries_in_core() {
        let src = "p = eq (cons 1 nil) (cons 2 nil);\n\
                   q = and (eq (cons 1 nil) nil) (eq (cons 3 nil) nil);";
        let shared = check_source(src, &Options::default());
        assert!(shared.ok(), "{}", shared.render_diagnostics());
        assert!(
            shared.stats.share.hoisted_bindings > 0,
            "{:?}",
            shared.stats.share
        );
        assert!(shared.pretty_core().contains("$sh0"), "no shared binding");
        let unshared = check_source(src, &Options::unoptimized());
        assert!(!unshared.pretty_core().contains("$sh0"));
        assert!(
            shared.stats.share.constructions_after < unshared.stats.share.constructions_before
                || unshared.stats.share.constructions_before == 0,
        );
    }

    #[test]
    fn metrics_off_by_default_and_allocation_free() {
        let r = run("main = eq (cons 1 nil) (cons 1 nil);");
        assert!(r.check.stats.metrics.allocates_nothing());
        // The stats JSON still carries an (explicitly null) metrics field.
        let json = r.check.stats.to_json();
        assert!(json.contains("\"metrics\": null"), "{json}");
    }

    #[test]
    fn metrics_collect_across_the_whole_pipeline() {
        let opts = Options {
            collect_metrics: true,
            ..Options::default()
        };
        let src = "p = eq (cons 1 nil) (cons 2 nil);\n\
                   q = and (eq (cons 1 nil) nil) (eq (cons 3 nil) nil);\n\
                   main = q;";
        let r = run_source(src, &opts);
        assert!(matches!(r.outcome, Outcome::Value(_)), "{:?}", r.outcome);
        let stats = &r.check.stats;
        let m = &stats.metrics;
        // Resolver metrics agree with the existing counters.
        assert_eq!(m.counter(CounterId::ResolveGoals), stats.resolve.goals);
        assert_eq!(
            m.counter(CounterId::ResolveCacheHits),
            stats.resolve.table_hits
        );
        // Interner, sharing, and evaluator all contributed.
        assert!(m.counter(CounterId::InternFresh) > 0);
        assert_eq!(
            m.counter(CounterId::ShareDictsHoisted),
            stats.share.hoisted_bindings
        );
        let Some(eval) = stats.eval.as_ref() else {
            panic!("main was evaluated");
        };
        assert_eq!(m.counter(CounterId::EvalForces), eval.forces);
        assert_eq!(m.counter(CounterId::EvalFuelUsed), eval.fuel_used);
        // The goal-depth histogram saw every goal.
        let Some(h) = m.histogram(HistogramId::ResolveGoalDepth) else {
            panic!("metrics are on");
        };
        assert_eq!(h.count, stats.resolve.goals);
        // Per-binding fuel was observed even though no profile is
        // surfaced (profiling ran internally for the histogram).
        assert!(r.profile.is_none());
        let Some(fuel) = m.histogram(HistogramId::EvalBindingFuel) else {
            panic!("metrics are on");
        };
        assert!(fuel.count > 0);
        // And the JSON form is well-formed with a metrics object.
        let json = stats.to_json();
        tc_trace::json::check(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"resolve.goals\""), "{json}");
    }

    #[test]
    fn metrics_do_not_perturb_results_or_counters() {
        let src = "main = member 3 (enumFromTo 1 5);";
        let plain = run_source(src, &Options::default());
        let metered = run_source(
            src,
            &Options {
                collect_metrics: true,
                events: tc_trace::EventLog::with_capacity(1024).scope(1),
                ..Options::default()
            },
        );
        let (Outcome::Value(a), Outcome::Value(b)) = (&plain.outcome, &metered.outcome) else {
            panic!("{:?} / {:?}", plain.outcome, metered.outcome);
        };
        assert_eq!(a, b);
        assert_eq!(plain.check.stats.resolve, metered.check.stats.resolve);
        assert_eq!(plain.check.stats.share, metered.check.stats.share);
        assert_eq!(plain.check.stats.eval, metered.check.stats.eval);
    }

    #[test]
    fn pre_expired_deadline_stops_the_pipeline_structurally() {
        let token = tc_trace::CancelToken::new();
        token.cancel();
        let opts = Options {
            cancel: Some(token),
            ..Options::default()
        };
        let r = run_source("main = member 3 (enumFromTo 1 5);", &opts);
        assert!(
            matches!(r.outcome, Outcome::CompileErrors),
            "{:?}",
            r.outcome
        );
        assert!(
            r.check.diags.iter().any(|d| d.code == CANCELLED_CODE),
            "{}",
            r.check.render_diagnostics()
        );
        // Exactly one deadline diagnostic — the latch holds across
        // every later stage boundary.
        assert_eq!(
            r.check
                .diags
                .iter()
                .filter(|d| d.code == CANCELLED_CODE)
                .count(),
            1
        );
    }

    #[test]
    fn deadline_interrupts_evaluation_with_a_structured_error() {
        // Compilation beats the deadline; the infinite render then
        // trips the evaluator's cancellation poll (fuel is ample, so
        // only the deadline can stop it).
        let token = tc_trace::CancelToken::with_deadline(std::time::Duration::from_millis(30));
        let opts = Options {
            cancel: Some(token),
            ..Options::default()
        }
        .with_budget(Budget {
            fuel: u64::MAX / 2,
            max_depth: 200,
            max_allocs: u64::MAX / 2,
        });
        let r = run_source("ones = cons 1 ones;\nmain = ones;", &opts);
        match &r.outcome {
            Outcome::Eval(e @ EvalError::Cancelled(_)) => {
                assert_eq!(e.code(), "cancelled");
            }
            other => panic!("expected a cancelled eval error, got {other:?}"),
        }
    }

    #[test]
    fn injected_panics_unwind_and_are_isolated() {
        let plan = FaultPlan::parse("elaborate=panic").unwrap();
        let opts = Options {
            faults: plan.for_request(0),
            ..Options::default()
        };
        let err = match resilience::isolated(|| run_source("main = 1;", &opts)) {
            Err(e) => e,
            Ok(_) => panic!("the injected panic should have unwound"),
        };
        assert!(err.starts_with("tc-fault:"), "{err}");
        assert!(err.contains("elaborate"), "{err}");
    }

    #[test]
    fn injected_budget_faults_produce_structured_exhaustion() {
        // At the elaborate site: resolution budget dies => E0421.
        let plan = FaultPlan::parse("elaborate=budget").unwrap();
        let opts = Options {
            faults: plan.for_request(0),
            ..Options::default()
        };
        let c = check_source("main = eq (cons 1 nil) nil;", &opts);
        assert!(!c.ok());
        assert!(
            c.diags.iter().any(|d| d.code == "E0421"),
            "{}",
            c.render_diagnostics()
        );
        // At the eval site: the first tick trips fuel.
        let plan = FaultPlan::parse("eval=budget").unwrap();
        let opts = Options {
            faults: plan.for_request(0),
            ..Options::default()
        };
        let r = run_source("main = member 3 (enumFromTo 1 5);", &opts);
        assert!(
            matches!(
                r.outcome,
                Outcome::Eval(EvalError::FuelExhausted(_) | EvalError::DepthExceeded(_))
            ),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn optimizations_do_not_change_results() {
        let src = "main = and (eq (cons 1 (cons 2 nil)) (enumFromTo 1 2))\n\
                   (eq (cons 1 (cons 2 nil)) (enumFromTo 1 2));";
        let on = run_source(src, &Options::default());
        let off = run_source(src, &Options::unoptimized());
        let (Outcome::Value(a), Outcome::Value(b)) = (&on.outcome, &off.outcome) else {
            panic!("{:?} / {:?}", on.outcome, off.outcome);
        };
        assert_eq!(a, b);
        assert_eq!(a, "True");
    }
}
