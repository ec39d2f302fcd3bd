//! Budgeted instance resolution, entailment, and context reduction.
//!
//! Resolution is a backward-chaining search over instances and
//! superclass edges. Two robustness mechanisms make it total:
//!
//! * a **visited-goal set** detects exact cycles (a goal recurring as
//!   its own subgoal, as with `instance C (List a) => C (List a)`),
//!   reported as [`ResolveError::Cycle`];
//! * a **[`ReduceBudget`]** (recursion depth + total step count) stops
//!   ever-growing goal chains (`instance C (List (List a)) => C (List a)`)
//!   with [`ResolveError::BudgetExhausted`].
//!
//! Successful resolution returns a [`DictDeriv`]: an explicit recipe
//! for constructing the dictionary, consumed by `tc-core`'s dictionary
//! conversion pass. This mirrors the tabled-resolution observation that
//! instance search must be treated as a real (terminating) search
//! procedure, not naive recursion.
//!
//! # Goals are ids
//!
//! Goals and assumptions are [`IdPred`]s of the elaborator's type store
//! (a [`tc_types::Interner`], passed to every call), so a goal is two
//! ids and comparing goals is comparing ids. The class environment is
//! seen through the same store: the first time a class comes up, the
//! [`ResolveCache`] interns its superclass names and its instances'
//! heads and contexts there, and from then on instance heads are
//! matched against goals on ids ([`tc_types::match_ids`]) and contexts
//! instantiated with [`Interner::map_vars`]. Trees are built only for
//! what leaves the resolver as text: errors and explain traces.
//!
//! # Tabling
//!
//! On top of the budgeted search sits a **memo table**
//! ([`ResolveCache`]), in the spirit of *Tabled Typeclass Resolution*:
//! completed derivations for *pure* goals (ground types, no skolem
//! constants) are recorded keyed by the goal's `(class, type)` ids, so
//! re-deriving `Eq (List (List Int))` at a second use site is a single
//! O(1) lookup charged **one budget step** instead of a full
//! backward-chaining search. The table keys into the caller's store, so
//! a cache is only meaningful together with that store. Cycle detection
//! is untouched: in-progress goals are never tabled, only completed
//! ones, so the recursive-instance self-knot still resolves (and still
//! reports cycles) exactly as without the table.
//!
//! Soundness of a table hit requires the cached derivation to be valid
//! under the *current* assumption set, not the one it was derived
//! under. Two guards ensure this, keeping cached resolution
//! bit-identical to fresh resolution:
//!
//! * only derivations that are **closed** (built purely from instance
//!   constructors, no [`DictDeriv::FromParam`] /
//!   [`DictDeriv::FromSuper`] references into the assumption list) are
//!   stored;
//! * the table is consulted only when every assumption in scope is in
//!   head-normal form (variable-headed). A variable-headed assumption
//!   can never discharge a ground goal — neither directly nor through
//!   superclass projection, which preserves the constrained type — so
//!   under this guard the instance-chaining portion of the search is
//!   independent of the assumptions and safe to share.
//!
//! Failures are never cached: they are the cold path, and their
//! diagnostics carry use-site spans that must be rebuilt per call.

use crate::env::ClassEnv;
use std::fmt;
use tc_trace::{
    CancelToken, CounterId, EventKind, EventScope, GaugeId, HistogramId, MetricsRegistry, Stage,
    TraceNode,
};
use tc_types::intern::{FastMap, FastSet};
use tc_types::{match_ids, IdPred, Interner, NameId, Pred, TyVar, TypeId};

/// Limits for one resolution / context-reduction call.
#[derive(Debug, Clone, Copy)]
pub struct ReduceBudget {
    /// Maximum backward-chaining depth.
    pub max_depth: usize,
    /// Maximum total goals examined.
    pub max_steps: usize,
}

impl Default for ReduceBudget {
    fn default() -> Self {
        ReduceBudget {
            max_depth: 64,
            max_steps: 10_000,
        }
    }
}

/// The cancellation token is polled once every this many search steps
/// (must be a power of two). Steps are bounded work, so 64 keeps
/// deadline latency well under a millisecond without a clock read per
/// goal.
const CANCEL_POLL_GOALS: usize = 64;

/// Why a predicate could not be resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// No instance (and no assumption) covers the predicate.
    NoInstance { pred: Pred },
    /// The goal recurred as its own subgoal.
    Cycle { pred: Pred, trail: Vec<Pred> },
    /// Depth or step budget exhausted.
    BudgetExhausted { pred: Pred, depth: bool },
    /// The predicate mentions an unknown class (already reported at
    /// build time; resolution refuses rather than guessing).
    UnknownClass { pred: Pred },
    /// The session's cancellation token fired (deadline or explicit
    /// cancellation) while this goal was being resolved.
    Cancelled { pred: Pred },
}

impl ResolveError {
    pub fn pred(&self) -> &Pred {
        match self {
            ResolveError::NoInstance { pred }
            | ResolveError::Cycle { pred, .. }
            | ResolveError::BudgetExhausted { pred, .. }
            | ResolveError::UnknownClass { pred }
            | ResolveError::Cancelled { pred } => pred,
        }
    }

    fn pred_mut(&mut self) -> &mut Pred {
        match self {
            ResolveError::NoInstance { pred }
            | ResolveError::Cycle { pred, .. }
            | ResolveError::BudgetExhausted { pred, .. }
            | ResolveError::UnknownClass { pred }
            | ResolveError::Cancelled { pred } => pred,
        }
    }

    /// The stable diagnostic code this error surfaces under, so tests
    /// and tooling can match a *kind* of resolution failure instead of
    /// string-matching the rendered message:
    ///
    /// | code    | meaning                                   |
    /// |---------|-------------------------------------------|
    /// | `E0410` | no instance / not deducible from context  |
    /// | `E0420` | instance resolution is cyclic             |
    /// | `E0421` | resolution depth/step budget exhausted    |
    /// | `E0422` | predicate names an unknown class          |
    /// | `E0423` | resolution cancelled (deadline)           |
    pub fn code(&self) -> &'static str {
        match self {
            ResolveError::NoInstance { .. } => "E0410",
            ResolveError::Cycle { .. } => "E0420",
            ResolveError::BudgetExhausted { .. } => "E0421",
            ResolveError::UnknownClass { .. } => "E0422",
            ResolveError::Cancelled { .. } => "E0423",
        }
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NoInstance { pred } => write!(f, "no instance for `{pred}`"),
            ResolveError::Cycle { pred, trail } => {
                write!(f, "instance resolution for `{pred}` is cyclic")?;
                if !trail.is_empty() {
                    write!(f, " (via ")?;
                    for (i, p) in trail.iter().enumerate() {
                        if i > 0 {
                            write!(f, " -> ")?;
                        }
                        write!(f, "`{p}`")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            ResolveError::BudgetExhausted { pred, depth } => write!(
                f,
                "instance resolution for `{pred}` exceeded the {} budget",
                if *depth { "depth" } else { "step" }
            ),
            ResolveError::UnknownClass { pred } => {
                write!(f, "`{pred}` refers to an unknown class")
            }
            ResolveError::Cancelled { pred } => {
                write!(f, "instance resolution for `{pred}` cancelled (deadline)")
            }
        }
    }
}

/// A dictionary construction recipe.
#[derive(Debug, Clone, PartialEq)]
pub enum DictDeriv {
    /// The dictionary is an assumption in scope (a dictionary lambda
    /// parameter); `index` is the position in the assumption list the
    /// resolution was run against.
    FromParam { index: usize },
    /// Project the `slot`-th superclass dictionary out of `base`.
    FromSuper { base: Box<DictDeriv>, slot: usize },
    /// Apply instance `inst_id`'s dictionary constructor to the
    /// dictionaries for its context predicates.
    FromInstance {
        inst_id: usize,
        args: Vec<DictDeriv>,
    },
}

impl DictDeriv {
    /// Is the derivation built purely from instance constructors —
    /// no references into a particular assumption list? Only closed
    /// derivations are context-independent and safe to memoize.
    pub fn is_closed(&self) -> bool {
        let mut stack = vec![self];
        while let Some(d) = stack.pop() {
            match d {
                DictDeriv::FromParam { .. } | DictDeriv::FromSuper { .. } => return false,
                DictDeriv::FromInstance { args, .. } => stack.extend(args.iter()),
            }
        }
        true
    }
}

/// Human description of a superclass-projection derivation for the
/// explain-trace: which assumption it starts from and the slot path
/// projected through. Falls back to a generic label for shapes
/// `via_supers` cannot produce.
fn describe_projection(d: &DictDeriv) -> String {
    let mut slots: Vec<usize> = Vec::new();
    let mut cur = d;
    loop {
        match cur {
            DictDeriv::FromSuper { base, slot } => {
                slots.push(*slot);
                cur = base;
            }
            DictDeriv::FromParam { index } => {
                if slots.is_empty() {
                    return format!("assumption #{index}");
                }
                // Collected outermost-first; projections apply from the
                // assumption outward.
                slots.reverse();
                let path = slots
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                return format!("superclass projection of assumption #{index} (slots [{path}])");
            }
            DictDeriv::FromInstance { .. } => return "superclass projection".to_string(),
        }
    }
}

/// Counters describing one resolution session (typically one
/// elaboration run). All monotone; rendered by the driver's `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Goals entering [`Search::resolve`] (including subgoals).
    pub goals: u64,
    /// Goals answered by the memo table in O(1).
    pub table_hits: u64,
    /// Cacheable goals that had to be derived from scratch.
    pub table_misses: u64,
    /// `FromInstance` derivation nodes built fresh (each corresponds
    /// to one dictionary-constructor application in the output).
    pub dicts_constructed: u64,
    /// Total budget steps consumed across all calls.
    pub steps: u64,
}

impl ResolveStats {
    /// Fraction of goals answered from the table, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.goals == 0 {
            0.0
        } else {
            self.table_hits as f64 / self.goals as f64
        }
    }
}

/// One completed, closed derivation for a pure goal.
#[derive(Debug, Clone)]
struct CacheEntry {
    deriv: DictDeriv,
    /// Sequence number (1-based, session-wide goal count) of the goal
    /// whose derivation populated this entry. Explain-traces report it
    /// so a memo hit can point back at the originating derivation.
    origin: u64,
}

/// The explain-trace for one resolution session: one [`TraceNode`]
/// tree per top-level goal, in resolution order. Child nodes are the
/// instance-context subgoals of their parent. Labels carry the goal's
/// session-wide sequence number (`[#n]`), the predicate, and how it
/// was discharged — assumption, superclass projection, instance
/// (marked `[tabled]` when its derivation entered the memo table), or
/// memo hit with the originating goal's number.
#[derive(Debug, Default)]
pub struct ResolveTraceLog {
    pub goals: Vec<TraceNode>,
}

impl ResolveTraceLog {
    pub fn len(&self) -> usize {
        self.goals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.goals.is_empty()
    }

    /// Render every goal tree as an indented block, in order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for goal in &self.goals {
            goal.render_into(&mut out);
        }
        out
    }
}

/// A class as the resolver sees it in one type store.
#[derive(Debug)]
struct StoreClass {
    /// `false` for a name the environment declares no class for.
    known: bool,
    /// Superclass names with their dictionary slots, in declaration
    /// order.
    supers: Vec<(NameId, usize)>,
    /// The class's instances, in the environment's order (the order
    /// instance search tries them in).
    instances: Vec<StoreInstance>,
}

/// An instance with its head type and context interned.
#[derive(Debug)]
struct StoreInstance {
    id: usize,
    head: TypeId,
    context: Vec<IdPred>,
}

impl StoreClass {
    fn intern(env: &ClassEnv, types: &mut Interner, class: NameId) -> StoreClass {
        let name = types.name(class).unwrap_or_default();
        let (info, instances) = (env.classes.get(name), env.instances_of(name));
        let supers = info.map_or(Vec::new(), |ci| {
            (ci.supers.iter().enumerate())
                .map(|(i, sup)| (types.intern_name(sup), ci.super_slot(i)))
                .collect()
        });
        let instances = (instances.iter())
            .map(|inst| StoreInstance {
                id: inst.id,
                head: types.intern(&inst.head.ty),
                context: inst.preds.iter().map(|p| types.intern_pred(p)).collect(),
            })
            .collect();
        StoreClass {
            known: info.is_some(),
            supers,
            instances,
        }
    }
}

/// How a superclass-search entry was reached.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// The `index`-th assumption itself.
    Param(usize),
    /// Superclass `slot` of the entry at `parent` in the queue.
    Super { parent: usize, slot: usize },
}

/// Buffers the search reuses from call to call, so a warm cache
/// resolves a goal without allocating for the search itself.
#[derive(Debug, Default)]
struct Scratch {
    /// Goals on the current derivation path (for cycle detection).
    in_progress: Vec<(NameId, TypeId)>,
    /// The instantiated contexts of the goals on the path, each goal's
    /// subgoals one segment, innermost last.
    subgoals: Vec<IdPred>,
    /// Instance-head matching: the bindings found and the work list.
    bindings: Vec<(TyVar, TypeId)>,
    work: Vec<(TypeId, TypeId)>,
    /// Superclass search: the breadth-first queue and the goals seen.
    queue: Vec<(NameId, TypeId, Via)>,
    visited: FastSet<(NameId, TypeId)>,
}

/// The memo table for instance resolution: goal ids to completed closed
/// derivations, plus session counters. A cache belongs to one
/// elaboration run, which creates it beside the type store its keys and
/// its view of the class environment are interned in, and drops it when
/// the run ends. Entries never go stale: they are context-independent,
/// and class environments are immutable once built; a cache serves one
/// class environment and one store, and its table grows only with the
/// distinct goals its run derives.
#[derive(Debug, Default)]
pub struct ResolveCache {
    table: FastMap<(NameId, TypeId), CacheEntry>,
    /// The class environment in the caller's store, a class at a time.
    classes: FastMap<NameId, StoreClass>,
    scratch: Scratch,
    /// When `false`, the table is neither consulted nor populated but
    /// counters still accumulate — the cache-off baseline.
    pub enabled: bool,
    pub stats: ResolveStats,
    /// Explain-trace sink. `None` (the default) means tracing is off
    /// and resolution allocates no trace structures at all.
    pub trace: Option<Box<ResolveTraceLog>>,
    /// Metrics sink. Off (and allocation-free) by default; enable with
    /// [`ResolveCache::enable_metrics`] and harvest with
    /// [`ResolveCache::flush_metrics`].
    pub metrics: MetricsRegistry,
    /// Cooperative cancellation, polled every [`CANCEL_POLL_GOALS`]
    /// goals inside the search loop. `None` (the default) costs one
    /// branch per poll site.
    cancel: Option<CancelToken>,
    /// Flight-recorder scope: one `goal` event per resolved goal
    /// (depth, memo hit/miss). Off (one branch per site) by default.
    events: EventScope,
}

impl ResolveCache {
    /// An active cache.
    pub fn new() -> Self {
        ResolveCache {
            enabled: true,
            ..Default::default()
        }
    }

    /// A counters-only cache: never hits, never stores. Used for the
    /// memo-off baseline so the same code path is measured both ways.
    pub fn disabled() -> Self {
        ResolveCache::default()
    }

    /// Number of tabled derivations.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Turn on explain-tracing: subsequent resolutions append one goal
    /// tree per top-level goal to the trace log. Idempotent.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Box::new(ResolveTraceLog::default()));
        }
    }

    /// Detach the accumulated explain-trace (tracing turns off).
    pub fn take_trace(&mut self) -> Option<ResolveTraceLog> {
        self.trace.take().map(|b| *b)
    }

    /// Turn on metrics collection. Idempotent; the goal-depth histogram
    /// accumulates as resolution runs, while table/interner totals are
    /// folded in by [`ResolveCache::flush_metrics`].
    pub fn enable_metrics(&mut self) {
        if !self.metrics.is_enabled() {
            self.metrics = MetricsRegistry::new();
        }
    }

    /// Install a cancellation token; subsequent resolutions return
    /// [`ResolveError::Cancelled`] shortly after it fires.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Install a flight-recorder scope; per-goal events record into it
    /// as resolution runs.
    pub fn set_events(&mut self, events: EventScope) {
        self.events = events;
    }

    /// Fold the session totals — resolution counters, the traffic of
    /// `types` (the store the session resolved in), and end-of-run
    /// table sizes — into the metrics registry. Call once, when the
    /// cache's session ends: the fold is cumulative, so flushing twice
    /// double-counts. No-op (and allocation-free) when metrics are off.
    pub fn flush_metrics(&mut self, types: &Interner) {
        if !self.metrics.is_enabled() {
            return;
        }
        self.metrics
            .add(CounterId::ResolveCacheHits, self.stats.table_hits);
        self.metrics
            .add(CounterId::ResolveCacheMisses, self.stats.table_misses);
        self.metrics.add(CounterId::ResolveGoals, self.stats.goals);
        self.metrics.add(
            CounterId::ResolveDictsConstructed,
            self.stats.dicts_constructed,
        );
        let intern = types.stats();
        self.metrics.add(CounterId::InternHits, intern.hits);
        self.metrics.add(CounterId::InternFresh, intern.fresh);
        self.metrics
            .add(CounterId::InternMapVisits, intern.map_visits);
        self.metrics
            .set_gauge(GaugeId::InternTableSize, types.len() as u64);
        self.metrics
            .set_gauge(GaugeId::ResolveCacheEntries, self.table.len() as u64);
    }

    /// `class` as seen from `types`, interned on first use.
    fn class(&mut self, env: &ClassEnv, types: &mut Interner, class: NameId) -> &StoreClass {
        self.classes
            .entry(class)
            .or_insert_with(|| StoreClass::intern(env, types, class))
    }

    /// Find the first instance of `goal`'s class whose head matches
    /// `goal`, push its context, instantiated and blamed on `goal`'s
    /// span, to `scratch.subgoals`, and return its id. The class must
    /// have been looked up ([`ResolveCache::class`]) before.
    fn match_instance(&mut self, types: &mut Interner, goal: IdPred) -> Option<usize> {
        let class = self.classes.get(&goal.class)?;
        let Scratch {
            bindings,
            work,
            subgoals,
            ..
        } = &mut self.scratch;
        let inst = class
            .instances
            .iter()
            .find(|inst| match_ids(types, inst.head, goal.ty, bindings, work))?;
        for p in &inst.context {
            let ty = types.map_vars(p.ty, |v| {
                bindings.iter().find(|(w, _)| *w == v).map(|&(_, t)| t)
            });
            subgoals.push(IdPred {
                class: p.class,
                ty,
                span: goal.span,
            });
        }
        Some(inst.id)
    }

    /// Breadth-first search over superclass edges from each assumption
    /// for `goal`. Returns the projection chain if found. Each queue
    /// entry examined costs a step of `steps`; the search gives up when
    /// `steps` reaches `max_steps`. A visited set bounds it, so
    /// superclass graphs (validated acyclic at build time, but belt and
    /// braces) cannot loop it.
    fn via_supers(
        &mut self,
        env: &ClassEnv,
        types: &mut Interner,
        assumptions: &[IdPred],
        goal: IdPred,
        steps: &mut usize,
        max_steps: usize,
    ) -> Option<DictDeriv> {
        let mut queue = std::mem::take(&mut self.scratch.queue);
        let mut visited = std::mem::take(&mut self.scratch.visited);
        queue.clear();
        visited.clear();
        queue.extend(
            (0..)
                .zip(assumptions)
                .map(|(i, a)| (a.class, a.ty, Via::Param(i))),
        );
        let mut found = None;
        let mut qi = 0usize;
        while qi < queue.len() {
            if *steps >= max_steps {
                break;
            }
            *steps += 1;
            let (class, ty, _) = queue[qi];
            qi += 1;
            if !visited.insert((class, ty)) {
                continue;
            }
            if (class, ty) == (goal.class, goal.ty) {
                found = Some(qi - 1);
                break;
            }
            let parent = qi - 1;
            for &(sup, slot) in &self.class(env, types, class).supers {
                queue.push((sup, ty, Via::Super { parent, slot }));
            }
        }
        let deriv = found.map(|at| projection(&queue, at));
        self.scratch.queue = queue;
        self.scratch.visited = visited;
        deriv
    }
}

/// The derivation of superclass-search entry `at`: its assumption,
/// projected through each superclass slot on the way down to it.
fn projection(queue: &[(NameId, TypeId, Via)], at: usize) -> DictDeriv {
    match queue[at].2 {
        Via::Param(index) => DictDeriv::FromParam { index },
        Via::Super { parent, slot } => DictDeriv::FromSuper {
            base: Box::new(projection(queue, parent)),
            slot,
        },
    }
}

struct Search<'e> {
    env: &'e ClassEnv,
    types: &'e mut Interner,
    assumptions: &'e [IdPred],
    budget: ReduceBudget,
    steps: usize,
    cache: &'e mut ResolveCache,
    /// Every assumption is head-normal-form (variable-headed), so no
    /// pure goal can ever be discharged by one — the precondition for
    /// consulting the table (see the module docs on soundness).
    assumptions_hnf: bool,
    /// Snapshot of `cache.trace.is_some()`: explain-tracing is on.
    /// When `false`, resolution takes one extra branch per goal and
    /// builds nothing.
    tracing: bool,
    /// One frame per goal currently being resolved; each frame
    /// collects the trace nodes of that goal's subgoals.
    node_stack: Vec<Vec<TraceNode>>,
}

impl<'e> Search<'e> {
    /// Resolve one goal. With tracing off this is a tail call into
    /// [`Search::resolve_step`]; with tracing on it brackets the step
    /// with a subgoal-collection frame and records a [`TraceNode`]
    /// labelled with the goal's sequence number, predicate, and how it
    /// was (or failed to be) discharged.
    fn resolve(&mut self, goal: IdPred, depth: usize) -> Result<DictDeriv, ResolveError> {
        if !self.tracing {
            let mut via = None;
            return self.resolve_step(goal, depth, &mut via);
        }
        // `resolve_step` increments the goal counter first thing, so
        // this goal's sequence number is the next count.
        let seq = self.cache.stats.goals + 1;
        self.node_stack.push(Vec::new());
        let mut via = None;
        let result = self.resolve_step(goal, depth, &mut via);
        let children = self.node_stack.pop().unwrap_or_default();
        let outcome = match (&result, via) {
            (Ok(_), Some(v)) => v,
            (Ok(_), None) => "resolved".to_string(),
            (Err(e), _) => format!("failed: {e}"),
        };
        let pred = goal.tree(self.types);
        let node = TraceNode::new(format!("[#{seq}] {pred}: {outcome}"), children);
        if let Some(frame) = self.node_stack.last_mut() {
            frame.push(node);
        } else if let Some(log) = self.cache.trace.as_mut() {
            log.goals.push(node);
        }
        result
    }

    /// The actual backward-chaining step behind [`Search::resolve`].
    /// On success (and when tracing) `via` is set to a human
    /// description of how the goal was discharged.
    fn resolve_step(
        &mut self,
        goal: IdPred,
        depth: usize,
        via: &mut Option<String>,
    ) -> Result<DictDeriv, ResolveError> {
        self.steps += 1;
        self.cache.stats.goals += 1;
        self.cache.stats.steps += 1;
        // One observation per goal: the histogram's count always equals
        // `stats.goals` for the same session.
        self.cache
            .metrics
            .observe(HistogramId::ResolveGoalDepth, depth as u64);
        let goal_seq = self.cache.stats.goals;
        // Poll the cancellation token every few goals: cheap enough to
        // keep deadline latency low (one goal is itself bounded work),
        // rare enough that the clock read stays off the hot path.
        if self.steps & (CANCEL_POLL_GOALS - 1) == 0 {
            if let Some(c) = &self.cache.cancel {
                if c.is_cancelled() {
                    self.cache.events.cancelled(Stage::Elaborate);
                    let pred = goal.tree(self.types);
                    return Err(ResolveError::Cancelled { pred });
                }
            }
        }
        if self.steps > self.budget.max_steps {
            return Err(ResolveError::BudgetExhausted {
                pred: goal.tree(self.types),
                depth: false,
            });
        }
        if depth > self.budget.max_depth {
            return Err(ResolveError::BudgetExhausted {
                pred: goal.tree(self.types),
                depth: true,
            });
        }
        let key = (goal.class, goal.ty);

        // 1. Direct assumption?
        if let Some(i) = self.assumptions.iter().position(|a| (a.class, a.ty) == key) {
            if self.tracing {
                let a = self.assumptions[i].tree(self.types);
                *via = Some(format!("assumption #{i} `{a}`"));
            }
            self.cache.events.record(EventKind::Goal, depth as u64, 2);
            return Ok(DictDeriv::FromParam { index: i });
        }

        // 2. Reachable from an assumption through superclass edges?
        //    (`class Eq a => Ord a` + assumption `Ord t` entails `Eq t`.)
        let before = self.steps;
        let projected = self.cache.via_supers(
            self.env,
            self.types,
            self.assumptions,
            goal,
            &mut self.steps,
            self.budget.max_steps,
        );
        self.cache.stats.steps += (self.steps - before) as u64;
        if let Some(d) = projected {
            if self.tracing {
                *via = Some(describe_projection(&d));
            }
            self.cache.events.record(EventKind::Goal, depth as u64, 2);
            return Ok(d);
        }

        if !self.cache.class(self.env, self.types, goal.class).known {
            return Err(ResolveError::UnknownClass {
                pred: goal.tree(self.types),
            });
        }

        // 3. Memo table. Consulted only after the assumption checks
        //    (which are per-call) and only for pure goals under an
        //    all-HNF assumption set, so a hit is exactly what a fresh
        //    instance-chaining search would have derived. A hit has
        //    already been charged its single budget step above.
        let cache_key = if self.cache.enabled && self.assumptions_hnf && self.types.is_pure(goal.ty)
        {
            if let Some(entry) = self.cache.table.get(&key) {
                self.cache.stats.table_hits += 1;
                if self.tracing {
                    *via = Some(format!("memo hit (derived at goal #{})", entry.origin));
                }
                self.cache.events.record(EventKind::Goal, depth as u64, 1);
                return Ok(entry.deriv.clone());
            }
            self.cache.stats.table_misses += 1;
            self.cache.events.record(EventKind::Goal, depth as u64, 0);
            Some(key)
        } else {
            self.cache.events.record(EventKind::Goal, depth as u64, 2);
            None
        };

        // 4. Cycle check before chaining through instances.
        if self.cache.scratch.in_progress.contains(&key) {
            let types = &mut *self.types;
            let trail = self
                .cache
                .scratch
                .in_progress
                .iter()
                .map(|&(class, ty)| IdPred { class, ty, ..goal }.tree(types))
                .collect();
            return Err(ResolveError::Cycle {
                pred: goal.tree(types),
                trail,
            });
        }

        // 5. Instance chaining. The instance's context, instantiated,
        //    is this goal's segment of the subgoal stack.
        let first = self.cache.scratch.subgoals.len();
        let Some(inst_id) = self.cache.match_instance(self.types, goal) else {
            return Err(ResolveError::NoInstance {
                pred: goal.tree(self.types),
            });
        };
        let end = self.cache.scratch.subgoals.len();
        let inst_head = if self.tracing {
            self.env.instance_by_id(inst_id).map(|i| i.head.to_string())
        } else {
            None
        };

        self.cache.scratch.in_progress.push(key);
        let mut args = Vec::with_capacity(end - first);
        let mut result = Ok(());
        for k in first..end {
            let subgoal = self.cache.scratch.subgoals[k];
            match self.resolve(subgoal, depth + 1) {
                Ok(d) => args.push(d),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.cache.scratch.in_progress.pop();
        self.cache.scratch.subgoals.truncate(first);
        result?;
        self.cache.stats.dicts_constructed += 1;
        let deriv = DictDeriv::FromInstance { inst_id, args };

        // 6. Table the completed derivation. `is_closed` re-checks
        //    that no subgoal leaned on an assumption (belt and braces —
        //    the HNF guard already rules it out for pure goals).
        let mut tabled = false;
        if let Some(key) = cache_key {
            if deriv.is_closed() {
                self.cache.table.insert(
                    key,
                    CacheEntry {
                        deriv: deriv.clone(),
                        origin: goal_seq,
                    },
                );
                tabled = true;
            }
        }
        if self.tracing {
            *via = Some(format!(
                "instance #{inst_id} `{}`{}",
                inst_head.unwrap_or_default(),
                if tabled { " [tabled]" } else { "" }
            ));
        }
        Ok(deriv)
    }
}

impl ClassEnv {
    /// Resolve a tree goal against tree assumptions without
    /// memoization, in a store of its own: [`ClassEnv::resolve_tree`]
    /// with a throwaway disabled cache.
    pub fn resolve(
        &self,
        pred: &Pred,
        assumptions: &[Pred],
        budget: ReduceBudget,
    ) -> Result<DictDeriv, ResolveError> {
        let mut types = Interner::new();
        let mut cache = ResolveCache::disabled();
        self.resolve_tree(pred, assumptions, budget, &mut cache, &mut types)
    }

    /// [`ClassEnv::resolve_with`] for a tree goal and tree assumptions:
    /// interns them into `types`, the store `cache` keys into, and
    /// resolves there.
    pub fn resolve_tree(
        &self,
        pred: &Pred,
        assumptions: &[Pred],
        budget: ReduceBudget,
        cache: &mut ResolveCache,
        types: &mut Interner,
    ) -> Result<DictDeriv, ResolveError> {
        let goal = types.intern_pred(pred);
        let assumptions: Vec<IdPred> = assumptions.iter().map(|a| types.intern_pred(a)).collect();
        self.resolve_with(&goal, &assumptions, budget, cache, types)
    }

    /// Resolve `goal` to a dictionary recipe against `assumptions` (the
    /// dictionary parameters in scope, in order), both in `types`,
    /// consulting and populating `cache`. Returns exactly what
    /// resolution without the table would — the table only
    /// short-circuits derivations that are independent of the
    /// assumption set (see the module docs) — while charging a tabled
    /// goal a single budget step.
    pub fn resolve_with(
        &self,
        goal: &IdPred,
        assumptions: &[IdPred],
        budget: ReduceBudget,
        cache: &mut ResolveCache,
        types: &mut Interner,
    ) -> Result<DictDeriv, ResolveError> {
        let assumptions_hnf = assumptions.iter().all(|a| a.in_hnf(types));
        let tracing = cache.trace.is_some();
        Search {
            env: self,
            types,
            assumptions,
            budget,
            steps: 0,
            cache,
            assumptions_hnf,
            tracing,
            node_stack: Vec::new(),
        }
        .resolve(*goal, 0)
    }

    /// Context reduction for generalization: rewrite each predicate to
    /// head-normal form (variable-headed), discharging constructor-headed
    /// predicates through instances, then drop duplicates and
    /// predicates entailed by the rest via superclasses. `preds` live in
    /// `types`; `cache` supplies the class environment as seen from
    /// `types`, and its table and counters are left alone.
    ///
    /// Each distinct input predicate is reduced, and charged to the step
    /// budget, once. A repeat reports the same errors under its own
    /// span, one budget step each, so the output stays within the
    /// budget however often an input repeats.
    ///
    /// Returns the reduced context and all resolution errors
    /// encountered (e.g. `NoInstance` for `Eq (Int -> Int)`), one per
    /// occurrence of the failing input.
    pub fn reduce_context(
        &self,
        preds: &[IdPred],
        budget: ReduceBudget,
        types: &mut Interner,
        cache: &mut ResolveCache,
    ) -> (Vec<IdPred>, Vec<ResolveError>) {
        let mut errors: Vec<ResolveError> = Vec::new();
        let mut steps = 0usize;

        // Phase 1: to HNF. An input's sub-goals all carry its span, so a
        // repeat's outcome is the first occurrence's, re-spanned. Its HNF
        // predicates are pushed once, under the last occurrence reached:
        // simplification keeps only the last copy of each anyway.
        struct Reduced {
            hnf: Vec<IdPred>,
            errors: std::ops::Range<usize>,
            last: usize,
        }
        let mut reduced: FastMap<(NameId, TypeId), Reduced> = FastMap::default();
        'inputs: for (i, p) in preds.iter().enumerate() {
            let key = (p.class, p.ty);
            if let Some(r) = reduced.get_mut(&key) {
                r.last = i;
                for e in r.errors.clone() {
                    steps += 1;
                    if steps > budget.max_steps {
                        errors.push(ResolveError::BudgetExhausted {
                            pred: p.tree(types),
                            depth: false,
                        });
                        break 'inputs;
                    }
                    let mut err = errors[e].clone();
                    err.pred_mut().span = p.span;
                    errors.push(err);
                }
                continue;
            }
            let e = errors.len();
            let (hnf, done) = self.to_hnf(*p, budget, types, cache, &mut steps, &mut errors);
            reduced.insert(
                key,
                Reduced {
                    hnf,
                    errors: e..errors.len(),
                    last: i,
                },
            );
            if !done {
                break;
            }
        }
        let mut outcomes: Vec<Reduced> = reduced.into_values().collect();
        outcomes.sort_unstable_by_key(|r| r.last);
        let hnf: Vec<IdPred> = outcomes
            .into_iter()
            .flat_map(|r| {
                let span = preds[r.last].span;
                r.hnf.into_iter().map(move |q| IdPred { span, ..q })
            })
            .collect();

        // Phase 2: simplify. Keep the last occurrence of each
        // constraint, and only if it is not entailed by the *other*
        // retained constraints (via superclasses).
        let mut seen = FastSet::default();
        let mut distinct: Vec<IdPred> = hnf
            .iter()
            .rev()
            .filter(|p| seen.insert((p.class, p.ty)))
            .copied()
            .collect();
        distinct.reverse();
        let mut kept: Vec<IdPred> = Vec::new();
        let mut others: Vec<IdPred> = Vec::new();
        for (i, &p) in distinct.iter().enumerate() {
            others.clear();
            others.extend_from_slice(&kept);
            others.extend_from_slice(&distinct[i + 1..]);
            // Entailment through assumptions and superclass edges only:
            // discharging via an instance would be wrong here (an HNF
            // pred has a variable head, so no instance applies anyway —
            // this is the THIH `bySuper` half). Each check has a step
            // budget of its own.
            let mut steps = 0usize;
            if cache
                .via_supers(self, types, &others, p, &mut steps, budget.max_steps)
                .is_none()
            {
                kept.push(p);
            }
        }
        (kept, errors)
    }

    /// Reduce one input predicate to HNF through instances, charging
    /// `steps`: the HNF predicates reached, and `false` if the step
    /// budget ran out, which ends the whole reduction.
    fn to_hnf(
        &self,
        pred: IdPred,
        budget: ReduceBudget,
        types: &mut Interner,
        cache: &mut ResolveCache,
        steps: &mut usize,
        errors: &mut Vec<ResolveError>,
    ) -> (Vec<IdPred>, bool) {
        let mut hnf = Vec::new();
        let mut work: Vec<(IdPred, usize)> = vec![(pred, 0)];
        while let Some((p, depth)) = work.pop() {
            *steps += 1;
            if *steps > budget.max_steps {
                errors.push(ResolveError::BudgetExhausted {
                    pred: p.tree(types),
                    depth: false,
                });
                return (hnf, false);
            }
            if p.in_hnf(types) {
                hnf.push(p);
                continue;
            }
            if depth > budget.max_depth {
                errors.push(ResolveError::BudgetExhausted {
                    pred: p.tree(types),
                    depth: true,
                });
                continue;
            }
            if !cache.class(self, types, p.class).known {
                errors.push(ResolveError::UnknownClass {
                    pred: p.tree(types),
                });
                continue;
            }
            let first = cache.scratch.subgoals.len();
            match cache.match_instance(types, p) {
                Some(_) => {
                    let subgoals = &cache.scratch.subgoals[first..];
                    work.extend(subgoals.iter().rev().map(|&sp| (sp, depth + 1)));
                    cache.scratch.subgoals.truncate(first);
                }
                None => errors.push(ResolveError::NoInstance {
                    pred: p.tree(types),
                }),
            }
        }
        (hnf, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ClassInfo, Instance};
    use tc_syntax::Span;
    use tc_types::{Scheme, TyVar, Type};

    fn sp() -> Span {
        Span::DUMMY
    }

    /// Eq (no supers), Ord (super Eq); instances Eq Int, Eq (List a) <= Eq a, Ord Int.
    fn env() -> ClassEnv {
        let mut env = ClassEnv::default();
        env.classes.insert(
            "Eq".into(),
            ClassInfo {
                name: "Eq".into(),
                supers: vec![],
                methods: vec![crate::env::MethodInfo {
                    name: "eq".into(),
                    scheme: Scheme::mono(Type::int()),
                    index: 0,
                    span: sp(),
                }],
                span: sp(),
            },
        );
        env.classes.insert(
            "Ord".into(),
            ClassInfo {
                name: "Ord".into(),
                supers: vec!["Eq".into()],
                methods: vec![],
                span: sp(),
            },
        );
        env.method_owner.insert("eq".into(), ("Eq".into(), 0));
        env.push_instance(Instance::new(
            0,
            0,
            Pred::new("Eq", Type::int(), sp()),
            vec![],
            sp(),
        ));
        env.push_instance(Instance::new(
            1,
            0,
            Pred::new("Eq", Type::list(Type::Var(TyVar(0))), sp()),
            vec![Pred::new("Eq", Type::Var(TyVar(0)), sp())],
            sp(),
        ));
        env.push_instance(Instance::new(
            2,
            0,
            Pred::new("Ord", Type::int(), sp()),
            vec![],
            sp(),
        ));
        env
    }

    #[test]
    fn resolves_ground_instance() {
        let e = env();
        let d = e
            .resolve(&Pred::new("Eq", Type::int(), sp()), &[], Default::default())
            .unwrap();
        assert_eq!(
            d,
            DictDeriv::FromInstance {
                inst_id: 0,
                args: vec![]
            }
        );
    }

    #[test]
    fn resolves_nested_instance() {
        let e = env();
        let d = e
            .resolve(
                &Pred::new("Eq", Type::list(Type::list(Type::int())), sp()),
                &[],
                Default::default(),
            )
            .unwrap();
        // Eq (List (List Int)) = inst1 (inst1 (inst0))
        assert_eq!(
            d,
            DictDeriv::FromInstance {
                inst_id: 1,
                args: vec![DictDeriv::FromInstance {
                    inst_id: 1,
                    args: vec![DictDeriv::FromInstance {
                        inst_id: 0,
                        args: vec![]
                    }]
                }]
            }
        );
    }

    #[test]
    fn resolves_from_assumption_and_superclass() {
        let e = env();
        let assump = [Pred::new("Ord", Type::Var(TyVar(5)), sp())];
        // Ord t5 is a param; Eq t5 comes from Ord's superclass slot 0.
        let d1 = e.resolve(&assump[0], &assump, Default::default()).unwrap();
        assert_eq!(d1, DictDeriv::FromParam { index: 0 });
        let d2 = e
            .resolve(
                &Pred::new("Eq", Type::Var(TyVar(5)), sp()),
                &assump,
                Default::default(),
            )
            .unwrap();
        assert_eq!(
            d2,
            DictDeriv::FromSuper {
                base: Box::new(DictDeriv::FromParam { index: 0 }),
                slot: 0
            }
        );
    }

    #[test]
    fn missing_instance() {
        let e = env();
        let err = e
            .resolve(
                &Pred::new("Eq", Type::bool(), sp()),
                &[],
                Default::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ResolveError::NoInstance { .. }));
    }

    #[test]
    fn self_referential_instance_is_cycle() {
        let mut e = env();
        // instance Eq Bool => Eq Bool  (exact self-cycle)
        e.push_instance(Instance::new(
            9,
            0,
            Pred::new("Eq", Type::bool(), sp()),
            vec![Pred::new("Eq", Type::bool(), sp())],
            sp(),
        ));
        let err = e
            .resolve(
                &Pred::new("Eq", Type::bool(), sp()),
                &[],
                Default::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ResolveError::Cycle { .. }), "{err:?}");
    }

    #[test]
    fn growing_goals_hit_budget() {
        let mut e = ClassEnv::default();
        e.classes.insert(
            "C".into(),
            ClassInfo {
                name: "C".into(),
                supers: vec![],
                methods: vec![],
                span: sp(),
            },
        );
        // instance C (List (List a)) => C (List a): goals grow forever.
        e.push_instance(Instance::new(
            0,
            0,
            Pred::new("C", Type::list(Type::Var(TyVar(0))), sp()),
            vec![Pred::new(
                "C",
                Type::list(Type::list(Type::Var(TyVar(0)))),
                sp(),
            )],
            sp(),
        ));
        let err = e
            .resolve(
                &Pred::new("C", Type::list(Type::int()), sp()),
                &[],
                Default::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, ResolveError::BudgetExhausted { .. }),
            "{err:?}"
        );
    }

    /// [`ClassEnv::reduce_context`] over trees, in a store of its own.
    fn reduce(
        e: &ClassEnv,
        preds: &[Pred],
        budget: ReduceBudget,
    ) -> (Vec<Pred>, Vec<ResolveError>) {
        let mut types = Interner::new();
        let ids: Vec<IdPred> = preds.iter().map(|p| types.intern_pred(p)).collect();
        let (kept, errors) =
            e.reduce_context(&ids, budget, &mut types, &mut ResolveCache::disabled());
        (kept.iter().map(|p| p.tree(&mut types)).collect(), errors)
    }

    #[test]
    fn reduce_context_discharges_and_simplifies() {
        let e = env();
        let preds = vec![
            Pred::new("Eq", Type::list(Type::Var(TyVar(3))), sp()), // -> Eq t3
            Pred::new("Eq", Type::Var(TyVar(3)), sp()),             // duplicate after HNF
            Pred::new("Ord", Type::Var(TyVar(3)), sp()),            // entails Eq t3
        ];
        let (kept, errs) = reduce(&e, &preds, Default::default());
        assert!(errs.is_empty(), "{errs:?}");
        // Only Ord t3 should remain: Eq t3 is implied by its superclass.
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].class, "Ord");
    }

    #[test]
    fn reduce_context_reduces_each_distinct_input_once() {
        // 20,000 copies of one predicate, twice the step budget: each
        // distinct input is reduced once, and simplification keeps the
        // last copy, span and all.
        let e = env();
        let span = |i: u32| Span::new(i, i + 1);
        let preds: Vec<Pred> = (0..20_000)
            .map(|i| Pred::new("Eq", Type::Var(TyVar(3)), span(i)))
            .collect();
        let start = std::time::Instant::now();
        let (kept, errs) = reduce(&e, &preds, Default::default());
        let took = start.elapsed();
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].span, span(19_999));
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");

        // A repeated failure is reported once per occurrence, under
        // that occurrence's span, for the price of one reduction plus a
        // step per replayed error.
        let bad = |i: u32| {
            Pred::new(
                "Eq",
                Type::list(Type::fun(Type::int(), Type::int())),
                span(i),
            )
        };
        let (kept, errs) = reduce(
            &e,
            &(0..5_000).map(bad).collect::<Vec<_>>(),
            Default::default(),
        );
        assert!(kept.is_empty());
        assert_eq!(errs.len(), 5_000);
        for (i, err) in (0..).zip(&errs) {
            assert!(matches!(err, ResolveError::NoInstance { .. }), "{err:?}");
            assert_eq!(err.pred().span, span(i));
        }

        // So the budget still bounds the output: the first copy costs
        // two steps (`Eq (List (Int -> Int))`, then `Eq (Int -> Int)`)
        // and each replay one, so copy 9,999 exhausts 10,000 steps.
        let (kept, errs) = reduce(
            &e,
            &(0..20_000).map(bad).collect::<Vec<_>>(),
            Default::default(),
        );
        assert!(kept.is_empty());
        assert_eq!(errs.len(), 10_000);
        let last = errs.last().unwrap();
        assert!(
            matches!(last, ResolveError::BudgetExhausted { depth: false, .. }),
            "{last:?}"
        );
        assert_eq!(last.pred().span, span(9_999));
    }

    #[test]
    fn reduce_context_reports_no_instance() {
        let e = env();
        let preds = vec![Pred::new("Eq", Type::fun(Type::int(), Type::int()), sp())];
        let (kept, errs) = reduce(&e, &preds, Default::default());
        assert!(kept.is_empty());
        assert!(matches!(errs[0], ResolveError::NoInstance { .. }));
    }

    /// `Eq (List^depth Int)`.
    fn tower(depth: usize) -> Pred {
        let mut t = Type::int();
        for _ in 0..depth {
            t = Type::list(t);
        }
        Pred::new("Eq", t, sp())
    }

    #[test]
    fn tabled_resolution_agrees_with_fresh() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        for depth in [0, 1, 3, 5, 3, 1, 0] {
            let goal = tower(depth);
            let fresh = e.resolve(&goal, &[], Default::default());
            let tabled = e.resolve_tree(&goal, &[], Default::default(), &mut cache, &mut types);
            assert_eq!(fresh, tabled, "depth {depth}");
        }
        assert!(cache.stats.table_hits > 0, "{:?}", cache.stats);
        assert!(!cache.is_empty());
    }

    #[test]
    fn table_hit_costs_one_step() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        let goal = tower(6);
        e.resolve_tree(&goal, &[], Default::default(), &mut cache, &mut types)
            .unwrap();
        assert!(cache.stats.steps > 1, "a tower derivation is multi-step");
        // A second resolution fits in a one-step budget: pure lookup.
        let tight = ReduceBudget {
            max_depth: 64,
            max_steps: 1,
        };
        let hit = e.resolve_tree(&goal, &[], tight, &mut cache, &mut types);
        assert!(hit.is_ok(), "{hit:?}");
        // Without the table the same budget is exhausted.
        let fresh = e.resolve(&goal, &[], tight);
        assert!(
            matches!(fresh, Err(ResolveError::BudgetExhausted { .. })),
            "{fresh:?}"
        );
    }

    #[test]
    fn cycle_detection_survives_tabling() {
        let mut e = env();
        e.push_instance(Instance::new(
            9,
            0,
            Pred::new("Eq", Type::bool(), sp()),
            vec![Pred::new("Eq", Type::bool(), sp())],
            sp(),
        ));
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        for _ in 0..2 {
            let err = e
                .resolve_tree(
                    &Pred::new("Eq", Type::bool(), sp()),
                    &[],
                    Default::default(),
                    &mut cache,
                    &mut types,
                )
                .unwrap_err();
            assert!(matches!(err, ResolveError::Cycle { .. }), "{err:?}");
        }
        // Failures are never tabled.
        assert!(cache.is_empty());
        assert_eq!(cache.stats.table_hits, 0);
    }

    #[test]
    fn non_pure_goals_are_not_tabled() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        let assump = [Pred::new("Eq", Type::Var(TyVar(7)), sp())];
        let goal = Pred::new("Eq", Type::list(Type::Var(TyVar(7))), sp());
        for _ in 0..3 {
            let d = e
                .resolve_tree(&goal, &assump, Default::default(), &mut cache, &mut types)
                .unwrap();
            assert_eq!(
                d,
                DictDeriv::FromInstance {
                    inst_id: 1,
                    args: vec![DictDeriv::FromParam { index: 0 }]
                }
            );
        }
        assert!(cache.is_empty(), "open derivations must not be tabled");
        assert_eq!(cache.stats.table_hits, 0);
    }

    #[test]
    fn ground_assumptions_bypass_the_table() {
        // A ground (non-HNF) assumption can discharge a ground goal;
        // the table must stand aside so cached and fresh resolution
        // stay identical.
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        // Prime the table with the closed derivation.
        let goal = Pred::new("Eq", Type::list(Type::int()), sp());
        e.resolve_tree(&goal, &[], Default::default(), &mut cache, &mut types)
            .unwrap();
        assert!(!cache.is_empty());
        // Now resolve the same goal with itself as a ground assumption:
        // fresh resolution answers FromParam, and so must cached.
        let assump = [goal.clone()];
        let cached = e
            .resolve_tree(&goal, &assump, Default::default(), &mut cache, &mut types)
            .unwrap();
        let fresh = e.resolve(&goal, &assump, Default::default()).unwrap();
        assert_eq!(cached, DictDeriv::FromParam { index: 0 });
        assert_eq!(cached, fresh);
    }

    #[test]
    fn disabled_cache_counts_but_never_hits() {
        let e = env();
        let mut cache = ResolveCache::disabled();
        let mut types = Interner::new();
        for _ in 0..3 {
            e.resolve_tree(&tower(4), &[], Default::default(), &mut cache, &mut types)
                .unwrap();
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats.table_hits, 0);
        assert_eq!(cache.stats.dicts_constructed, 15, "{:?}", cache.stats);
        assert!(cache.stats.goals >= 15);
    }

    #[test]
    fn explain_trace_records_instances_and_memo_hits() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        cache.enable_trace();
        // First derivation: full instance chain, tabled.
        e.resolve_tree(&tower(1), &[], Default::default(), &mut cache, &mut types)
            .unwrap();
        // Second: answered by the table, with provenance.
        e.resolve_tree(&tower(1), &[], Default::default(), &mut cache, &mut types)
            .unwrap();
        let log = cache.take_trace().expect("tracing was enabled");
        assert!(cache.trace.is_none(), "take_trace turns tracing off");
        assert_eq!(log.len(), 2, "{log:?}");
        let rendered = log.render();
        assert!(rendered.contains("Eq (List Int)"), "{rendered}");
        assert!(rendered.contains("instance #1"), "{rendered}");
        assert!(rendered.contains("[tabled]"), "{rendered}");
        assert!(rendered.contains("instance #0"), "{rendered}");
        // The second goal's node is a memo hit pointing at goal #1.
        assert!(
            rendered.contains("memo hit (derived at goal #1)"),
            "{rendered}"
        );
        // The subgoal (Eq Int) is indented under its parent.
        assert!(rendered.contains("\n  [#2]"), "{rendered}");
    }

    #[test]
    fn explain_trace_records_assumptions_and_projections() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        cache.enable_trace();
        let assump = [Pred::new("Ord", Type::Var(TyVar(5)), sp())];
        e.resolve_tree(
            &assump[0],
            &assump,
            Default::default(),
            &mut cache,
            &mut types,
        )
        .unwrap();
        e.resolve_tree(
            &Pred::new("Eq", Type::Var(TyVar(5)), sp()),
            &assump,
            Default::default(),
            &mut cache,
            &mut types,
        )
        .unwrap();
        let rendered = cache.take_trace().expect("tracing on").render();
        assert!(rendered.contains("assumption #0"), "{rendered}");
        assert!(
            rendered.contains("superclass projection of assumption #0 (slots [0])"),
            "{rendered}"
        );
    }

    #[test]
    fn explain_trace_records_failures() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        cache.enable_trace();
        e.resolve_tree(
            &Pred::new("Eq", Type::bool(), sp()),
            &[],
            Default::default(),
            &mut cache,
            &mut types,
        )
        .unwrap_err();
        let rendered = cache.take_trace().expect("tracing on").render();
        assert!(
            rendered.contains("failed: no instance for `Eq Bool`"),
            "{rendered}"
        );
    }

    #[test]
    fn tracing_off_allocates_no_trace_structures() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        e.resolve_tree(&tower(3), &[], Default::default(), &mut cache, &mut types)
            .unwrap();
        assert!(cache.trace.is_none());
        assert!(cache.take_trace().is_none());
    }

    #[test]
    fn traced_resolution_agrees_with_untraced() {
        let e = env();
        let mut traced = ResolveCache::new();
        let mut types = Interner::new();
        traced.enable_trace();
        let mut plain = ResolveCache::new();
        let mut plain_types = Interner::new();
        for depth in [0, 2, 4, 2, 0] {
            let goal = tower(depth);
            let a = e.resolve_tree(&goal, &[], Default::default(), &mut traced, &mut types);
            let b = e.resolve_tree(&goal, &[], Default::default(), &mut plain, &mut plain_types);
            assert_eq!(a, b, "depth {depth}");
        }
        assert_eq!(
            traced.stats, plain.stats,
            "tracing must not perturb counters"
        );
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = ResolveStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.goals = 10;
        s.table_hits = 9;
        assert!((s.hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn metrics_agree_with_stats_after_flush() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        cache.enable_metrics();
        for depth in [4, 4, 2] {
            e.resolve_tree(
                &tower(depth),
                &[],
                Default::default(),
                &mut cache,
                &mut types,
            )
            .unwrap();
        }
        cache.flush_metrics(&types);
        let m = &cache.metrics;
        assert_eq!(
            m.counter(CounterId::ResolveCacheHits),
            cache.stats.table_hits
        );
        assert_eq!(
            m.counter(CounterId::ResolveCacheMisses),
            cache.stats.table_misses
        );
        assert_eq!(m.counter(CounterId::ResolveGoals), cache.stats.goals);
        assert_eq!(
            m.counter(CounterId::ResolveDictsConstructed),
            cache.stats.dicts_constructed
        );
        assert!(m.counter(CounterId::InternFresh) > 0);
        assert_eq!(m.gauge(GaugeId::ResolveCacheEntries), cache.len() as u64);
        // One histogram observation per goal, and the tower goes at
        // least 4 deep, so some observation sits in a bucket >= 4's.
        let h = m.histogram(HistogramId::ResolveGoalDepth).expect("on");
        assert_eq!(h.count, cache.stats.goals);
        assert!(h.sum > 0, "subgoals run at nonzero depth");
    }

    #[test]
    fn metrics_off_by_default_and_allocation_free() {
        let e = env();
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        e.resolve_tree(&tower(3), &[], Default::default(), &mut cache, &mut types)
            .unwrap();
        cache.flush_metrics(&types);
        assert!(cache.metrics.allocates_nothing());
        assert_eq!(cache.metrics.counter(CounterId::ResolveGoals), 0);
    }

    #[test]
    fn cancellation_interrupts_a_deep_resolution() {
        let e = env();
        let budget = ReduceBudget {
            max_depth: 300,
            max_steps: 100_000,
        };
        // Deep enough that the search passes the 64-step poll point.
        let goal = tower(200);
        let mut cache = ResolveCache::new();
        let mut types = Interner::new();
        let token = CancelToken::new();
        token.cancel();
        cache.set_cancel(token);
        let err = e
            .resolve_tree(&goal, &[], budget, &mut cache, &mut types)
            .unwrap_err();
        assert!(matches!(err, ResolveError::Cancelled { .. }), "{err:?}");
        assert_eq!(err.code(), "E0423");
        // The same goal resolves under the same budget without a token.
        let mut plain = ResolveCache::new();
        let mut plain_types = Interner::new();
        assert!(e
            .resolve_tree(&goal, &[], budget, &mut plain, &mut plain_types)
            .is_ok());
    }
}
