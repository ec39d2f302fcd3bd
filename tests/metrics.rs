//! Integration tests for the metrics subsystem: the zero-cost-when-off
//! discipline, cross-stage agreement between the metric catalog and
//! the existing pipeline counters, and the JSON/table renderings.

use typeclasses::trace::json;
use typeclasses::{check_source, run_source, CounterId, GaugeId, HistogramId, Options, Outcome};

const MEMBER_MAIN: &str = "main = member 3 (enumFromTo 1 5);";

const SHARING_SRC: &str = "p = eq (cons 1 nil) (cons 2 nil);\n\
                           q = and (eq (cons 1 nil) nil) (eq (cons 3 nil) nil);\n\
                           main = q;";

fn metered() -> Options {
    Options {
        collect_metrics: true,
        ..Options::default()
    }
}

// ------------------------------------------------------------- off mode

#[test]
fn default_options_allocate_no_metric_storage() {
    let r = run_source(MEMBER_MAIN, &Options::default());
    assert!(matches!(r.outcome, Outcome::Value(_)));
    assert!(r.check.stats.metrics.allocates_nothing());
    // Every accessor degrades to zero / empty rather than panicking.
    assert_eq!(r.check.stats.metrics.counter(CounterId::ResolveGoals), 0);
    assert_eq!(r.check.stats.metrics.gauge(GaugeId::InternTableSize), 0);
    assert!(r
        .check
        .stats
        .metrics
        .histogram(HistogramId::ResolveGoalDepth)
        .is_none());
}

// ----------------------------------------------- cross-stage agreement

#[test]
fn resolver_metrics_agree_with_resolve_stats() {
    let c = check_source(SHARING_SRC, &metered());
    assert!(c.ok(), "{}", c.render_diagnostics());
    let m = &c.stats.metrics;
    assert_eq!(
        m.counter(CounterId::ResolveCacheHits),
        c.stats.resolve.table_hits
    );
    assert_eq!(
        m.counter(CounterId::ResolveCacheMisses),
        c.stats.resolve.table_misses
    );
    assert_eq!(m.counter(CounterId::ResolveGoals), c.stats.resolve.goals);
    assert_eq!(
        m.counter(CounterId::ResolveDictsConstructed),
        c.stats.resolve.dicts_constructed
    );
    // The goal-depth histogram observes exactly once per goal.
    let depth = m
        .histogram(HistogramId::ResolveGoalDepth)
        .expect("metrics on");
    assert_eq!(depth.count, c.stats.resolve.goals);
}

#[test]
fn interner_and_cache_gauges_are_populated() {
    let c = check_source(SHARING_SRC, &metered());
    let m = &c.stats.metrics;
    assert!(m.counter(CounterId::InternFresh) > 0, "goals were interned");
    assert!(
        m.gauge(GaugeId::InternTableSize) >= 1,
        "the interner tabled at least one node"
    );
    assert!(
        m.gauge(GaugeId::ResolveCacheEntries) as usize >= 1,
        "ground goals were memoized"
    );
}

#[test]
fn share_metrics_agree_with_share_stats() {
    let c = check_source(SHARING_SRC, &metered());
    let m = &c.stats.metrics;
    assert!(c.stats.share.hoisted_bindings > 0, "{:?}", c.stats.share);
    assert_eq!(
        m.counter(CounterId::ShareDictsHoisted),
        c.stats.share.hoisted_bindings
    );
    assert_eq!(
        m.counter(CounterId::ShareOccurrencesShared),
        c.stats.share.occurrences_shared
    );
    // The let-size histogram sums to the hoisted-binding total.
    let sizes = m.histogram(HistogramId::ShareLetSize).expect("metrics on");
    assert_eq!(sizes.sum, c.stats.share.hoisted_bindings);
    assert!(sizes.count >= 1);
}

#[test]
fn eval_metrics_agree_with_eval_stats() {
    let r = run_source(MEMBER_MAIN, &metered());
    assert!(matches!(r.outcome, Outcome::Value(_)), "{:?}", r.outcome);
    let m = &r.check.stats.metrics;
    let eval = r.check.stats.eval.expect("program was evaluated");
    assert_eq!(m.counter(CounterId::EvalThunksCreated), eval.thunks_created);
    assert_eq!(m.counter(CounterId::EvalForces), eval.forces);
    assert_eq!(m.counter(CounterId::EvalFuelUsed), eval.fuel_used);
    // Per-binding fuel histogram exists even though profiling was not
    // requested by the caller...
    let fuel = m
        .histogram(HistogramId::EvalBindingFuel)
        .expect("metrics on");
    assert!(fuel.count > 0);
    assert!(fuel.sum <= eval.fuel_used);
    // ...and no profile leaks out.
    assert!(r.profile.is_none());
}

#[test]
fn parse_recoveries_are_counted() {
    let clean = check_source(MEMBER_MAIN, &metered());
    assert_eq!(clean.stats.metrics.counter(CounterId::ParseRecoveries), 0);
    let broken = check_source("f = = 1;\nmain = 2;", &metered());
    assert!(
        broken.stats.metrics.counter(CounterId::ParseRecoveries) > 0,
        "malformed input recovers at least once"
    );
}

// ----------------------------------------------------- non-interference

#[test]
fn metrics_leave_results_and_counters_unchanged() {
    let plain = run_source(SHARING_SRC, &Options::default());
    let metered = run_source(SHARING_SRC, &metered());
    let (Outcome::Value(a), Outcome::Value(b)) = (&plain.outcome, &metered.outcome) else {
        panic!("{:?} / {:?}", plain.outcome, metered.outcome);
    };
    assert_eq!(a, b);
    assert_eq!(plain.check.stats.resolve, metered.check.stats.resolve);
    assert_eq!(plain.check.stats.share, metered.check.stats.share);
    assert_eq!(plain.check.stats.eval, metered.check.stats.eval);
    assert_eq!(plain.check.pretty_core(), metered.check.pretty_core());
}

// ------------------------------------------------------------ rendering

#[test]
fn stats_json_is_valid_and_carries_the_catalog() {
    let r = run_source(SHARING_SRC, &metered());
    let json_str = r.check.stats.to_json();
    json::check(&json_str).expect("stats JSON must satisfy the RFC 8259 checker");
    for key in [
        "\"metrics\"",
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"resolve.goals\"",
        "\"intern.table_size\"",
        "\"resolve.goal_depth\"",
        "\"hit_rate_pct\"",
    ] {
        assert!(json_str.contains(key), "missing {key} in {json_str}");
    }
    // With metrics off the field is an explicit null, still valid JSON.
    let off = run_source(SHARING_SRC, &Options::default());
    let off_json = off.check.stats.to_json();
    json::check(&off_json).expect("off-mode stats JSON");
    assert!(off_json.contains("\"metrics\": null"), "{off_json}");
}

#[test]
fn metric_table_is_sorted_and_complete() {
    let r = run_source(SHARING_SRC, &metered());
    let table = r.check.stats.metrics.render_table();
    let rows: Vec<&str> = table.lines().skip(1).collect(); // header first
    assert!(!rows.is_empty());
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "table rows must be name-sorted");
    for expected in ["resolve.goals", "intern.fresh", "eval.forces"] {
        assert!(names.contains(&expected), "{expected} missing from {table}");
    }
}
