//! Dictionary sharing: hoist repeated compound-dictionary
//! constructions into a single `letrec` binding per top-level scope.
//!
//! Dictionary conversion spells out every placeholder independently, so
//! a binding that uses `eq` at `List Int` twice builds the compound
//! dictionary `($dictEqList $dictEqInt)` twice — the re-evaluation cost
//! the paper's dictionary-sharing discussion warns about, and exactly
//! what the `L0007` lint flags. This pass runs *between* dictionary
//! conversion and linting: within each top-level binding it finds every
//! maximal instance-constructor application spine that occurs more than
//! once, binds one copy under the binding's dictionary-lambda prefix
//! (`\$d... ->`), and rewrites all occurrences to reference it:
//!
//! ```text
//! f = \$d -> ... ($dictEqList $d) ... ($dictEqList $d) ...
//!   ⇒
//! f = \$d -> letrec { $sh0 = $dictEqList $d } in ... $sh0 ... $sh0 ...
//! ```
//!
//! Dictionary constructions are closed, effect-free values, and the
//! evaluator is lazy, so hoisting can only *reduce* work — evaluation
//! results are bit-identical (the differential suite pins this).
//!
//! Safety conditions for hoisting a spine:
//! * its head is a `$dict…` instance constructor with ≥ 1 argument
//!   (nullary dictionaries are already shared globals);
//! * the head is not the enclosing binding itself — the recursive
//!   self-knot a recursive instance ties inside its own constructor is
//!   generated code, exempt here exactly as in `L0007`;
//! * every free variable is either a global `$dict…` constructor or
//!   one of the binding's dictionary-lambda parameters, so the shared
//!   binding is well-scoped directly under that prefix.

use crate::{pretty, CoreExpr, CoreProgram, Literal};
use std::collections::HashMap;
use tc_trace::{CounterId, HistogramId, MetricsRegistry};

/// Counters from one run of the sharing pass, surfaced by the driver's
/// `--stats` as "dictionaries constructed vs shared".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Maximal compound-dictionary construction sites before the pass.
    pub constructions_before: u64,
    /// Construction sites remaining after the pass (hoisted bindings
    /// count once each).
    pub constructions_after: u64,
    /// Shared `$sh…` bindings introduced.
    pub hoisted_bindings: u64,
    /// Construction occurrences rewritten to a shared reference.
    pub occurrences_shared: u64,
}

/// Run dictionary sharing over every top-level binding in place.
/// Equivalent to [`share_program_metered`] with metrics off.
pub fn share_program(prog: &mut CoreProgram) -> ShareStats {
    share_program_metered(prog, &mut MetricsRegistry::off())
}

/// Run dictionary sharing, additionally folding per-binding
/// observations into `metrics`: the `share.dicts_hoisted` /
/// `share.occurrences_shared` counters and the `share.let_size`
/// histogram (one observation per binding that hoisted anything — the
/// number of `$sh…` definitions its `letrec` introduces). Costs one
/// branch per binding when `metrics` is off.
pub fn share_program_metered(prog: &mut CoreProgram, metrics: &mut MetricsRegistry) -> ShareStats {
    let mut stats = ShareStats {
        constructions_before: count_constructions(prog),
        ..Default::default()
    };
    for (name, expr) in &mut prog.binds {
        let (hoisted, rewritten) = share_binding(name, expr);
        stats.hoisted_bindings += hoisted;
        stats.occurrences_shared += rewritten;
        if hoisted > 0 {
            metrics.observe(HistogramId::ShareLetSize, hoisted);
        }
    }
    metrics.add(CounterId::ShareDictsHoisted, stats.hoisted_bindings);
    metrics.add(CounterId::ShareOccurrencesShared, stats.occurrences_shared);
    stats.constructions_after = count_constructions(prog);
    stats
}

/// Total maximal compound-dictionary construction sites in a program —
/// the quantity the pass minimizes, also used by benches.
pub fn count_constructions(prog: &CoreProgram) -> u64 {
    let mut n = 0u64;
    let mut stack = Vec::new();
    for (_, expr) in &prog.binds {
        stack.push(expr);
        while let Some(e) = stack.pop() {
            if e.dict_construction().is_some() {
                // Maximal spine: nested constructions inside it are
                // already shared by sharing the outermost one.
                n += 1;
                continue;
            }
            e.push_children(&mut stack);
        }
    }
    n
}

/// If `e` is an applied `$dict…` construction whose head is not
/// `self_name`, its identity key (the printed expression).
fn spine_key(e: &CoreExpr, self_name: &str) -> Option<String> {
    match e.dict_construction() {
        Some(head) if head != self_name => Some(pretty(e)),
        _ => None,
    }
}

/// Share one top-level binding in place. Returns (bindings hoisted,
/// occurrences rewritten).
fn share_binding(name: &str, expr: &mut CoreExpr) -> (u64, u64) {
    // Peel the dictionary-lambda prefix: conversion emits
    // `\$d… -> <body>`, and generated dictionary parameters all start
    // with `$d` (user identifiers cannot contain `$`).
    let mut prefix: Vec<&str> = Vec::new();
    let mut body = &*expr;
    while let CoreExpr::Lam(p, b) = body {
        if !p.starts_with("$d") {
            break;
        }
        prefix.push(p);
        body = b;
    }

    // Count maximal candidate spines in first-traversal order.
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut order: Vec<(String, CoreExpr)> = Vec::new();
    let mut stack = vec![body];
    while let Some(e) = stack.pop() {
        if let Some(key) = spine_key(e, name) {
            if !counts.contains_key(&key) && hoistable(e, &prefix) {
                order.push((key.clone(), e.clone()));
            }
            *counts.entry(key).or_insert(0) += 1;
            continue;
        }
        // Reverse the children so the left one pops first: keeps
        // `order` deterministic in (approximate) source order.
        let first = stack.len();
        e.push_children(&mut stack);
        stack[first..].reverse();
    }

    // Keep repeated, hoistable spines; name them in discovery order.
    let mut share_names: HashMap<String, String> = HashMap::new();
    let mut defs: Vec<(String, CoreExpr)> = Vec::new();
    for (key, proto) in order {
        if counts.get(&key).copied().unwrap_or(0) < 2 {
            continue;
        }
        let share = format!("$sh{}", share_names.len());
        share_names.insert(key, share.clone());
        defs.push((share, proto));
    }
    if defs.is_empty() {
        return (0, 0);
    }

    // Rewrite the body; then rewrite each definition's *arguments*
    // (never its own root, which would tie `$shN = $shN`), so shared
    // constructions nested inside other shared constructions reference
    // their sibling binding. The `letrec` takes the body's place, under
    // the prefix.
    let body = under_lambdas(expr, prefix.len());
    let mut rewritten = 0u64;
    rewrite(body, name, &share_names, &mut rewritten);
    for (_, d) in &mut defs {
        rewrite_spine_args(d, name, &share_names, &mut 0);
    }
    let hoisted = defs.len() as u64;
    let inner = std::mem::replace(body, CoreExpr::Lit(Literal::Int(0)));
    *body = CoreExpr::LetRec(defs, Box::new(inner));
    (hoisted, rewritten)
}

/// The body under the first `n` lambdas of `e`.
fn under_lambdas(e: &mut CoreExpr, n: usize) -> &mut CoreExpr {
    if n == 0 {
        return e;
    }
    match e {
        CoreExpr::Lam(_, b) => under_lambdas(b, n - 1),
        _ => e,
    }
}

/// Is the spine's every free variable a global `$dict…` constructor or
/// a dictionary parameter of the enclosing binding?
fn hoistable(e: &CoreExpr, prefix: &[&str]) -> bool {
    free_vars_all(e, &mut Vec::new(), &|v| {
        v.starts_with("$dict") || prefix.contains(&v)
    })
}

/// Does every free variable of `e` (one bound neither by an enclosing
/// `Lam`, `LetRec` or `case` arm within `e` nor in `bound`) satisfy
/// `ok`? Recursion depth is bounded by the parser's expression-depth
/// budget, like the converter's.
fn free_vars_all<'a>(
    e: &'a CoreExpr,
    bound: &mut Vec<&'a str>,
    ok: &impl Fn(&str) -> bool,
) -> bool {
    match e {
        CoreExpr::Var(n) => bound.contains(&n.as_str()) || ok(n),
        CoreExpr::Lam(p, b) => {
            bound.push(p);
            let all = free_vars_all(b, bound, ok);
            bound.pop();
            all
        }
        CoreExpr::LetRec(bs, b) => {
            let base = bound.len();
            bound.extend(bs.iter().map(|(n, _)| n.as_str()));
            let all =
                bs.iter().all(|(_, v)| free_vars_all(v, bound, ok)) && free_vars_all(b, bound, ok);
            bound.truncate(base);
            all
        }
        CoreExpr::Case(scrut, arms) => {
            free_vars_all(scrut, bound, ok)
                && arms.iter().all(|arm| {
                    let base = bound.len();
                    bound.extend(arm.binders.iter().map(String::as_str));
                    let all = free_vars_all(&arm.body, bound, ok);
                    bound.truncate(base);
                    all
                })
        }
        _ => {
            let mut all = true;
            e.for_each_child(|k| all = all && free_vars_all(k, bound, ok));
            all
        }
    }
}

/// Replace every shared construction in `e` with its `$sh…` reference,
/// in place.
fn rewrite(
    e: &mut CoreExpr,
    self_name: &str,
    shares: &HashMap<String, String>,
    rewritten: &mut u64,
) {
    if let Some(key) = spine_key(e, self_name) {
        if let Some(share) = shares.get(&key) {
            *rewritten += 1;
            *e = CoreExpr::Var(share.clone());
            return;
        }
        // An unshared (e.g. single-occurrence) construction may still
        // contain shared ones in argument position.
        rewrite_spine_args(e, self_name, shares, rewritten);
        return;
    }
    let mut go = |e: &mut CoreExpr| rewrite(e, self_name, shares, rewritten);
    match e {
        CoreExpr::Var(_)
        | CoreExpr::Lit(_)
        | CoreExpr::Fail(_)
        | CoreExpr::Placeholder(_)
        | CoreExpr::Con { .. } => {}
        CoreExpr::Case(scrut, arms) => {
            go(scrut);
            for arm in arms {
                go(&mut arm.body);
            }
        }
        CoreExpr::App(f, x) => {
            go(f);
            go(x);
        }
        CoreExpr::Lam(_, b) | CoreExpr::Proj(_, b) => go(b),
        CoreExpr::LetRec(bs, b) => {
            for (_, v) in bs {
                go(v);
            }
            go(b);
        }
        CoreExpr::If(c, t, f) => {
            go(c);
            go(t);
            go(f);
        }
        CoreExpr::Tuple(xs) => xs.iter_mut().for_each(go),
    }
}

/// Rewrite only the argument positions of an application spine,
/// leaving the spine structure (and its head) intact.
fn rewrite_spine_args(
    e: &mut CoreExpr,
    self_name: &str,
    shares: &HashMap<String, String>,
    rewritten: &mut u64,
) {
    let mut spine = e;
    while let CoreExpr::App(f, x) = spine {
        rewrite(x, self_name, shares, rewritten);
        spine = f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> CoreExpr {
        CoreExpr::Var(n.into())
    }

    /// `$dictEqList $dictEqInt`
    fn list_int_dict() -> CoreExpr {
        CoreExpr::app(var("$dict1$Eq$List"), var("$dict0$Eq$Int"))
    }

    fn prog(binds: Vec<(&str, CoreExpr)>) -> CoreProgram {
        CoreProgram {
            binds: binds.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
            main: None,
            linked: None,
        }
    }

    #[test]
    fn repeated_construction_is_hoisted() {
        let body = CoreExpr::apps(var("f"), vec![list_int_dict(), list_int_dict()]);
        let mut p = prog(vec![("main", body)]);
        let stats = share_program(&mut p);
        assert_eq!(stats.constructions_before, 2);
        assert_eq!(stats.constructions_after, 1);
        assert_eq!(stats.hoisted_bindings, 1);
        assert_eq!(stats.occurrences_shared, 2);
        let printed = pretty(&p.binds[0].1);
        assert!(
            printed.contains("letrec {$sh0 = ($dict1$Eq$List $dict0$Eq$Int)}"),
            "{printed}"
        );
        assert!(printed.contains("((f $sh0) $sh0)"), "{printed}");
    }

    #[test]
    fn single_occurrence_is_untouched() {
        let body = CoreExpr::app(var("f"), list_int_dict());
        let mut p = prog(vec![("main", body.clone())]);
        let stats = share_program(&mut p);
        assert_eq!(stats.hoisted_bindings, 0);
        assert_eq!(p.binds[0].1, body);
    }

    #[test]
    fn hoists_under_dict_lambda_prefix() {
        // g = \$dg0$0 -> f ($dictEqList $dg0$0) ($dictEqList $dg0$0)
        let d = CoreExpr::app(var("$dict1$Eq$List"), var("$dg0$0"));
        let body = CoreExpr::Lam(
            "$dg0$0".into(),
            Box::new(CoreExpr::apps(var("f"), vec![d.clone(), d])),
        );
        let mut p = prog(vec![("g", body)]);
        let stats = share_program(&mut p);
        assert_eq!(stats.hoisted_bindings, 1);
        let printed = pretty(&p.binds[0].1);
        // The letrec sits under the lambda so the parameter is in scope.
        assert!(
            printed.starts_with("(\\$dg0$0 -> (letrec {$sh0 = "),
            "{printed}"
        );
    }

    #[test]
    fn construction_under_user_lambda_still_shares_at_prefix() {
        // h = \$dg0$0 -> \x -> f ($dictEqList $dg0$0) ($dictEqList $dg0$0)
        // The user lambda is *inside*; hoisting lands under the dict
        // prefix, above the user lambda, sharing across calls.
        let d = CoreExpr::app(var("$dict1$Eq$List"), var("$dg0$0"));
        let body = CoreExpr::Lam(
            "$dg0$0".into(),
            Box::new(CoreExpr::Lam(
                "x".into(),
                Box::new(CoreExpr::apps(var("f"), vec![d.clone(), d])),
            )),
        );
        let mut p = prog(vec![("h", body)]);
        let stats = share_program(&mut p);
        assert_eq!(stats.hoisted_bindings, 1);
        let printed = pretty(&p.binds[0].1);
        assert!(printed.starts_with("(\\$dg0$0 -> (letrec {"), "{printed}");
        assert!(printed.contains("(\\x -> ((f $sh0) $sh0))"), "{printed}");
    }

    #[test]
    fn locally_scoped_construction_is_not_hoisted() {
        // A construction referencing a method-local dictionary
        // parameter ($dx…) bound *inside* the body cannot move to the
        // prefix scope.
        let d = CoreExpr::app(var("$dict1$Eq$List"), var("$dx0$eq$0"));
        let body = CoreExpr::Lam(
            "$dx0$eq$0".into(),
            Box::new(CoreExpr::apps(var("f"), vec![d.clone(), d])),
        );
        // NB: the $dx lambda IS the prefix here (it starts with $d), so
        // craft a case where it is genuinely inner: wrap in a user lam.
        let body = CoreExpr::Lam("x".into(), Box::new(body));
        let mut p = prog(vec![("k", body.clone())]);
        let stats = share_program(&mut p);
        assert_eq!(stats.hoisted_bindings, 0);
        assert_eq!(p.binds[0].1, body);
    }

    #[test]
    fn recursive_instance_self_knot_is_exempt() {
        // Inside $dict1$Eq$List's own body, applications of itself are
        // the converter's recursive knot — left alone.
        let knot = CoreExpr::app(var("$dict1$Eq$List"), var("$di1$0"));
        let body = CoreExpr::Lam(
            "$di1$0".into(),
            Box::new(CoreExpr::Tuple(vec![knot.clone(), knot])),
        );
        let mut p = prog(vec![("$dict1$Eq$List", body.clone())]);
        let stats = share_program(&mut p);
        assert_eq!(stats.hoisted_bindings, 0);
        assert_eq!(p.binds[0].1, body);
    }

    #[test]
    fn nested_shared_constructions_reference_siblings() {
        // outer = $dictEqList ($dictEqList $dictEqInt), twice;
        // inner = $dictEqList $dictEqInt, also twice on its own.
        let inner = list_int_dict();
        let outer = CoreExpr::app(var("$dict1$Eq$List"), inner.clone());
        let body = CoreExpr::apps(var("f"), vec![outer.clone(), outer, inner.clone(), inner]);
        let mut p = prog(vec![("main", body)]);
        let stats = share_program(&mut p);
        assert_eq!(stats.hoisted_bindings, 2);
        let printed = pretty(&p.binds[0].1);
        // The outer definition reuses the inner shared binding.
        assert!(
            printed.contains("$sh0 = ($dict1$Eq$List $sh1)")
                || printed.contains("$sh1 = ($dict1$Eq$List $sh0)"),
            "{printed}"
        );
    }

    #[test]
    fn metered_share_agrees_with_plain_and_fills_metrics() {
        let body = CoreExpr::apps(var("f"), vec![list_int_dict(), list_int_dict()]);
        let mut p1 = prog(vec![("main", body.clone())]);
        let mut p2 = prog(vec![("main", body)]);
        let plain = share_program(&mut p1);
        let mut m = MetricsRegistry::new();
        let metered = share_program_metered(&mut p2, &mut m);
        assert_eq!(plain, metered);
        assert_eq!(p1.binds, p2.binds);
        assert_eq!(
            m.counter(CounterId::ShareDictsHoisted),
            metered.hoisted_bindings
        );
        assert_eq!(
            m.counter(CounterId::ShareOccurrencesShared),
            metered.occurrences_shared
        );
        // `unwrap_or_default` keeps the crate panic-free; a disabled
        // registry would fail the count assertion below anyway.
        let h = m
            .histogram(HistogramId::ShareLetSize)
            .cloned()
            .unwrap_or_default();
        assert_eq!(h.count, 1, "one binding hoisted");
        assert_eq!(h.sum, metered.hoisted_bindings);
        // With metrics off nothing is allocated.
        let mut off = MetricsRegistry::off();
        let mut p3 = prog(vec![("main", CoreExpr::app(var("f"), list_int_dict()))]);
        share_program_metered(&mut p3, &mut off);
        assert!(off.allocates_nothing());
    }

    #[test]
    fn count_constructions_counts_maximal_spines_only() {
        let nested = CoreExpr::app(var("$dict1$Eq$List"), list_int_dict());
        let p = prog(vec![("main", CoreExpr::app(var("f"), nested))]);
        assert_eq!(count_constructions(&p), 1);
    }
}
