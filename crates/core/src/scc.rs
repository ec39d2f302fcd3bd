//! Dependency analysis of top-level bindings.
//!
//! Bindings are split into strongly connected components (mutually
//! recursive groups) and processed in dependency order, as required for
//! correct generalization: a binding can only be used polymorphically
//! once its whole group has been generalized. Tarjan's algorithm is
//! implemented iteratively — an adversarial program with thousands of
//! chained bindings must not overflow the native stack.

use std::collections::{BTreeSet, HashMap, HashSet};
use tc_syntax::{Binding, Expr, Scope};

/// Free variable names of an expression (names not bound by enclosing
/// lambdas or lets). Recursion depth is bounded by the parser's
/// expression-depth budget, so a plain recursive walk is safe here.
/// Binders are indexed by name, so a `let` of n bindings costs O(n).
pub fn free_vars(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut bound: Scope<'_, ()> = Scope::new();
    collect(e, &mut bound, &mut out);
    out
}

fn collect<'a>(e: &'a Expr, bound: &mut Scope<'a, ()>, out: &mut BTreeSet<String>) {
    match e {
        Expr::Var(n, _) => {
            if bound.get(n).is_none() {
                out.insert(n.clone());
            }
        }
        Expr::Con(_, _) | Expr::IntLit(_, _) | Expr::Hole(_) => {}
        Expr::App(f, x, _) => {
            collect(f, bound, out);
            collect(x, bound, out);
        }
        Expr::Lam(p, b, _) => {
            bound.push(p, ());
            collect(b, bound, out);
            bound.pop();
        }
        Expr::Let(binds, body, _) => {
            let before = bound.len();
            for b in binds {
                bound.push(&b.name, ());
            }
            for b in binds {
                collect(&b.expr, bound, out);
            }
            collect(body, bound, out);
            bound.truncate(before);
        }
        Expr::If(c, t, f, _) => {
            collect(c, bound, out);
            collect(t, bound, out);
            collect(f, bound, out);
        }
        Expr::Case(scrut, arms, _) => {
            collect(scrut, bound, out);
            for arm in arms {
                let before = bound.len();
                match &arm.pattern {
                    tc_syntax::Pattern::Var(n, _) => {
                        if n != "_" {
                            bound.push(n, ());
                        }
                    }
                    tc_syntax::Pattern::Con { binders, .. } => {
                        for (b, _) in binders {
                            if b != "_" {
                                bound.push(b, ());
                            }
                        }
                    }
                }
                collect(&arm.body, bound, out);
                bound.truncate(before);
            }
        }
    }
}

/// Group binding *indices* into strongly connected components, returned
/// in dependency order (a group appears after every group it depends
/// on). Names not bound at top level (builtins, methods) are ignored
/// for edge purposes, and so are the names `base` binds: the program is
/// compiled on top of a base program (the prelude) whose binding of a
/// name comes first, so a use of it is no edge here, even where the
/// program redefines the name.
pub fn binding_groups(bindings: &[Binding], base: &HashSet<String>) -> Vec<Vec<usize>> {
    let n = bindings.len();
    let mut index_of: HashMap<&str, usize> = HashMap::new();
    for (i, b) in bindings.iter().enumerate() {
        // First definition wins; duplicates are reported elsewhere.
        if !base.contains(&b.name) {
            index_of.entry(b.name.as_str()).or_insert(i);
        }
    }
    let adj: Vec<Vec<usize>> = bindings
        .iter()
        .map(|b| {
            free_vars(&b.expr)
                .iter()
                .filter_map(|v| index_of.get(v.as_str()).copied())
                .collect()
        })
        .collect();
    tarjan(n, &adj)
}

/// Iterative Tarjan SCC. Components are emitted callees-first, which is
/// exactly the order inference wants.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    struct Frame {
        v: usize,
        edge: usize,
    }

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        let mut frames = vec![Frame { v: start, edge: 0 }];

        while let Some(f) = frames.last_mut() {
            let v = f.v;
            if f.edge < adj[v].len() {
                let w = adj[v][f.edge];
                f.edge += 1;
                if index[w] == UNVISITED {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push(Frame { v: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    low[parent.v] = low[parent.v].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.reverse();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_bindings(src: &str) -> Vec<Binding> {
        let (toks, ld) = tc_syntax::lex(src);
        assert!(!ld.has_errors());
        let (prog, pd) = tc_syntax::parse_program(&toks, Default::default());
        assert!(!pd.has_errors(), "{}", pd.render_all(src));
        prog.bindings
    }

    fn names(bindings: &[Binding], groups: &[Vec<usize>]) -> Vec<Vec<String>> {
        groups
            .iter()
            .map(|g| g.iter().map(|&i| bindings[i].name.clone()).collect())
            .collect()
    }

    #[test]
    fn lambda_binds() {
        let b = parse_bindings("f x = g x;");
        let fv = free_vars(&b[0].expr);
        assert!(fv.contains("g"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn let_is_recursive_scope() {
        let b = parse_bindings("f = let { go = \\x -> go x } in go;");
        let fv = free_vars(&b[0].expr);
        assert!(fv.is_empty(), "{fv:?}");
    }

    #[test]
    fn groups_in_dependency_order() {
        let b = parse_bindings(
            "even n = if primEqInt n 0 then True else odd (primSubInt n 1);\n\
             odd n = if primEqInt n 0 then False else even (primSubInt n 1);\n\
             top = even 4;\n\
             leaf = 1;",
        );
        let groups = binding_groups(&b, &HashSet::new());
        let gs = names(&b, &groups);
        // even/odd are one group; it must come before top.
        let eo = gs.iter().position(|g| g.len() == 2).unwrap();
        let top = gs.iter().position(|g| g == &["top".to_string()]).unwrap();
        assert!(eo < top, "{gs:?}");
        assert!(gs.iter().any(|g| g == &["leaf".to_string()]));
    }

    #[test]
    fn long_chain_does_not_overflow() {
        // f0 = 1; f1 = f0; ... f4999 = f4998;  (deep dependency chain)
        let mut src = String::from("f0 = 1;\n");
        for i in 1..5000 {
            src.push_str(&format!("f{i} = f{};\n", i - 1));
        }
        let b = parse_bindings(&src);
        let groups = binding_groups(&b, &HashSet::new());
        assert_eq!(groups.len(), 5000);
        // Dependency order: f0's group first.
        assert_eq!(b[groups[0][0]].name, "f0");
    }
}
