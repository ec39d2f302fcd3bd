//! Elaboration output, pinned against a fixed reference: for every
//! input, what `lint_source` reports with default options.
//!
//! Per input the snapshot records:
//! * the outcome class (`ok` or `errors`);
//! * every diagnostic as code, line:col and message, in emitted order;
//! * the scheme of each of the program's own bindings, sorted by name
//!   (a long one by its length and FNV-64 hash);
//! * the resolver's goals, table hits and dictionaries constructed;
//! * the core's node count and an FNV-64 hash of its pretty-printing.
//!
//! Inputs: the shipped examples; `perfbench`'s generators at seed 1
//! (16 `module_check` modules plus one module per injected error, 40
//! `small_run` and 16 `eval_run` programs); 30 seeds of the deriving
//! generator; and hand-written programs for each type-layer
//! diagnostic.
//!
//! The snapshot was blessed once, before inference moved onto interned
//! type ids, and is not re-blessed: a diff means elaboration output
//! changed. To create it from scratch:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test elab_golden
//! ```

#[path = "common/deriving_gen.rs"]
mod deriving_gen;

#[allow(dead_code)]
#[path = "../perfbench/src/gen.rs"]
mod gen;

use std::fmt::Write as _;
use typeclasses::syntax::span::LineMap;
use typeclasses::{lint_source, Options};

const GOLDEN: &str = "tests/golden/elab.txt";

/// Schemes longer than this (the exponential family's) are recorded by
/// length and hash, which keeps the snapshot small.
const LONG_SCHEME: usize = 200;

/// `f0 y = \k -> k y y;` and `f{i} y = f{i-1} (f{i-1} y);`: the factor
/// by which `f{i}`'s type outgrows its argument squares at every level.
fn exponential_family(levels: usize) -> String {
    let mut src = String::from("f0 y = \\k -> k y y;\n");
    for i in 1..levels {
        src.push_str(&format!("f{i} y = f{} (f{} y);\n", i - 1, i - 1));
    }
    src
}

/// Hand-written programs, one or more per type-layer diagnostic.
fn type_layer_programs() -> Vec<(String, String)> {
    let mut out: Vec<(&str, String)> = vec![
        // E0401 whose message mentions a type variable.
        (
            "E0401-with-variable",
            "f x = if x then x 1 else 0;\nmain = 1;\n".into(),
        ),
        (
            "E0401-nested",
            "g xs = cons (head xs) (cons True xs);\nh = g (cons 1 nil);\nmain = 1;\n".into(),
        ),
        ("E0402", "f x = x x;\nmain = 1;\n".into()),
        ("E0402-through-list", "f x = cons x x;\nmain = 1;\n".into()),
        (
            "E0403-exponential-family",
            format!("{}main = 1;\n", exponential_family(40)),
        ),
        (
            "E0410-skolem",
            "f :: a -> a -> Bool;\nf x y = eq x y;\nmain = 1;\n".into(),
        ),
        (
            "E0410-no-instance",
            "main = eq (\\x -> x) (\\y -> y);\n".into(),
        ),
        ("E0411", "amb = eq nil nil;\nmain = 1;\n".into()),
        ("E0413", "main x = eq x x;\n".into()),
        (
            "E0416",
            "data T = A Int | B;\nf t = case t of { A x y -> x; B -> 0 };\nmain = 1;\n".into(),
        ),
        (
            "E0410-instance-method-skolem",
            "class C a where { c :: a -> Bool; };\n\
             instance C (List a) where { c = \\xs -> eq xs xs; };\nmain = 1;\n"
                .into(),
        ),
        (
            "signature-and-group-mix",
            "sz :: List a -> Int;\nsz xs = foldr (\\x n -> add n 1) 0 xs;\n\
             both x ys = and (member x ys) (lt (sz ys) 3);\n\
             pairUp x = \\y -> cons x (cons y nil);\nmain = both 2 (pairUp 1 2);\n"
                .into(),
        ),
    ];
    out.push(("E0403-program-ceiling", store_ceiling_program(400)));
    // Well typed, with types small in the store and large as trees: a
    // spine whose first argument's type doubles as a tree with every
    // application, and seven spines that each bind 400 variables to the
    // rest of a constructor's type.
    let spine = vec!["f"; 16].join(" ");
    out.push(("spine-of-16-f", format!("f x = x;\nmain = {spine} 1;\n")));
    let fields = vec!["Int"; 400].join(" ");
    let args = vec!["1"; 400].join(" ");
    let mut spines = format!("data P = P {fields};\n");
    for i in 0..7 {
        spines.push_str(&format!("p{i} = P {args};\n"));
    }
    spines.push_str("main = 1;\n");
    out.push(("seven-400-argument-spines", spines));
    out.into_iter().map(|(l, s)| (l.to_string(), s)).collect()
}

/// `copies` bindings that each instantiate `h`, a 390-field
/// constructor, eight times: each adds about 3,200 nodes to the type
/// store, so the copies together reach its cap, and every copy past it
/// reports one E0403.
fn store_ceiling_program(copies: usize) -> String {
    let mut src = format!("data P a = P {};\nh = P;\n", vec!["a"; 390].join(" "));
    let list = (0..8).fold("nil".to_string(), |l, _| format!("cons h ({l})"));
    for j in 0..copies {
        src.push_str(&format!("g{j} = {list};\n"));
    }
    src.push_str("main = 1;\n");
    src
}

fn inputs() -> Vec<(String, String)> {
    let mut paths: Vec<_> = std::fs::read_dir("examples")
        .expect("examples directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mh"))
        .collect();
    paths.sort();
    let mut out: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("example source");
            (format!("{}", p.display()), src)
        })
        .collect();
    for (workload, count) in [
        (gen::Workload::ModuleCheck, 16),
        (gen::Workload::SmallRun, 40),
        (gen::Workload::EvalRun, 16),
    ] {
        for (i, r) in gen::requests(workload, 1, "main", count)
            .into_iter()
            .enumerate()
        {
            out.push((format!("{}#{i}", workload.name()), r.program));
        }
    }
    let mut rng = gen::Rng::new(1, "elab_golden");
    for (name, inj) in [
        ("mismatch", gen::Injection::Mismatch),
        ("unbound", gen::Injection::Unbound),
        ("no-instance", gen::Injection::NoInstance),
    ] {
        let r = gen::module(&mut rng, 6, 70, Some(inj));
        out.push((format!("module_check+{name}"), r.program));
    }
    for seed in 0..30 {
        let scn = deriving_gen::gen_scenario(seed);
        let src = format!(
            "{}{}",
            deriving_gen::render_datas(&scn, true),
            deriving_gen::render_main(&scn)
        );
        out.push((format!("deriving#{seed}"), src));
    }
    out.extend(type_layer_programs());
    out
}

fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn snapshot() -> String {
    let opts = Options::default();
    let mut out = String::new();
    for (label, src) in inputs() {
        let c = lint_source(&src, &opts);
        let lines = LineMap::new(&c.full_source);
        let _ = writeln!(out, "== {label}");
        let _ = writeln!(out, "outcome {}", if c.ok() { "ok" } else { "errors" });
        for d in c.diags.iter() {
            let (line, col) = lines.location(d.span.start);
            let _ = writeln!(out, "diag {} {line}:{col} {}", d.code, d.message);
        }
        let mut names: Vec<&str> = c.elab.scheme_names().collect();
        names.sort();
        for n in names {
            let text = c.elab.scheme(n).map(|s| s.to_string()).unwrap_or_default();
            if text.len() <= LONG_SCHEME {
                let _ = writeln!(out, "scheme {n} :: {text}");
            } else {
                let _ = writeln!(
                    out,
                    "scheme {n} :: <{} bytes, fnv={:016x}>",
                    text.len(),
                    fnv64(&text)
                );
            }
        }
        let r = &c.stats.resolve;
        let _ = writeln!(
            out,
            "resolve goals={} hits={} dicts={}",
            r.goals, r.table_hits, r.dicts_constructed
        );
        let _ = writeln!(
            out,
            "core nodes={} fnv={:016x}",
            c.elab.core.node_count(),
            fnv64(&c.pretty_core())
        );
    }
    out
}

#[test]
fn elaboration_output_matches_the_snapshot() {
    let got = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("{GOLDEN}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test elab_golden to create")
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} diverged", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} has a different number of lines"
    );
}
