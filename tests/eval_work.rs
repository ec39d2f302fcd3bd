//! The evaluator's exact work, pinned: for every input, the fuel, peak
//! allocations, thunks and forces one run spends, and what it printed
//! (a value, an error code, or no evaluation at all). Work counters are
//! deterministic where wall-clock time is not, so any change to how
//! the evaluator steps, allocates or forces shows up here as a diff.
//!
//! Inputs: the shipped examples, the first 40 `eval_run` and 40
//! `small_run` requests of `perfbench` at seed 1, and the `main`s of its
//! first 16 `module_check` modules (run instead of checked; an injected
//! type error shows as `compile-errors`).
//!
//! Bless with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test eval_work
//! ```

#[allow(dead_code)]
#[path = "../perfbench/src/gen.rs"]
mod gen;

use std::fmt::Write as _;
use typeclasses::{run_source, Options, Outcome};

const GOLDEN: &str = "tests/golden/eval_work.txt";

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
        (gen::Workload::EvalRun, 40),
        (gen::Workload::SmallRun, 40),
        (gen::Workload::ModuleCheck, 16),
    ] {
        for (i, r) in gen::requests(workload, 1, "main", count)
            .into_iter()
            .enumerate()
        {
            out.push((format!("{}#{i}", workload.name()), r.program));
        }
    }
    out
}

fn snapshot() -> String {
    let opts = Options::default();
    let mut out = String::new();
    for (label, src) in inputs() {
        let r = run_source(&src, &opts);
        let _ = write!(out, "{label}");
        if let Some(s) = r.check.stats.eval {
            let _ = write!(
                out,
                " fuel={} peak_allocs={} thunks={} forces={}",
                s.fuel_used, s.peak_allocs, s.thunks_created, s.forces
            );
        }
        let _ = match &r.outcome {
            Outcome::Value(v) => writeln!(out, " => value {v}"),
            Outcome::Eval(e) => writeln!(out, " => error {}", e.code()),
            Outcome::CompileErrors => writeln!(out, " => compile-errors"),
            Outcome::NoMain => writeln!(out, " => no-main"),
        };
    }
    out
}

#[test]
fn evaluator_work_matches_the_snapshot() {
    let got = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("{GOLDEN}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test eval_work to create")
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} diverged", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} has a different number of inputs"
    );
}
