//! Generative suite over the `data`/`deriving` scenario space.
//!
//! A seeded xorshift generator emits random data-declaration sets —
//! sums, products, recursive types, cross-type references — each with
//! `deriving (Eq, Ord)`. Two properties are pinned over that space:
//!
//! * **Laws**: every derived instance passes the tc-coherence class-law
//!   harness (`check_laws`) with `law-violation` promoted to deny, for
//!   200 seeds. Reflexivity/symmetry/transitivity of `eq` and
//!   totality/antisymmetry of `lte` are checked against enumerated
//!   constructor samples; a failure's diagnostic cites the sample.
//! * **Differential**: for each scenario, a handwritten twin program —
//!   instances spelled out by hand, structurally mirroring what
//!   `deriving` generates — must produce byte-identical evaluation
//!   results and identical dictionary-construction counts under all
//!   four memo/share optimization modes.
//!
//! Everything is deterministic: the only randomness is the xorshift
//! stream, seeded by the loop index.

#[path = "common/deriving_gen.rs"]
mod deriving_gen;

use deriving_gen::*;
use typeclasses::{check_source, coherence, run_source, LintLevel, Options, Outcome};

// ---------------------------------------------------------------------
// Options.
// ---------------------------------------------------------------------

fn law_deny_options() -> Options {
    Options {
        check_laws: true,
        coherence_levels: coherence::CoherenceConfig::default()
            .with(coherence::Rule::LawViolation, LintLevel::Deny),
        ..Options::default()
    }
}

fn all_modes() -> [(&'static str, Options); 4] {
    [
        ("memo+share", Options::default()),
        (
            "memo",
            Options {
                share_dictionaries: false,
                ..Options::default()
            },
        ),
        (
            "share",
            Options {
                memoize_resolution: false,
                ..Options::default()
            },
        ),
        ("off", Options::unoptimized()),
    ]
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn generator_covers_the_scenario_space() {
    // The stream must actually exercise the interesting corners; a
    // generator that degenerates (all-nullary, never recursive) would
    // silently weaken every property below.
    let (mut recursive, mut cross_ref, mut multi_type, mut two_field, mut nullary_only) =
        (false, false, false, false, false);
    for seed in 0..200u64 {
        let scn = gen_scenario(seed);
        if scn.len() > 1 {
            multi_type = true;
        }
        if scn
            .iter()
            .all(|d| d.cons.iter().all(|c| c.fields.is_empty()))
        {
            nullary_only = true;
        }
        for d in &scn {
            for c in &d.cons {
                if c.fields.len() == 2 {
                    two_field = true;
                }
                if c.fields.contains(&FieldTy::SelfRec) {
                    recursive = true;
                }
                if c.fields.iter().any(|f| matches!(f, FieldTy::Data(_))) {
                    cross_ref = true;
                }
            }
        }
    }
    assert!(
        recursive && cross_ref && multi_type && two_field && nullary_only,
        "degenerate generator: recursive={recursive} cross_ref={cross_ref} \
         multi_type={multi_type} two_field={two_field} nullary_only={nullary_only}"
    );
}

#[test]
fn derived_instances_pass_laws_under_deny_for_200_seeds() {
    let opts = law_deny_options();
    for seed in 0..200u64 {
        let src = render_datas(&gen_scenario(seed), true);
        let c = check_source(&src, &opts);
        assert!(
            c.ok(),
            "seed {seed}: derived instances violate class laws\n{src}\n{}",
            c.render_diagnostics()
        );
    }
}

#[test]
fn law_failures_cite_the_violating_constructor_sample() {
    // Negative control: a deliberately broken handwritten Eq on a
    // generated type must be caught, and the diagnostic must name the
    // constructor sample that witnessed the violation.
    let scn = gen_scenario(0);
    let first_con = scn[0].cons[0].name.clone();
    let src = format!(
        "{}instance Eq {} where {{\n  eq = \\l -> \\r -> False;\n  \
         neq = \\l -> \\r -> True\n}};\n",
        render_datas(&scn, false),
        scn[0].name
    );
    let c = check_source(&src, &law_deny_options());
    assert!(!c.ok(), "constant-False eq passed the law harness");
    let rendered = c.render_diagnostics();
    assert!(rendered.contains("L0011"), "{rendered}");
    assert!(
        rendered.contains(&first_con),
        "diagnostic does not cite the sample `{first_con}`:\n{rendered}"
    );
}

#[test]
fn derived_and_handwritten_twins_agree_across_all_modes() {
    for seed in 0..40u64 {
        let scn = gen_scenario(seed);
        let main = render_main(&scn);
        let derived = format!("{}{main}", render_datas(&scn, true));
        let handwritten = format!("{}{main}", render_handwritten(&scn));

        let mut reference: Option<String> = None;
        for (mode, opts) in all_modes() {
            let dr = run_source(&derived, &opts);
            let hr = run_source(&handwritten, &opts);
            let d_out = format!("{:?}", dr.outcome);
            let h_out = format!("{:?}", hr.outcome);
            assert!(
                matches!(dr.outcome, Outcome::Value(_)),
                "seed {seed} [{mode}]: derived program failed: {d_out}\n{derived}\n{}",
                dr.check.render_diagnostics()
            );
            assert_eq!(
                d_out, h_out,
                "seed {seed} [{mode}]: derived vs handwritten results differ\n\
                 derived:\n{derived}\nhandwritten:\n{handwritten}"
            );
            assert_eq!(
                dr.check.stats.resolve.dicts_constructed, hr.check.stats.resolve.dicts_constructed,
                "seed {seed} [{mode}]: dictionary-construction counts differ"
            );
            assert_eq!(
                dr.check.stats.share.constructions_before,
                hr.check.stats.share.constructions_before,
                "seed {seed} [{mode}]: pre-sharing dictionary sites differ"
            );
            assert_eq!(
                dr.check.stats.share.constructions_after, hr.check.stats.share.constructions_after,
                "seed {seed} [{mode}]: post-sharing dictionary sites differ"
            );
            // Byte-identity across modes, not just within one.
            match &reference {
                None => reference = Some(d_out),
                Some(r) => assert_eq!(
                    &d_out, r,
                    "seed {seed} [{mode}]: result differs from the memo+share reference"
                ),
            }
        }
    }
}

#[test]
fn generated_scenarios_run_clean_under_law_checked_evaluation() {
    // End-to-end: deriving + law harness + evaluation in one pass, the
    // configuration the CI deriving-gate runs.
    let opts = Options {
        check_laws: true,
        coherence_levels: coherence::CoherenceConfig::default()
            .with(coherence::Rule::LawViolation, LintLevel::Deny),
        ..Options::default()
    };
    for seed in [0u64, 7, 13, 29, 41] {
        let scn = gen_scenario(seed);
        let src = format!("{}{}", render_datas(&scn, true), render_main(&scn));
        let r = run_source(&src, &opts);
        assert!(
            matches!(r.outcome, Outcome::Value(_)),
            "seed {seed}: {:?}\n{src}\n{}",
            r.outcome,
            r.check.render_diagnostics()
        );
    }
}
