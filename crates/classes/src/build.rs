//! Class-environment construction and validation.
//!
//! Every malformed declaration is reported and *skipped*; construction
//! always yields a usable partial environment so later stages keep
//! producing diagnostics for the rest of the program.

use crate::data::{extend_data_env, DataEnv};
use crate::env::{ClassEnv, ClassInfo, Instance, MethodInfo};
use crate::lower::{lower_pred, lower_type, LowerCtx};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use tc_syntax::{ClassDecl, Diagnostics, InstanceDecl, Program, Stage};
use tc_types::{Pred, Qual, Scheme, Type, VarGen};

/// Build a [`ClassEnv`] from the program's class and instance
/// declarations. Returns the environment and accumulated diagnostics;
/// `gen` is the shared fresh-variable source for the whole pipeline run.
pub fn build_class_env(program: &Program, gen: &mut VarGen) -> (ClassEnv, Diagnostics) {
    extend_owned(ClassEnv::builtin(), program, gen)
}

/// Build the class environment of `program` on top of `base`, the
/// environment of a program compiled before it (the prelude). The result
/// is what [`build_class_env`] gives for the two programs as one text,
/// base first: the program's classes and instances may use and clash
/// with the base's, its instance ids continue after the base's, and
/// `gen` skips the variable numbers the base's build used in each phase.
/// The skips also keep the program's type variables apart from the
/// base's instance-head variables, which the overlap test and the
/// resolver assume are distinct. The base's instances are the result's
/// [`ClassEnv::base_instances`]. A program that declares no data types,
/// classes, or instances borrows a base made with [`ClassEnv::into_base`]
/// unchanged.
pub fn extend_class_env<'b>(
    base: &'b ClassEnv,
    program: &Program,
    gen: &mut VarGen,
) -> (Cow<'b, ClassEnv>, Diagnostics) {
    let declares_nothing =
        program.datas.is_empty() && program.classes.is_empty() && program.instances.is_empty();
    if declares_nothing && base.base_instances == base.instance_count() {
        let skip = base.var_counts;
        gen.skip(skip.datas + skip.classes + skip.instances);
        return (Cow::Borrowed(base), Diagnostics::new());
    }
    let (env, diags) = extend_owned(base.clone(), program, gen);
    (Cow::Owned(env), diags)
}

/// [`extend_class_env`] on an environment the caller owns.
fn extend_owned(mut env: ClassEnv, program: &Program, gen: &mut VarGen) -> (ClassEnv, Diagnostics) {
    let mut diags = Diagnostics::new();
    let skip = env.var_counts;
    env.base_instances = env.instance_count();

    // The data environment comes first: class method signatures,
    // instance heads, and contexts may all mention user data types.
    gen.skip(skip.datas);
    let start = gen.allocated();
    let mut datas = std::mem::take(&mut env.datas);
    extend_data_env(&mut datas, program, gen, &mut diags);
    env.var_counts.datas += gen.allocated() - start;

    gen.skip(skip.classes);
    let start = gen.allocated();
    let mut own = Vec::new();
    for decl in &program.classes {
        if add_class(&mut env, decl, gen, &mut diags, &datas) {
            own.push(decl.name.clone());
        }
    }
    validate_superclasses(&mut env, &own, &mut diags);
    env.var_counts.classes += gen.allocated() - start;

    gen.skip(skip.instances);
    let start = gen.allocated();
    let mut next_inst_id = env.base_instances;
    for (ast_index, decl) in program.instances.iter().enumerate() {
        add_instance(
            &mut env,
            decl,
            ast_index,
            &mut next_inst_id,
            gen,
            &mut diags,
            &datas,
        );
    }
    env.var_counts.instances += gen.allocated() - start;

    env.datas = datas;
    (env, diags)
}

/// Register one class declaration; `false` if it was rejected as a
/// duplicate.
fn add_class(
    env: &mut ClassEnv,
    decl: &ClassDecl,
    gen: &mut VarGen,
    diags: &mut Diagnostics,
    datas: &DataEnv,
) -> bool {
    if let Some(prev) = env.classes.get(&decl.name) {
        diags.push(
            tc_syntax::Diagnostic::error(
                Stage::Classes,
                "E0301",
                format!("class `{}` is defined more than once", decl.name),
                decl.span,
            )
            .with_note(Some(prev.span), "previous definition here".to_string()),
        );
        return false;
    }

    // Superclass contexts must constrain exactly the class variable:
    // `class Eq a => Ord a` is fine, `class Eq b => Ord a` is not.
    let mut supers = Vec::new();
    for sup in &decl.supers {
        match &sup.ty {
            tc_syntax::TypeExpr::Var(v, _) if *v == decl.tyvar => {
                if supers.contains(&sup.class) {
                    diags.warning(
                        Stage::Classes,
                        "E0305",
                        format!("duplicate superclass `{}`", sup.class),
                        sup.span,
                    );
                } else {
                    supers.push(sup.class.clone());
                }
            }
            _ => {
                diags.error(
                    Stage::Classes,
                    "E0303",
                    format!(
                        "superclass constraint `{}` must apply the class variable `{}`",
                        sup.class, decl.tyvar
                    ),
                    sup.span,
                );
            }
        }
    }

    // Lower each method signature in a scope where the class variable
    // is shared; the method's scheme gains the implicit class predicate.
    // Each method is owned as soon as it registers, so a name the class
    // repeats is a duplicate too.
    let mut methods = Vec::new();
    for (index, m) in decl.methods.iter().enumerate() {
        if env.method_owner.contains_key(&m.name) {
            diags.error(
                Stage::Classes,
                "E0302",
                format!(
                    "method `{}` is already defined (method names are global)",
                    m.name
                ),
                m.span,
            );
            continue;
        }
        let mut ctx = LowerCtx::new();
        let class_var = ctx.var(&decl.tyvar, gen);
        let mut preds: Vec<Pred> = vec![Pred::new(decl.name.clone(), Type::Var(class_var), m.span)];
        for p in &m.qual_ty.context {
            preds.push(lower_pred(p, &mut ctx, gen, diags, datas));
        }
        let body = lower_type(&m.qual_ty.ty, &mut ctx, gen, diags, datas);
        if !body.contains_var(class_var) {
            diags.error(
                Stage::Classes,
                "E0316",
                format!(
                    "method `{}`'s type does not mention the class variable `{}`; \
                     every use would be ambiguous",
                    m.name, decl.tyvar
                ),
                m.span,
            );
            continue;
        }
        let scheme = Scheme::generalize(Qual::new(preds, body));
        env.method_owner
            .insert(m.name.clone(), (decl.name.clone(), methods.len()));
        methods.push(MethodInfo {
            name: m.name.clone(),
            scheme,
            index,
            span: m.span,
        });
    }

    env.classes.insert(
        decl.name.clone(),
        ClassInfo {
            name: decl.name.clone(),
            supers,
            methods,
            span: decl.span,
        },
    );
    true
}

/// Check that every superclass of the newly added classes `names`
/// exists and that the superclass graph is acyclic. Classes
/// participating in a cycle have their superclass lists cleared (after
/// reporting) so the rest of the pipeline can safely traverse the
/// graph. Classes of the base were validated when it was built, and
/// never reach a new class, so no cycle runs through them.
fn validate_superclasses(env: &mut ClassEnv, names: &[String], diags: &mut Diagnostics) {
    // Unknown superclasses: report and drop.
    for name in names {
        let (known, unknown): (Vec<String>, Vec<String>) = match env.classes.get(name) {
            Some(ci) => ci
                .supers
                .iter()
                .cloned()
                .partition(|s| env.classes.contains_key(s)),
            None => continue,
        };
        if !unknown.is_empty() {
            let span = env.classes.get(name).map(|c| c.span).unwrap_or_default();
            for u in &unknown {
                diags.error(
                    Stage::Classes,
                    "E0304",
                    format!("class `{name}` names unknown superclass `{u}`"),
                    span,
                );
            }
            if let Some(ci) = env.classes.get_mut(name) {
                ci.supers = known;
            }
        }
    }

    // Cycle detection: iterative DFS with colors.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<String, Color> =
        names.iter().map(|n| (n.clone(), Color::White)).collect();
    let mut cyclic: HashSet<String> = HashSet::new();

    for root in names {
        if color.get(root) != Some(&Color::White) {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack: Vec<(String, usize)> = vec![(root.clone(), 0)];
        color.insert(root.clone(), Color::Grey);
        while let Some((node, child_idx)) = stack.pop() {
            let supers = env
                .classes
                .get(&node)
                .map(|c| c.supers.clone())
                .unwrap_or_default();
            if child_idx < supers.len() {
                let child = supers[child_idx].clone();
                stack.push((node.clone(), child_idx + 1));
                match color.get(&child).copied().unwrap_or(Color::Black) {
                    Color::White => {
                        color.insert(child.clone(), Color::Grey);
                        stack.push((child, 0));
                    }
                    Color::Grey => {
                        // Found a cycle: everything grey on the stack
                        // from `child` onward participates.
                        cyclic.insert(child.clone());
                        cyclic.insert(node.clone());
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
            }
        }
    }

    // Break the cycles so later traversals terminate structurally, and
    // record the participants: the coherence pass (which owns the
    // user-facing diagnostic, `L0010`) reads them off the environment.
    let mut cyclic: Vec<String> = cyclic.into_iter().collect();
    cyclic.sort_unstable();
    for name in &cyclic {
        if let Some(ci) = env.classes.get_mut(name) {
            ci.supers.clear();
        }
    }
    env.cyclic_classes.extend(cyclic);
    env.cyclic_classes.sort_unstable();
}

fn add_instance(
    env: &mut ClassEnv,
    decl: &InstanceDecl,
    ast_index: usize,
    next_id: &mut usize,
    gen: &mut VarGen,
    diags: &mut Diagnostics,
    datas: &DataEnv,
) {
    let Some(class) = env.classes.get(&decl.class) else {
        diags.error(
            Stage::Classes,
            "E0307",
            format!("instance for unknown class `{}`", decl.class),
            decl.span,
        );
        return;
    };

    let mut ctx = LowerCtx::new();
    let head_ty = lower_type(&decl.head, &mut ctx, gen, diags, datas);
    if head_ty.head_con().is_none() {
        diags.error(
            Stage::Classes,
            "E0312",
            "instance head must be a (possibly applied) type constructor, \
             not a type variable or function type"
                .to_string(),
            decl.span,
        );
        return;
    }
    let preds: Vec<Pred> = decl
        .context
        .iter()
        .map(|p| lower_pred(p, &mut ctx, gen, diags, datas))
        .collect();

    // Overlapping heads are *not* rejected here: every structurally
    // valid instance registers, resolution stays deterministic via
    // first-match, and the coherence pass (`tc-coherence`) reports
    // overlaps as `L0008`/`L0009` with a counterexample type.

    // Validate method bindings: every name must be a class method,
    // defined at most once, and every class method must be present.
    let mut seen: HashSet<&str> = HashSet::new();
    for b in &decl.methods {
        let owner = env.method_owner.get(&b.name).map(|(c, _)| c);
        if owner != Some(&decl.class) {
            diags.error(
                Stage::Classes,
                "E0309",
                format!("`{}` is not a method of class `{}`", b.name, decl.class),
                b.span,
            );
        } else if !seen.insert(b.name.as_str()) {
            diags.error(
                Stage::Classes,
                "E0314",
                format!("method `{}` is defined twice in this instance", b.name),
                b.span,
            );
        }
    }
    let missing: Vec<&str> = (class.methods.iter())
        .map(|m| m.name.as_str())
        .filter(|m| !seen.contains(m))
        .collect();
    if !missing.is_empty() {
        diags.error(
            Stage::Classes,
            "E0315",
            format!("instance is missing method(s): {}", missing.join(", ")),
            decl.span,
        );
        // Still register the instance: resolution can proceed, and the
        // missing-method error already rejects the program.
    }

    let inst = Instance::new(
        *next_id,
        ast_index,
        Pred::new(decl.class.clone(), head_ty, decl.span),
        preds,
        decl.span,
    );
    *next_id += 1;
    env.push_instance(inst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_syntax::{lex, parse_program};

    fn build(src: &str) -> (ClassEnv, Diagnostics) {
        let (toks, ld) = lex(src);
        assert!(!ld.has_errors());
        let (prog, pd) = parse_program(&toks, Default::default());
        assert!(!pd.has_errors(), "{:?}", pd.into_vec());
        let mut gen = VarGen::new();
        build_class_env(&prog, &mut gen)
    }

    const EQ_ORD: &str = "
        class Eq a where { eq :: a -> a -> Bool };
        class Eq a => Ord a where { lte :: a -> a -> Bool };
        instance Eq Int where { eq = primEqInt };
        instance Eq a => Eq (List a) where { eq = dummy };
    ";

    #[test]
    fn builds_valid_env() {
        let (env, diags) = build(EQ_ORD);
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(env.classes.len(), 2);
        assert_eq!(env.instances_of("Eq").len(), 2);
        let (ci, m) = env.method("eq").unwrap();
        assert_eq!(ci.name, "Eq");
        assert_eq!(m.index, 0);
        assert_eq!(env.class("Ord").unwrap().supers, vec!["Eq".to_string()]);
    }

    #[test]
    fn duplicate_class() {
        let (_, diags) = build(
            "class Eq a where { eq :: a -> a -> Bool };
             class Eq a where { neq :: a -> a -> Bool };",
        );
        assert!(diags.iter().any(|d| d.code == "E0301"));
    }

    #[test]
    fn superclass_cycle_detected_and_broken() {
        let (env, diags) = build(
            "class B a => A a where { fa :: a -> a };
             class A a => B a where { fb :: a -> a };",
        );
        // Build itself stays silent — the coherence pass owns the
        // user-facing diagnostic (`L0010`) — but the participants are
        // recorded and the cycles broken so later traversal terminates.
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(env.cyclic_classes, vec!["A".to_string(), "B".to_string()]);
        assert!(env.class("A").unwrap().supers.is_empty());
        assert!(env.class("B").unwrap().supers.is_empty());
    }

    #[test]
    fn unknown_superclass() {
        let (_, diags) = build("class Zzz a => A a where { fa :: a -> a };");
        assert!(diags.iter().any(|d| d.code == "E0304"));
    }

    #[test]
    fn overlapping_instances_both_register() {
        // Build no longer rejects overlapping heads: both instances
        // register (resolution is deterministic first-match) and the
        // coherence pass reports the overlap as `L0008`.
        let (env, diags) = build(
            "class Eq a where { eq :: a -> a -> Bool };
             instance Eq (List Int) where { eq = x };
             instance Eq a => Eq (List a) where { eq = y };",
        );
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(env.instances_of("Eq").len(), 2);
        assert!(env.cyclic_classes.is_empty());
    }

    #[test]
    fn var_headed_instance_rejected() {
        let (_, diags) = build(
            "class C a where { m :: a -> a };
             instance C a where { m = x };",
        );
        assert!(diags.iter().any(|d| d.code == "E0312"));
    }

    #[test]
    fn self_context_instance_head_still_registers() {
        // `instance C (List a) => C (List a)` is *well-formed* here (it
        // is coherent; it is just unusable) — resolution later reports
        // the cycle. Build must accept it without looping.
        let (env, diags) = build(
            "class C a where { m :: a -> a };
             instance C (List a) => C (List a) where { m = x };",
        );
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(env.instances_of("C").len(), 1);
    }

    #[test]
    fn instance_method_validation() {
        let (_, diags) = build(
            "class Eq a where { eq :: a -> a -> Bool };
             instance Eq Int where { nope = x };",
        );
        assert!(diags.iter().any(|d| d.code == "E0309"));
        assert!(diags.iter().any(|d| d.code == "E0315"));
    }

    #[test]
    fn ambiguous_method_rejected() {
        let (_, diags) = build("class C a where { m :: Int -> Int };");
        assert!(diags.iter().any(|d| d.code == "E0316"));
    }

    #[test]
    fn unknown_class_instance() {
        let (_, diags) = build("instance Nope Int where { m = x };");
        assert!(diags.iter().any(|d| d.code == "E0307"));
    }
}
