//! The data-type environment: user `data` declarations plus builtins.
//!
//! Built *before* the class environment so instance heads, method
//! signatures, and field types can all mention user-defined type
//! constructors. The builtin constructors (`Int`, `Bool`, `List`) are
//! pre-registered here, together with their value constructors
//! (`True`/`False`, `Nil`/`Cons`), so pattern matching and constructor
//! expressions look everything up through one table.
//!
//! Like the class build, every malformed declaration is reported and
//! *skipped* — construction always returns a usable partial environment.

use crate::lower::{lower_type, LowerCtx};
use std::collections::HashMap;
use tc_syntax::{DataDecl, Diagnostics, Program, Span, Stage, TypeExpr};
use tc_types::{Qual, Scheme, TyVar, Type, VarGen};

/// One registered data type (builtin or user-declared).
#[derive(Debug, Clone)]
pub struct DataInfo {
    pub name: String,
    /// Number of type parameters.
    pub arity: usize,
    /// Constructor names in tag order (the declaration order).
    pub constructors: Vec<String>,
    pub span: Span,
    /// `Int`, `Bool`, `List` — cannot be shadowed by user declarations.
    pub builtin: bool,
}

/// One value constructor.
#[derive(Debug, Clone)]
pub struct ConInfo {
    pub name: String,
    /// The data type this constructor belongs to.
    pub data_name: String,
    /// Declaration index within the data type; derived `Ord` orders
    /// constructors by tag, and `case` evaluation matches on it.
    pub tag: u32,
    /// Number of fields.
    pub arity: usize,
    /// The constructor's polymorphic type, e.g. for `Node` of
    /// `data Tree a = Leaf | Node a (Tree a) (Tree a)`:
    /// `forall a. a -> Tree a -> Tree a -> Tree a`.
    pub scheme: Scheme,
    pub span: Span,
}

/// Data types by name and value constructors by name.
#[derive(Debug, Clone, Default)]
pub struct DataEnv {
    pub types: HashMap<String, DataInfo>,
    pub constructors: HashMap<String, ConInfo>,
}

impl DataEnv {
    /// An environment holding only the builtin types and constructors.
    /// Builtin schemes reuse `TyVar(0)`, like `tc-core`'s builtin value
    /// schemes — instantiation freshens, so sharing the index is fine.
    pub fn with_builtins() -> Self {
        let mut env = DataEnv::default();
        let a = Type::Var(TyVar(0));
        env.add_builtin_type("Int", 0, &[]);
        env.add_builtin_type("Bool", 0, &["True", "False"]);
        env.add_builtin_type("List", 1, &["Nil", "Cons"]);
        env.add_builtin_con("True", "Bool", 0, Scheme::mono(Type::bool()));
        env.add_builtin_con("False", "Bool", 1, Scheme::mono(Type::bool()));
        env.add_builtin_con(
            "Nil",
            "List",
            0,
            Scheme {
                vars: vec![TyVar(0)],
                qual: Qual::unqualified(Type::list(a.clone())),
            },
        );
        env.add_builtin_con(
            "Cons",
            "List",
            1,
            Scheme {
                vars: vec![TyVar(0)],
                qual: Qual::unqualified(Type::fun(
                    a.clone(),
                    Type::fun(Type::list(a.clone()), Type::list(a)),
                )),
            },
        );
        env
    }

    fn add_builtin_type(&mut self, name: &str, arity: usize, cons: &[&str]) {
        self.types.insert(
            name.to_string(),
            DataInfo {
                name: name.to_string(),
                arity,
                constructors: cons.iter().map(|c| c.to_string()).collect(),
                span: Span::DUMMY,
                builtin: true,
            },
        );
    }

    fn add_builtin_con(&mut self, name: &str, data: &str, tag: u32, scheme: Scheme) {
        let mut arity = 0usize;
        let mut t = &scheme.qual.head;
        while let Type::Fun(_, b) = t {
            arity += 1;
            t = b;
        }
        self.constructors.insert(
            name.to_string(),
            ConInfo {
                name: name.to_string(),
                data_name: data.to_string(),
                tag,
                arity,
                scheme,
                span: Span::DUMMY,
            },
        );
    }

    pub fn data(&self, name: &str) -> Option<&DataInfo> {
        self.types.get(name)
    }

    /// Arity of a type constructor, or `None` if unknown.
    pub fn type_arity(&self, name: &str) -> Option<usize> {
        self.types.get(name).map(|d| d.arity)
    }

    pub fn con(&self, name: &str) -> Option<&ConInfo> {
        self.constructors.get(name)
    }

    /// The constructors of a data type, in tag order. Empty for `Int`
    /// and unknown types.
    pub fn constructors_of(&self, data_name: &str) -> impl Iterator<Item = &ConInfo> {
        let names = self
            .types
            .get(data_name)
            .map_or(&[][..], |di| di.constructors.as_slice());
        names.iter().filter_map(|c| self.constructors.get(c))
    }

    /// Sorted names of user-declared (non-builtin) data types.
    pub fn user_types(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .types
            .values()
            .filter(|d| !d.builtin)
            .map(|d| d.name.as_str())
            .collect();
        v.sort_unstable();
        v
    }
}

/// A declaration that survived phase A, awaiting field lowering.
struct Pending<'p> {
    decl: &'p DataDecl,
    /// Accepted constructors: `(declaration, tag)`.
    cons: Vec<(&'p tc_syntax::ConDecl, u32)>,
}

/// Build the data environment from the program's `data` declarations.
///
/// Two phases: phase A registers every type head and constructor name
/// (so fields may reference any user type, including mutually recursive
/// ones); phase B lowers field types and assigns constructor schemes.
pub fn build_data_env(program: &Program, gen: &mut VarGen, diags: &mut Diagnostics) -> DataEnv {
    let mut env = DataEnv::with_builtins();
    extend_data_env(&mut env, program, gen, diags);
    env
}

/// Add the program's `data` declarations to an existing environment
/// (the builtins, or a base program's types), as [`build_data_env`]
/// does.
pub(crate) fn extend_data_env(
    env: &mut DataEnv,
    program: &Program,
    gen: &mut VarGen,
    diags: &mut Diagnostics,
) {
    let mut pending: Vec<Pending<'_>> = Vec::new();

    // Phase A: type heads and constructor names/tags.
    for decl in &program.datas {
        if let Some(prev) = env.types.get(&decl.name) {
            let mut d = tc_syntax::Diagnostic::error(
                Stage::Classes,
                "E0317",
                if prev.builtin {
                    format!("data type `{}` shadows a builtin type", decl.name)
                } else {
                    format!("data type `{}` is defined more than once", decl.name)
                },
                decl.span,
            );
            if !prev.builtin {
                d = d.with_note(Some(prev.span), "previous definition here".to_string());
            }
            diags.push(d);
            continue;
        }
        let mut dup_param = false;
        for (i, p) in decl.params.iter().enumerate() {
            if decl.params[..i].contains(p) {
                diags.error(
                    Stage::Classes,
                    "E0317",
                    format!(
                        "type parameter `{p}` appears more than once in `data {}`",
                        decl.name
                    ),
                    decl.span,
                );
                dup_param = true;
            }
        }
        if dup_param {
            continue;
        }

        let mut accepted: Vec<(&tc_syntax::ConDecl, u32)> = Vec::new();
        let mut tag = 0u32;
        for c in &decl.constructors {
            let clash = env.constructors.contains_key(&c.name)
                || pending
                    .iter()
                    .any(|p| p.cons.iter().any(|(pc, _)| pc.name == c.name))
                || accepted.iter().any(|(ac, _)| ac.name == c.name);
            if clash {
                diags.error(
                    Stage::Classes,
                    "E0318",
                    format!(
                        "constructor `{}` is already defined (constructor names are global)",
                        c.name
                    ),
                    c.span,
                );
                // Keep the type registered; skip only this constructor.
                continue;
            }
            accepted.push((c, tag));
            tag += 1;
        }

        env.types.insert(
            decl.name.clone(),
            DataInfo {
                name: decl.name.clone(),
                arity: decl.params.len(),
                constructors: accepted.iter().map(|(c, _)| c.name.clone()).collect(),
                span: decl.span,
                builtin: false,
            },
        );
        pending.push(Pending {
            decl,
            cons: accepted,
        });
    }

    // Phase B: lower field types and assign constructor schemes. Fields
    // may reference any type registered in phase A.
    for p in &pending {
        let mut ctx = LowerCtx::new();
        let param_vars: Vec<TyVar> = p.decl.params.iter().map(|n| ctx.var(n, gen)).collect();
        let head_ty = param_vars
            .iter()
            .fold(Type::Con(p.decl.name.clone()), |acc, v| {
                Type::App(Box::new(acc), Box::new(Type::Var(*v)))
            });

        // Unbound type variables in fields: report each name once per
        // declaration, then let lowering recover with fresh variables.
        let mut reported: Vec<&str> = Vec::new();
        for (c, _) in &p.cons {
            for f in &c.fields {
                report_unbound_vars(f, &p.decl.params, &mut reported, diags, &p.decl.name);
            }
        }

        let mut lowered: Vec<ConInfo> = Vec::new();
        for (c, tag) in &p.cons {
            let fields: Vec<Type> = c
                .fields
                .iter()
                .map(|f| lower_type(f, &mut ctx, gen, diags, env))
                .collect();
            let arity = fields.len();
            let scheme = Scheme {
                vars: param_vars.clone(),
                qual: Qual::unqualified(Type::fun_from(fields, head_ty.clone())),
            };
            lowered.push(ConInfo {
                name: c.name.clone(),
                data_name: p.decl.name.clone(),
                tag: *tag,
                arity,
                scheme,
                span: c.span,
            });
        }
        for ci in lowered {
            env.constructors.insert(ci.name.clone(), ci);
        }
    }
}

/// `E0319` for every type variable in `te` that is not a declared
/// parameter of the data type (reported once per name).
fn report_unbound_vars<'t>(
    te: &'t TypeExpr,
    params: &[String],
    reported: &mut Vec<&'t str>,
    diags: &mut Diagnostics,
    data_name: &str,
) {
    match te {
        TypeExpr::Var(n, span) => {
            if !params.iter().any(|p| p == n) && !reported.contains(&n.as_str()) {
                reported.push(n);
                diags.error(
                    Stage::Classes,
                    "E0319",
                    format!("type variable `{n}` is not a parameter of `data {data_name}`"),
                    *span,
                );
            }
        }
        TypeExpr::Con(..) => {}
        TypeExpr::App(a, b, _) | TypeExpr::Fun(a, b, _) => {
            report_unbound_vars(a, params, reported, diags, data_name);
            report_unbound_vars(b, params, reported, diags, data_name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> (DataEnv, Diagnostics) {
        let (toks, ld) = tc_syntax::lex(src);
        assert!(!ld.has_errors());
        let (prog, _pd) = tc_syntax::parse_program(&toks, Default::default());
        let mut gen = VarGen::new();
        let mut diags = Diagnostics::new();
        let env = build_data_env(&prog, &mut gen, &mut diags);
        (env, diags)
    }

    #[test]
    fn builtins_registered() {
        let env = DataEnv::with_builtins();
        assert_eq!(env.type_arity("List"), Some(1));
        assert_eq!(env.con("True").unwrap().tag, 0);
        assert_eq!(env.con("False").unwrap().tag, 1);
        assert_eq!(env.con("Cons").unwrap().arity, 2);
        assert_eq!(env.constructors_of("Bool").count(), 2);
    }

    #[test]
    fn simple_enum() {
        let (env, diags) = build("data Color = Red | Green | Blue;");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        let di = env.data("Color").unwrap();
        assert_eq!(di.arity, 0);
        assert_eq!(di.constructors, vec!["Red", "Green", "Blue"]);
        assert_eq!(env.con("Green").unwrap().tag, 1);
        assert_eq!(
            env.con("Blue").unwrap().scheme.qual.head,
            Type::Con("Color".into())
        );
    }

    #[test]
    fn recursive_parameterized_type() {
        let (env, diags) = build("data Tree a = Leaf | Node a (Tree a) (Tree a);");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        let node = env.con("Node").unwrap();
        assert_eq!(node.arity, 3);
        assert_eq!(node.scheme.vars.len(), 1);
        // forall a. a -> Tree a -> Tree a -> Tree a
        let a = Type::Var(node.scheme.vars[0]);
        let tree = Type::App(Box::new(Type::Con("Tree".into())), Box::new(a.clone()));
        assert_eq!(
            node.scheme.qual.head,
            Type::fun_from(vec![a, tree.clone(), tree.clone()], tree)
        );
    }

    #[test]
    fn mutual_recursion_resolves() {
        let (env, diags) = build(
            "data Forest a = FNil | FCons (Tree a) (Forest a);
             data Tree a = Node a (Forest a);",
        );
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(env.con("FCons").unwrap().arity, 2);
        assert_eq!(env.con("Node").unwrap().arity, 2);
    }

    #[test]
    fn builtin_shadow_is_e0317() {
        let (env, diags) = build("data Bool = T | F;");
        assert!(diags.iter().any(|d| d.code == "E0317"));
        // The builtin survives untouched.
        assert!(env.data("Bool").unwrap().builtin);
        assert!(env.con("T").is_none());
    }

    #[test]
    fn duplicate_type_is_e0317() {
        let (env, diags) = build("data T = A; data T = B;");
        assert!(diags.iter().any(|d| d.code == "E0317"));
        assert_eq!(env.data("T").unwrap().constructors, vec!["A"]);
    }

    #[test]
    fn duplicate_param_is_e0317() {
        let (env, diags) = build("data P a a = MkP a;");
        assert!(diags.iter().any(|d| d.code == "E0317"));
        assert!(env.data("P").is_none());
    }

    #[test]
    fn duplicate_constructor_is_e0318_type_survives() {
        let (env, diags) = build("data A = Mk Int; data B = Mk Bool | Other;");
        assert!(diags.iter().any(|d| d.code == "E0318"));
        // `B` keeps its non-clashing constructor; `Mk` stays with `A`.
        assert_eq!(env.con("Mk").unwrap().data_name, "A");
        assert_eq!(env.data("B").unwrap().constructors, vec!["Other"]);
    }

    #[test]
    fn unbound_field_var_is_e0319() {
        let (_, diags) = build("data T a = Mk b;");
        assert!(diags.iter().any(|d| d.code == "E0319"));
    }

    #[test]
    fn fields_reference_builtins_and_user_types() {
        let (env, diags) =
            build("data Pair a b = MkPair a b; data W = MkW (Pair Int Bool) (List Int);");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(env.con("MkW").unwrap().arity, 2);
        assert_eq!(env.type_arity("Pair"), Some(2));
    }

    #[test]
    fn field_arity_errors_reported() {
        let (_, diags) = build("data W = MkW (List Int Int);");
        assert!(diags.iter().any(|d| d.code == "E0311"));
    }
}
