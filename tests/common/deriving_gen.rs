//! The seeded `data`-declaration scenario generator shared by the
//! deriving suite and the prelude-snapshot differential: random sums,
//! products, recursive types, and cross-type references, rendered with
//! `deriving (Eq, Ord)` or with handwritten twin instances, plus a
//! comparison-battery `main`. Each test crate uses part of it.

#![allow(dead_code)]

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*) — no clocks, no global state.
// ---------------------------------------------------------------------

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // Spread the small loop-index seeds; keep the state nonzero.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Scenario generation.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
pub enum FieldTy {
    Int,
    Bool,
    /// A previously declared type (index into the scenario).
    Data(usize),
    /// The type being declared — a recursive field.
    SelfRec,
}

pub struct GenCon {
    pub name: String,
    pub fields: Vec<FieldTy>,
}

pub struct GenData {
    pub name: String,
    pub cons: Vec<GenCon>,
}

pub type Scenario = Vec<GenData>;

/// 1–3 data types, each 1–4 constructors of 0–2 fields. Constructor 0
/// of every type is non-recursive (fields draw from `Int`, `Bool`, and
/// earlier types only) so every type has a constructible base case and
/// the law harness always finds samples.
pub fn gen_scenario(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed);
    let ntypes = 1 + rng.below(3);
    let mut scn: Scenario = Vec::new();
    for i in 0..ntypes {
        let ncons = 1 + rng.below(4);
        let mut cons = Vec::new();
        for j in 0..ncons {
            let nfields = rng.below(3);
            let mut fields = Vec::new();
            for _ in 0..nfields {
                let mut choices = vec![FieldTy::Int, FieldTy::Bool];
                if i > 0 {
                    choices.push(FieldTy::Data(rng.below(i)));
                }
                if j > 0 {
                    choices.push(FieldTy::SelfRec);
                }
                fields.push(choices[rng.below(choices.len())]);
            }
            cons.push(GenCon {
                name: format!("K{i}{}", (b'A' + j as u8) as char),
                fields,
            });
        }
        scn.push(GenData {
            name: format!("D{i}"),
            cons,
        });
    }
    scn
}

pub fn field_text(scn: &Scenario, owner: usize, f: FieldTy) -> String {
    match f {
        FieldTy::Int => "Int".into(),
        FieldTy::Bool => "Bool".into(),
        FieldTy::Data(k) => scn[k].name.clone(),
        FieldTy::SelfRec => scn[owner].name.clone(),
    }
}

/// The `data` declarations, with or without the deriving clause.
pub fn render_datas(scn: &Scenario, derive: bool) -> String {
    let mut out = String::new();
    for (i, d) in scn.iter().enumerate() {
        let cons = d
            .cons
            .iter()
            .map(|c| {
                let mut t = c.name.clone();
                for &f in &c.fields {
                    t.push(' ');
                    t.push_str(&field_text(scn, i, f));
                }
                t
            })
            .collect::<Vec<_>>()
            .join(" | ");
        out.push_str(&format!("data {} = {cons}", d.name));
        if derive {
            out.push_str(" deriving (Eq, Ord)");
        }
        out.push_str(";\n");
    }
    out
}

// ---------------------------------------------------------------------
// Handwritten twin instances, structurally mirroring tc-syntax's
// derive pass (same case nesting, same field-comparison chains) so
// dictionary-construction counts line up exactly.
// ---------------------------------------------------------------------

pub fn pat(name: &str, prefix: &str, n: usize) -> String {
    let mut p = name.to_string();
    for k in 0..n {
        p.push_str(&format!(" {prefix}{k}"));
    }
    p
}

pub fn pat_wild(name: &str, n: usize) -> String {
    let mut p = name.to_string();
    for _ in 0..n {
        p.push_str(" _");
    }
    p
}

/// `if eq f0 g0 then (...) else False`, last field bare.
pub fn eq_chain(n: usize) -> String {
    if n == 0 {
        return "True".into();
    }
    let mut acc = format!("eq f{0} g{0}", n - 1);
    for i in (0..n - 1).rev() {
        acc = format!("if eq f{i} g{i} then ({acc}) else False");
    }
    acc
}

/// `if lt f g then True else (if eq f g then (...) else False)`, last
/// field decided by `lte` (non-strict) or `lt` (strict).
pub fn ord_chain(n: usize, strict: bool) -> String {
    if n == 0 {
        return if strict { "False" } else { "True" }.into();
    }
    let m = if strict { "lt" } else { "lte" };
    let mut acc = format!("{m} f{0} g{0}", n - 1);
    for k in (0..n - 1).rev() {
        acc = format!("if lt f{k} g{k} then True else (if eq f{k} g{k} then ({acc}) else False)");
    }
    acc
}

pub fn hw_eq_instance(d: &GenData) -> String {
    let outer = d
        .cons
        .iter()
        .map(|c| {
            let n = c.fields.len();
            let inner = d
                .cons
                .iter()
                .map(|c2| {
                    if c2.name == c.name {
                        format!("{} -> {}", pat(&c2.name, "g", n), eq_chain(n))
                    } else {
                        format!("{} -> False", pat_wild(&c2.name, c2.fields.len()))
                    }
                })
                .collect::<Vec<_>>()
                .join("; ");
            format!("{} -> case r of {{ {inner} }}", pat(&c.name, "f", n))
        })
        .collect::<Vec<_>>()
        .join("; ");
    format!(
        "instance Eq {} where {{\n  eq = \\l -> \\r -> case l of {{ {outer} }};\n  \
         neq = \\l -> \\r -> if eq l r then False else True\n}};\n",
        d.name
    )
}

pub fn hw_ord_instance(d: &GenData) -> String {
    let method = |strict: bool| -> String {
        d.cons
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let n = c.fields.len();
                let inner = d
                    .cons
                    .iter()
                    .enumerate()
                    .map(|(j, c2)| {
                        if j == i {
                            format!("{} -> {}", pat(&c2.name, "g", n), ord_chain(n, strict))
                        } else if i < j {
                            format!("{} -> True", pat_wild(&c2.name, c2.fields.len()))
                        } else {
                            format!("{} -> False", pat_wild(&c2.name, c2.fields.len()))
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("; ");
                format!("{} -> case r of {{ {inner} }}", pat(&c.name, "f", n))
            })
            .collect::<Vec<_>>()
            .join("; ")
    };
    format!(
        "instance Ord {} where {{\n  lte = \\l -> \\r -> case l of {{ {} }};\n  \
         lt = \\l -> \\r -> case l of {{ {} }}\n}};\n",
        d.name,
        method(false),
        method(true)
    )
}

pub fn render_handwritten(scn: &Scenario) -> String {
    let mut out = render_datas(scn, false);
    for d in scn {
        out.push_str(&hw_eq_instance(d));
        out.push_str(&hw_ord_instance(d));
    }
    out
}

// ---------------------------------------------------------------------
// Sample values and a comparison-battery `main`.
// ---------------------------------------------------------------------

/// Up to three ground values of type `scn[i]`, in constructor (tag)
/// order, mirroring the law harness's depth-bounded enumeration.
pub fn value_samples(scn: &Scenario, i: usize, depth: usize) -> Vec<String> {
    if depth > 2 {
        return Vec::new();
    }
    let mut out: Vec<String> = Vec::new();
    for c in &scn[i].cons {
        if out.len() >= 3 {
            break;
        }
        if c.fields.is_empty() {
            out.push(c.name.clone());
            continue;
        }
        let per_field: Vec<Vec<String>> = c
            .fields
            .iter()
            .map(|&f| match f {
                FieldTy::Int => vec!["0".into(), "1".into(), "2".into()],
                FieldTy::Bool => vec!["True".into(), "False".into()],
                FieldTy::Data(k) => value_samples(scn, k, depth + 1),
                FieldTy::SelfRec => value_samples(scn, i, depth + 1),
            })
            .collect();
        if per_field.iter().any(Vec::is_empty) {
            continue;
        }
        for k in 0..2usize {
            if out.len() >= 3 {
                break;
            }
            let mut t = c.name.clone();
            for fs in &per_field {
                t.push(' ');
                t.push_str(fs.get(k).unwrap_or(&fs[0]));
            }
            let t = format!("({t})");
            if k == 1 && out.last() == Some(&t) {
                break;
            }
            out.push(t);
        }
    }
    out
}

/// `main` builds a list of every `eq`/`neq`/`lte`/`lt` comparison over
/// sample pairs of every generated type — a single value whose rendered
/// form pins all comparison bits at once.
pub fn render_main(scn: &Scenario) -> String {
    let mut terms = Vec::new();
    for i in 0..scn.len() {
        let ss = value_samples(scn, i, 0);
        assert!(!ss.is_empty(), "type {} has no samples", scn[i].name);
        let a = &ss[0];
        let b = ss.last().expect("nonempty");
        for m in ["eq", "neq", "lte", "lt"] {
            terms.push(format!("{m} {a} {b}"));
            terms.push(format!("{m} {b} {a}"));
        }
    }
    let list = terms
        .iter()
        .rev()
        .fold("nil".to_string(), |acc, t| format!("cons ({t}) ({acc})"));
    format!("main = {list};\n")
}
