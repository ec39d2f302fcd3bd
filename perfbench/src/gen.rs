//! Seeded request generator. Every request carries the answer the
//! server must give, computed here from the template's parameters in
//! closed form (`run`) or from what the generator injected (`check`);
//! nothing here runs the compiler.

use tc_trace::json;

/// splitmix64: tiny, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            s = (s ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(s)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallRun,
    ModuleCheck,
    EvalRun,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "small_run" => Some(Workload::SmallRun),
            "module_check" => Some(Workload::ModuleCheck),
            "eval_run" => Some(Workload::EvalRun),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallRun => "small_run",
            Workload::ModuleCheck => "module_check",
            Workload::EvalRun => "eval_run",
        }
    }

    /// Requests per second of `--seconds` that size the request
    /// sequence. A constant, not a measurement, so the sequence — and
    /// with it the request mix — never depends on how fast the server
    /// is; at the time of writing each workload's timed window lasts
    /// about `--seconds` on two cores.
    pub fn nominal_rps(self) -> u64 {
        match self {
            Workload::SmallRun => 600,
            Workload::ModuleCheck => 25,
            Workload::EvalRun => 210,
        }
    }
}

/// What the server must answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `run`: outcome `value` with exactly this rendering.
    Value(String),
    /// `check`: this verdict, and exactly these distinct error codes,
    /// sorted (a missing instance reports `E0410` from both inference
    /// and dictionary conversion).
    Verdict { ok: bool, errors: Vec<&'static str> },
}

impl Expect {
    /// Does this protocol response line carry the expected answer? A
    /// shed, deadline, internal or wrong answer does not.
    pub fn matches(&self, response: &str) -> bool {
        let Ok(v) = json::parse(response) else {
            return false;
        };
        let str_field = |k: &str| v.get(k).and_then(|x| x.as_str());
        if str_field("status") != Some("ok") {
            return false;
        }
        match self {
            Expect::Value(want) => {
                str_field("outcome") == Some("value") && str_field("value") == Some(want)
            }
            Expect::Verdict { ok, errors } => {
                let mut got: Vec<&str> = v
                    .get("diagnostics")
                    .and_then(|d| d.as_array())
                    .unwrap_or(&[])
                    .iter()
                    .filter(|d| d.get("severity").and_then(|s| s.as_str()) == Some("error"))
                    .filter_map(|d| d.get("code").and_then(|c| c.as_str()))
                    .collect();
                got.sort_unstable();
                got.dedup();
                str_field("cmd") == Some("check")
                    && v.get("ok").and_then(|b| b.as_bool()) == Some(*ok)
                    && got == *errors
            }
        }
    }
}

#[derive(Clone, Debug)]
pub struct Request {
    pub program: String,
    pub expect: Expect,
}

impl Request {
    pub fn is_check(&self) -> bool {
        matches!(self.expect, Expect::Verdict { .. })
    }

    /// The request as one protocol line.
    pub fn line(&self, id: u64) -> String {
        let mut w = tc_trace::JsonWriter::new();
        w.begin_object();
        w.field_u64("id", id);
        if self.is_check() {
            w.field_str("cmd", "check");
        }
        w.field_str("program", &self.program);
        w.end_object();
        w.finish()
    }
}

/// `count` requests of `workload`, the same for the same seed.
pub fn requests(workload: Workload, seed: u64, stream: &str, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, &format!("{}/{stream}", workload.name()));
    (0..count)
        .map(|_| match workload {
            Workload::SmallRun => small_program(&mut rng),
            Workload::ModuleCheck => {
                let bindings = rng.range(60, 80) as usize;
                let inject = if rng.chance(25) {
                    Some(INJECTIONS[rng.range(0, INJECTIONS.len() as i64 - 1) as usize])
                } else {
                    None
                };
                module(&mut rng, MODULE_UNITS, bindings, inject)
            }
            Workload::EvalRun => eval_program(&mut rng),
        })
        .collect()
}

fn value(v: impl ToString) -> Expect {
    Expect::Value(v.to_string())
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "True"
    } else {
        "False"
    }
}

/// A 1–3 line program whose cost is the per-request fixed cost: the
/// user code resolves a few prelude goals and evaluates in microseconds.
fn small_program(rng: &mut Rng) -> Request {
    let (program, expect) = match rng.range(0, 5) {
        0 => {
            let (a, x) = (rng.range(1, 5), rng.range(0, 20));
            let b = a + rng.range(3, 12);
            (
                format!("main = member {x} (enumFromTo {a} {b});"),
                value(bool_str(a <= x && x <= b)),
            )
        }
        1 => {
            let (a, b, c, d) = (
                rng.range(0, 9),
                rng.range(0, 9),
                rng.range(0, 5),
                rng.range(0, 5),
            );
            (
                format!("main = max2 (add {a} {b}) (mul {c} {d});"),
                value((a + b).max(c * d)),
            )
        }
        2 => {
            let n = rng.range(3, 10);
            let m = n + rng.range(-2, 2);
            (
                format!("xs = enumFromTo 1 {n};\nmain = eq xs (take {m} xs);"),
                value(bool_str(m >= n)),
            )
        }
        3 => {
            let (a, b, c) = (rng.range(1, 30), rng.range(1, 9), rng.range(1, 9));
            (
                format!("sq x = mul x x;\nmain = sub (sq {a}) (mul {b} {c});"),
                value(a * a - b * c),
            )
        }
        4 => {
            let (a, b, c) = (rng.range(0, 9), rng.range(0, 9), rng.range(0, 9));
            (
                format!(
                    "pair = cons {a} (cons {b} nil);\nmain = and (lte {a} {b}) (member {c} pair);"
                ),
                value(bool_str(a <= b && (c == a || c == b))),
            )
        }
        _ => {
            let (a, b, c) = (rng.range(0, 50), rng.range(0, 50), rng.range(0, 50));
            (
                format!(
                    "top xs = foldr max2 0 xs;\nmain = top (cons {a} (cons {b} (cons {c} nil)));"
                ),
                value(a.max(b).max(c)),
            )
        }
    };
    Request { program, expect }
}

/// Σ j for j in a..=b.
fn sum_range(a: i64, b: i64) -> i64 {
    (b * (b + 1) - (a - 1) * a) / 2
}

/// Σ j² for j in a..=b.
fn sum_squares(a: i64, b: i64) -> i64 {
    let s = |n: i64| n * (n + 1) * (2 * n + 1) / 6;
    s(b) - s(a - 1)
}

/// Evaluation work per request, in evaluator fuel. Each template picks
/// its round count, then the list length that brings the request to
/// this fuel whatever the template: a template that burns more fuel per
/// element gets shorter lists, so request cost stays in one band.
const EVAL_FUEL_TARGET: f64 = 80_000.0;

/// A fold-heavy program: `rounds` iterations of one fold over a list of
/// `len + 1` elements, each through a class dictionary. Lists stay
/// inside the evaluator's depth limit (a non-tail `sum` fails near 500
/// elements, `foldr max2` near 200).
fn eval_program(rng: &mut Rng) -> Request {
    // (fuel per element, fuel per round, longest list) per template,
    // measured under the default budget.
    const SHAPE: [(f64, f64, f64); 5] = [
        (123.0, 260.0, 300.0), // sum of squares through `Num`
        (139.0, 240.0, 140.0), // `foldr max2` through `Ord`
        (185.0, 380.0, 300.0), // list `eq` through `Eq (List Int)`
        (158.0, 250.0, 300.0), // `filter` + `member` through `Ord`, `Eq`
        (81.0, 230.0, 180.0),  // `foldr add` through `Num`
    ];
    let t = rng.range(0, SHAPE.len() as i64 - 1) as usize;
    let (per_elem, per_round, max_len) = SHAPE[t];
    let min_rounds = (EVAL_FUEL_TARGET / (per_elem * max_len + per_round)).ceil() as i64;
    let rounds = rng.range(min_rounds, min_rounds + 4);
    let len = ((EVAL_FUEL_TARGET / rounds as f64 - per_round) / per_elem).round() as i64;
    let ks = 1..=rounds;
    let (body, answer) = match t {
        0 => (
            format!("sq x = mul x x;\nf k = sum (map sq (enumFromTo k (add k {len})));"),
            ks.map(|k| sum_squares(k, k + len)).sum::<i64>(),
        ),
        1 => (
            format!("f k = foldr max2 0 (map (add k) (enumFromTo 1 {len}));"),
            ks.map(|k| k + len).sum(),
        ),
        2 => (
            format!(
                "f k = if eq (enumFromTo k (add k {len})) (map (add k) (enumFromTo 0 {len})) then k else 0;"
            ),
            ks.sum(),
        ),
        3 => {
            // The target is either the list's last element or one past
            // it, so `member` always scans the whole filtered list.
            let hit = rng.chance(50);
            let target = if hit { len } else { len + 1 };
            (
                format!(
                    "f k = if member (add k {target}) (filter (\\x -> lte x (add k {len})) (enumFromTo k (add k {len}))) then 1 else 0;"
                ),
                if hit { rounds } else { 0 },
            )
        }
        _ => (
            format!("total xs = foldr add 0 xs;\nf k = total (enumFromTo k (add k {len}));"),
            ks.map(|k| sum_range(k, k + len)).sum(),
        ),
    };
    Request {
        program: format!(
            "{body}\ngo k acc = if lte k 0 then acc else go (sub k 1) (add acc (f k));\nmain = go {rounds} 0;"
        ),
        expect: value(answer),
    }
}

/// Top-level bindings per module unit.
const UNIT_BINDINGS: usize = 9;
/// Units per `module_check` module. Fixed, so module cost varies by
/// about ±10% with the 60–80 binding count rather than twofold.
const MODULE_UNITS: usize = 6;

/// A known type error the generator can inject into a module, and the
/// one distinct error code the checker must report for it.
#[derive(Clone, Copy, Debug)]
pub enum Injection {
    /// A `Bool` where the data type is expected (`E0401`).
    Mismatch,
    /// A misspelt function name (`E0405`).
    Unbound,
    /// A class method at a type with no instance (`E0410`).
    NoInstance,
}

const INJECTIONS: [Injection; 3] = [
    Injection::Mismatch,
    Injection::Unbound,
    Injection::NoInstance,
];

impl Injection {
    fn code(self) -> &'static str {
        match self {
            Injection::Mismatch => "E0401",
            Injection::Unbound => "E0405",
            Injection::NoInstance => "E0410",
        }
    }
}

/// A module of `units` units plus `main`, padded with one-line bindings
/// to `bindings` top-level value bindings. A unit is a data type deriving
/// `Eq`/`Ord` taken apart with `case`, a class with a base and a list
/// instance, class-constrained functions, and uses that make the
/// resolver build dictionaries for the unit's own types, one of them
/// twice so dictionary sharing has work: nine bindings.
/// `inject` swaps one binding of the first unit for its ill-typed twin
/// of equal size.
pub fn module(rng: &mut Rng, units: usize, bindings: usize, inject: Option<Injection>) -> Request {
    let mut out = String::new();
    for i in 0..units {
        let this = if i == 0 { inject } else { None };
        let (n, m, c) = (rng.range(1, 9), rng.range(1, 9), rng.range(2, 7));
        out.push_str(&format!(
            "data T{i} = Leaf{i} Int | Pair{i} Int Int | Tag{i} Bool deriving (Eq, Ord);\n\
             weight{i} t = case t of {{ Leaf{i} n -> n; Pair{i} a b -> add a b; Tag{i} b -> if b then 1 else 0 }};\n"
        ));
        out.push_str(&match this {
            Some(Injection::Unbound) => {
                format!("heavier{i} x y = lt (wieght{i} x) (weight{i} y);\n")
            }
            _ => format!("heavier{i} x y = lt (weight{i} x) (weight{i} y);\n"),
        });
        out.push_str(&format!(
            "same{i} xs ys = eq xs ys;\n\
             best{i} :: Ord a => List a -> a -> a;\n\
             best{i} xs d = foldr max2 d xs;\n"
        ));
        out.push_str(&match this {
            Some(Injection::Mismatch) => format!(
                "probe{i} = and (eq (cons (Leaf{i} {n}) nil) (cons True nil)) (neq (cons (Tag{i} True) nil) nil);\n"
            ),
            _ => format!(
                "probe{i} = and (eq (cons (Leaf{i} {n}) nil) (cons (Pair{i} {m} 2) nil)) (neq (cons (Tag{i} True) nil) nil);\n"
            ),
        });
        out.push_str(&format!(
            "top{i} = best{i} (cons (Tag{i} True) (cons (Leaf{i} {n}) nil)) (Leaf{i} 0);\n\
             class Score{i} a where {{ score{i} :: a -> Int; }};\n\
             instance Score{i} Int where {{ score{i} = \\x -> mul x {c}; }};\n\
             instance Score{i} a => Score{i} (List a) where {{ score{i} = \\xs -> foldr (\\x acc -> add (score{i} x) acc) 0 xs; }};\n\
             rank{i} :: Score{i} a => a -> a -> Bool;\n\
             rank{i} x y = lte (score{i} x) (score{i} y);\n\
             spread{i} xs = map score{i} xs;\n"
        ));
        out.push_str(&match this {
            Some(Injection::NoInstance) => format!("use{i} = rank{i} True False;\n"),
            _ => format!("use{i} = rank{i} (cons {n} (cons {m} nil)) (enumFromTo 1 {c});\n"),
        });
    }
    // `check` never evaluates `main`; the traced run evaluates it off the
    // request path so the evaluator reports on this workload too.
    out.push_str("main = and probe0 use0;\n");
    for k in units * UNIT_BINDINGS + 1..bindings {
        let (a, b) = (rng.range(0, 99), rng.range(0, 99));
        out.push_str(&format!("k{k} = max2 (add {a} 1) (min2 {b} 50);\n"));
    }
    let expect = match inject {
        Some(inj) => Expect::Verdict {
            ok: false,
            errors: vec![inj.code()],
        },
        None => Expect::Verdict {
            ok: true,
            errors: Vec::new(),
        },
    };
    Request {
        program: out,
        expect,
    }
}
