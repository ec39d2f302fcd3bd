//! `tc-classes`: the class and instance machinery.
//!
//! Three responsibilities:
//!
//! 1. **Environment construction** ([`build_class_env`]): lower `class`
//!    and `instance` declarations into a validated [`ClassEnv`],
//!    detecting duplicate classes/methods, unknown superclasses,
//!    superclass cycles, malformed instance heads, and — critically for
//!    coherence — *overlapping instances* (two instances of one class
//!    whose heads unify). All problems are reported as diagnostics;
//!    construction always returns a usable (possibly partial)
//!    environment so later stages can keep checking.
//! 2. **Entailment / resolution** ([`ClassEnv::resolve`]): given a
//!    predicate and a set of assumptions (the dictionary parameters in
//!    scope), produce a [`DictDeriv`] — a recipe for building the
//!    dictionary — or a structured [`ResolveError`]. Resolution runs
//!    under an explicit [`ReduceBudget`] and a visited-goal set, so
//!    self-referential instances (`instance C (List a) => C (List a)`)
//!    and ever-growing goal chains terminate with `Cycle` /
//!    `DepthExceeded` instead of overflowing the stack.
//! 3. **Context reduction** ([`ClassEnv::reduce_context`]): simplify an
//!    inferred context to head-normal-form predicates for
//!    generalization, as in the paper.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod build;
pub mod data;
pub mod env;
pub mod lower;
pub mod resolve;

pub use build::{build_class_env, extend_class_env};
pub use data::{build_data_env, ConInfo, DataEnv, DataInfo};
pub use env::{ClassEnv, ClassInfo, ClassVarCounts, Instance, MethodInfo};
pub use lower::{lower_qual_type, lower_type, LowerCtx};
pub use resolve::{
    DictDeriv, ReduceBudget, ResolveCache, ResolveError, ResolveStats, ResolveTraceLog,
};
