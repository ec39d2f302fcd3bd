//! `tc-types`: the type machinery under Hindley-Milner inference with
//! class contexts.
//!
//! This crate is deliberately free of AST knowledge: it defines
//! [`Type`] trees, the hash-consed type store ([`Interner`]) whose
//! [`TypeId`]s inference runs on, a union-find [`Subst`] and
//! unification over those ids, one-way matching on ids, predicates
//! ([`Pred`], and [`IdPred`] over ids), qualified types ([`Qual`]), and
//! type schemes ([`Scheme`]). The elaborator in `tc-core` drives these;
//! the class machinery in `tc-classes` resolves and reduces [`IdPred`]
//! goals in the elaborator's store.
//!
//! Robustness notes:
//! * Unification and matching return typed errors ([`TypeError`])
//!   instead of panicking; the occurs check prevents infinite types.
//! * Unification carries an explicit work budget, and the store it runs
//!   over a size cap, so adversarial types (exponentially self-similar
//!   applications) degrade into a diagnostic, not a hang. A type is
//!   built as a tree only where something is shown, and only up to
//!   [`MAX_NODES`] nodes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

pub mod intern;
pub mod pred;
pub mod scheme;
pub mod subst;
pub mod ty;
pub mod unify;

pub use intern::{InternStats, Interner, NameId, Node, TypeId, MAX_NODES};
pub use pred::{IdPred, Pred, Qual};
pub use scheme::Scheme;
pub use subst::Subst;
pub use ty::{TyVar, Type, VarGen};
pub use unify::{match_ids, unify, TypeError, TypeErrorKind, MAX_STORE};
