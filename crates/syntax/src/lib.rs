//! `tc-syntax`: the front end of the Mini-Haskell pipeline.
//!
//! This crate owns the pieces every later stage depends on:
//!
//! * [`Span`] — byte ranges into the original source, attached to every
//!   token, AST node, and diagnostic.
//! * [`Diagnostic`] / [`Diagnostics`] — the shared error model. Every stage
//!   of the pipeline reports problems through this type instead of
//!   panicking; the driver renders them with source excerpts.
//! * The lexer ([`lex`]) and parser ([`parse_program`]), both of which
//!   *recover* from malformed input and accumulate multiple diagnostics
//!   per run rather than aborting on the first error.
//!
//! No function in this crate panics on user input: unknown characters,
//! unterminated constructs, deep nesting, and truncated files all come
//! back as structured diagnostics.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

pub mod ast;
pub mod derive;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod scope;
pub mod span;
pub mod token;

pub use ast::*;
pub use diag::{Diagnostic, Diagnostics, LintLevel, Severity, Stage};
pub use lexer::{lex, lex_continuing};
pub use parser::{parse_program, parse_program_with, ParseOptions, ParseStats};
pub use scope::Scope;
pub use span::Span;
pub use token::{Token, TokenKind};
