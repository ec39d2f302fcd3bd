//! A recovering recursive-descent parser.
//!
//! Design rules, in order of importance:
//!
//! 1. **Never panic, never hang.** All recursion is guarded by an
//!    explicit nesting budget ([`ParseOptions::max_depth`]), so a
//!    source file of ten thousand `(` produces a diagnostic instead of
//!    a stack overflow. Every recovery loop consumes at least one token,
//!    so parsing always terminates.
//! 2. **Recover and accumulate.** A broken top-level declaration is
//!    skipped to the next synchronization point (`;`, `class`,
//!    `instance`, or a closing brace) and parsing continues, so one
//!    typo does not hide every later error.
//! 3. **Blame precisely.** Diagnostics carry the span of the offending
//!    token and say what was expected.

use crate::ast::*;
use crate::diag::{Diagnostics, Stage};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Knobs for parser robustness limits.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Maximum grammar recursion depth (expression/type nesting).
    pub max_depth: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { max_depth: 400 }
    }
}

/// Marker meaning "a diagnostic was already recorded; unwind to the
/// nearest recovery point".
struct Broken;

type PResult<T> = Result<T, Broken>;

enum SigOrBinding {
    Sig(SigDecl),
    Binding(Binding),
}

/// Counters describing one parse: how often the parser had to abandon
/// a construct and skip to a recovery point. Always on — one integer
/// add on an already-cold error path — and surfaced through the
/// metrics registry by the driver (`tc-syntax` stays dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Error-recovery skips: syncs to the next top-level declaration
    /// or to the next `;` / `}` inside a class or instance body.
    pub recoveries: u64,
}

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
    depth: usize,
    /// The deepest level reached since [`Parser::app_expr`] last reset
    /// it: how deep the subtree just parsed goes.
    peak: usize,
    /// Whether the top-level declaration being parsed has had an
    /// expression refused for depth; it reports `E0207` once.
    refused: bool,
    opts: ParseOptions,
    diags: Diagnostics,
    stats: ParseStats,
}

/// Parse a token stream (as produced by [`crate::lex`]) into a
/// [`Program`], accumulating diagnostics. The returned program contains
/// every declaration that could be salvaged.
pub fn parse_program(tokens: &[Token], opts: ParseOptions) -> (Program, Diagnostics) {
    let (prog, diags, _) = parse_program_with(tokens, opts);
    (prog, diags)
}

/// Like [`parse_program`], additionally reporting [`ParseStats`] (the
/// recovery-event count the metrics registry records).
pub fn parse_program_with(
    tokens: &[Token],
    opts: ParseOptions,
) -> (Program, Diagnostics, ParseStats) {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
        peak: 0,
        refused: false,
        opts,
        diags: Diagnostics::new(),
        stats: ParseStats::default(),
    };
    let mut prog = p.program();
    let mut diags = p.diags;
    // Desugar `deriving` clauses into ordinary instances here so every
    // consumer of the parsed program sees them without extra plumbing.
    crate::derive::derive_instances(&mut prog, &mut diags, p.opts.max_depth);
    (prog, diags, p.stats)
}

impl<'t> Parser<'t> {
    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        self.toks
            .get(self.pos)
            .map(|t| &t.kind)
            .unwrap_or(&TokenKind::Eof)
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        self.toks
            .get(self.pos + off)
            .map(|t| &t.kind)
            .unwrap_or(&TokenKind::Eof)
    }

    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|t| t.span)
            .or_else(|| self.toks.last().map(|t| t.span))
            .unwrap_or(Span::DUMMY)
    }

    /// Consume the current token (never `Eof`) and return its span.
    fn bump(&mut self) -> Span {
        match self.toks.get(self.pos) {
            Some(t) if t.kind != TokenKind::Eof => {
                self.pos += 1;
                t.span
            }
            Some(t) => t.span,
            None => Span::DUMMY,
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err_here(&mut self, code: &'static str, msg: String) -> Broken {
        let span = self.span();
        self.diags.error(Stage::Parser, code, msg, span);
        Broken
    }

    fn expect(&mut self, kind: TokenKind, ctx: &str) -> PResult<Span> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            let found = self.peek().describe();
            Err(self.err_here(
                "E0201",
                format!("expected {} {ctx}, found {found}", kind.describe()),
            ))
        }
    }

    fn expect_ident(&mut self, ctx: &str) -> PResult<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => Ok((name, self.bump())),
            other => Err(self.err_here(
                "E0202",
                format!("expected identifier {ctx}, found {}", other.describe()),
            )),
        }
    }

    fn expect_upper(&mut self, ctx: &str) -> PResult<(String, Span)> {
        match self.peek().clone() {
            TokenKind::UpperIdent(name) => Ok((name, self.bump())),
            other => Err(self.err_here(
                "E0203",
                format!(
                    "expected capitalized name {ctx}, found {}",
                    other.describe()
                ),
            )),
        }
    }

    /// Run `f` one grammar level deeper; errors out (with a single
    /// diagnostic) when the nesting budget is exhausted. The depth is
    /// restored on all paths, including `Err` returns from `f`.
    fn with_depth<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= self.opts.max_depth {
            return Err(self.too_deep(self.span()));
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let r = f(self);
        self.depth = self.depth.saturating_sub(1);
        r
    }

    /// [`Parser::with_depth`] for an expression. An expression past the
    /// budget is reported, skipped ([`Parser::skip_expr`]) and parsed as
    /// a hole, so the constructs around it parse as usual and report
    /// nothing more.
    fn expr_with_depth(&mut self, f: impl FnOnce(&mut Self) -> PResult<Expr>) -> PResult<Expr> {
        if self.depth < self.opts.max_depth {
            return self.with_depth(f);
        }
        let start = self.span();
        Ok(self.refuse(start, start))
    }

    /// Refuse an expression past the nesting budget: report `E0207` at
    /// `at`, skip the rest of the expression and return one hole from
    /// `start` to its end, so no part of it reaches a later pass.
    fn refuse(&mut self, at: Span, start: Span) -> Expr {
        let _ = self.too_deep(at);
        let end = self.skip_expr();
        Expr::Hole(start.merge(end))
    }

    /// Report `E0207`, the nesting budget, at `span`: once per top-level
    /// declaration, since what a refusal skips can trip the budget again.
    fn too_deep(&mut self, span: Span) -> Broken {
        if !std::mem::replace(&mut self.refused, true) {
            self.diags.error(
                Stage::Parser,
                "E0207",
                format!(
                    "nesting deeper than the limit of {} levels; simplify the expression",
                    self.opts.max_depth
                ),
                span,
            );
        }
        Broken
    }

    /// Skip the rest of the expression that starts here, without
    /// recursing, and return the span of its last token. Brackets,
    /// `let`…`in`, `if`…`then`…`else` and `case`…`of` are matched on a
    /// stack of the tokens that close them; a closer deeper in the stack
    /// closes what is above it too. Stops before a token that ends the
    /// expression at its own level (`)`, `}`, `;`, `,`, `=`, `::`, `in`,
    /// `then`, `else`, `of`), and before a declaration keyword or the
    /// end of input at any level.
    fn skip_expr(&mut self) -> Span {
        self.stats.recoveries = self.stats.recoveries.saturating_add(1);
        let mut closers: Vec<TokenKind> = Vec::new();
        let mut last = self.span();
        loop {
            let tok = self.peek();
            let opens = match tok {
                TokenKind::Eof | TokenKind::Class | TokenKind::Instance | TokenKind::Data => {
                    return last
                }
                TokenKind::LParen => Some(TokenKind::RParen),
                TokenKind::LBrace => Some(TokenKind::RBrace),
                TokenKind::Let => Some(TokenKind::In),
                TokenKind::If => Some(TokenKind::Then),
                TokenKind::Case => Some(TokenKind::Of),
                _ => None,
            };
            if let Some(at) = closers.iter().rposition(|c| c == tok) {
                closers.truncate(at);
                if *tok == TokenKind::Then {
                    closers.push(TokenKind::Else);
                }
            } else if closers.is_empty()
                && matches!(
                    tok,
                    TokenKind::RParen
                        | TokenKind::RBrace
                        | TokenKind::Semi
                        | TokenKind::Comma
                        | TokenKind::Equals
                        | TokenKind::DoubleColon
                        | TokenKind::In
                        | TokenKind::Then
                        | TokenKind::Else
                        | TokenKind::Of
                )
            {
                return last;
            }
            closers.extend(opens);
            last = self.bump();
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Skip tokens until a plausible top-level start or separator.
    /// Always makes progress.
    fn sync_topdecl(&mut self) {
        self.stats.recoveries = self.stats.recoveries.saturating_add(1);
        loop {
            match self.peek() {
                TokenKind::Eof | TokenKind::Class | TokenKind::Instance | TokenKind::Data => return,
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                // A lower identifier followed by `::` or `=` looks like
                // the start of the next declaration; stop before it.
                TokenKind::Ident(_)
                    if matches!(self.peek_at(1), TokenKind::DoubleColon | TokenKind::Equals) =>
                {
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skip tokens until `;` at bracket depth 0 (consumed), or a
    /// closing brace / Eof (not consumed). Always makes progress when
    /// anything is skipped.
    fn sync_in_braces(&mut self) {
        self.stats.recoveries = self.stats.recoveries.saturating_add(1);
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::RBrace if depth == 0 => return,
                TokenKind::LBrace | TokenKind::LParen => {
                    depth = depth.saturating_add(1);
                    self.bump();
                }
                TokenKind::RBrace | TokenKind::RParen => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> Program {
        let mut prog = Program::default();
        loop {
            // Tolerate stray semicolons between declarations.
            while self.eat(&TokenKind::Semi) {}
            self.refused = false;
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Class => match self.class_decl() {
                    Ok(c) => prog.classes.push(c),
                    Err(Broken) => self.sync_topdecl(),
                },
                TokenKind::Instance => match self.instance_decl() {
                    Ok(i) => prog.instances.push(i),
                    Err(Broken) => self.sync_topdecl(),
                },
                TokenKind::Data => match self.data_decl() {
                    Ok(d) => prog.datas.push(d),
                    Err(Broken) => self.sync_topdecl(),
                },
                TokenKind::Ident(_) => match self.sig_or_binding() {
                    Ok(SigOrBinding::Sig(s)) => prog.sigs.push(s),
                    Ok(SigOrBinding::Binding(b)) => prog.bindings.push(b),
                    Err(Broken) => self.sync_topdecl(),
                },
                other => {
                    let msg = format!(
                        "expected a class, instance, signature, or binding at top level, found {}",
                        other.describe()
                    );
                    let _ = self.err_here("E0204", msg);
                    self.sync_topdecl();
                }
            }
        }
        prog
    }

    fn class_decl(&mut self) -> PResult<ClassDecl> {
        let start = self.span();
        self.expect(TokenKind::Class, "to start a class declaration")?;
        let supers = if self.context_ahead() {
            let ctx = self.context()?;
            self.expect(TokenKind::FatArrow, "after superclass context")?;
            ctx
        } else {
            Vec::new()
        };
        let (name, _) = self.expect_upper("as the class name")?;
        let (tyvar, _) = self.expect_ident("as the class type variable")?;
        self.expect(TokenKind::Where, "after the class head")?;
        self.expect(TokenKind::LBrace, "to open the class body")?;
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            match self.method_sig() {
                Ok(m) => {
                    methods.push(m);
                    if !self.eat(&TokenKind::Semi) && !self.at(&TokenKind::RBrace) {
                        let _ = self.err_here(
                            "E0205",
                            "expected `;` or `}` after a method signature".to_string(),
                        );
                        self.sync_in_braces();
                    }
                }
                Err(Broken) => self.sync_in_braces(),
            }
        }
        let end = self.span();
        self.expect(TokenKind::RBrace, "to close the class body")?;
        Ok(ClassDecl {
            supers,
            name,
            tyvar,
            methods,
            span: start.merge(end),
        })
    }

    fn method_sig(&mut self) -> PResult<MethodSig> {
        let (name, nspan) = self.expect_ident("as a method name")?;
        self.expect(TokenKind::DoubleColon, "after the method name")?;
        let qt = self.qual_type()?;
        let span = nspan.merge(qt.span);
        Ok(MethodSig {
            name,
            qual_ty: qt,
            span,
        })
    }

    fn instance_decl(&mut self) -> PResult<InstanceDecl> {
        let start = self.span();
        self.expect(TokenKind::Instance, "to start an instance declaration")?;
        let context = if self.context_ahead() {
            let ctx = self.context()?;
            self.expect(TokenKind::FatArrow, "after instance context")?;
            ctx
        } else {
            Vec::new()
        };
        let (class, _) = self.expect_upper("as the instance's class name")?;
        let head = self.atype()?;
        self.expect(TokenKind::Where, "after the instance head")?;
        self.expect(TokenKind::LBrace, "to open the instance body")?;
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            match self.binding() {
                Ok(b) => {
                    methods.push(b);
                    if !self.eat(&TokenKind::Semi) && !self.at(&TokenKind::RBrace) {
                        let _ = self.err_here(
                            "E0205",
                            "expected `;` or `}` after an instance method".to_string(),
                        );
                        self.sync_in_braces();
                    }
                }
                Err(Broken) => self.sync_in_braces(),
            }
        }
        let end = self.span();
        self.expect(TokenKind::RBrace, "to close the instance body")?;
        Ok(InstanceDecl {
            context,
            class,
            head,
            methods,
            span: start.merge(end),
        })
    }

    /// `data T a b = C1 t ... | C2 ... [deriving (Eq, Ord)] ;`
    fn data_decl(&mut self) -> PResult<DataDecl> {
        let start = self.span();
        self.expect(TokenKind::Data, "to start a data declaration")?;
        let (name, _) = self.expect_upper("as the data type name")?;
        let mut params = Vec::new();
        while let TokenKind::Ident(p) = self.peek().clone() {
            self.bump();
            params.push(p);
        }
        self.expect(TokenKind::Equals, "after the data type head")?;
        let mut constructors = vec![self.con_decl()?];
        while self.eat(&TokenKind::Pipe) {
            constructors.push(self.con_decl()?);
        }
        let deriving = if self.eat(&TokenKind::Deriving) {
            self.deriving_clause()?
        } else {
            Vec::new()
        };
        let end = self.span();
        if !self.eat(&TokenKind::Semi) && !self.at(&TokenKind::Eof) {
            let _ = self.err_here("E0205", "expected `;` after a data declaration".to_string());
            self.sync_topdecl();
        }
        Ok(DataDecl {
            name,
            params,
            constructors,
            deriving,
            span: start.merge(end),
        })
    }

    /// One constructor alternative: `Node a (Tree a) (Tree a)`.
    fn con_decl(&mut self) -> PResult<ConDecl> {
        let (name, nspan) = self.expect_upper("as a data constructor name")?;
        let mut fields = Vec::new();
        let mut span = nspan;
        while self.type_atom_ahead() {
            let f = self.atype()?;
            span = span.merge(f.span());
            fields.push(f);
        }
        Ok(ConDecl { name, fields, span })
    }

    /// `deriving (Eq, Ord)` or `deriving Eq` (the keyword is consumed).
    fn deriving_clause(&mut self) -> PResult<Vec<(String, Span)>> {
        if self.eat(&TokenKind::LParen) {
            let mut classes = Vec::new();
            if !self.at(&TokenKind::RParen) {
                loop {
                    classes.push(self.expect_upper("as a class name in `deriving`")?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen, "to close the deriving clause")?;
            Ok(classes)
        } else {
            Ok(vec![
                self.expect_upper("as the class name after `deriving`")?
            ])
        }
    }

    fn sig_or_binding(&mut self) -> PResult<SigOrBinding> {
        if matches!(self.peek_at(1), TokenKind::DoubleColon) {
            let (name, nspan) = self.expect_ident("as a signature name")?;
            self.bump(); // `::`
            let qt = self.qual_type()?;
            if !self.eat(&TokenKind::Semi) && !self.at(&TokenKind::Eof) {
                let _ = self.err_here("E0205", "expected `;` after a type signature".to_string());
                self.sync_topdecl();
            }
            let span = nspan.merge(qt.span);
            Ok(SigOrBinding::Sig(SigDecl {
                name,
                qual_ty: qt,
                span,
            }))
        } else {
            let b = self.binding()?;
            if !self.eat(&TokenKind::Semi) && !self.at(&TokenKind::Eof) {
                let _ = self.err_here("E0205", "expected `;` after a binding".to_string());
                self.sync_topdecl();
            }
            Ok(SigOrBinding::Binding(b))
        }
    }

    /// `name param* = expr` — parameters desugar to nested lambdas, and
    /// are charged as such: the body sits one level deeper per
    /// parameter. Past the budget the whole right-hand side is refused,
    /// so no chain of lambdas is built.
    fn binding(&mut self) -> PResult<Binding> {
        let (name, nspan) = self.expect_ident("as a binding name")?;
        let mut params: Vec<(String, Span)> = Vec::new();
        while let TokenKind::Ident(p) = self.peek().clone() {
            params.push((p, self.bump()));
        }
        self.expect(TokenKind::Equals, "after the binding head")?;
        let nested = params.len();
        if self.depth + nested >= self.opts.max_depth {
            let head = params.last().map_or(nspan, |&(_, s)| nspan.merge(s));
            let start = self.span();
            let expr = self.refuse(head, start);
            let span = nspan.merge(expr.span());
            return Ok(Binding { name, expr, span });
        }
        self.depth += nested;
        let body = self.expr();
        self.depth -= nested;
        let body = body?;
        let span = nspan.merge(body.span());
        let expr = params.into_iter().rev().fold(body, |acc, (p, pspan)| {
            let s = pspan.merge(acc.span());
            Expr::Lam(p, Box::new(acc), s)
        });
        Ok(Binding { name, expr, span })
    }

    // ------------------------------------------------------------------
    // Types and contexts
    // ------------------------------------------------------------------

    /// Decide whether a class context (`C t =>` or `(C t, ...) =>`)
    /// starts at the cursor, by scanning ahead for a `=>` at paren
    /// depth zero before any token that cannot occur inside a context.
    /// The scan consumes one token per iteration and stops at `Eof`,
    /// so it always terminates.
    fn context_ahead(&self) -> bool {
        let mut depth = 0usize;
        let mut off = 0usize;
        loop {
            match self.peek_at(off) {
                TokenKind::FatArrow if depth == 0 => return true,
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                // An arrow at depth zero means we are inside a plain
                // type (`Int -> Bool`), not a context. Inside parens it
                // may be a function type *constrained by* the context
                // (`C (a -> a) => ...`), so keep scanning.
                TokenKind::Arrow if depth == 0 => return false,
                TokenKind::Equals
                | TokenKind::Semi
                | TokenKind::Where
                | TokenKind::LBrace
                | TokenKind::RBrace
                | TokenKind::Eof => return false,
                _ => {}
            }
            off += 1;
        }
    }

    fn context(&mut self) -> PResult<Vec<PredExpr>> {
        if self.at(&TokenKind::LParen) {
            self.bump();
            let mut preds = Vec::new();
            if !self.at(&TokenKind::RParen) {
                loop {
                    preds.push(self.pred()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen, "to close the context")?;
            Ok(preds)
        } else {
            Ok(vec![self.pred()?])
        }
    }

    fn pred(&mut self) -> PResult<PredExpr> {
        let (class, cspan) = self.expect_upper("as a class name in a context")?;
        let ty = self.atype()?;
        let span = cspan.merge(ty.span());
        Ok(PredExpr { class, ty, span })
    }

    fn qual_type(&mut self) -> PResult<QualTypeExpr> {
        let start = self.span();
        let context = if self.context_ahead() {
            let ctx = self.context()?;
            self.expect(TokenKind::FatArrow, "after the context")?;
            ctx
        } else {
            Vec::new()
        };
        let ty = self.type_expr()?;
        let span = start.merge(ty.span());
        Ok(QualTypeExpr { context, ty, span })
    }

    fn type_expr(&mut self) -> PResult<TypeExpr> {
        self.with_depth(|p| {
            let lhs = p.btype()?;
            if p.eat(&TokenKind::Arrow) {
                let rhs = p.type_expr()?;
                let span = lhs.span().merge(rhs.span());
                Ok(TypeExpr::Fun(Box::new(lhs), Box::new(rhs), span))
            } else {
                Ok(lhs)
            }
        })
    }

    fn btype(&mut self) -> PResult<TypeExpr> {
        let mut acc = self.atype()?;
        while self.type_atom_ahead() {
            let arg = self.atype()?;
            let span = acc.span().merge(arg.span());
            acc = TypeExpr::App(Box::new(acc), Box::new(arg), span);
        }
        Ok(acc)
    }

    fn type_atom_ahead(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Ident(_) | TokenKind::UpperIdent(_) | TokenKind::LParen
        )
    }

    fn atype(&mut self) -> PResult<TypeExpr> {
        self.with_depth(|p| match p.peek().clone() {
            TokenKind::Ident(n) => Ok(TypeExpr::Var(n, p.bump())),
            TokenKind::UpperIdent(n) => Ok(TypeExpr::Con(n, p.bump())),
            TokenKind::LParen => {
                p.bump();
                let inner = p.type_expr()?;
                p.expect(TokenKind::RParen, "to close the type")?;
                Ok(inner)
            }
            other => Err(p.err_here(
                "E0206",
                format!("expected a type, found {}", other.describe()),
            )),
        })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.expr_with_depth(|p| match p.peek().clone() {
            TokenKind::Backslash => {
                let start = p.span();
                p.bump();
                let mut params = Vec::new();
                while let TokenKind::Ident(n) = p.peek().clone() {
                    params.push((n, p.bump()));
                }
                if params.is_empty() {
                    return Err(
                        p.err_here("E0208", "a lambda needs at least one parameter".to_string())
                    );
                }
                p.expect(TokenKind::Arrow, "after lambda parameters")?;
                // `\x y -> e` is `\x -> \y -> e`: the body sits one
                // level deeper per parameter after the first. Past the
                // budget the whole lambda is refused, so no chain of
                // lambdas is built.
                let nested = params.len() - 1;
                if p.depth + nested >= p.opts.max_depth {
                    let head = params.last().map_or(start, |&(_, s)| start.merge(s));
                    return Ok(p.refuse(head, start));
                }
                p.depth += nested;
                let body = p.expr();
                p.depth -= nested;
                let body = body?;
                let span = start.merge(body.span());
                Ok(params.into_iter().rev().fold(body, |acc, (n, pspan)| {
                    let s = pspan.merge(acc.span()).merge(span);
                    Expr::Lam(n, Box::new(acc), s)
                }))
            }
            TokenKind::Let => {
                let start = p.span();
                p.bump();
                let mut binds = Vec::new();
                if p.eat(&TokenKind::LBrace) {
                    while !p.at(&TokenKind::RBrace) && !p.at(&TokenKind::Eof) {
                        match p.binding() {
                            Ok(b) => {
                                binds.push(b);
                                if !p.eat(&TokenKind::Semi) && !p.at(&TokenKind::RBrace) {
                                    let _ = p.err_here(
                                        "E0205",
                                        "expected `;` or `}` after a let binding".to_string(),
                                    );
                                    p.sync_in_braces();
                                }
                            }
                            Err(Broken) => p.sync_in_braces(),
                        }
                    }
                    p.expect(TokenKind::RBrace, "to close the let bindings")?;
                } else {
                    binds.push(p.binding()?);
                }
                p.expect(TokenKind::In, "after let bindings")?;
                let body = p.expr()?;
                let span = start.merge(body.span());
                Ok(Expr::Let(binds, Box::new(body), span))
            }
            TokenKind::If => {
                let start = p.span();
                p.bump();
                let c = p.expr()?;
                p.expect(TokenKind::Then, "after the condition")?;
                let t = p.expr()?;
                p.expect(TokenKind::Else, "after the then-branch")?;
                let e = p.expr()?;
                let span = start.merge(e.span());
                Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e), span))
            }
            TokenKind::Case => {
                let start = p.span();
                p.bump();
                let scrut = p.expr()?;
                p.expect(TokenKind::Of, "after the case scrutinee")?;
                p.expect(TokenKind::LBrace, "to open the case alternatives")?;
                let mut arms = Vec::new();
                while !p.at(&TokenKind::RBrace) && !p.at(&TokenKind::Eof) {
                    match p.case_arm() {
                        Ok(a) => {
                            arms.push(a);
                            if !p.eat(&TokenKind::Semi) && !p.at(&TokenKind::RBrace) {
                                let _ = p.err_here(
                                    "E0205",
                                    "expected `;` or `}` after a case alternative".to_string(),
                                );
                                p.sync_in_braces();
                            }
                        }
                        Err(Broken) => p.sync_in_braces(),
                    }
                }
                let end = p.span();
                p.expect(TokenKind::RBrace, "to close the case alternatives")?;
                let span = start.merge(end);
                if arms.is_empty() {
                    p.diags.error(
                        Stage::Parser,
                        "E0210",
                        "a `case` expression needs at least one alternative",
                        span,
                    );
                    return Err(Broken);
                }
                Ok(Expr::Case(Box::new(scrut), arms, span))
            }
            _ => p.app_expr(),
        })
    }

    /// `pattern -> expr`.
    fn case_arm(&mut self) -> PResult<CaseArm> {
        let pat = self.pattern()?;
        self.expect(TokenKind::Arrow, "after the case pattern")?;
        let body = self.expr()?;
        let span = pat.span().merge(body.span());
        Ok(CaseArm {
            pattern: pat,
            body,
            span,
        })
    }

    /// A flat pattern: `C x y`, a variable, or `_`. Nested patterns are
    /// not in the grammar; constructor arguments must be plain binders.
    fn pattern(&mut self) -> PResult<Pattern> {
        match self.peek().clone() {
            TokenKind::UpperIdent(name) => {
                let mut span = self.bump();
                let mut binders = Vec::new();
                while let TokenKind::Ident(b) = self.peek().clone() {
                    let bspan = self.bump();
                    span = span.merge(bspan);
                    binders.push((b, bspan));
                }
                Ok(Pattern::Con {
                    name,
                    binders,
                    span,
                })
            }
            TokenKind::Ident(n) => Ok(Pattern::Var(n, self.bump())),
            other => Err(self.err_here(
                "E0211",
                format!(
                    "expected a pattern (a constructor or a variable), found {}",
                    other.describe()
                ),
            )),
        }
    }

    /// An application spine `f a1 … an`. Later passes recurse down its
    /// function side, so a spine nests as deep as it is long: `f a1`
    /// keeps its atoms at the level they were parsed at, and each later
    /// argument pushes every atom before it one level down. The spine
    /// is charged against the nesting budget as it grows; its atoms may
    /// sit one level past the budget, below its deepest application, so
    /// `n` arguments at depth `d` may take `d + n - 1` levels.
    fn app_expr(&mut self) -> PResult<Expr> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut acc = self.atom()?;
        let mut bottom = self.peak;
        let mut shift = 0;
        while self.atom_ahead() {
            self.peak = self.depth;
            let arg = self.atom()?;
            bottom = (bottom + shift).max(self.peak);
            shift = 1;
            if bottom > self.opts.max_depth + 1 {
                self.peak = outer.max(bottom);
                return Ok(self.refuse(arg.span(), acc.span()));
            }
            let span = acc.span().merge(arg.span());
            acc = Expr::App(Box::new(acc), Box::new(arg), span);
        }
        self.peak = outer.max(bottom);
        Ok(acc)
    }

    fn atom_ahead(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Ident(_) | TokenKind::UpperIdent(_) | TokenKind::Int(_) | TokenKind::LParen
        )
    }

    fn atom(&mut self) -> PResult<Expr> {
        self.expr_with_depth(|p| match p.peek().clone() {
            TokenKind::Ident(n) => Ok(Expr::Var(n, p.bump())),
            TokenKind::UpperIdent(n) => Ok(Expr::Con(n, p.bump())),
            TokenKind::Int(v) => Ok(Expr::IntLit(v, p.bump())),
            TokenKind::LParen => {
                p.bump();
                let inner = p.expr()?;
                p.expect(TokenKind::RParen, "to close the expression")?;
                Ok(inner)
            }
            other => Err(p.err_here(
                "E0209",
                format!("expected an expression, found {}", other.describe()),
            )),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> (Program, Diagnostics) {
        let (toks, lex_diags) = lex(src);
        assert!(!lex_diags.has_errors(), "lex errors in test fixture");
        parse_program(&toks, ParseOptions::default())
    }

    fn parse_lossy(src: &str) -> (Program, Diagnostics) {
        let (toks, mut diags) = lex(src);
        let (prog, pdiags) = parse_program(&toks, ParseOptions::default());
        diags.extend(pdiags);
        (prog, diags)
    }

    #[test]
    fn parse_stats_count_recoveries() {
        let (toks, _) = lex("f = 1;\ng = 2;");
        let (_, diags, stats) = parse_program_with(&toks, ParseOptions::default());
        assert!(!diags.has_errors());
        assert_eq!(stats.recoveries, 0, "clean input never recovers");

        // Two broken declarations -> at least two recovery skips.
        let (toks, _) = lex("f = = 1;\nclass where;\ng = 2;");
        let (prog, diags, stats) = parse_program_with(&toks, ParseOptions::default());
        assert!(diags.has_errors());
        assert!(stats.recoveries >= 2, "{stats:?}");
        // Recovery still salvages the good declaration.
        assert!(prog.bindings.iter().any(|b| b.name == "g"));
    }

    #[test]
    fn context_may_constrain_function_types() {
        // The arrow inside the parenthesized constraint type must not
        // stop the context lookahead.
        let (prog, diags) = parse("instance C (a -> a) => C (List a) where { m = \\x -> x; };");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.instances.len(), 1);
        assert_eq!(prog.instances[0].context.len(), 1);
        // A plain parenthesized function type is still not a context.
        let (prog2, diags2) = parse("f :: (Int -> Int) -> Int;\nf g = g 1;");
        assert!(!diags2.has_errors(), "{:?}", diags2.into_vec());
        assert!(prog2.sigs[0].qual_ty.context.is_empty());
    }

    #[test]
    fn class_and_instance() {
        let (prog, diags) = parse(
            "class Eq a where { eq :: a -> a -> Bool };\n\
             instance Eq Int where { eq = primEqInt };\n\
             instance Eq a => Eq (List a) where { eq = eqList eq };",
        );
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.classes.len(), 1);
        assert_eq!(prog.instances.len(), 2);
        assert_eq!(prog.instances[1].context.len(), 1);
    }

    #[test]
    fn superclass_context() {
        let (prog, diags) = parse("class Eq a => Ord a where { lte :: a -> a -> Bool };");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.classes[0].supers.len(), 1);
        assert_eq!(prog.classes[0].supers[0].class, "Eq");
    }

    #[test]
    fn binding_with_params_desugars() {
        let (prog, diags) = parse("compose f g x = f (g x);");
        assert!(!diags.has_errors());
        assert!(matches!(prog.bindings[0].expr, Expr::Lam(..)));
    }

    #[test]
    fn signature_with_context() {
        let (prog, diags) = parse("member :: Eq a => a -> List a -> Bool;");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.sigs[0].qual_ty.context.len(), 1);
    }

    #[test]
    fn recovery_keeps_later_decls() {
        let (prog, diags) = parse_lossy("broken = = ;\ngood = 42;");
        assert!(diags.has_errors());
        assert_eq!(prog.bindings.len(), 1);
        assert_eq!(prog.bindings[0].name, "good");
    }

    #[test]
    fn multiple_errors_accumulate() {
        let (_, diags) = parse_lossy("a = = ;\nb = = ;\nc = = ;");
        assert!(diags.error_count() >= 3, "{:?}", diags.into_vec());
    }

    #[test]
    fn deep_nesting_is_a_diagnostic_not_a_crash() {
        let mut src = String::from("x = ");
        src.push_str(&"(".repeat(50_000));
        src.push('1');
        src.push_str(&")".repeat(50_000));
        src.push(';');
        let (_, diags) = parse_lossy(&src);
        assert!(diags.has_errors());
        assert!(diags.iter().any(|d| d.code == "E0207"), "depth diagnostic");
        // Every nested shape past the budget is one `E0207` and nothing
        // else: the refused expression is skipped as a whole, so the
        // constructs around it close as written, and so does the
        // declaration after it.
        let n = 450;
        for (shape, src) in [
            (
                "parentheses",
                format!("x = {}1{};", "(".repeat(n), ")".repeat(n)),
            ),
            (
                "else if",
                format!("x = {}1;", "if True then 1 else ".repeat(n)),
            ),
            ("lambdas", format!("x = {}1;", "\\y -> ".repeat(n))),
            (
                "lambda parameters",
                format!("x = \\{} -> 1;", vec!["y"; n].join(" ")),
            ),
            (
                "parameters of a let binding",
                format!("x = let {{ f {} = 1 }} in f;", vec!["y"; n].join(" ")),
            ),
            (
                "case in an arm",
                format!("x = {}1{};", "case 1 of { y -> ".repeat(n), " }".repeat(n)),
            ),
            (
                "case in a scrutinee",
                format!("x = {}1{};", "case ".repeat(n), " of { y -> 1 }".repeat(n)),
            ),
            (
                "let in a binding",
                format!("x = {}1{};", "let y = ".repeat(n), " in y".repeat(n)),
            ),
            (
                "let in braces",
                format!("x = {}1{};", "let { y = ".repeat(n), " } in y".repeat(n)),
            ),
            (
                "let in a body",
                format!("x = {}1;", "let y = 1 in ".repeat(n)),
            ),
            ("arrows", format!("x :: {}Int;", "Int -> ".repeat(n))),
            (
                "spine in an arm",
                format!("x = case 1 of {{ y -> f {} }};", vec!["1"; n].join(" ")),
            ),
        ] {
            let (prog, diags) = parse_lossy(&format!("{src}\nok = 1;"));
            let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["E0207"], "{shape}");
            assert!(prog.bindings.iter().any(|b| b.name == "ok"), "{shape}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (prog, diags) = parse("");
        assert!(prog.is_empty());
        assert!(diags.is_empty());
    }

    #[test]
    fn truncated_input_terminates() {
        let (_, diags) = parse_lossy("class Eq a where { eq ::");
        assert!(diags.has_errors());
    }

    #[test]
    fn data_decl_with_deriving() {
        let (prog, diags) =
            parse("data Tree a = Leaf | Node a (Tree a) (Tree a) deriving (Eq, Ord);");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.datas.len(), 1);
        let d = &prog.datas[0];
        assert_eq!(d.name, "Tree");
        assert_eq!(d.params, vec!["a".to_string()]);
        assert_eq!(d.constructors.len(), 2);
        assert_eq!(d.constructors[0].name, "Leaf");
        assert_eq!(d.constructors[0].fields.len(), 0);
        assert_eq!(d.constructors[1].fields.len(), 3);
        // deriving desugared into two instances: Eq then Ord.
        assert_eq!(prog.instances.len(), 2);
        assert_eq!(prog.instances[0].class, "Eq");
        assert_eq!(prog.instances[1].class, "Ord");
        assert_eq!(prog.instances[0].context.len(), 1);
        let names: Vec<_> = prog.instances[0]
            .methods
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, vec!["eq", "neq"]);
        let names: Vec<_> = prog.instances[1]
            .methods
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, vec!["lte", "lt"]);
    }

    #[test]
    fn deriving_single_class_without_parens() {
        let (prog, diags) = parse("data Color = Red | Green | Blue deriving Eq;");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.instances.len(), 1);
        assert_eq!(prog.instances[0].class, "Eq");
        assert!(prog.instances[0].context.is_empty());
    }

    #[test]
    fn deriving_unknown_class_is_e0212() {
        let (prog, diags) = parse_lossy("data T = MkT deriving (Show);");
        assert!(
            diags.iter().any(|d| d.code == "E0212"),
            "{:?}",
            diags.into_vec()
        );
        assert!(prog.instances.is_empty());
    }

    #[test]
    fn deriving_repeated_class_is_e0212() {
        let (prog, diags) = parse_lossy("data T = MkT deriving (Eq, Eq);");
        assert!(diags.iter().any(|d| d.code == "E0212"));
        assert_eq!(prog.instances.len(), 1, "only one Eq instance generated");
    }

    #[test]
    #[allow(clippy::panic)]
    fn case_expression_parses() {
        let (prog, diags) = parse(
            "data Maybe a = Nothing | Just a;\n\
             fromMaybe d m = case m of { Nothing -> d; Just x -> x };",
        );
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        let body = &prog.bindings[0].expr;
        // d and m desugar to lambdas around the case.
        let mut e = body;
        while let Expr::Lam(_, inner, _) = e {
            e = inner;
        }
        match e {
            Expr::Case(_, arms, _) => {
                assert_eq!(arms.len(), 2);
                assert!(
                    matches!(&arms[0].pattern, Pattern::Con { name, binders, .. }
                    if name == "Nothing" && binders.is_empty())
                );
                assert!(
                    matches!(&arms[1].pattern, Pattern::Con { name, binders, .. }
                    if name == "Just" && binders.len() == 1)
                );
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::panic)]
    fn case_wildcard_and_var_patterns() {
        let (prog, diags) = parse("f x = case x of { True -> 1; _ -> 0 };");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        let mut e = &prog.bindings[0].expr;
        while let Expr::Lam(_, inner, _) = e {
            e = inner;
        }
        match e {
            Expr::Case(_, arms, _) => {
                assert!(arms[1].pattern.is_irrefutable());
                assert!(matches!(&arms[1].pattern, Pattern::Var(n, _) if n == "_"));
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn empty_case_is_e0210() {
        let (_, diags) = parse_lossy("f x = case x of { };");
        assert!(
            diags.iter().any(|d| d.code == "E0210"),
            "{:?}",
            diags.into_vec()
        );
    }

    #[test]
    fn bad_pattern_is_e0211() {
        let (_, diags) = parse_lossy("f x = case x of { 1 -> 2 };");
        assert!(
            diags.iter().any(|d| d.code == "E0211"),
            "{:?}",
            diags.into_vec()
        );
    }

    #[test]
    fn broken_case_arm_recovers() {
        let (prog, diags) = parse_lossy("f x = case x of { True -> ; False -> 0 };\ng = 1;");
        assert!(diags.has_errors());
        assert!(prog.bindings.iter().any(|b| b.name == "g"));
    }

    #[test]
    fn broken_data_decl_recovers() {
        let (prog, diags) = parse_lossy("data = Oops;\ngood = 42;");
        assert!(diags.has_errors());
        assert!(prog.bindings.iter().any(|b| b.name == "good"));
    }

    #[test]
    fn if_let_lambda() {
        let (prog, diags) = parse("f = \\x y -> if x then let z = y in z else 0;");
        assert!(!diags.has_errors(), "{:?}", diags.into_vec());
        assert_eq!(prog.bindings.len(), 1);
    }

    /// The codes of a parse of `src`.
    fn codes(src: &str) -> Vec<&'static str> {
        parse_lossy(src).1.iter().map(|d| d.code).collect()
    }

    #[test]
    fn application_spines_are_charged_as_nesting() {
        let args = |n: usize| vec!["1"; n].join(" ");
        // At the top level a spine may take the whole budget, and no more.
        assert!(codes(&format!("main = f {};", args(400))).is_empty());
        assert_eq!(codes(&format!("main = f {};", args(401))), ["E0207"]);
        assert_eq!(codes(&format!("main = f {};", args(5_000))), ["E0207"]);
        // Each level of parentheses is charged on top.
        assert!(codes(&format!("main = g (f {});", args(398))).is_empty());
        assert_eq!(codes(&format!("main = g (f {});", args(399))), ["E0207"]);
        // A spine as the first argument of another sits below all of the
        // outer one's arguments, so nested spines add up.
        let mut nested = "1".to_string();
        for _ in 0..4 {
            nested = format!("(f {nested} {})", args(100));
        }
        assert_eq!(codes(&format!("main = {nested};")), ["E0207"]);
        // Later declarations still parse.
        let (prog, _) = parse_lossy(&format!("main = f {};\nok = 1;", args(5_000)));
        assert!(prog.bindings.iter().any(|b| b.name == "ok"));
    }

    #[test]
    fn lambda_parameters_are_charged_as_nested_lambdas() {
        fn params(n: usize) -> String {
            let xs: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            xs.join(" ")
        }
        // A binding's parameters are a lambda's: `f x = e` is
        // `f = \x -> e`.
        let shapes: [fn(usize) -> String; 2] = [
            |n| format!("main = \\{} -> 1;", params(n)),
            |n| format!("main {} = 1;", params(n)),
        ];
        for lam in shapes {
            // As deep as 398 nested lambdas go: the body's atom takes
            // the last level.
            assert!(codes(&lam(398)).is_empty());
            assert_eq!(codes(&lam(399)), ["E0207"]);
            assert_eq!(codes(&lam(5_000)), ["E0207"]);
            // Past the budget the right-hand side is one hole, not a
            // chain of 5,000 lambdas for every later pass to walk.
            let (prog, _) = parse_lossy(&lam(5_000));
            assert!(matches!(prog.bindings[0].expr, Expr::Hole(_)), "{}", lam(3));
        }
    }

    #[test]
    fn deriving_for_more_fields_than_the_budget_is_rejected() {
        let data = |n: usize| {
            format!(
                "data P = P {} deriving (Eq, Ord);",
                vec!["Int"; n].join(" ")
            )
        };
        let (prog, diags) = parse_lossy(&data(400));
        assert!(diags.is_empty(), "{:?}", diags.into_vec());
        assert_eq!(prog.instances.len(), 2);
        let (prog, diags) = parse_lossy(&data(401));
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), ["E0207"]);
        assert!(prog.instances.is_empty());
        assert_eq!(prog.datas.len(), 1, "the type itself is kept");
    }
}
