//! A recovering lexer.
//!
//! The lexer never fails outright: unknown characters become
//! [`TokenKind::Error`] tokens plus diagnostics, runs of adjacent junk
//! are coalesced into a single diagnostic, oversized integer literals
//! are clamped with a diagnostic, and an unterminated block comment is
//! reported once rather than cascading. The token stream always ends
//! with a single `Eof` token.

use crate::diag::{Diagnostics, Stage};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Hard cap on the number of tokens a single source file may produce.
/// This bounds lexer memory on adversarial inputs (e.g. gigabytes of
/// `;`); the cap is generous for real programs.
pub const MAX_TOKENS: usize = 1_000_000;

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    /// Byte offset of `src` within the whole compiled text.
    offset: usize,
    /// Tokens the text before `src` produced, counted against
    /// [`MAX_TOKENS`].
    tokens_before: usize,
    tokens: Vec<Token>,
    diags: Diagnostics,
}

/// Lex `src` into a token vector (always `Eof`-terminated) plus any
/// diagnostics. Lexing never panics and always terminates: the cursor
/// advances on every iteration, including over junk bytes.
pub fn lex(src: &str) -> (Vec<Token>, Diagnostics) {
    lex_continuing(src, 0, 0)
}

/// Lex `src` as the continuation of an earlier text that was `offset`
/// bytes long and produced `tokens_before` tokens (not counting its
/// `Eof`): spans are shifted by `offset`, and the [`MAX_TOKENS`] cap
/// counts the earlier tokens too. The result is what lexing the two
/// texts together would give for `src`'s part.
pub fn lex_continuing(src: &str, offset: usize, tokens_before: usize) -> (Vec<Token>, Diagnostics) {
    let mut lx = Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        offset,
        tokens_before,
        tokens: Vec::new(),
        diags: Diagnostics::new(),
    };
    lx.run();
    (lx.tokens, lx.diags)
}

impl<'s> Lexer<'s> {
    fn run(&mut self) {
        while self.pos < self.bytes.len() {
            if self.tokens_before + self.tokens.len() >= MAX_TOKENS {
                self.diags.error(
                    Stage::Lexer,
                    "E0105",
                    format!("input produced more than {MAX_TOKENS} tokens; lexing stopped"),
                    self.span_here(0),
                );
                break;
            }
            self.step();
        }
        let end = self.span_at(self.src.len());
        self.tokens
            .push(Token::new(TokenKind::Eof, Span::new(end, end)));
    }

    /// The whole-text position of byte `pos` of `src`.
    fn span_at(&self, pos: usize) -> u32 {
        u32::try_from(self.offset.saturating_add(pos)).unwrap_or(u32::MAX)
    }

    fn span_here(&self, len: usize) -> Span {
        Span::new(self.span_at(self.pos), self.span_at(self.pos + len))
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(self.span_at(start), self.span_at(self.pos))
    }

    fn peek(&self, off: usize) -> u8 {
        self.bytes.get(self.pos + off).copied().unwrap_or(0)
    }

    fn step(&mut self) {
        let c = self.peek(0);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                self.pos += 1;
            }
            b'-' if self.peek(1) == b'-' => self.line_comment(),
            b'{' if self.peek(1) == b'-' => self.block_comment(),
            b'\\' => self.simple(TokenKind::Backslash, 1),
            b'-' if self.peek(1) == b'>' => self.simple(TokenKind::Arrow, 2),
            b'=' if self.peek(1) == b'>' => self.simple(TokenKind::FatArrow, 2),
            b':' if self.peek(1) == b':' => self.simple(TokenKind::DoubleColon, 2),
            b'=' => self.simple(TokenKind::Equals, 1),
            b';' => self.simple(TokenKind::Semi, 1),
            b',' => self.simple(TokenKind::Comma, 1),
            b'|' => self.simple(TokenKind::Pipe, 1),
            b'(' => self.simple(TokenKind::LParen, 1),
            b')' => self.simple(TokenKind::RParen, 1),
            b'{' => self.simple(TokenKind::LBrace, 1),
            b'}' => self.simple(TokenKind::RBrace, 1),
            b'0'..=b'9' => self.number(false),
            // Negative literals: only when `-` is directly glued to a digit.
            b'-' if self.peek(1).is_ascii_digit() => self.number(true),
            b'a'..=b'z' | b'_' => self.ident(false),
            b'A'..=b'Z' => self.ident(true),
            _ => self.junk(),
        }
    }

    fn simple(&mut self, kind: TokenKind, len: usize) {
        let span = self.span_here(len);
        self.tokens.push(Token::new(kind, span));
        self.pos += len;
    }

    fn line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        let open = self.span_here(2);
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.peek(0) == b'{' && self.peek(1) == b'-' {
                // Nesting depth is bounded by input length; saturate anyway.
                depth = depth.saturating_add(1);
                self.pos += 2;
            } else if self.peek(0) == b'-' && self.peek(1) == b'}' {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        if depth > 0 {
            self.diags
                .error(Stage::Lexer, "E0102", "unterminated block comment", open);
        }
    }

    fn number(&mut self, negative: bool) {
        let start = self.pos;
        if negative {
            self.pos += 1;
        }
        while self.peek(0).is_ascii_digit() {
            self.pos += 1;
        }
        let text = self.src.get(start..self.pos).unwrap_or("");
        let span = self.span_from(start);
        match text.parse::<i64>() {
            Ok(n) => self.tokens.push(Token::new(TokenKind::Int(n), span)),
            Err(_) => {
                self.diags.error(
                    Stage::Lexer,
                    "E0103",
                    format!("integer literal `{text}` does not fit in 64 bits"),
                    span,
                );
                // Recover with a clamped value so parsing can continue.
                let clamped = if negative { i64::MIN } else { i64::MAX };
                self.tokens.push(Token::new(TokenKind::Int(clamped), span));
            }
        }
    }

    fn ident(&mut self, upper: bool) {
        let start = self.pos;
        while matches!(self.peek(0), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'\'') {
            self.pos += 1;
        }
        let text = self.src.get(start..self.pos).unwrap_or("");
        let span = self.span_from(start);
        let kind = if upper {
            TokenKind::UpperIdent(text.to_string())
        } else {
            match text {
                "class" => TokenKind::Class,
                "instance" => TokenKind::Instance,
                "where" => TokenKind::Where,
                "let" => TokenKind::Let,
                "in" => TokenKind::In,
                "if" => TokenKind::If,
                "then" => TokenKind::Then,
                "else" => TokenKind::Else,
                "data" => TokenKind::Data,
                "case" => TokenKind::Case,
                "of" => TokenKind::Of,
                "deriving" => TokenKind::Deriving,
                _ => TokenKind::Ident(text.to_string()),
            }
        };
        self.tokens.push(Token::new(kind, span));
    }

    /// Consume a maximal run of unrecognizable bytes as one `Error`
    /// token with one diagnostic, advancing on UTF-8 boundaries so the
    /// excerpt slicing stays valid.
    fn junk(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && !self.is_token_start() {
            // Advance one whole character, not one byte.
            let rest = self.src.get(self.pos..).unwrap_or("");
            let step = rest.chars().next().map(char::len_utf8).unwrap_or(1);
            self.pos += step;
        }
        let span = self.span_from(start);
        let text = self
            .src
            .get(start..self.pos)
            .unwrap_or("<bytes>")
            .to_string();
        let preview: String = text.chars().take(12).collect();
        self.diags.error(
            Stage::Lexer,
            "E0101",
            format!("unrecognized character(s) `{preview}`"),
            span,
        );
        self.tokens.push(Token::new(TokenKind::Error(text), span));
    }

    fn is_token_start(&self) -> bool {
        matches!(
            self.peek(0),
            b' ' | b'\t'
                | b'\r'
                | b'\n'
                | b'\\'
                | b'='
                | b':'
                | b';'
                | b','
                | b'|'
                | b'('
                | b')'
                | b'{'
                | b'}'
                | b'-'
                | b'0'..=b'9'
                | b'a'..=b'z'
                | b'A'..=b'Z'
                | b'_'
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).0.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let ks = kinds("class Eq a where { eq :: a -> a -> Bool }");
        assert_eq!(ks[0], TokenKind::Class);
        assert_eq!(ks[1], TokenKind::UpperIdent("Eq".into()));
        assert!(ks.contains(&TokenKind::DoubleColon));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn junk_is_coalesced() {
        let (toks, diags) = lex("let x = @@@@@ ;");
        assert_eq!(diags.len(), 1, "one diagnostic for a junk run");
        assert!(toks.iter().any(|t| matches!(t.kind, TokenKind::Error(_))));
    }

    #[test]
    fn overflow_literal_recovers() {
        let (toks, diags) = lex("99999999999999999999999999");
        assert!(diags.has_errors());
        assert!(matches!(toks[0].kind, TokenKind::Int(i64::MAX)));
    }

    #[test]
    fn unterminated_block_comment() {
        let (_, diags) = lex("{- never closed");
        assert!(diags.has_errors());
    }

    #[test]
    fn negative_literal() {
        assert_eq!(kinds("-42")[0], TokenKind::Int(-42));
    }

    #[test]
    fn continuing_lex_matches_lexing_the_joined_text() {
        let (head, tail) = ("x = 1;\n", "y = @ 99999999999999999999 {- open");
        let (all, all_diags) = lex(&format!("{head}{tail}"));
        let (head_toks, _) = lex(head);
        let before = head_toks.len() - 1;
        let (toks, diags) = lex_continuing(tail, head.len(), before);
        assert_eq!(all[before..], toks[..]);
        assert_eq!(all_diags.into_vec(), diags.into_vec());
    }

    #[test]
    fn utf8_junk_no_panic() {
        let (_, diags) = lex("let x = λ™∞ ;");
        assert!(diags.has_errors());
    }
}
