//! A small, allocation-light JSON writer, a well-formedness checker,
//! and a value parser.
//!
//! The build environment is offline (no serde), and before this module
//! existed every JSON emitter in the repository — pipeline stats,
//! traces — was a hand-rolled format string, one typo away from
//! invalid output. [`JsonWriter`] makes structurally invalid JSON hard
//! to produce (commas and quoting are managed by the writer, strings
//! are escaped, non-finite floats degrade to `null`), and [`check`]
//! is a minimal recursive-descent validator the tests run over every
//! emitted document. [`parse`] builds a [`Value`] tree from a document,
//! for the consumers that read requests and our own reports back (the
//! server, the runner's `report`, trace-format tests).

use std::fmt::Write as _;

/// Incremental JSON document builder.
///
/// Containers are explicit: [`JsonWriter::begin_object`] /
/// [`JsonWriter::end_object`] (and the `_field` variants for nested
/// containers inside an object). Field helpers insert commas and quote
/// and escape keys/values, so the output is well-formed by
/// construction as long as begins and ends are balanced — which
/// [`check`] verifies in tests anyway.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once the container has at
    /// least one item (so the next item needs a comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Comma bookkeeping before writing an item into the current
    /// container.
    fn item(&mut self) {
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.buf.push_str(", ");
            }
            *has_items = true;
        }
    }

    fn push_key(&mut self, key: &str) {
        self.item();
        escape_into(key, &mut self.buf);
        self.buf.push_str(": ");
    }

    /// Open an object as the root value or as an array element.
    pub fn begin_object(&mut self) {
        self.item();
        self.buf.push('{');
        self.stack.push(false);
    }

    /// Open an object-valued field of the current object.
    pub fn begin_object_field(&mut self, key: &str) {
        self.push_key(key);
        self.buf.push('{');
        self.stack.push(false);
    }

    pub fn end_object(&mut self) {
        self.stack.pop();
        self.buf.push('}');
    }

    /// Open an array as the root value or as an array element.
    pub fn begin_array(&mut self) {
        self.item();
        self.buf.push('[');
        self.stack.push(false);
    }

    /// Open an array-valued field of the current object.
    pub fn begin_array_field(&mut self, key: &str) {
        self.push_key(key);
        self.buf.push('[');
        self.stack.push(false);
    }

    pub fn end_array(&mut self) {
        self.stack.pop();
        self.buf.push(']');
    }

    pub fn field_str(&mut self, key: &str, value: &str) {
        self.push_key(key);
        escape_into(value, &mut self.buf);
    }

    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.push_key(key);
        let _ = write!(self.buf, "{value}");
    }

    pub fn field_i64(&mut self, key: &str, value: i64) {
        self.push_key(key);
        let _ = write!(self.buf, "{value}");
    }

    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.push_key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Fixed-precision float field; NaN and infinities (not
    /// representable in JSON) are written as `null`.
    pub fn field_f64(&mut self, key: &str, value: f64, decimals: usize) {
        self.push_key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.decimals$}");
        } else {
            self.buf.push_str("null");
        }
    }

    pub fn field_null(&mut self, key: &str) {
        self.push_key(key);
        self.buf.push_str("null");
    }

    /// String array element.
    pub fn elem_str(&mut self, value: &str) {
        self.item();
        escape_into(value, &mut self.buf);
    }

    /// Integer array element.
    pub fn elem_u64(&mut self, value: u64) {
        self.item();
        let _ = write!(self.buf, "{value}");
    }

    pub fn finish(self) -> String {
        self.buf
    }
}

/// Write `s` as a quoted, escaped JSON string.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting accepted by [`check`]: the validator is
/// recursive, and our own documents are a handful of levels deep.
const CHECK_MAX_DEPTH: usize = 128;

/// Minimal JSON well-formedness check (RFC 8259 value grammar, no
/// number-range validation). Returns the byte offset and a message for
/// the first violation. Used by tests and the bench harness to make
/// sure no emitter drifts into invalid output.
pub fn check(src: &str) -> Result<(), String> {
    let mut p = Checker {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the top-level value"));
    }
    Ok(())
}

struct Checker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Checker<'_> {
    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {}", self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > CHECK_MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut int_digits = 0usize;
        let first = self.peek();
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            int_digits += 1;
        }
        if int_digits == 0 {
            return Err(self.err("expected digits in number"));
        }
        if first == Some(b'0') && int_digits > 1 {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0usize;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0usize;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        Ok(())
    }
}

/// A parsed JSON value. Objects keep insertion order (our documents
/// are small; linear key lookup is fine and keeps ordering stable for
/// reports).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as an integer, when it is one (no fractional
    /// part, within `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parse a JSON document into a [`Value`]. Accepts exactly what
/// [`check`] accepts (same grammar, same depth limit); numbers are
/// read as `f64`, which is exact for every integer our writers emit
/// below 2^53 and a documented approximation beyond.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        chk: Checker {
            bytes: src.as_bytes(),
            pos: 0,
        },
        src,
    };
    p.chk.skip_ws();
    let v = p.value(0)?;
    p.chk.skip_ws();
    if p.chk.pos != p.chk.bytes.len() {
        return Err(p.chk.err("trailing content after the top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    chk: Checker<'a>,
    src: &'a str,
}

impl Parser<'_> {
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > CHECK_MAX_DEPTH {
            return Err(self.chk.err("nesting too deep"));
        }
        match self.chk.peek() {
            Some(b'{') => {
                self.chk.expect(b'{')?;
                self.chk.skip_ws();
                let mut fields = Vec::new();
                if self.chk.peek() == Some(b'}') {
                    self.chk.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.chk.skip_ws();
                    let key = self.string()?;
                    self.chk.skip_ws();
                    self.chk.expect(b':')?;
                    self.chk.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.chk.skip_ws();
                    match self.chk.peek() {
                        Some(b',') => self.chk.pos += 1,
                        Some(b'}') => {
                            self.chk.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.chk.err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'[') => {
                self.chk.expect(b'[')?;
                self.chk.skip_ws();
                let mut items = Vec::new();
                if self.chk.peek() == Some(b']') {
                    self.chk.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.chk.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.chk.skip_ws();
                    match self.chk.peek() {
                        Some(b',') => self.chk.pos += 1,
                        Some(b']') => {
                            self.chk.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.chk.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.chk.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.chk.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.chk.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.chk.pos;
                self.chk.number()?;
                let text = &self.src[start..self.chk.pos];
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|e| self.chk.err(&format!("unreadable number `{text}`: {e}")))
            }
            Some(_) => Err(self.chk.err("expected a JSON value")),
            None => Err(self.chk.err("unexpected end of input")),
        }
    }

    /// Validate a string with the checker, then unescape the validated
    /// span (escapes already known good, so decoding is infallible).
    fn string(&mut self) -> Result<String, String> {
        let start = self.chk.pos;
        self.chk.string()?;
        let raw = &self.src[start + 1..self.chk.pos - 1];
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('b') => out.push('\u{0008}'),
                Some('f') => out.push('\u{000c}'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars.next().and_then(|h| h.to_digit(16)).unwrap_or(0);
                        code = code * 16 + d;
                    }
                    // Lone surrogates have no char; degrade to U+FFFD
                    // rather than failing a validated document.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "deep \"tower\"\n");
        w.field_u64("goals", 42);
        w.field_f64("hit_rate", 0.9375, 4);
        w.field_f64("bad", f64::NAN, 4);
        w.field_bool("ok", true);
        w.field_null("eval");
        w.begin_array_field("spans");
        for i in 0..2 {
            w.begin_object();
            w.field_u64("start", i);
            w.end_object();
        }
        w.elem_str("tail");
        w.elem_u64(7);
        w.end_array();
        w.begin_object_field("nested");
        w.field_i64("neg", -3);
        w.end_object();
        w.end_object();
        let s = w.finish();
        let res = check(&s);
        assert!(res.is_ok(), "{res:?}\n{s}");
        assert!(s.contains("\"hit_rate\": 0.9375"), "{s}");
        assert!(s.contains("\"bad\": null"), "{s}");
        assert!(s.contains("\\\"tower\\\"\\n"), "{s}");
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_array_field("xs");
        w.end_array();
        w.begin_object_field("o");
        w.end_object();
        w.end_object();
        let s = w.finish();
        check(&s).unwrap();
        assert_eq!(s, "{\"xs\": [], \"o\": {}}");
    }

    #[test]
    fn checker_accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "\"a\\u00e9b\"",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": \"x\"}",
            "  [ 1 , 2 ]  ",
        ] {
            let res = check(ok);
            assert!(res.is_ok(), "{ok}: {res:?}");
        }
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "[1 2]",
            "{\"a\" 1}",
            "{a: 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "{} trailing",
            "nul",
        ] {
            assert!(check(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn checker_depth_limit_is_an_error_not_a_crash() {
        let deep = "[".repeat(CHECK_MAX_DEPTH + 2) + &"]".repeat(CHECK_MAX_DEPTH + 2);
        assert!(check(&deep).is_err());
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "deep \"tower\"\n");
        w.field_u64("goals", 42);
        w.field_f64("hit_rate", 0.9375, 4);
        w.field_null("eval");
        w.field_bool("ok", true);
        w.begin_array_field("xs");
        w.elem_u64(1);
        w.elem_str("two");
        w.end_array();
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("deep \"tower\"\n")
        );
        assert_eq!(v.get("goals").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("hit_rate").and_then(Value::as_f64), Some(0.9375));
        assert_eq!(v.get("eval"), Some(&Value::Null));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let xs = v.get("xs").and_then(Value::as_array).unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_str(), Some("two"));
        // Non-integer and negative numbers refuse as_u64.
        assert_eq!(v.get("hit_rate").and_then(Value::as_u64), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn parser_rejects_what_the_checker_rejects() {
        for bad in ["{", "[1 2]", "{\"a\" 1}", "01", "\"bad \\q\"", "{} x"] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
        // Escape decoding, including a \u escape.
        let v = parse("\"a\\u00e9b\\tc\"").unwrap();
        assert_eq!(v.as_str(), Some("a\u{e9}b\tc"));
    }
}
