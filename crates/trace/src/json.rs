//! Hand-rolled JSON: a tiny writer and a minimal recursive-descent
//! parser — the workspace's only ones. No serde — the build must work
//! offline with std only.
//!
//! The writer side is just [`escape`] and [`fmt_f64`]; exporters build
//! their documents with `format!` (the shapes are small and fixed). The
//! parser reads documents back: tests checking exported documents,
//! `obsctl` checking live snapshots off a socket, and
//! `tests/artifacts.rs` checking committed artifacts. It is linear in the input, caps
//! nesting at 128 levels, and reports failures with their line
//! ([`ParseError`]).

use std::collections::BTreeMap;

/// Escapes a string for embedding inside JSON quotes.
///
/// Control characters *and* everything outside printable ASCII are
/// `\u`-escaped (astral characters as UTF-16 surrogate pairs), so the
/// emitted documents are pure ASCII. Span and metric names are caller
/// data — a hostile name must never be able to break an exported
/// document or smuggle raw control bytes into a log pipeline.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' '..='~' => out.push(c),
            c => {
                let cp = c as u32;
                if cp <= 0xFFFF {
                    out.push_str(&format!("\\u{cp:04x}"));
                } else {
                    // Astral plane: encode as a UTF-16 surrogate pair.
                    let v = cp - 0x1_0000;
                    let hi = 0xD800 + (v >> 10);
                    let lo = 0xDC00 + (v & 0x3FF);
                    out.push_str(&format!("\\u{hi:04x}\\u{lo:04x}"));
                }
            }
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Inf — they are
/// clamped to `null`-free sentinels so the document stays parseable).
pub fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "0".to_string()
    } else if x.is_infinite() {
        if x > 0.0 {
            "1e308".to_string()
        } else {
            "-1e308".to_string()
        }
    } else {
        // `{}` on a whole f64 prints no decimal point; that is still a
        // valid JSON number, so no special casing is needed.
        format!("{x}")
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The committed
/// artifacts nest at most a handful of levels; the cap exists so hostile
/// input (a socket peer sending a million `[`) gets an error instead of
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Why a document failed to parse, and on which 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// What went wrong, with the byte offset.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    /// An error at the current byte.
    fn err(&self, what: &str) -> ParseError {
        let at = self.i.min(self.b.len());
        ParseError {
            line: 1 + self.b[..at].iter().filter(|&&c| c == b'\n').count(),
            message: format!("{what} at byte {at}"),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected input")),
        }
    }

    /// Runs one container parser one level deeper, refusing to go past
    /// `MAX_DEPTH`.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.i += 1;
            } else {
                break;
            }
        }
        match std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
        {
            Some(n) => Ok(Value::Num(n)),
            None => {
                self.i = start;
                Err(self.err("bad number"))
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        self.b
            .get(at..at + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.i + 1)?;
                            self.i += 4;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: must be followed by
                                // `\uDC00..\uDFFF` to form one scalar.
                                if self.b.get(self.i + 1..self.i + 3) == Some(b"\\u") {
                                    let lo = self.hex4(self.i + 3)?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        self.i += 6;
                                        let cp = 0x1_0000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                                    } else {
                                        out.push('\u{fffd}');
                                    }
                                } else {
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // in one step. Both are ASCII, so the run ends on a
                    // scalar boundary of the (already valid) input.
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    match std::str::from_utf8(&self.b[start..self.i]) {
                        Ok(run) => out.push_str(run),
                        Err(_) => return Err(self.err("invalid utf-8")),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn escape_emits_pure_ascii_and_round_trips_hostile_names() {
        // Span/metric names are caller data; the exporter must survive
        // control chars, BMP non-ASCII, and astral-plane scalars.
        for nasty in [
            "sa1.sample\u{0}\u{7}\u{1b}[31m",
            "sök.näher(π≈3)",
            "emoji.\u{1F600}.stage\u{10FFFF}",
            "\u{2028}line\u{2029}sep",
            "mix \"q\" \\b\\ \u{FEFF}",
        ] {
            let esc = escape(nasty);
            assert!(esc.is_ascii(), "escape({nasty:?}) left non-ASCII: {esc:?}");
            assert!(
                esc.bytes().all(|b| (0x20..0x7f).contains(&b)),
                "escape({nasty:?}) left a raw control byte: {esc:?}"
            );
            let doc = format!("{{\"k\":\"{esc}\"}}");
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
        }
    }

    #[test]
    fn lone_surrogates_decode_to_replacement_char() {
        let v = parse("{\"k\":\"\\ud83d x\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("\u{fffd} x"));
        // A high surrogate followed by a non-low-surrogate escape leaves
        // the second escape to decode on its own.
        let v = parse("{\"k\":\"\\ud83d\\u0041\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x"}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "{} extra",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn fmt_f64_never_emits_nan() {
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert!(parse(&fmt_f64(f64::INFINITY)).is_ok());
        assert_eq!(fmt_f64(1.5), "1.5");
        assert!(parse(&fmt_f64(0.1 + 0.2)).is_ok());
    }

    #[test]
    fn multibyte_runs_next_to_escapes_round_trip() {
        // Multi-byte scalars directly against quotes, backslashes, `\n`
        // and astral surrogate pairs: the run copier must cut exactly at
        // each escape and resume on the following scalar.
        for s in [
            "é\"ü",
            "\\π\\",
            "ß\nж\tλ",
            "\u{1F600}\u{1F600}",
            "中\u{1F600}文\u{10FFFF}",
            "\u{7f}é\u{1}",
        ] {
            let raw = format!("[\"{}\"]", s.replace('\\', "\\\\").replace('"', "\\\""));
            let raw = raw.replace('\n', "\\n").replace('\t', "\\t");
            for doc in [raw, format!("[\"{}\"]", escape(s))] {
                let v = parse(&doc).unwrap();
                assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(s), "{doc:?}");
            }
        }
        // Escaped surrogate pair sandwiched between raw multi-byte text.
        let v = parse("\"é\\ud83d\\ude00ü\"").unwrap();
        assert_eq!(v.as_str(), Some("é\u{1F600}ü"));
    }

    #[test]
    fn nesting_beyond_the_cap_is_an_error_not_a_crash() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().message.contains("nesting"));
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn errors_carry_the_one_based_line() {
        let e = parse("{\n  \"a\": 1,\n  oops\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(parse("[1,").unwrap_err().line, 1);
        let s: String = e.clone().into();
        assert!(s.starts_with("line 3: "), "{s}");
        assert_eq!(s, e.to_string());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
    }
}
