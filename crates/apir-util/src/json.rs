//! Minimal deterministic JSON: a value type, a writer, and a parser.
//!
//! The zero-dependency policy rules out `serde`, but the observability
//! layer needs machine-readable output (`FabricReport::to_json`,
//! snapshot documents, Chrome traces) that is **byte-identical across
//! runs** so reports and snapshots can be diffed. This module provides
//! exactly that:
//!
//! * [`Json`] — a value tree whose objects preserve insertion order, so
//!   render order is fixed by construction, never by hash state;
//! * [`Json::render`] — compact rendering with stable float formatting
//!   (Rust's shortest-roundtrip `Display`, deterministic on every
//!   platform) and full string escaping;
//! * [`parse`] — a recursive-descent parser for every document read
//!   back from outside the process: snapshots (`restore-run`), campaign
//!   plans, JSONL resume logs, `diff` inputs and the bench baseline.
//!
//! The parser reads its input in one left-to-right pass: a run of
//! plain string bytes is copied as one slice, so the work is linear in
//! the document's size. It accepts exactly the RFC 8259 grammar — no
//! `+1`, `01`, `1.` or `.5`, no number that overflows `f64`, no raw
//! control character inside a string, exactly four hex digits after
//! `\u` — and nests at most [`MAX_DEPTH`] arrays and objects, so a
//! hostile document cannot exhaust the stack. Every rejection is a
//! [`ParseError`] carrying the byte offset at fault.

use std::fmt::Write as _;

/// A JSON value. Object member order is insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53; counters above that
    /// render via [`Json::U64`]).
    Num(f64),
    /// A `u64` rendered exactly (JSON numbers, not strings).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an object from `(key, Option<value>)` pairs, preserving
    /// order and *omitting* `None` members — the shared
    /// "omit-when-default" pattern for optional report blocks (histogram
    /// `saturated` flags, timeline blocks) so absent data never renders
    /// as a misleading default value.
    pub fn obj_sparse(pairs: impl IntoIterator<Item = (impl Into<String>, Option<Json>)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .filter_map(|(k, v)| v.map(|v| (k.into(), v)))
                .collect(),
        )
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a member of an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f) => Some(*f),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact, deterministic rendering (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation (still deterministic).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(f) => write_f64(out, *f),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a float deterministically. NaN/∞ are not valid JSON; they are
/// mapped to `null` rather than emitting an unparsable token.
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
        // `1.0f64` displays as "1": keep it a number, that's fine.
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// How many arrays and objects [`parse`] nests before it rejects the
/// document (serde_json's default). The deepest document this workspace
/// writes, a snapshot, nests 9.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// [`ParseError`] on malformed input, trailing garbage, or nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(at: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        at,
        msg: msg.into(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            *pos,
            format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        // Copy the run of plain bytes up to the next quote, backslash or
        // control byte as one slice, so each byte is looked at once. The
        // run lies between ASCII bytes of a `&str`: it is whole chars.
        let run = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0..=0x1f) {
            *pos += 1;
        }
        let plain = std::str::from_utf8(&b[run..*pos])
            .map_err(|e| err(run + e.valid_up_to(), "invalid UTF-8"))?;
        s.push_str(plain);
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        // Exactly four hex digits: `from_str_radix` would
                        // also take a sign (`\u+041`).
                        let code = hex
                            .iter()
                            .try_fold(0, |code, &h| Some(code * 16 + (h as char).to_digit(16)?))
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogates are rejected rather than paired; the
                        // writer never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "invalid \\u code point"))?;
                        s.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => return Err(err(*pos, "unescaped control character in string")),
        }
    }
}

/// Scans a number by the RFC 8259 grammar,
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    } else if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
        return Err(err(start, "expected a value"));
    }
    let int = *pos;
    digits(b, pos, "expected a digit after `-`")?;
    if b[int] == b'0' && *pos > int + 1 {
        return Err(err(int + 1, "leading zero in a number"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(b, pos, "expected a digit after `.`")?;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(b, pos, "expected a digit in the exponent")?;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII digits");
    // Exact u64 when possible, so counters round-trip bit-for-bit.
    if let Ok(v) = text.parse::<u64>() {
        return Ok(Json::U64(v));
    }
    match text.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(Json::Num(f)),
        _ => Err(err(start, format!("number `{text}` is out of range"))),
    }
}

/// Skips one or more ASCII digits; `missing` names the error when there
/// is none.
fn digits(b: &[u8], pos: &mut usize, missing: &str) -> Result<(), ParseError> {
    let start = *pos;
    while matches!(b.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == start {
        return Err(err(start, missing));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_compact_and_ordered() {
        let j = Json::obj([
            ("b", Json::U64(2)),
            ("a", Json::arr([Json::Bool(true), Json::Null])),
            ("s", Json::str("x\"y\n")),
        ]);
        assert_eq!(j.render(), r#"{"b":2,"a":[true,null],"s":"x\"y\n"}"#);
    }

    #[test]
    fn obj_sparse_omits_none_members() {
        let j = Json::obj_sparse([
            ("always", Some(Json::U64(1))),
            ("off", None),
            ("on", Some(Json::Bool(true))),
        ]);
        assert_eq!(j.render(), r#"{"always":1,"on":true}"#);
        assert!(j.get("off").is_none());
    }

    #[test]
    fn floats_render_deterministically() {
        let mut s = String::new();
        write_f64(&mut s, 0.1 + 0.2);
        assert_eq!(s, "0.30000000000000004");
        s.clear();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn roundtrip_through_parser() {
        let j = Json::obj([
            ("cycles", Json::U64(u64::MAX)),
            ("util", Json::Num(0.1875)),
            ("names", Json::arr([Json::str("a b"), Json::str("π")])),
            ("nested", Json::obj([("empty", Json::Obj(vec![]))])),
        ]);
        let text = j.render();
        assert_eq!(parse(&text).unwrap(), j);
        // Pretty form parses back to the same tree.
        assert_eq!(parse(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn u64_counters_roundtrip_exactly() {
        let big = (1u64 << 63) + 12345;
        let text = Json::U64(big).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn accessors() {
        let j = parse(r#"{"a": 3, "b": 1.5, "c": "s", "d": [1]}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("b").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("c").unwrap().as_str(), Some("s"));
        assert_eq!(j.get("d").unwrap().as_arr().unwrap().len(), 1);
        assert!(j.get("zzz").is_none());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        // The error names the first bracket past the limit.
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        assert!(e.msg.contains("deeper than 128"), "{e}");
        // Far past the limit is the same located error, not a stack
        // overflow.
        assert_eq!(parse(&"[".repeat(100_000)).unwrap_err().at, MAX_DEPTH);
        // Objects count as levels too: `{"a":` is 5 bytes.
        let objs = format!("{}1{}", r#"{"a":"#.repeat(129), "}".repeat(129));
        assert_eq!(parse(&objs).unwrap_err().at, 5 * MAX_DEPTH);
    }

    #[test]
    fn grammar_is_rfc_8259() {
        // (document, byte offset of the rejection)
        let rejected = [
            ("+1", 0),
            ("01", 1),
            ("00", 1),
            ("-01", 2),
            ("1.", 2),
            (".5", 0),
            ("-.5", 1),
            ("-", 1),
            ("1.e5", 2),
            ("1e", 2),
            ("1e+", 3),
            ("1e999", 0),
            ("[0,-1e999]", 3),
            ("\"a\u{0}b\"", 2),
            ("\"tab\there\"", 4),
            ("{\"k\":\"\u{1f}\"}", 6),
            ("\"line\nbreak\"", 5),
            (r#""\u+041""#, 2),
            (r#""\u-041""#, 2),
            (r#""\u 041""#, 2),
            (r#""\u004""#, 2),
            (r#""\u00""#, 2),
        ];
        for (doc, at) in rejected {
            let e = parse(doc).expect_err(doc);
            assert_eq!(e.at, at, "{doc:?}: {e}");
        }
        // Edge cases that parse exactly as they always have.
        let accepted = [
            ("-0", Json::Num(-0.0), "-0"),
            ("0", Json::U64(0), "0"),
            ("0.5e-3", Json::Num(0.0005), "0.0005"),
            ("1E+5", Json::Num(1e5), "100000"),
            ("-12.5e1", Json::Num(-125.0), "-125"),
            ("1e-400", Json::Num(0.0), "0"),
            (
                "18446744073709551615",
                Json::U64(u64::MAX),
                "18446744073709551615",
            ),
            (
                "18446744073709551616",
                Json::Num(18446744073709551616.0),
                "18446744073709552000",
            ),
            (r#""Aé/\/""#, Json::str("Aé//"), r#""Aé//""#),
            ("\"π \u{7f}\"", Json::str("π \u{7f}"), "\"π \u{7f}\""),
        ];
        for (doc, value, rendered) in accepted {
            let got = parse(doc).expect(doc);
            assert_eq!(got, value, "{doc}");
            assert_eq!(got.render(), rendered, "{doc}");
        }
    }

    #[test]
    fn string_runs_keep_escapes_and_multibyte_chars_in_place() {
        let doc = r#"["plain", "", "a\"b\\c\nd", "αβγ\tδ", "\u0000x", "endé"]"#;
        let want =
            Json::arr(["plain", "", "a\"b\\c\nd", "αβγ\tδ", "\u{0}x", "endé"].map(Json::str));
        assert_eq!(parse(doc).unwrap(), want);
        assert_eq!(parse(&want.render()).unwrap(), want);
        let e = parse(r#"["ok", "torn"#).unwrap_err();
        assert_eq!((e.at, e.msg.as_str()), (12, "unterminated string"));
    }
}
