//! The workspace's JSON toolkit: a reader and the shared writer helpers.
//!
//! The workspace deliberately carries no `serde_json` dependency. Every
//! document it writes — checkpoints, trace exports, metric snapshots, the
//! `dspp-bench` baseline — is hand-rolled from the `push_*` helpers here,
//! and every document it reads back goes through [`parse`] and the
//! `field*`/`parse_*` accessors. The parser is a strict recursive-descent
//! reader of the JSON grammar (RFC 8259) minus one corner: `\uXXXX`
//! escapes outside the BMP are accepted but surrogate pairs are not
//! recombined. It refuses containers nested deeper than [`MAX_DEPTH`], so
//! a hostile file cannot exhaust the stack.
//!
//! Floats are written as the shortest decimal that parses back to the
//! same bits ([`push_f64`]), so a write–read cycle is lossless. RFC 8259
//! has no syntax for non-finite numbers: checkpoints encode them as the
//! strings `"inf"`, `"-inf"` and `"nan"`, while the lossy exports (trace
//! attributes, bench baseline) write `null` ([`push_f64_or_null`]).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's own documents nest at most four deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits in `u64`, kept exact.
    UInt(u64),
    /// Any other JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved; duplicate keys keep the
    /// last value.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a number, if it is one (the nearest `f64` to an
    /// integer literal).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer: an integer literal exactly,
    /// or a whole `f64` below 2^53, where every integer is representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one full UTF-8 scalar.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(n));
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
pub fn push_string(out: &mut String, s: &str) {
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

/// Appends `v` losslessly: finite values as the shortest decimal that
/// parses back to the same bits (`Display`), non-finite ones as the
/// strings `"inf"`, `"-inf"` and `"nan"`. [`parse_f64`] reads it back.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Appends finite `v` like [`push_f64`] and non-finite `v` as `null`.
pub fn push_f64_or_null(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_array<T>(out: &mut String, items: &[T], mut push_item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_item(out, item);
    }
    out.push(']');
}

/// Appends an array of integers.
pub fn push_u64_array(out: &mut String, values: &[u64]) {
    push_array(out, values, |out, v| {
        let _ = write!(out, "{v}");
    });
}

/// Appends an array of [`push_f64`] numbers.
pub fn push_f64_array(out: &mut String, values: &[f64]) {
    push_array(out, values, |out, &v| push_f64(out, v));
}

/// Appends an array of [`push_f64_array`] rows.
pub fn push_f64_matrix(out: &mut String, rows: &[Vec<f64>]) {
    push_array(out, rows, |out, row| push_f64_array(out, row));
}

/// Appends `rows` as a [`push_f64_matrix`], or `null` for `None`.
pub fn push_f64_matrix_or_null(out: &mut String, rows: Option<&[Vec<f64>]>) {
    match rows {
        None => out.push_str("null"),
        Some(rows) => push_f64_matrix(out, rows),
    }
}

// ---------------------------------------------------------------------------
// Typed readers: the counterparts of the writers. Each error message
// names what was missing or mistyped.
// ---------------------------------------------------------------------------

/// Member `key` of an object.
pub fn field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Member `key` of an object, as an exact non-negative integer.
pub fn field_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

/// [`field_u64`] narrowed to `usize`.
pub fn field_usize(obj: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(field_u64(obj, key)?).map_err(|_| format!("field {key:?} is out of range"))
}

/// Member `key` of an object, converted by `read` (one of the `parse_*`
/// readers below).
pub fn field_with<T>(
    obj: &JsonValue,
    key: &str,
    read: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<T, String> {
    read(field(obj, key)?).map_err(|e| format!("{key}: {e}"))
}

/// Reads a number written by [`push_f64`], including the non-finite
/// string forms.
pub fn parse_f64(v: &JsonValue) -> Result<f64, String> {
    if let Some(n) = v.as_f64() {
        return Ok(n);
    }
    match v {
        JsonValue::String(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("expected a number, got string {other:?}")),
        },
        other => Err(format!("expected a number, got {other:?}")),
    }
}

/// Reads an array written by [`push_u64_array`].
pub fn parse_u64_array(v: &JsonValue) -> Result<Vec<u64>, String> {
    v.as_array()
        .ok_or("expected an array of integers")?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| "expected an integer".to_string()))
        .collect()
}

/// Reads an array written by [`push_f64_array`].
pub fn parse_f64_array(v: &JsonValue) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or("expected an array of numbers")?
        .iter()
        .map(parse_f64)
        .collect()
}

/// Reads a matrix written by [`push_f64_matrix`].
pub fn parse_f64_matrix(v: &JsonValue) -> Result<Vec<Vec<f64>>, String> {
    v.as_array()
        .ok_or("expected an array of arrays")?
        .iter()
        .map(parse_f64_array)
        .collect()
}

/// Reads a value written by [`push_f64_matrix_or_null`].
pub fn parse_f64_matrix_or_null(v: &JsonValue) -> Result<Option<Vec<Vec<f64>>>, String> {
    match v {
        JsonValue::Null => Ok(None),
        other => parse_f64_matrix(other).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -2.5e2 ").unwrap(), JsonValue::Number(-250.0));
        assert_eq!(
            parse("\"a\\\"b\\u0041\"").unwrap(),
            JsonValue::String("a\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":false}],"c":{"d":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn integer_accessor_rejects_fractions() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn integers_above_2_pow_53_read_back_exactly() {
        for n in [(1u64 << 53) + 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let v = parse(&n.to_string()).unwrap();
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v.as_f64(), Some(n as f64));
        }
        // 2^64 is a number but not a u64; a whole float past 2^53 is not
        // trusted as an integer either.
        let v = parse("18446744073709551616").unwrap();
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.as_f64(), Some(18_446_744_073_709_551_616.0));
        assert_eq!(parse("9007199254740993.0").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn writers_round_trip_through_the_readers() {
        // 1.2345678901234567e19 prints as a u64 literal, 1e21 as one too
        // wide for u64: both paths must restore the same bits.
        let values = [
            0.1,
            -0.0,
            1.234_567_890_123_456_7e19,
            1e21,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut out = String::new();
        push_f64_matrix(&mut out, &[values.to_vec(), vec![]]);
        assert_eq!(
            out,
            "[[0.1,-0,12345678901234567000,1000000000000000000000,\"inf\",\"-inf\"],[]]"
        );
        let back = parse_f64_matrix(&parse(&out).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in back[0].iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut nan = String::new();
        push_f64(&mut nan, f64::NAN);
        assert!(parse_f64(&parse(&nan).unwrap()).unwrap().is_nan());
        let mut s = String::new();
        push_string(&mut s, "q\"b\\n\n\u{1}");
        assert_eq!(s, "\"q\\\"b\\\\n\\n\\u0001\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("q\"b\\n\n\u{1}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\x\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrips_unicode() {
        let v = parse("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
    }

    #[test]
    fn error_carries_offset() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
