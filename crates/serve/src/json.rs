//! A minimal JSON codec for the wire protocol — hand-rolled like every
//! other format in this workspace (no serde; the build is hermetic).
//!
//! Covers exactly what the protocol needs: objects, arrays, strings with
//! standard escapes (`\" \\ \/ \b \f \n \r \t \uXXXX`), `f64` numbers,
//! booleans, and `null`. Object keys keep insertion order; duplicate
//! keys resolve to the first occurrence. Numbers are emitted with Rust's
//! shortest-round-trip float formatting, so `encode → parse` returns the
//! identical bits for every finite `f64`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(JsonObject),
}

/// An object: key/value pairs in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// The first value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `get` narrowed to a non-negative integer below 2^53, the range in
    /// which a parsed `f64` stands for exactly one integer literal (2^53
    /// itself is also what `9007199254740993` rounds to).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

impl JsonValue {
    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
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

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Encodes a string as a JSON string literal (with quotes).
pub fn encode_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encodes a finite `f64` so that parsing returns the identical bits
/// (Rust's shortest-round-trip `Display`). Non-finite values, which JSON
/// cannot carry, encode as `null`.
pub fn encode_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// A message with the byte offset of the problem.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(JsonObject { entries }));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(JsonObject { entries }));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for this
                            // protocol; lone surrogates map to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole character.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned range only ever holds ASCII digits, signs, '.',
        // and 'e'/'E', so from_utf8 cannot fail in practice — but a
        // parse error is the honest fallback, not a panic.
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(format!("non-ASCII number at byte {start}"));
        };
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x","d":null},"e":true}"#).unwrap();
        let obj = v.as_object().unwrap();
        let a = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        let b = obj.get("b").unwrap().as_object().unwrap();
        assert_eq!(b.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(b.get("d"), Some(&JsonValue::Null));
        assert_eq!(obj.get("e").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\r\u{08}\u{0C}/λ — ünïcode";
        let encoded = encode_str(original);
        let parsed = parse(&encoded).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // Control characters encode as \u escapes.
        assert_eq!(
            parse(&encode_str("\u{01}")).unwrap().as_str(),
            Some("\u{01}")
        );
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for &f in &[
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            1.23456789e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            12_345_678.901_234_5,
        ] {
            let parsed = parse(&encode_f64(f)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), f.to_bits(), "{f}");
        }
        assert_eq!(encode_f64(f64::NAN), "null");
        assert_eq!(encode_f64(f64::INFINITY), "null");
    }

    #[test]
    fn get_u64_guards_against_non_integers() {
        let v = parse(r#"{"a":5,"b":5.5,"c":-1,"d":"5","e":1e17}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get_u64("a"), Some(5));
        assert_eq!(obj.get_u64("b"), None);
        assert_eq!(obj.get_u64("c"), None);
        assert_eq!(obj.get_u64("d"), None);
        assert_eq!(obj.get_u64("e"), None, "beyond exact-integer range");
        let v = parse(r#"{"max":9007199254740991,"pow":9007199254740992,"over":9007199254740993}"#)
            .unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get_u64("max"), Some((1 << 53) - 1));
        assert_eq!(obj.get_u64("pow"), None, "2^53 is ambiguous");
        assert_eq!(obj.get_u64("over"), None, "rounds to 2^53");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "{\"a\":1}extra",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" {\t\"a\" :\n[ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(
            v.as_object()
                .unwrap()
                .get("a")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
    }
}
