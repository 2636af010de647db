//! The workspace's JSON codec — hand-rolled like every other format in
//! this workspace (no serde; the build is hermetic).
//!
//! Covers exactly what its users need: objects, arrays, strings with
//! standard escapes (`\" \\ \/ \b \f \n \r \t \uXXXX`), `f64` numbers,
//! booleans, and `null`. Object keys keep insertion order; duplicate
//! keys resolve to the first occurrence. Numbers are emitted with Rust's
//! shortest-round-trip float formatting, so `encode → parse` returns the
//! identical bits for every finite `f64`.
//!
//! Writers either assemble text from [`encode_str`] and [`encode_f64`]
//! (the wire protocol and scenario manifests, which fix their key order
//! by hand) or build a [`JsonValue`] and [`JsonValue::render`] it.

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

    /// `get` narrowed by [`JsonValue::as_u64`].
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// The key/value pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, JsonValue)> for JsonObject {
    fn from_iter<I: IntoIterator<Item = (String, JsonValue)>>(iter: I) -> Self {
        JsonObject {
            entries: iter.into_iter().collect(),
        }
    }
}

impl JsonValue {
    /// Object field access: the first value under `key`; `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.get(key)
    }

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

    /// The value as a non-negative integer below 2^53, the range in
    /// which a parsed `f64` stands for exactly one integer literal (2^53
    /// itself is also what `9007199254740993` rounds to). Negatives,
    /// fractions and larger values are `None`, never saturated.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
                Some(*n as u64)
            }
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

    /// Serializes compactly (no insignificant whitespace): numbers
    /// through [`encode_f64`], strings and keys through [`encode_str`],
    /// object fields in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => out.push_str(&encode_f64(*n)),
            JsonValue::String(s) => out.push_str(&encode_str(s)),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&encode_str(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
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
        let mut entries = Vec::new();
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect_byte(b':')?;
            p.skip_ws();
            entries.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(JsonObject { entries }))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    /// `open`, then zero or more comma-separated `item`s, then `close`.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect_byte(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or {:?} at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a char boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let text = std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8 in string")?;
            out.push_str(text);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
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
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs are out of scope for this codec;
                    // lone surrogates map to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => {
                    return Err(format!("bad escape '\\{}'", other as char));
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
    fn parses_and_renders_nested_documents() {
        let text = r#"{"a":[1,2.5,-300],"b":{"c":"x \"q\" \\ y","d":null},"e":true,"f":[[],{}]}"#;
        let v = parse(text).unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        let b = v.get("b").unwrap();
        assert_eq!(b.get("c").and_then(JsonValue::as_str), Some("x \"q\" \\ y"));
        assert_eq!(b.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("a"), None, "get on a non-object");
        assert_eq!(v.render(), text);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse("-3e2").unwrap().render(), "-300");
    }

    #[test]
    fn objects_keep_insertion_order_and_the_first_duplicate_wins() {
        let v = parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        assert_eq!(v.get("z").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.render(), r#"{"z":1,"a":2,"z":3}"#);
        let built: JsonObject = [("b", 1.0), ("a", 2.0)]
            .into_iter()
            .map(|(k, n)| (k.to_string(), JsonValue::Number(n)))
            .collect();
        let keys: Vec<&str> = built.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(JsonValue::Object(built).render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\r\u{08}\u{0C}/λ — ünïcode";
        let encoded = encode_str(original);
        let parsed = parse(&encoded).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // Control characters encode as \u escapes.
        assert_eq!(encode_str("\u{01}"), r#""\u0001""#);
        assert_eq!(parse(r#""\u0001""#).unwrap().as_str(), Some("\u{01}"));
        assert_eq!(parse(r#""Aµ\n""#).unwrap().as_str(), Some("Aµ\n"));
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // One long wire line must not pin a connection thread. A decoder
        // that rescans the rest of the input per byte needs tens of
        // seconds here; a linear one needs milliseconds.
        let original = "plain ascii, ünïcode and \"escapes\"\n".repeat(1 << 15);
        assert!(original.len() >= 1 << 20);
        let encoded = encode_str(&original);
        let start = std::time::Instant::now();
        let parsed = parse(&encoded).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.as_str(), Some(original.as_str()));
        assert!(elapsed.as_secs_f64() < 2.0, "1 MiB string took {elapsed:?}");
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
    fn as_u64_refuses_negatives_fractions_and_inexact_integers() {
        for (text, want) in [
            ("5", Some(5)),
            ("-0", Some(0)),
            ("9007199254740991", Some((1 << 53) - 1)),
            ("-1", None),
            ("5.5", None),
            ("\"5\"", None),
            ("1e17", None),
            // 2^53 is ambiguous, and 2^53 + 1 rounds to it.
            ("9007199254740992", None),
            ("9007199254740993", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), want, "{text}");
        }
        let v = parse(r#"{"a":5,"b":-1}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!((obj.get_u64("a"), obj.get_u64("b")), (Some(5), None));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "{\"a\":1}extra",
            r#""bad \q escape""#,
            r#""truncated \u00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" {\t\"a\" :\n[ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
    }
}
