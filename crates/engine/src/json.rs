//! A minimal JSON document model with a writer and a recursive-descent
//! parser.
//!
//! The build environment is fully offline, so the engine cannot depend on
//! `serde`/`serde_json`; this module implements the small subset the
//! scenario engine needs (objects, arrays, strings, finite numbers, bools,
//! null) with enough fidelity that scenario grids and result sets round-trip
//! losslessly. Object keys keep their insertion order.

use std::collections::BTreeSet;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. JSON has no NaN/infinity; the writer rejects them.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, with keys in insertion order.
    Object(Vec<(String, JsonValue)>),
}

/// Error produced when parsing or rendering JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset in the input at which the problem was detected (0 for
    /// render errors).
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Convenience constructor for an object.
    #[must_use]
    pub fn object(fields: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                // xlint: allow(float-eq) -- fract() == 0.0 is the exact integrality test
                if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 =>
            {
                Some(dkibam::checked::f64_to_u64(*n))
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value contains a non-finite number.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.render_into(&mut out)?;
        Ok(out)
    }

    fn render_into(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => {
                if !n.is_finite() {
                    return Err(JsonError {
                        message: format!("cannot render non-finite number {n}"),
                        offset: 0,
                    });
                }
                // `{:?}` prints enough digits that the value round-trips.
                out.push_str(&format!("{n:?}"));
            }
            JsonValue::String(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out)?;
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// Time is linear in the input length, and arrays and objects may nest
    /// at most [`MAX_DEPTH`] levels deep.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser { text, pos: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != text.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
/// The parser recurses once per level, so the bound keeps a hostile line
/// from overflowing the stack; requests nest four levels deep.
pub const MAX_DEPTH: usize = 128;

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// Parses the value at `pos`, inside `depth` open arrays and objects.
    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{keyword}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let number: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        // JSON has no NaN/infinity; an overflowing literal like `1e999`
        // would otherwise smuggle one in and poison downstream comparisons.
        if !number.is_finite() {
            return Err(JsonError {
                message: format!("number '{text}' overflows the finite f64 range"),
                offset: start,
            });
        }
        Ok(JsonValue::Number(number))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: decode one escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.parse_unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\u` escape (the `\u` prefix has been
    /// consumed up to the `u`). Handles surrogate pairs.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume 'u'
        let high = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: a low surrogate must follow.
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.parse_hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.error("invalid code point"));
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(high).ok_or_else(|| self.error("invalid code point"))
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.error("truncated unicode escape"));
        }
        // `get` is `None` when the four bytes split a multibyte character.
        let code = self.text.get(self.pos..end).and_then(|hex| u32::from_str_radix(hex, 16).ok());
        let code = code.ok_or_else(|| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        // The keys seen so far, so a duplicate is found in O(log n) as soon
        // as its key parses, before its value.
        let mut keys = BTreeSet::new();
        loop {
            self.skip_whitespace();
            let key_offset = self.pos;
            let key = self.parse_string()?;
            if !keys.insert(key.clone()) {
                return Err(JsonError {
                    message: format!("duplicate object key \"{key}\""),
                    offset: key_offset,
                });
            }
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (value, text) in [
            (JsonValue::Null, "null"),
            (JsonValue::Bool(true), "true"),
            (JsonValue::Bool(false), "false"),
            (JsonValue::Number(2.5), "2.5"),
        ] {
            assert_eq!(value.render().unwrap(), text);
            assert_eq!(JsonValue::parse(text).unwrap(), value);
        }
    }

    #[test]
    fn round_trips_nested_structures() {
        let value = JsonValue::object(vec![
            ("name", JsonValue::String("CL 500".to_owned())),
            ("lifetime", JsonValue::Number(2.02)),
            ("empty", JsonValue::Null),
            ("loads", JsonValue::Array(vec![JsonValue::Number(0.25), JsonValue::Number(0.5)])),
            ("nested", JsonValue::object(vec![("ok", JsonValue::Bool(true))])),
        ]);
        let text = value.render().unwrap();
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
    }

    #[test]
    fn round_trips_floats_exactly() {
        for number in [0.0, -1.5, 0.1, 1.0 / 3.0, 1e-12, 123_456_789.123_456_78] {
            let text = JsonValue::Number(number).render().unwrap();
            let parsed = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), number.to_bits(), "{number} via {text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "line\nbreak \"quoted\" back\\slash tab\t unicode \u{1F600} control\u{1}";
        let value = JsonValue::String(tricky.to_owned());
        let text = value.render().unwrap();
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
        // Also parse escaped unicode incl. a surrogate pair.
        let parsed = JsonValue::parse("\"\\ud83d\\ude00 \\u0041\"").unwrap();
        assert_eq!(parsed.as_str().unwrap(), "\u{1F600} A");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "[1] extra"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_non_finite_numbers_when_rendering() {
        assert!(JsonValue::Number(f64::NAN).render().is_err());
        assert!(JsonValue::Number(f64::INFINITY).render().is_err());
    }

    #[test]
    fn accessors() {
        let value = JsonValue::object(vec![
            ("n", JsonValue::Number(3.0)),
            ("s", JsonValue::String("x".to_owned())),
            ("b", JsonValue::Bool(true)),
            ("a", JsonValue::Array(vec![])),
        ]);
        assert_eq!(value.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 0);
        assert!(value.get("missing").is_none());
        assert_eq!(JsonValue::Number(2.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
    }
}
