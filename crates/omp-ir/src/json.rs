//! The workspace's one JSON reader and string escape.
//!
//! The workspace is dependency-free by design, so JSON is hand-rolled,
//! once: [`parse_json`] is a recursive-descent parser into [`JsonValue`],
//! and [`escape_json`] escapes strings for writers. The program encoding
//! ([`crate::serialize`]), the analyzer's reports, the fuzzer's repro
//! artifacts, `bench`'s records and the Chrome-trace exporter all use
//! them. Numbers are integers only: no document this workspace writes
//! holds a float. Nesting is bounded ([`MAX_DEPTH`]), so no document
//! from outside can overflow the parser's stack.

/// A parsed JSON value. Numbers are restricted to `i64` — the encoding
/// never emits floats, and keeping integers exact is what round-tripping
/// trip counts and table contents requires.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (the encoding never uses floats).
    Int(i64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializeError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input (parse errors only).
    pub offset: usize,
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serialize error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SerializeError {}

fn err<T>(message: impl Into<String>, offset: usize) -> Result<T, SerializeError> {
    Err(SerializeError {
        message: message.into(),
        offset,
    })
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts. A
/// paper kernel's program document nests at most 25 deep, and one
/// nested this deep still decodes, validates, compiles and analyzes on a
/// 2 MiB debug-build thread.
pub const MAX_DEPTH: usize = 100;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), SerializeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}'", b as char), self.pos)
        }
    }

    fn value(&mut self) -> Result<JsonValue, SerializeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                err(format!("nesting deeper than {MAX_DEPTH} levels"), self.pos)
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => err(format!("unexpected character '{}'", c as char), self.pos),
            None => err("unexpected end of input", self.pos),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, SerializeError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("expected '{lit}'"), self.pos)
        }
    }

    fn number(&mut self) -> Result<JsonValue, SerializeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return err("floating-point numbers are not supported", self.pos);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<i64>() {
            Ok(v) => Ok(JsonValue::Int(v)),
            Err(_) => err(format!("invalid integer '{text}'"), start),
        }
    }

    fn string(&mut self) -> Result<String, SerializeError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string", self.pos),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(SerializeError {
                        message: "unterminated escape".into(),
                        offset: self.pos,
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return err("truncated \\u escape", self.pos);
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| SerializeError {
                                    message: "invalid \\u escape".into(),
                                    offset: self.pos,
                                })?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| SerializeError {
                                    message: "invalid \\u escape".into(),
                                    offset: self.pos,
                                })?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by the encoder;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        c => return err(format!("invalid escape '\\{}'", c as char), self.pos),
                    }
                }
                Some(b) if b.is_ascii() => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // One multi-byte UTF-8 scalar. The input is a `&str`
                    // and `pos` only ever advances by whole chars, so it
                    // sits on a char boundary and decoding reads just
                    // this char (linear, unlike re-validating the rest).
                    let ch = self.text[self.pos..].chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, SerializeError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return err("expected ',' or ']'", self.pos),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, SerializeError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return err("expected ',' or '}'", self.pos),
            }
        }
    }
}

/// Parse a JSON document into a [`JsonValue`]. Trailing non-whitespace is
/// an error.
pub fn parse_json(text: &str) -> Result<JsonValue, SerializeError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err("trailing characters after document", p.pos);
    }
    Ok(v)
}

/// Escape a string for embedding in JSON output (quotes not included).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(r#"{"a":[1,2,-300],"b":{"c":"x\"y\n"},"d":true,"e":null}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].as_i64(), Some(-300));
        assert_eq!(a[2].as_u64(), None);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\n")
        );
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\"}").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        for depth in [MAX_DEPTH - 1, MAX_DEPTH] {
            assert!(parse_json(&nested(depth)).is_ok(), "{depth} levels");
        }
        // The first bracket past the limit is refused where it stands,
        // inside objects as in arrays, and far deeper input fails the
        // same way instead of overflowing the stack.
        let e = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "{}" + &"}".repeat(MAX_DEPTH);
        assert_eq!(parse_json(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
        assert_eq!(parse_json(&nested(100_000)).unwrap_err(), e);
    }

    #[test]
    fn unicode_escape() {
        let v = parse_json(r#""A\u00e9é€😀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aéé€😀"));
    }
}
