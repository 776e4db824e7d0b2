//! A minimal recursive-descent JSON parser, used by `trace_explain` and
//! the trace validation tests to read back the crate's own exports. The
//! workspace is deliberately free of external dependencies, so this is
//! hand-rolled; it covers the full JSON grammar the exporters emit
//! (objects, arrays, strings with escapes, numbers, booleans, null).
//!
//! Beside it, the workspace's one number/string *writer* pair
//! ([`write_json_f64`], [`write_json_string`]): every deterministic
//! artifact — traces, RunReports, series, cache entries, sweep matrices —
//! formats its floats and escapes its strings through these two.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers are held as `f64`, which is exact for
/// every integer the trace exporters emit (all below 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A JSON string (escapes decoded).
    Str(String),
    /// A JSON array.
    Arr(Vec<Value>),
    /// A JSON object, in source key order (the exporters emit stable
    /// orders, and duplicate keys never occur).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up an object key, or `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
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

/// Write an `f64` as a JSON number. `Display` emits the shortest decimal
/// string that round-trips, which is deterministic for a build; integral
/// values get `.0` appended so the token is unambiguously a float, and
/// non-finite values (invalid in JSON) become `null`.
pub fn write_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Escape and write a JSON string literal.
pub fn write_json_string(out: &mut String, s: &str) {
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

/// The maximum container-nesting depth [`parse`] accepts. Recursive
/// descent means attacker-controlled nesting is attacker-controlled
/// stack use; without a cap, a line of a few thousand `[`s aborts the
/// whole process with a stack overflow that no caller can catch. Every
/// exporter in this crate nests at most 4 deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing whitespace is allowed; any
/// other trailing content is an error. Malformed input of any shape —
/// truncated escapes, invalid UTF-8, nesting deeper than [`MAX_DEPTH`]
/// — returns `Err`, never panics.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Exporters only escape control characters, so
                            // surrogate pairs never occur in our traces.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u codepoint".to_string())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte. Decode from a
                    // bounded window: validating the whole remaining input
                    // per character would make parsing quadratic.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    // A trailing multi-byte scalar can leave an incomplete
                    // suffix in the window; the valid prefix still holds
                    // the next scalar if there is one.
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        Err(e) => std::str::from_utf8(&window[..e.valid_up_to()])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?,
                    };
                    let Some(c) = valid.chars().next() else {
                        return Err("invalid UTF-8 in string".to_string());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned slice is ASCII by construction, but route through a
        // fallible conversion anyway: this path must never panic.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_arrays_and_objects() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":-2.5e3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let arr = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(-2500.0));
    }

    #[test]
    fn writers_pin_the_artifact_number_and_string_format() {
        let num = |v: f64| {
            let mut out = String::new();
            write_json_f64(&mut out, v);
            out
        };
        assert_eq!(num(2.0), "2.0", "integral floats keep a `.0`");
        assert_eq!(num(0.1), "0.1");
        assert_eq!(
            num(1e300),
            format!("{}.0", 1e300),
            "Display never uses e-notation"
        );
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        // Whatever the escaper writes, the parser reads back.
        let raw = "a \"q\" \\ \n\r\t \u{1} é";
        let mut out = String::new();
        write_json_string(&mut out, raw);
        assert_eq!(out, "\"a \\\"q\\\" \\\\ \\n\\r\\t \\u0001 é\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn decodes_multibyte_scalars_in_strings() {
        // 2-, 3-, and 4-byte scalars, including one ending the document,
        // exercise the bounded decode window.
        let v = parse("\"é → 🦀\"").unwrap();
        assert_eq!(v.as_str(), Some("é → 🦀"));
        let v = parse("{\"k\":\"π\"}").unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("π"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,").is_err());
    }

    #[test]
    fn rejects_truncated_and_invalid_escapes() {
        assert!(parse("\"\\").is_err());
        assert!(parse("\"\\u").is_err());
        assert!(parse("\"\\u00").is_err());
        assert!(parse("\"\\u12").is_err());
        assert!(parse("\"\\uzzzz\"").is_err());
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogate");
        assert!(parse("\"\\q\"").is_err());
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn caps_nesting_depth_instead_of_overflowing_the_stack() {
        // Well past any real stack limit: without the cap this aborts the
        // process, which no test harness can recover from.
        let deep_arr = "[".repeat(100_000);
        assert!(parse(&deep_arr).unwrap_err().contains("nesting deeper"));
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_obj).unwrap_err().contains("nesting deeper"));
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        // Depth is nesting, not total container count: siblings don't
        // accumulate.
        let wide = format!("[{}]", vec!["[]"; 10 * MAX_DEPTH].join(","));
        assert!(parse(&wide).is_ok());
    }
}
