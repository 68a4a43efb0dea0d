//! A minimal JSON parser and example-shaped schema checker.
//!
//! The workspace has no serde; JSON is emitted by hand-written,
//! deterministic renderers (`RunDiff::to_json`, telemetry summaries,
//! this crate's own report). This module closes the loop: tests parse
//! that output back and validate it against a *checked-in example
//! shape* — a JSON document whose string leaves are type placeholders:
//!
//! * `"string"` — any string
//! * `"u64"` — a non-negative integer number
//! * `"number"` — any number
//! * `"bool"` — a boolean
//! * `"any"` — anything
//!
//! Objects are strict in both directions (missing and unexpected keys
//! both fail), so a schema file is an executable promise about the
//! CLI's `--json` output — the guard PR 4's fixed shapes needed.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64 is exact for the u64 magnitudes we emit < 2^53;
    /// larger integers also keep their text for exactness checks).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup for objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. Each
/// level is a recursive call, so a deeper document is refused instead
/// of overflowing the stack (10,000 levels overflow a 2 MiB thread
/// stack, which aborts the process).
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Rejects trailing garbage and nesting deeper
/// than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open at `i`.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(text.as_bytes()) {
            self.i += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            members.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("truncated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.i - 1;
                    let len = utf8_len(c);
                    let end = (start + len).min(self.b.len());
                    out.push_str(
                        std::str::from_utf8(&self.b[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.i = end;
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

/// Validates `actual` against an example-shaped `schema` (see module
/// docs). Errors carry a JSON path for debuggability.
pub fn check_shape(schema: &Value, actual: &Value) -> Result<(), String> {
    check_at(schema, actual, "$")
}

fn check_at(schema: &Value, actual: &Value, path: &str) -> Result<(), String> {
    match schema {
        Value::Str(placeholder) => match placeholder.as_str() {
            "any" => Ok(()),
            "string" => match actual {
                Value::Str(_) => Ok(()),
                other => Err(format!("{path}: expected string, got {other:?}")),
            },
            "bool" => match actual {
                Value::Bool(_) => Ok(()),
                other => Err(format!("{path}: expected bool, got {other:?}")),
            },
            "number" => match actual {
                Value::Num(_) => Ok(()),
                other => Err(format!("{path}: expected number, got {other:?}")),
            },
            "u64" => match actual {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(()),
                other => Err(format!(
                    "{path}: expected non-negative integer, got {other:?}"
                )),
            },
            other => Err(format!(
                "{path}: schema uses unknown placeholder \"{other}\" \
                 (known: string, u64, number, bool, any)"
            )),
        },
        Value::Obj(want) => {
            let Value::Obj(got) = actual else {
                return Err(format!("{path}: expected object, got {actual:?}"));
            };
            for (k, sub) in want {
                let Some(v) = actual.get(k) else {
                    return Err(format!("{path}: missing key \"{k}\""));
                };
                check_at(sub, v, &format!("{path}.{k}"))?;
            }
            for (k, _) in got {
                if want.iter().all(|(wk, _)| wk != k) {
                    return Err(format!("{path}: unexpected key \"{k}\""));
                }
            }
            Ok(())
        }
        Value::Arr(want) => {
            let Value::Arr(got) = actual else {
                return Err(format!("{path}: expected array, got {actual:?}"));
            };
            let Some(elem) = want.first() else {
                return Ok(()); // `[]` schema: any array content
            };
            for (i, v) in got.iter().enumerate() {
                check_at(elem, v, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        other => {
            if other == actual {
                Ok(())
            } else {
                Err(format!(
                    "{path}: expected literal {other:?}, got {actual:?}"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"x","d":true,"e":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Value::Null));
    }

    #[test]
    fn nesting_past_the_limit_is_refused() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        assert!(parse(&"[{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a":"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn shape_check_accepts_matching_documents() {
        let schema = parse(r#"{"name":"string","count":"u64","items":[{"x":"number"}]}"#).unwrap();
        let ok = parse(r#"{"name":"w","count":3,"items":[{"x":1.5},{"x":2}]}"#).unwrap();
        assert!(check_shape(&schema, &ok).is_ok());
    }

    #[test]
    fn shape_check_is_strict_about_keys() {
        let schema = parse(r#"{"a":"u64"}"#).unwrap();
        let missing = parse(r#"{}"#).unwrap();
        let extra = parse(r#"{"a":1,"b":2}"#).unwrap();
        let wrong = parse(r#"{"a":-1}"#).unwrap();
        assert!(check_shape(&schema, &missing)
            .unwrap_err()
            .contains("missing key"));
        assert!(check_shape(&schema, &extra)
            .unwrap_err()
            .contains("unexpected key"));
        assert!(check_shape(&schema, &wrong).unwrap_err().contains("$.a"));
    }

    #[test]
    fn empty_array_schema_accepts_any_array() {
        let schema = parse(r#"{"xs":[]}"#).unwrap();
        let v = parse(r#"{"xs":[1,"two",null]}"#).unwrap();
        assert!(check_shape(&schema, &v).is_ok());
    }
}
