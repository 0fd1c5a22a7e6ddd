//! Minimal JSON value, writer, and parser.
//!
//! The workspace has no registry access, so there is no serde; exporters
//! hand-build [`Value`]s and the `report` machinery parses files back with
//! the recursive-descent parser here. The subset is full JSON minus two
//! deliberate relaxations: non-finite numbers are *written* as `null`
//! (they never carry meaning in telemetry dumps), and parsing accepts the
//! same.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node. Objects use a `BTreeMap` so serialization is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field accessor.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
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

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Build an object from entries.
    pub fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    // `{:?}` gives a round-trippable shortest form for f64.
                    let _ = write!(out, "{n:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parse a JSON document; the whole input must be one value plus optional
/// trailing whitespace. Malformations are typed
/// ([`TelemetryError::Json`]), never panics.
///
/// [`TelemetryError::Json`]: crate::TelemetryError::Json
pub fn parse(input: &str) -> Result<Value, crate::TelemetryError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let inner = |bytes: &[u8], pos: &mut usize| -> Result<Value, String> {
        let value = parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        if *pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    };
    inner(bytes, &mut pos).map_err(|detail| crate::TelemetryError::Json { detail })
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {pos}, found {other:?}",
                            pos = *pos
                        ))
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {pos}, found {other:?}",
                            pos = *pos
                        ))
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed for telemetry
                        // dumps; map lone surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Value::obj(vec![
            ("name", Value::Str("sketch \"fast\"\npath\\x".into())),
            ("count", Value::Num(42.0)),
            ("ratio", Value::Num(0.125)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "items",
                Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5e-3)]),
            ),
        ]);
        let text = doc.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = parse(" { \"a\" : [ 1 , \"\\u00e9\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str(), Some("é"));
    }
}
