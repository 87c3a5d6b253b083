//! The workspace's one JSON reader: [`crate::chrome::validate`] checks
//! exported traces with it.
//!
//! It parses the full JSON grammar (objects, arrays, strings, numbers,
//! bools, null) into a [`Value`] tree, and it is strict where a lenient
//! reader would hide a botched writer:
//!
//! * a duplicate object key is an error;
//! * a number starts with `-` or a digit;
//! * a raw control character inside a string is an error;
//! * `\u` takes exactly four hex digits, and a surrogate escape is an
//!   error (every writer in this workspace emits non-ASCII text raw);
//! * arrays and objects nest at most [`MAX_DEPTH`] deep.
//!
//! Numbers are read as `f64`, which is exact for every integer the Chrome
//! exporter writes (lanes stay below 2^53 by construction). Every error
//! names the byte offset where it was found. Parsing takes time linear in
//! the input, and no input makes it panic.

use std::collections::BTreeMap;

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// document this workspace reads nests at most 4 deep; the bound keeps
/// hostile input from exhausting the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keyed by name (key order is not kept).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The text, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing content.
///
/// # Errors
///
/// Returns a description of the first syntax error, naming its byte
/// offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

/// Parses the value at `pos`; `depth` counts the arrays and objects
/// already open around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(format!("unexpected character at byte {}", *pos)),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key_at = *pos;
        let key = parse_string(bytes, pos)?;
        if map.contains_key(&key) {
            return Err(format!("duplicate key at byte {key_at}"));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one step. All three are ASCII, so the run ends on a character
        // boundary of the `&str` input.
        let rest = &bytes[*pos..];
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        let text = std::str::from_utf8(&rest[..run])
            .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
        out.push_str(text);
        *pos += run;
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        // `from_str_radix` alone would also accept a sign.
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u16::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let c = char::from_u32(u32::from(code))
                            .ok_or_else(|| format!("surrogate \\u escape at byte {}", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err(format!("raw control character at byte {}", *pos)),
            None => return Err("unterminated string".to_owned()),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_exporter_grammar() {
        let doc = r#"{"traceEvents":[{"name":"a \"b\"","ph":"i","pid":1,"tid":0,"ts":12,"args":{"ok":true,"n":-1.5e3,"z":null}}],"displayTimeUnit":"ms"}"#;
        let value = parse(doc).expect("parses");
        let events = value.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").and_then(Value::as_str),
            Some("a \"b\"")
        );
        assert_eq!(events[0].get("ts").and_then(Value::as_num), Some(12.0));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("n"))
                .and_then(Value::as_num),
            Some(-1500.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in ["", "{", "[1,]", "{\"a\":}", "tru", "\"open", "{}x"] {
            assert!(parse(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn a_four_megabyte_string_parses_in_linear_time() {
        let doc = format!("\"{}\\n\"", "é".repeat(2 << 20));
        let start = std::time::Instant::now();
        let value = parse(&doc).expect("parses");
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "took {elapsed:?}"
        );
        let text = value.as_str().expect("a string");
        assert_eq!((text.len(), text.ends_with("é\n")), ((4 << 20) + 1, true));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).expect_err("too deep");
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
    }
}
