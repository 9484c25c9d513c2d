//! A minimal recursive-descent JSON parser for the serving protocol and
//! the exported observability artifacts.
//!
//! The workspace is dependency-free by policy. `lan-serve` parses its
//! request frames with this, and the tests read the exported metrics,
//! trace and EXPLAIN lines back through it. It covers exactly the JSON
//! those producers emit (objects, arrays, numbers, strings with plain
//! escapes, booleans, null) — not a general-purpose validator. It lives
//! in `lan-obs` (the workspace's leaf utility crate) so every crate can
//! share it without a dependency cycle.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order preserved, as written.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, and `lan-serve` feeds it untrusted frames of
/// up to 64 MiB: without a cap, a frame of `[`s overflows the stack and
/// aborts the process. The producers this parser reads nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing whitespace allowed, trailing
/// garbage is an error, and so is nesting deeper than [`MAX_DEPTH`].
/// Errors carry the byte offset.
pub fn parse(doc: &str) -> Result<Value, String> {
    let bytes = doc.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of document".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(s),
            b'\\' => {
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b't' => s.push('\t'),
                    b'r' => s.push('\r'),
                    b'u' => {
                        // \uXXXX — the bench artifacts never emit
                        // surrogate pairs, so the BMP decode suffices.
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign (`\u+041`).
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
                        let cp = u32::from_str_radix(hex, 16).expect("four hex digits");
                        *pos += 4;
                        s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            _ => {
                // Re-decode multi-byte UTF-8 starting at c.
                let start = *pos - 1;
                let len = utf8_len(c);
                let chunk = b
                    .get(start..start + len)
                    .and_then(|ch| std::str::from_utf8(ch).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                s.push_str(chunk);
                *pos = start + len;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_document() {
        let doc = r#"{
  "bench": "throughput",
  "queries": 10,
  "sequential": {"wall_s": 0.123456, "qps": 81.003, "avg_ndc": 37.20, "avg_recall": 0.9750},
  "speedup": 1.5,
  "flags": [true, false, null],
  "empty": {}
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench"), Some(&Value::Str("throughput".into())));
        assert_eq!(v.get("queries").and_then(Value::as_f64), Some(10.0));
        let seq = v.get("sequential").unwrap();
        assert_eq!(seq.get("avg_recall").and_then(Value::as_f64), Some(0.975));
        assert_eq!(seq.get("avg_ndc").and_then(Value::as_f64), Some(37.2));
        assert_eq!(v.get("speedup").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let v = parse(r#"{"s": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Value::Str("a\"b\\c\ndA".into())));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let v = parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v, Value::Str("Aé".into()));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u04""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let obj = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj).is_err());
        // A million unclosed levels: an error on the test thread's stack,
        // never an overflow.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let v = parse("[-1.5, 2e3, 0.001]").unwrap();
        assert_eq!(
            v,
            Value::Arr(vec![
                Value::Num(-1.5),
                Value::Num(2000.0),
                Value::Num(0.001)
            ])
        );
    }
}
