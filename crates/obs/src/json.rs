//! A small strict JSON parser for job bodies, `dircc bench` reports and
//! the benchmark's records: the read side of [`escape`](crate::escape).
//!
//! Offline build → no serde. Jobs are tiny flat objects, so a
//! recursive-descent parser over the raw bytes is all that is needed; it
//! reads each byte once, so a body at the daemon's size cap parses in
//! linear time.
//! Errors carry the byte offset so a 400 response can point at the
//! problem. Duplicate object keys are rejected — a job that says
//! `"seed": 1, "seed": 8` is a client bug, not a tie to break
//! silently.

use std::collections::BTreeMap;

/// Maximum nesting depth — job bodies are flat, so this only bounds
/// hostile input.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in sorted order (BTreeMap) — job canonicalization relies on
    /// deterministic iteration.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure, locating the offending byte.
#[derive(Debug)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'b> {
    bytes: &'b [u8],
    pos: usize,
}

/// Parses `input` as exactly one JSON value (trailing whitespace only).
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after the JSON value"));
    }
    Ok(value)
}

impl<'b> Parser<'b> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the limit"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos..self.pos + 4];
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not needed for job fields.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.err("unescaped control byte in string"))
                }
                Some(_) => {
                    // Consume the run of plain bytes up to the next quote,
                    // escape or control byte.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|b| matches!(b, b'"' | b'\\' | ..0x20));
                    let run = run.unwrap_or(rest.len());
                    match std::str::from_utf8(&rest[..run]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos += run;
                        }
                        Err(e) => {
                            self.pos += e.valid_up_to();
                            return Err(self.err("string is not valid UTF-8"));
                        }
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number {text:?}"),
        })?;
        if !n.is_finite() {
            return Err(JsonError { offset: start, message: "number overflows f64".to_string() });
        }
        Ok(Json::Num(n))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if map.insert(key.clone(), value).is_some() {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape;

    #[test]
    fn parses_a_job_shaped_object() {
        let v = parse(br#"{"scheme": "DirB(1)", "trace": "POPS", "refs": 20000, "seed": 4}"#)
            .expect("valid json");
        let obj = v.as_obj().expect("object");
        assert_eq!(obj["scheme"].as_str(), Some("DirB(1)"));
        assert_eq!(obj["refs"].as_u64(), Some(20_000));
        assert_eq!(obj["seed"].as_u64(), Some(4));
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(parse(b"null").unwrap(), Json::Null);
        assert_eq!(parse(b"true").unwrap(), Json::Bool(true));
        assert_eq!(parse(b"false").unwrap(), Json::Bool(false));
        assert_eq!(parse(b"-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse(br#""aA\n""#).unwrap(), Json::Str("aA\n".to_string()));
        assert_eq!(
            parse(br#"[1, [2], {}]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(BTreeMap::new())
            ])
        );
    }

    #[test]
    fn rejects_garbage_with_an_offset() {
        for (input, offset_hint) in
            [(&b"{"[..], 1usize), (b"{\"a\" 1}", 5), (b"[1,]", 3), (b"tru", 0), (b"1 2", 2)]
        {
            let err = parse(input).expect_err("must fail");
            assert_eq!(err.offset, offset_hint, "{:?}: {err}", input);
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(br#"{"seed": 1, "seed": 8}"#).expect_err("dup key");
        assert!(err.message.contains("duplicate key"), "{err}");
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        let err = parse(deep.as_bytes()).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
    }

    #[test]
    fn utf8_passthrough_in_strings() {
        assert_eq!(parse("\"héllo\"".as_bytes()).unwrap(), Json::Str("héllo".to_string()));
        // Invalid UTF-8 is an error at the first bad byte.
        let err = parse(b"\"ab\xffcd\"").expect_err("not UTF-8");
        assert_eq!((err.offset, err.message.as_str()), (3, "string is not valid UTF-8"));
    }

    #[test]
    fn a_string_at_the_body_cap_parses_in_one_pass() {
        // 1 MiB of text: a parser that rescans the rest of the input for
        // every character would take minutes here.
        let text = "é".repeat(1 << 19);
        assert_eq!(parse(format!("\"{text}\"").as_bytes()).unwrap(), Json::Str(text));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let hairy = "a\"b\\c\nd\te\u{1}f";
        let wire = format!("\"{}\"", escape(hairy));
        assert_eq!(parse(wire.as_bytes()).unwrap(), Json::Str(hairy.to_string()));
    }
}
