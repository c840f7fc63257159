//! Minimal JSON support for the observer artifacts.
//!
//! The workspace is dependency-free by policy, so this module supplies
//! the pieces the `--census-json`, `--profile-out` and `--metrics-out`
//! exports and `benchdiff --validate` need, and nothing more:
//!
//! - [`Json`]: an order-preserving document model (objects keep
//!   insertion order, so emitted artifacts are byte-stable),
//! - [`Json::parse`] / `Json::write`: a recursive-descent parser and
//!   a pretty writer that round-trip each other,
//! - [`validate`]: a JSON-Schema *subset* checker (`type`, `required`,
//!   `properties`, `items`) — enough to pin the artifacts' shapes in
//!   CI. Any other keyword in a schema is an error, never a silent pass.
//!
//! Numbers are `f64`, written in shortest round-trip form (integers
//! without a decimal point), which keeps deterministic counters exact.

use std::fmt::Write as _;

/// A JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub(crate) fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string.
    pub(crate) fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub(crate) fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; never expected here
    } else if n == n.trunc() && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest round-trip float form.
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf8".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("truncated escape")?;
                    self.pos += 1;
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are not expected in our artifacts.
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

/// Validates `value` against a JSON-Schema subset: `type` (string),
/// `required`, `properties`, `items`. Returns the first violation as
/// `Err(path: what)`. A schema object with any other key is refused
/// before `value` is looked at: an unimplemented keyword must not pass
/// every document.
pub fn validate(value: &Json, schema: &Json) -> Result<(), String> {
    check_schema(schema, "$")?;
    validate_at(value, schema, "$")
}

/// Checks that every schema object reachable from `schema` uses only
/// the four implemented keywords.
fn check_schema(schema: &Json, path: &str) -> Result<(), String> {
    let Json::Obj(members) = schema else {
        return Err(format!("{path}: a schema must be an object"));
    };
    for (key, sub) in members {
        match key.as_str() {
            "properties" => {
                let Json::Obj(props) = sub else {
                    return Err(format!("{path}: 'properties' must be an object"));
                };
                for (name, prop) in props {
                    check_schema(prop, &format!("{path}.{name}"))?;
                }
            }
            "items" => check_schema(sub, &format!("{path}[]"))?,
            "type" | "required" => {}
            k => return Err(format!("{path}: unsupported schema keyword '{k}'")),
        }
    }
    Ok(())
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::Num(n) => {
            if *n == n.trunc() {
                "integer"
            } else {
                "number"
            }
        }
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn validate_at(value: &Json, schema: &Json, path: &str) -> Result<(), String> {
    if let Some(t) = schema.get("type").and_then(Json::as_str) {
        let actual = type_name(value);
        let ok = match t {
            "number" => actual == "number" || actual == "integer",
            other => actual == other,
        };
        if !ok {
            return Err(format!("{path}: expected {t}, found {actual}"));
        }
    }
    if let Some(required) = schema.get("required").and_then(Json::as_arr) {
        for name in required {
            let name = name.as_str().ok_or(format!("{path}: bad schema"))?;
            if value.get(name).is_none() {
                return Err(format!("{path}: missing required member '{name}'"));
            }
        }
    }
    if let Some(Json::Obj(props)) = schema.get("properties") {
        for (name, sub) in props {
            if let Some(member) = value.get(name) {
                validate_at(member, sub, &format!("{path}.{name}"))?;
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let Json::Arr(elems) = value {
            for (i, elem) in elems.iter().enumerate() {
                validate_at(elem, items, &format!("{path}[{i}]"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("pro\"file\n")),
            ("count", Json::Num(12345.0)),
            ("rate", Json::Num(1.25e9)),
            ("neg", Json::Num(-0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![Json::Num(1.0), Json::str("two"), Json::Arr(vec![])]),
            ),
        ]);
        let text = doc.write();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
        // Writing is a fixed point: parse(write(x)) writes identically.
        assert_eq!(back.write(), text);
    }

    #[test]
    fn integers_are_written_without_decimal_point() {
        let mut out = String::new();
        write_num(&mut out, 3_000_000.0);
        assert_eq!(out, "3000000");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        let schema = Json::parse(
            r#"{
                "type": "object",
                "required": ["rows"],
                "properties": {
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["n"],
                            "properties": {"n": {"type": "number"}}
                        }
                    }
                }
            }"#,
        )
        .unwrap();
        let good = Json::parse(r#"{"rows": [{"n": 1}, {"n": 2.5}]}"#).unwrap();
        assert!(validate(&good, &schema).is_ok());
        let missing = Json::parse(r#"{"rows": [{"m": 1}]}"#).unwrap();
        assert!(validate(&missing, &schema).unwrap_err().contains("rows[0]"));
        let wrong_type = Json::parse(r#"{"rows": [{"n": "x"}]}"#).unwrap();
        assert!(validate(&wrong_type, &schema).is_err());
    }

    #[test]
    fn validator_refuses_unimplemented_keywords() {
        // Each of these would pass `{"n": -1, "extra": true}` if the
        // keyword were ignored; the schema itself is refused instead.
        let doc = Json::parse(r#"{"n": -1, "extra": true}"#).unwrap();
        for (schema, keyword) in [
            (
                r#"{"type": "object", "additionalProperties": false}"#,
                "additionalProperties",
            ),
            (r#"{"properties": {"n": {"minimum": 0}}}"#, "minimum"),
            (r#"{"items": {"enum": [1]}}"#, "enum"),
            (r#"{"oneOf": [{"required": ["n"]}]}"#, "oneOf"),
        ] {
            let err = validate(&doc, &Json::parse(schema).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!("unsupported schema keyword '{keyword}'")),
                "{schema}: {err}"
            );
        }
        // A property *named* like a keyword is a name, not a keyword.
        let named = Json::parse(r#"{"properties": {"minimum": {"type": "number"}}}"#).unwrap();
        assert!(validate(&Json::parse(r#"{"minimum": 3}"#).unwrap(), &named).is_ok());
        // The committed schemas use the subset only.
        for file in ["PROFILE.schema.json", "METRICS.schema.json"] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let schema = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            check_schema(&schema, "$").unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
}
