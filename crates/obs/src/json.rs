//! A tiny self-contained JSON value with a serializer and parser.
//!
//! The workspace cannot pull external crates, so this module provides the
//! minimum JSON surface the observability layer needs: building values,
//! writing them compactly (`Display`), and parsing them back for
//! round-trip tests and report tooling. Integers are kept exact — `Int`
//! and `UInt` variants are distinct from `Float` — so `u64` counters
//! survive a round trip unchanged.
//!
//! Every document the workspace writes as an artifact starts with the same
//! header, stamped by [`doc`] and checked by [`open`]: its `type` and the
//! one [`SCHEMA_VERSION`].

use std::fmt;

/// The schema version of every artifact document (`bench_results`,
/// `chaos_summary`, `chaos_sweep`, `chaos_watch`, `store_batch_histogram`,
/// `flight_dump`). Bump it on any change a reader of the previous version
/// would misread; [`open`] accepts this version only.
pub const SCHEMA_VERSION: u64 = 5;

/// A document of type `ty`: `type` and `schema_version` first, then
/// `fields` in order.
#[must_use]
pub fn doc(ty: &str, fields: Vec<(String, Json)>) -> Json {
    let mut pairs = Vec::with_capacity(fields.len() + 2);
    pairs.push(("type".into(), Json::Str(ty.into())));
    pairs.push(("schema_version".into(), Json::UInt(SCHEMA_VERSION)));
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// Checks that `j` is a [`doc`] of type `ty` at [`SCHEMA_VERSION`] and
/// returns it.
///
/// # Errors
///
/// A wrong `type`, a missing `schema_version`, or any version other than
/// [`SCHEMA_VERSION`], named in one message.
pub fn open<'a>(j: &'a Json, ty: &str) -> Result<&'a Json, String> {
    let found = j.get("type").and_then(Json::as_str);
    if found != Some(ty) {
        return Err(format!("expected a {ty} document, found type {found:?}"));
    }
    match j.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => Ok(j),
        Some(v) => Err(format!(
            "{ty} schema v{v}, this build reads v{SCHEMA_VERSION}"
        )),
        None => Err(format!(
            "{ty} has no schema_version, this build reads v{SCHEMA_VERSION}"
        )),
    }
}

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (exact).
    Int(i64),
    /// An unsigned integer (exact; used for counters that may exceed `i64`).
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of key/value pairs (insertion order is
    /// preserved on write; duplicate keys are not merged).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `i64` if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any numeric variant.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `bool` if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document from `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax error, or
    /// trailing non-whitespace after the document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// A JSON syntax error with a byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Guarantee a re-parseable numeric token (avoid `inf`/`NaN`).
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced the cursor itself
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point (input is a &str, so
                    // continuation bytes are well-formed).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is at the 'u'.
        self.pos += 1;
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let text = v.to_string();
        let back = Json::parse(&text).expect("round-trip parse");
        assert_eq!(&back, v, "round trip of {text}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Bool(false));
        round_trip(&Json::Int(-42));
        round_trip(&Json::Int(i64::MIN));
        round_trip(&Json::UInt(u64::MAX));
        round_trip(&Json::Str("hello \"quoted\" \\ line\nbreak\ttab".into()));
        round_trip(&Json::Str("unicode: héllo ∀x π".into()));
    }

    #[test]
    fn composites_round_trip() {
        round_trip(&Json::Arr(vec![]));
        round_trip(&Json::Obj(vec![]));
        round_trip(&Json::Obj(vec![
            ("a".into(), Json::Int(1)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            (
                "c".into(),
                Json::Obj(vec![("nested".into(), Json::Str("x".into()))]),
            ),
        ]));
    }

    #[test]
    fn integers_stay_exact() {
        // u64::MAX does not fit i64 or f64; it must survive untouched.
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v, Json::UInt(u64::MAX));
        let v = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(v, Json::Int(i64::MIN));
    }

    #[test]
    fn floats_parse() {
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::Float(-0.25));
        // Whole floats serialize with a trailing .1 precision marker and
        // re-parse as floats, not ints.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn escapes_parse() {
        assert_eq!(
            Json::parse(r#""aA\n\té""#).unwrap(),
            Json::Str("aA\n\té".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"name":"x","n":3,"arr":[1,2]}"#).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            v.get("arr").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn open_accepts_only_its_own_type_at_the_one_version() {
        let d = doc("chaos_summary", vec![("seed".into(), Json::UInt(7))]);
        let back = Json::parse(&d.to_string()).unwrap();
        let opened = open(&back, "chaos_summary").expect("doc round-trips through open");
        assert_eq!(opened.get("seed").and_then(Json::as_u64), Some(7));
        assert!(d.to_string().starts_with(&format!(
            "{{\"type\":\"chaos_summary\",\"schema_version\":{SCHEMA_VERSION},"
        )));

        let err = open(&back, "bench_results").unwrap_err();
        assert!(
            err.contains("bench_results") && err.contains("chaos_summary"),
            "{err}"
        );

        let unversioned = Json::parse(r#"{"type":"chaos_summary","seed":7}"#).unwrap();
        let err = open(&unversioned, "chaos_summary").unwrap_err();
        assert!(err.contains("no schema_version"), "{err}");

        for v in [SCHEMA_VERSION - 1, SCHEMA_VERSION + 1] {
            let other = Json::parse(&format!(
                r#"{{"type":"chaos_summary","schema_version":{v},"seed":7}}"#
            ))
            .unwrap();
            let err = open(&other, "chaos_summary").unwrap_err();
            assert!(
                err.contains("chaos_summary")
                    && err.contains(&format!("v{v}"))
                    && err.contains(&format!("v{SCHEMA_VERSION}")),
                "{err}"
            );
        }
    }
}
