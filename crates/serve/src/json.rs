//! A minimal, dependency-free JSON tree, parser, and writer.
//!
//! The serve protocol is newline-delimited JSON, and the workspace is
//! std-only (the build environment has no crates.io access), so this
//! module hand-rolls the small JSON subset the protocol needs:
//!
//! * integers are kept exact (`u64`/`i64` variants rather than lossy
//!   `f64` — seeds and cycle counts routinely exceed 2^53);
//! * object fields preserve insertion order, so encodings constructed
//!   field-by-field are canonical (byte-stable);
//! * parsing is hardened against untrusted input: depth-limited, with
//!   strict escape handling — a malformed line yields `Err`, never a
//!   panic.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]; protocol messages are
/// at most ~4 deep, so this only exists to bound hostile input.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (kept exact).
    UInt(u64),
    /// A negative integer that fits `i64` (kept exact).
    Int(i64),
    /// Any other number (fractional or out of integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; field order is preserved (encodings are canonical).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::Num(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= 2f64.powi(53) => Some(*f as u64),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string. Field order follows
    /// construction order, so building an object field-by-field yields a
    /// canonical, byte-stable encoding. A [`Json::Num`] always carries a
    /// decimal point, so it parses back as a `Num` (`2.0`, not `2`).
    /// Non-finite numbers serialize as `null` (JSON has no NaN/inf).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(f) => {
                if f.is_finite() {
                    // `Display` never uses an exponent, so a missing
                    // point means an integral value.
                    let start = out.len();
                    let _ = write!(out, "{f}");
                    if !out[start..].contains('.') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parses one JSON value from `input` (must be the whole input up to
/// trailing whitespace).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error; the
/// parser never panics on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => return Err(format!("bad escape `\\{}`", char::from(c))),
                    }
                }
                Some(c) if c < 0x20 => return Err("control byte in string".into()),
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xdc00..0xe000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    return char::from_u32(c).ok_or_else(|| "bad surrogate pair".into());
                }
            }
            return Err("unpaired surrogate".into());
        }
        char::from_u32(hi).ok_or_else(|| "bad \\u escape".into())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).ok_or("truncated \\u escape")?;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            // `-0` parses but is not negative: it stays a `Num`.
            if let Ok(n @ i64::MIN..=-1) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Num(f)),
            Ok(_) => Err(format!("number `{text}` out of range")),
            Err(_) => Err(format!("bad number `{text}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_exact_integers() {
        let v = parse("{\"seed\":18446744073709551615,\"neg\":-42}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("neg"), Some(&Json::Int(-42)));
        assert_eq!(v.encode(), "{\"seed\":18446744073709551615,\"neg\":-42}");
    }

    #[test]
    fn parses_nested_protocol_shapes() {
        let line = r#"{"cmd":"submit","jobs":[{"workload":"bfs","scheme":"pipm","refs_per_core":10000,"cfg":{"link_latency_ns":100.5}}]}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("submit"));
        let jobs = v.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0]
                .get("cfg")
                .unwrap()
                .get("link_latency_ns")
                .unwrap()
                .as_f64(),
            Some(100.5)
        );
    }

    #[test]
    fn escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{1}π🦀".into());
        let encoded = original.encode();
        assert_eq!(parse(&encoded).unwrap(), original);
        // Surrogate-pair escapes decode too.
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap(), Json::Str("🦀".into()));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "01x",
            "{}}",
            "nan",
            "--5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
        assert_eq!(Json::Num(0.25).encode(), "0.25");
    }

    #[test]
    fn numbers_keep_their_variant_through_a_round_trip() {
        assert_eq!(Json::Num(2.0).encode(), "2.0");
        assert_eq!(parse("1e3").unwrap().encode(), "1000.0");
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
        assert!(parse("1e400").is_err(), "JSON has no infinity");
        assert_eq!(parse("1e-400").unwrap(), Json::Num(0.0));
    }

    /// JSON fragments: random sequences of them nest, escape, and put
    /// numbers at the edges of every variant.
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        " ",
        "\n",
        "\"",
        r#""k""#,
        r#""\"""#,
        r#""\u00e9""#,
        r#""\ud83e\udd80""#,
        r#""\ud800""#,
        "\\",
        "\\u",
        "0",
        "-0",
        "7",
        "-7",
        "00",
        "1.0",
        "-0.0",
        "2.5e-3",
        "1e3",
        "1E400",
        "1e-400",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "true",
        "false",
        "null",
        "tru",
        "é",
        "🦀",
        "\u{1}",
        "\t",
        ".",
        "e",
        "+",
        "-",
    ];

    /// Parsing never panics, and whatever parses encodes back to an
    /// equal value.
    fn parses_and_round_trips(text: &str) -> Result<(), TestCaseError> {
        if let Ok(value) = parse(text) {
            prop_assert_eq!(parse(&value.encode()), Ok(value));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            parses_and_round_trips(&String::from_utf8_lossy(&bytes))?;
        }

        #[test]
        fn fragment_soups(tokens in proptest::collection::vec(0..FRAGMENTS.len(), 0..48)) {
            let text: String = tokens.iter().map(|&i| FRAGMENTS[i]).collect();
            parses_and_round_trips(&text)?;
        }
    }
}
