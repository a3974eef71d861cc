//! The workspace's JSON, in one module: producers build a [`JsonValue`]
//! from their fields and render it with `Display` (the one writer),
//! [`parse`] reads text back (the one parser), and [`JsonValue::field`]
//! reads a typed field out of a parsed value (the one reader). The scheduler's
//! trace, the executor's `metrics.json` and the bench artefacts all go
//! through here; the build is offline (no serde), so this is what makes
//! every producer and consumer agree on the corner cases (exact integers,
//! float round-trips, infinities, NaN). No other file writes JSON syntax.

use std::fmt;

/// Render a float as a JSON token that round-trips through [`str::parse`]:
/// finite values use Rust's shortest-exact `Display`, infinities saturate
/// (`±1e400` parses back to `±inf`), `NaN` becomes `null`.
pub fn fnum(x: f64) -> String {
    if x.is_nan() {
        "null".to_string()
    } else if x.is_infinite() {
        if x > 0.0 { "1e400".to_string() } else { "-1e400".to_string() }
    } else {
        format!("{x}")
    }
}

/// Quote and escape a string for embedding in JSON.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A JSON value; object fields keep their order.
///
/// `Display` is the writer: `{}` renders compactly (JSONL trace lines,
/// `metrics.json`), `{:#}` indents two spaces per level.
/// Floats follow [`fnum`], strings and keys [`jstr`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; [`parse`] reads every number as one.
    Num(f64),
    /// An unsigned integer a producer built, rendered digit for digit
    /// (an `f64` holds only 53 bits of one).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, to fill with [`JsonValue::with`].
    pub fn obj() -> Self {
        JsonValue::Obj(Vec::new())
    }

    /// This object with `key: value` appended; any other value comes back
    /// unchanged.
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        if let JsonValue::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Field `key` of an object (None for other variants or missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field `key` of an object, read as a `T`.
    ///
    /// # Errors
    /// Names the key, and the type expected when the field is there but is
    /// not a `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
        T::from_json(v).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// Numeric value; `null` reads as NaN (the encoder writes NaN as null).
    pub fn num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String contents.
    pub fn str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Array elements.
    pub fn arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    /// `{}` is compact; `{:#}` puts each member on its own line, indented
    /// two spaces per level. The level rides down the recursion as the
    /// format width (`{:#3}` is a value nested three deep).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (members, open, close): (Vec<(Option<&str>, &JsonValue)>, _, _) = match self {
            JsonValue::Null => return f.write_str("null"),
            JsonValue::Bool(b) => return write!(f, "{b}"),
            JsonValue::Num(x) => return f.write_str(&fnum(*x)),
            JsonValue::UInt(n) => return write!(f, "{n}"),
            JsonValue::Str(s) => return f.write_str(&jstr(s)),
            JsonValue::Arr(items) => (items.iter().map(|v| (None, v)).collect(), '[', ']'),
            JsonValue::Obj(fields) => {
                (fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(), '{', '}')
            }
        };
        let (pretty, level) = (f.alternate(), f.width().unwrap_or(0));
        // Compact output has no line breaks and no indent.
        let (newline, step, colon) = if pretty { ("\n", 2, ": ") } else { ("", 0, ":") };
        write!(f, "{open}")?;
        for (i, (key, v)) in members.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(f, "{comma}{newline}{:1$}", "", step * (level + 1))?;
            if let Some(key) = key {
                write!(f, "{}{colon}", jstr(key))?;
            }
            if pretty {
                write!(f, "{v:#0$}", level + 1)?;
            } else {
                write!(f, "{v}")?;
            }
        }
        if !members.is_empty() {
            write!(f, "{newline}{:1$}", "", step * level)?;
        }
        write!(f, "{close}")
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::UInt(n)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::UInt(n.into())
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::UInt(n as u64)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// A type [`JsonValue::field`] reads.
pub trait FromJson: Sized {
    /// `v` as a `Self`, or what was expected instead.
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

impl FromJson for f64 {
    /// `null` reads as NaN, the way [`fnum`] writes it.
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.num().ok_or_else(|| "expected a number".to_string())
    }
}

impl FromJson for u64 {
    /// Exact from [`JsonValue::UInt`]; a parsed number saturates (negative
    /// and NaN read as 0), it never wraps.
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::UInt(n) => Ok(*n),
            _ => f64::from_json(v).map(|x| x as u64),
        }
    }
}

impl FromJson for u32 {
    /// Saturating, like `u64`.
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        u64::from_json(v).map(|n| u32::try_from(n).unwrap_or(u32::MAX))
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.boolean().ok_or_else(|| "expected a bool".to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.str().map(str::to_string).ok_or_else(|| "expected a string".to_string())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let items = v.arr().ok_or_else(|| "expected an array".to_string())?;
        let item = |(i, x): (usize, &JsonValue)| T::from_json(x).map_err(|e| format!("[{i}]: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

/// Deepest nesting of arrays and objects the parser follows. The parser
/// recurses once per level, so an unbounded `[[[[…` from a hostile file
/// would overflow the stack; nothing this workspace writes nests past five.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON value from `s` (leading whitespace allowed; trailing
/// garbage after the value is rejected).
///
/// # Errors
/// A human-readable description with the byte offset of the first problem;
/// nesting deeper than [`MAX_DEPTH`] is one.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser { src: s, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes().len() && self.bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.members(b'}', true).map(JsonValue::Obj)
                } else {
                    let items = self.members(b']', false)?.into_iter().map(|(_, v)| v);
                    Ok(JsonValue::Arr(items.collect()))
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected literal {lit}")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let tok = &self.src[start..self.pos];
        tok.parse::<f64>().map(JsonValue::Num).map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes().len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes()[self.pos + 1..self.pos + 5])
                                    .map_err(|_| self.err("utf8 in \\u escape"))?;
                            // `from_str_radix` alone would take a sign.
                            let cp = u32::from_str_radix(hex, 16)
                                .ok()
                                .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unmodified). `pos` only ever advances by whole
                    // scalars or ASCII bytes, so it is a char boundary.
                    let c = self.src[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The members of an array or an object, from its opening bracket
    /// (which [`Parser::value`] peeked) through `close`. An object's members
    /// are keyed; an array's carry an empty key.
    fn members(&mut self, close: u8, keyed: bool) -> Result<Vec<(String, JsonValue)>, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(members);
        }
        loop {
            self.skip_ws();
            let key = if keyed { self.string()? } else { String::new() };
            if keyed {
                self.skip_ws();
                self.expect(b':')?;
            }
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(members);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnum_round_trips_specials() {
        assert_eq!(fnum(f64::NAN), "null");
        assert_eq!(fnum(f64::INFINITY), "1e400");
        assert_eq!(fnum(f64::NEG_INFINITY), "-1e400");
        assert_eq!(fnum(0.1), "0.1");
        let back: f64 = fnum(f64::INFINITY).parse().unwrap();
        assert!(back.is_infinite() && back > 0.0);
    }

    #[test]
    fn jstr_escapes() {
        assert_eq!(jstr("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(jstr("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parse_round_trips_an_object() {
        let v = parse("{\"a\": [1, 2.5, null], \"b\": {\"c\": true}, \"s\": \"x\\ny\"}")
            .expect("parse");
        assert_eq!(v.get("a").and_then(|x| x.arr()).map(|a| a.len()), Some(3));
        assert!(v.get("a").unwrap().arr().unwrap()[2].num().unwrap().is_nan());
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(|c| c.boolean()), Some(true));
        assert_eq!(v.get("s").and_then(|s| s.str()), Some("x\ny"));
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", MAX_DEPTH - 1).replace(":}", ":0}")).is_ok());
        for hostile in [
            nested("[", "]", MAX_DEPTH + 1),
            "[".repeat(10_000),
            "{\"k\":".repeat(10_000),
            nested("[{\"k\":", "}]", 5_000),
        ] {
            let err = parse(&hostile).expect_err("too deep");
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Depth is nesting, not count: siblings do not accumulate.
        assert!(parse(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn every_truncation_of_a_document_is_an_error_not_a_panic() {
        let doc = "{\"a\": [1, -2.5e3, null, true], \"s\": \"x\\ny\\u00e9\u{e9}\", \"o\": {\"k\": false}}";
        assert!(parse(doc).is_ok());
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(parse(&doc[..cut]).is_err(), "prefix {:?} parsed", &doc[..cut]);
        }
    }

    #[test]
    fn hostile_numbers_saturate_or_fail_cleanly() {
        assert_eq!(parse("1e999999"), Ok(JsonValue::Num(f64::INFINITY)));
        assert_eq!(parse("-1e999999"), Ok(JsonValue::Num(f64::NEG_INFINITY)));
        assert_eq!(parse("1e-999999"), Ok(JsonValue::Num(0.0)));
        assert_eq!(parse(&"9".repeat(100_000)), Ok(JsonValue::Num(f64::INFINITY)));
        let long_fraction = format!("0.{}1", "0".repeat(100_000));
        assert_eq!(parse(&long_fraction), Ok(JsonValue::Num(0.0)));
        for junk in ["-", "+1", "1e", "1.2.3", "--1", "1e+-2", ".", "0x10", "1eE2"] {
            assert!(parse(junk).is_err(), "{junk:?} parsed");
        }
    }

    #[test]
    fn hostile_strings_fail_cleanly_or_pass_through() {
        // A lone (or paired) surrogate escape is not a scalar value: each
        // reads as U+FFFD, the encoder never writes one.
        assert_eq!(parse("\"\\ud800\""), Ok(JsonValue::Str("\u{fffd}".into())));
        assert_eq!(parse("\"\\udc00x\""), Ok(JsonValue::Str("\u{fffd}x".into())));
        assert_eq!(parse("\"\\ud83d\\ude00\""), Ok(JsonValue::Str("\u{fffd}\u{fffd}".into())));
        for bad in [
            "\"\\x41\"", "\"\\\"", "\"\\u12\"", "\"\\u12", "\"\\uZZZZ\"", "\"\\u+123\"",
            "\"\\u00\u{e9}9\"", "\"\\", "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        // An embedded NUL is data inside a string and garbage outside one.
        assert_eq!(parse("\"a\u{0}b\""), Ok(JsonValue::Str("a\u{0}b".into())));
        assert!(parse("{\"a\":\u{0}1}").is_err());
        assert!(parse("\u{0}{}").is_err());
        // Length is linear work: a megabyte of string parses promptly.
        let big = format!("\"{}\"", "\u{e9}".repeat(500_000));
        assert_eq!(parse(&big).unwrap().str().map(str::len), Some(1_000_000));
    }

    #[test]
    fn parse_rejects_trailing_garbage_but_not_trailing_whitespace() {
        assert!(parse("{} tail").is_err());
        assert!(parse("{}{}").is_err());
        assert_eq!(parse("{} \t\r\n").unwrap(), JsonValue::Obj(vec![]));
        assert!(parse("{oops}").is_err());
        assert!(parse("").is_err());
    }

    fn sample() -> JsonValue {
        JsonValue::obj()
            .with("s", "a\"b")
            .with("n", u64::MAX)
            .with("x", 0.1)
            .with("inf", f64::INFINITY)
            .with("none", JsonValue::Null)
            .with("arr", vec![1u32, 2])
            .with("empty", Vec::<u32>::new())
            .with("o", JsonValue::obj().with("t", true))
    }

    #[test]
    fn the_writer_applies_fnum_and_jstr_and_renders_integers_exactly() {
        assert_eq!(
            sample().to_string(),
            concat!(
                r#"{"s":"a\"b","n":18446744073709551615,"x":0.1,"inf":1e400,"none":null,"#,
                r#""arr":[1,2],"empty":[],"o":{"t":true}}"#
            )
        );
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::obj().to_string(), "{}");
    }

    #[test]
    fn the_indented_form_is_the_same_document() {
        let pretty = format!("{:#}", sample());
        assert!(pretty.starts_with("{\n  \"s\": \"a\\\"b\",\n"), "{pretty}");
        let arrays = "\n  \"arr\": [\n    1,\n    2\n  ],\n  \"empty\": [],";
        assert!(pretty.contains(arrays), "{pretty}");
        assert!(pretty.ends_with("\n  \"o\": {\n    \"t\": true\n  }\n}"), "{pretty}");
        assert_eq!(parse(&pretty), parse(&sample().to_string()));
    }

    #[test]
    fn field_reads_typed_values_and_names_what_is_wrong() {
        let v = parse(&sample().to_string()).unwrap();
        assert_eq!(v.field::<u64>("n"), Ok(u64::MAX), "saturates to the exact maximum");
        assert_eq!(sample().field::<u64>("n"), Ok(u64::MAX));
        assert_eq!(v.field::<f64>("x"), Ok(0.1));
        assert_eq!(v.field::<String>("s"), Ok("a\"b".to_string()));
        assert_eq!(v.field::<Vec<u32>>("arr"), Ok(vec![1, 2]));
        assert!(v.field::<f64>("none").unwrap().is_nan(), "null reads as NaN");
        assert_eq!(v.field::<u32>("n"), Ok(u32::MAX));
        assert_eq!(v.field::<bool>("gone"), Err("missing field \"gone\"".to_string()));
        assert_eq!(v.field::<bool>("s"), Err("field \"s\": expected a bool".to_string()));
        let bad = parse("{\"a\":[1,\"x\"]}").unwrap();
        let want = "field \"a\": [1]: expected a number";
        assert_eq!(bad.field::<Vec<u64>>("a"), Err(want.to_string()));
    }
}
