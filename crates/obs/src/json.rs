//! The workspace's hand-rolled JSON: one encoder convention and one minimal
//! parser, shared by the scheduler's trace layer, the executor's
//! `metrics.json`, and the bench/CI validation paths. The build is offline
//! (no serde), so keeping a single implementation here is what makes every
//! producer and consumer agree on the corner cases (float round-trips,
//! infinities, NaN).

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

/// A parsed JSON value. Numbers are `f64` (matching the encoder, which only
/// ever emits values that round-trip); object fields keep source order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field `key` of an object (None for other variants or missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value; `null` reads as NaN (the encoder writes NaN as null).
    pub fn num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
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
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Parse a prefix of `s` as one JSON value, ignoring anything after it —
/// the lenient variant trace-replay uses for JSONL lines.
pub fn parse_prefix(s: &str) -> Result<JsonValue, String> {
    Parser::new(s).value()
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { src: s, pos: 0, depth: 0 }
    }

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
                let v = if open == b'{' { self.object() } else { self.array() };
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

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
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
            assert!(parse_prefix(&hostile).is_err());
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
            assert!(parse_prefix(&doc[..cut]).is_err(), "prefix {:?} parsed", &doc[..cut]);
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
    fn parse_rejects_trailing_garbage_but_prefix_allows_it() {
        assert!(parse("{} tail").is_err());
        assert_eq!(parse_prefix("{} tail").unwrap(), JsonValue::Obj(vec![]));
        assert!(parse("{oops}").is_err());
        assert!(parse("").is_err());
    }
}
