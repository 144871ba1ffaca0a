//! A minimal JSON value, encoder, and recursive-descent parser.
//!
//! The wire protocol needs exactly the JSON subset implemented here:
//! objects, arrays, strings, 64-bit signed integers, booleans, and `null`.
//! Floating-point literals are rejected — nothing on the wire is fractional,
//! and refusing them keeps round-tripping exact. The parser is hardened for
//! untrusted input: input length is already bounded by the frame decoder,
//! nesting depth is capped at [`MAX_DEPTH`] (a bit-flipped frame must not
//! overflow the stack), and every error is a typed [`JsonError`] — no panics
//! on any byte sequence, which the decoder property test exercises.
//!
//! Encoding and parsing both work on bytes. The encoder appends to a
//! `Vec<u8>` through `write_u64` (two digits per table lookup) and
//! `write_str` (plain runs copied whole), which `proto` also calls
//! directly to write a reply without building a tree. The parser accumulates
//! integers inline, validates UTF-8 only where it can matter (inside string
//! literals), and builds an array of integers in one exactly sized step.

use std::collections::BTreeMap;

/// Maximum nesting depth the parser accepts. Well-formed protocol messages
/// nest 3–4 levels; 32 leaves headroom without risking deep recursion on
/// adversarial input.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value (the protocol subset — integers only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer (floats are rejected at parse time).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps encoding deterministic (sorted keys),
    /// which the bench fingerprints rely on.
    Obj(BTreeMap<String, Json>),
}

/// Why a byte sequence failed to parse as protocol JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Unexpected byte or premature end of input at this offset.
    Syntax(usize),
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// A number literal was fractional, exponential, or out of `i64` range.
    BadNumber(usize),
    /// A string literal contained an invalid escape or raw control byte.
    BadString(usize),
    /// Valid JSON followed by trailing non-whitespace bytes.
    Trailing(usize),
    /// A string literal was not valid UTF-8. (Outside string literals every
    /// byte the grammar admits is ASCII, so a stray non-ASCII byte there is a
    /// [`Syntax`](JsonError::Syntax) error.)
    Utf8,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(at) => write!(f, "syntax error at byte {at}"),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonError::BadNumber(at) => write!(f, "unsupported number at byte {at}"),
            JsonError::BadString(at) => write!(f, "bad string at byte {at}"),
            JsonError::Trailing(at) => write!(f, "trailing bytes at {at}"),
            JsonError::Utf8 => write!(f, "string literal is not UTF-8"),
        }
    }
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object (`None` on other variants or missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer widened to `u64`.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
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

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON text.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the value's compact JSON text to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(n) => write_i64(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.reserve(items.len() * 8); // a position and its comma
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    // As in the parser: no recursion per integer.
                    match v {
                        Json::Int(n) => write_i64(out, *n),
                        v => v.encode_into(out),
                    }
                }
                out.push(b']');
            }
            Json::Obj(m) => {
                out.push(b'{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.encode_into(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// `"00".."99"`, so the integer writer emits two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The eight decimal digits of `n < 10^8`, zero-padded. The two halves and
/// the four pairs are independent of one another, so the divisions overlap
/// instead of queueing behind a running remainder.
fn eight_digits(n: u32) -> [u8; 8] {
    let (hi, lo) = (n / 10_000, n % 10_000);
    let mut buf = [0u8; 8];
    for (slot, pair) in [hi / 100, hi % 100, lo / 100, lo % 100]
        .into_iter()
        .enumerate()
    {
        let at = pair as usize * 2;
        buf[slot * 2..slot * 2 + 2].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
    }
    buf
}

/// Appends `n` in decimal.
pub(crate) fn write_u64(out: &mut Vec<u8>, n: u64) {
    const BLOCK: u64 = 100_000_000;
    if n >= BLOCK {
        // Rare on this wire (positions, ids and epochs are small): the head
        // recursively, then one zero-padded block of eight.
        write_u64(out, n / BLOCK);
        out.extend_from_slice(&eight_digits((n % BLOCK) as u32));
        return;
    }
    let n = n as u32;
    let digits = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    // Shift the padding zeros out of the block, append all eight bytes — a
    // copy of constant size — and cut back to the digits.
    let block = u64::from_be_bytes(eight_digits(n)) << ((8 - digits) * 8);
    let len = out.len();
    out.extend_from_slice(&block.to_be_bytes());
    out.truncate(len + digits);
}

/// Appends `n` in decimal, with a leading `-` when negative.
fn write_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `s` as a JSON string literal. Every byte that needs an escape is
/// ASCII, so the runs between them are copied whole and stay valid UTF-8.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run_start = 0;
    for (i, &c) in bytes.iter().enumerate() {
        if c != b'"' && c != b'\\' && c >= 0x20 {
            continue;
        }
        out.extend_from_slice(&bytes[run_start..i]);
        run_start = i + 1;
        match c {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            c => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(c >> 4)],
                HEX[usize::from(c & 0xf)],
            ]),
        }
    }
    out.extend_from_slice(&bytes[run_start..]);
    out.push(b'"');
}

/// Parses `bytes` as one JSON value (the protocol subset). Never panics.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser {
        b: bytes,
        at: 0,
        ints: Vec::new(),
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.b.len() {
        return Err(JsonError::Trailing(p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
    /// Scratch for [`int_run`](Parser::int_run); empty between runs.
    ints: Vec<i64>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(JsonError::Syntax(self.at))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(JsonError::Syntax(self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Int),
            _ => Err(JsonError::Syntax(self.at)),
        }
    }

    #[inline]
    fn number(&mut self) -> Result<i64, JsonError> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        let digits_start = start + usize::from(negative);
        // Accumulated inline; only trusted below for up to 18 digits, which
        // cannot overflow (10^18 < 2^63).
        let mut n = 0u64;
        let mut digits = 0;
        for &c in &self.b[digits_start..] {
            let d = c.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(d));
            digits += 1;
        }
        self.at = digits_start + digits;
        if digits == 0 {
            return Err(JsonError::Syntax(start));
        }
        // Fractions and exponents are outside the protocol subset.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::BadNumber(start));
        }
        if digits <= 18 {
            let n = n as i64;
            return Ok(if negative { -n } else { n });
        }
        // 19 digits or more may overflow: take the checked path, which also
        // accepts `i64::MIN` and long runs of leading zeros.
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|text| text.parse::<i64>().ok())
            .ok_or(JsonError::BadNumber(start))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let start = self.at;
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Scan a run of plain bytes, then handle the interesting one.
            let run_start = self.at;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.at += 1;
            }
            // Runs break only at ASCII bytes, which never fall inside a
            // multi-byte sequence: validating run by run validates the
            // whole literal.
            out.push_str(
                std::str::from_utf8(&self.b[run_start..self.at]).map_err(|_| JsonError::Utf8)?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            self.at += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept a following low
                            // surrogate; lone surrogates are rejected.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.b[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(JsonError::BadString(start));
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c).ok_or(JsonError::BadString(start))?
                                } else {
                                    return Err(JsonError::BadString(start));
                                }
                            } else {
                                char::from_u32(cp).ok_or(JsonError::BadString(start))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(JsonError::BadString(start)),
                    }
                    self.at += 1;
                }
                _ => return Err(JsonError::BadString(start)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let s = self
            .b
            .get(self.at..self.at + 4)
            .ok_or(JsonError::BadString(self.at))?;
        let mut v = 0u32;
        for &c in s {
            v = v * 16
                + match c {
                    b'0'..=b'9' => (c - b'0') as u32,
                    b'a'..=b'f' => (c - b'a' + 10) as u32,
                    b'A'..=b'F' => (c - b'A' + 10) as u32,
                    _ => return Err(JsonError::BadString(self.at)),
                };
        }
        self.at += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        if depth >= MAX_DEPTH {
            return Err(JsonError::TooDeep); // whatever the element is
        }
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'-' | b'0'..=b'9') => self.int_run(&mut items)?,
                _ => items.push(self.value(depth + 1)?),
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::Syntax(self.at)),
            }
        }
    }

    /// Parses the integers from here to the first array element that is not
    /// one and appends them to `items`, leaving the cursor after the last.
    ///
    /// The array that matters is a column of integers — an answer's position
    /// list — so they skip the generic dispatch, and they are gathered as
    /// plain `i64` first: the single `extend` below constructs each
    /// [`Json::Int`] in place, where pushing the 32-byte enum one at a time
    /// goes through a stack temporary and measured ten times slower. It also
    /// reserves in `items` exactly the run's length, so the array that is one
    /// run never regrows.
    fn int_run(&mut self, items: &mut Vec<Json>) -> Result<(), JsonError> {
        // An integer and its comma take two bytes at the very least and, in
        // a position list, about seven: reserving the scratch for one per
        // four bytes left spares its regrowth, and the cap bounds what a
        // hostile frame can make the parser reserve.
        self.ints.reserve(((self.b.len() - self.at) / 4).min(4096));
        loop {
            let n = self.number()?;
            self.ints.push(n);
            let after_number = self.at;
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.at += 1;
                self.skip_ws();
                if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                    continue;
                }
            }
            self.at = after_number;
            break;
        }
        items.extend(self.ints.drain(..).map(Json::Int));
        Ok(())
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(JsonError::Syntax(self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.encode();
        let back = parse(&text).expect("reparse");
        assert_eq!(
            &back,
            v,
            "round-trip through {}",
            String::from_utf8_lossy(&text)
        );
    }

    #[test]
    fn roundtrips_the_protocol_shapes() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Int(-42));
        roundtrip(&Json::Int(i64::MAX));
        roundtrip(&Json::Int(i64::MIN));
        roundtrip(&Json::Str("hello \"world\"\n\\ \t \u{1} ünïcode 🦀".into()));
        roundtrip(&Json::obj(vec![
            ("id", Json::Int(7)),
            ("method", Json::Str("query".into())),
            (
                "params",
                Json::obj(vec![
                    ("query", Json::Str("//a/b".into())),
                    ("subject", Json::Int(3)),
                    (
                        "matches",
                        Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Int(3)]),
                    ),
                ]),
            ),
        ]));
    }

    #[test]
    fn rejects_what_the_protocol_rejects() {
        assert!(parse(b"1.5").is_err(), "floats are out of the subset");
        assert!(parse(b"1e3").is_err());
        assert!(parse(b"99999999999999999999").is_err(), "i64 overflow");
        assert!(parse(b"{\"a\":1} junk").is_err(), "trailing bytes");
        assert!(parse(b"\"\\ud800\"").is_err(), "lone surrogate");
        assert!(parse(&[0xff, 0xfe]).is_err(), "not UTF-8");
        assert!(parse(b"").is_err());
        assert!(parse(b"[1,2,").is_err(), "truncated");
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(parse(deep.as_bytes()), Err(JsonError::TooDeep));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(br#""a\u0041\n\u00e9\ud83e\udd80""#).unwrap(),
            Json::Str("aA\né🦀".into())
        );
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![
            ("n", Json::Int(5)),
            ("s", Json::Str("x".into())),
            ("b", Json::Bool(false)),
            ("a", Json::Arr(vec![Json::Int(1)])),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_int), Some(5));
        assert_eq!(v.get("n").and_then(Json::as_uint), Some(5));
        assert_eq!(Json::Int(-1).as_uint(), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert!(v.get("missing").is_none());
        assert!(Json::Int(1).get("x").is_none());
    }
}
