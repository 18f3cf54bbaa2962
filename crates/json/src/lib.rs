//! # fa-json
//!
//! JSON (RFC 8259) for the `BENCH_*.json` artifacts: one value type
//! ([`Json`]), one pretty printer ([`Json::write`]) and one parser
//! ([`Json::parse`]). A number keeps its text, so a document read and
//! written again prints every digit it was read with.
//!
//! # Example
//!
//! ```
//! use fa_json::{obj, Json};
//!
//! let report = obj! {
//!     "seq_len" => 1024usize,
//!     "overhead_pct" => Json::fixed(12.1449, 2),
//!     "tolerance" => Json::exp(1e-6),
//!     "bitwise_match" => true,
//! };
//! let text = report.write();
//! assert_eq!(
//!     text,
//!     "{ \"seq_len\": 1024, \"overhead_pct\": 12.14, \"tolerance\": 1e-6, \
//!      \"bitwise_match\": true }\n"
//! );
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back, report);
//! assert_eq!(back.get("overhead_pct").and_then(Json::as_f64), Some(12.14));
//! ```

use std::fmt;

/// A JSON value. Object members keep their order; numbers keep their
/// text.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text (`12.14`, `1e-6`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's `(key, value)` members, in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `x` with `decimals` digits after the point, as `{:.N}` prints it.
    /// [`Json::write`] panics on a non-finite `x`.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// `x` in the shortest scientific notation that reads back
    /// exactly, as `{:e}` prints it (`1e-6`). [`Json::write`] panics on
    /// a non-finite `x`.
    pub fn exp(x: f64) -> Json {
        Json::Num(format!("{x:e}"))
    }

    /// The value under `key`, if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number's value, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The items, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints the value as a document ending in a newline. A
    /// container whose members are all scalars prints on one line;
    /// any other container prints one member per line, indented two
    /// spaces per level.
    ///
    /// # Panics
    ///
    /// Panics, naming the number's key path, if a [`Json::Num`] holds
    /// text that is not a JSON number, such as a non-finite
    /// [`Json::fixed`].
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 0, "");
        out.push('\n');
        out
    }

    fn write_to(&self, out: &mut String, indent: usize, path: &str) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => {
                assert!(
                    number_len(text.as_bytes()) == Some(text.len()),
                    "{path}: {text:?} is not a finite JSON number"
                );
                out.push_str(text);
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let members = items.iter().map(|v| (None, v)).collect();
                write_members(out, indent, path, ['[', ']'], members);
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_members(out, indent, path, ['{', '}'], members);
            }
        }
    }

    /// Parses one JSON document; whitespace may surround the value,
    /// nothing else may follow it.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { src: text, i: 0 };
        let value = p.value(0)?;
        p.ws();
        if p.i < text.len() {
            return Err(p.err("trailing bytes after the value"));
        }
        Ok(value)
    }
}

/// Builds a [`Json::Obj`] from `"key" => value` members, in order;
/// each value converts through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}

macro_rules! from_scalar {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $e
            }
        })*
    };
}

from_scalar! {
    bool => |b| Json::Bool(b),
    u32 => |n| Json::Num(n.to_string()),
    u64 => |n| Json::Num(n.to_string()),
    usize => |n| Json::Num(n.to_string()),
    &str => |s| Json::Str(s.to_string()),
}

fn write_members(
    out: &mut String,
    indent: usize,
    path: &str,
    [open, close]: [char; 2],
    members: Vec<(Option<&str>, &Json)>,
) {
    let flat = members
        .iter()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let [sep, end] = [indent + 1, indent].map(|n| {
        if flat {
            " ".to_string()
        } else {
            format!("\n{}", "  ".repeat(n))
        }
    });
    out.push(open);
    for (i, &(key, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&sep);
        let path = match key {
            Some(k) => {
                write_str(out, k);
                out.push_str(": ");
                format!("{path}.{k}")
            }
            None => format!("{path}[{i}]"),
        };
        v.write_to(out, indent + 1, &path);
    }
    if !members.is_empty() {
        out.push_str(&end);
    }
    out.push(close);
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Length of the JSON number (RFC 8259 §6) that starts `s`, if one
/// does: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn number_len(s: &[u8]) -> Option<usize> {
    let digits = |i: usize| s[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(s.first() == Some(&b'-'));
    match (s.get(i), digits(i)) {
        (Some(b'0'), _) => i += 1,
        (_, 0) => return None,
        (_, n) => i += n,
    }
    if s.get(i) == Some(&b'.') {
        match digits(i + 1) {
            0 => return None,
            n => i += 1 + n,
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1 + usize::from(matches!(s.get(i + 1), Some(b'+' | b'-')));
        match digits(i) {
            0 => return None,
            n => i += n,
        }
    }
    Some(i)
}

/// Why [`Json::parse`] rejected its input, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts; a bound keeps
/// hostile input from exhausting the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            offset: self.i,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8, reason: &'static str) -> Result<(), ParseError> {
        self.ws();
        if self.peek() != Some(c) {
            return Err(self.err(reason));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.ws();
        let rest = &self.src.as_bytes()[self.i..];
        match rest.first() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => {
                self.i += 1;
                let members = self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':', "expected ':'")?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.i += 1;
                Ok(Json::Arr(self.seq(b']', |p| p.value(depth + 1))?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => {
                let n = number_len(rest).ok_or_else(|| self.err("malformed number"))?;
                self.i += n;
                Ok(Json::Num(self.src[self.i - n..self.i].to_string()))
            }
            _ => {
                for (word, v) in [
                    ("null", Json::Null),
                    ("true", true.into()),
                    ("false", false.into()),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                Err(self.err("expected a value"))
            }
        }
    }

    /// The comma-separated items up to `close` (the opener is consumed).
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Stopping only at ASCII bytes keeps every slice on a char
            // boundary.
            let start = self.i;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.i += 1;
            }
            out.push_str(&self.src[start..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in a string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape, after its backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
        self.i += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.src[self.i..].starts_with("\\u") {
                    self.i += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                // A lone surrogate is no char.
                char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .src
            .get(self.i..self.i + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.i += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_surrogate_pairs_parse_and_round_trip() {
        let v = Json::parse(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00 é""#).unwrap();
        assert_eq!(
            v,
            Json::Str("q\" b\\ s/ \u{8}\u{c}\n\r\t é 😀 é".to_string())
        );
        let written = v.write();
        assert_eq!(written, "\"q\\\" b\\\\ s/ \\b\\f\\n\\r\\t é 😀 é\"\n");
        assert_eq!(Json::parse(&written), Ok(v));
        assert_eq!(
            Json::Str("\u{1}".into()).write(),
            "\"\\u0001\"\n",
            "other control characters use \\u"
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\x""#,
            "\"a\nb\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn numbers_keep_their_text_including_exponents() {
        let v =
            Json::parse(r#"{ "tolerance": 1e-6, "big": -2.5E+10, "zero": 0, "x": 0.50 }"#).unwrap();
        assert_eq!(v.get("tolerance"), Some(&Json::Num("1e-6".into())));
        assert_eq!(v.get("tolerance").and_then(Json::as_f64), Some(1e-6));
        assert_eq!(v.get("big").and_then(Json::as_f64), Some(-2.5e10));
        assert_eq!(v.get("x"), Some(&Json::Num("0.50".into())));
        assert_eq!(Json::exp(1e-6), Json::Num("1e-6".into()));
        for bad in ["01", "1.", ".5", "1e", "-", "+1", "1e+", "0x10"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn trailing_bytes_are_an_error_at_their_offset() {
        let err = Json::parse("{ \"a\": 1 } x").unwrap_err();
        assert_eq!(err.offset, 11);
        assert_eq!(err.to_string(), "trailing bytes after the value at byte 11");
        assert_eq!(Json::parse("[1, 2]]").unwrap_err().offset, 6);
        assert_eq!(Json::parse("[1 2]").unwrap_err().offset, 3);
        assert!(Json::parse("").is_err());
        assert!(Json::parse(&"[".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    #[should_panic(expected = ".flash2[1].overhead_pct: \"NaN\" is not a finite JSON number")]
    fn writing_a_non_finite_number_panics_naming_its_key() {
        let point = |x: f64| obj! { "overhead_pct" => Json::fixed(x, 2) };
        obj! { "flash2" => Json::Arr(vec![point(1.0), point(f64::NAN)]) }.write();
    }

    #[test]
    fn fixed_rounds_like_format_precision() {
        assert_eq!(Json::fixed(12.144_9, 2), Json::Num("12.14".into()));
        assert_eq!(Json::fixed(12.145_1, 2), Json::Num("12.15".into()));
        assert_eq!(Json::fixed(37_879_808.4, 0), Json::Num("37879808".into()));
        assert_eq!(Json::fixed(0.1, 3), Json::Num("0.100".into()));
        assert_eq!(Json::fixed(-0.001, 2), Json::Num("-0.00".into()));
        assert_eq!(Json::fixed(-0.001, 2).as_f64(), Some(0.0));
    }

    #[test]
    fn containers_of_scalars_print_on_one_line() {
        let doc = obj! {
            "schema" => "v1",
            "empty" => Json::Arr(vec![]),
            "slo" => obj! { "ttft_steps" => 8u64, "ok" => true },
            "points" => Json::Arr(vec![obj! { "n" => 1u32 }, Json::Null]),
        };
        let text = doc.write();
        assert_eq!(
            text,
            "{\n  \"schema\": \"v1\",\n  \"empty\": [],\n  \
             \"slo\": { \"ttft_steps\": 8, \"ok\": true },\n  \
             \"points\": [\n    { \"n\": 1 },\n    null\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text), Ok(doc));
    }
}
