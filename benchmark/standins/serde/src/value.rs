//! The JSON tree, its text writer and its parser.

use crate::{Error, Serialize, Sink};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON object with sorted keys (`serde_json`'s default map).
pub type Map<K = String, V = Value> = BTreeMap<K, V>;

/// A JSON number: integers stay integers.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A finite float.
    Float(f64),
}

impl Number {
    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }

    /// The number as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        })
    }

    /// A float number; `None` for NaN and infinities.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number::Float(f))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (*self, *other) {
            (Number::PosInt(a), Number::PosInt(b)) => a == b,
            (Number::NegInt(a), Number::NegInt(b)) => a == b,
            (Number::Float(a), Number::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for Number {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Number::PosInt(n) => write!(f, "{n}"),
            Number::NegInt(n) => write!(f, "{n}"),
            // `{:?}` is the shortest text that parses back to the same
            // float, with a `.0` on whole numbers, as serde_json prints.
            Number::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

/// Something a [`Value`] can be indexed by: a key or a position.
pub trait ValueIndex {
    /// The child at this index, if any.
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    /// The child at this index, created as `null` in an object (a
    /// `null` becomes an object first); panics on an array position
    /// out of bounds or a non-container.
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        match v {
            Value::Object(m) => m.entry(self.to_string()).or_insert(Value::Null),
            other => panic!("cannot index {} with a string key", other.kind_name()),
        }
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(items) => items.get(*self),
            _ => None,
        }
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        match v {
            Value::Array(items) => &mut items[*self],
            other => panic!("cannot index {} with a position", other.kind_name()),
        }
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }

    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(v)
    }
}

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ValueIndex> std::ops::IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

impl Value {
    /// The child under a key or at a position.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// The JSON type name, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = JsonWriter::new(f.alternate());
        self.serialize(&mut w);
        f.write_str(&w.finish())
    }
}

macro_rules! value_eq {
    ($($ty:ty => |$v:ident, $o:ident| $cmp:expr;)*) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, $o: &$ty) -> bool {
                let $v = self;
                $cmp
            }
        }
    )*};
}

value_eq! {
    str => |v, o| v.as_str() == Some(o);
    &str => |v, o| v.as_str() == Some(*o);
    bool => |v, o| v.as_bool() == Some(*o);
    u64 => |v, o| v.as_u64() == Some(*o);
    i64 => |v, o| v.as_i64() == Some(*o);
    f64 => |v, o| v.as_f64() == Some(*o);
}

impl Serialize for Value {
    fn serialize(&self, out: &mut dyn Sink) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Number(Number::PosInt(n)) => out.u64(*n),
            Value::Number(Number::NegInt(n)) => out.i64(*n),
            Value::Number(Number::Float(f)) => out.f64(*f),
            Value::String(s) => out.str(s),
            Value::Array(items) => {
                out.begin_seq();
                for item in items {
                    item.serialize(out);
                }
                out.end_seq();
            }
            Value::Object(m) => {
                out.begin_map();
                for (k, v) in m {
                    out.key(k);
                    v.serialize(out);
                }
                out.end_map();
            }
        }
    }
}

/// A [`Sink`] that builds a [`Value`].
#[derive(Default)]
pub struct ValueSink {
    root: Option<Value>,
    stack: Vec<Partial>,
}

enum Partial {
    Seq(Vec<Value>),
    Map(Map, Option<String>),
}

impl ValueSink {
    /// An empty builder.
    pub fn new() -> ValueSink {
        ValueSink::default()
    }

    /// The value built; `null` if nothing was emitted.
    pub fn finish(self) -> Value {
        self.root.unwrap_or(Value::Null)
    }

    fn push(&mut self, v: Value) {
        match self.stack.last_mut() {
            None => self.root = Some(v),
            Some(Partial::Seq(items)) => items.push(v),
            Some(Partial::Map(m, key)) => {
                let key = key.take().expect("a key precedes every object value");
                m.insert(key, v);
            }
        }
    }
}

impl Sink for ValueSink {
    fn null(&mut self) {
        self.push(Value::Null);
    }

    fn bool(&mut self, v: bool) {
        self.push(Value::Bool(v));
    }

    fn u64(&mut self, v: u64) {
        self.push(Value::Number(Number::PosInt(v)));
    }

    fn i64(&mut self, v: i64) {
        self.push(Value::Number(match u64::try_from(v) {
            Ok(n) => Number::PosInt(n),
            Err(_) => Number::NegInt(v),
        }));
    }

    fn f64(&mut self, v: f64) {
        self.push(Number::from_f64(v).map_or(Value::Null, Value::Number));
    }

    fn str(&mut self, v: &str) {
        self.push(Value::String(v.to_string()));
    }

    fn begin_seq(&mut self) {
        self.stack.push(Partial::Seq(Vec::new()));
    }

    fn end_seq(&mut self) {
        match self.stack.pop() {
            Some(Partial::Seq(items)) => self.push(Value::Array(items)),
            _ => panic!("end_seq without begin_seq"),
        }
    }

    fn begin_map(&mut self) {
        self.stack.push(Partial::Map(Map::new(), None));
    }

    fn key(&mut self, k: &str) {
        match self.stack.last_mut() {
            Some(Partial::Map(_, key)) => *key = Some(k.to_string()),
            _ => panic!("key outside an object"),
        }
    }

    fn end_map(&mut self) {
        match self.stack.pop() {
            Some(Partial::Map(m, _)) => self.push(Value::Object(m)),
            _ => panic!("end_map without begin_map"),
        }
    }
}

/// A [`Sink`] that writes JSON text, compact or indented by two spaces.
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// One flag per open container: whether it has an element yet.
    open: Vec<bool>,
    /// The next value follows a key, so it needs no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer producing compact or pretty text.
    pub fn new(pretty: bool) -> JsonWriter {
        JsonWriter {
            out: String::new(),
            pretty,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.open.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// Separator and indentation before an array element or a key.
    fn before_item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.newline();
        }
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else {
            self.before_item();
        }
    }

    fn close(&mut self, bracket: char) {
        let had_items = self.open.pop().expect("close matches an open container");
        if had_items {
            self.newline();
        }
        self.out.push(bracket);
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

impl Sink for JsonWriter {
    fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn u64(&mut self, v: u64) {
        self.before_value();
        let _ = write!(self.out, "{v}");
    }

    fn i64(&mut self, v: i64) {
        self.before_value();
        let _ = write!(self.out, "{v}");
    }

    fn f64(&mut self, v: f64) {
        self.before_value();
        match Number::from_f64(v) {
            Some(n) => {
                let _ = write!(self.out, "{n}");
            }
            None => self.out.push_str("null"),
        }
    }

    fn str(&mut self, v: &str) {
        self.before_value();
        write_escaped(&mut self.out, v);
    }

    fn begin_seq(&mut self) {
        self.before_value();
        self.out.push('[');
        self.open.push(false);
    }

    fn end_seq(&mut self) {
        self.close(']');
    }

    fn begin_map(&mut self) {
        self.before_value();
        self.out.push('{');
        self.open.push(false);
    }

    fn key(&mut self, k: &str) {
        self.before_item();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    fn end_map(&mut self) {
        self.close('}');
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

/// Nesting deeper than this is refused, as serde_json does, so a hostile
/// document cannot overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        let upto = &self.src[..self.pos.min(self.src.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Error::custom(format!("{what} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error("expected value"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.error("EOF while parsing a value")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            // The input is a `&str` and the run stops only at ASCII
            // bytes, so it ends on a character boundary.
            out.push_str(
                std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.peek() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("EOF in escape"))?;
                    self.pos += 1;
                    out.push(match esc {
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
                            if (0xd800..0xdc00).contains(&code) {
                                if self.src[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.error("lone surrogate"));
                                    }
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                } else {
                                    return Err(self.error("lone surrogate"));
                                }
                            }
                            char::from_u32(code).ok_or_else(|| self.error("invalid escape"))?
                        }
                        _ => return Err(self.error("invalid escape")),
                    });
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.error("invalid number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII digits");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .ok()
            .and_then(Number::from_f64)
            .map(Value::Number)
            .ok_or_else(|| self.error("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(v: &Value) -> String {
        v.to_string()
    }

    #[test]
    fn text_round_trips_through_the_tree() {
        let text =
            r#"{"a":[1,-2,3.5,1e21,"x\n\"y\u00e9\ud83d\ude00"],"b":{"c":null,"d":true},"e":1.0}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["a"][1], -2i64);
        assert_eq!(v["a"][4], "x\n\"yé😀");
        assert_eq!(v["e"].to_string(), "1.0");
        let again = parse(&compact(&v)).expect("reparses");
        assert_eq!(again, v);
    }

    #[test]
    fn pretty_output_matches_serde_json_layout() {
        let v = parse(r#"{"a":[1,2],"b":{},"c":[]}"#).unwrap();
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
    }

    #[test]
    fn malformed_documents_are_refused() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "01x",
            "\"\\q\"",
            "nul",
            "1 2",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn index_mut_inserts_into_objects() {
        let mut v = Value::Null;
        v["k"] = Value::Bool(true);
        assert_eq!(compact(&v), r#"{"k":true}"#);
    }
}
