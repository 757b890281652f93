//! A small JSON codec for the artifacts the simulator persists: the trace
//! JSONL (`qoserve_trace::export`), the stats snapshot stream
//! (`qoserve_stats::snapshot`), and the experiment rows under `results/`.
//!
//! [`Value`] keeps `u64`, `i64` and `f64` numbers apart and object members
//! in insertion order, so output bytes are a pure function of the value.
//! [`parse`] never panics: malformed input, integers outside `i64`/`u64`,
//! and nesting deeper than [`MAX_DEPTH`] are an [`Error`] with line and
//! column. [`json_struct!`](crate::json_struct!) declares a struct's codec
//! field by field; such a struct decodes on top of its `Default`, so a
//! missing field keeps its default and an unknown key is ignored, and
//! artifacts stay loadable as schemas grow.
//!
//! Finite floats are written in Rust's shortest round-trip form and read
//! back bit-exact. JSON has no infinity, so ±∞ is written as the
//! overflowing literal `1e999` / `-1e999`, which parses back to ±∞; NaN is
//! written as `null`, and `null` decodes to NaN where an `f64` is expected.
//! `\u` escapes of surrogates are rejected: this writer never emits them.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (non-negative ones are [`Value::U64`]).
    I64(i64),
    /// A number written with a fraction or an exponent.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in insertion (or file) order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (the last one, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|m| m.0 == key).map(|m| &m.1),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }

    /// Any number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
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

    /// Indented rendering: two spaces per level, one element or member per
    /// line, empty containers as `[]` / `{}`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(0), &mut out);
        out
    }
}

/// Writes `value` compactly (`indent` = `None`) or pretty from depth
/// `indent`.
fn write_value(value: &Value, indent: Option<usize>, out: &mut String) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match value {
        Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Object(members) => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return b.write_json(out),
        Value::U64(n) => return n.write_json(out),
        Value::I64(n) => return n.write_json(out),
        Value::F64(x) => return x.write_json(out),
        Value::String(s) => return write_str(out, s),
    };
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        (0..depth).for_each(|_| out.push_str("  "));
    };
    out.push(open);
    for (i, (key, item)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        write_value(item, indent.map(|d| d + 1), out);
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        newline(out, depth);
    }
    out.push(close);
}

/// A JSON syntax error (with position) or decode error (without).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Error {
    /// What went wrong.
    pub msg: String,
    /// 1-based line; 0 when unknown (a decode error of a single value).
    pub line: usize,
    /// 1-based byte column of a syntax error; 0 for a decode error.
    pub column: usize,
}

impl Error {
    /// A decode error: well-formed JSON of the wrong shape.
    pub fn new(msg: impl Into<String>) -> Error {
        let msg = msg.into();
        Error {
            msg,
            ..Error::default()
        }
    }

    /// Places the error on `line` of a multi-line input (each JSONL line is
    /// parsed on its own).
    pub fn on_line(mut self, line: usize) -> Error {
        self.line = line;
        self
    }

    /// Prefixes the message with the member it concerns.
    pub fn in_field(mut self, key: &str) -> Error {
        self.msg = format!("{key}: {}", self.msg);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (0, _) => f.write_str(&self.msg),
            (line, 0) => write!(f, "line {line}: {}", self.msg),
            (line, column) => write!(f, "line {line} column {column}: {}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// Parses one JSON document. Never panics: every malformed input is an
/// [`Error`] with the line and column of the offending byte.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters after the value"));
    }
    Ok(value)
}

/// Parses `text` and decodes it as a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

/// Compact JSON of `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// `value` as a [`Value`] (written, then parsed back; NaN becomes `null`).
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    parse(&to_string(value)).unwrap_or(Value::Null)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        let before = self.text.as_bytes().get(..self.pos).unwrap_or_default();
        Error {
            msg: msg.to_owned(),
            line: before.iter().filter(|&&b| b == b'\n').count() + 1,
            column: before.iter().rev().take_while(|&&b| b != b'\n').count() + 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.list(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if p.peek() != Some(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    p.pos += 1;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let rest = self.text.get(self.pos..).unwrap_or("");
                let words = [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ];
                let (word, value) = words
                    .into_iter()
                    .find(|(w, _)| rest.starts_with(w))
                    .ok_or_else(|| self.error("expected a value"))?;
                self.pos += word.len();
                Ok(value)
            }
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses the comma-separated items of an array or object after its
    /// opening bracket, through the `close` bracket.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run ends at an ASCII byte or the end: both char boundaries.
            out.push_str(self.text.get(start..self.pos).unwrap_or(""));
            let escaped = match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.peek()
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            };
            // `\x` escapes, position by position.
            let c = match b"\"\\/bfnrt".iter().position(|&e| Some(e) == escaped) {
                Some(i) => "\"\\/\u{8}\u{c}\n\r\t".chars().nth(i),
                None if escaped == Some(b'u') => self.unicode_escape(),
                None => None,
            };
            out.push(c.ok_or_else(|| self.error("bad escape"))?);
            self.pos += 1;
        }
    }

    /// The character of `uXXXX` (at `u`), consumed only when valid.
    fn unicode_escape(&mut self) -> Option<char> {
        let digits = self.text.get(self.pos + 1..self.pos + 5)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let c = char::from_u32(u32::from_str_radix(digits, 16).ok()?)?;
        self.pos += 4;
        Some(c)
    }

    /// Consumes a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_ok = if self.peek() == Some(b'0') {
            self.pos += 1;
            true
        } else {
            self.digits()
        };
        let frac = self.peek() == Some(b'.');
        let frac_ok = !frac || {
            self.pos += 1;
            self.digits()
        };
        let exp = matches!(self.peek(), Some(b'e' | b'E'));
        let exp_ok = !exp || {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()
        };
        if !(int_ok && frac_ok && exp_ok) {
            return Err(self.error("bad number"));
        }
        let text = self.text.get(start..self.pos).unwrap_or("");
        let parsed = match (frac || exp, text.parse::<i64>()) {
            (true, _) => text.parse().ok().map(Value::F64),
            (false, Ok(n)) => Some(u64::try_from(n).map_or(Value::I64(n), Value::U64)),
            (false, Err(_)) => text.parse().ok().map(Value::U64),
        };
        parsed.ok_or_else(|| {
            self.pos = start;
            self.error("integer out of range")
        })
    }
}

/// Types with a compact JSON rendering.
pub trait ToJson {
    /// Appends this value's compact JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// Types decodable from a [`Value`].
pub trait FromJson: Sized {
    /// Decodes `value`, or says why it does not fit.
    fn from_json(value: &Value) -> Result<Self, Error>;
}

/// Writes `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an object from its members, in order: `{"a":1,"b":2}`.
pub fn write_object(out: &mut String, members: &[(&str, &dyn ToJson)]) {
    out.push('{');
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, key);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

/// Decodes member `key` of `value` into `slot`; an absent member leaves
/// `slot` as it is.
pub fn read_field<T: FromJson>(value: &Value, key: &str, slot: &mut T) -> Result<(), Error> {
    if let Some(member) = value.get(key) {
        *slot = T::from_json(member).map_err(|e| e.in_field(key))?;
    }
    Ok(())
}

/// Decodes member `key` of `value`, or `T::default()` when it is absent.
pub fn field<T: FromJson + Default>(value: &Value, key: &str) -> Result<T, Error> {
    let mut slot = T::default();
    read_field(value, key, &mut slot)?;
    Ok(slot)
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        write_value(self, None, out);
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match *value {
            Value::Bool(b) => Ok(b),
            _ => Err(Error::new("expected a boolean")),
        }
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(bool, u8, u32, u64, usize, i32, i64);

macro_rules! int_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, Error> {
                let n = match *value {
                    Value::U64(n) => <$t>::try_from(n).ok(),
                    Value::I64(n) => <$t>::try_from(n).ok(),
                    _ => return Err(Error::new(concat!("expected an integer (", stringify!($t), ")"))),
                };
                n.ok_or_else(|| Error::new(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

int_from_json!(u8, u32, u64, i64);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = match (self.is_nan(), self.is_infinite(), self.is_sign_positive()) {
            (true, _, _) => out.write_str("null"),
            (_, true, true) => out.write_str("1e999"),
            (_, true, false) => out.write_str("-1e999"),
            _ => write!(out, "{self:?}"),
        };
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let x = if value == &Value::Null {
            Some(f64::NAN)
        } else {
            value.as_f64()
        };
        x.ok_or_else(|| Error::new("expected a number"))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let s = value
            .as_str()
            .ok_or_else(|| Error::new("expected a string"))?;
        Ok(s.to_owned())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| Error::new("expected an array"))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(Error::new("expected a two-element array")),
        }
    }
}

/// Maps are objects; JSON keys are strings, so integer keys are written in
/// decimal.
impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        let keys: Vec<String> = self.keys().map(K::to_string).collect();
        let members: Vec<(&str, &dyn ToJson)> = keys
            .iter()
            .map(String::as_str)
            .zip(self.values().map(|v| v as &dyn ToJson))
            .collect();
        write_object(out, &members);
    }
}

impl<K: FromStr + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let Value::Object(members) = value else {
            return Err(Error::new("expected an object"));
        };
        let entry = |(key, item): &(String, Value)| -> Result<(K, V), Error> {
            let k = key
                .parse()
                .map_err(|_| Error::new(format!("bad map key `{key}`")))?;
            Ok((k, V::from_json(item).map_err(|e| e.in_field(key))?))
        };
        members.iter().map(entry).collect()
    }
}

/// Declares a struct's JSON codec field by field, written in list order.
/// Decoding starts from `Default::default()`, so a missing field keeps its
/// default and an unknown key is ignored. The list must name every field:
///
/// ```compile_fail
/// #[derive(Default)]
/// struct Point { x: u64, y: f64 }
/// qoserve_sim::json_struct!(Point { x }); // `y` is not listed
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let $ty { $($field: _),+ } = self;
                $crate::json::write_object(out, &[$( (stringify!($field), &self.$field) ),+]);
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                if !matches!(value, $crate::json::Value::Object(_)) {
                    return Err($crate::json::Error::new(concat!("expected ", stringify!($ty))));
                }
                let mut decoded = <$ty as Default>::default();
                $( $crate::json::read_field(value, stringify!($field), &mut decoded.$field)?; )+
                Ok(decoded)
            }
        }
    };
}

/// Builds a [`Value`](crate::json::Value) from a JSON-like literal:
/// `json!({"id": name, "rows": [1, 2], "p50": null})`. Keys are string
/// literals and keep their order; any other value is an expression whose
/// type implements [`ToJson`](crate::json::ToJson).
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::json::Value::Null
    };
    ([]) => {
        $crate::json::Value::Array(Vec::new())
    };
    ({}) => {
        $crate::json::Value::Object(Vec::new())
    };
    ([ $($tt:tt)* ]) => {{
        let mut items = Vec::new();
        $crate::json!(@list items; $($tt)*);
        $crate::json::Value::Array(items)
    }};
    ({ $($tt:tt)* }) => {{
        let mut members = Vec::new();
        $crate::json!(@list members; $($tt)*);
        $crate::json::Value::Object(members)
    }};
    // One list item at a time: an object member `"key": value` or an
    // array element `value`, each value `null`, `[..]`, `{..}` or an
    // expression.
    (@list $v:ident;) => {};
    (@list $v:ident; $k:literal : $($rest:tt)+) => {
        $crate::json!(@value $v (String::from($k)); $($rest)+);
    };
    (@list $v:ident; $($rest:tt)+) => {
        $crate::json!(@value $v; $($rest)+);
    };
    (@value $v:ident $(($k:expr))?; null $(, $($rest:tt)*)?) => {
        $crate::json!(@push $v $(($k))?; $crate::json::Value::Null; $($($rest)*)?);
    };
    (@value $v:ident $(($k:expr))?; [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json!(@push $v $(($k))?; $crate::json!([ $($inner)* ]); $($($rest)*)?);
    };
    (@value $v:ident $(($k:expr))?; { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json!(@push $v $(($k))?; $crate::json!({ $($inner)* }); $($($rest)*)?);
    };
    (@value $v:ident $(($k:expr))?; $e:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@push $v $(($k))?; $crate::json::to_value(&$e); $($($rest)*)?);
    };
    (@push $v:ident ($k:expr); $value:expr; $($rest:tt)*) => {
        Vec::push(&mut $v, ($k, $value));
        $crate::json!(@list $v; $($rest)*);
    };
    (@push $v:ident; $value:expr; $($rest:tt)*) => {
        Vec::push(&mut $v, $value);
        $crate::json!(@list $v; $($rest)*);
    };
    ($e:expr) => {
        $crate::json::to_value(&$e)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        count: u64,
        delta: i64,
        ratio: f64,
        name: String,
        tags: Vec<(u64, u32)>,
        by_id: BTreeMap<u32, u64>,
        last: Option<bool>,
    }

    impl Default for Sample {
        fn default() -> Self {
            Sample {
                count: 7,
                delta: 0,
                ratio: f64::INFINITY,
                name: String::new(),
                tags: Vec::new(),
                by_id: BTreeMap::new(),
                last: None,
            }
        }
    }

    crate::json_struct!(Sample {
        count,
        delta,
        ratio,
        name,
        tags,
        by_id,
        last,
    });

    fn sample() -> Sample {
        Sample {
            count: u64::MAX,
            delta: i64::MIN,
            ratio: 0.1 + 0.2,
            name: "a \"quoted\"\\\n\u{1}é\u{1F600}".to_owned(),
            tags: vec![(1, 2), (u64::MAX, u32::MAX)],
            by_id: [(3, 4), (10, 0)].into_iter().collect(),
            last: Some(false),
        }
    }

    #[test]
    fn struct_round_trips_in_field_order() {
        let s = sample();
        let text = to_string(&s);
        assert!(text.starts_with("{\"count\":18446744073709551615,\"delta\":-9223372036854775808,"));
        assert!(text.contains("\"by_id\":{\"3\":4,\"10\":0}"), "{text}");
        assert_eq!(from_str::<Sample>(&text), Ok(s));
    }

    #[test]
    fn missing_fields_default_and_unknown_fields_are_ignored() {
        assert_eq!(from_str::<Sample>("{}"), Ok(Sample::default()));
        let s: Sample = from_str(r#"{"count":3,"added_later":{"x":[1,2]},"count2":1}"#).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.ratio, f64::INFINITY);
    }

    #[test]
    fn floats_round_trip_bit_exact_with_infinities_and_nan() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-7,
            1.5e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.5e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let text = to_string(&x);
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
        assert_eq!(to_string(&f64::INFINITY), "1e999");
        assert_eq!(to_string(&f64::NEG_INFINITY), "-1e999");
        assert_eq!(to_string(&f64::NAN), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
        assert_eq!(to_string(&1.0f64), "1.0");
    }

    #[test]
    fn numbers_keep_their_kind() {
        assert_eq!(parse("5"), Ok(Value::U64(5)));
        assert_eq!(parse("-5"), Ok(Value::I64(-5)));
        assert_eq!(parse("-0"), Ok(Value::U64(0)));
        assert_eq!(parse("5.0"), Ok(Value::F64(5.0)));
        assert_eq!(parse("5e0"), Ok(Value::F64(5.0)));
        assert_eq!(parse("18446744073709551615"), Ok(Value::U64(u64::MAX)));
        assert_eq!(from_str::<u8>("255"), Ok(255));
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u64>("1.5").is_err());
        assert_eq!(from_str::<f64>("3"), Ok(3.0));
    }

    #[test]
    fn doc_example_point_round_trips() {
        #[derive(Debug, Default, PartialEq)]
        struct Point {
            x: u64,
            y: f64,
        }
        crate::json_struct!(Point { x, y });
        let p = Point {
            x: 3,
            y: f64::INFINITY,
        };
        assert_eq!(to_string(&p), r#"{"x":3,"y":1e999}"#);
        assert_eq!(from_str(r#"{"y":1e999,"x":3,"z":[]}"#), Ok(p));
    }

    #[test]
    fn malformed_input_is_an_error_with_position() {
        for (text, line, column) in [
            ("", 1, 1),
            ("{\"a\":1", 1, 7),
            ("{\"a\":1,\n \"b\":tru}", 2, 6),
            ("[1,2", 1, 5),
            ("[1,2]]", 1, 6),
            ("{\"a\" 1}", 1, 6),
            ("{1:2}", 1, 2),
            ("\"ab\\x\"", 1, 5),
            ("\"\\ud800\"", 1, 3),
            ("\"\\u+123\"", 1, 3),
            ("\"a\nb\"", 1, 3),
            ("01", 1, 2),
            ("-", 1, 2),
            ("1.", 1, 3),
            ("18446744073709551616", 1, 1),
            ("-9223372036854775809", 1, 1),
            ("nul", 1, 1),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!((err.line, err.column), (line, column), "{text:?}: {err}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_without_recursing() {
        let deep = "[".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = sample().name;
        let text = to_string(&s);
        assert_eq!(text, "\"a \\\"quoted\\\"\\\\\\n\\u0001é\u{1F600}\"");
        assert_eq!(from_str::<String>(&text), Ok(s));
        assert_eq!(
            from_str::<String>(r#""\u00e9 \/ \b\f\r\t""#),
            Ok("é / \u{8}\u{c}\r\t".to_owned())
        );
        assert!(from_str::<String>(r#""\ud83d\ude00""#).is_err());
    }

    #[test]
    fn json_macro_builds_ordered_values() {
        let name = "fig7";
        let p50: Option<f64> = None;
        let v = crate::json!({
            "id": name,
            "rows": [1, -2, 2.5, null, {"x": [true]}],
            "p50": p50,
            "nested": {"k": format!("{}-{}", 1, 2)},
        });
        assert_eq!(
            to_string(&v),
            r#"{"id":"fig7","rows":[1,-2,2.5,null,{"x":[true]}],"p50":null,"nested":{"k":"1-2"}}"#
        );
        assert_eq!(v.get("id").and_then(Value::as_str), Some("fig7"));
        assert!(v.get("missing").is_none());
        assert_eq!(parse(&to_string(&v)), Ok(v.clone()));
        assert_eq!(parse(&v.to_pretty()), Ok(v));
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = crate::json!({"a": [1, 2], "b": {}, "c": []});
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
    }

    #[test]
    fn mutated_documents_decode_or_fail_without_panicking() {
        let doc = to_value(&sample()).to_pretty();
        assert_eq!(from_str::<Sample>(&doc), Ok(sample()));
        crate::forall(10_000, 16, |rng| {
            let _ = from_str::<Sample>(&crate::mutate(&doc, rng));
        });
    }

    #[test]
    fn wrong_shapes_are_decode_errors() {
        assert!(from_str::<Sample>("[]").is_err());
        let err = from_str::<Sample>(r#"{"tags":[[1]]}"#).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.msg.starts_with("tags:"), "{err}");
        assert!(from_str::<BTreeMap<u32, u64>>(r#"{"x":1}"#).is_err());
        assert!(from_str::<Vec<u64>>("{}").is_err());
    }
}
