//! Dynamically-typed document values (a BSON/JSON-like model).

use std::fmt::{self, Write as _};

/// A dynamically typed value stored in a document.
///
/// # Examples
///
/// ```
/// use dlaas_docstore::{obj, Value};
///
/// let v = obj! {
///     "name" => "train-1",
///     "learners" => 4,
///     "gpu" => obj! { "kind" => "K80", "per_learner" => 2 },
/// };
/// assert_eq!(v.path("gpu.kind").and_then(Value::as_str), Some("K80"));
/// assert_eq!(v.path("learners").and_then(Value::as_i64), Some(4));
/// assert_eq!(v.path("missing"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Absent/null.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array.
    Arr(Vec<Value>),
    /// String-keyed map with deterministic (sorted) iteration order.
    Obj(Obj),
}

/// The fields of a [`Value::Obj`]: `(key, value)` pairs in a vector kept
/// sorted by key and sized to what it holds.
///
/// Documents are small (a job document has some twenty fields, a history
/// entry two) and there are many of them, so what an empty-ish container
/// costs is what a finished job costs: a `BTreeMap` allocates a 632-byte
/// leaf node for its first entry, this allocates the pairs and nothing
/// else. Lookup is a binary search; iteration is in key order, as a
/// `BTreeMap`'s is. Each field carries the first eight bytes of its key
/// beside it, so the search compares numbers in the vector and reads a
/// key's text only where two keys share those bytes, and once to confirm
/// the field it lands on.
#[derive(Clone, PartialEq, Default)]
pub struct Obj(Vec<Field>);

#[derive(Debug, Clone, PartialEq)]
struct Field {
    /// [`key_prefix`] of `key`.
    prefix: u64,
    key: Box<str>,
    value: Value,
}

impl Field {
    fn new(key: Box<str>, value: Value) -> Self {
        Field {
            prefix: key_prefix(&key),
            key,
            value,
        }
    }
}

/// The first eight bytes of `key`, zero-padded, as a big-endian number:
/// two keys whose prefixes differ are ordered as their prefixes are.
fn key_prefix(key: &str) -> u64 {
    let mut bytes = [0; 8];
    let head = &key.as_bytes()[..key.len().min(8)];
    bytes[..head.len()].copy_from_slice(head);
    u64::from_be_bytes(bytes)
}

impl fmt::Debug for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<_> = self.iter().collect();
        f.debug_tuple("Obj").field(&fields).finish()
    }
}

impl Obj {
    /// An object with no fields (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Where field `key` is, or where it would go to keep the order, and
    /// whether it is there.
    fn position(&self, key: &str) -> (usize, bool) {
        let prefix = key_prefix(key);
        let i = self
            .0
            .partition_point(|f| f.prefix < prefix || (f.prefix == prefix && &*f.key < key));
        let present = self
            .0
            .get(i)
            .is_some_and(|f| f.prefix == prefix && &*f.key == key);
        (i, present)
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let (i, present) = self.position(key);
        present.then(|| &self.0[i].value)
    }

    /// Sets field `key`, returning the value it replaces, if any.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        let (i, present) = self.position(&key);
        if present {
            return Some(std::mem::replace(&mut self.0[i].value, value));
        }
        self.0.reserve_exact(1);
        self.0.insert(i, Field::new(key.into_boxed_str(), value));
        None
    }

    /// The value of field `key`, which is added as [`Value::Null`] first
    /// if absent — `true` then.
    fn get_or_insert_null(&mut self, key: &str) -> (&mut Value, bool) {
        let (i, present) = self.position(key);
        if !present {
            self.0.reserve_exact(1);
            self.0.insert(i, Field::new(key.into(), Value::Null));
        }
        (&mut self.0[i].value, !present)
    }

    /// Removes field `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let (i, present) = self.position(key);
        if !present {
            return None;
        }
        let field = self.0.remove(i);
        self.0.shrink_to_fit();
        Some(field.value)
    }

    /// The fields in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.0.iter().map(|f| (&*f.key, &f.value))
    }
}

/// Collects `(key, value)` pairs; of two pairs with one key the later
/// wins, as with repeated [`Obj::insert`]s.
impl FromIterator<(String, Value)> for Obj {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(pairs: I) -> Self {
        let mut fields: Vec<_> = pairs
            .into_iter()
            .map(|(key, value)| Field::new(key.into_boxed_str(), value))
            .collect();
        // Stable, so equal keys stay in arrival order: of each run the
        // dedup keeps the first slot and moves the later value into it.
        fields.sort_by(|a, b| (a.prefix, &a.key).cmp(&(b.prefix, &b.key)));
        fields.dedup_by(|later, kept| {
            let same = later.key == kept.key;
            if same {
                std::mem::swap(&mut later.value, &mut kept.value);
            }
            same
        });
        fields.shrink_to_fit();
        Obj(fields)
    }
}

impl IntoIterator for Obj {
    type Item = (String, Value);
    type IntoIter = IntoFields;

    fn into_iter(self) -> Self::IntoIter {
        IntoFields(self.0.into_iter())
    }
}

/// The fields of an [`Obj`] by value, in key order.
#[derive(Debug)]
pub struct IntoFields(std::vec::IntoIter<Field>);

impl Iterator for IntoFields {
    type Item = (String, Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|f| (f.key.into_string(), f.value))
    }
}

impl Value {
    /// `true` if this is [`Value::Null`].
    fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(i) => Some(*i),
            _ => None,
        }
    }

    /// The float, if numeric (integers convert losslessly).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(f) => Some(*f),
            Value::I64(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&Obj> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// `true` if a NaN is anywhere in the value. A NaN equals nothing,
    /// not even itself, so the store keeps it out: `==` is then
    /// reflexive on everything stored.
    pub(crate) fn holds_nan(&self) -> bool {
        match self {
            Value::F64(x) => x.is_nan(),
            Value::Arr(a) => a.iter().any(Value::holds_nan),
            Value::Obj(o) => o.iter().any(|(_, v)| v.holds_nan()),
            Value::Null | Value::Bool(_) | Value::I64(_) | Value::Str(_) => false,
        }
    }

    /// Navigates a dotted path (`"a.b.c"`) through nested objects.
    pub fn path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.as_obj()?.get(seg)?;
        }
        Some(cur)
    }

    /// Mutable navigation of a dotted path, creating intermediate objects.
    /// Returns `None` when a non-object intermediate blocks the path.
    pub fn path_mut_or_create(&mut self, path: &str) -> Option<&mut Value> {
        self.descend(path, &mut false)
    }

    /// [`Value::path_mut_or_create`], setting `changed` if the walk added
    /// a field or turned a null into an object. A blocked path changes
    /// nothing: what the walk creates is an object and cannot block it.
    pub(crate) fn descend(&mut self, path: &str, changed: &mut bool) -> Option<&mut Value> {
        let mut cur = self;
        for seg in path.split('.') {
            let Value::Obj(m) = cur else {
                return None;
            };
            let (next, _) = m.get_or_insert_null(seg);
            if next.is_null() {
                *next = Value::Obj(Obj::new());
                *changed = true;
            }
            cur = next;
        }
        Some(cur)
    }

    /// The slot an update of `path` writes: the path's last field, added
    /// as null if absent (`changed` is set then, and by whatever the
    /// walk to its parent created). `None` when the path is blocked.
    pub(crate) fn leaf_slot(&mut self, path: &str, changed: &mut bool) -> Option<&mut Value> {
        let (parent, leaf) = match path.rsplit_once('.') {
            Some((parent, leaf)) => (self.descend(parent, changed)?, leaf),
            None => (self, path),
        };
        let Value::Obj(m) = parent else {
            return None;
        };
        let (slot, inserted) = m.get_or_insert_null(leaf);
        *changed |= inserted;
        Some(slot)
    }

    /// Serializes to compact JSON (deterministic: object keys are sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(i) => {
                push_fmt(out, format_args!("{i}"));
            }
            Value::F64(f) => {
                if f.is_finite() {
                    let start = out.len();
                    push_fmt(out, format_args!("{f}"));
                    // Keep floats distinguishable from integers on re-parse.
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse_json(input: &str) -> Result<Value, JsonError> {
        JsonParser::whole(input, JsonParser::value)
    }

    /// Parses a JSON object, lending each `(key, value)` pair to `field`
    /// in input order instead of building the object: a reader that takes
    /// a few typed fields out of a document reads it in one pass, keeps
    /// the values it takes and allocates no key. Anything but an object is
    /// an error.
    pub fn parse_json_fields(
        input: &str,
        mut field: impl FnMut(&str, Value),
    ) -> Result<(), JsonError> {
        JsonParser::whole(input, |p| p.fields(&mut field))
    }
}

/// Appends formatted `args` to `out`, in place.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "formatting into a `String` cannot fail"
    )]
    let _ = out.write_fmt(args);
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Value::parse_json`]: a message and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest. The platform's documents nest a
/// few levels; the parser recurses once per level, so a text nested
/// deeper is refused rather than allowed to overflow the stack.
const MAX_DEPTH: u32 = 128;

struct JsonParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: u32,
}

impl<'a> JsonParser<'a> {
    /// Runs `parse` over all of `input`, whitespace around it allowed.
    fn whole<T>(
        input: &'a str,
        parse: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut p = JsonParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = parse(&mut p)?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_owned(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        let mut pairs = Vec::new();
        self.fields(&mut |key, val| pairs.push((key.to_owned(), val)))?;
        Ok(Value::Obj(pairs.into_iter().collect()))
    }

    /// An object's fields, each lent to `field` as it is read; every key
    /// is read into one buffer.
    fn fields(&mut self, field: &mut dyn FnMut(&str, Value)) -> Result<(), JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let mut key = String::new();
        loop {
            self.skip_ws();
            key.clear();
            self.string_into(&mut key)?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            field(&key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.string_into(&mut out)?;
        Ok(out)
    }

    /// A string literal, appended to `out` in one pass over its bytes:
    /// each run of plain characters is copied whole, and only an escape is
    /// looked at byte by byte. The input is a `&str`, so a run — which
    /// ends only at an ASCII `"` or `\` — is valid UTF-8 without being
    /// checked again.
    fn string_into(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.eat(b'"')?;
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                // The run stopped at a backslash: one escape.
                Some(_) => {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        // A number too large for an `f64` is refused, not read as an
        // infinity: the writer never writes one (it writes `null`).
        text.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Value::F64)
            .ok_or_else(|| self.err("bad number"))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::I64(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::I64(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::I64(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::I64(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::I64(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::F64(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Builds a [`Value::Obj`] from `"key" => value` pairs.
///
/// # Examples
///
/// ```
/// use dlaas_docstore::obj;
///
/// let doc = obj! { "a" => 1, "b" => "two" };
/// assert_eq!(doc.path("b").unwrap().as_str(), Some("two"));
/// ```
#[macro_export]
macro_rules! obj {
    () => { $crate::Value::Obj($crate::Obj::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {
        $crate::Value::Obj(<$crate::Obj as ::core::iter::FromIterator<_>>::from_iter([
            $( (String::from($k), $crate::Value::from($v)) ),+
        ]))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64).as_i64(), Some(3));
        assert_eq!(Value::from(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(vec![1i64, 2]).as_arr().unwrap().len(), 2);
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert!(obj! {}.as_obj().unwrap().is_empty());
    }

    #[test]
    fn obj_is_sorted_exactly_sized_and_the_later_pair_wins() {
        let v = obj! { "b" => 1, "c" => 2, "a" => 3, "b" => 4 };
        let Value::Obj(mut o) = v else {
            panic!("obj! builds an object")
        };
        let keys = |o: &Obj| o.iter().map(|(k, _)| k).collect::<String>();
        assert_eq!(keys(&o), "abc");
        assert_eq!(o.get("b"), Some(&Value::I64(4)));
        assert_eq!(o.insert("ab".into(), Value::Null), None);
        assert_eq!(o.insert("a".into(), 5.into()), Some(Value::I64(3)));
        assert_eq!(o.remove("c"), Some(Value::I64(2)));
        assert_eq!(o.remove("c"), None);
        assert_eq!(keys(&o), "aabb");
        assert_eq!((o.get("c"), o.get("ab")), (None, Some(&Value::Null)));
        // Built, grown or shrunk, it holds no spare room: a document's
        // footprint is its contents.
        assert_eq!(o.0.capacity(), o.len());
        assert_eq!(o.clone().0.capacity(), 3);
        // The JSON reader builds objects the same way.
        let parsed = Value::parse_json(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        assert_eq!(parsed, obj! { "a" => 2, "z" => 3 });
    }

    #[test]
    fn path_navigation() {
        let v = obj! { "a" => obj!{ "b" => obj!{ "c" => 7 } } };
        assert_eq!(v.path("a.b.c").unwrap().as_i64(), Some(7));
        assert!(v.path("a.x").is_none());
        assert!(v.path("a.b.c.d").is_none());
    }

    #[test]
    fn path_mut_creates_intermediates() {
        let mut v = obj! {};
        *v.path_mut_or_create("x.y").unwrap() = Value::from(5i64);
        assert_eq!(v.path("x.y").unwrap().as_i64(), Some(5));
        // A scalar blocks deeper creation.
        let mut v = obj! { "s" => 1 };
        assert!(v.path_mut_or_create("s.deep").is_none());
    }

    #[test]
    fn parse_json_never_panics_on_hostile_input() {
        // Regression: the string and number scanners used to `unwrap()`
        // mid-parse; every malformed input must come back as Err.
        for bad in [
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "-",
            "1e",
            "[1,",
            "{\"k\":}",
            "",
        ] {
            assert!(Value::parse_json(bad).is_err(), "accepted {bad:?}");
        }
        // Multi-byte UTF-8 goes through the char scanner, not a panic.
        let v = Value::parse_json("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
    }

    #[test]
    fn json_roundtrip() {
        let v = obj! { "n" => 1, "s" => "x", "a" => vec![1i64,2], "o" => obj!{"k" => true} };
        let json = v.to_json();
        let back = Value::parse_json(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn json_roundtrip_edge_cases() {
        let v = obj! {
            "neg" => -42i64,
            "float" => 2.5,
            "whole_float" => 3.0,
            "esc" => "a\"b\\c\nd\te",
            "unicode" => "héllo ☃",
            "null" => Value::Null,
            "empty_arr" => Value::Arr(vec![]),
            "empty_obj" => obj!{},
            "nested" => vec![vec![1i64], vec![2i64, 3]],
        };
        let back = Value::parse_json(&v.to_json()).unwrap();
        assert_eq!(v, back);
        // Whole floats stay floats.
        assert_eq!(back.path("whole_float"), Some(&Value::F64(3.0)));
        assert_eq!(back.path("neg"), Some(&Value::I64(-42)));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the bound is on host time: a quadratic scan is the regression"
    )]
    fn a_long_string_parses_in_time_linear_in_its_length() {
        // About 2 MiB of escapes and multi-byte characters in one string
        // literal. A scanner that looks at the rest of the input for each
        // character takes hours over it; a linear one, milliseconds.
        let piece = "plain ascii, \"quoted\", a\\b, tab\there, héllo → wörld ☃\n";
        let text = piece.repeat(2 * 1024 * 1024 / piece.len());
        let json = Value::from(text.as_str()).to_json();
        assert!(json.len() > 2 * 1024 * 1024);
        let timer = std::time::Instant::now();
        let back = Value::parse_json(&json).unwrap();
        let took = timer.elapsed();
        assert_eq!(back.as_str(), Some(text.as_str()));
        assert!(
            took < std::time::Duration::from_secs(5),
            "{took:?} to parse a {} byte string",
            json.len()
        );
    }

    #[test]
    fn strings_round_trip_with_escapes_at_run_boundaries() {
        // Escapes and multi-byte characters first, last, back to back and
        // alone: every place a run of plain characters can start or end.
        for s in [
            "",
            "\"",
            "\\",
            "é",
            "\"é\\",
            "é\"",
            "\\é",
            "☃☃",
            "a\"",
            "\"a",
            "\\\\\"\"",
            "\n\t\r\u{1}\u{1f}",
            "x\u{1}y",
            "→\n←",
            "tail é",
            "é head",
        ] {
            let v = obj! { s => s, "k" => vec![Value::from(s), Value::from(s)] };
            let json = v.to_json();
            assert_eq!(Value::parse_json(&json).unwrap(), v, "{s:?} as {json}");
        }
        assert_eq!(
            Value::parse_json(r#""é\/\b\f""#).unwrap().as_str(),
            Some("é/\u{8}\u{c}")
        );
        assert!(Value::parse_json("\"é\\").is_err());
        assert!(Value::parse_json("\"é\\u00\"").is_err());
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Value::parse_json("").is_err());
        assert!(Value::parse_json("{").is_err());
        assert!(Value::parse_json("[1,]").is_err());
        assert!(Value::parse_json("truex").is_err());
        assert!(Value::parse_json(r#"{"a":1} extra"#).is_err());
        assert!(Value::parse_json(r#""unterminated"#).is_err());
    }

    #[test]
    fn json_parse_accepts_whitespace_and_escapes() {
        let v = Value::parse_json(" { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] } ").unwrap();
        assert_eq!(v.path("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.path("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("xA")
        );
    }

    #[test]
    fn display_is_json() {
        assert_eq!(Value::from(5i64).to_string(), "5");
        assert_eq!(obj! {"a" => 1}.to_string(), r#"{"a":1}"#);
    }
}
