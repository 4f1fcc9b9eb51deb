//! Dynamically-typed document values (a BSON/JSON-like model).

use std::fmt;

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
/// `BTreeMap`'s is.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Obj(Vec<(String, Value)>);

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
        let i = self.0.partition_point(|(k, _)| k.as_str() < key);
        (i, self.0.get(i).is_some_and(|(k, _)| k == key))
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let (i, present) = self.position(key);
        present.then(|| &self.0[i].1)
    }

    /// Sets field `key`, returning the value it replaces, if any.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        let (i, present) = self.position(&key);
        if present {
            return Some(std::mem::replace(&mut self.0[i].1, value));
        }
        self.0.reserve_exact(1);
        self.0.insert(i, (key, value));
        None
    }

    /// The value of field `key`, which is added as [`Value::Null`] first
    /// if absent — `true` then.
    fn get_or_insert_null(&mut self, key: &str) -> (&mut Value, bool) {
        let (i, present) = self.position(key);
        if !present {
            self.0.reserve_exact(1);
            self.0.insert(i, (key.to_owned(), Value::Null));
        }
        (&mut self.0[i].1, !present)
    }

    /// Removes field `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let (i, present) = self.position(key);
        if !present {
            return None;
        }
        let (_, value) = self.0.remove(i);
        self.0.shrink_to_fit();
        Some(value)
    }

    /// The fields in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&String, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

/// Collects `(key, value)` pairs; of two pairs with one key the later
/// wins, as with repeated [`Obj::insert`]s.
impl FromIterator<(String, Value)> for Obj {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(pairs: I) -> Self {
        let mut pairs: Vec<_> = pairs.into_iter().collect();
        // Stable, so equal keys stay in arrival order: of each run the
        // dedup keeps the first slot and moves the later value into it.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        pairs.shrink_to_fit();
        Obj(pairs)
    }
}

impl IntoIterator for Obj {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl Value {
    /// `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
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

    /// Total ordering used by comparisons and indexes. Numeric types
    /// compare by value; mixed non-numeric types compare by type rank.
    pub fn cmp_order(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Value::*;
        match (self, other) {
            (Null, Null) => Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (F64(a), F64(b)) => a.partial_cmp(b).unwrap_or(Equal),
            (I64(a), F64(b)) => (*a as f64).partial_cmp(b).unwrap_or(Equal),
            (F64(a), I64(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Arr(a), Arr(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.cmp_order(y);
                    if o != Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Obj(a), Obj(b)) => {
                let mut ai = a.iter();
                let mut bi = b.iter();
                loop {
                    match (ai.next(), bi.next()) {
                        (None, None) => return Equal,
                        (None, Some(_)) => return Less,
                        (Some(_), None) => return Greater,
                        (Some((ka, va)), Some((kb, vb))) => {
                            let o = ka.cmp(kb).then_with(|| va.cmp_order(vb));
                            if o != Equal {
                                return o;
                            }
                        }
                    }
                }
            }
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::F64(_) => 2,
            Value::Str(_) => 3,
            Value::Arr(_) => 4,
            Value::Obj(_) => 5,
        }
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
                out.push_str(&i.to_string());
            }
            Value::F64(f) => {
                if f.is_finite() {
                    let s = f.to_string();
                    out.push_str(&s);
                    // Keep floats distinguishable from integers on re-parse.
                    if !s.contains(['.', 'e', 'E']) {
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
        let bytes = input.as_bytes();
        let mut p = JsonParser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
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

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
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
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
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
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(Obj::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs.into_iter().collect()));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
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
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("bad number"))
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
        assert_eq!(Value::from(true).as_bool(), Some(true));
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
        let keys = |o: &Obj| o.iter().map(|(k, _)| k.as_str()).collect::<String>();
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
    fn ordering_numeric_cross_type() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::from(1i64).cmp_order(&Value::from(1.0)), Equal);
        assert_eq!(Value::from(1i64).cmp_order(&Value::from(2.0)), Less);
        assert_eq!(Value::from("b").cmp_order(&Value::from("a")), Greater);
        assert_eq!(
            Value::from(vec![1i64, 2]).cmp_order(&Value::from(vec![1i64, 2, 3])),
            Less
        );
        assert_eq!(Value::Null.cmp_order(&Value::from(false)), Less);
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
