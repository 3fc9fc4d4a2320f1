//! Minimal JSON: one lexer ([`Reader`]), one writer (the `push_*`
//! functions), and a small document model ([`Value`]) layered over both.
//!
//! The build environment has no crates.io access, so this stands in for
//! `serde_json` where the trace subsystem needs *real* JSON: full string
//! escaping, non-finite floats as `null`, a strict parser.
//!
//! * The **writer** appends to a byte buffer: [`push_u64`], [`push_f64`]
//!   (non-finite → `null`, integral floats keep a `.0`), [`push_str`]
//!   (quoted and escaped, one `memcpy` when nothing needs escaping).
//!   `Trace::to_chrome_json` streams records through these without ever
//!   building a tree.
//! * The **reader** is a pull lexer over `&str`: [`Reader::object`] and
//!   [`Reader::array`] drive a callback per member / item, strings come
//!   back borrowed from the input unless they contain an escape, plain
//!   non-negative integers take a digit loop, [`Reader::skip_value`]
//!   validates what it skips, and nesting is limited to [`MAX_DEPTH`] so
//!   hostile input ends in an `Err`, not a stack overflow.
//!   `Trace::from_chrome_json` walks a document once through it;
//!   [`Slots`] is its reusable flat scratch for one object's known members.
//! * [`Value`] is the tree for the small documents the CLIs build and
//!   inspect; [`Value::parse`] and [`Value::to_json`] are thin layers over
//!   the reader and writer. Object member order is preserved (members are
//!   a `Vec`, not a map).

use std::borrow::Cow;
use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;

/// Deepest array/object nesting [`Reader`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Numbers keep their lexical class: integers parse to [`Value::UInt`] /
/// [`Value::Int`] (so `u64` virtual-time nanoseconds survive bit-exactly),
/// everything else to [`Value::Float`].
///
/// Strings (values and object keys) are reference-counted `Rc<str>` so that
/// repeated payloads can be *interned*: [`obj`] and the parser hand out
/// shared copies of recently seen keys instead of allocating each key per
/// object (see [`intern`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A non-integral (or out-of-range) number.
    Float(f64),
    /// A string.
    Str(Rc<str>),
    /// An array.
    Arr(Vec<Value>),
    /// An object; member order is preserved.
    Obj(Vec<(Rc<str>, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| &**k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64` (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        into_string(out)
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Value::UInt(v) => push_u64(out, *v),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => push_f64(out, *v),
            Value::Str(s) => push_str(out, s),
            Value::Arr(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write(out);
                }
                out.push(b']');
            }
            Value::Obj(members) => {
                out.push(b'{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    push_str(out, k);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// garbage is an error.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut reader = Reader::new(input);
        let value = reader.value()?;
        reader.end()?;
        Ok(value)
    }
}

/// Finishes a buffer filled by the `push_*` writers.
pub fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

/// Appends `v` in decimal.
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `v` as a JSON number. JSON has no NaN/Infinity; they become
/// `null` rather than an invalid document. `Display` prints integral floats
/// without a point; `.0` keeps the float class for the round trip.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

/// Appends `s` as a JSON string literal with full escaping. Every byte that
/// needs escaping is ASCII, so runs between them are copied whole.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        plain = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.extend_from_slice(escape);
        }
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

/// One object member's value as a streaming consumer sees it: the scalars
/// the trace format uses, by value. Everything else — `null`, floats,
/// negative integers, arrays, objects — is validated, skipped and reported
/// as [`Field::Other`], which is what `Value::as_u64` / `as_str` /
/// `as_bool` answering `None` meant for a tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// A non-negative integer.
    U64(u64),
    /// A string (borrowed from the input unless it contained an escape).
    Str(Cow<'a, str>),
    /// `true` / `false`.
    Bool(bool),
    /// Any other value.
    Other,
}

/// Flat scratch for the members of one object whose keys of interest are
/// known in advance: one slot per key, filled by [`Slots::member`] in
/// whatever order the members arrive. The **first** occurrence of a key
/// wins, whatever its type ([`Value::get`] semantics); unknown keys and
/// repeats are validated and skipped. Lookups are by slot index — resolve
/// names at compile time with [`key_index`]. Reusable: [`Slots::clear`]
/// costs one store, so a reader fills the same scratch for every record of
/// a document.
#[derive(Debug)]
pub struct Slots<'a, const N: usize> {
    keys: &'static [&'static str; N],
    /// Bit `i` set: `fields[i]` holds this object's member `keys[i]`.
    seen: u64,
    fields: [Field<'a>; N],
}

impl<'a, const N: usize> Slots<'a, N> {
    /// An empty scratch for `keys` (at most 64).
    pub fn new(keys: &'static [&'static str; N]) -> Self {
        assert!(N <= 64, "one seen-bit per key");
        Slots {
            keys,
            seen: 0,
            fields: std::array::from_fn(|_| Field::Other),
        }
    }

    /// Forgets every member.
    pub fn clear(&mut self) {
        self.seen = 0;
    }

    /// Consumes the value of the member named `key`.
    pub fn member(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), String> {
        match self.keys.iter().position(|k| *k == key) {
            Some(i) if self.seen & (1 << i) == 0 => {
                self.seen |= 1 << i;
                self.fields[i] = r.field()?;
                Ok(())
            }
            _ => r.skip_value(),
        }
    }

    /// Consumes any value: an object's members into the (cleared) slots,
    /// nothing for any other value.
    pub fn read(&mut self, r: &mut Reader<'a>) -> Result<(), String> {
        self.clear();
        if r.peek() != Some(b'{') {
            return r.skip_value();
        }
        r.object(|r, key| self.member(r, &key))
    }

    /// The member in slot `i`, if the object had one.
    pub fn get(&self, i: usize) -> Option<&Field<'a>> {
        (self.seen >> i & 1 == 1).then(|| &self.fields[i])
    }

    /// Slot `i`, if it is a non-negative integer.
    pub fn u64(&self, i: usize) -> Option<u64> {
        match self.get(i) {
            Some(&Field::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// Slot `i`, if it is a string.
    pub fn str(&self, i: usize) -> Option<&str> {
        match self.get(i) {
            Some(Field::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Slot `i`, if it is a boolean.
    pub fn bool(&self, i: usize) -> Option<bool> {
        match self.get(i) {
            Some(&Field::Bool(b)) => Some(b),
            _ => None,
        }
    }
}

/// Index of `key` in `keys`, for slot constants; an unknown key fails the
/// build when evaluated in a `const` context.
pub const fn key_index(keys: &[&str], key: &str) -> usize {
    let mut i = 0;
    while i < keys.len() {
        let (a, b) = (keys[i].as_bytes(), key.as_bytes());
        let mut same = a.len() == b.len();
        let mut at = 0;
        while same && at < a.len() {
            same = a[at] == b[at];
            at += 1;
        }
        if same {
            return i;
        }
        i += 1;
    }
    panic!("key is not in the table")
}

/// A strict pull lexer over a JSON text.
///
/// The caller drives it: [`Reader::peek`] says what comes next, and exactly
/// one of [`Reader::object`], [`Reader::array`], [`Reader::string`],
/// [`Reader::field`], [`Reader::value`] or [`Reader::skip_value`] consumes
/// it. Errors are one-line strings carrying a byte offset.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// Skips whitespace and returns the next byte without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Succeeds when only whitespace remains.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes().get(self.pos).map(|&b| b as char)
            ))
        }
    }

    /// Consumes the opening bracket of a compound and reports whether the
    /// compound is empty (its closing bracket is consumed too).
    fn open(&mut self, open: u8, close: u8) -> Result<bool, String> {
        self.peek();
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            ));
        }
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(true);
        }
        self.depth += 1;
        Ok(false)
    }

    /// After a member or item: consumes `,` (more follow, `true`) or the
    /// closing bracket (`false`).
    fn more(&mut self, close: u8) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            other => Err(format!(
                "expected ',' or '{}' at byte {}, found {:?}",
                close as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    /// Consumes an object, calling `member(self, key)` for each member in
    /// document order; the callback must consume the member's value.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.open(b'{', b'}')? {
            return Ok(());
        }
        loop {
            self.peek();
            let key = self.string()?;
            self.peek();
            self.expect(b':')?;
            member(self, key)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Consumes an array, calling `item(self)` for each element; the
    /// callback must consume the element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.open(b'[', b']')? {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// Consumes a string. Borrowed from the input when it contains no
    /// escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = self.bytes();
        // `"` and `\` are ASCII, so every cut below is a char boundary.
        let run_end = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|n| from + n)
                .ok_or("unterminated string")
        };
        let start = self.pos;
        self.pos = run_end(start)?;
        if bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
            self.pos += 1; // the backslash
            match bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let mut code = self.hex4(self.pos + 1).ok_or("truncated \\u escape")??;
                    self.pos += 4;
                    // Surrogate pair?
                    if (0xD800..0xDC00).contains(&code)
                        && bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                    {
                        if let Some(Ok(low)) = self.hex4(self.pos + 3) {
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                self.pos += 6;
                            }
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
            let run = self.pos;
            self.pos = run_end(run)?;
            out.push_str(&text[run..self.pos]);
        }
    }

    /// The four hex digits at `at`: `None` when the input ends first.
    fn hex4(&self, at: usize) -> Option<Result<u32, String>> {
        let hex = self.bytes().get(at..at + 4)?;
        Some(
            std::str::from_utf8(hex)
                .map_err(|e| e.to_string())
                .and_then(|hex| u32::from_str_radix(hex, 16).map_err(|e| e.to_string())),
        )
    }

    /// Consumes `null`, `true`, `false` or a number. With `keep_floats` off
    /// (the caller wants integers only) a `digits.digits` token is checked
    /// and reported as `null` instead of being converted.
    fn atom(&mut self, keep_floats: bool) -> Result<Value, String> {
        let (lit, value) = match self.peek() {
            None => return Err("unexpected end of input".into()),
            Some(b'n') => ("null", Value::Null),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(_) => return self.number(keep_floats),
        };
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self, keep_floats: bool) -> Result<Value, String> {
        let bytes = self.bytes();
        let start = self.pos;
        // Fast path: the token is a run of digits that fits a `u64`.
        let mut v = Some(0u64);
        let mut at = start;
        while let Some(d) = bytes
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d)));
            at += 1;
        }
        let is_number_byte = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
        if let (Some(v), true, false) = (v, at > start, bytes.get(at).is_some_and(is_number_byte)) {
            self.pos = at;
            return Ok(Value::UInt(v));
        }
        if !keep_floats && at > start && bytes.get(at) == Some(&b'.') {
            let frac = at + 1;
            let end = frac
                + bytes[frac..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            if end > frac && !bytes.get(end).is_some_and(is_number_byte) {
                self.pos = end;
                return Ok(Value::Null);
            }
        }
        let digits = start + usize::from(bytes.get(start) == Some(&b'-'));
        let mut at = digits;
        while bytes.get(at).is_some_and(is_number_byte) {
            at += 1;
        }
        self.pos = at;
        let text = &self.text[start..at];
        if at == digits {
            return Err(format!("invalid number at byte {start}"));
        }
        if bytes[digits..at].iter().all(u8::is_ascii_digit) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("invalid number {text:?}: {e}"))
    }

    /// Consumes any value into a tree.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|r, key| {
                    members.push((intern(&key), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(Rc::from(&*self.string()?))),
            _ => self.atom(true),
        }
    }

    /// Consumes any value, validating it and keeping nothing.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.string().map(drop),
            _ => self.atom(false).map(drop),
        }
    }

    /// Consumes any value as a [`Field`].
    pub fn field(&mut self) -> Result<Field<'a>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Field::Str),
            Some(b'{' | b'[') => self.skip_value().map(|()| Field::Other),
            _ => Ok(match self.atom(false)? {
                Value::Bool(b) => Field::Bool(b),
                v => v.as_u64().map_or(Field::Other, Field::U64),
            }),
        }
    }
}

/// Small thread-local string interner for object keys and other short,
/// frequently repeated strings: a document repeats the same few member
/// keys once per object, and handing out shared `Rc<str>` copies turns
/// those allocations into refcount bumps. Bounded: once full, new strings
/// are allocated fresh (correct, just not shared), so hostile inputs cannot
/// grow it without limit. Linear scan — the table is tiny and the hit is
/// almost always within the first few entries.
const INTERN_MAX: usize = 64;

thread_local! {
    static INTERNED: RefCell<Vec<Rc<str>>> = const { RefCell::new(Vec::new()) };
}

/// Returns a shared copy of `s`, interning it if the table has room.
pub fn intern(s: &str) -> Rc<str> {
    INTERNED
        .try_with(|table| {
            let mut table = table.borrow_mut();
            if let Some(hit) = table.iter().find(|k| &***k == s) {
                return hit.clone();
            }
            let fresh: Rc<str> = s.into();
            if table.len() < INTERN_MAX {
                table.push(fresh.clone());
            }
            fresh
        })
        .unwrap_or_else(|_| s.into())
}

/// Builds an object value from `(key, value)` pairs (order preserved).
/// Keys are interned (see [`intern`]).
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (intern(k), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_hostile_strings() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{8}bs",
            "control \u{1} char",
            "unicode: héllo ✓ 数",
        ] {
            let json = Value::Str(s.into()).to_json();
            assert_eq!(Value::parse(&json).unwrap(), Value::Str(s.into()), "{json}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::Float(f64::NEG_INFINITY).to_json(), "null");
        assert_eq!(Value::Float(1.5).to_json(), "1.5");
    }

    #[test]
    fn integers_survive_bit_exactly() {
        let v = Value::UInt(u64::MAX);
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        let v = Value::Int(-42);
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = obj(vec![
            (
                "a",
                Value::Arr(vec![Value::UInt(1), Value::Null, Value::Bool(true)]),
            ),
            ("b", obj(vec![("nested", Value::Str("x\"y".into()))])),
            ("c", Value::Float(0.125)),
        ]);
        let text = doc.to_json();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        assert!(Value::parse(" { \"k\" : [ 1 , 2 ] } ").is_ok());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("{\"k\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
    }

    #[test]
    fn interned_keys_are_shared_and_round_trip() {
        // Two objects sharing a key get the same backing allocation.
        let a = obj(vec![("sharedKey", Value::UInt(1))]);
        let b = obj(vec![("sharedKey", Value::UInt(2))]);
        let key = |v: &Value| match v {
            Value::Obj(m) => m[0].0.clone(),
            _ => unreachable!(),
        };
        assert!(Rc::ptr_eq(&key(&a), &key(&b)), "keys must be interned");
        // Interning is invisible to serialization and equality.
        assert_eq!(Value::parse(&a.to_json()).unwrap(), a);
        // The table is bounded: unseen strings past the cap still work.
        for i in 0..(INTERN_MAX + 8) {
            let k = format!("k{i}");
            let v = obj(vec![(k.as_str(), Value::Null)]);
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        }
    }

    #[test]
    fn writer_primitives() {
        let num = |v| {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            into_string(out)
        };
        for v in [0, 9, 10, 99, 100, 12_345, u64::MAX] {
            assert_eq!(num(v), v.to_string());
        }
        let float = |v| {
            let mut out = b"[1.5,".to_vec();
            push_f64(&mut out, v);
            into_string(out)
        };
        assert_eq!(float(2.0), "[1.5,2.0");
        assert_eq!(float(-3.0), "[1.5,-3.0");
        assert_eq!(float(0.001), "[1.5,0.001");
        assert_eq!(float(1e21), "[1.5,1000000000000000000000.0");
        assert_eq!(float(f64::NAN), "[1.5,null");
        let mut out = Vec::new();
        push_str(&mut out, "a\"b\\c\nd\re\tf\u{8}g\u{c}h\u{1}i\u{1f}é😀");
        assert_eq!(
            into_string(out),
            r#""a\"b\\c\nd\re\tf\bg\fh\u0001i\u001fé😀""#
        );
    }

    /// `depth` opening brackets drawn from `open` in turn, then the matching
    /// closers; objects nest through a member named `k`.
    fn nested(depth: usize, open: &[u8]) -> String {
        let mut text = String::new();
        let kinds: Vec<u8> = (0..depth).map(|i| open[i % open.len()]).collect();
        for &k in &kinds {
            text.push_str(if k == b'[' { "[" } else { "{\"k\":" });
        }
        text.push('1');
        for &k in kinds.iter().rev() {
            text.push(if k == b'[' { ']' } else { '}' });
        }
        text
    }

    #[test]
    fn nesting_is_limited_not_recursed_into() {
        for open in [&b"["[..], &b"{"[..], &b"[{"[..]] {
            let at_limit = nested(MAX_DEPTH, open);
            assert!(
                Value::parse(&at_limit).is_ok(),
                "{MAX_DEPTH} levels must parse"
            );
            assert_eq!(Reader::new(&at_limit).skip_value(), Ok(()));
            let past = nested(MAX_DEPTH + 1, open);
            let err = Value::parse(&past).unwrap_err();
            assert!(err.starts_with("nesting deeper than 128 at byte "), "{err}");
            assert_eq!(Reader::new(&past).skip_value().unwrap_err(), err);
        }
        // An empty compound still counts as a level.
        let empty_inside = format!("{}[]{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&empty_inside).is_err());
        // 200,000 unclosed brackets are an error, not a stack overflow.
        let hostile = "[".repeat(200_000);
        assert_eq!(
            Value::parse(&hostile).unwrap_err(),
            "nesting deeper than 128 at byte 128"
        );
        // Siblings do not accumulate depth.
        let wide = format!("[{}[]]", "[[]],".repeat(10_000));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn reader_and_tree_decode_strings_identically() {
        for (literal, want) in [
            (r#""plain""#, "plain"),
            (r#""""#, ""),
            (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
            (r#""\u0041\u00e9\u4e2d""#, "Aé中"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""x\ud83d\ude00y\n""#, "x😀y\n"),
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""héllo ✓ 数 😀""#, "héllo ✓ 数 😀"),
            (r#""tail\\""#, "tail\\"),
        ] {
            let mut reader = Reader::new(literal);
            let got = reader.string().unwrap();
            assert_eq!(got, want, "{literal}");
            assert_eq!(reader.end(), Ok(()));
            // Borrowed exactly when nothing needed decoding.
            assert_eq!(
                matches!(got, Cow::Borrowed(_)),
                !literal.contains('\\'),
                "{literal}"
            );
            assert_eq!(Value::parse(literal).unwrap(), Value::Str(want.into()));
            assert_eq!(
                Reader::new(literal).field().unwrap(),
                Field::Str(want.into())
            );
            assert_eq!(Reader::new(literal).skip_value(), Ok(()));
            // And the writer's escaping reads back to the same string.
            assert_eq!(
                Value::parse(&Value::Str(want.into()).to_json()).unwrap(),
                Value::Str(want.into())
            );
        }
        for bad in [
            r#""open"#,
            r#""\x""#,
            r#""\u12""#,
            r#""\uzzzz""#,
            r#""\"#,
            "\"\\u00é\"",
        ] {
            let err = Reader::new(bad).string().unwrap_err();
            assert_eq!(Value::parse(bad).unwrap_err(), err, "{bad}");
            assert_eq!(Reader::new(bad).skip_value().unwrap_err(), err, "{bad}");
        }
    }

    #[test]
    fn numbers_keep_their_class_on_every_path() {
        for (text, want) in [
            ("0", Value::UInt(0)),
            ("007", Value::UInt(7)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("-0", Value::Int(0)),
            ("-42", Value::Int(-42)),
            ("-9223372036854775809", Value::Float(-9223372036854775809.0)),
            ("1.5", Value::Float(1.5)),
            ("0.001", Value::Float(0.001)),
            ("12.", Value::Float(12.0)),
            ("1e3", Value::Float(1000.0)),
            ("1.5E-3", Value::Float(0.0015)),
            ("+5", Value::Float(5.0)),
            (".5", Value::Float(0.5)),
        ] {
            assert_eq!(Value::parse(text).unwrap(), want, "{text}");
            // A streaming consumer sees the integers `as_u64` would.
            let field = want.as_u64().map_or(Field::Other, Field::U64);
            assert_eq!(Reader::new(text).field().unwrap(), field, "{text}");
            let doc = format!("[{text}]");
            assert_eq!(Reader::new(&doc).skip_value(), Ok(()), "{doc}");
        }
        for bad in [
            "-", "1e", "1.5.5", "--1", "1-1", "e", "1.e", "x", "tru", "nul", "fals",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert_eq!(Reader::new(bad).skip_value().unwrap_err(), err, "{bad}");
            assert_eq!(Reader::new(bad).field().unwrap_err(), err, "{bad}");
        }
        assert_eq!(Reader::new("true").field().unwrap(), Field::Bool(true));
        assert_eq!(Reader::new("null").field().unwrap(), Field::Other);
        assert_eq!(Reader::new("[1,{\"a\":2}]").field().unwrap(), Field::Other);
    }

    #[test]
    fn slots_keep_the_first_occurrence_and_skip_the_rest() {
        const KEYS: [&str; 3] = ["a", "bb", "c"];
        const BB: usize = key_index(&KEYS, "bb");
        assert_eq!(
            (key_index(&KEYS, "a"), BB, key_index(&KEYS, "c")),
            (0, 1, 2)
        );
        let mut slots = Slots::new(&KEYS);
        let doc = r#"{"zz":{"a":9},"bb":null,"c":"s","a":1,"bb":2,"a":[3],"\u0063":true}"#;
        slots.read(&mut Reader::new(doc)).unwrap();
        assert_eq!(slots.u64(0), Some(1));
        // First `bb` was null: present, but not an integer; the later 2 lost.
        assert_eq!((slots.get(BB), slots.u64(BB)), (Some(&Field::Other), None));
        assert_eq!((slots.str(2), slots.bool(2)), (Some("s"), None));
        // Not an object: nothing is present, the value is still validated.
        slots.read(&mut Reader::new("[1,2]")).unwrap();
        assert_eq!(
            (slots.get(0), slots.get(1), slots.get(2)),
            (None, None, None)
        );
        assert!(slots.read(&mut Reader::new("[1,")).is_err());
        // An escaped spelling of a key is the same key.
        slots.read(&mut Reader::new(r#"{"\u0063":true}"#)).unwrap();
        assert_eq!(slots.bool(2), Some(true));
    }
}
