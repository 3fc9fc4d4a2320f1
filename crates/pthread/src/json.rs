//! Minimal JSON: one lexer ([`Reader`]), one writer (the `push_*`
//! functions), and a small document model ([`Value`]) layered over both.
//!
//! The build environment has no crates.io access, so this stands in for
//! `serde_json` where the trace subsystem needs *real* JSON: full string
//! escaping, non-finite floats as `null`, a strict parser.
//!
//! * The **writer** appends to a byte buffer: [`push_u64`] (digits written
//!   where they end up), [`push_f64`] (non-finite → `null`, integral floats
//!   keep a `.0`), [`push_str`] (quoted and escaped).
//!   `Trace::to_chrome_json` streams records through these without ever
//!   building a tree.
//! * The **reader** is a pull lexer over `&str`: [`Reader::object`] and
//!   [`Reader::array`] drive a callback per member / item. A scalar token
//!   never becomes a [`Value`]: [`Reader::field`] hands it over as a
//!   [`Field`] — a `Copy` scalar whose strings are slices of the input (of
//!   the [`Scratch`] the caller lends, for the rare string with an escape) —
//!   a run of digits goes straight to a `u64`, a float nobody converts is
//!   checked and passed over, and [`Reader::skip_value`] validates what it
//!   skips. The first error is latched in the reader and reported by
//!   [`Reader::finish`], so the lexing methods answer `Option`s that fit a
//!   register. Nesting is limited to [`MAX_DEPTH`], so hostile input ends in
//!   an error, not a stack overflow. `Trace::from_chrome_json` walks a
//!   document once through it; [`Slots`] is its reusable flat scratch for
//!   one object's known members.
//! * [`Value`] is the tree for the small documents the CLIs build and
//!   inspect; [`Value::parse`] and [`Value::to_json`] are thin layers over
//!   the reader and writer. Object member order is preserved (members are
//!   a `Vec`, not a map).

use std::cell::{OnceCell, RefCell};
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
        let mut scratch = Scratch::default();
        let mut reader = Reader::new(input, &mut scratch);
        let value = reader.value();
        reader.finish()?;
        Ok(value.expect("a reader that could not read a value reports why"))
    }
}

/// Finishes a buffer filled by the `push_*` writers.
pub fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

/// Appends `v` in decimal. The digits are written where they end up: room
/// for the longest `u64` is appended (a copy of constant size, so no call),
/// the digits fill its front from the last one back, and the rest is cut
/// off again — no buffer of their own, and no `memmove` call for a run of
/// 1–20 bytes per number.
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let start = out.len();
    let end = start + v.checked_ilog10().map_or(1, |log| log as usize + 1);
    out.extend_from_slice(&[b'0'; 20]);
    for digit in out[start..end].iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.truncate(end);
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field<'a> {
    /// A non-negative integer.
    U64(u64),
    /// A string: a slice of the input, or of the reader's [`Scratch`] when
    /// it contained an escape.
    Str(&'a str),
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
            fields: [Field::Other; N],
        }
    }

    /// Forgets every member.
    pub fn clear(&mut self) {
        self.seen = 0;
    }

    /// Consumes the value of the member named `key`, straight into its slot.
    #[inline]
    pub fn member(&mut self, r: &mut Reader<'a>, key: &str) -> Option<()> {
        match self.keys.iter().position(|k| same_key(k, key)) {
            Some(i) if self.seen & (1 << i) == 0 => {
                self.seen |= 1 << i;
                self.fields[i] = r.field()?;
                Some(())
            }
            _ => r.skip_value(),
        }
    }

    /// Consumes any value: an object's members into the (cleared) slots,
    /// nothing for any other value.
    pub fn read(&mut self, r: &mut Reader<'a>) -> Option<()> {
        self.clear();
        if r.peek() != Some(b'{') {
            return r.skip_value();
        }
        r.object(|r, key| self.member(r, key))
    }

    /// The member in slot `i`, if the object had one.
    pub fn get(&self, i: usize) -> Option<Field<'a>> {
        (self.seen >> i & 1 == 1).then(|| self.fields[i])
    }

    /// Slot `i`, if it is a non-negative integer.
    pub fn u64(&self, i: usize) -> Option<u64> {
        match self.get(i) {
            Some(Field::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// Slot `i`, if it is a string.
    pub fn str(&self, i: usize) -> Option<&'a str> {
        match self.get(i) {
            Some(Field::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Slot `i`, if it is a boolean.
    pub fn bool(&self, i: usize) -> Option<bool> {
        match self.get(i) {
            Some(Field::Bool(b)) => Some(b),
            _ => None,
        }
    }
}

/// Index of `key` in `keys`, for slot constants; an unknown key fails the
/// build when evaluated in a `const` context.
pub const fn key_index(keys: &[&str], key: &str) -> usize {
    let mut i = 0;
    while i < keys.len() {
        if same_key(keys[i], key) {
            return i;
        }
        i += 1;
    }
    panic!("key is not in the table")
}

/// Whether `a` and `b` are the same key: told apart by length, then byte by
/// byte. Keys are a few bytes long, and [`Slots::member`] asks this of every
/// candidate of its table for every member of a document — a `memcmp` call
/// each time costs more than the comparison. (`const` for [`key_index`].)
#[inline]
const fn same_key(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut same = a.len() == b.len();
    let mut at = 0;
    while same && at < a.len() {
        same = a[at] == b[at];
        at += 1;
    }
    same
}

/// Where a [`Reader`] keeps the decoded form of the strings it hands out
/// that contained an escape: such a string is not a slice of the input, and
/// a reader cannot lend out storage of its own while it keeps lexing, so
/// the caller lends it this for as long as the strings are wanted. Almost
/// always empty — the trace format escapes nothing but a hostile scheduler
/// name. An append-only chain, one link per string; a link never moves.
#[derive(Debug, Default)]
pub struct Scratch {
    first: OnceCell<Box<Kept>>,
}

#[derive(Debug)]
struct Kept {
    text: Box<str>,
    next: OnceCell<Box<Kept>>,
}

impl Drop for Scratch {
    /// Link by link: the chain is as long as a hostile document makes it,
    /// and the derived drop would recurse once per link.
    fn drop(&mut self) {
        let mut next = self.first.take();
        while let Some(mut kept) = next {
            next = kept.next.take();
        }
    }
}

/// What [`Reader::scalar`] consumed.
#[derive(Clone, Copy)]
enum Scalar {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
}

/// A strict pull lexer over a JSON text.
///
/// The caller drives it: [`Reader::peek`] says what comes next, and exactly
/// one of [`Reader::object`], [`Reader::array`], [`Reader::string`],
/// [`Reader::field`], [`Reader::value`] or [`Reader::skip_value`] consumes
/// it, answering `None` when it could not. *Why* it could not is kept in
/// the reader — the first error is latched ([`Reader::fail`]), a one-line
/// string carrying a byte offset, formatted once — and comes out of
/// [`Reader::finish`]; the consuming methods themselves return nothing
/// wider than a word, so `?` on their answers is all the plumbing a caller
/// needs.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The first failure, if there was one.
    error: Option<String>,
    /// Decoded form of the last string lexed that contained an escape.
    decoded: String,
    /// The empty end of the [`Scratch`] chain.
    kept: &'a OnceCell<Box<Kept>>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`. `scratch` is emptied and then holds
    /// whatever escaped strings this reader hands out.
    pub fn new(text: &'a str, scratch: &'a mut Scratch) -> Self {
        *scratch = Scratch::default();
        let scratch: &'a Scratch = scratch;
        Reader {
            text,
            pos: 0,
            depth: 0,
            error: None,
            decoded: String::new(),
            kept: &scratch.first,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// Records `message` as the error unless an earlier one stands — the
    /// first failure is the one reported — and moves to the end of the
    /// input, so that whatever is called next fails too instead of lexing
    /// from the middle of a token. Answers `None`, for `return r.fail(..)`;
    /// consumers use it for their own complaints about a document (a record
    /// without a member it needs) as the lexer does for syntax.
    #[cold]
    #[inline(never)]
    pub fn fail<T>(&mut self, message: impl Into<String>) -> Option<T> {
        self.error.get_or_insert_with(|| message.into());
        self.pos = self.text.len();
        None
    }

    /// `value`, or `message` as the error ([`Reader::fail`]) when there is
    /// none: a consumer's `ok_or(..)?`.
    #[inline]
    pub fn require<T>(&mut self, value: Option<T>, message: &'static str) -> Option<T> {
        if value.is_none() {
            return self.fail(message);
        }
        value
    }

    /// Ends the read: the first error, or `trailing garbage` when anything
    /// but whitespace is left.
    pub fn finish(mut self) -> Result<(), String> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Option<()> {
        if self.bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            self.fail(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes().get(self.pos).map(|&b| b as char)
            ))
        }
    }

    /// Consumes the opening bracket of a compound and reports whether the
    /// compound is empty (its closing bracket is consumed too).
    #[inline]
    fn open(&mut self, open: u8, close: u8) -> Option<bool> {
        self.peek();
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return self.fail(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            ));
        }
        if self.peek() == Some(close) {
            self.pos += 1;
            return Some(true);
        }
        self.depth += 1;
        Some(false)
    }

    /// After a member or item: consumes `,` (more follow, `true`) or the
    /// closing bracket (`false`).
    #[inline]
    fn more(&mut self, close: u8) -> Option<bool> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Some(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Some(false)
            }
            other => self.fail(format!(
                "expected ',' or '{}' at byte {}, found {:?}",
                close as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    /// Consumes an object, calling `member(self, key)` for each member in
    /// document order; the callback must consume the member's value.
    #[inline]
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &'a str) -> Option<()>,
    ) -> Option<()> {
        if self.open(b'{', b'}')? {
            return Some(());
        }
        loop {
            self.peek();
            let key = self.string()?;
            self.peek();
            self.expect(b':')?;
            member(self, key)?;
            if !self.more(b'}')? {
                return Some(());
            }
        }
    }

    /// Consumes an array, calling `item(self)` for each element; the
    /// callback must consume the element.
    #[inline]
    pub fn array(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        if self.open(b'[', b']')? {
            return Some(());
        }
        loop {
            item(self)?;
            if !self.more(b']')? {
                return Some(());
            }
        }
    }

    /// Consumes a string: a slice of the input when it contains no escape,
    /// otherwise its decoded form, kept in the [`Scratch`].
    #[inline(always)]
    pub fn string(&mut self) -> Option<&'a str> {
        Some(match self.lex_string()? {
            Some(borrowed) => borrowed,
            None => self.keep_decoded(),
        })
    }

    /// Adds a copy of `self.decoded` to the [`Scratch`] chain.
    #[cold]
    fn keep_decoded(&mut self) -> &'a str {
        let end = self.kept;
        let kept = end.get_or_init(|| {
            Box::new(Kept {
                text: self.decoded.as_str().into(),
                next: OnceCell::new(),
            })
        });
        self.kept = &kept.next;
        &kept.text
    }

    /// The first `"` or `\` from `from` on, looked for eight bytes at a
    /// time: XOR turns the byte looked for into zero, and
    /// `(x - 0x01…01) & !x & 0x80…80` flags the zero bytes of `x` — the
    /// lowest one exactly (a borrow can only flag bytes above it), and the
    /// lowest flag is the one read. Most strings of a trace are keys and
    /// names shorter than a word, so this is one step where a byte loop
    /// takes one hard-to-predict exit per string.
    #[inline(always)]
    fn run_end(&mut self, from: usize) -> Option<usize> {
        const LOW: u64 = 0x0101_0101_0101_0101;
        const HIGH: u64 = 0x8080_8080_8080_8080;
        let bytes = self.bytes();
        let mut at = from;
        while let Some(word) = bytes.get(at..at + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let (quote, slash) = (word ^ (LOW * b'"' as u64), word ^ (LOW * b'\\' as u64));
            let hit = (quote.wrapping_sub(LOW) & !quote | slash.wrapping_sub(LOW) & !slash) & HIGH;
            if hit != 0 {
                return Some(at + hit.trailing_zeros() as usize / 8);
            }
            at += 8;
        }
        match bytes[at..].iter().position(|&b| b == b'"' || b == b'\\') {
            Some(n) => Some(at + n),
            None => self.fail("unterminated string"),
        }
    }

    /// Consumes a string, validating every escape: `Some(text)` when it is a
    /// slice of the input, `None` when it contained an escape — its decoded
    /// form is then in `self.decoded` until the next such string.
    #[inline(always)]
    fn lex_string(&mut self) -> Option<Option<&'a str>> {
        self.expect(b'"')?;
        // `"` and `\` are ASCII, so every cut below is a char boundary.
        let start = self.pos;
        self.pos = self.run_end(start)?;
        if self.bytes()[self.pos] == b'"' {
            self.pos += 1;
            return Some(Some(&self.text[start..self.pos - 1]));
        }
        self.decode_from(start).map(|()| None)
    }

    /// The rest of a string whose first escape is at `self.pos`, decoded
    /// together with the plain run from `start` that precedes it.
    #[cold]
    fn decode_from(&mut self, start: usize) -> Option<()> {
        let text = self.text;
        let bytes = self.bytes();
        self.decoded.clear();
        self.decoded.push_str(&text[start..self.pos]);
        loop {
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Some(());
            }
            self.pos += 1; // the backslash
            let c = match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let mut code = match self.hex4(self.pos + 1) {
                        Some(Ok(code)) => code,
                        Some(Err(e)) => return self.fail(e),
                        None => return self.fail("truncated \\u escape"),
                    };
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
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                other => return self.fail(format!("bad escape {other:?}")),
            };
            self.decoded.push(c);
            self.pos += 1;
            let run = self.pos;
            self.pos = self.run_end(run)?;
            self.decoded.push_str(&text[run..self.pos]);
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
    /// and reported as `Null` instead of being converted.
    #[inline(always)]
    fn scalar(&mut self, keep_floats: bool) -> Option<Scalar> {
        let (lit, value) = match self.peek() {
            None => return self.fail("unexpected end of input"),
            Some(b'n') => ("null", Scalar::Null),
            Some(b't') => ("true", Scalar::Bool(true)),
            Some(b'f') => ("false", Scalar::Bool(false)),
            Some(_) => return self.number(keep_floats),
        };
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(value)
        } else {
            self.fail(format!("invalid literal at byte {}", self.pos))
        }
    }

    #[inline(always)]
    fn number(&mut self, keep_floats: bool) -> Option<Scalar> {
        let bytes = self.bytes();
        let start = self.pos;
        // The token the trace format is made of: a run of digits, straight
        // to a `u64`. Nineteen digits cannot overflow one; a longer run, or
        // anything else a number can continue with, goes to `classify`.
        let mut v = 0u64;
        let mut at = start;
        while let Some(d) = bytes
            .get(at)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10 && at - start < 19)
        {
            v = v * 10 + u64::from(d);
            at += 1;
        }
        if at > start {
            match bytes.get(at) {
                Some(b'.') if !keep_floats => {
                    // `ts` and `dur`: a float nobody converts is only checked.
                    let frac = at + 1;
                    let end = frac
                        + bytes[frac..]
                            .iter()
                            .take_while(|b| b.is_ascii_digit())
                            .count();
                    if end > frac && !bytes.get(end).is_some_and(is_number_byte) {
                        self.pos = end;
                        return Some(Scalar::Null);
                    }
                }
                Some(b) if is_number_byte(b) => {}
                _ => {
                    self.pos = at;
                    return Some(Scalar::UInt(v));
                }
            }
        }
        self.classify()
    }

    /// Any number token, by the book: every byte a number can contain is
    /// taken, and the token is the first of `u64`, `i64`, `f64` that parses
    /// it.
    #[cold]
    fn classify(&mut self) -> Option<Scalar> {
        let bytes = self.bytes();
        let start = self.pos;
        let digits = start + usize::from(bytes.get(start) == Some(&b'-'));
        let mut at = digits;
        while bytes.get(at).is_some_and(is_number_byte) {
            at += 1;
        }
        if at == digits {
            return self.fail(format!("invalid number at byte {start}"));
        }
        self.pos = at;
        let text = &self.text[start..at];
        if bytes[digits..at].iter().all(u8::is_ascii_digit) {
            if let Ok(v) = text.parse::<u64>() {
                return Some(Scalar::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Some(Scalar::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Some(Scalar::Float(v)),
            Err(e) => self.fail(format!("invalid number {text:?}: {e}")),
        }
    }

    /// Consumes any value into a tree.
    pub fn value(&mut self) -> Option<Value> {
        Some(match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|r, key| {
                    members.push((intern(key), r.value()?));
                    Some(())
                })?;
                Value::Obj(members)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Some(())
                })?;
                Value::Arr(items)
            }
            Some(b'"') => Value::Str(match self.lex_string()? {
                Some(borrowed) => borrowed.into(),
                None => self.decoded.as_str().into(),
            }),
            _ => match self.scalar(true)? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::UInt(v) => Value::UInt(v),
                Scalar::Int(v) => Value::Int(v),
                Scalar::Float(v) => Value::Float(v),
            },
        })
    }

    /// Consumes any value, validating it and keeping nothing.
    pub fn skip_value(&mut self) -> Option<()> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.lex_string().map(drop),
            _ => self.scalar(false).map(drop),
        }
    }

    /// Consumes any value as a [`Field`].
    #[inline(always)]
    pub fn field(&mut self) -> Option<Field<'a>> {
        Some(match self.peek() {
            Some(b'"') => Field::Str(self.string()?),
            Some(b'{' | b'[') => {
                self.skip_value()?;
                Field::Other
            }
            _ => match self.scalar(false)? {
                Scalar::Bool(b) => Field::Bool(b),
                Scalar::UInt(v) => Field::U64(v),
                // `-0` is the one negative spelling of a `u64`.
                Scalar::Int(v) => u64::try_from(v).map_or(Field::Other, Field::U64),
                Scalar::Null | Scalar::Float(_) => Field::Other,
            },
        })
    }
}

/// Whether `b` can appear in a JSON number (or in something that was meant
/// to be one).
fn is_number_byte(b: &u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
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

    /// One read by `f` over the whole of `text`, and the reader's verdict.
    fn lex<'a, T>(
        text: &'a str,
        scratch: &'a mut Scratch,
        f: impl FnOnce(&mut Reader<'a>) -> Option<T>,
    ) -> Result<T, String> {
        let mut reader = Reader::new(text, scratch);
        let read = f(&mut reader);
        reader
            .finish()
            .map(|()| read.expect("no error, so something was read"))
    }

    fn skip(text: &str) -> Result<(), String> {
        lex(text, &mut Scratch::default(), Reader::skip_value)
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
            assert_eq!(skip(&at_limit), Ok(()));
            let past = nested(MAX_DEPTH + 1, open);
            let err = Value::parse(&past).unwrap_err();
            assert!(err.starts_with("nesting deeper than 128 at byte "), "{err}");
            assert_eq!(skip(&past).unwrap_err(), err);
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
            let mut scratch = Scratch::default();
            let got = lex(literal, &mut scratch, Reader::string).unwrap();
            assert_eq!(got, want, "{literal}");
            // A slice of the input exactly when nothing needed decoding.
            assert_eq!(
                literal.as_bytes().as_ptr_range().contains(&got.as_ptr()),
                !literal.contains('\\'),
                "{literal}"
            );
            assert_eq!(Value::parse(literal).unwrap(), Value::Str(want.into()));
            assert_eq!(
                lex(literal, &mut Scratch::default(), Reader::field),
                Ok(Field::Str(want))
            );
            assert_eq!(skip(literal), Ok(()));
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
            let err = lex(bad, &mut Scratch::default(), Reader::string).unwrap_err();
            assert_eq!(Value::parse(bad).unwrap_err(), err, "{bad}");
            assert_eq!(skip(bad).unwrap_err(), err, "{bad}");
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
            let mut scratch = Scratch::default();
            assert_eq!(lex(text, &mut scratch, Reader::field), Ok(field), "{text}");
            let doc = format!("[{text}]");
            assert_eq!(skip(&doc), Ok(()), "{doc}");
        }
        for bad in [
            "-", "1e", "1.5.5", "--1", "1-1", "e", "1.e", "x", "tru", "nul", "fals",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert_eq!(skip(bad).unwrap_err(), err, "{bad}");
            let mut scratch = Scratch::default();
            assert_eq!(lex(bad, &mut scratch, Reader::field), Err(err), "{bad}");
        }
        for (text, want) in [
            ("true", Field::Bool(true)),
            ("null", Field::Other),
            ("[1,{\"a\":2}]", Field::Other),
        ] {
            let mut scratch = Scratch::default();
            assert_eq!(lex(text, &mut scratch, Reader::field), Ok(want), "{text}");
        }
    }

    /// The streaming paths lex a number themselves — a digit run straight to
    /// `u64`, a plain float passed over unconverted — and must still agree
    /// with the tree on every token: same integers, same rejections, same
    /// message and offset.
    #[test]
    fn streaming_number_paths_agree_with_the_tree_on_every_token() {
        let mut tokens: Vec<String> = [
            "18446744073709551615",
            "18446744073709551616",
            "9999999999999999999",
            "10000000000000000000",
            "0",
            "00",
            "007",
            "0000000000000000000000000000000000000001",
            "1.0",
            "1.",
            "1.e3",
            "1e5",
            "1E+5",
            "1e",
            "1.5e-3",
            "123456789012345678901234.5",
            "1.0000000000000000000000001",
            "-0",
            "-1",
            "-",
            "--1",
            "+5",
            ".5",
            "1.5.5",
            "1-1",
            "1x",
            "1 2",
            "12345678901234567890x",
            "1.5x",
            "1,",
            "1]",
            "",
        ]
        .map(String::from)
        .to_vec();
        // Every run length around the 19 digits that cannot overflow, from
        // the smallest and the largest number of that length.
        for digits in 1..=22 {
            tokens.push(format!("1{}", "0".repeat(digits - 1)));
            tokens.push("9".repeat(digits));
            tokens.push(format!("{}.25", "9".repeat(digits)));
        }
        for token in &tokens {
            for text in [
                token.clone(),
                format!(" {token} "),
                format!("[{token},{token}]"),
                format!("{{\"a\":{token}}}"),
            ] {
                let tree = Value::parse(&text);
                let field = tree.as_ref().map_err(String::clone).map(|v| match v {
                    Value::Arr(_) | Value::Obj(_) => Field::Other,
                    scalar => scalar.as_u64().map_or(Field::Other, Field::U64),
                });
                let mut scratch = Scratch::default();
                assert_eq!(lex(&text, &mut scratch, Reader::field), field, "{text}");
                assert_eq!(skip(&text), tree.map(drop), "{text}");
            }
        }
    }

    /// A string's end is looked for eight bytes at a time: put the closing
    /// quote, an escape and a multi-byte character at every offset of the
    /// first three words, at both ends of the input's alignment.
    #[test]
    fn strings_end_where_they_end_at_every_offset() {
        for len in 0..24 {
            for special in ["", "\"", "\\", "\n", "é", "😀"] {
                for at in 0..=len {
                    let mut want = "x".repeat(len);
                    want.insert_str(at, special);
                    for pad in ["", " ", "  \n "] {
                        let text =
                            format!("{pad}[{},7]", Value::Str(want.as_str().into()).to_json());
                        let got = Value::parse(&text).expect("a string and a number");
                        assert_eq!(
                            got,
                            Value::Arr(vec![Value::Str(want.as_str().into()), Value::UInt(7)]),
                            "{text}"
                        );
                        assert_eq!(skip(&text), Ok(()), "{text}");
                        let mut scratch = Scratch::default();
                        let read = lex(&text, &mut scratch, |r| {
                            let mut items = Vec::new();
                            r.array(|r| {
                                items.push(r.field()?);
                                Some(())
                            })?;
                            Some(items)
                        });
                        assert_eq!(read, Ok(vec![Field::Str(&want), Field::U64(7)]), "{text}");
                        // Cut anywhere inside the string, it does not end.
                        let cut = &text[..pad.len() + 2 + at];
                        assert_eq!(skip(cut), Err("unterminated string".into()), "{cut}");
                    }
                }
            }
        }
    }

    #[test]
    fn slots_keep_the_first_occurrence_and_skip_the_rest() {
        const KEYS: [&str; 3] = ["a", "bb", "c"];
        const BB: usize = key_index(&KEYS, "bb");
        assert_eq!(
            (key_index(&KEYS, "a"), BB, key_index(&KEYS, "c")),
            (0, 1, 2)
        );
        let (mut one, mut two, mut three, mut four) = Default::default();
        let mut slots = Slots::new(&KEYS);
        let doc = r#"{"zz":{"a":9},"bb":null,"c":"s","a":1,"bb":2,"a":[3],"\u0063":true}"#;
        assert_eq!(lex(doc, &mut one, |r| slots.read(r)), Ok(()));
        assert_eq!(slots.u64(0), Some(1));
        // First `bb` was null: present, but not an integer; the later 2 lost.
        assert_eq!((slots.get(BB), slots.u64(BB)), (Some(Field::Other), None));
        assert_eq!((slots.str(2), slots.bool(2)), (Some("s"), None));
        // Not an object: nothing is present, the value is still validated.
        assert_eq!(lex("[1,2]", &mut two, |r| slots.read(r)), Ok(()));
        assert_eq!(
            (slots.get(0), slots.get(1), slots.get(2)),
            (None, None, None)
        );
        assert!(lex("[1,", &mut three, |r| slots.read(r)).is_err());
        // An escaped spelling of a key is the same key.
        let doc = r#"{"\u0063":true,"a":"\u0063"}"#;
        assert_eq!(lex(doc, &mut four, |r| slots.read(r)), Ok(()));
        assert_eq!((slots.bool(2), slots.str(0)), (Some(true), Some("c")));
    }
}
