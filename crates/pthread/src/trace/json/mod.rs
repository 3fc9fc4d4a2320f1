//! Minimal JSON: one lexer ([`Reader`]), one writer (the `push_*`
//! functions), and a small document model ([`Value`]) layered over both.
//!
//! The build environment has no crates.io access, so this stands in for
//! `serde_json` where the trace subsystem needs *real* JSON: full string
//! escaping, non-finite floats as `null`, a strict parser (numbers are
//! RFC 8259's: no `+1`, `.5`, `1.` or `007`).
//!
//! * The **writer** appends to a `String`: [`push_u64`] (digits two at a
//!   time, as slices of a `00`–`99` table), [`push_f64`] (non-finite →
//!   `null`, integral floats keep a `.0`), [`push_str`] (quoted and
//!   escaped). Everything pushed is a `&str` or an ASCII `char`, so the text
//!   is UTF-8 by construction and is never checked again.
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
//! * **Member prediction** lives in [`Slots::key`]: a writer puts an
//!   object's members in one order, so the scratch remembers which key
//!   followed which and first tries that key's literal `"key":`
//!   ([`Reader::key_is`], three word compares against a [`KeyText`]). On a
//!   miss — another key, whitespace, an escape, the last 24 bytes of the
//!   input — [`Reader::key`] lexes the key and the table is searched, as
//!   [`Reader::object`] always does. A hit consumes exactly the bytes the
//!   lexer would have and names the same slot, so no answer and no error
//!   depends on a guess; the `parse` rows of
//!   `tests/golden/trace_corpus.tsv` pin the verdicts of scrambled, spaced,
//!   cut and damaged documents from before prediction. Everything else ([`Value::parse`],
//!   `Slots::member`) takes the lexer path only.
//! * [`Value`] is the tree for the small documents the CLIs build and
//!   inspect; [`Value::parse`] and [`Value::to_json`] are thin layers over
//!   the reader and writer. Object member order is preserved (members are
//!   a `Vec`, not a map).

use std::cell::{OnceCell, RefCell};
use std::fmt::Write as _;
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
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(v) => push_u64(out, *v),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => push_f64(out, *v),
            Value::Str(s) => push_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
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

/// `"00"` to `"99"`, end to end: decimal digits two at a time.
const PAIRS: &str = "00010203040506070809101112131415161718192021222324\
                     25262728293031323334353637383940414243444546474849\
                     50515253545556575859606162636465666768697071727374\
                     75767778798081828384858687888990919293949596979899";

/// Appends `v` in decimal: its digit pairs, last first, into a buffer on
/// the stack, then the leading one or two digits and each pair.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut pairs = [0u8; 10];
    let mut at = pairs.len();
    while v >= 100 {
        at -= 1;
        pairs[at] = (v % 100) as u8;
        v /= 100;
    }
    if v < 10 {
        push_digit(out, v as u8);
    } else {
        push_pair(out, v as u8);
    }
    for &pair in &pairs[at..] {
        push_pair(out, pair);
    }
}

/// Appends the two decimal digits of `pair` (0–99), a slice of `PAIRS`.
#[inline(always)]
pub fn push_pair(out: &mut String, pair: u8) {
    let at = 2 * usize::from(pair % 100);
    out.push_str(&PAIRS[at..at + 2]);
}

/// Appends the decimal digit `d` (0–9). The mask keeps it a one-byte `char`
/// the compiler can see is ASCII, so the push is a store and no encoding.
#[inline(always)]
pub fn push_digit(out: &mut String, d: u8) {
    out.push(char::from(b'0' | (d & 0x0f)));
}

/// Appends `v` as a JSON number. JSON has no NaN/Infinity; they become
/// `null` rather than an invalid document. `Display` prints integral floats
/// without a point; `.0` keeps the float class for the round trip.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a JSON string literal with full escaping. Every byte that
/// needs escaping is ASCII, so runs between them are copied whole.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // An ASCII byte ends and starts a `char`, so both cuts are on one.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// One object member's value as a streaming consumer sees it: the scalars
/// the trace format uses, by value. Everything else — `null`, floats,
/// negative integers, arrays, objects — is validated, skipped and reported
/// as [`Field::Other`], which is what `Value::as_u64` / `as_str`
/// answering `None` means for a tree.
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
/// known in advance: one slot per key, filled in whatever order the members
/// arrive. The **first** occurrence of a key wins, whatever its type
/// ([`Value::get`] semantics); unknown keys and repeats are validated and
/// skipped. Lookups are by slot index — resolve names at compile time with
/// [`key_index`]. Reusable: [`Slots::clear`] costs two stores, so a reader
/// fills the same scratch for every record of a document.
///
/// A writer puts an object's members in one order, so [`Slots::key`]
/// remembers which slot followed which the last time and tries that key
/// first (see there). The guess only decides how the key is consumed,
/// never what it is, so no answer or error depends on it.
#[derive(Debug)]
pub struct Slots<'a, const N: usize> {
    keys: &'static [&'static str; N],
    /// Bit `i` set: `fields[i]` holds this object's member `keys[i]`.
    seen: u64,
    fields: [Field<'a>; N],
    /// `texts[i]`: `keys[i]` as a document spells it.
    texts: [KeyText; N],
    /// `next[i]`: the slot of the member that followed member `i` the last
    /// time one did; `next[N]`, of the first member. `N`: no guess.
    next: [u8; 65],
    /// The slot of this object's last member so far, `N` at its start.
    last: usize,
}

impl<'a, const N: usize> Slots<'a, N> {
    /// An empty scratch for `keys` (at most 64, each a [`KeyText`]). Until
    /// a document shows another order, the members are expected in table
    /// order.
    pub fn new(keys: &'static [&'static str; N]) -> Self {
        assert!(N <= 64, "one seen-bit per key");
        let mut next = [N as u8; 65];
        for (i, guess) in next[..N].iter_mut().enumerate() {
            *guess = (i + 1) as u8;
        }
        next[N] = 0;
        Slots {
            keys,
            seen: 0,
            fields: [Field::Other; N],
            texts: keys.map(KeyText::new),
            next,
            last: N,
        }
    }

    /// Forgets every member.
    pub fn clear(&mut self) {
        self.seen = 0;
        self.last = N;
    }

    /// Consumes the value of the member named `key`, straight into its slot.
    #[inline]
    pub fn member(&mut self, r: &mut Reader<'a>, key: &str) -> Option<()> {
        let slot = self.keys.iter().position(|k| same_key(k, key));
        self.fill(r, slot)
    }

    /// Consumes the key of an object's next member and the `:` after it,
    /// answering the key's slot (`None`: not in the table). The key that
    /// followed the last member the previous time is tried first, by one
    /// [`Reader::key_is`]; when the input does not continue with exactly
    /// that key, the key is lexed and looked up as [`Slots::member`] does.
    #[inline(always)]
    pub fn key(&mut self, r: &mut Reader<'a>) -> Option<Option<usize>> {
        let guess = usize::from(self.next[self.last]);
        let slot = if guess < N && r.key_is(&self.texts[guess]) {
            Some(guess)
        } else {
            let key = r.key()?;
            self.keys.iter().position(|k| same_key(k, key))
        };
        if let Some(i) = slot {
            self.next[self.last] = i as u8;
            self.last = i;
        }
        Some(slot)
    }

    /// Consumes a member's value: into `slot` if that is a slot this object
    /// has not filled yet, otherwise validated and skipped.
    #[inline(always)]
    pub fn fill(&mut self, r: &mut Reader<'a>, slot: Option<usize>) -> Option<()> {
        match slot {
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
        r.members(|r| {
            let slot = self.key(r)?;
            self.fill(r, slot)
        })
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

/// A member key as a document spells it when it needs no escape, `"key":`,
/// packed for [`Reader::key_is`]: its bytes in three little-endian words,
/// and masks over its length, so that matching it is three compares and no
/// branch per byte. (A `starts_with` of the text is a `memcmp` call per
/// member: parsing the `flight_recorder` document took 14 % longer.)
#[derive(Debug, Clone, Copy)]
pub struct KeyText {
    words: [u64; 3],
    masks: [u64; 3],
    len: usize,
}

impl KeyText {
    /// `key`, which must have at most 21 bytes and no `"` or `\`.
    pub fn new(key: &str) -> Self {
        let text = format!("\"{key}\":");
        assert!(
            text.len() <= 24 && !key.contains(['"', '\\']),
            "{key:?} is not its own JSON text in 21 bytes"
        );
        let (mut bytes, mut mask) = ([0; 24], [0; 24]);
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        mask[..text.len()].fill(0xff);
        let word = |b: &[u8; 24], i: usize| {
            u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("eight bytes"))
        };
        KeyText {
            words: [0, 1, 2].map(|i| word(&bytes, i)),
            masks: [0, 1, 2].map(|i| word(&mask, i)),
            len: text.len(),
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
        self.members(|r| {
            let key = r.key()?;
            member(r, key)
        })
    }

    /// Consumes an object, calling `member(self)` at the start of each
    /// member in document order; the callback must consume the whole member:
    /// its key ([`Reader::key`], perhaps after a [`Reader::key_is`]) and its
    /// value.
    #[inline]
    pub fn members(&mut self, mut member: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        if self.open(b'{', b'}')? {
            return Some(());
        }
        loop {
            self.peek();
            member(self)?;
            if !self.more(b'}')? {
                return Some(());
            }
        }
    }

    /// Consumes a member's key and the `:` after it.
    #[inline(always)]
    pub fn key(&mut self) -> Option<&'a str> {
        let key = self.string()?;
        self.peek();
        self.expect(b':')?;
        Some(key)
    }

    /// Consumes `"key":` if the input continues with exactly that, and says
    /// whether it did; otherwise consumes nothing. A match is the member
    /// [`Reader::key`] would have read, with the `:` straight after it, and
    /// the reader stands where that would have left it. Within 24 bytes of
    /// the end of the input, nothing matches.
    #[inline(always)]
    pub fn key_is(&mut self, key: &KeyText) -> bool {
        let Some(head) = self.bytes().get(self.pos..self.pos + 24) else {
            return false;
        };
        let mut diff = 0;
        for (i, word) in head.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            diff |= (word ^ key.words[i]) & key.masks[i];
        }
        if diff != 0 {
            return false;
        }
        self.pos += key.len;
        true
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

    /// Consumes `null`, `true`, `false` or a number; `next` is what
    /// [`Reader::peek`] just answered. With `keep_floats` off (the caller
    /// wants integers only) a `digits.digits` token is checked and reported
    /// as `Null` instead of being converted.
    #[inline(always)]
    fn scalar(&mut self, next: Option<u8>, keep_floats: bool) -> Option<Scalar> {
        let (lit, value) = match next {
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
        // A leading zero is the whole integer part (`0`, `0.5`, not `007`).
        if at > start && (bytes[start] != b'0' || at == start + 1) {
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
    /// taken, the token must be a JSON number ([`number_grammar`]), and it
    /// is the first of `u64`, `i64`, `f64` that parses it.
    #[cold]
    fn classify(&mut self) -> Option<Scalar> {
        let start = self.pos;
        let len = self.bytes()[start..]
            .iter()
            .take_while(|b| is_number_byte(b))
            .count();
        if len == 0 {
            return self.fail(format!("invalid number at byte {start}"));
        }
        let text = &self.text[start..start + len];
        let Some(integral) = number_grammar(text.as_bytes()) else {
            return self.fail(format!("invalid number {text:?} at byte {start}"));
        };
        self.pos = start + len;
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Some(Scalar::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Some(Scalar::Int(v));
            }
        }
        // Past its range a float parses to ±inf, not to an error.
        Some(Scalar::Float(
            text.parse().expect("a JSON number is a float"),
        ))
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
            next => match self.scalar(next, true)? {
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
            next => self.scalar(next, false).map(drop),
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
            next => match self.scalar(next, false)? {
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

/// Whether `t` is a JSON number (RFC 8259 §6),
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE][+-]?[0-9]+)?`, and if so whether
/// it is an integer (no fraction, no exponent).
fn number_grammar(t: &[u8]) -> Option<bool> {
    let digits = |at: usize| t[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut at = usize::from(t.first() == Some(&b'-'));
    let int = digits(at);
    if int == 0 || (int > 1 && t[at] == b'0') {
        return None;
    }
    at += int;
    let integral = at == t.len();
    if t.get(at) == Some(&b'.') {
        let frac = digits(at + 1);
        if frac == 0 {
            return None;
        }
        at += 1 + frac;
    }
    if matches!(t.get(at), Some(b'e' | b'E')) {
        at += 1 + usize::from(matches!(t.get(at + 1), Some(b'+' | b'-')));
        let exp = digits(at);
        if exp == 0 {
            return None;
        }
        at += exp;
    }
    (at == t.len()).then_some(integral)
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
mod tests;
