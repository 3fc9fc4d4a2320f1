//! Tests of the JSON reader, writer and document model.

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
        let mut out = String::new();
        push_u64(&mut out, v);
        out
    };
    for v in [0, 9, 10, 99, 100, 12_345, u64::MAX] {
        assert_eq!(num(v), v.to_string());
    }
    let float = |v| {
        let mut out = "[1.5,".to_string();
        push_f64(&mut out, v);
        out
    };
    assert_eq!(float(2.0), "[1.5,2.0");
    assert_eq!(float(-3.0), "[1.5,-3.0");
    assert_eq!(float(0.001), "[1.5,0.001");
    assert_eq!(float(1e21), "[1.5,1000000000000000000000.0");
    assert_eq!(float(f64::NAN), "[1.5,null");
    let mut out = String::new();
    push_str(&mut out, "a\"b\\c\nd\re\tf\u{8}g\u{c}h\u{1}i\u{1f}é😀");
    assert_eq!(out, r#""a\"b\\c\nd\re\tf\bg\fh\u0001i\u001fé😀""#);
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
        ("18446744073709551615", Value::UInt(u64::MAX)),
        ("18446744073709551616", Value::Float(18446744073709551616.0)),
        ("-0", Value::Int(0)),
        ("-42", Value::Int(-42)),
        ("-9223372036854775809", Value::Float(-9223372036854775809.0)),
        ("1.5", Value::Float(1.5)),
        ("0.001", Value::Float(0.001)),
        ("1e3", Value::Float(1000.0)),
        ("1.5E-3", Value::Float(0.0015)),
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

/// Numbers are what RFC 8259 §6 says they are, on every path:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE][+-]?[0-9]+)?`. A token that
/// is not one fails whole, with its text and where it starts.
#[test]
fn numbers_follow_rfc_8259() {
    for (text, want) in [
        ("0", Value::UInt(0)),
        ("-0", Value::Int(0)),
        ("0.5", Value::Float(0.5)),
        ("1e5", Value::Float(1e5)),
        ("-0.5e-3", Value::Float(-0.5e-3)),
        ("10E+2", Value::Float(1e3)),
        ("0e0", Value::Float(0.0)),
        ("1e999", Value::Float(f64::INFINITY)),
    ] {
        assert_eq!(Value::parse(text), Ok(want), "{text}");
    }
    for bad in [
        "+1", ".5", "1.", "007", "-01", "-.5", "1.e3", "00", "1e", "1e+", "-", "--0", "1.5.",
        "1e5e5", "1e5.0", "01.5", "-00.5",
    ] {
        let want = format!("invalid number {bad:?} at byte 1");
        let doc = format!("[{bad}]");
        assert_eq!(Value::parse(&doc), Err(want.clone()), "{doc}");
        assert_eq!(skip(&doc), Err(want.clone()), "{doc}");
        let doc = format!("{{\"k\":{bad}}}");
        let want = want.replace("byte 1", "byte 5");
        let mut scratch = Scratch::default();
        let read = lex(&doc, &mut scratch, |r| r.object(|r, _| r.field().map(drop)));
        assert_eq!(read, Err(want), "{doc}");
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
                    let text = format!("{pad}[{},7]", Value::Str(want.as_str().into()).to_json());
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
