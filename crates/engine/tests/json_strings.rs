//! String decoding in the JSON parser: linear time in the string's length,
//! and exactly the characters an independent encoder put in.
//!
//! The encoder here writes each character of a seeded random string in one
//! of the forms JSON allows — raw, a short escape, or `\u` hex (a surrogate
//! pair above the Basic Multilingual Plane) — so every escape path of the
//! parser is checked against text the crate's own writer never produces.

use engine::json::JsonValue;
use std::sync::mpsc;
use std::time::Duration;
use workload::random::SplitMix64;

/// Parses `text` on a helper thread and fails the test if that takes longer
/// than a minute: a linear scan of a few MiB takes milliseconds, while a
/// scan that is quadratic in the string length takes about half an hour.
fn parse_within_a_minute(text: String) -> JsonValue {
    let (done, result) = mpsc::channel();
    // Detached on purpose: if the deadline passes, the test fails and the
    // test process ends without waiting for the parse.
    std::thread::spawn(move || done.send(JsonValue::parse(&text)));
    let parsed = result
        .recv_timeout(Duration::from_secs(60))
        .expect("an 8 MiB string must parse in linear time");
    parsed.expect("the long string is well-formed JSON")
}

const LONG: usize = 8 << 20;

#[test]
fn an_8_mib_plain_string_parses_in_linear_time() {
    let body: String = "battery scheduling ".chars().cycle().take(LONG).collect();
    let parsed = parse_within_a_minute(format!("\"{body}\""));
    assert_eq!(parsed.as_str(), Some(body.as_str()));
}

#[test]
fn an_8_mib_string_with_escapes_and_multibyte_characters_parses_in_linear_time() {
    // Every 300 bytes, one escape or one multibyte character.
    let extras: [(&str, &str); 6] = [
        ("\\n", "\n"),
        ("\\\"", "\""),
        ("\u{e9}", "\u{e9}"),
        ("\\u00e9", "\u{e9}"),
        ("\u{1F600}", "\u{1F600}"),
        ("\\ud83d\\ude00", "\u{1F600}"),
    ];
    let (mut text, mut expected) = (String::from("\""), String::new());
    for (extra, decoded) in extras.iter().cycle() {
        if text.len() >= LONG {
            break;
        }
        let plain = "x".repeat(300);
        text.push_str(&plain);
        text.push_str(extra);
        expected.push_str(&plain);
        expected.push_str(decoded);
    }
    text.push('"');
    let parsed = parse_within_a_minute(text);
    assert_eq!(parsed.as_str(), Some(expected.as_str()));
}

/// A random character: ASCII (controls included), or a 2-, 3- or 4-byte
/// UTF-8 character.
fn random_char(rng: &mut SplitMix64) -> char {
    let (lo, hi): (usize, usize) = match rng.next_index(5) {
        0 => (0x20, 0x7F),
        1 => (0x00, 0x20),
        2 => (0x80, 0x800),
        3 => (0x800, 0x1_0000),
        _ => (0x1_0000, 0x11_0000),
    };
    loop {
        let code = u32::try_from(lo + rng.next_index(hi - lo)).expect("code points fit u32");
        // Surrogate code points are not characters; draw again.
        if let Some(ch) = char::from_u32(code) {
            return ch;
        }
    }
}

fn push_u_escape(code: u32, upper: bool, out: &mut String) {
    if upper {
        out.push_str(&format!("\\u{code:04X}"));
    } else {
        out.push_str(&format!("\\u{code:04x}"));
    }
}

/// Writes `ch` as a raw character, a short escape or `\u` hex, picked by
/// `rng`. `"` and `\` are never raw.
fn push_encoded(ch: char, rng: &mut SplitMix64, out: &mut String) {
    let short = match ch {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '/' => Some("\\/"),
        '\u{8}' => Some("\\b"),
        '\u{c}' => Some("\\f"),
        '\n' => Some("\\n"),
        '\r' => Some("\\r"),
        '\t' => Some("\\t"),
        _ => None,
    };
    match (rng.next_index(3), short) {
        (0, Some(escape)) => out.push_str(escape),
        (1, _) if !matches!(ch, '"' | '\\') => out.push(ch),
        _ => {
            let upper = rng.next_index(2) == 0;
            let code = u32::from(ch);
            if code < 0x1_0000 {
                push_u_escape(code, upper, out);
            } else {
                let offset = code - 0x1_0000;
                push_u_escape(0xD800 + (offset >> 10), upper, out);
                push_u_escape(0xDC00 + (offset & 0x3FF), upper, out);
            }
        }
    }
}

#[test]
fn seeded_random_strings_decode_to_exactly_what_was_encoded() {
    let mut rng = SplitMix64::new(2009);
    for case in 0..500 {
        let length = rng.next_index(64);
        let original: String = (0..length).map(|_| random_char(&mut rng)).collect();
        let mut text = String::from("\"");
        for ch in original.chars() {
            push_encoded(ch, &mut rng, &mut text);
        }
        text.push('"');
        let parsed = JsonValue::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(parsed.as_str(), Some(original.as_str()), "case {case}: {text:?}");

        let value = JsonValue::String(original);
        let rendered = value.render().expect("strings always render");
        assert_eq!(JsonValue::parse(&rendered), Ok(value), "case {case}: {rendered:?}");
    }
}

#[test]
fn raw_control_characters_inside_strings_are_accepted() {
    let raw = "\u{0}\u{1}\t\n\r\u{1f}\u{7f}";
    let parsed = JsonValue::parse(&format!("\"{raw}\"")).unwrap();
    assert_eq!(parsed.as_str(), Some(raw));
}
