//! Malformed-input suite for the hand-rolled JSON parser.
//!
//! Every rejection is asserted together with its byte offset, pinning the
//! diagnostics a user sees when a scenario or baseline file is corrupt:
//! truncated documents, duplicate object keys, bad string escapes, number
//! literals that overflow the finite f64 range, and nesting past the depth
//! limit.

use engine::json::{JsonError, JsonValue, MAX_DEPTH};
use std::sync::mpsc;
use std::time::Duration;

fn err(text: &str) -> JsonError {
    match JsonValue::parse(text) {
        Err(e) => e,
        Ok(v) => panic!("{text:?} parsed as {v:?}, expected an error"),
    }
}

#[test]
fn truncated_documents_report_the_cut_point() {
    for (text, offset, needle) in [
        ("", 0, "expected a JSON value"),
        ("{\"a\": 1", 7, "expected ',' or '}' in object"),
        ("[1, 2", 5, "expected ',' or ']' in array"),
        ("\"abc", 4, "unterminated string"),
        ("{\"a\"", 4, "expected ':'"),
        ("{", 1, "expected '\"'"),
        ("[", 1, "expected a JSON value"),
        ("tru", 0, "expected 'true'"),
        ("nul", 0, "expected 'null'"),
    ] {
        let e = err(text);
        assert_eq!(e.offset, offset, "offset for {text:?}: {e}");
        assert!(e.message.contains(needle), "message for {text:?}: {e}");
    }
}

#[test]
fn duplicate_object_keys_are_rejected_at_the_second_key() {
    let e = err("{\"a\":1,\"a\":2}");
    assert_eq!(e.offset, 7);
    assert_eq!(e.message, "duplicate object key \"a\"");

    // Nested objects each get their own key scope: no false positive.
    let ok = JsonValue::parse("{\"a\":{\"a\":1},\"b\":{\"a\":2}}").unwrap();
    assert_eq!(ok.get("a").and_then(|v| v.get("a")).and_then(JsonValue::as_u64), Some(1));

    // The duplicate check runs before the value parses: a duplicate with a
    // malformed value still reports the key.
    let e = err("{\"k\":0,\"k\":!}");
    assert_eq!(e.offset, 7);
    assert!(e.message.contains("duplicate object key"));
}

/// An object with 300,000 distinct keys, then a repeat of the first: the
/// duplicate check costs O(log n) per key, so the line is rejected in well
/// under a second, where a scan of every earlier key per key (O(n²), about
/// 4.5·10¹⁰ key comparisons) runs for minutes. The error is the same as on
/// a small object: the second key, at its own offset, before its value.
#[test]
fn a_duplicate_after_300k_distinct_keys_is_found_in_n_log_n() {
    const KEYS: usize = 300_000;
    let mut text = String::from("{");
    for key in 0..KEYS {
        text.push_str(&format!("\"k{key}\":0,"));
    }
    let duplicate_offset = text.len();
    text.push_str("\"k0\":!}");
    let (done, result) = mpsc::channel();
    // Detached on purpose: if the deadline passes, the test fails and the
    // test process ends without waiting for the parse.
    std::thread::spawn(move || done.send(JsonValue::parse(&text)));
    let parsed = result
        .recv_timeout(Duration::from_secs(60))
        .expect("the duplicate-key check must not be quadratic in the key count");
    let e = parsed.expect_err("the repeated key is a duplicate");
    assert_eq!(e.offset, duplicate_offset);
    assert_eq!(e.message, "duplicate object key \"k0\"");
}

#[test]
fn bad_string_escapes_are_rejected_with_offsets() {
    for (text, offset, needle) in [
        ("\"\\x\"", 2, "invalid escape sequence"),
        ("\"\\u00\"", 3, "truncated unicode escape"),
        ("\"\\uZZZZ\"", 3, "invalid unicode escape"),
        ("\"\\ud800\"", 7, "unpaired surrogate"),
        ("\"\\ud800\\u0041\"", 13, "unpaired surrogate"),
        // Four bytes after `\u` that end inside a multibyte character, and
        // four that hold a whole one.
        ("\"\\u000\u{e9}\"", 3, "invalid unicode escape"),
        ("\"\\u00\u{e9}\"", 3, "invalid unicode escape"),
    ] {
        let e = err(text);
        assert_eq!(e.offset, offset, "offset for {text:?}: {e}");
        assert!(e.message.contains(needle), "message for {text:?}: {e}");
    }

    // A proper surrogate pair still decodes.
    let v = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
    assert_eq!(v.as_str(), Some("\u{1F600}"));
}

#[test]
fn overflowing_number_literals_are_rejected_not_infinities() {
    for (text, offset) in [("1e999", 0), ("-1e999", 0), ("{\"steps\": 1e999}", 10)] {
        let e = err(text);
        assert_eq!(e.offset, offset, "offset for {text:?}: {e}");
        assert!(e.message.contains("overflows the finite f64 range"), "message for {text:?}: {e}");
    }
    // The largest finite doubles still round-trip.
    let v = JsonValue::parse("1e308").unwrap();
    assert_eq!(v.as_f64(), Some(1e308));
}

#[test]
fn as_u64_only_accepts_exact_integers_in_the_safe_range() {
    assert_eq!(JsonValue::Number(0.0).as_u64(), Some(0));
    assert_eq!(JsonValue::Number(9_007_199_254_740_992.0).as_u64(), Some(9_007_199_254_740_992));
    assert_eq!(JsonValue::Number(1.5).as_u64(), None);
    assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
    // Beyond 2^53 adjacent integers collide in f64; the accessor refuses.
    assert_eq!(JsonValue::Number(1e19).as_u64(), None);
}

#[test]
fn trailing_garbage_is_rejected_after_a_complete_value() {
    let e = err("{} x");
    assert_eq!(e.offset, 3);
    assert!(e.message.contains("trailing characters"));
    assert_eq!(format!("{e}"), "JSON error at byte 3: trailing characters after JSON value");
}

#[test]
fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
    // 100,000 open brackets would overflow the stack of a parser that
    // recursed without a bound; the bracket that opens level 129 is refused.
    let e = err(&"[".repeat(100_000));
    assert_eq!(e.offset, MAX_DEPTH);
    assert_eq!(e.message, "nesting deeper than 128 levels");

    // A balanced line gets the same answer, and objects count as levels.
    let e = err(&format!("{}{}", "[".repeat(12_000), "]".repeat(12_000)));
    assert_eq!(e.offset, MAX_DEPTH);
    // Each 6-byte `{"a":[` opens two levels, so level 129 is the `{` of
    // the 65th repeat.
    let e = err(&"{\"a\":[".repeat(MAX_DEPTH));
    assert_eq!(e.offset, 6 * (MAX_DEPTH / 2));
    assert!(e.message.contains("nesting deeper"));

    // Exactly MAX_DEPTH levels still parse.
    let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    let mut value = &JsonValue::parse(&deepest).unwrap();
    for _ in 1..MAX_DEPTH {
        value = &value.as_array().unwrap()[0];
    }
    assert_eq!(value.as_array(), Some(&[][..]));
}
