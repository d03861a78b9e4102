//! The simulated model's text reading as it was before the one-pass
//! scanner: a Unicode lower-casing, about 35 substring scans per text, and
//! a fresh copy of every method region. Kept only as the test oracle the
//! scanner is compared against (`simulated.rs` unit tests and
//! `tests/property_tests.rs`, which includes this file by path, so its
//! parent module must provide `read` and `TextSignals`). The one change
//! from the original is that the cap window is cut from the bytes, not the
//! `str`, so it cannot split a multi-byte character.

use super::{read, TextSignals};

/// Asserts that the one-pass reading of `text` equals the oracle's: the
/// whole-file signals, the regions' names and texts, and every region's
/// signals. The two fold case differently outside ASCII, so `text` should
/// be ASCII.
pub fn assert_agrees(label: &str, text: &str) {
    let reading = read(text);
    assert_eq!(reading.signals, extract(text), "{label}: whole file");
    let regions = method_regions(text);
    let names: Vec<&str> = reading.methods.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = regions.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, expected, "{label}: region names");
    for (method, (name, body)) in reading.methods.iter().zip(&regions) {
        assert_eq!(&text[method.span.clone()], body, "{label}: region {name}");
        assert_eq!(method.signals, extract(body), "{label}: region {name}");
    }
}

/// Splits raw text into `(method name, body text)` regions by scanning for
/// `method NAME(` / `test NAME(` declarations.
pub fn method_regions(text: &str) -> Vec<(String, String)> {
    let mut decls: Vec<(usize, String)> = Vec::new();
    for keyword in ["method ", "test "] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(keyword) {
            let at = from + pos;
            let rest = &text[at + keyword.len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '$')
                .collect();
            if !name.is_empty() && rest[name.len()..].trim_start().starts_with('(') {
                decls.push((at, name));
            }
            from = at + keyword.len();
        }
    }
    decls.sort();
    let mut out = Vec::new();
    for (i, (start, name)) in decls.iter().enumerate() {
        let end = decls.get(i + 1).map(|(e, _)| *e).unwrap_or(text.len());
        out.push((name.clone(), text[*start..end].to_string()));
    }
    out
}

/// Extracts signals from raw source text.
pub fn extract(text: &str) -> TextSignals {
    let lower = text.to_lowercase();
    let retry_keyword = ["retry", "retries", "retrying", "reattempt", "resubmit", "reschedule"]
        .iter()
        .any(|k| lower.contains(k));
    let has_catch = lower.contains("catch (") || lower.contains("catch(");
    let has_loop = lower.contains("while (")
        || lower.contains("while(")
        || lower.contains("for (")
        || lower.contains("for(");
    let catch_pos = lower.find("catch");
    let reenqueue_after_catch = match catch_pos {
        Some(pos) => {
            let rest = &lower[pos..];
            rest.contains(".put(") || rest.contains(".putdelayed(")
        }
        None => false,
    };
    let has_state_machine = lower.contains("switch (") || lower.contains("switch(");
    let has_sleep =
        lower.contains("sleep(") || lower.contains(".putdelayed(") || lower.contains("schedule");
    let calls_delay_helper = ["backoff(", "delay(", "pause(", "waitquietly("]
        .iter()
        .any(|k| lower.contains(k));
    let defines_delay_helper = ["method backoff", "method delay", "method pause", "method waitquietly"]
        .iter()
        .any(|k| lower.contains(k))
        && lower.contains("sleep(");
    let has_poll = ["poll", "compareandset", "spinlock", "spin_", "busywait"]
        .iter()
        .any(|k| lower.contains(k));
    let has_cap_comparison = cap_comparison(&lower);
    let has_error_code =
        lower.contains("error code") || lower.contains("errcode") || lower.contains("err_");
    TextSignals {
        retry_keyword,
        has_catch,
        has_loop,
        reenqueue_after_catch,
        has_state_machine,
        has_sleep,
        calls_delay_helper,
        defines_delay_helper,
        has_poll,
        has_cap_comparison,
        has_error_code,
        bytes: text.len(),
    }
}

/// Finds a `<`/`>` comparison within 48 bytes of a cap-ish identifier.
fn cap_comparison(lower: &str) -> bool {
    const CAPISH: [&str; 6] = ["max", "limit", "cap", "attempt", "retries", "budget"];
    let bytes = lower.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'<' || *b == b'>' {
            let start = i.saturating_sub(48);
            let end = (i + 48).min(bytes.len());
            let window = &bytes[start..end];
            if CAPISH
                .iter()
                .any(|k| window.windows(k.len()).any(|w| w == k.as_bytes()))
            {
                return true;
            }
        }
    }
    false
}
