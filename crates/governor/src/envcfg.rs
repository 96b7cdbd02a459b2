//! Strict environment-knob parsing with warn-once fallback.
//!
//! The engine's env knobs (`DC_FAILPOINTS`, and `DC_TRACE` in
//! `dc-trace`) are parsed strictly: an invalid value warns **once** per
//! variable and falls back to the documented default (`DC_FAILPOINTS` →
//! nothing armed) — never silently ignored. Warning once matters
//! because a knob may be consulted on hot paths: a misconfigured
//! variable must not turn stderr into a firehose.

use std::sync::Mutex;

static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Emit `msg`, at most once per `key` for the process lifetime. Keys
/// are env-variable names; the message should state the rejected value,
/// the reason, and the fallback taken.
///
/// When tracing is armed (`DC_TRACE`), the warning is delivered to the
/// trace sink as a `warning` event — so tests install a
/// [`dc_trace::Collector`] and assert on it — and stderr stays quiet.
/// Otherwise it goes to stderr, the historical default.
pub fn warn_once(key: &str, msg: &str) {
    let mut warned = match WARNED.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if warned.iter().any(|k| k == key) {
        return;
    }
    warned.push(key.to_string());
    if !dc_trace::warn(key, msg) {
        eprintln!("warning: {msg}");
    }
}

/// Test hook: has `key` warned already? (Warn-once state is global, so
/// tests assert on this instead of capturing stderr.)
pub fn has_warned(key: &str) -> bool {
    let warned = match WARNED.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    warned.iter().any(|k| k == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warns_exactly_once_per_key() {
        assert!(!has_warned("DC_TEST_KNOB"));
        warn_once("DC_TEST_KNOB", "first");
        warn_once("DC_TEST_KNOB", "second (suppressed)");
        assert!(has_warned("DC_TEST_KNOB"));
        warn_once("DC_OTHER_KNOB", "different key still warns");
        assert!(has_warned("DC_OTHER_KNOB"));
    }
}
