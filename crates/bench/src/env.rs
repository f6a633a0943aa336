//! Uniform environment-variable parsing for the bench binaries.
//!
//! Every knob across the harness (`BENCH_WORKERS`, `SOAK_*`, `FUZZ_*`,
//! `THROUGHPUT_*`, `TRACE_*`, `ANALYZE_*`, ...) resolves through these helpers so the rules are identical
//! everywhere: an unset or empty variable falls back to its default,
//! and a *malformed* value aborts loudly with a uniform message instead
//! of being silently swallowed — a sweep that ran with the wrong worker
//! count because of a typo is worse than one that refused to start.

use std::fmt::Display;
use std::str::FromStr;

/// Read and parse `name`. Unset or empty returns `None`; a malformed
/// value panics with a uniform message.
pub fn get<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: Display,
{
    let raw = std::env::var(name).ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(e) => panic!("{name}={raw:?} is invalid: {e}"),
    }
}

/// [`get`] with a default for the unset/empty case.
pub fn get_or<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: Display,
{
    get(name).unwrap_or(default)
}

/// Read `name` as a plain string (no parsing; empty counts as unset).
pub fn string(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

/// [`string`] with a default for the unset/empty case.
pub fn string_or(name: &str, default: &str) -> String {
    string(name).unwrap_or_else(|| default.to_string())
}

/// True when `name` is set at all (any value, including empty) —
/// presence-style switches like `GOLDEN_BLESS=1`.
pub fn flag(name: &str) -> bool {
    std::env::var_os(name).is_some()
}

#[cfg(test)]
mod tests {
    // Process-global environment mutation: each test uses its own
    // variable name so parallel test threads cannot interfere.
    use super::*;

    #[test]
    fn unset_and_empty_fall_back() {
        assert_eq!(get_or::<u64>("BENCH_ENV_TEST_UNSET", 7), 7);
        std::env::set_var("BENCH_ENV_TEST_EMPTY", "  ");
        assert_eq!(get_or::<u64>("BENCH_ENV_TEST_EMPTY", 7), 7);
        assert!(!flag("BENCH_ENV_TEST_UNSET"));
        assert!(flag("BENCH_ENV_TEST_EMPTY"));
    }

    #[test]
    fn valid_values_parse() {
        std::env::set_var("BENCH_ENV_TEST_NUM", " 42 ");
        assert_eq!(get::<usize>("BENCH_ENV_TEST_NUM"), Some(42));
    }

    #[test]
    fn malformed_values_abort() {
        std::env::set_var("BENCH_ENV_TEST_BAD", "4x");
        let err = std::panic::catch_unwind(|| get::<u64>("BENCH_ENV_TEST_BAD"));
        assert!(err.is_err(), "malformed value must panic");
    }
}
