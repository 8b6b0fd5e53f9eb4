//! The process's configuration: every `DPVK_*` environment knob, read
//! and validated once, on first use, in this module and nowhere else
//! (README.md's "Environment knobs" table says what each takes).
//!
//! A knob set to a value that does not parse is a configuration bug, not
//! a request for the default: the first read panics with its
//! [`InvalidEnvValue`] message, naming the knob.

use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

use crate::exec::Engine;
use crate::persist::PersistConfig;

/// An environment variable held a value that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidEnvValue {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The offending value.
    pub value: String,
    /// What the variable expects, for the error message.
    pub expected: &'static str,
}

impl fmt::Display for InvalidEnvValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid value `{}`: expected {}", self.value, self.expected)
    }
}

impl std::error::Error for InvalidEnvValue {}

/// The validated settings. Tracing is not a field: reading the config
/// turns it on in `dpvk-trace` when `DPVK_TRACE` asks for it.
pub(crate) struct Config {
    /// `DPVK_ENGINE`, else [`Engine::default`].
    pub engine: Engine,
    /// `DPVK_POOL_WORKERS`.
    pub pool_workers: Option<usize>,
    /// `DPVK_CACHE_DIR` (with `DPVK_CACHE_CAP`); `None` keeps the cache
    /// in memory.
    pub persist: Option<PersistConfig>,
}

/// The process's configuration, read from the environment the first
/// time anything asks.
///
/// # Panics
///
/// On the first call, when a knob holds a value that does not parse.
pub(crate) fn get() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| {
        if knob("DPVK_TRACE", ON_OFF, parse_flag) == Some(true) {
            dpvk_trace::enable_into(std::env::var_os("DPVK_TRACE_DIR").map(PathBuf::from));
        }
        let engine = knob("DPVK_ENGINE", "`bytecode` or `jit`", |v| Engine::parse(v).ok());
        let pool_workers = knob("DPVK_POOL_WORKERS", WORKER_COUNT, worker_count);
        let cap = knob("DPVK_CACHE_CAP", "a size cap in bytes", |v| v.parse().ok());
        let persist = std::env::var_os("DPVK_CACHE_DIR").map(|dir| match cap {
            Some(cap) => PersistConfig::at(dir).with_cap_bytes(cap),
            None => PersistConfig::at(dir),
        });
        Config { engine: engine.unwrap_or_default(), pool_workers, persist }
    })
}

const ON_OFF: &str = "1/true/on/yes or 0/false/off/no";
const WORKER_COUNT: &str = "a worker count (1..=256)";

/// Knob `var` through `parse`: `None` when unset.
///
/// # Panics
///
/// When it is set to anything `parse` refuses.
fn knob<T>(var: &'static str, expected: &'static str, parse: fn(&str) -> Option<T>) -> Option<T> {
    let value = std::env::var_os(var)?.to_string_lossy().into_owned();
    Some(parse_knob(var, value, expected, parse).unwrap_or_else(|e| panic!("{var}: {e}")))
}

/// `value`, the setting of knob `var`, through `parse`.
fn parse_knob<T>(
    var: &'static str,
    value: String,
    expected: &'static str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, InvalidEnvValue> {
    parse(&value).ok_or(InvalidEnvValue { var, value, expected })
}

fn parse_flag(v: &str) -> Option<bool> {
    match v {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

fn worker_count(v: &str) -> Option<usize> {
    v.parse().ok().filter(|n| (1..=256).contains(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_knobs_refuse_what_does_not_parse_or_lies_outside_their_range() {
        let pool = |v: &str| parse_knob("DPVK_POOL_WORKERS", v.into(), WORKER_COUNT, worker_count);
        assert_eq!(pool("1"), Ok(1));
        assert_eq!(pool("256"), Ok(256));
        for bad in ["0", "257", "1000", "-1", "abc", ""] {
            let e = pool(bad).expect_err(bad);
            assert_eq!(e.to_string(), format!("invalid value `{bad}`: expected {WORKER_COUNT}"));
        }
    }

    #[test]
    fn flags_take_on_and_off_words_and_refuse_the_rest() {
        for on in ["1", "true", "on", "yes"] {
            assert_eq!(parse_flag(on), Some(true), "{on}");
        }
        for off in ["0", "false", "off", "no"] {
            assert_eq!(parse_flag(off), Some(false), "{off}");
        }
        for bad in ["2", "TRUE", "", "enable"] {
            let e = parse_knob("DPVK_TRACE", bad.into(), ON_OFF, parse_flag).expect_err(bad);
            assert_eq!(e.to_string(), format!("invalid value `{bad}`: expected {ON_OFF}"));
        }
    }
}
