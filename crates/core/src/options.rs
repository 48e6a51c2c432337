//! Typed campaign run options: the one place `SATIOT_*` knobs are read.
//!
//! Campaigns take `&RunOptions`. Each binary's `main` parses the
//! environment exactly once with [`RunOptions::from_env`] and calls
//! [`RunOptions::apply`] once to pin the pool's worker count, the one
//! process-wide setting that code below the campaign API reads; library
//! code and tests only ever receive the value. Every knob changes *what*
//! is computed or *where* results go; the pipeline itself has one shape.
//! A set `SATIOT_*` variable that is not one of the five knobs (a
//! retired knob or a typo) is reported, never silently ignored.
//!
//! ```
//! use satiot_core::options::{RunOptions, Scale};
//! use satiot_core::sink::SinkMode;
//!
//! // Machine defaults; no environment involved.
//! let opts = RunOptions::default();
//! assert_eq!(opts.scale, Scale::Full);
//!
//! // Builder-style overrides on top of parsed knobs (a binary's `main`
//! // parses with `from_env`; `from_lookup` takes any variable source).
//! let opts = RunOptions::from_lookup(|key| (key == "SATIOT_SCALE").then(|| "quick".into()))
//!     .with_threads(Some(2))
//!     .with_sink(SinkMode::Aggregate);
//! assert_eq!((opts.scale, opts.threads), (Scale::Quick, Some(2)));
//! ```

use crate::sink::SinkMode;
use satiot_sim::pool;

/// Every `SATIOT_*` knob [`RunOptions::from_env`] reads.
const KNOBS: [&str; 5] = [
    "SATIOT_THREADS",
    "SATIOT_SCALE",
    "SATIOT_SWEEP_DIR",
    "SATIOT_SWEEP_CACHE_MB",
    "SATIOT_SCENARIO",
];

/// One warning per `SATIOT_*` name in `names` that is not a knob (a
/// retired knob such as `SATIOT_SINK`, or a typo), naming it as
/// ignored. Other names pass silently; the result is in name order.
fn unknown_knob_warnings(names: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut unknown: Vec<String> = names
        .into_iter()
        .filter(|name| name.starts_with("SATIOT_") && !KNOBS.contains(&name.as_str()))
        .collect();
    unknown.sort();
    let knobs = KNOBS.join(", ");
    unknown
        .iter()
        .map(|name| format!("{name} is not a knob and is ignored (knobs: {knobs})"))
        .collect()
}

/// Campaign scale: truncated quick dimensions or the paper's full ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Truncated campaigns for quick runs and tests;
    /// `SATIOT_SCALE=quick`.
    Quick,
    /// The paper's full campaign dimensions (the default).
    #[default]
    Full,
}

impl Scale {
    /// Per-site cap on passive campaign days.
    pub fn passive_days(self) -> f64 {
        match self {
            Scale::Quick => 5.0,
            Scale::Full => f64::INFINITY,
        }
    }

    /// Active campaign length, days (paper: one month).
    pub fn active_days(self) -> f64 {
        match self {
            Scale::Quick => 5.0,
            Scale::Full => 30.0,
        }
    }

    /// Days used for the theoretical-availability analysis (Fig 3a).
    pub fn availability_days(self) -> u32 {
        match self {
            Scale::Quick => 3,
            Scale::Full => 14,
        }
    }
}

/// Typed options for one campaign run.
///
/// `Default` is the machine default (auto thread count, full scale,
/// full-trace sink) with **no** environment involvement —
/// hermetic for tests. [`from_env`](Self::from_env) layers the
/// `SATIOT_*` knobs on top; the `with_*` builders override either. The
/// trace sink is the one field no knob sets: `reproduce_all` needs the
/// full traces and the sweep server forces the aggregating sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Worker threads for the sweep pool phases; `None` uses the
    /// machine's available parallelism (`SATIOT_THREADS`).
    pub threads: Option<usize>,
    /// Campaign scale for the bench/reproduction binaries
    /// (`SATIOT_SCALE`).
    pub scale: Scale,
    /// What the simulate phase keeps of its decoded beacon traces.
    pub sink: SinkMode,
    /// Sweep-server spill directory for checkpoint/resume
    /// (`SATIOT_SWEEP_DIR`); `None` disables checkpointing.
    pub sweep_dir: Option<&'static str>,
    /// Combined payload budget for the process-wide pass cache and
    /// ephemeris grid store, MiB (`SATIOT_SWEEP_CACHE_MB`; `0` or unset
    /// = unlimited, preserving exactly-once memoisation). The sweep
    /// server enforces it between jobs; nothing else evicts.
    pub sweep_cache_mb: Option<u64>,
    /// Path to a `.scenario.json` file (`SATIOT_SCENARIO`); `None` runs
    /// the compiled-in scenarios. The experiment runners load it through
    /// `ScenarioSpec::from_file` and build their configs from the
    /// resolved scenario.
    pub scenario: Option<&'static str>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: None,
            scale: Scale::Full,
            sink: SinkMode::Full,
            sweep_dir: None,
            sweep_cache_mb: None,
            scenario: None,
        }
    }
}

impl RunOptions {
    /// Options resolved from the `SATIOT_*` environment variables —
    /// the **only** place in the workspace that reads them.
    ///
    /// Malformed values fall back to the documented defaults (see
    /// [`from_lookup_with_warnings`](Self::from_lookup_with_warnings))
    /// and each rejection is reported on stderr, as is every set
    /// `SATIOT_*` variable that is not a knob, so a typo'd or retired
    /// knob is visible instead of silently ignored.
    pub fn from_env() -> RunOptions {
        let (opts, mut warnings) = Self::from_lookup_with_warnings(|key| std::env::var(key).ok());
        let names = std::env::vars_os().filter_map(|(name, _)| name.into_string().ok());
        warnings.extend(unknown_knob_warnings(names));
        for w in &warnings {
            eprintln!("satiot: warning: {w}");
        }
        opts
    }

    /// [`from_env`](Self::from_env) with an injectable variable source
    /// (tests exercise the parsing without touching the process
    /// environment). Discards rejection warnings; use
    /// [`from_lookup_with_warnings`](Self::from_lookup_with_warnings)
    /// to observe them.
    pub fn from_lookup<F: Fn(&str) -> Option<String>>(lookup: F) -> RunOptions {
        Self::from_lookup_with_warnings(lookup).0
    }

    /// Parse every `SATIOT_*` knob from `lookup`, collecting one
    /// human-readable warning per *rejected* value. Rejection is never
    /// silent and never fatal: each malformed value falls back to its
    /// documented default —
    ///
    /// * `SATIOT_THREADS`: unparsable → auto (`None`); `0` is the
    ///   *documented* spelling of auto, not a rejection.
    /// * `SATIOT_SCALE`: unknown word → `full`.
    /// * `SATIOT_SWEEP_DIR`: empty → checkpointing off.
    /// * `SATIOT_SWEEP_CACHE_MB`: unparsable → unlimited; `0` is the
    ///   documented spelling of unlimited, not a rejection.
    /// * `SATIOT_SCENARIO`: empty → the compiled-in scenario. (Whether
    ///   the file exists and parses is decided by the binary that loads
    ///   it, with a typed `ScenarioError`.)
    ///
    /// A lookup cannot list its variables, so set `SATIOT_*` names that
    /// are not knobs are reported by [`from_env`](Self::from_env) alone.
    pub fn from_lookup_with_warnings<F: Fn(&str) -> Option<String>>(
        lookup: F,
    ) -> (RunOptions, Vec<String>) {
        let mut warnings: Vec<String> = Vec::new();
        let mut reject = |key: &str, value: &str, fallback: &str| {
            warnings.push(format!("{key}={value:?} is invalid; using {fallback}"));
        };
        let threads = lookup("SATIOT_THREADS").and_then(|v| match v.trim().parse::<usize>() {
            Ok(0) => None, // Documented: 0 = auto.
            Ok(n) => Some(n),
            Err(_) => {
                reject("SATIOT_THREADS", &v, "the machine's parallelism");
                None
            }
        });
        let scale = match lookup("SATIOT_SCALE").as_deref() {
            Some("quick") => Scale::Quick,
            Some("full") | Some("") | None => Scale::Full,
            Some(v) => {
                reject("SATIOT_SCALE", v, "the full campaign scale");
                Scale::Full
            }
        };
        let sweep_dir = lookup("SATIOT_SWEEP_DIR").and_then(|v| {
            if v.is_empty() {
                reject("SATIOT_SWEEP_DIR", &v, "no checkpointing");
                None
            } else {
                Some(&*Box::leak(v.into_boxed_str()))
            }
        });
        let sweep_cache_mb = lookup("SATIOT_SWEEP_CACHE_MB").and_then(|v| {
            match v.trim().parse::<u64>() {
                Ok(0) => None, // Documented: 0 = unlimited.
                Ok(mb) => Some(mb),
                Err(_) => {
                    reject("SATIOT_SWEEP_CACHE_MB", &v, "an unbounded cache");
                    None
                }
            }
        });
        let scenario = lookup("SATIOT_SCENARIO").and_then(|v| {
            if v.is_empty() {
                reject("SATIOT_SCENARIO", &v, "the compiled-in scenario");
                None
            } else {
                Some(&*Box::leak(v.into_boxed_str()))
            }
        });
        let opts = RunOptions {
            threads,
            scale,
            sink: SinkMode::Full,
            sweep_dir,
            sweep_cache_mb,
            scenario,
        };
        (opts, warnings)
    }

    /// Override the pool worker count (`None` = machine default).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Does nothing: metrics always record. Kept because the perfbench
    /// worker calls it.
    #[doc(hidden)]
    pub fn with_metrics(self, _on: bool) -> Self {
        self
    }

    /// Override the campaign scale.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Override the simulate-phase trace sink.
    pub fn with_sink(mut self, sink: SinkMode) -> Self {
        self.sink = sink;
        self
    }

    /// Override the combined cache payload budget in MiB (`None` =
    /// unlimited).
    pub fn with_sweep_cache_mb(mut self, mb: Option<u64>) -> Self {
        self.sweep_cache_mb = mb;
        self
    }

    /// Pin the pool's worker count, the one process-wide setting read
    /// by code below the campaign API. Binaries call
    /// `RunOptions::from_env().apply()` once at startup; returns `self`
    /// for chaining into a campaign call.
    pub fn apply(self) -> Self {
        pool::set_thread_count(self.threads);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lookup_from(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |key: &str| map.get(key).cloned()
    }

    #[test]
    fn empty_lookup_matches_machine_defaults() {
        let opts = RunOptions::from_lookup(|_| None);
        assert_eq!(opts, RunOptions::default());
    }

    #[test]
    fn every_knob_parses() {
        let opts = RunOptions::from_lookup(lookup_from(&[
            ("SATIOT_THREADS", "4"),
            ("SATIOT_SCALE", "quick"),
            ("SATIOT_SWEEP_DIR", "/tmp/sweep"),
            ("SATIOT_SWEEP_CACHE_MB", "256"),
            ("SATIOT_SCENARIO", "/tmp/run.scenario.json"),
        ]));
        assert_eq!(opts.scenario, Some("/tmp/run.scenario.json"));
        assert_eq!(opts.sweep_dir, Some("/tmp/sweep"));
        assert_eq!(opts.sweep_cache_mb, Some(256));
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.scale, Scale::Quick);
        assert_eq!(opts.sink, SinkMode::Full);
    }

    #[test]
    fn malformed_values_fall_back() {
        let opts = RunOptions::from_lookup(lookup_from(&[
            ("SATIOT_THREADS", "zero"),
            ("SATIOT_SCALE", "huge"),
        ]));
        assert_eq!(opts.threads, None);
        assert_eq!(opts.scale, Scale::Full);
    }

    #[test]
    fn threads_of_zero_means_auto() {
        let opts = RunOptions::from_lookup(lookup_from(&[("SATIOT_THREADS", "0")]));
        assert_eq!(opts.threads, None);
    }

    // ---- rejection paths: malformed values must fall back to the
    // documented default *and* say so, never silently mis-parse ----

    fn parse_with_warnings(pairs: &[(&str, &str)]) -> (RunOptions, Vec<String>) {
        RunOptions::from_lookup_with_warnings(lookup_from(pairs))
    }

    #[test]
    fn malformed_threads_warns_and_falls_back_to_auto() {
        for bad in ["zero", "-2", "3.5", "many", " "] {
            let (opts, warnings) = parse_with_warnings(&[("SATIOT_THREADS", bad)]);
            assert_eq!(opts.threads, None, "SATIOT_THREADS={bad:?}");
            assert_eq!(warnings.len(), 1, "SATIOT_THREADS={bad:?}: {warnings:?}");
            assert!(warnings[0].contains("SATIOT_THREADS"), "{warnings:?}");
        }
        // The documented spellings parse silently.
        for (good, want) in [("0", None), ("1", Some(1)), (" 8 ", Some(8))] {
            let (opts, warnings) = parse_with_warnings(&[("SATIOT_THREADS", good)]);
            assert_eq!(opts.threads, want, "SATIOT_THREADS={good:?}");
            assert!(warnings.is_empty(), "SATIOT_THREADS={good:?}: {warnings:?}");
        }
    }

    #[test]
    fn malformed_sweep_knobs_warn_and_fall_back() {
        let (opts, warnings) = parse_with_warnings(&[("SATIOT_SWEEP_CACHE_MB", "lots")]);
        assert_eq!(opts.sweep_cache_mb, None);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        let (opts, warnings) = parse_with_warnings(&[("SATIOT_SWEEP_CACHE_MB", "0")]);
        assert_eq!(
            opts.sweep_cache_mb, None,
            "0 is the documented unlimited spelling"
        );
        assert!(warnings.is_empty(), "{warnings:?}");

        let (opts, warnings) = parse_with_warnings(&[("SATIOT_SWEEP_DIR", "")]);
        assert_eq!(opts.sweep_dir, None);
        assert_eq!(warnings.len(), 1, "{warnings:?}");

        let (opts, warnings) = parse_with_warnings(&[("SATIOT_SCENARIO", "")]);
        assert_eq!(opts.scenario, None);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn every_rejection_path_warns_exactly_once() {
        let (opts, warnings) = parse_with_warnings(&[
            ("SATIOT_THREADS", "zero"),
            ("SATIOT_SCALE", "huge"),
            ("SATIOT_SWEEP_CACHE_MB", "big"),
            ("SATIOT_SCENARIO", ""),
        ]);
        // Every malformed knob fell back to its documented default…
        assert_eq!(
            opts,
            RunOptions::default(),
            "malformed values must not leak into the options"
        );
        // …and every one of them was reported.
        assert_eq!(warnings.len(), 4, "{warnings:?}");
    }

    #[test]
    fn unknown_satiot_names_warn_once_each() {
        let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        // The five knobs and non-SATIOT names pass silently.
        let mut silent = names(&KNOBS);
        silent.extend(names(&["PATH", "HOME", "SATIOT", "satiot_sink"]));
        assert!(unknown_knob_warnings(silent).is_empty());
        // Retired knobs and typos warn once each, in name order, naming
        // the variable as ignored.
        let warnings = unknown_knob_warnings(names(&[
            "SATIOT_SWEEP_SHARD",
            "PATH",
            "SATIOT_SINK",
            "SATIOT_METRICS",
            "SATIOT_THREADS",
            "SATIOT_THREAD",
        ]));
        assert_eq!(warnings.len(), 4, "{warnings:?}");
        let expected = [
            "SATIOT_METRICS ",
            "SATIOT_SINK ",
            "SATIOT_SWEEP_SHARD ",
            "SATIOT_THREAD ",
        ];
        for (w, name) in warnings.iter().zip(expected) {
            assert!(w.starts_with(name) && w.contains("ignored"), "{w}");
        }
    }

    #[test]
    fn builders_override_lookup_round_trip() {
        // Env parse → builder override: the builder wins field by
        // field, leaving the rest of the parsed values intact.
        let base = RunOptions::from_lookup(lookup_from(&[
            ("SATIOT_THREADS", "8"),
            ("SATIOT_SCALE", "quick"),
        ]));
        let opts = base
            .with_threads(Some(2))
            .with_scale(Scale::Full)
            .with_sink(SinkMode::Aggregate);
        assert_eq!(opts.sink, SinkMode::Aggregate);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.scale, Scale::Full);
        // Untouched builder chains preserve the parsed values.
        assert_eq!(base.threads, Some(8));
        assert_eq!(base.sink, SinkMode::Full);
        assert_eq!(base.scale, Scale::Quick);
    }

    #[test]
    fn scale_dimensions() {
        assert_eq!(Scale::Quick.passive_days(), 5.0);
        assert_eq!(Scale::Quick.active_days(), 5.0);
        assert!(Scale::Full.passive_days().is_infinite());
        assert_eq!(Scale::Full.active_days(), 30.0);
        assert!(Scale::Full.availability_days() > Scale::Quick.availability_days());
    }
}
