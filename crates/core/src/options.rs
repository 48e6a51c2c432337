//! Typed campaign run options: the one place `SATIOT_*` knobs are read.
//!
//! Campaigns take `&RunOptions`, the environment is parsed exactly once
//! by [`RunOptions::from_env`], and [`RunOptions::apply`] installs the
//! process-wide settings that code below the campaign API reads (pool
//! worker count, metrics flag, cache budget). Every knob
//! changes *what* is computed or *where* results go; the pipeline
//! itself has one shape.
//!
//! ```
//! use satiot_core::options::{RunOptions, Scale};
//! use satiot_core::sink::SinkMode;
//!
//! // Machine defaults; no environment involved.
//! let opts = RunOptions::default();
//! assert_eq!(opts.scale, Scale::Full);
//!
//! // Builder-style overrides on top of the environment.
//! let opts = RunOptions::from_env()
//!     .with_threads(Some(2))
//!     .with_sink(SinkMode::Aggregate);
//! assert_eq!(opts.threads, Some(2));
//! ```

use crate::sink::SinkMode;
use satiot_sim::{chaos, pool};

/// Campaign scale: truncated smoke dimensions or the paper's full ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Truncated campaigns for smoke runs (CI, benches);
    /// `SATIOT_SCALE=quick`.
    Quick,
    /// The paper's full campaign dimensions (the default).
    #[default]
    Full,
}

impl Scale {
    /// Read the scale from `SATIOT_SCALE` (default: full).
    pub fn from_env() -> Scale {
        RunOptions::from_env().scale
    }

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
/// `Default` is the machine default (auto thread count, metrics off,
/// full scale, full-trace sink) with **no** environment involvement —
/// hermetic for tests. [`from_env`](Self::from_env) layers the
/// `SATIOT_*` knobs on top; the `with_*` builders override either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Worker threads for the sweep pool phases; `None` uses the
    /// machine's available parallelism (`SATIOT_THREADS`).
    pub threads: Option<usize>,
    /// Root seed for the chaos perturbation engine
    /// (`SATIOT_CHAOS_SEED`); `chaos_smoke` builds its engine from it.
    pub chaos_seed: u64,
    /// Whether the `satiot_obs` metrics registry records
    /// (`SATIOT_METRICS`).
    pub metrics: bool,
    /// Campaign scale for the bench/reproduction binaries
    /// (`SATIOT_SCALE`).
    pub scale: Scale,
    /// Where the simulate phase routes decoded beacon traces
    /// (`SATIOT_SINK`: `full` | `aggregate` | `null` | `csv:<path>` |
    /// `jsonl:<path>`).
    pub sink: SinkMode,
    /// Sweep-server spill directory for checkpoint/resume
    /// (`SATIOT_SWEEP_DIR`); `None` disables checkpointing.
    pub sweep_dir: Option<&'static str>,
    /// Sweep-server shard assignment as `(index, count)`
    /// (`SATIOT_SWEEP_SHARD=i/n`, `i < n`); `None` runs every job.
    pub sweep_shard: Option<(usize, usize)>,
    /// Combined payload budget for the process-wide pass cache and
    /// ephemeris grid store, MiB (`SATIOT_SWEEP_CACHE_MB`; `0` or unset
    /// = unlimited, preserving exactly-once memoisation). Installed by
    /// [`apply`](Self::apply) through
    /// [`crate::sweep::set_cache_budget_bytes`]; the sweep server
    /// enforces it between jobs.
    pub sweep_cache_mb: Option<u64>,
    /// Path to a `.scenario.json` file (`SATIOT_SCENARIO`); `None` runs
    /// each binary's compiled-in scenario. Campaign binaries load it
    /// through `ScenarioSpec::from_file` and build their configs from
    /// the resolved scenario.
    pub scenario: Option<&'static str>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: None,
            chaos_seed: chaos::DEFAULT_SEED,
            metrics: false,
            scale: Scale::Full,
            sink: SinkMode::Full,
            sweep_dir: None,
            sweep_shard: None,
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
    /// and each rejection is reported on stderr, so a typo'd knob is
    /// visible instead of silently ignored.
    pub fn from_env() -> RunOptions {
        let (opts, warnings) = Self::from_lookup_with_warnings(|key| std::env::var(key).ok());
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
    /// * `SATIOT_CHAOS_SEED`: unparsable → the built-in chaos seed.
    /// * `SATIOT_SCALE`: unknown word → `full`.
    /// * `SATIOT_SINK`: unknown mode or a pathless `csv:`/`jsonl:` →
    ///   the full-trace sink.
    /// * `SATIOT_SWEEP_DIR`: empty → checkpointing off.
    /// * `SATIOT_SWEEP_SHARD`: anything but `i/n` with `i < n` → run
    ///   every job.
    /// * `SATIOT_SWEEP_CACHE_MB`: unparsable → unlimited; `0` is the
    ///   documented spelling of unlimited, not a rejection.
    /// * `SATIOT_SCENARIO`: empty → the compiled-in scenario. (Whether
    ///   the file exists and parses is decided by the binary that loads
    ///   it, with a typed `ScenarioError`.)
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
        let chaos_seed = lookup("SATIOT_CHAOS_SEED")
            .and_then(|v| match v.trim().parse::<u64>() {
                Ok(s) => Some(s),
                Err(_) => {
                    reject("SATIOT_CHAOS_SEED", &v, "the built-in seed");
                    None
                }
            })
            .unwrap_or(chaos::DEFAULT_SEED);
        let metrics = lookup("SATIOT_METRICS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        let scale = match lookup("SATIOT_SCALE").as_deref() {
            Some("quick") => Scale::Quick,
            Some("full") | Some("") | None => Scale::Full,
            Some(v) => {
                reject("SATIOT_SCALE", v, "the full campaign scale");
                Scale::Full
            }
        };
        let sink = match lookup("SATIOT_SINK").as_deref() {
            Some("aggregate") | Some("agg") => SinkMode::Aggregate,
            Some("null") => SinkMode::Null,
            // Spill paths leak once per parse so `RunOptions` stays
            // `Copy`; a process configures at most a handful of runs.
            Some(v) if v.starts_with("csv:") && v.len() > 4 => SinkMode::SpillCsv {
                path: Box::leak(v["csv:".len()..].to_string().into_boxed_str()),
            },
            Some(v) if v.starts_with("jsonl:") && v.len() > 6 => SinkMode::SpillJsonl {
                path: Box::leak(v["jsonl:".len()..].to_string().into_boxed_str()),
            },
            Some("full") | Some("") | None => SinkMode::Full,
            Some(v) => {
                reject("SATIOT_SINK", v, "the full-trace sink");
                SinkMode::Full
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
        let sweep_shard = lookup("SATIOT_SWEEP_SHARD").and_then(|v| {
            let parsed = v.split_once('/').and_then(|(i, n)| {
                let i = i.trim().parse::<usize>().ok()?;
                let n = n.trim().parse::<usize>().ok()?;
                (i < n).then_some((i, n))
            });
            if parsed.is_none() {
                reject("SATIOT_SWEEP_SHARD", &v, "an unsharded sweep");
            }
            parsed
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
            chaos_seed,
            metrics,
            scale,
            sink,
            sweep_dir,
            sweep_shard,
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

    /// Override the chaos root seed.
    pub fn with_chaos_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = seed;
        self
    }

    /// Override the metrics flag.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
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

    /// Override the sweep-server spill directory (`None` = no
    /// checkpointing). The path is interned for the process lifetime so
    /// `RunOptions` stays `Copy`.
    pub fn with_sweep_dir(mut self, dir: Option<&str>) -> Self {
        self.sweep_dir = dir.map(|d| &*Box::leak(d.to_string().into_boxed_str()));
        self
    }

    /// Override the sweep shard assignment (`(index, count)`,
    /// `index < count`).
    pub fn with_sweep_shard(mut self, shard: Option<(usize, usize)>) -> Self {
        self.sweep_shard = shard;
        self
    }

    /// Override the combined cache payload budget in MiB (`None` =
    /// unlimited).
    pub fn with_sweep_cache_mb(mut self, mb: Option<u64>) -> Self {
        self.sweep_cache_mb = mb;
        self
    }

    /// Override the scenario file path (`None` = the compiled-in
    /// scenario). The path is interned for the process lifetime so
    /// `RunOptions` stays `Copy`.
    pub fn with_scenario(mut self, path: Option<&str>) -> Self {
        self.scenario = path.map(|p| &*Box::leak(p.to_string().into_boxed_str()));
        self
    }

    /// Install these options into the process-wide settings read by
    /// code below the campaign API: the pool worker count, the metrics
    /// flag, and the cache payload budget. Binaries call
    /// `RunOptions::from_env().apply()` once at startup; returns `self`
    /// for chaining into a campaign call.
    pub fn apply(self) -> Self {
        pool::set_thread_count(self.threads);
        satiot_obs::metrics::set_enabled(self.metrics);
        crate::sweep::set_cache_budget_bytes(self.sweep_cache_mb.map(|mb| mb << 20));
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
            ("SATIOT_CHAOS_SEED", "12345"),
            ("SATIOT_METRICS", "1"),
            ("SATIOT_SCALE", "quick"),
            ("SATIOT_SINK", "aggregate"),
            ("SATIOT_SWEEP_DIR", "/tmp/sweep"),
            ("SATIOT_SWEEP_SHARD", "1/4"),
            ("SATIOT_SWEEP_CACHE_MB", "256"),
            ("SATIOT_SCENARIO", "/tmp/run.scenario.json"),
        ]));
        assert_eq!(opts.scenario, Some("/tmp/run.scenario.json"));
        assert_eq!(opts.sweep_dir, Some("/tmp/sweep"));
        assert_eq!(opts.sweep_shard, Some((1, 4)));
        assert_eq!(opts.sweep_cache_mb, Some(256));
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.chaos_seed, 12345);
        assert!(opts.metrics);
        assert_eq!(opts.scale, Scale::Quick);
        assert_eq!(opts.sink, SinkMode::Aggregate);
    }

    #[test]
    fn sink_knob_parses_every_mode() {
        let parse = |v: &str| RunOptions::from_lookup(lookup_from(&[("SATIOT_SINK", v)])).sink;
        assert_eq!(parse("full"), SinkMode::Full);
        assert_eq!(parse("aggregate"), SinkMode::Aggregate);
        assert_eq!(parse("agg"), SinkMode::Aggregate);
        assert_eq!(parse("null"), SinkMode::Null);
        match parse("csv:/tmp/run.csv") {
            SinkMode::SpillCsv { path } => assert_eq!(path, "/tmp/run.csv"),
            other => panic!("unexpected {other:?}"),
        }
        match parse("jsonl:/tmp/run.jsonl") {
            SinkMode::SpillJsonl { path } => assert_eq!(path, "/tmp/run.jsonl"),
            other => panic!("unexpected {other:?}"),
        }
        // Pathless spill specs and junk fall back to Full.
        assert_eq!(parse("csv:"), SinkMode::Full);
        assert_eq!(parse("jsonl:"), SinkMode::Full);
        assert_eq!(parse("parquet:/tmp/x"), SinkMode::Full);
    }

    #[test]
    fn malformed_values_fall_back() {
        let opts = RunOptions::from_lookup(lookup_from(&[
            ("SATIOT_THREADS", "zero"),
            ("SATIOT_CHAOS_SEED", "-3"),
            ("SATIOT_METRICS", "0"),
            ("SATIOT_SCALE", "huge"),
            ("SATIOT_SINK", "firehose"),
        ]));
        assert_eq!(opts.threads, None);
        assert_eq!(opts.chaos_seed, chaos::DEFAULT_SEED);
        assert!(!opts.metrics);
        assert_eq!(opts.scale, Scale::Full);
        assert_eq!(opts.sink, SinkMode::Full);
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
    fn malformed_sink_warns_and_falls_back_to_full() {
        for bad in ["firehose", "csv:", "jsonl:", "aggregate "] {
            let (opts, warnings) = parse_with_warnings(&[("SATIOT_SINK", bad)]);
            assert_eq!(opts.sink, SinkMode::Full, "SATIOT_SINK={bad:?}");
            assert_eq!(warnings.len(), 1, "SATIOT_SINK={bad:?}: {warnings:?}");
            assert!(warnings[0].contains("SATIOT_SINK"), "{warnings:?}");
        }
        for good in [
            "full",
            "aggregate",
            "agg",
            "null",
            "csv:/tmp/a.csv",
            "jsonl:/tmp/a.jl",
        ] {
            let (_, warnings) = parse_with_warnings(&[("SATIOT_SINK", good)]);
            assert!(warnings.is_empty(), "SATIOT_SINK={good:?}: {warnings:?}");
        }
    }

    #[test]
    fn malformed_sweep_knobs_warn_and_fall_back() {
        for bad in ["3", "1/", "/4", "4/4", "5/4", "a/b", "1/4/2"] {
            let (opts, warnings) = parse_with_warnings(&[("SATIOT_SWEEP_SHARD", bad)]);
            assert_eq!(opts.sweep_shard, None, "SATIOT_SWEEP_SHARD={bad:?}");
            assert_eq!(
                warnings.len(),
                1,
                "SATIOT_SWEEP_SHARD={bad:?}: {warnings:?}"
            );
        }
        let (opts, warnings) = parse_with_warnings(&[("SATIOT_SWEEP_SHARD", "0/1")]);
        assert_eq!(opts.sweep_shard, Some((0, 1)));
        assert!(warnings.is_empty(), "{warnings:?}");

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
            ("SATIOT_CHAOS_SEED", "-3"),
            ("SATIOT_SCALE", "huge"),
            ("SATIOT_SINK", "firehose"),
            ("SATIOT_SWEEP_SHARD", "broken"),
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
        assert_eq!(warnings.len(), 7, "{warnings:?}");
    }

    #[test]
    fn builders_override_lookup_round_trip() {
        // Env parse → builder override: the builder wins field by
        // field, leaving the rest of the parsed values intact.
        let base = RunOptions::from_lookup(lookup_from(&[
            ("SATIOT_THREADS", "8"),
            ("SATIOT_SINK", "null"),
            ("SATIOT_SCALE", "quick"),
        ]));
        let opts = base
            .with_threads(Some(2))
            .with_chaos_seed(7)
            .with_metrics(true)
            .with_scale(Scale::Full)
            .with_sink(SinkMode::Aggregate);
        assert_eq!(opts.sink, SinkMode::Aggregate);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.chaos_seed, 7);
        assert!(opts.metrics);
        assert_eq!(opts.scale, Scale::Full);
        // Untouched builder chains preserve the parsed values.
        assert_eq!(base.threads, Some(8));
        assert_eq!(base.sink, SinkMode::Null);
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
