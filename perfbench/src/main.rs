//! One repetition of one benchmark workload, in a fresh process.
//!
//! ```text
//! perfbench --workload <paper_full|sweep_seeds|mega_shell> --seed <n>
//!           --threads <n> [--traced] --scratch <dir>
//! ```
//!
//! Prints one JSON line: set-up time, the measured run's wall and CPU
//! time, peak RSS, jobs completed, the operations attempted and failed
//! with every failure reason, and (with `--traced`) the per-layer
//! metrics. `run.py` spawns one process per repetition and aggregates;
//! see `README.md` in this directory.

mod checks;
mod mega;
mod paper;
mod peel;
mod probe;
mod sweep_seeds;
mod trace;

use checks::Ops;
use probe::Span;
use satiot_core::prelude::*;
use satiot_core::sweep;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Trace;

/// What one repetition runs with.
pub struct Ctx<'a> {
    pub seed: u64,
    pub threads: usize,
    pub traced: bool,
    /// A directory this repetition may write (sweep checkpoints).
    pub scratch: PathBuf,
    pub opts: &'a RunOptions,
}

/// What one repetition measured.
pub struct Outcome {
    pub setup_s: f64,
    pub measured: Span,
    /// Jobs completed in the measured run.
    pub jobs: u64,
    pub ops: Ops,
    pub trace: Trace,
}

/// How long the one-shot workloads repeat their set-up. Each set-up
/// takes well under a millisecond; sampling it over this span instead
/// of for a fixed count keeps one moment of host contention from
/// setting the median.
const SETUP_SAMPLING_S: f64 = 0.2;

/// Run `setup` for [`SETUP_SAMPLING_S`] (three times at least), keeping
/// the last result. Returns it with the median set-up time and the
/// median of the inner time `setup` reports (scenario resolution).
pub fn setup_median<T>(setup: impl Fn() -> (T, f64)) -> (T, f64, f64) {
    let mut last = None;
    let (mut total, mut inner) = (Vec::new(), Vec::new());
    while total.len() < 3 || total.iter().sum::<f64>() < SETUP_SAMPLING_S {
        let ((value, inner_s), span) = probe::timed(&setup);
        total.push(span.wall_s);
        inner.push(inner_s);
        last = Some(value);
    }
    let value = last.expect("at least one set-up ran");
    (value, probe::median(&total), probe::median(&inner))
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_full|sweep_seeds|mega_shell> --seed <n> \
         --threads <n> [--traced] --scratch <dir>"
    );
    std::process::exit(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let mut workload = None;
    let (mut seed, mut threads, mut traced, mut scratch) = (None, None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--threads" => threads = value().parse::<usize>().ok().filter(|&n| n > 0),
            "--scratch" => scratch = Some(PathBuf::from(value())),
            "--traced" => traced = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed needs a whole number"));
    let threads = threads.unwrap_or_else(|| usage("--threads needs a positive number"));
    let scratch = scratch.unwrap_or_else(|| usage("--scratch is required"));

    // Hermetic: no SATIOT_* knob may reshape the run. The options are
    // built from defaults, never from the environment, and a leaked
    // knob is refused rather than silently ignored.
    let leaked: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SATIOT_"))
        .collect();
    if !leaked.is_empty() {
        usage(&format!("refusing to run with {} set", leaked.join(", ")));
    }
    let opts = RunOptions::default()
        .with_threads(Some(threads))
        .with_metrics(traced)
        .apply();
    let ctx = Ctx {
        seed,
        threads,
        traced,
        scratch,
        opts: &opts,
    };
    let mut outcome = match workload.as_str() {
        "paper_full" => paper::run(&ctx),
        "sweep_seeds" => sweep_seeds::run(&ctx),
        "mega_shell" => mega::run(&ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    let peak_rss_mb = probe::peak_rss_mb();

    let mut line = String::from("{");
    match &mut outcome {
        Ok(o) => {
            if traced {
                let proofs = o.trace.broken.iter().cloned().map(Some);
                o.ops.op("trace proofs", proofs);
            }
            let failures: Vec<String> = o
                .ops
                .0
                .iter()
                .flat_map(|(op, f)| f.iter().map(move |why| json_str(&format!("{op}: {why}"))))
                .collect();
            let failed = o.ops.failed();
            let _ = write!(
                line,
                "\"setup_s\": {}, \"wall_s\": {}, \"cpu_s\": {}, \"peak_rss_mb\": {}, \
                 \"jobs\": {}, \"ops\": {}, \"ops_failed\": {}, \"failures\": [{}]",
                json_num(o.setup_s),
                json_num(o.measured.wall_s),
                json_num(o.measured.cpu_s),
                json_num(peak_rss_mb),
                o.jobs,
                o.ops.0.len(),
                failed,
                failures.join(", "),
            );
            if traced {
                let mut metrics = o.trace.metrics.clone();
                let busy = o.measured.cpu_s / (o.measured.wall_s * threads as f64);
                metrics.push(("sim.pool.utilization".into(), busy));
                let (passes, grids) = (sweep::stats(), sweep::grid_stats());
                let ratio = |hits: u64, lookups: u64| hits as f64 / lookups.max(1) as f64;
                metrics.extend([
                    (
                        "core.sweep.pass_hit_ratio".into(),
                        ratio(passes.hits(), passes.lookups),
                    ),
                    (
                        "core.sweep.grid_hit_ratio".into(),
                        ratio(grids.hits(), grids.lookups),
                    ),
                    (
                        "core.sweep.cache_bytes".into(),
                        (passes.approx_bytes + grids.approx_bytes) as f64,
                    ),
                ]);
                let layers: Vec<String> = metrics
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                    .collect();
                let _ = write!(line, ", \"layers\": {{{}}}", layers.join(", "));
            }
        }
        Err(e) => {
            let _ = write!(
                line,
                "\"ops\": 1, \"ops_failed\": 1, \"failures\": [{}]",
                json_str(e)
            );
        }
    }
    line.push('}');
    println!("{line}");
}
