//! Measurements taken from outside the program: wall and CPU time of a
//! region, peak RSS, and the metrics registry's counters.

use std::collections::BTreeMap;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds used by every thread of this process,
/// live or exited.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name is parenthesised and may contain spaces; fields
    // after it start at field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("stat times are integers") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kb / 1024.0
}

/// Wall and CPU time of one region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Time `f` on the wall clock and the process CPU clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let (t0, c0) = (Instant::now(), cpu_s());
    let r = f();
    let span = Span {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_s() - c0,
    };
    (r, span)
}

/// Every counter in the metrics registry, parsed from its report. The
/// registry offers no by-name read, and its report is the stable view.
pub fn counters() -> BTreeMap<String, u64> {
    let report = satiot_obs::metrics::report();
    let mut out = BTreeMap::new();
    let mut in_counters = false;
    for line in report.lines() {
        if line.starts_with("--") {
            in_counters = line == "-- counters --";
            continue;
        }
        if in_counters {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
                if let Ok(v) = value.parse() {
                    out.insert(name.to_string(), v);
                }
            }
        }
    }
    out
}

/// Counter movement between two [`counters`] snapshots.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after) - get(before)
}

/// The median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn procfs_probes_read_this_process() {
        let (_, span) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(span.wall_s > 0.0 && span.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
