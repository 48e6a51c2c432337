//! The traced run's ledger: one span per layer call, the per-layer
//! metrics, and the proofs that each peeled layer really filled its
//! cache before the next layer ran.

use crate::probe::{self, Span};

/// Per-layer metrics and proofs of one repetition. With tracing off it
/// still times steps (the caller may need the spans) but records
/// nothing and proves nothing.
#[derive(Debug, Default)]
pub struct Trace {
    /// Whether this is the traced run.
    pub on: bool,
    /// Worker threads the campaign pool runs with.
    pub threads: usize,
    /// Per-layer metrics in recording order.
    pub metrics: Vec<(String, f64)>,
    /// Layers whose peel-step proof failed: their time cannot be
    /// attributed to them, so the repetition fails.
    pub broken: Vec<String>,
    /// Sum of every step's wall time, for the coverage ratio.
    pub covered_s: f64,
}

impl Trace {
    pub fn new(on: bool, threads: usize) -> Trace {
        Trace {
            on,
            threads,
            ..Trace::default()
        }
    }

    /// Run one layer call as a step of the ledger.
    pub fn step<R>(&mut self, f: impl FnOnce() -> R) -> (R, Span) {
        let (r, span) = probe::timed(f);
        self.covered_s += span.wall_s;
        (r, span)
    }

    /// Record a per-layer metric (traced run only).
    pub fn set(&mut self, name: &str, value: f64) {
        if self.on {
            self.metrics.push((name.to_string(), value));
        }
    }

    /// Record a step's wall time, CPU time and pool utilisation under
    /// `prefix` (`<prefix>_s`, `<prefix>_cpu_s`, `<prefix>_utilization`).
    pub fn set_span(&mut self, prefix: &str, span: Span) {
        self.set(&format!("{prefix}_s"), span.wall_s);
        self.set(&format!("{prefix}_cpu_s"), span.cpu_s);
        let busy = span.cpu_s / (span.wall_s * self.threads as f64);
        self.set(&format!("{prefix}_utilization"), busy);
    }

    /// Record the share of the measured run's wall time that the steps
    /// so far cover (`trace.coverage`); call it where the measured run
    /// ends, before any untimed checks run as steps.
    pub fn coverage(&mut self, measured: Span) {
        self.set("trace.coverage", self.covered_s / measured.wall_s);
    }

    /// Assert that `layer` was separable (traced run only).
    pub fn prove(&mut self, layer: &str, holds: bool, why: impl FnOnce() -> String) {
        if self.on && !holds {
            self.broken
                .push(format!("{layer} not separable: {}", why()));
        }
    }
}
