//! Dependency-free observability and invariant checking for the satiot
//! workspace.
//!
//! Two concerns live here:
//!
//! - [`metrics`] — a process-global registry of counters, gauges,
//!   fixed-bucket histograms, and span timers. Recording is always on
//!   and is a handful of relaxed atomic operations, kept out of the
//!   hottest loops.
//! - [`invariants`] — debug-assertion helpers for the physical
//!   quantities the simulator passes between crates (elevations,
//!   probabilities, durations). They compile to nothing in release
//!   builds.
//!
//! The crate is std-only by design: the build environment has no
//! crates.io access, and the instrumented crates sit at the bottom of
//! the dependency graph where pulling in an external metrics stack
//! would be disproportionate.

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod invariants;
pub mod metrics;

pub use metrics::{Counter, Gauge, Histogram, Timer};
