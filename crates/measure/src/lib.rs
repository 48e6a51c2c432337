//! # satiot-measure
//!
//! The analysis layer: trace records, contact-window extraction, summary
//! statistics, and report rendering. This is the code path that turns raw
//! campaign output into the paper's tables and figures, and it is shared
//! by every experiment in `satiot-bench`.
//!
//! * [`trace`] — packet-trace records (what a TinyGS-style station logs
//!   per received beacon, and what the active deployment logs per packet).
//! * [`stats`] — mean/percentile/CDF/histogram summaries.
//! * [`contact`] — theoretical vs. *effective* contact windows: the
//!   paper's central analysis (Fig 4a/4b/9) of how much of each predicted
//!   pass actually carries decodable beacons.
//! * [`reliability`] — sequence-ID based end-to-end delivery analysis
//!   (the paper's Appendix B methodology), counted over the campaigns'
//!   packet ledger of [`latency::PacketTimeline`] entries.
//! * [`latency`] — per-packet latency decomposition (Fig 5c/5d).
//! * [`table`] — plain-text table/series rendering for the experiment
//!   binaries.
//! * [`csv`] — dependency-free CSV persistence for trace sets (the
//!   paper publishes its dataset as packet traces; so do we).
//! * [`sketch`] — mergeable streaming sketches (Welford moments and
//!   fixed-width quantile sketches) so month-long campaigns summarise in
//!   O(sites) memory instead of O(traces).

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod contact;
pub mod csv;
pub mod latency;
pub mod reliability;
pub mod sketch;
pub mod stats;
pub mod table;
pub mod trace;

pub use contact::{effective_windows, ContactStats, EffectiveWindow};
pub use sketch::{MetricSketch, QuantileSketch, StreamSummary, TraceAggregate};
pub use stats::{cdf_points, Histogram, Summary};
pub use table::Table;
pub use trace::BeaconTrace;
