//! The typed error spine of the campaign pipeline.
//!
//! The paper's headline finding is that satellite IoT links are
//! intermittent and failure-dominated; a credible emulator of such a
//! system must itself degrade gracefully when handed degenerate inputs.
//! This module supplies the two halves of that contract:
//!
//! * [`SatIotError`] — the typed error every campaign entry point
//!   ([`crate::PassiveCampaign`], [`crate::ActiveCampaign`], and the
//!   fallible [`satiot_orbit::pass::PassPredictor::try_passes`]) returns
//!   instead of panicking. Hard failures (a config field that makes the
//!   simulation meaningless, a catalog whose elements cannot build) are
//!   reported here.
//! * [`FaultLog`] — deterministic degradation accounting for *soft*
//!   failures: inputs the pipeline can survive by dropping or clamping
//!   the offending item (a NaN pass time, a corrupted sequence number, a
//!   site with an inverted time range). Every recorded fault is mirrored
//!   into a `satiot_obs` counter (`core.faults.*`, visible under
//!   `SATIOT_METRICS=1`), and the log itself is merged per site in
//!   configuration order, so serial and pooled campaign drivers produce
//!   bit-identical accounting — the invariant the `satiot-bench` chaos
//!   test pins.

use core::fmt;
use satiot_obs::metrics::Counter;
use satiot_orbit::error::OrbitError;

/// Errors produced by the campaign pipeline.
///
/// Every variant is a *hard* failure: the requested campaign cannot
/// produce meaningful output, so the driver returns early instead of
/// running with silently corrupted inputs. Recoverable input damage is
/// instead counted in [`FaultLog`] and the run continues.
#[derive(Debug, Clone, PartialEq)]
pub enum SatIotError {
    /// Geometry degenerated beyond what the pipeline can clamp (e.g. a
    /// site location that is not a point on Earth).
    DegenerateGeometry {
        /// Which computation hit the degenerate geometry.
        context: &'static str,
    },
    /// A stage that requires at least one pass/site/satellite received
    /// an empty list.
    EmptyPassList {
        /// Which input list was empty.
        context: &'static str,
    },
    /// A time quantity (range bound, day count, period) was NaN or
    /// infinite where a finite value is required.
    NonFiniteTime {
        /// Which field carried the non-finite time.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A configuration field violated its contract (zero period,
    /// non-positive dwell, …).
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// What the contract requires.
        requirement: &'static str,
    },
    /// An orbital-mechanics failure bubbled up from `satiot-orbit`
    /// (unbuildable elements, deep-space orbit, …).
    Orbit {
        /// Which campaign stage was propagating.
        context: &'static str,
        /// The underlying orbit error.
        source: OrbitError,
    },
    /// A name-valued field referenced something that is not in the
    /// catalog (an unknown site code or constellation label), or
    /// carried a name the sweep checkpoint codec cannot represent.
    InvalidName {
        /// The offending field.
        field: &'static str,
        /// The offending name.
        name: String,
        /// Closest catalog entry (case-insensitive edit distance), for
        /// "did you mean" messages; `None` when nothing is plausibly
        /// what the author meant.
        suggestion: Option<&'static str>,
    },
}

impl SatIotError {
    /// Wrap an orbit error with the campaign stage that hit it.
    pub fn orbit(context: &'static str, source: OrbitError) -> SatIotError {
        SatIotError::Orbit { context, source }
    }
}

/// Unified error surface: orbit errors convert with the `?` operator.
/// Prefer [`SatIotError::orbit`] where a campaign stage can name itself;
/// this blanket conversion carries a generic context.
impl From<OrbitError> for SatIotError {
    fn from(source: OrbitError) -> SatIotError {
        SatIotError::Orbit {
            context: "orbit propagation",
            source,
        }
    }
}

/// Scenario-DSL failures surface through the campaign error spine:
/// unknown names keep their typed field/suggestion structure; every
/// other scenario error (parse, validation, IO, version) is carried as
/// an [`SatIotError::InvalidName`] on the `scenario` field with the
/// full rendered message as the name payload, so nothing is lost
/// crossing the crate boundary.
impl From<satiot_scenarios::ScenarioError> for SatIotError {
    fn from(e: satiot_scenarios::ScenarioError) -> SatIotError {
        use satiot_scenarios::ScenarioError;
        match e {
            ScenarioError::UnknownName {
                field,
                name,
                suggestion,
            } => SatIotError::InvalidName {
                field,
                name,
                suggestion,
            },
            other => SatIotError::InvalidName {
                field: "scenario",
                name: other.to_string(),
                suggestion: None,
            },
        }
    }
}

impl fmt::Display for SatIotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatIotError::DegenerateGeometry { context } => {
                write!(f, "{context}: degenerate geometry")
            }
            SatIotError::EmptyPassList { context } => {
                write!(f, "{context}: empty input list")
            }
            SatIotError::NonFiniteTime { context, value } => {
                write!(f, "{context}: non-finite time {value}")
            }
            SatIotError::InvalidConfig {
                field,
                value,
                requirement,
            } => write!(
                f,
                "config field `{field}` = {value} violates: {requirement}"
            ),
            SatIotError::Orbit { context, source } => {
                write!(f, "{context}: orbit error: {source}")
            }
            SatIotError::InvalidName {
                field,
                name,
                suggestion,
            } => {
                write!(f, "config field `{field}`: unusable name {name:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SatIotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SatIotError::Orbit { source, .. } => Some(source),
            _ => None,
        }
    }
}

// Degradation counters mirrored from every FaultLog record (metrics).
static NAN_PASS_TIMES: Counter = Counter::new("core.faults.nan_pass_times");
static DEGENERATE_PASSES: Counter = Counter::new("core.faults.degenerate_passes");
static SKIPPED_SITES: Counter = Counter::new("core.faults.skipped_sites");
static CORRUPT_SEQS: Counter = Counter::new("core.faults.corrupt_seqs_dropped");
static SGP4_FAILURES: Counter = Counter::new("core.faults.sgp4_failures");
static CLAMPED_CONFIGS: Counter = Counter::new("core.faults.clamped_configs");

/// One class of recoverable input damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A candidate pass carried a NaN AOS/LOS/TCA and was dropped
    /// before sorting.
    NanPassTime,
    /// A pass with zero, negative, or non-finite duration was skipped.
    DegeneratePass,
    /// A site whose simulated range was empty or inverted was skipped.
    SkippedSite,
    /// A wire-path sequence number indexed outside the packet ledger and
    /// the packet was dropped.
    CorruptSeq,
    /// A satellite whose elements failed to build was excluded.
    Sgp4Failure,
    /// An out-of-range config value was clamped into its domain.
    ClampedConfig,
}

impl Fault {
    fn counter(self) -> &'static Counter {
        match self {
            Fault::NanPassTime => &NAN_PASS_TIMES,
            Fault::DegeneratePass => &DEGENERATE_PASSES,
            Fault::SkippedSite => &SKIPPED_SITES,
            Fault::CorruptSeq => &CORRUPT_SEQS,
            Fault::Sgp4Failure => &SGP4_FAILURES,
            Fault::ClampedConfig => &CLAMPED_CONFIGS,
        }
    }
}

/// Deterministic per-run accounting of recoverable input damage.
///
/// Campaign drivers thread one `FaultLog` through their phases (merging
/// per-site partials in configuration order), so two runs of the same
/// configuration — serial or pooled — report bit-identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Candidate passes dropped for NaN times.
    pub nan_pass_times: u64,
    /// Degenerate (zero/negative/non-finite duration) passes skipped.
    pub degenerate_passes: u64,
    /// Sites skipped for empty or inverted simulated ranges.
    pub skipped_sites: u64,
    /// Wire-path sequence numbers dropped as out of range.
    pub corrupt_seqs: u64,
    /// Satellites excluded because their elements failed to build.
    pub sgp4_failures: u64,
    /// Config values clamped into their domain.
    pub clamped_configs: u64,
}

impl FaultLog {
    /// Record one fault: bumps the matching field *and* the mirrored
    /// `core.faults.*` obs counter.
    pub fn record(&mut self, fault: Fault) {
        self.record_n(fault, 1);
    }

    /// Record `n` occurrences of one fault class.
    pub fn record_n(&mut self, fault: Fault, n: u64) {
        if n == 0 {
            return;
        }
        let slot = match fault {
            Fault::NanPassTime => &mut self.nan_pass_times,
            Fault::DegeneratePass => &mut self.degenerate_passes,
            Fault::SkippedSite => &mut self.skipped_sites,
            Fault::CorruptSeq => &mut self.corrupt_seqs,
            Fault::Sgp4Failure => &mut self.sgp4_failures,
            Fault::ClampedConfig => &mut self.clamped_configs,
        };
        *slot += n;
        fault.counter().add(n);
    }

    /// Fold another log into this one (per-site partials merge in site
    /// order; addition is commutative, so the merged totals are
    /// order-independent anyway).
    pub fn merge(&mut self, other: &FaultLog) {
        self.nan_pass_times += other.nan_pass_times;
        self.degenerate_passes += other.degenerate_passes;
        self.skipped_sites += other.skipped_sites;
        self.corrupt_seqs += other.corrupt_seqs;
        self.sgp4_failures += other.sgp4_failures;
        self.clamped_configs += other.clamped_configs;
    }

    /// Total recorded faults across every class.
    pub fn total(&self) -> u64 {
        self.nan_pass_times
            + self.degenerate_passes
            + self.skipped_sites
            + self.corrupt_seqs
            + self.sgp4_failures
            + self.clamped_configs
    }

    /// Whether the run saw no input damage at all.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

impl fmt::Display for FaultLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults: nan_times={} degenerate={} skipped_sites={} corrupt_seqs={} \
             sgp4={} clamped={}",
            self.nan_pass_times,
            self.degenerate_passes,
            self.skipped_sites,
            self.corrupt_seqs,
            self.sgp4_failures,
            self.clamped_configs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_field() {
        let e = SatIotError::InvalidConfig {
            field: "period_s",
            value: 0.0,
            requirement: "finite and > 0",
        };
        let text = e.to_string();
        assert!(text.contains("period_s") && text.contains("finite"));

        let e = SatIotError::NonFiniteTime {
            context: "ActiveConfig.days",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("ActiveConfig.days"));
    }

    #[test]
    fn orbit_errors_carry_a_source() {
        use std::error::Error;
        let e = SatIotError::orbit("farm passes", OrbitError::MeanMotionNonPositive);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("mean motion"));
    }

    #[test]
    fn orbit_errors_convert_via_from() {
        let e: SatIotError = OrbitError::MeanMotionNonPositive.into();
        assert!(matches!(e, SatIotError::Orbit { .. }));
        assert!(e.to_string().contains("orbit"));
    }

    #[test]
    fn fault_log_records_merges_and_totals() {
        let mut a = FaultLog::default();
        assert!(a.is_clean());
        a.record(Fault::NanPassTime);
        a.record_n(Fault::CorruptSeq, 3);
        a.record_n(Fault::DegeneratePass, 0); // No-op.
        let mut b = FaultLog::default();
        b.record(Fault::SkippedSite);
        b.record(Fault::Sgp4Failure);
        b.record(Fault::ClampedConfig);
        a.merge(&b);
        assert_eq!(a.nan_pass_times, 1);
        assert_eq!(a.corrupt_seqs, 3);
        assert_eq!(a.skipped_sites, 1);
        assert_eq!(a.total(), 7);
        assert!(!a.is_clean());
        let text = a.to_string();
        assert!(text.contains("corrupt_seqs=3"), "{text}");
    }
}
