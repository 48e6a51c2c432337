//! Typed errors for the orbit crate.

use core::fmt;

/// Errors produced while parsing TLEs or propagating orbits.
#[derive(Debug, Clone, PartialEq)]
pub enum OrbitError {
    /// A TLE line had the wrong length, a bad line number, or a field that
    /// failed to parse. The payload names the offending field.
    TleFormat {
        /// Which field failed (e.g. `"inclination"`).
        field: &'static str,
        /// 1-based TLE line number (1 or 2).
        line: u8,
    },
    /// The modulo-10 checksum in column 69 did not match.
    TleChecksum {
        /// 1-based TLE line number (1 or 2).
        line: u8,
        /// Checksum computed from the line body.
        computed: u8,
        /// Checksum stated in the line.
        stated: u8,
    },
    /// The two lines carry different satellite catalog numbers.
    TleCatalogMismatch,
    /// The element set describes a deep-space orbit (period ≥ 225 min),
    /// which requires SDP4. All satellites in the reproduced study are LEO,
    /// so SDP4 is intentionally unsupported.
    DeepSpaceUnsupported {
        /// Orbital period implied by the element set, in minutes.
        period_min: f64,
    },
    /// Mean eccentricity drifted outside `[1e-6, 1)` during propagation
    /// (SGP4 error 1).
    EccentricityOutOfRange {
        /// The offending eccentricity value.
        eccentricity: f64,
    },
    /// Mean motion became non-positive during propagation (SGP4 error 2).
    MeanMotionNonPositive,
    /// The semi-latus rectum went negative during propagation (SGP4
    /// error 4); the element set is unusable at this time offset.
    SemiLatusRectumNegative,
    /// The satellite has decayed: the propagated radius fell below the
    /// Earth's surface (SGP4 error 6).
    Decayed {
        /// Minutes since epoch at which decay was detected.
        tsince_min: f64,
    },
    /// Elements handed to the synthetic-TLE builder were out of range
    /// (e.g. negative altitude, eccentricity ≥ 1).
    InvalidElements {
        /// Which element was invalid.
        field: &'static str,
    },
    /// A pass scan was requested over a non-finite time range or
    /// elevation mask (a NaN bound has no grid to sweep and no instant
    /// to refine).
    NonFiniteScan {
        /// Which scan input was non-finite (`"start"`, `"end"`, `"mask"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A moving-observer scan was handed legs that are not in
    /// chronological order (or overlap): concatenating their pass lists
    /// would break the chronological contract every consumer relies on.
    UnorderedLegs {
        /// 0-based index of the first out-of-order leg.
        index: usize,
    },
}

impl fmt::Display for OrbitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrbitError::TleFormat { field, line } => {
                write!(f, "TLE line {line}: malformed field `{field}`")
            }
            OrbitError::TleChecksum {
                line,
                computed,
                stated,
            } => write!(
                f,
                "TLE line {line}: checksum mismatch (computed {computed}, stated {stated})"
            ),
            OrbitError::TleCatalogMismatch => {
                write!(f, "TLE lines 1 and 2 carry different catalog numbers")
            }
            OrbitError::DeepSpaceUnsupported { period_min } => write!(
                f,
                "deep-space orbit (period {period_min:.1} min ≥ 225 min) requires SDP4, \
                 which is out of scope for LEO IoT constellations"
            ),
            OrbitError::EccentricityOutOfRange { eccentricity } => {
                write!(f, "mean eccentricity {eccentricity} outside [1e-6, 1)")
            }
            OrbitError::MeanMotionNonPositive => write!(f, "mean motion became non-positive"),
            OrbitError::SemiLatusRectumNegative => write!(f, "semi-latus rectum went negative"),
            OrbitError::Decayed { tsince_min } => {
                write!(f, "satellite decayed at {tsince_min:.1} min since epoch")
            }
            OrbitError::InvalidElements { field } => {
                write!(f, "invalid orbital element `{field}`")
            }
            OrbitError::NonFiniteScan { field, value } => {
                write!(f, "pass scan `{field}` is non-finite ({value})")
            }
            OrbitError::UnorderedLegs { index } => {
                write!(
                    f,
                    "moving-observer leg {index} starts before the previous leg ends"
                )
            }
        }
    }
}

impl std::error::Error for OrbitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = OrbitError::DeepSpaceUnsupported { period_min: 720.0 };
        let text = err.to_string();
        assert!(text.contains("720.0"));
        assert!(text.contains("SDP4"));
    }

    #[test]
    fn checksum_error_reports_both_values() {
        let err = OrbitError::TleChecksum {
            line: 2,
            computed: 7,
            stated: 3,
        };
        let text = err.to_string();
        assert!(text.contains('7') && text.contains('3'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            OrbitError::MeanMotionNonPositive,
            OrbitError::MeanMotionNonPositive
        );
        assert_ne!(
            OrbitError::MeanMotionNonPositive,
            OrbitError::SemiLatusRectumNegative
        );
    }
}
