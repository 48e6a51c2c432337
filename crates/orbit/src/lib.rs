//! # satiot-orbit
//!
//! Orbital-mechanics substrate for the satiot toolkit.
//!
//! This crate implements everything needed to turn a Two-Line Element set
//! (TLE) into the ground-truth geometry a satellite-IoT measurement study
//! depends on:
//!
//! * [`time`] — Julian dates, TLE epochs, and Greenwich sidereal time.
//! * [`tle`] — TLE parsing, checksum validation, and formatting (the
//!   formatter is used by `satiot-scenarios` to emit synthetic catalogs).
//! * [`sgp4`] — a from-scratch implementation of the SGP4 analytical
//!   propagator (WGS-72 constants, near-earth branch, including the
//!   low-perigee "simple drag" mode), validated against the classic
//!   Spacetrack Report #3 test vectors.
//! * [`frames`] — TEME → ECEF rotation, WGS-84 geodetic conversions.
//! * [`topo`] — topocentric look angles (azimuth, elevation, slant range,
//!   range-rate) and Doppler shift for a ground observer.
//! * [`pass`] — contact-window (pass) prediction: a margin sweep over an
//!   ephemeris grid plus safeguarded Newton refinement of AOS, LOS and
//!   culmination.
//! * [`ephemeris`] — per-satellite precomputed ECEF grids with quintic
//!   Hermite interpolation, so multi-site sweeps propagate each
//!   satellite once instead of once per observer.
//! * [`visibility`] — chunked, auto-vectorisable horizon-margin
//!   kernels that sweep ephemeris-grid columns for all observers of
//!   one satellite and emit only sign-change windows for refinement.
//! * [`cull`] — conservative spatial pre-culling of (site, satellite)
//!   pairs (latitude-band reachability plus a footprint-cone scan over
//!   raw grid samples), with always-on proof counters, so
//!   mega-constellation sweeps cost O(visible pairs).
//! * [`elements`] — Keplerian element helpers and a builder for synthetic
//!   TLEs (circular-ish shells at a given altitude/inclination).
//! * [`sun`] — a low-precision solar ephemeris: daylight fractions for
//!   the energy model's harvesting extension and LEO eclipse checks.
//!
//! Deep-space propagation (SDP4) is intentionally **not** implemented:
//! every satellite measured by the reproduced paper is LEO with an orbital
//! period well under 225 minutes. [`sgp4::Sgp4::new`] returns
//! [`OrbitError::DeepSpaceUnsupported`] rather than silently
//! mis-propagating a deep-space object.
//!
//! ## Quick example
//!
//! ```
//! use satiot_orbit::{tle::Tle, sgp4::Sgp4};
//!
//! // The classic Spacetrack Report #3 test element set.
//! let tle = Tle::parse_lines(
//!     "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87",
//!     "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058",
//! ).unwrap();
//! let sgp4 = Sgp4::new(&tle).unwrap();
//! let state = sgp4.propagate(0.0).unwrap();
//! assert!(state.position_km.norm() > 6500.0);
//! ```

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cull;
pub mod elements;
pub mod ephemeris;
pub mod error;
pub mod frames;
pub mod pass;
pub mod sgp4;
pub mod sun;
pub mod time;
pub mod tle;
pub mod topo;
pub mod vec3;
pub mod visibility;

pub use ephemeris::EphemerisGrid;
pub use error::OrbitError;
pub use frames::Geodetic;
pub use pass::{Pass, PassPredictor};
pub use sgp4::{Sgp4, StateTeme};
pub use time::JulianDate;
pub use tle::Tle;
pub use vec3::Vec3;

/// Speed of light in km/s, used for Doppler computations.
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;
