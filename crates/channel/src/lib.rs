//! # satiot-channel
//!
//! RF propagation models for Direct-to-Satellite (DtS) IoT links in the
//! 400–450 MHz band, plus the short terrestrial links of the LoRaWAN
//! baseline.
//!
//! The module stack mirrors a real link budget:
//!
//! * [`fspl`] — free-space path loss.
//! * [`atmosphere`] — elevation-dependent tropospheric excess loss and
//!   weather-dependent attenuation (antenna wetting / scatter on rainy
//!   days; pure gaseous absorption is negligible at UHF and is folded into
//!   the same term).
//! * [`weather`] — a three-state Markov weather process (sunny / cloudy /
//!   rainy) driving the attenuation and fading statistics, so campaign
//!   traces show the weather dependence the paper measures (Fig 3d, 5b).
//! * [`antenna`] — gain-vs-elevation patterns for the hardware the paper
//!   deploys: satellite dipole, ground ¼-wave and ⅝-wave monopoles.
//! * [`fading`] — slow log-normal shadowing (drawn per pass) and fast
//!   Rician fading (drawn per packet) with elevation-dependent K-factor.
//! * [`noise`] — thermal noise floor for a given bandwidth/noise figure.
//! * [`budget`] — the end-to-end composition: geometry + hardware +
//!   weather + fading → RSSI and SNR for one packet.
//!
//! Every stochastic draw takes an explicit [`satiot_sim::Rng`], keeping
//! campaigns reproducible.

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod antenna;
pub mod atmosphere;
pub mod budget;
pub mod fading;
pub mod fspl;
pub mod noise;
pub mod weather;

pub use antenna::AntennaPattern;
pub use budget::{LinkBudget, LinkSample};
pub use noise::noise_floor_dbm;
pub use weather::{Weather, WeatherProcess};
