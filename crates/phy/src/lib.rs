//! # satiot-phy
//!
//! Packet-level LoRa PHY models for Direct-to-Satellite IoT links.
//!
//! The paper measures at packet granularity (beacons received or not,
//! uplinks ACKed or not), so this crate models the PHY at the same level:
//! no chirp DSP, but faithful airtime, demodulation thresholds, a
//! calibrated SNR→PER curve, LEO-specific Doppler penalties, and
//! capture-effect collision arithmetic.
//!
//! * [`params`] — spreading factors, bandwidths, coding rates, and the
//!   combined [`params::LoRaConfig`].
//! * [`airtime`] — the standard Semtech airtime formula (preamble +
//!   payload symbols, low-data-rate optimisation).
//! * [`sensitivity`] — per-SF demodulation SNR thresholds and receiver
//!   sensitivity.
//! * [`per`] — packet error rate as a function of SNR margin and packet
//!   length.
//! * [`doppler`] — static-offset and drift-rate penalties: at 400 MHz a
//!   LEO pass sweeps ±~10 kHz with rates that cross several FFT bins
//!   during a high-SF packet, a loss mechanism unique to satellite LoRa.
//! * [`frame`] — the logical wire image of a LoRa frame (header, payload,
//!   CRC-16), encoded to and decoded from plain byte vectors.
//! * [`collision`] — SINR and capture-effect resolution among
//!   overlapping transmissions.

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod airtime;
pub mod collision;
pub mod doppler;
pub mod frame;
pub mod params;
pub mod per;
pub mod sensitivity;

pub use airtime::airtime_s;
pub use frame::LoRaFrame;
pub use params::{Bandwidth, CodingRate, LoRaConfig, SpreadingFactor};
pub use per::packet_success_probability;
pub use sensitivity::{demod_threshold_db, sensitivity_dbm};
