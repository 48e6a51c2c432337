//! # satiot-terrestrial
//!
//! The terrestrial LoRaWAN baseline the paper deploys alongside the
//! satellite system (§3.2): three RAKwireless-class gateways with LTE
//! backhaul serving the same three sensors.
//!
//! * [`backhaul`] — the LTE backhaul delay model.
//! * [`node`] — the class-A node duty cycle (sleep → standby → tx → rx
//!   windows → sleep) with energy residencies.
//! * [`campaign`] — the month-long baseline campaign producing the same
//!   record types as the satellite campaign, so every comparison figure
//!   (5a/5c/6d/10/11) analyses both systems through identical code.

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod backhaul;
pub mod campaign;
pub mod node;

pub use campaign::{TerrestrialCampaign, TerrestrialConfig, TerrestrialResults};
