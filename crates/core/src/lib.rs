//! # satiot-core
//!
//! The reproduced paper's system: the Direct-to-Satellite IoT pipeline
//! end to end, plus the two measurement campaigns run against it.
//!
//! * [`calib`] — every calibration constant in one place, each annotated
//!   with the paper observation it is fitted against.
//! * [`messages`] — the DtS message sizes: how many bytes each beacon,
//!   uplink and ACK puts on air, in one table.
//! * [`buffer`] — the store-and-forward buffer used by nodes (awaiting a
//!   pass) and satellites (awaiting a ground station).
//! * [`error`] — the typed error spine ([`SatIotError`]) plus the
//!   graceful-degradation ledger ([`FaultLog`]): campaign entry points
//!   return `Result` for unusable configs and *count* recoverable input
//!   damage instead of panicking.
//! * [`geometry`] — sampled pass geometry shared by both campaigns.
//! * [`scheduler`] — ground-station → satellite assignment: the paper's
//!   customised predictive scheduler and the vanilla TinyGS baseline.
//! * [`passive`] — the 27-station, 8-site, 4-constellation passive
//!   campaign (paper §2.2/§3.1): produces beacon traces and contact
//!   windows.
//! * [`node`] — the Tianqi-node state machine (sleep / scheduled listen /
//!   transmit, with ≤ 5 backoff-gated retransmissions).
//! * [`satellite`] — the satellite payload: uplink reception, buffering,
//!   and downlink at ground-station contacts.
//! * [`station`] — crowd-sourced ground-station availability (correlated
//!   up/down spells of $30 hobbyist hardware).
//! * [`active`] — the one-month active deployment (paper §2.3/§3.2):
//!   three nodes on a Yunnan farm sending 20 B every 30 min through the
//!   Tianqi constellation to a Hong Kong server. Its packet ledger, one
//!   `PacketTimeline` per sequence ID, is also the server's arrival log
//!   (the paper's Appendix B methodology).
//! * [`sweep`] — the process-wide pass-prediction cache shared by both
//!   campaigns, the theoretical-availability analysis, and the
//!   bench/ablation binaries; paired with `satiot_sim::pool` it turns
//!   campaign setup into one cached parallel sweep.
//! * [`sink`] — the trace sink ([`SinkMode`]): what the simulate phase
//!   keeps of its decoded beacons — every trace in RAM, or only the
//!   bounded-memory streaming sketches.
//! * [`options`] — typed run options ([`RunOptions`]): the single place
//!   the `SATIOT_*` environment knobs are parsed, and the typed argument
//!   both campaign `run` entry points take.
//! * [`prelude`] — one-stop imports for binaries and examples.

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod active;
pub mod buffer;
pub mod calib;
pub mod error;
pub mod geometry;
pub mod messages;
pub mod node;
pub mod options;
pub mod passive;
pub mod prelude;
pub mod satellite;
pub mod scheduler;
pub mod sink;
pub mod station;
pub mod sweep;
pub mod sweep_server;

pub use active::{ActiveCampaign, ActiveConfig, ActiveResults};
pub use error::{Fault, FaultLog, SatIotError};
pub use options::{RunOptions, Scale};
pub use passive::{PassiveCampaign, PassiveConfig, PassiveResults};
pub use sink::{SinkMode, SinkStats};
