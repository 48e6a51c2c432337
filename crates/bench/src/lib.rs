//! Shared infrastructure for the satiot experiment binaries.
//!
//! [`experiments`] lists every paper table and figure, ablation and
//! extension once, by id; `reproduce_all` renders the paper set (or the
//! ids it is given) and `ablations_all` the ablations and extensions,
//! each running every shared campaign at most once. The campaign
//! runners, the paper report formatters, the ablation studies and the
//! workload extensions E5–E7 live beside it. The crate's third binary,
//! `sweep_worker`, is the sweep the kill-and-resume test SIGKILLs.
//!
//! Scale control: each binary reads its [`RunOptions`] once in `main`;
//! set `SATIOT_SCALE=quick` for a fast sanity run (truncated campaigns)
//! or leave unset for full paper scale (passive: every site from its
//! Table 1 start date through 2025-03; active: one month). Tests build
//! the options by hand.
//!
//! [`RunOptions`]: satiot_core::options::RunOptions

pub mod ablations;
pub mod experiments;
pub mod extensions;
pub mod reports;
pub mod runners;

pub use runners::Scale;
