//! Shared infrastructure for the satiot experiment binaries.
//!
//! [`experiments`] lists every paper table and figure, ablation and
//! extension once, by id; `reproduce_all` renders the paper set (or the
//! ids it is given) and `ablations_all` the ablations, each running
//! every shared campaign at most once. The campaign runners, the paper
//! report formatters and the ablation studies live beside it.
//!
//! Scale control: set `SATIOT_SCALE=quick` for a fast sanity run
//! (truncated campaigns) or leave unset for full paper scale (passive:
//! every site from its Table 1 start date through 2025-03; active: one
//! month).

pub mod ablations;
pub mod experiments;
pub mod reports;
pub mod runners;

pub use runners::Scale;
