//! Shared infrastructure for the satiot experiment binaries.
//!
//! [`experiments`] lists every paper table and figure, ablation and
//! extension once, by id; `reproduce_all` renders the paper set (or the
//! ids it is given) and `ablations_all` the ablations and extensions,
//! each running every shared campaign at most once and ending with
//! [`prove_stores_exactly_once`]. The campaign
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

use satiot_core::sweep;
use satiot_orbit::ephemeris::TILE;

/// Print each sweep store's work to stderr and assert that it computed
/// every entry exactly once per residency: `computes == entries +
/// evictions`. Only a sweep server releases entries, after each job
/// ([`sweep::release_read_between`]), and each release frees the one
/// slot a later recompute refills.
pub fn prove_stores_exactly_once() {
    let stores = [
        ("pass cache", sweep::stats()),
        ("ephemeris grids", sweep::grid_stats()),
        ("ephemeris tiles", sweep::tile_stats()),
        ("lattice frames", sweep::frame_stats()),
    ];
    for (store, s) in stores {
        eprintln!(
            "{store}: {} lookups, {} computed, {} served warm ({} entries, {} evicted)",
            s.lookups,
            s.computes,
            s.hits(),
            s.entries,
            s.evictions
        );
        assert_eq!(
            s.computes,
            s.entries as u64 + s.evictions,
            "{store}: an entry was computed more than once"
        );
    }
    let tiles = stores[2].1;
    eprintln!("SGP4 samples: {}", tiles.computes * TILE as u64);
}
