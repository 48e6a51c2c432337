//! The shared pass cache, ephemeris grid, tile and frame stores compute
//! each entry exactly once: over repeated campaigns, unbudgeted, every
//! lookup after the first is served warm; under a cache budget, the
//! footprint holds the ceiling, results do not change, and each compute
//! is accounted for by an entry or an eviction.
//!
//! The test clears the stores and reads their counters, which any
//! campaign running in the same process would also move, so it is the
//! only test in this binary (one process per integration-test file).

use satiot_core::prelude::*;
use satiot_core::sweep;

/// Two pooled runs and a one-thread run of three sites for one day
/// predict each pass list, build each grid view, sample each tile and
/// rotate each lattice frame once. HK and GZ start on the same campaign
/// day, so their satellites share grids; every satellite's tiles at one
/// index share that index's frame.
fn repeated_campaigns_compute_each_entry_once() {
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        ..Default::default()
    };
    cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ" | "SH"));
    let campaign = PassiveCampaign::new(cfg);
    let opts = RunOptions::default();
    sweep::clear();
    for run in [opts, opts, opts.with_threads(Some(1))] {
        campaign.run(&run).expect("campaign runs");
    }
    let cache = sweep::stats();
    assert_eq!(
        cache.computes, cache.entries as u64,
        "a pass list was predicted more than once"
    );
    assert!(cache.hits() > 0, "repeat runs never hit the pass cache");
    let grids = sweep::grid_stats();
    assert_eq!(
        grids.computes, grids.entries as u64,
        "an ephemeris grid was sampled more than once"
    );
    assert!(grids.hits() > 0, "no grid was shared across observers");
    let tiles = sweep::tile_stats();
    assert_eq!(
        tiles.computes, tiles.entries as u64,
        "an ephemeris tile was sampled more than once"
    );
    let frames = sweep::frame_stats();
    assert_eq!(
        frames.computes, frames.entries as u64,
        "a lattice frame was rotated more than once"
    );
    assert_eq!(frames.lookups, tiles.computes, "one frame lookup per tile");
    assert!(frames.hits() > 0, "no frame was shared across satellites");
    sweep::clear();
}

/// Disjoint windows grow both stores without bound unless the budget
/// stops them. The budget is half the queue's natural footprint,
/// rounded down to whole MiB, so the check tracks the scenario instead
/// of a magic constant.
fn budget_holds_and_results_do_not_change() {
    let jobs: Vec<SweepJob> = (0..6)
        .map(|i| {
            SweepJob::new(format!("ceiling-{i}"), 0xCE11 + i)
                .with_max_days(0.5 + 0.1 * i as f64)
                .with_sites(["HK"])
        })
        .collect();
    let footprint = || sweep::stats().approx_bytes + sweep::grid_stats().approx_bytes;
    sweep::clear();
    let unbudgeted = SweepServer::new(RunOptions::default())
        .run(&jobs)
        .expect("unbudgeted sweep runs");
    let natural = footprint();
    let budget_mb = (natural / 2) >> 20;
    assert!(
        budget_mb > 0,
        "the sweep's {natural} B footprint is too small to halve"
    );

    let budget = budget_mb << 20;
    sweep::clear();
    let budgeted = SweepServer::new(RunOptions::default().with_sweep_cache_mb(Some(budget_mb)))
        .run(&jobs)
        .expect("budgeted sweep runs");
    let bounded = footprint();
    let (cache, grids, tiles, frames) = (
        sweep::stats(),
        sweep::grid_stats(),
        sweep::tile_stats(),
        sweep::frame_stats(),
    );
    assert!(
        bounded <= budget,
        "footprint {bounded} B exceeds the {budget} B budget"
    );
    assert!(
        cache.evictions + grids.evictions > 0,
        "the budget never fired an eviction"
    );
    assert!(tiles.evictions > 0, "the budget never evicted a tile");
    assert!(
        budgeted.same_results(&unbudgeted),
        "evictions changed sweep results"
    );
    // Each compute fills one slot and each eviction empties one.
    assert_eq!(cache.computes, cache.entries as u64 + cache.evictions);
    assert_eq!(grids.computes, grids.entries as u64 + grids.evictions);
    assert_eq!(tiles.computes, tiles.entries as u64 + tiles.evictions);
    assert_eq!(frames.computes, frames.entries as u64 + frames.evictions);
    sweep::clear();
}

#[test]
fn caches_compute_exactly_once_and_hold_their_budget() {
    repeated_campaigns_compute_each_entry_once();
    budget_holds_and_results_do_not_change();
}
