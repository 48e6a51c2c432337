//! The shared pass cache, ephemeris grid, tile and frame stores compute
//! each entry exactly once: over repeated campaigns every lookup after
//! the first is served warm; over a sweep of disjoint windows the
//! server keeps only the last job's entries, results do not change,
//! and each compute is accounted for by an entry or a release.
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

/// A sweep over disjoint windows holds one job's predictions: after
/// each job the server releases what an earlier job of its queue read
/// and that job did not. HK, SH, NC, SYD and LDN start on distinct
/// Table 1 days, so one job per site shares no pass list, view, tile or
/// frame with another. Before the sweep, a campaign over a window no
/// job reads (SH for a quarter day) fills the stores, and what it read
/// stays.
fn disjoint_sweep_holds_the_last_job_and_results_do_not_change() {
    let jobs: Vec<SweepJob> = ["HK", "SH", "NC", "SYD", "LDN"]
        .into_iter()
        .zip(0xD15..)
        .map(|(code, seed)| {
            SweepJob::new(format!("disjoint-{code}"), seed)
                .with_max_days(0.5)
                .with_sites([code])
        })
        .collect();
    let stores = || {
        [
            sweep::stats(),
            sweep::grid_stats(),
            sweep::tile_stats(),
            sweep::frame_stats(),
        ]
    };
    let entries = || stores().map(|s| s.entries);
    let server = || SweepServer::new(RunOptions::default());
    // Each job cold, on its own; the last one's entries are what the
    // sweep keeps of its queue.
    let mut alone = Vec::new();
    let mut last = [0; 4];
    for job in &jobs {
        sweep::clear();
        let outcome = server()
            .run(std::slice::from_ref(job))
            .expect("a cold job runs");
        alone.extend(outcome.records);
        last = entries();
    }

    sweep::clear();
    let mut early = PassiveConfig {
        max_days: 0.25,
        ..Default::default()
    };
    early.sites.retain(|s| s.code == "SH");
    PassiveCampaign::new(early)
        .run(&RunOptions::default())
        .expect("the early campaign runs");
    let before = entries();
    let outcome = server().run(&jobs).expect("the disjoint sweep runs");
    let names = ["pass cache", "grids", "tiles", "frames"];
    for (((s, name), before), last) in stores().iter().zip(names).zip(before).zip(last) {
        assert_eq!(
            s.entries,
            before + last,
            "{name}: keeps other than the early and last entries"
        );
        assert!(s.evictions > 0, "{name}: nothing was released");
        // Each compute fills one slot and each release empties one.
        assert_eq!(s.computes, s.entries as u64 + s.evictions, "{name}");
    }
    for (record, alone) in outcome.records.iter().zip(&alone) {
        assert!(
            record.same_results(alone),
            "{}: releases changed results",
            record.job.tag
        );
    }
    sweep::clear();
}

#[test]
fn caches_compute_exactly_once_and_release_what_the_queue_left() {
    repeated_campaigns_compute_each_entry_once();
    disjoint_sweep_holds_the_last_job_and_results_do_not_change();
}
