//! Cross-job cache amortisation in the sweep server, proven by each
//! job's `CacheAttribution`.
//!
//! The attribution is a delta of the process-wide sweep counters, which
//! any campaign running in the same process would also move: private
//! cache keys stop other tests from pre-warming this test's lists, but
//! not from inflating the deltas. So the test lives alone in this test
//! binary (one process per integration-test file).

use satiot_core::options::RunOptions;
use satiot_core::sweep_server::{SweepJob, SweepServer};
use satiot_measure::sketch::TraceAggregate;

#[test]
fn sweep_amortises_caches_across_jobs() {
    // Same scenario, different seeds: pass lists and grids are shared,
    // so only the first job predicts.
    let jobs: Vec<SweepJob> = (0..3)
        .map(|i| {
            SweepJob::new(format!("amort-{i}"), 40 + i)
                .with_max_days(0.37)
                .with_sites(["HK"])
                .with_constellations(["FOSSA"])
        })
        .collect();
    let outcome = SweepServer::new(RunOptions::default()).run(&jobs).unwrap();
    assert_eq!(outcome.records.len(), 3);
    assert_eq!(outcome.jobs_run, 3);
    let first = &outcome.records[0].cache;
    assert_eq!(first.pass_lookups, first.pass_computes);
    assert!(first.pass_computes > 0, "cold job must predict");
    for warm in &outcome.records[1..] {
        assert_eq!(warm.cache.pass_computes, 0, "warm job predicted");
        assert_eq!(warm.cache.grid_computes, 0, "warm job rebuilt grids");
        assert!(warm.cache.pass_hits() > 0);
    }
    // Merged sketch equals the per-record merge by construction.
    let mut manual = TraceAggregate::new();
    for r in &outcome.records {
        manual.merge(r.sketch.as_ref().unwrap());
    }
    assert_eq!(outcome.merged, manual);
}
