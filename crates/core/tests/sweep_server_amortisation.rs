//! Cross-job cache amortisation in the sweep server, proven by each
//! job's `CacheAttribution` and, once, by the clock.
//!
//! The attribution is a delta of the process-wide sweep counters, which
//! any campaign running in the same process would also move, and the
//! test clears those caches between legs. So it is the only test in
//! this binary (one process per integration-test file).

use satiot_core::options::RunOptions;
use satiot_core::sweep;
use satiot_core::sweep_server::{JobRecord, SweepJob, SweepServer};
use satiot_measure::sketch::TraceAggregate;
use std::time::Instant;

/// Same scenario, different seeds: pass lists and grids are shared, so
/// only the first job predicts.
fn warm_jobs_reuse_the_first_jobs_work() {
    sweep::clear();
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

/// Four seeds over the full catalog for half a day, run as four cold
/// jobs (caches cleared before each, as one process per job would) and
/// as one server run: identical results, nothing recomputed after the
/// first server job, and the server at least 1.5× faster. That is the
/// one wall-clock bound the suite keeps, and it is coarse: a debug
/// build measures about 5× on a 2-core host.
fn server_beats_cold_jobs_with_identical_results() {
    let jobs: Vec<SweepJob> = (0..4)
        .map(|i| SweepJob::new(format!("bench-{i}"), 0xB0B + i).with_max_days(0.5))
        .collect();
    // No checkpoints: the server leg must not resume the cold leg.
    let server = SweepServer::new(RunOptions::default())
        .with_spill_dir(None)
        .with_shard(None);

    let t0 = Instant::now();
    let mut cold: Vec<JobRecord> = Vec::new();
    for job in &jobs {
        sweep::clear();
        cold.extend(server.run(std::slice::from_ref(job)).unwrap().records);
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let mut cold_merged = TraceAggregate::new();
    for r in &cold {
        cold_merged.merge(r.sketch.as_ref().expect("aggregate sink sketches"));
    }

    sweep::clear();
    let t0 = Instant::now();
    let warm = server.run(&jobs).unwrap();
    let warm_s = t0.elapsed().as_secs_f64();
    sweep::clear();

    assert_eq!(warm.records.len(), jobs.len());
    for (c, w) in cold.iter().zip(&warm.records) {
        assert!(c.same_results(w), "the server changed {:?}", c.job.tag);
    }
    assert_eq!(cold_merged, warm.merged, "merged sketches differ");
    for record in &warm.records[1..] {
        assert_eq!(
            record.cache.pass_computes, 0,
            "{:?} predicted",
            record.job.tag
        );
        assert_eq!(
            record.cache.grid_computes, 0,
            "{:?} built grids",
            record.job.tag
        );
    }
    let speedup = cold_s / warm_s.max(1e-9);
    assert!(
        speedup >= 1.5,
        "the server must be at least 1.5× faster than cold jobs \
         (got {speedup:.2}×: {cold_s:.3} s cold, {warm_s:.3} s server)"
    );
}

#[test]
fn sweep_amortises_caches_across_jobs() {
    warm_jobs_reuse_the_first_jobs_work();
    server_beats_cold_jobs_with_identical_results();
}
