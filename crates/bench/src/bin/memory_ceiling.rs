//! CI memory-ceiling smoke: prove the bounded-memory campaign modes
//! actually bound memory, with counters rather than trust.
//!
//! Runs the same multi-site passive campaign twice — once with the
//! default full-trace sink (the exact baseline) and once with
//! [`SinkMode::Aggregate`] — and asserts:
//!
//! * the aggregate run retains **zero** traces, checked two ways: the
//!   per-run [`SinkStats`] *and* the process-wide
//!   `measure.sink.traces_retained` obs counter;
//! * every decoded beacon is still accounted for
//!   (`traces_emitted` equals the baseline's trace count);
//! * the streaming sketch quantiles land within the documented error
//!   band (bucket width / 2) of the exact nearest-rank statistics
//!   computed from the baseline's raw traces;
//! * the sketch's memory footprint estimate is below the full trace
//!   set's, and is reported so regressions are visible in CI logs.
//!
//! A third section bounds the *sweep caches*: a job queue over disjoint
//! windows is run unbudgeted to measure its natural pass-cache/grid
//! footprint, then re-run under a cache budget of half that, asserting
//! the post-sweep footprint respects the ceiling, evictions actually
//! fired, and the budgeted sweep's results stay bit-identical.
//!
//! `--smoke` keeps the campaign at one day for the CI lane; without it
//! the run covers three days for a more demanding local check. Exits
//! non-zero (panics) on any violation, so the CI step is just
//! `cargo run --release -p satiot-bench --bin memory_ceiling -- --smoke`.

use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_measure::sketch::{ConstellationSketch, QuantileSketch};
use satiot_measure::stats::nearest_rank_sorted;
use satiot_measure::trace::BeaconTrace;
use satiot_obs::metrics::{self, Counter};
use satiot_scenarios::sites::measurement_sites;

// Shared-slot views of the sink's accounting counters (name-keyed).
static EMITTED: Counter = Counter::new("measure.sink.traces_emitted");
static RETAINED: Counter = Counter::new("measure.sink.traces_retained");

fn config(days: f64) -> PassiveConfig {
    PassiveConfig {
        max_days: days,
        sites: measurement_sites()
            .into_iter()
            .filter(|s| matches!(s.code, "HK" | "GZ" | "SH"))
            .collect(),
        ..Default::default()
    }
}

/// Rough in-RAM footprint of a full trace set: struct size plus the
/// heap behind the two owned labels.
fn full_bytes(traces: &[BeaconTrace]) -> usize {
    traces
        .iter()
        .map(|t| std::mem::size_of::<BeaconTrace>() + t.site.len() + t.constellation.len())
        .sum()
}

/// Rough in-RAM footprint of one constellation sketch: its quantile
/// buckets (i64 key + u64 count per occupied bucket) plus fixed
/// per-metric state.
fn sketch_bytes(g: &ConstellationSketch) -> usize {
    let bucket = |q: &QuantileSketch| q.buckets() * 16 + 64;
    bucket(&g.rssi_dbm.quantiles)
        + bucket(&g.snr_db.quantiles)
        + bucket(&g.distance_km.quantiles)
        + bucket(&g.elevation_deg.quantiles)
        + g.sites.iter().map(|(s, _)| s.len() + 24).sum::<usize>()
        + std::mem::size_of::<ConstellationSketch>()
}

/// Assert one metric's sketch quantiles sit inside the error band of
/// the exact per-constellation order statistics.
fn assert_in_band(label: &str, sketch: &QuantileSketch, exact: &mut [f64]) {
    exact.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(
        sketch.count(),
        exact.len() as u64,
        "{label}: sketch count diverged"
    );
    let band = sketch.width() / 2.0 + 1e-9;
    for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
        let est = sketch.quantile(p);
        let truth = nearest_rank_sorted(exact, p);
        assert!(
            (est - truth).abs() <= band,
            "{label} p{p}: sketch {est} vs exact {truth} exceeds band {band}"
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let days = if smoke { 1.0 } else { 3.0 };
    let opts = RunOptions::from_env().apply();
    println!("memory ceiling: days={days} smoke={smoke}");

    // Exact baseline: the full-trace sink, as reproduce_all uses.
    let full = PassiveCampaign::new(config(days))
        .run(&opts.with_sink(SinkMode::Full))
        .unwrap();
    let n = full.traces.traces.len();
    assert!(n > 0, "baseline produced no traces — nothing to bound");

    // Bounded run, counter-audited from a clean slate.
    metrics::set_enabled(true);
    metrics::reset();
    let agg = PassiveCampaign::new(config(days))
        .run(&opts.with_sink(SinkMode::Aggregate))
        .unwrap();

    assert!(agg.traces.traces.is_empty(), "aggregate retained traces");
    assert_eq!(agg.sink.retained, 0, "SinkStats says traces were retained");
    assert_eq!(RETAINED.value(), 0, "obs counter says traces were retained");
    assert_eq!(agg.sink.emitted, n as u64, "emission accounting diverged");
    assert_eq!(
        EMITTED.value(),
        n as u64,
        "obs emitted counter diverged from SinkStats"
    );
    println!(
        "sink audit: emitted={} retained={} (obs counters agree)",
        agg.sink.emitted, agg.sink.retained
    );

    // Sketch accuracy against the exact baseline, per constellation.
    let sketch = agg.sketch.as_ref().expect("aggregate run must sketch");
    assert_eq!(sketch.total, n as u64);
    for g in &sketch.groups {
        let pick = |f: fn(&BeaconTrace) -> f64| -> Vec<f64> {
            full.traces
                .traces
                .iter()
                .filter(|t| t.constellation == g.constellation)
                .map(f)
                .collect()
        };
        let c = &g.constellation;
        assert_in_band(
            &format!("{c}/rssi_dbm"),
            &g.rssi_dbm.quantiles,
            &mut pick(|t| t.rssi_dbm),
        );
        assert_in_band(
            &format!("{c}/snr_db"),
            &g.snr_db.quantiles,
            &mut pick(|t| t.snr_db),
        );
        assert_in_band(
            &format!("{c}/distance_km"),
            &g.distance_km.quantiles,
            &mut pick(|t| t.distance_km),
        );
        assert_in_band(
            &format!("{c}/elevation_deg"),
            &g.elevation_deg.quantiles,
            &mut pick(|t| t.elevation_deg),
        );
        println!(
            "sketch audit: {c} ({} traces, {} sites) within band",
            g.count,
            g.sites.len()
        );
    }

    // Memory ceiling: the sketches must undercut the raw traces, and
    // the numbers go to the CI log so growth is visible.
    let full_mem = full_bytes(&full.traces.traces);
    let agg_mem: usize = sketch.groups.iter().map(sketch_bytes).sum();
    println!(
        "memory: full-trace {} B for {} traces, sketches {} B ({}x smaller)",
        full_mem,
        n,
        agg_mem,
        full_mem / agg_mem.max(1)
    );
    assert!(
        agg_mem < full_mem,
        "sketch footprint {agg_mem} B is not below the trace set's {full_mem} B"
    );

    // Sweep-cache ceiling: disjoint windows grow the process-wide pass
    // cache and grid store without bound unless the budget latch stops
    // them. Calibrate the budget from an unbudgeted run so the check
    // tracks the scenario instead of a magic constant.
    let sweep_jobs: Vec<SweepJob> = (0..6)
        .map(|i| {
            SweepJob::new(format!("ceiling-{i}"), 0xCE11 + i)
                .with_max_days(0.5 + 0.1 * i as f64)
                .with_sites(["HK"])
        })
        .collect();
    let server = SweepServer::new(opts).with_spill_dir(None).with_shard(None);
    sweep::clear();
    let unbudgeted = server.run(&sweep_jobs).expect("unbudgeted sweep runs");
    let cache_bytes = || sweep::stats().approx_bytes + sweep::grid_stats().approx_bytes;
    let natural = cache_bytes();
    assert!(natural > 0, "sweep left nothing in the caches to bound");

    let budget = natural / 2;
    sweep::clear();
    sweep::set_cache_budget_bytes(Some(budget));
    let budgeted = server.run(&sweep_jobs).expect("budgeted sweep runs");
    let bounded = cache_bytes();
    let evictions = sweep::stats().evictions + sweep::grid_stats().evictions;
    println!(
        "sweep caches: natural {natural} B, budget {budget} B, \
         post-sweep {bounded} B, {evictions} evictions"
    );
    assert!(
        bounded <= budget,
        "cache footprint {bounded} B exceeds the {budget} B budget"
    );
    assert!(evictions > 0, "the budget never fired an eviction");
    assert!(
        budgeted.same_results(&unbudgeted),
        "evictions changed sweep results"
    );
    sweep::set_cache_budget_bytes(None);
    sweep::clear();

    println!("memory ceiling: OK");
}
