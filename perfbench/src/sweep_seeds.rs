//! `sweep_seeds`: one sweep-server process running a 32-job queue of
//! 16 seeds × {predictive, vanilla} schedulers over the full catalog
//! and a 30-day window, checkpointing every job.
//!
//! The first job is cold and fills the caches; the 31 warm jobs predict
//! nothing, so simulate, channel, sink, sketch merge and checkpoint
//! writes dominate the measured run.

use crate::checks::{self, Ops};
use crate::peel::{self, Plan};
use crate::probe::{self, Span};
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use satiot_core::prelude::*;
use satiot_measure::sketch::TraceAggregate;

const SEEDS: u64 = 16;
const DAYS: f64 = 30.0;

/// The job queue; every job seed derives from the workload seed.
pub fn jobs(seed: u64) -> Vec<SweepJob> {
    (0..SEEDS)
        .flat_map(|i| {
            let job_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            [
                ("predictive", SchedulerKind::Predictive),
                ("vanilla", SchedulerKind::Vanilla { dwell_s: 600.0 }),
            ]
            .map(|(name, scheduler)| {
                SweepJob::new(format!("seed{i}-{name}"), job_seed)
                    .with_max_days(DAYS)
                    .with_scheduler(scheduler)
            })
        })
        .collect()
}

fn server_err(e: SatIotError) -> String {
    format!("sweep server: {e}")
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let jobs = jobs(ctx.seed);
    let dir = ctx.scratch.join("checkpoints");
    let server = SweepServer::new(*ctx.opts).with_spill_dir(Some(&dir));
    let mut trace = Trace::new(ctx.traced, ctx.threads);

    let (configs, resolve) = probe::timed(|| {
        jobs.iter()
            .map(SweepJob::to_config)
            .collect::<Result<Vec<_>, _>>()
    });
    let configs = configs.map_err(server_err)?;
    trace.set("scenarios.build_s", resolve.wall_s);
    let full_scale = jobs.len() == 32
        && configs
            .iter()
            .all(|c| c.max_days == DAYS && c.sites.len() == 8 && c.constellations.len() == 4);

    // Untraced, the cold first job is the set-up and the 31 warm jobs
    // are measured as one queue. Traced, the predict layers are peeled
    // first and every job is its own server call, timed from outside.
    let mut outcomes: Vec<SweepOutcome> = Vec::new();
    let mut setup_s = resolve.wall_s;
    let c0 = probe::counters();
    let (result, measured) = if !trace.on {
        let (cold, span) = probe::timed(|| server.run(&jobs[..1]));
        outcomes.push(cold.map_err(server_err)?);
        setup_s += span.wall_s;
        probe::timed(|| server.run(&jobs[1..]).map(|warm| outcomes.push(warm)))
    } else {
        probe::timed(|| {
            peel::predict(&Plan::new(&configs[0]), &mut trace);
            let mut job = Span::default();
            let mut warm_s = Vec::new();
            for (i, j) in jobs.iter().enumerate() {
                let (outcome, span) = trace.step(|| server.run(std::slice::from_ref(j)));
                outcomes.push(outcome?);
                job.wall_s += span.wall_s;
                job.cpu_s += span.cpu_s;
                if i > 0 {
                    warm_s.push(span.wall_s);
                }
            }
            trace.set_span("core.passive.simulate", job);
            trace.set("core.sweep_server.job_s", probe::median(&warm_s));
            Ok(())
        })
    };
    result.map_err(server_err)?;
    trace.coverage(measured);
    let c1 = probe::counters();
    let records: Vec<JobRecord> = outcomes.iter().flat_map(|o| o.records.clone()).collect();
    if let Some(first) = records.first() {
        trace.prove("orbit.pass", first.cache.pass_computes == 0, || {
            format!(
                "the first job predicted {} pass lists",
                first.cache.pass_computes
            )
        });
        trace.prove("orbit.ephemeris", first.cache.grid_computes == 0, || {
            format!("the first job built {} grids", first.cache.grid_computes)
        });
    }
    let emitted = probe::delta(&c0, &c1, "core.passive.beacons_emitted");
    let decoded = probe::delta(&c0, &c1, "core.passive.beacons_decoded");
    trace.set("core.passive.beacons_emitted", emitted as f64);
    trace.set(
        "core.passive.decode_ratio",
        decoded as f64 / emitted.max(1) as f64,
    );
    let samples = probe::delta(&c0, &c1, "channel.budget.samples");
    trace.set("channel.budget.samples", samples as f64);
    let retained = probe::delta(&c0, &c1, "measure.sink.traces_retained");
    trace.set(
        "measure.sink.traces_emitted",
        records.iter().map(|r| r.emitted).sum::<u64>() as f64,
    );
    trace.set("measure.sink.traces_retained", retained as f64);

    // Sketch merge and checkpoint re-verification, timed from outside.
    let (_, span) = trace.step(|| {
        let mut merged = TraceAggregate::new();
        for sketch in records.iter().filter_map(|r| r.sketch.as_ref()) {
            merged.merge(sketch);
        }
        merged
    });
    trace.set("core.sweep_server.merge_s", span.wall_s);
    let (resumed, span) = trace.step(|| server.run(&jobs));
    let resumed = resumed.map_err(server_err)?;
    trace.set("core.sweep_server.checkpoint_s", span.wall_s);
    let checkpoint_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| format!("checkpoint directory: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    trace.set(
        "core.sweep_server.checkpoint_bytes",
        checkpoint_bytes as f64,
    );

    let mut ops = Ops::default();
    for (i, r) in records.iter().enumerate() {
        let scale = (i == 0).then(|| checks::scale("sweep_seeds", full_scale));
        let warm = (i > 0).then(|| checks::warm_job(&r.job.tag, &r.cache));
        ops.op(r.job.tag.clone(), [scale.flatten(), warm.flatten()]);
    }
    ops.op("merge", outcomes.iter().map(checks::sketch_merges));
    ops.op(
        "resume",
        [
            checks::checkpoints_reverify(&records, &resumed),
            checks::sketch_merges(&resumed),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Outcome {
        setup_s,
        measured,
        jobs: if trace.on { jobs.len() } else { jobs.len() - 1 } as u64,
        ops,
        trace,
    })
}
