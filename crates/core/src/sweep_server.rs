//! Campaign-as-a-service: the resumable, sharded sweep driver.
//!
//! Every frontier study in the paper — Tables 1–3, the cost crossover
//! surfaces, the bench extensions — is a *sweep*: many campaign
//! configurations over seeds, schedulers, sites, and constellations.
//! Run as independent batch processes those sweeps are cold-start
//! workloads — each run rebuilds the ephemeris grids and pass lists the
//! previous one just computed. This module turns the toolkit into a
//! long-running sweep service instead:
//!
//! * **Cross-job cache amortisation.** Jobs are executed inside one
//!   process, so the process-wide [`crate::sweep`] pass cache and
//!   ephemeris grid store stay warm across jobs. Jobs sharing a
//!   *(constellation, window, mask)* reuse the first job's pass lists
//!   and grids; only prediction-relevant differences recompute. The
//!   per-job [`CacheAttribution`] deltas prove where the reuse happened
//!   (the `sweep_server_amortisation` test pins it: warm jobs compute
//!   nothing, and the server beats cold jobs on the clock).
//! * **Bounded memory.** Jobs run under the aggregating sink — traces
//!   stream into the PR-6 mergeable sketches ([`TraceAggregate`]'s
//!   exact merge law), so sweep memory is O(jobs' summaries), never
//!   O(traces). Between jobs the server enforces the configured cache
//!   payload budget ([`crate::sweep::enforce_cache_budget`]), so a
//!   sweep over disjoint windows cannot grow without bound.
//! * **Checkpoint/resume.** With a spill directory configured, each
//!   completed job's results — its sketch, per-constellation outcomes,
//!   and root RNG stream position — are written to
//!   `<dir>/<fingerprint>.ckpt` (atomic rename). A killed sweep
//!   resumes by reloading completed jobs and re-running only the rest,
//!   losing at most the in-flight job; because every job's results are
//!   a pure function of its spec, the resumed outcome is bit-identical
//!   to an uninterrupted run (`sweep_smoke` SIGKILLs a live sweep in CI
//!   to prove it). Floats round-trip through their exact bit patterns,
//!   and a FNV-64 content checksum rejects torn or stale files.
//! * **Sharding.** `SATIOT_SWEEP_SHARD=i/n` assigns every `n`-th job
//!   (round-robin by queue position) to this process, so a sweep can
//!   spread across OS processes sharing one spill directory; shard
//!   outcomes merge exactly through the sketch merge law.
//!
//! ```
//! use satiot_core::prelude::*;
//! use satiot_core::sweep_server::{SweepJob, SweepServer};
//!
//! let jobs: Vec<SweepJob> = (0..3)
//!     .map(|i| {
//!         SweepJob::new(format!("seed-{i}"), 7 + i)
//!             .with_max_days(0.3)
//!             .with_sites(["HK"])
//!             .with_constellations(["FOSSA"])
//!     })
//!     .collect();
//! let outcome = SweepServer::new(RunOptions::default())
//!     .run(&jobs)
//!     .unwrap();
//! assert_eq!(outcome.records.len(), 3);
//! // Jobs 1 and 2 reused job 0's pass lists: no new computes.
//! assert!(outcome.records[1].cache.pass_computes == 0);
//! ```

use crate::error::SatIotError;
use crate::options::RunOptions;
use crate::passive::{PassiveCampaign, PassiveConfig, SchedulerKind};
use crate::sink::SinkMode;
use crate::sweep;
use satiot_measure::sketch::{
    ConstellationSketch, MetricSketch, QuantileSketch, StreamSummary, TraceAggregate,
};
use satiot_obs::metrics::Counter;
use satiot_scenarios::constellations::all_constellations;
use satiot_scenarios::sites::measurement_sites;
use satiot_sim::rng::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Jobs executed end-to-end by this process (metrics).
static M_JOBS_RUN: Counter = Counter::new("core.sweep.server.jobs_run");
/// Jobs reloaded from checkpoints instead of re-run (metrics).
static M_JOBS_RESUMED: Counter = Counter::new("core.sweep.server.jobs_resumed");
/// Jobs skipped because they belong to another shard (metrics).
static M_JOBS_SKIPPED: Counter = Counter::new("core.sweep.server.jobs_skipped");
/// Checkpoints written (metrics).
static M_CHECKPOINTS_WRITTEN: Counter = Counter::new("core.sweep.server.checkpoints_written");
/// Checkpoints rejected as corrupt/stale/mismatched (metrics).
static M_CHECKPOINTS_REJECTED: Counter = Counter::new("core.sweep.server.checkpoints_rejected");

// Always-on proof counters (plain atomics, like `sweep::stats`): the
// kill/resume smoke asserts on them with `SATIOT_METRICS` off.
static JOBS_RUN: AtomicU64 = AtomicU64::new(0);
static JOBS_RESUMED: AtomicU64 = AtomicU64::new(0);
static JOBS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static CHECKPOINTS_WRITTEN: AtomicU64 = AtomicU64::new(0);
static CHECKPOINTS_REJECTED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the server's always-on proof counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs executed end-to-end by this process.
    pub jobs_run: u64,
    /// Jobs reloaded from checkpoints instead of re-run.
    pub jobs_resumed: u64,
    /// Jobs skipped because they belong to another shard.
    pub jobs_skipped: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
    /// Checkpoints rejected (corrupt, torn, or for a different spec).
    pub checkpoints_rejected: u64,
}

/// Read the server's proof counters.
pub fn server_stats() -> ServerStats {
    ServerStats {
        jobs_run: JOBS_RUN.load(Relaxed),
        jobs_resumed: JOBS_RESUMED.load(Relaxed),
        jobs_skipped: JOBS_SKIPPED.load(Relaxed),
        checkpoints_written: CHECKPOINTS_WRITTEN.load(Relaxed),
        checkpoints_rejected: CHECKPOINTS_REJECTED.load(Relaxed),
    }
}

/// Zero the server's proof counters (bench legs isolating one sweep).
pub fn reset_server_stats() {
    JOBS_RUN.store(0, Relaxed);
    JOBS_RESUMED.store(0, Relaxed);
    JOBS_SKIPPED.store(0, Relaxed);
    CHECKPOINTS_WRITTEN.store(0, Relaxed);
    CHECKPOINTS_REJECTED.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// One campaign job in a sweep queue: a passive-campaign scenario plus
/// the seed and tag that identify it.
///
/// Empty `sites`/`constellations` lists mean "all of the paper's
/// catalog"; non-empty lists select by site code / constellation label
/// (resolved in *catalog* order, so job results are independent of the
/// order codes are listed in).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// Human-readable label, carried through records and checkpoints.
    /// Must be printable ASCII without `"` or `\` (the checkpoint codec
    /// stores it quoted).
    pub tag: String,
    /// Root campaign seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Per-site simulated-day cap.
    pub max_days: f64,
    /// Station-assignment policy.
    pub scheduler: SchedulerKind,
    /// Site codes to simulate (empty = all measurement sites).
    pub sites: Vec<String>,
    /// Constellation labels to observe (empty = all).
    pub constellations: Vec<String>,
}

impl SweepJob {
    /// A job over the full catalog with the default scheduler and a
    /// one-day cap (builders refine from there).
    pub fn new(tag: impl Into<String>, seed: u64) -> SweepJob {
        SweepJob {
            tag: tag.into(),
            seed,
            max_days: 1.0,
            scheduler: SchedulerKind::Predictive,
            sites: Vec::new(),
            constellations: Vec::new(),
        }
    }

    /// Override the per-site day cap.
    pub fn with_max_days(mut self, days: f64) -> SweepJob {
        self.max_days = days;
        self
    }

    /// Override the scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> SweepJob {
        self.scheduler = scheduler;
        self
    }

    /// Select sites by code (empty = all).
    pub fn with_sites<S: Into<String>>(mut self, codes: impl IntoIterator<Item = S>) -> SweepJob {
        self.sites = codes.into_iter().map(Into::into).collect();
        self
    }

    /// Select constellations by label (empty = all).
    pub fn with_constellations<S: Into<String>>(
        mut self,
        labels: impl IntoIterator<Item = S>,
    ) -> SweepJob {
        self.constellations = labels.into_iter().map(Into::into).collect();
        self
    }

    /// The job's identity fingerprint: FNV-64 over the canonical spec.
    /// Checkpoint files are named by it, and resume only accepts a file
    /// whose embedded spec *and* fingerprint both match.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.text(&self.tag);
        h.u64(self.seed);
        h.u64(self.max_days.to_bits());
        match self.scheduler {
            SchedulerKind::Predictive => h.text("P"),
            SchedulerKind::Vanilla { dwell_s } => {
                h.text("V");
                h.u64(dwell_s.to_bits());
            }
        }
        for s in &self.sites {
            h.text(s);
        }
        h.text("|");
        for c in &self.constellations {
            h.text(c);
        }
        h.finish()
    }

    /// Spec equality with exact float semantics (`max_days` and any
    /// vanilla dwell compare by bit pattern, so NaN-poisoned or sub-ulp
    /// differences never alias).
    pub fn same_spec(&self, other: &SweepJob) -> bool {
        let scheduler_eq = match (self.scheduler, other.scheduler) {
            (SchedulerKind::Predictive, SchedulerKind::Predictive) => true,
            (SchedulerKind::Vanilla { dwell_s: a }, SchedulerKind::Vanilla { dwell_s: b }) => {
                a.to_bits() == b.to_bits()
            }
            _ => false,
        };
        self.tag == other.tag
            && self.seed == other.seed
            && self.max_days.to_bits() == other.max_days.to_bits()
            && scheduler_eq
            && self.sites == other.sites
            && self.constellations == other.constellations
    }

    /// Validate the job and resolve it into a campaign configuration.
    ///
    /// # Errors
    ///
    /// [`SatIotError::InvalidName`] for a tag the checkpoint codec
    /// cannot store, an unknown site code or constellation label, or a
    /// duplicated selection; [`SatIotError::NonFiniteTime`] /
    /// [`SatIotError::InvalidConfig`] for an unusable day cap. (An
    /// invalid vanilla dwell is rejected by the campaign itself.)
    pub fn to_config(&self) -> Result<PassiveConfig, SatIotError> {
        if self.tag.is_empty()
            || !self
                .tag
                .chars()
                .all(|c| (c.is_ascii_graphic() || c == ' ') && c != '"' && c != '\\')
        {
            return Err(SatIotError::InvalidName {
                field: "SweepJob.tag",
                name: self.tag.clone(),
                suggestion: None,
            });
        }
        if !self.max_days.is_finite() {
            return Err(SatIotError::NonFiniteTime {
                context: "SweepJob.max_days",
                value: self.max_days,
            });
        }
        if self.max_days <= 0.0 {
            return Err(SatIotError::InvalidConfig {
                field: "SweepJob.max_days",
                value: self.max_days,
                requirement: "must be > 0 simulated days",
            });
        }
        let catalog_sites = measurement_sites();
        let sites = if self.sites.is_empty() {
            catalog_sites
        } else {
            for code in &self.sites {
                if !catalog_sites
                    .iter()
                    .any(|s| s.code.eq_ignore_ascii_case(code))
                {
                    return Err(SatIotError::InvalidName {
                        field: "SweepJob.sites",
                        name: code.clone(),
                        suggestion: satiot_scenarios::site_code_suggestion(code),
                    });
                }
                if self
                    .sites
                    .iter()
                    .filter(|c| c.eq_ignore_ascii_case(code))
                    .count()
                    > 1
                {
                    return Err(SatIotError::InvalidName {
                        field: "SweepJob.sites (duplicated)",
                        name: code.clone(),
                        suggestion: None,
                    });
                }
            }
            catalog_sites
                .into_iter()
                .filter(|s| self.sites.iter().any(|c| c.eq_ignore_ascii_case(s.code)))
                .collect()
        };
        let catalog_consts = all_constellations();
        let constellations = if self.constellations.is_empty() {
            catalog_consts
        } else {
            for label in &self.constellations {
                if !catalog_consts
                    .iter()
                    .any(|c| c.name.eq_ignore_ascii_case(label))
                {
                    return Err(SatIotError::InvalidName {
                        field: "SweepJob.constellations",
                        name: label.clone(),
                        suggestion: satiot_scenarios::constellation_suggestion(label),
                    });
                }
                if self
                    .constellations
                    .iter()
                    .filter(|l| l.eq_ignore_ascii_case(label))
                    .count()
                    > 1
                {
                    return Err(SatIotError::InvalidName {
                        field: "SweepJob.constellations (duplicated)",
                        name: label.clone(),
                        suggestion: None,
                    });
                }
            }
            catalog_consts
                .into_iter()
                .filter(|c| {
                    self.constellations
                        .iter()
                        .any(|l| l.eq_ignore_ascii_case(c.name))
                })
                .collect()
        };
        Ok(PassiveConfig {
            seed: self.seed,
            max_days: self.max_days,
            scheduler: self.scheduler,
            sites,
            constellations,
            ..PassiveConfig::default()
        })
    }
}

// ---------------------------------------------------------------------------
// Records and outcomes
// ---------------------------------------------------------------------------

/// Cache work attributed to one job: the [`crate::sweep`] counter
/// deltas across its execution. Jobs run one at a time, so the delta
/// is exact as long as no other campaign runs in the process
/// meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheAttribution {
    /// Pass-cache lookups issued by this job.
    pub pass_lookups: u64,
    /// Pass lists this job had to predict (the rest were warm).
    pub pass_computes: u64,
    /// Grid-store lookups issued by this job.
    pub grid_lookups: u64,
    /// Ephemeris grids this job had to build.
    pub grid_computes: u64,
}

impl CacheAttribution {
    /// Pass-cache lookups served warm.
    pub fn pass_hits(&self) -> u64 {
        self.pass_lookups - self.pass_computes
    }

    /// Grid-store lookups served warm.
    pub fn grid_hits(&self) -> u64 {
        self.grid_lookups - self.grid_computes
    }
}

/// Per-constellation outcome of one job (the quantities the frontier
/// studies consume).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstellationOutcome {
    /// Constellation label.
    pub constellation: String,
    /// Beacons received across all covered passes.
    pub received: u64,
    /// Beacons transmitted inside those passes.
    pub transmitted: u64,
    /// Covered passes observed.
    pub covered_passes: u64,
    /// Mean effective contact duration over covered windows, minutes.
    pub effective_min_mean: f64,
}

/// One job's results: everything a checkpoint stores and a resumed
/// sweep reloads.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job spec this record answers for.
    pub job: SweepJob,
    /// [`SweepJob::fingerprint`] of that spec.
    pub fingerprint: u64,
    /// xoshiro256** state of the campaign's root stream at job start —
    /// a pure function of the seed. A resumed sweep recomputes it and
    /// rejects the checkpoint on mismatch (e.g. a stale file from an
    /// incompatible build), so "resumed" can never silently mean
    /// "different stream".
    pub rng_state: [u64; 4],
    /// Whether this record was reloaded from a checkpoint.
    pub resumed: bool,
    /// Total decoded beacon traces.
    pub traces_total: u64,
    /// Traces emitted through the sink (equals `traces_total` under the
    /// aggregating sink).
    pub emitted: u64,
    /// Recoverable faults survived during the run.
    pub faults: u64,
    /// Per-constellation outcomes, in catalog order.
    pub constellations: Vec<ConstellationOutcome>,
    /// Cache work attributed to this job (not part of the result
    /// identity: it depends on queue position and cache warmth).
    pub cache: CacheAttribution,
    /// The job's mergeable trace sketch.
    pub sketch: Option<TraceAggregate>,
}

impl JobRecord {
    /// Result identity: every deterministic field — spec, RNG position,
    /// trace counts, outcomes, sketch — ignoring provenance (`resumed`)
    /// and cache warmth (`cache`). This is the "bit-identical to an
    /// uninterrupted run" relation the kill/resume smoke asserts.
    pub fn same_results(&self, other: &JobRecord) -> bool {
        self.job.same_spec(&other.job)
            && self.fingerprint == other.fingerprint
            && self.rng_state == other.rng_state
            && self.traces_total == other.traces_total
            && self.emitted == other.emitted
            && self.faults == other.faults
            && self.constellations == other.constellations
            && self.sketch == other.sketch
    }
}

/// The merged outcome of one sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepOutcome {
    /// Per-job records, in queue order (shard-skipped jobs omitted).
    pub records: Vec<JobRecord>,
    /// All job sketches merged through the exact sketch merge law.
    pub merged: TraceAggregate,
    /// Jobs executed end-to-end.
    pub jobs_run: usize,
    /// Jobs reloaded from checkpoints.
    pub jobs_resumed: usize,
    /// Jobs left to other shards.
    pub jobs_skipped: usize,
}

impl SweepOutcome {
    /// Whether two outcomes carry bit-identical results (see
    /// [`JobRecord::same_results`]; `merged` is covered by exact
    /// equality, run/resume tallies are provenance and ignored).
    pub fn same_results(&self, other: &SweepOutcome) -> bool {
        self.records.len() == other.records.len()
            && self
                .records
                .iter()
                .zip(&other.records)
                .all(|(a, b)| a.same_results(b))
            && self.merged == other.merged
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The long-running sweep driver. See the module docs for the contract.
///
/// Jobs run one at a time; each campaign parallelises internally.
#[derive(Debug, Clone)]
pub struct SweepServer {
    opts: RunOptions,
    /// Checkpoint directory; `None` disables checkpoint/resume.
    spill_dir: Option<PathBuf>,
    /// `(index, count)` shard assignment; `None` runs every job.
    shard: Option<(usize, usize)>,
}

impl SweepServer {
    /// A server honouring `opts` — including its `SATIOT_SWEEP_DIR`,
    /// `SATIOT_SWEEP_SHARD`, and `SATIOT_SWEEP_CACHE_MB` knobs. A
    /// configured cache budget is installed process-wide here
    /// (mirroring [`RunOptions::apply`]) and enforced between jobs; an
    /// unconfigured one leaves the process latch alone.
    pub fn new(opts: RunOptions) -> SweepServer {
        if let Some(mb) = opts.sweep_cache_mb {
            sweep::set_cache_budget_bytes(Some(mb << 20));
        }
        SweepServer {
            opts,
            spill_dir: opts.sweep_dir.map(PathBuf::from),
            shard: opts.sweep_shard,
        }
    }

    /// Override the checkpoint directory.
    pub fn with_spill_dir(mut self, dir: Option<&Path>) -> SweepServer {
        self.spill_dir = dir.map(Path::to_path_buf);
        self
    }

    /// Override the shard assignment (`(index, count)`, `index <
    /// count`).
    pub fn with_shard(mut self, shard: Option<(usize, usize)>) -> SweepServer {
        self.shard = shard;
        self
    }

    /// Run (or resume) a sweep over `jobs`.
    ///
    /// Jobs are validated up front — an invalid job fails the whole
    /// sweep *before* any work, so a long queue cannot die at hour ten
    /// on a typo. Fingerprints must be unique (duplicate submissions
    /// would alias one checkpoint file).
    ///
    /// # Errors
    ///
    /// Any job validation error (see [`SweepJob::to_config`]), a
    /// duplicate fingerprint ([`SatIotError::InvalidName`]), a shard
    /// index out of range ([`SatIotError::InvalidConfig`]), or a
    /// campaign failure from an executed job.
    pub fn run(&self, jobs: &[SweepJob]) -> Result<SweepOutcome, SatIotError> {
        for job in jobs {
            job.to_config()?;
        }
        for (i, job) in jobs.iter().enumerate() {
            let fp = job.fingerprint();
            if jobs[..i].iter().any(|other| other.fingerprint() == fp) {
                return Err(SatIotError::InvalidName {
                    field: "SweepJob (duplicate fingerprint)",
                    name: job.tag.clone(),
                    suggestion: None,
                });
            }
        }
        if let Some((index, count)) = self.shard {
            if index >= count || count == 0 {
                return Err(SatIotError::InvalidConfig {
                    field: "SweepServer.shard",
                    value: index as f64,
                    requirement: "index < count and count >= 1",
                });
            }
        }
        if let Some(dir) = &self.spill_dir {
            std::fs::create_dir_all(dir).map_err(|_| SatIotError::InvalidName {
                field: "SweepServer.spill_dir",
                name: dir.display().to_string(),
                suggestion: None,
            })?;
        }

        // Partition the queue: other shards' jobs, resumable jobs,
        // pending jobs.
        let mut slots: Vec<Option<JobRecord>> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<(usize, &SweepJob)> = Vec::new();
        let mut jobs_skipped = 0usize;
        let mut jobs_resumed = 0usize;
        let mut kept = 0usize;
        for (i, job) in jobs.iter().enumerate() {
            if let Some((index, count)) = self.shard {
                if i % count != index {
                    jobs_skipped += 1;
                    JOBS_SKIPPED.fetch_add(1, Relaxed);
                    M_JOBS_SKIPPED.inc();
                    continue;
                }
            }
            kept += 1;
            if let Some(record) = self.try_resume(job) {
                jobs_resumed += 1;
                JOBS_RESUMED.fetch_add(1, Relaxed);
                M_JOBS_RESUMED.inc();
                slots.push(Some(record));
            } else {
                pending.push((slots.len(), job));
                slots.push(None);
            }
        }

        // Execute the pending jobs.
        for (slot, job) in pending {
            let record = self.execute(job)?;
            sweep::enforce_cache_budget();
            slots[slot] = Some(record);
        }

        let records: Vec<JobRecord> = slots.into_iter().flatten().collect();
        debug_assert_eq!(records.len(), kept);
        let mut merged = TraceAggregate::new();
        for record in &records {
            if let Some(sketch) = &record.sketch {
                merged.merge(sketch);
            }
        }
        Ok(SweepOutcome {
            jobs_run: records.iter().filter(|r| !r.resumed).count(),
            jobs_resumed,
            jobs_skipped,
            records,
            merged,
        })
    }

    /// Execute one job end-to-end and checkpoint the result.
    fn execute(&self, job: &SweepJob) -> Result<JobRecord, SatIotError> {
        let (pass_before, grid_before) = (sweep::stats(), sweep::grid_stats());
        let config = job.to_config()?;
        let resolved: Vec<String> = config
            .constellations
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        // Aggregate sink always: sweep memory must stay O(summaries)
        // no matter what the caller's options say about single runs.
        let opts = self.opts.with_sink(SinkMode::Aggregate);
        let results = PassiveCampaign::new(config).run(&opts)?;
        let (pass_after, grid_after) = (sweep::stats(), sweep::grid_stats());
        let cache = CacheAttribution {
            pass_lookups: pass_after.lookups - pass_before.lookups,
            pass_computes: pass_after.computes - pass_before.computes,
            grid_lookups: grid_after.lookups - grid_before.lookups,
            grid_computes: grid_after.computes - grid_before.computes,
        };
        let constellations = resolved
            .iter()
            .map(|name| {
                let mut received = 0u64;
                let mut transmitted = 0u64;
                let mut covered = 0u64;
                for p in results.covered_passes().filter(|p| p.constellation == name) {
                    received += p.window.received as u64;
                    transmitted += p.window.transmitted as u64;
                    covered += 1;
                }
                ConstellationOutcome {
                    constellation: name.clone(),
                    received,
                    transmitted,
                    covered_passes: covered,
                    effective_min_mean: results.contact_stats_covered(name, &[]).effective_min.mean,
                }
            })
            .collect();
        let record = JobRecord {
            job: job.clone(),
            fingerprint: job.fingerprint(),
            rng_state: Rng::from_seed(job.seed).state(),
            resumed: false,
            traces_total: results.sink.emitted,
            emitted: results.sink.emitted,
            faults: results.faults.total(),
            constellations,
            cache,
            sketch: results.sketch.clone(),
        };
        JOBS_RUN.fetch_add(1, Relaxed);
        M_JOBS_RUN.inc();
        self.write_checkpoint(&record);
        Ok(record)
    }

    /// Load `job`'s checkpoint, if a valid one exists for exactly this
    /// spec. Any mismatch — checksum, fingerprint, spec, or RNG stream
    /// position — rejects the file (counted) and the job re-runs.
    fn try_resume(&self, job: &SweepJob) -> Option<JobRecord> {
        let dir = self.spill_dir.as_ref()?;
        let path = checkpoint_path(dir, job);
        let text = std::fs::read_to_string(&path).ok()?;
        match codec::decode(&text, job) {
            Ok(record) => Some(record),
            Err(_) => {
                CHECKPOINTS_REJECTED.fetch_add(1, Relaxed);
                M_CHECKPOINTS_REJECTED.inc();
                None
            }
        }
    }

    /// Write `record`'s checkpoint atomically (tmp + rename), so a kill
    /// mid-write leaves either the old file or none — never a torn one.
    /// IO failure degrades to "no checkpoint" (the job simply re-runs
    /// on resume) rather than failing the sweep.
    fn write_checkpoint(&self, record: &JobRecord) {
        let Some(dir) = &self.spill_dir else {
            return;
        };
        let path = checkpoint_path(dir, &record.job);
        let tmp = path.with_extension("tmp");
        let text = codec::encode(record);
        let written = std::fs::write(&tmp, text.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok();
        if written {
            CHECKPOINTS_WRITTEN.fetch_add(1, Relaxed);
            M_CHECKPOINTS_WRITTEN.inc();
        }
    }
}

/// The checkpoint path for one job.
fn checkpoint_path(dir: &Path, job: &SweepJob) -> PathBuf {
    dir.join(format!("{:016x}.ckpt", job.fingerprint()))
}

// ---------------------------------------------------------------------------
// FNV-64 (checksums and fingerprints)
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64 over length-prefixed fields (length prefixes
/// keep `["ab","c"]` and `["a","bc"]` from colliding).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over raw bytes (the checkpoint content checksum).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------------

/// The std-only line-oriented checkpoint codec.
///
/// Every float is stored as its exact `f64::to_bits` pattern, so a
/// decoded record is *bit-identical* to the encoded one — the property
/// the whole resume contract stands on. The final line is an FNV-64
/// checksum of everything above it; torn or hand-edited files fail to
/// load and the job re-runs.
mod codec {
    use super::*;

    pub(super) fn encode(record: &JobRecord) -> String {
        let mut out = String::with_capacity(4096);
        let push = |out: &mut String, line: &str| {
            out.push_str(line);
            out.push('\n');
        };
        push(&mut out, "satiot-sweep-checkpoint v1");
        push(
            &mut out,
            &format!("fingerprint {:016x}", record.fingerprint),
        );
        push(&mut out, &format!("tag \"{}\"", record.job.tag));
        push(&mut out, &format!("seed {}", record.job.seed));
        push(
            &mut out,
            &format!("max_days {}", record.job.max_days.to_bits()),
        );
        match record.job.scheduler {
            SchedulerKind::Predictive => push(&mut out, "scheduler P"),
            SchedulerKind::Vanilla { dwell_s } => {
                push(&mut out, &format!("scheduler V {}", dwell_s.to_bits()));
            }
        }
        push(&mut out, &format!("sites {}", record.job.sites.len()));
        for s in &record.job.sites {
            push(&mut out, &format!("s \"{s}\""));
        }
        push(
            &mut out,
            &format!("constellations {}", record.job.constellations.len()),
        );
        for c in &record.job.constellations {
            push(&mut out, &format!("c \"{c}\""));
        }
        let [a, b, c, d] = record.rng_state;
        push(&mut out, &format!("rng {a} {b} {c} {d}"));
        push(&mut out, &format!("traces {}", record.traces_total));
        push(&mut out, &format!("emitted {}", record.emitted));
        push(&mut out, &format!("faults {}", record.faults));
        push(
            &mut out,
            &format!(
                "cache {} {} {} {}",
                record.cache.pass_lookups,
                record.cache.pass_computes,
                record.cache.grid_lookups,
                record.cache.grid_computes
            ),
        );
        push(
            &mut out,
            &format!("outcomes {}", record.constellations.len()),
        );
        for o in &record.constellations {
            push(
                &mut out,
                &format!(
                    "o \"{}\" {} {} {} {}",
                    o.constellation,
                    o.received,
                    o.transmitted,
                    o.covered_passes,
                    o.effective_min_mean.to_bits()
                ),
            );
        }
        match &record.sketch {
            None => push(&mut out, "sketch 0"),
            Some(aggregate) => {
                push(&mut out, "sketch 1");
                push(&mut out, &format!("total {}", aggregate.total));
                push(&mut out, &format!("groups {}", aggregate.groups.len()));
                for g in &aggregate.groups {
                    push(&mut out, &format!("g \"{}\" {}", g.constellation, g.count));
                    push(&mut out, &format!("gsites {}", g.sites.len()));
                    for (site, n) in &g.sites {
                        push(&mut out, &format!("gs \"{site}\" {n}"));
                    }
                    for (label, m) in [
                        ("rssi", &g.rssi_dbm),
                        ("snr", &g.snr_db),
                        ("dist", &g.distance_km),
                        ("elev", &g.elevation_deg),
                    ] {
                        encode_metric(&mut out, label, m);
                    }
                }
            }
        }
        let checksum = fnv64(out.as_bytes());
        out.push_str(&format!("checksum {checksum:016x}\n"));
        out
    }

    fn encode_metric(out: &mut String, label: &str, m: &MetricSketch) {
        let s = &m.summary;
        out.push_str(&format!(
            "m {label} {} {} {} {} {} {}\n",
            s.count,
            s.mean.to_bits(),
            s.m2.to_bits(),
            s.min.to_bits(),
            s.max.to_bits(),
            s.non_finite_dropped
        ));
        let q = &m.quantiles;
        out.push_str(&format!(
            "q {} {} {} {} {} {}\n",
            q.width().to_bits(),
            q.min().to_bits(),
            q.max().to_bits(),
            q.count(),
            q.non_finite_dropped,
            q.buckets()
        ));
        for (k, n) in q.bucket_iter() {
            out.push_str(&format!("b {k} {n}\n"));
        }
    }

    /// Decode a checkpoint for `job`, validating the checksum, the
    /// fingerprint, the embedded spec, and the RNG stream position.
    pub(super) fn decode(text: &str, job: &SweepJob) -> Result<JobRecord, String> {
        // Checksum first: everything up to the final line must hash to
        // the value that line carries.
        let body_end = text
            .trim_end_matches('\n')
            .rfind('\n')
            .ok_or("truncated checkpoint")?
            + 1;
        let (body, tail) = text.split_at(body_end);
        let claimed = tail
            .trim_end()
            .strip_prefix("checksum ")
            .ok_or("missing checksum line")?;
        let claimed = u64::from_str_radix(claimed, 16).map_err(|_| "bad checksum encoding")?;
        if fnv64(body.as_bytes()) != claimed {
            return Err("checksum mismatch".to_string());
        }

        let mut lines = body.lines();
        let mut next = || lines.next().ok_or("truncated checkpoint".to_string());
        expect(next()?, "satiot-sweep-checkpoint v1")?;
        let fingerprint = u64::from_str_radix(field(next()?, "fingerprint")?, 16)
            .map_err(|_| "bad fingerprint")?;
        let (tag, _) = take_quoted(field(next()?, "tag")?)?;
        let seed: u64 = parse(field(next()?, "seed")?)?;
        let max_days = f64::from_bits(parse(field(next()?, "max_days")?)?);
        let scheduler = match field(next()?, "scheduler")? {
            "P" => SchedulerKind::Predictive,
            v => match v.strip_prefix("V ") {
                Some(bits) => SchedulerKind::Vanilla {
                    dwell_s: f64::from_bits(parse(bits)?),
                },
                None => return Err(format!("unknown scheduler {v:?}")),
            },
        };
        let n_sites: usize = parse(field(next()?, "sites")?)?;
        let mut sites = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            sites.push(take_quoted(field(next()?, "s")?)?.0);
        }
        let n_consts: usize = parse(field(next()?, "constellations")?)?;
        let mut constellations = Vec::with_capacity(n_consts);
        for _ in 0..n_consts {
            constellations.push(take_quoted(field(next()?, "c")?)?.0);
        }
        let decoded_job = SweepJob {
            tag,
            seed,
            max_days,
            scheduler,
            sites,
            constellations,
        };
        if fingerprint != job.fingerprint() || !decoded_job.same_spec(job) {
            return Err("checkpoint is for a different job spec".to_string());
        }

        let rng_words: Vec<u64> = field(next()?, "rng")?
            .split_whitespace()
            .map(parse)
            .collect::<Result<_, _>>()?;
        let rng_state: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| "bad rng state arity".to_string())?;
        if rng_state != Rng::from_seed(job.seed).state() {
            return Err("rng stream position mismatch (stale build?)".to_string());
        }
        let traces_total: u64 = parse(field(next()?, "traces")?)?;
        let emitted: u64 = parse(field(next()?, "emitted")?)?;
        let faults: u64 = parse(field(next()?, "faults")?)?;
        let cache_words: Vec<u64> = field(next()?, "cache")?
            .split_whitespace()
            .map(parse)
            .collect::<Result<_, _>>()?;
        let [pl, pc, gl, gc]: [u64; 4] = cache_words
            .try_into()
            .map_err(|_| "bad cache arity".to_string())?;
        let n_outcomes: usize = parse(field(next()?, "outcomes")?)?;
        let mut outcomes = Vec::with_capacity(n_outcomes);
        for _ in 0..n_outcomes {
            let (constellation, rest) = take_quoted(field(next()?, "o")?)?;
            let words: Vec<u64> = rest
                .split_whitespace()
                .map(parse)
                .collect::<Result<_, _>>()?;
            let [received, transmitted, covered, mean_bits]: [u64; 4] = words
                .try_into()
                .map_err(|_| "bad outcome arity".to_string())?;
            outcomes.push(ConstellationOutcome {
                constellation,
                received,
                transmitted,
                covered_passes: covered,
                effective_min_mean: f64::from_bits(mean_bits),
            });
        }
        let sketch = match field(next()?, "sketch")? {
            "0" => None,
            "1" => {
                let total: u64 = parse(field(next()?, "total")?)?;
                let n_groups: usize = parse(field(next()?, "groups")?)?;
                let mut groups = Vec::with_capacity(n_groups);
                for _ in 0..n_groups {
                    let (constellation, rest) = take_quoted(field(next()?, "g")?)?;
                    let count: u64 = parse(rest)?;
                    let n_gsites: usize = parse(field(next()?, "gsites")?)?;
                    let mut gsites = Vec::with_capacity(n_gsites);
                    for _ in 0..n_gsites {
                        let (site, rest) = take_quoted(field(next()?, "gs")?)?;
                        gsites.push((site, parse::<u64>(rest)?));
                    }
                    let mut metrics = Vec::with_capacity(4);
                    for label in ["rssi", "snr", "dist", "elev"] {
                        metrics.push(decode_metric(&mut next, label)?);
                    }
                    let [rssi_dbm, snr_db, distance_km, elevation_deg]: [MetricSketch; 4] =
                        metrics.try_into().expect("four metrics decoded");
                    groups.push(ConstellationSketch {
                        constellation,
                        count,
                        rssi_dbm,
                        snr_db,
                        distance_km,
                        elevation_deg,
                        sites: gsites,
                    });
                }
                Some(TraceAggregate { total, groups })
            }
            v => return Err(format!("bad sketch flag {v:?}")),
        };
        Ok(JobRecord {
            job: decoded_job,
            fingerprint,
            rng_state,
            resumed: true,
            traces_total,
            emitted,
            faults,
            constellations: outcomes,
            cache: CacheAttribution {
                pass_lookups: pl,
                pass_computes: pc,
                grid_lookups: gl,
                grid_computes: gc,
            },
            sketch,
        })
    }

    fn decode_metric<'a>(
        next: &mut impl FnMut() -> Result<&'a str, String>,
        label: &str,
    ) -> Result<MetricSketch, String> {
        let m_line = field(next()?, "m")?;
        let rest = m_line
            .strip_prefix(label)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| format!("expected metric {label:?}, got {m_line:?}"))?;
        let words: Vec<u64> = rest
            .split_whitespace()
            .map(parse)
            .collect::<Result<_, _>>()?;
        let [count, mean, m2, min, max, nf]: [u64; 6] = words
            .try_into()
            .map_err(|_| "bad summary arity".to_string())?;
        let summary = StreamSummary {
            count,
            mean: f64::from_bits(mean),
            m2: f64::from_bits(m2),
            min: f64::from_bits(min),
            max: f64::from_bits(max),
            non_finite_dropped: nf,
        };
        let words: Vec<u64> = field(next()?, "q")?
            .split_whitespace()
            .map(parse)
            .collect::<Result<_, _>>()?;
        let [width, qmin, qmax, qcount, qnf, n_buckets]: [u64; 6] = words
            .try_into()
            .map_err(|_| "bad quantile arity".to_string())?;
        let mut buckets = Vec::with_capacity(n_buckets as usize);
        for _ in 0..n_buckets {
            let line = field(next()?, "b")?;
            let (k, n) = line.split_once(' ').ok_or("bad bucket line")?;
            let k: i64 = k.parse().map_err(|_| "bad bucket key".to_string())?;
            buckets.push((k, parse::<u64>(n)?));
        }
        let quantiles = QuantileSketch::from_parts(
            f64::from_bits(width),
            f64::from_bits(qmin),
            f64::from_bits(qmax),
            qcount,
            qnf,
            buckets,
        )?;
        Ok(MetricSketch { summary, quantiles })
    }

    fn expect(line: &str, want: &str) -> Result<(), String> {
        if line == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, got {line:?}"))
        }
    }

    /// Strip `"<key> "` from the line.
    fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| format!("expected field {key:?}, got {line:?}"))
    }

    /// Split a leading quoted name off the line (names never contain
    /// quotes; [`SweepJob::to_config`] enforces it for tags and the
    /// catalogs guarantee it for site/constellation names).
    pub(super) fn take_quoted(s: &str) -> Result<(String, &str), String> {
        let s = s.strip_prefix('"').ok_or("expected opening quote")?;
        let end = s.find('"').ok_or("missing closing quote")?;
        Ok((s[..end].to_string(), s[end + 1..].trim_start()))
    }

    fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.trim().parse().map_err(|_| format!("bad number {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_job(tag: &str, seed: u64) -> SweepJob {
        // One site, one small constellation, a fraction of a day: fast
        // enough for unit tests while still exercising real passes.
        SweepJob::new(tag, seed)
            .with_max_days(0.4)
            .with_sites(["HK"])
            .with_constellations(["FOSSA"])
    }

    #[test]
    fn job_validation_rejects_bad_specs() {
        let assert_invalid = |job: SweepJob| {
            assert!(job.to_config().is_err(), "{job:?} should be rejected");
        };
        assert_invalid(SweepJob::new("", 1));
        assert_invalid(SweepJob::new("tab\tchar", 1));
        assert_invalid(SweepJob::new("quo\"te", 1));
        assert_invalid(SweepJob::new("ok", 1).with_max_days(f64::NAN));
        assert_invalid(SweepJob::new("ok", 1).with_max_days(0.0));
        assert_invalid(SweepJob::new("ok", 1).with_sites(["ATLANTIS"]));
        assert_invalid(SweepJob::new("ok", 1).with_sites(["HK", "HK"]));
        assert_invalid(SweepJob::new("ok", 1).with_constellations(["IRIDIUM_NEXT_XXL"]));
        assert!(quick_job("ok", 1).to_config().is_ok());
    }

    #[test]
    fn job_selection_is_order_independent() {
        let a = SweepJob::new("a", 1)
            .with_sites(["HK", "SH"])
            .to_config()
            .unwrap();
        let b = SweepJob::new("b", 1)
            .with_sites(["SH", "HK"])
            .to_config()
            .unwrap();
        let codes = |cfg: &PassiveConfig| cfg.sites.iter().map(|s| s.code).collect::<Vec<_>>();
        assert_eq!(codes(&a), codes(&b), "catalog order must win");
        assert_eq!(a.sites.len(), 2);
    }

    #[test]
    fn fingerprints_separate_every_spec_dimension() {
        let base = quick_job("t", 1);
        let variants = [
            quick_job("u", 1),
            quick_job("t", 2),
            quick_job("t", 1).with_max_days(0.5),
            quick_job("t", 1).with_scheduler(SchedulerKind::Vanilla { dwell_s: 60.0 }),
            quick_job("t", 1).with_sites(["SH"]),
            quick_job("t", 1).with_constellations(["PICO"]),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
            assert!(!base.same_spec(v), "{v:?}");
        }
        assert_eq!(base.fingerprint(), quick_job("t", 1).fingerprint());
    }

    #[test]
    fn checkpoint_codec_round_trips_bit_exactly() {
        let job = quick_job("codec", 11);
        let outcome = SweepServer::new(RunOptions::default())
            .run(std::slice::from_ref(&job))
            .unwrap();
        let record = &outcome.records[0];
        assert!(record.sketch.is_some(), "aggregate sink must sketch");
        let text = codec::encode(record);
        let decoded = codec::decode(&text, &job).expect("round trip");
        assert!(decoded.resumed);
        assert!(decoded.same_results(record));
        // Full equality too, once provenance is aligned.
        let mut aligned = decoded.clone();
        aligned.resumed = false;
        assert_eq!(&aligned, record);

        // Any flipped byte in the body must be rejected by checksum.
        let mut corrupt = text.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] = corrupt[mid].wrapping_add(1);
        let corrupt = String::from_utf8_lossy(&corrupt).into_owned();
        assert!(codec::decode(&corrupt, &job).is_err());
        // A checkpoint for one job never loads for another.
        assert!(codec::decode(&text, &quick_job("codec", 12)).is_err());
    }

    #[test]
    fn kill_free_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("satiot_sweep_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs: Vec<SweepJob> = (0..3)
            .map(|i| quick_job(&format!("res-{i}"), 70 + i))
            .collect();
        let server = SweepServer::new(RunOptions::default()).with_spill_dir(Some(&dir));

        let cold = server.run(&jobs).unwrap();
        assert_eq!(cold.jobs_run, 3);
        assert_eq!(cold.jobs_resumed, 0);

        // Second run: everything resumes, nothing re-executes, results
        // identical bit for bit.
        let resumed = server.run(&jobs).unwrap();
        assert_eq!(resumed.jobs_run, 0);
        assert_eq!(resumed.jobs_resumed, 3);
        assert!(resumed.same_results(&cold));

        // Drop one checkpoint: exactly that job re-runs, results still
        // identical.
        std::fs::remove_file(checkpoint_path(&dir, &jobs[1])).unwrap();
        let partial = server.run(&jobs).unwrap();
        assert_eq!(partial.jobs_run, 1);
        assert_eq!(partial.jobs_resumed, 2);
        assert!(partial.same_results(&cold));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_partition_the_queue_and_merge_exactly() {
        let jobs: Vec<SweepJob> = (0..4)
            .map(|i| quick_job(&format!("shard-{i}"), 90 + i))
            .collect();
        let whole = SweepServer::new(RunOptions::default()).run(&jobs).unwrap();
        let shard0 = SweepServer::new(RunOptions::default())
            .with_shard(Some((0, 2)))
            .run(&jobs)
            .unwrap();
        let shard1 = SweepServer::new(RunOptions::default())
            .with_shard(Some((1, 2)))
            .run(&jobs)
            .unwrap();
        assert_eq!(shard0.records.len(), 2);
        assert_eq!(shard0.jobs_skipped, 2);
        assert_eq!(shard1.records.len(), 2);
        // Round-robin assignment.
        assert_eq!(shard0.records[0].job.tag, "shard-0");
        assert_eq!(shard1.records[0].job.tag, "shard-1");
        // The shards' merged sketches fold into the whole-queue result
        // exactly (merge is associative and commutative on counts).
        let mut folded = TraceAggregate::new();
        for r in shard0.records.iter().chain(&shard1.records) {
            folded.merge(r.sketch.as_ref().unwrap());
        }
        assert_eq!(folded.total, whole.merged.total);
        // Per-record results match the whole-queue run job for job.
        for r in shard0.records.iter().chain(&shard1.records) {
            let whole_r = whole
                .records
                .iter()
                .find(|w| w.fingerprint == r.fingerprint)
                .unwrap();
            assert!(r.same_results(whole_r));
        }
    }

    #[test]
    fn duplicate_jobs_and_bad_shards_are_rejected() {
        let job = quick_job("dup", 5);
        let err = SweepServer::new(RunOptions::default())
            .run(&[job.clone(), job.clone()])
            .unwrap_err();
        assert!(matches!(err, SatIotError::InvalidName { .. }), "{err:?}");
        let err = SweepServer::new(RunOptions::default())
            .with_shard(Some((2, 2)))
            .run(std::slice::from_ref(&job))
            .unwrap_err();
        assert!(matches!(err, SatIotError::InvalidConfig { .. }), "{err:?}");
    }
}
