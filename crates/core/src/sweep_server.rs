//! Campaign-as-a-service: the resumable sweep driver.
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
//!   stream into mergeable sketches ([`TraceAggregate`]'s exact merge
//!   law), so sweep memory is O(jobs' summaries), never O(traces).
//!   After each job the server releases what an earlier job of its
//!   queue read and that job did not
//!   ([`crate::sweep::release_read_between`]), so a sweep over disjoint
//!   windows holds one job's predictions, while one whose jobs share
//!   their windows releases nothing.
//! * **Checkpoint/resume.** A job is a [`ScenarioSpec`] named by its
//!   tag, plus a 64-bit seed. With a spill directory configured, each
//!   completed job is written to `<dir>/<fingerprint>.ckpt` (atomic
//!   rename), where the fingerprint is FNV-1a over the job section: the
//!   seed, a line naming the ephemeris lattice (step and interpolant
//!   degree, from `satiot_orbit::ephemeris`), and the scenario's
//!   canonical JSON. The file embeds that section verbatim, and a
//!   resumed sweep compares it as text, so a file written on another
//!   lattice is never resumed.
//!   The result section — root RNG stream position, counts, cache
//!   attribution, per-constellation outcomes and sketch — is written
//!   down once, as one walk over a [`JobRecord`] that drives both a
//!   line writer and a line reader. A killed sweep resumes by
//!   reloading completed jobs and re-running only the rest, losing at
//!   most the in-flight job; because every job's results are a pure
//!   function of its spec, the resumed outcome is bit-identical to an
//!   uninterrupted run (the `satiot-bench` `sweep_kill_resume` test
//!   SIGKILLs a live sweep worker to prove it). Floats round-trip
//!   through their exact bit patterns, and an FNV-1a content checksum
//!   rejects torn or stale files. The [`SweepOutcome`] counts the jobs
//!   run and resumed and the checkpoints written and rejected.
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
use satiot_measure::sketch::{ConstellationSketch, MetricSketch, QuantileSketch, TraceAggregate};
use satiot_orbit::ephemeris::{HERMITE_DEGREE, STEP_S};
use satiot_scenarios::constellations::all_constellations;
use satiot_scenarios::sites::measurement_sites;
use satiot_scenarios::{ConstellationRef, ScenarioSpec, SiteRef};
use satiot_sim::rng::{fnv1a, Rng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// One campaign job in a sweep queue: a passive-campaign scenario named
/// by the tag, plus the seed that drives it. The scenario supplies the
/// job's validation and resolution ([`Self::to_config`]), its identity
/// ([`Self::fingerprint`]) and its checkpoint's job section.
///
/// Empty site and constellation selections mean "all of the paper's
/// catalog"; non-empty ones select by site code / constellation label.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// Human-readable label and the scenario's name, carried through
    /// records and checkpoints ([`ScenarioSpec::validate`]'s name rule
    /// applies).
    pub tag: String,
    /// Root campaign seed; every stochastic stream derives from it. It
    /// stays outside the scenario, whose seed must be below 2^53.
    pub seed: u64,
    /// The campaign: day cap, scheduler, site and constellation
    /// selections. [`Self::scenario`] names it by the tag.
    spec: ScenarioSpec,
}

impl SweepJob {
    /// A job over the full catalog with the default scheduler and a
    /// one-day cap (builders refine from there).
    pub fn new(tag: impl Into<String>, seed: u64) -> SweepJob {
        SweepJob {
            tag: tag.into(),
            seed,
            spec: ScenarioSpec {
                max_days: Some(1.0),
                scheduler: Some(SchedulerKind::Predictive),
                ..ScenarioSpec::default()
            },
        }
    }

    /// Override the per-site day cap.
    pub fn with_max_days(mut self, days: f64) -> SweepJob {
        self.spec.max_days = Some(days);
        self
    }

    /// Override the scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> SweepJob {
        self.spec.scheduler = Some(scheduler);
        self
    }

    /// Select sites by code (empty = all).
    pub fn with_sites<S: Into<String>>(mut self, codes: impl IntoIterator<Item = S>) -> SweepJob {
        self.spec.sites = codes
            .into_iter()
            .map(|c| SiteRef::Named(c.into()))
            .collect();
        self
    }

    /// Select constellations by label (empty = all).
    pub fn with_constellations<S: Into<String>>(
        mut self,
        labels: impl IntoIterator<Item = S>,
    ) -> SweepJob {
        self.spec.constellations = labels
            .into_iter()
            .map(|l| ConstellationRef::Named(l.into()))
            .collect();
        self
    }

    /// The job's scenario, named by its tag.
    fn scenario(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: self.tag.clone(),
            ..self.spec.clone()
        }
    }

    /// The job's identity: FNV-1a 64 over its checkpoint job section —
    /// the seed, the ephemeris lattice and the scenario's canonical
    /// JSON. Checkpoint files are named by it.
    pub fn fingerprint(&self) -> u64 {
        JobId::of(self).fingerprint
    }

    /// Resolve the job's scenario through [`ScenarioSpec::build`], the
    /// scenario front door. The seed is set afterwards (job seeds may
    /// exceed a scenario seed's 2^53 bound), and sites and
    /// constellations are sorted into catalog order, so results do not
    /// depend on the order the selections list them in (the
    /// fingerprint does).
    ///
    /// # Errors
    ///
    /// [`SatIotError::InvalidName`] on a `scenario` field: a tag that
    /// breaks the scenario name rule, an unknown or duplicated site or
    /// constellation, an unusable day cap or vanilla dwell. So
    /// [`SweepServer::run`] rejects all of them before any job runs.
    pub fn to_config(&self) -> Result<PassiveConfig, SatIotError> {
        let mut cfg = PassiveConfig::from_scenario(&self.scenario().build()?);
        cfg.seed = self.seed;
        let (sites, constellations) = (measurement_sites(), all_constellations());
        cfg.sites
            .sort_by_key(|s| sites.iter().position(|c| c.code == s.code));
        cfg.constellations
            .sort_by_key(|s| constellations.iter().position(|c| c.name == s.name));
        Ok(cfg)
    }
}

/// A job's identity, computed once per sweep.
struct JobId {
    /// The checkpoint's job section: the seed line, the ephemeris line
    /// ([`ephemeris_line`]), then the job scenario's canonical JSON. It
    /// identifies the job and the lattice its passes came from exactly.
    section: String,
    /// FNV-1a over `section`: [`SweepJob::fingerprint`].
    fingerprint: u64,
}

impl JobId {
    fn of(job: &SweepJob) -> JobId {
        let section = format!(
            "seed {}\n{}\n{}\n",
            job.seed,
            ephemeris_line(),
            job.scenario().to_json()
        );
        JobId {
            fingerprint: fnv1a(section.as_bytes()),
            section,
        }
    }

    /// The job's checkpoint file in `dir`.
    fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{:016x}.ckpt", self.fingerprint))
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
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// uninterrupted run" relation the kill-and-resume test asserts.
    pub fn same_results(&self, other: &JobRecord) -> bool {
        self.job == other.job
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
    /// Per-job records, in queue order.
    pub records: Vec<JobRecord>,
    /// All job sketches merged through the exact sketch merge law.
    pub merged: TraceAggregate,
    /// Jobs executed end-to-end.
    pub jobs_run: usize,
    /// Jobs reloaded from checkpoints.
    pub jobs_resumed: usize,
    /// Checkpoints written for the jobs run.
    pub checkpoints_written: usize,
    /// Checkpoints found but rejected (corrupt, torn, or for a
    /// different spec); their jobs re-ran.
    pub checkpoints_rejected: usize,
}

impl SweepOutcome {
    /// Whether two outcomes carry bit-identical results (see
    /// [`JobRecord::same_results`]; `merged` is covered by exact
    /// equality, run/resume and checkpoint tallies are provenance and
    /// ignored).
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
    /// The [`sweep::read_mark`] taken before the server's first executed
    /// job, over all its [`Self::run`] calls: entries last read before
    /// it were read outside the server's queue, and stay.
    first_mark: OnceLock<u64>,
}

impl SweepServer {
    /// A server honouring `opts`, including its `SATIOT_SWEEP_DIR` knob.
    pub fn new(opts: RunOptions) -> SweepServer {
        SweepServer {
            opts,
            spill_dir: opts.sweep_dir.map(PathBuf::from),
            first_mark: OnceLock::new(),
        }
    }

    /// Override the checkpoint directory.
    pub fn with_spill_dir(mut self, dir: Option<&Path>) -> SweepServer {
        self.spill_dir = dir.map(Path::to_path_buf);
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
    /// duplicate fingerprint ([`SatIotError::InvalidName`]), or a
    /// campaign failure from an executed job.
    pub fn run(&self, jobs: &[SweepJob]) -> Result<SweepOutcome, SatIotError> {
        let mut resolved = Vec::with_capacity(jobs.len());
        let mut seen = HashSet::with_capacity(jobs.len());
        for job in jobs {
            let config = job.to_config()?;
            let id = JobId::of(job);
            if !seen.insert(id.fingerprint) {
                return Err(SatIotError::InvalidName {
                    field: "SweepJob (duplicate fingerprint)",
                    name: job.tag.clone(),
                    suggestion: None,
                });
            }
            resolved.push((id, config));
        }
        if let Some(dir) = &self.spill_dir {
            std::fs::create_dir_all(dir).map_err(|_| SatIotError::InvalidName {
                field: "SweepServer.spill_dir",
                name: dir.display().to_string(),
                suggestion: None,
            })?;
        }

        // Partition the queue: resumable jobs, pending jobs.
        let mut outcome = SweepOutcome::default();
        let mut slots: Vec<Option<JobRecord>> = Vec::with_capacity(jobs.len());
        let mut pending = Vec::new();
        for (job, (id, config)) in jobs.iter().zip(resolved) {
            let resumed = match self.load_checkpoint(job, &id) {
                Some(Ok(record)) => Some(record),
                Some(Err(_)) => {
                    outcome.checkpoints_rejected += 1;
                    None
                }
                None => None,
            };
            if resumed.is_some() {
                outcome.jobs_resumed += 1;
            } else {
                pending.push((slots.len(), job, id, config));
            }
            slots.push(resumed);
        }

        // Execute the pending jobs, checkpointing each, then releasing
        // what the server's earlier jobs read and this one did not.
        for (slot, job, id, config) in pending {
            let mark = sweep::read_mark();
            let first = *self.first_mark.get_or_init(|| mark);
            let record = self.execute(job, &id, config)?;
            outcome.jobs_run += 1;
            if self.write_checkpoint(&record, &id) {
                outcome.checkpoints_written += 1;
            }
            sweep::release_read_between(first, mark);
            slots[slot] = Some(record);
        }

        outcome.records = slots.into_iter().flatten().collect();
        for record in &outcome.records {
            if let Some(sketch) = &record.sketch {
                outcome.merged.merge(sketch);
            }
        }
        Ok(outcome)
    }

    /// Execute one job end-to-end, on its config as [`Self::run`]
    /// resolved it.
    fn execute(
        &self,
        job: &SweepJob,
        id: &JobId,
        config: PassiveConfig,
    ) -> Result<JobRecord, SatIotError> {
        let (pass_before, grid_before) = (sweep::stats(), sweep::grid_stats());
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
            fingerprint: id.fingerprint,
            rng_state: Rng::from_seed(job.seed).state(),
            resumed: false,
            traces_total: results.sink.emitted,
            emitted: results.sink.emitted,
            faults: results.faults.total(),
            constellations,
            cache,
            sketch: results.sketch.clone(),
        };
        Ok(record)
    }

    /// Load `job`'s checkpoint: `None` when there is no file, `Err` when
    /// one exists but fails to verify. Any mismatch — checksum, job
    /// section, or RNG stream position — rejects the file and the job
    /// re-runs.
    fn load_checkpoint(&self, job: &SweepJob, id: &JobId) -> Option<Result<JobRecord, String>> {
        let dir = self.spill_dir.as_ref()?;
        let text = std::fs::read_to_string(id.path(dir)).ok()?;
        Some(codec::decode(&text, job, id))
    }

    /// Write `record`'s checkpoint atomically (tmp + rename), so a kill
    /// mid-write leaves either the old file or none — never a torn one.
    /// Returns whether a checkpoint was written: a failure degrades to
    /// "no checkpoint" (the job simply re-runs on resume) rather than
    /// failing the sweep.
    fn write_checkpoint(&self, record: &JobRecord, id: &JobId) -> bool {
        let Some(dir) = &self.spill_dir else {
            return false;
        };
        let Ok(text) = codec::encode(record, &id.section) else {
            return false;
        };
        let path = id.path(dir);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok()
    }
}

/// The job section's ephemeris line: the lattice step and the degree of
/// the interpolant every pass list is computed on. Both come from
/// `satiot_orbit::ephemeris`'s constants, so a build on another lattice
/// names another file and never resumes this one's results.
fn ephemeris_line() -> String {
    format!("ephemeris lattice {STEP_S} s, Hermite degree {HERMITE_DEGREE}")
}

// ---------------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------------

/// The std-only line-oriented checkpoint codec.
///
/// A checkpoint is the magic line, the job section (`JobId::section`),
/// the result section and a checksum line: FNV-1a over everything above
/// it, so torn or hand-edited files fail to load and the job re-runs.
/// The result section is written down once, in `walk`: the `Writer`
/// prints each line from a record's fields and the `Reader` parses each
/// line into them. Every float is stored as its exact `f64::to_bits`
/// word, so a decoded record is *bit-identical* to the encoded one —
/// the property the whole resume contract stands on.
mod codec {
    use super::*;
    use std::fmt::Write as _;
    use std::str::FromStr;

    /// The first line: the format and its version.
    const MAGIC: &str = "satiot-sweep-checkpoint v2\n";

    /// Encode `record`, whose job section is `section`. Fails only if
    /// the record contradicts itself (an RNG position that is not its
    /// seed's, or a sketch [`QuantileSketch::from_parts`] rejects).
    pub(super) fn encode(record: &JobRecord, section: &str) -> Result<String, String> {
        let mut writer = Writer(format!("{MAGIC}{section}"));
        walk(&mut writer, &mut record.clone())?;
        let mut out = writer.0;
        let checksum = fnv1a(out.as_bytes());
        let _ = writeln!(out, "checksum {checksum:016x}");
        Ok(out)
    }

    /// Decode `job`'s checkpoint. The checks run in order: the
    /// checksum, the job section (compared as text), the RNG stream
    /// position, then every result line and the rebuilt sketches; a
    /// line after the last one rejects the file too.
    pub(super) fn decode(text: &str, job: &SweepJob, id: &JobId) -> Result<JobRecord, String> {
        // Everything up to the final line must hash to the value that
        // line carries.
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
        if fnv1a(body.as_bytes()) != claimed {
            return Err("checksum mismatch".to_string());
        }
        let results = body
            .strip_prefix(MAGIC)
            .ok_or("not a v2 sweep checkpoint")?
            .strip_prefix(id.section.as_str())
            .ok_or("checkpoint is for a different job spec")?;

        let mut record = JobRecord {
            job: job.clone(),
            fingerprint: id.fingerprint,
            rng_state: [0; 4],
            resumed: true,
            traces_total: 0,
            emitted: 0,
            faults: 0,
            constellations: Vec::new(),
            cache: CacheAttribution::default(),
            sketch: None,
        };
        let mut reader = Reader(results.lines());
        walk(&mut reader, &mut record)?;
        match reader.0.next() {
            None => Ok(record),
            Some(line) => Err(format!("unexpected line {line:?}")),
        }
    }

    /// The result section in file order. The writer reads each line's
    /// words from `r`; the reader, starting from an empty record, parses
    /// them into it. Both directions check that the RNG position is the
    /// seed's: the reader so a stale file is rejected, the writer so
    /// none is ever written.
    fn walk(l: &mut impl Lines, r: &mut JobRecord) -> Result<(), String> {
        let [a, b, c, d] = &mut r.rng_state;
        l.line("rng", &mut [a, b, c, d])?;
        if r.rng_state != Rng::from_seed(r.job.seed).state() {
            return Err("rng stream position mismatch (stale build?)".to_string());
        }
        l.line("traces", &mut [&mut r.traces_total])?;
        l.line("emitted", &mut [&mut r.emitted])?;
        l.line("faults", &mut [&mut r.faults])?;
        let c = &mut r.cache;
        l.line(
            "cache",
            &mut [
                &mut c.pass_lookups,
                &mut c.pass_computes,
                &mut c.grid_lookups,
                &mut c.grid_computes,
            ],
        )?;
        let mut n = r.constellations.len() as u64;
        l.line("outcomes", &mut [&mut n])?;
        items(l, n, &mut r.constellations, Default::default, |l, o| {
            l.line(
                "o",
                &mut [
                    &mut o.constellation,
                    &mut o.received,
                    &mut o.transmitted,
                    &mut o.covered_passes,
                    &mut o.effective_min_mean,
                ],
            )
        })?;
        let mut present = u64::from(r.sketch.is_some());
        l.line("sketch", &mut [&mut present])?;
        r.sketch = match present {
            0 => None,
            1 => Some(aggregate(l, r.sketch.take().unwrap_or_default())?),
            _ => return Err(format!("bad sketch flag {present}")),
        };
        Ok(())
    }

    fn aggregate<L: Lines>(l: &mut L, mut a: TraceAggregate) -> Result<TraceAggregate, String> {
        l.line("total", &mut [&mut a.total])?;
        let mut n = a.groups.len() as u64;
        l.line("groups", &mut [&mut n])?;
        items(l, n, &mut a.groups, blank_group, |l, g| {
            l.line("g", &mut [&mut g.constellation, &mut g.count])?;
            let mut n = g.sites.len() as u64;
            l.line("gsites", &mut [&mut n])?;
            items(l, n, &mut g.sites, Default::default, |l, (site, n)| {
                l.line("gs", &mut [site, n])
            })?;
            metric(l, "m rssi", &mut g.rssi_dbm)?;
            metric(l, "m snr", &mut g.snr_db)?;
            metric(l, "m dist", &mut g.distance_km)?;
            metric(l, "m elev", &mut g.elevation_deg)
        })?;
        Ok(a)
    }

    /// A metric's summary line, then its quantile sketch: a head line
    /// and one line per bucket, rebuilt (and so validated) through
    /// [`QuantileSketch::from_parts`].
    fn metric<L: Lines>(l: &mut L, key: &str, m: &mut MetricSketch) -> Result<(), String> {
        let s = &mut m.summary;
        l.line(
            key,
            &mut [
                &mut s.count,
                &mut s.mean,
                &mut s.m2,
                &mut s.min,
                &mut s.max,
                &mut s.non_finite_dropped,
            ],
        )?;
        let q = &m.quantiles;
        let (mut width, mut min, mut max) = (q.width(), q.min(), q.max());
        let (mut count, mut dropped) = (q.count(), q.non_finite_dropped);
        let mut buckets: Vec<(i64, u64)> = q.bucket_iter().collect();
        let mut n = buckets.len() as u64;
        l.line(
            "q",
            &mut [
                &mut width,
                &mut min,
                &mut max,
                &mut count,
                &mut dropped,
                &mut n,
            ],
        )?;
        items(l, n, &mut buckets, Default::default, |l, (k, n)| {
            l.line("b", &mut [k, n])
        })?;
        m.quantiles = QuantileSketch::from_parts(width, min, max, count, dropped, buckets)?;
        Ok(())
    }

    /// Walk the `n` items of a list whose length the line before stated.
    /// The writer's `n` is `items.len()`; the reader starts from an
    /// empty list and adds each item just before parsing it, so a forged
    /// length fails at the end of the file, not in the allocator.
    fn items<L: Lines, T>(
        l: &mut L,
        n: u64,
        items: &mut Vec<T>,
        fresh: fn() -> T,
        mut each: impl FnMut(&mut L, &mut T) -> Result<(), String>,
    ) -> Result<(), String> {
        let n = usize::try_from(n).map_err(|_| format!("bad length {n}"))?;
        for i in 0..n {
            if i == items.len() {
                items.push(fresh());
            }
            each(l, &mut items[i])?;
        }
        Ok(())
    }

    /// A group for the reader to parse into; every field is overwritten.
    fn blank_group() -> ConstellationSketch {
        let blank = || MetricSketch::new(1.0);
        ConstellationSketch {
            constellation: String::new(),
            count: 0,
            rssi_dbm: blank(),
            snr_db: blank(),
            distance_km: blank(),
            elevation_deg: blank(),
            sites: Vec::new(),
        }
    }

    /// One direction over lines of the form `key word…`.
    trait Lines {
        /// Write the line from `words`, or read it into them.
        fn line(&mut self, key: &str, words: &mut [&mut dyn Word]) -> Result<(), String>;
    }

    /// Prints each line.
    struct Writer(String);

    impl Lines for Writer {
        fn line(&mut self, key: &str, words: &mut [&mut dyn Word]) -> Result<(), String> {
            self.0.push_str(key);
            for w in words {
                self.0.push(' ');
                w.put(&mut self.0);
            }
            self.0.push('\n');
            Ok(())
        }
    }

    /// Parses each line.
    struct Reader<'a>(std::str::Lines<'a>);

    impl Lines for Reader<'_> {
        fn line(&mut self, key: &str, words: &mut [&mut dyn Word]) -> Result<(), String> {
            let line = self.0.next().ok_or("truncated checkpoint")?;
            let mut rest = line
                .strip_prefix(key)
                .ok_or_else(|| format!("expected {key:?}, got {line:?}"))?;
            for w in words {
                rest = rest
                    .strip_prefix(' ')
                    .ok_or_else(|| format!("short line {line:?}"))?;
                rest = w.take(rest)?;
            }
            if rest.is_empty() {
                Ok(())
            } else {
                Err(format!("long line {line:?}"))
            }
        }
    }

    /// One value on a line.
    trait Word {
        /// Append the value's text.
        fn put(&self, out: &mut String);
        /// Parse the value off the front of `s`; return the rest.
        fn take<'a>(&mut self, s: &'a str) -> Result<&'a str, String>;
    }

    /// Integers are decimals; bucket keys are signed.
    trait Decimal: std::fmt::Display + FromStr {}
    impl Decimal for u64 {}
    impl Decimal for i64 {}

    impl<T: Decimal> Word for T {
        fn put(&self, out: &mut String) {
            let _ = write!(out, "{self}");
        }
        fn take<'a>(&mut self, s: &'a str) -> Result<&'a str, String> {
            let (token, rest) = s.split_at(s.find(' ').unwrap_or(s.len()));
            *self = token.parse().map_err(|_| format!("bad number {token:?}"))?;
            Ok(rest)
        }
    }

    /// Floats are their exact `to_bits` words.
    impl Word for f64 {
        fn put(&self, out: &mut String) {
            self.to_bits().put(out);
        }
        fn take<'a>(&mut self, s: &'a str) -> Result<&'a str, String> {
            let mut bits = 0u64;
            let rest = bits.take(s)?;
            *self = f64::from_bits(bits);
            Ok(rest)
        }
    }

    /// Names are quoted. They are the constellation labels and site
    /// codes of catalog entries (a job selects nothing else), and none
    /// contains a quote.
    impl Word for String {
        fn put(&self, out: &mut String) {
            let _ = write!(out, "\"{self}\"");
        }
        fn take<'a>(&mut self, s: &'a str) -> Result<&'a str, String> {
            let s = s.strip_prefix('"').ok_or("expected opening quote")?;
            let (name, rest) = s.split_once('"').ok_or("missing closing quote")?;
            *self = name.to_string();
            Ok(rest)
        }
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
            let err = job.to_config().expect_err("a bad job resolves");
            assert!(matches!(err, SatIotError::InvalidName { .. }), "{err:?}");
        };
        assert_invalid(SweepJob::new("", 1));
        assert_invalid(SweepJob::new("tab\tchar", 1));
        assert_invalid(SweepJob::new("quo\"te", 1));
        assert_invalid(SweepJob::new("ok", 1).with_max_days(f64::NAN));
        assert_invalid(SweepJob::new("ok", 1).with_max_days(0.0));
        assert_invalid(SweepJob::new("ok", 1).with_sites(["ATLANTIS"]));
        assert_invalid(SweepJob::new("ok", 1).with_sites(["HK", "HK"]));
        assert_invalid(SweepJob::new("ok", 1).with_constellations(["IRIDIUM_NEXT_XXL"]));
        assert_invalid(
            SweepJob::new("ok", 1).with_scheduler(SchedulerKind::Vanilla { dwell_s: 0.0 }),
        );
        assert!(quick_job("ok", 1).to_config().is_ok());
    }

    #[test]
    fn job_selection_is_order_independent() {
        let a = SweepJob::new("a", 1)
            .with_sites(["HK", "SH"])
            .with_constellations(["PICO", "FOSSA"])
            .to_config()
            .unwrap();
        let b = SweepJob::new("b", 1)
            .with_sites(["SH", "HK"])
            .with_constellations(["FOSSA", "PICO"])
            .to_config()
            .unwrap();
        let names = |cfg: &PassiveConfig| {
            let codes = cfg.sites.iter().map(|s| s.code);
            codes
                .chain(cfg.constellations.iter().map(|c| c.name))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b), "catalog order must win");
        assert_eq!(names(&a).len(), 4);
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
            assert_ne!(&base, v);
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
        let id = JobId::of(&job);
        let text = codec::encode(record, &id.section).expect("encode");
        let decoded = codec::decode(&text, &job, &id).expect("round trip");
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
        assert!(codec::decode(&corrupt, &job, &id).is_err());
        // A checkpoint for one job never loads for another.
        let other = quick_job("codec", 12);
        assert!(codec::decode(&text, &other, &JobId::of(&other)).is_err());
    }

    #[test]
    fn resealed_checkpoint_edits_fail_to_parse() {
        // Edits behind a valid checksum reach the result parser, which
        // must reject them on its own.
        let job = quick_job("reseal", 11);
        let id = JobId::of(&job);
        let outcome = SweepServer::new(RunOptions::default())
            .run(std::slice::from_ref(&job))
            .unwrap();
        let text = codec::encode(&outcome.records[0], &id.section).expect("encode");
        let seal = |lines: &[String]| {
            let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let checksum = fnv1a(body.as_bytes());
            format!("{body}checksum {checksum:016x}\n")
        };
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.pop(); // the old checksum
        assert_eq!(seal(&lines), text);
        assert!(codec::decode(&seal(&lines), &job, &id).is_ok());

        let bucket = lines
            .iter()
            .position(|l| l.starts_with("b "))
            .expect("a sketched bucket");
        let (key, count) = lines[bucket][2..].split_once(' ').unwrap();
        let mut recounted = lines.clone();
        recounted[bucket] = format!("b {key} {}", count.parse::<u64>().unwrap() + 1);
        let mut dropped = lines.clone();
        dropped.remove(bucket);
        let mut appended = lines.clone();
        appended.push("faults 0".to_string());
        for edited in [recounted, dropped, appended] {
            let err = codec::decode(&seal(&edited), &job, &id).expect_err("edited record parses");
            assert_ne!(err, "checksum mismatch");
        }
    }

    /// The job section names the ephemeris lattice, so a checkpoint
    /// written on another lattice — here a 60 s cubic one, sealed with a
    /// valid checksum at this job's path — is rejected and the job
    /// re-runs rather than resuming passes this lattice does not
    /// produce.
    #[test]
    fn checkpoints_name_the_ephemeris_lattice() {
        let job = quick_job("lattice", 13);
        let id = JobId::of(&job);
        let line = format!("ephemeris lattice {STEP_S} s, Hermite degree {HERMITE_DEGREE}");
        assert!(id.section.lines().any(|l| l == line), "{}", id.section);

        let dir = std::env::temp_dir().join(format!("satiot_lattice_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = SweepServer::new(RunOptions::default()).with_spill_dir(Some(&dir));
        let cold = server.run(std::slice::from_ref(&job)).unwrap();
        assert_eq!(cold.checkpoints_written, 1);
        let path = id.path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let (body, _) = text.rsplit_once("checksum ").unwrap();
        let other = body.replacen(&line, "ephemeris lattice 60 s, Hermite degree 3", 1);
        assert_ne!(other, body);
        let checksum = fnv1a(other.as_bytes());
        std::fs::write(&path, format!("{other}checksum {checksum:016x}\n")).unwrap();

        let rerun = server.run(std::slice::from_ref(&job)).unwrap();
        assert_eq!(rerun.checkpoints_rejected, 1);
        assert_eq!((rerun.jobs_run, rerun.jobs_resumed), (1, 0));
        assert!(rerun.same_results(&cold));
        // The re-run rewrote the file on this lattice, and it resumes.
        assert_eq!(rerun.checkpoints_written, 1);
        let resumed = server.run(std::slice::from_ref(&job)).unwrap();
        assert_eq!((resumed.jobs_run, resumed.jobs_resumed), (0, 1));
        assert!(resumed.same_results(&cold));
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(cold.checkpoints_written, 3);

        // Second run: everything resumes, nothing re-executes, results
        // identical bit for bit.
        let resumed = server.run(&jobs).unwrap();
        assert_eq!(resumed.jobs_run, 0);
        assert_eq!(resumed.jobs_resumed, 3);
        assert_eq!(resumed.checkpoints_written, 0);
        assert!(resumed.same_results(&cold));

        // Drop one checkpoint: exactly that job re-runs, results still
        // identical.
        std::fs::remove_file(JobId::of(&jobs[1]).path(&dir)).unwrap();
        let partial = server.run(&jobs).unwrap();
        assert_eq!(partial.jobs_run, 1);
        assert_eq!(partial.jobs_resumed, 2);
        assert_eq!(partial.checkpoints_rejected, 0);
        assert!(partial.same_results(&cold));

        // Corrupt one checkpoint: it is rejected, that job re-runs and
        // rewrites it, and results stay identical.
        std::fs::write(
            JobId::of(&jobs[2]).path(&dir),
            "satiot-sweep-checkpoint v2\n",
        )
        .unwrap();
        let healed = server.run(&jobs).unwrap();
        assert_eq!(healed.checkpoints_rejected, 1);
        assert_eq!(healed.jobs_run, 1);
        assert_eq!(healed.checkpoints_written, 1);
        assert!(healed.same_results(&cold));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_jobs_are_rejected() {
        let job = quick_job("dup", 5);
        let err = SweepServer::new(RunOptions::default())
            .run(&[job.clone(), job.clone()])
            .unwrap_err();
        assert!(matches!(err, SatIotError::InvalidName { .. }), "{err:?}");
    }
}
