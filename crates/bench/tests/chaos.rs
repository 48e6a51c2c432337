//! Seeded fault injection through the campaign pipeline: hundreds of
//! perturbed scenarios per seed must cause zero panics and
//! reproducible, thread-count-independent degradation accounting.
//! One-thread and pooled passive runs must report bit-identical
//! [`FaultLog`]s, and an active campaign replayed with the same damaged
//! config must degrade identically.
//!
//! Scenarios interleave five families:
//!
//! * passive configs perturbed (NaN day caps, emptied sites and
//!   constellations, poisoned site coordinates, zero-station sites,
//!   degenerate vanilla dwells), run serial *and* pooled;
//! * active configs perturbed (zero/NaN periods, out-of-range elevation
//!   masks, zero nodes/buffers/attempts), run twice for replay equality;
//! * terrestrial configs perturbed (zero/NaN periods and day counts,
//!   emptied or negative distance tables, out-of-range uptimes), run
//!   twice for replay equality of the clamp accounting;
//! * component-level damage fed straight to the scheduler, beacon
//!   sampler, and store-and-forward buffer;
//! * scenario-spec JSON perturbed (truncated mid-token, hostile keys
//!   injected, digits chewed, versions from the future): parsing must
//!   return a typed [`ScenarioError`] or a spec that round-trips and
//!   builds deterministically — and when the build yields a runnable
//!   campaign, serial and pooled replays must report bit-identical
//!   [`FaultLog`]s. Never a panic.
//!
//! Every failure names its seed, scenario index, family and the
//! mutations its plan applied; a failure reproduces by running this
//! test with [`SEEDS`] cut down to that seed. The test silences the
//! process-wide panic hook while the batch runs, so it is the only test
//! in this binary (one process per integration-test file).

use std::panic::{catch_unwind, AssertUnwindSafe};

use satiot_core::buffer::{DropPolicy, StoreAndForward};
use satiot_core::geometry::beacon_times;
use satiot_core::passive::sanitize_candidates;
use satiot_core::prelude::*;
use satiot_core::scheduler::{CandidatePass, PredictiveScheduler, Scheduler, VanillaScheduler};
use satiot_orbit::pass::Pass;
use satiot_orbit::time::JulianDate;
use satiot_scenarios::constellations::tianqi;
use satiot_scenarios::sites::measurement_sites;
use satiot_sim::chaos::{ChaosEngine, ChaosPlan, DEFAULT_SEED};
use satiot_terrestrial::{TerrestrialCampaign, TerrestrialConfig};

/// Root seeds replayed, each a batch of [`SCENARIOS`].
const SEEDS: [u64; 4] = [DEFAULT_SEED, 1, 2, 3];

/// Scenarios per seed (the robustness contract asks for ≥ 200).
const SCENARIOS: u64 = 300;

/// How one scenario ended, short of a panic.
enum Verdict {
    /// Ran to completion with a clean fault log.
    Clean,
    /// Ran to completion, degradation counted in the fault log.
    Degraded,
    /// Rejected up front with a typed error (consistently across runs).
    Rejected,
    /// Drivers or replays disagreed — a determinism bug.
    Mismatch(String),
}

/// Replay one seed's batch, returning one line per failure: a panic, a
/// mismatch, or a batch that never degraded or never rejected.
fn run_seed(seed: u64, opts: &RunOptions) -> Vec<String> {
    let engine = ChaosEngine::new(seed);
    let (mut degraded, mut rejected) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    for index in 0..SCENARIOS {
        let mut plan = engine.scenario(index);
        let family = match index % 5 {
            0 => "passive",
            1 => "active",
            2 => "terrestrial",
            3 => "component",
            _ => "scenario-spec",
        };
        let verdict = catch_unwind(AssertUnwindSafe(|| match index % 5 {
            0 => passive_scenario(&mut plan, opts),
            1 => active_scenario(&mut plan, opts),
            2 => terrestrial_scenario(&mut plan),
            3 => component_scenario(&mut plan),
            _ => scenario_spec_scenario(&mut plan, opts),
        }));
        let what = format!("seed {seed:#x} scenario {index} ({family})");
        match verdict {
            Ok(Verdict::Clean) => {}
            Ok(Verdict::Degraded) => degraded += 1,
            Ok(Verdict::Rejected) => rejected += 1,
            Ok(Verdict::Mismatch(why)) => failures.push(format!(
                "{what} mismatch: {why} — mutations {:?}",
                plan.applied()
            )),
            Err(_) => failures.push(format!("{what} PANICKED — mutations {:?}", plan.applied())),
        }
    }
    // A batch that never exercises the degraded or rejected paths is
    // not testing the contract.
    if degraded == 0 {
        failures.push(format!("seed {seed:#x}: no scenario degraded"));
    }
    if rejected == 0 {
        failures.push(format!("seed {seed:#x}: no scenario was rejected"));
    }
    failures
}

#[test]
fn seeded_chaos_never_panics_and_degrades_reproducibly() {
    let opts = RunOptions::default();

    // Expected-degenerate inputs only panic when the harness has found a
    // bug; silence the default hook so a failing batch reports its
    // scenarios instead of interleaved backtraces.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let failures: Vec<String> = SEEDS
        .iter()
        .flat_map(|&seed| run_seed(seed, &opts))
        .collect();
    std::panic::set_hook(default_hook);
    assert!(failures.is_empty(), "chaos failures:\n{failures:#?}");
}

/// Family 0: a perturbed passive campaign must run (or be rejected)
/// identically on one thread and on the pool.
fn passive_scenario(plan: &mut ChaosPlan, opts: &RunOptions) -> Verdict {
    let mut cfg = PassiveConfig {
        seed: plan.derived_seed(),
        max_days: 0.5,
        constellations: vec![tianqi()],
        ..Default::default()
    };

    let mut sites = measurement_sites();
    let mut site = sites.swap_remove(plan.index_in(sites.len()));
    if plan.chance(0.4) {
        // Only non-finite coordinate damage: the pass cache keys on the
        // site *code*, so a finite perturbation of a real site's
        // coordinates would poison cache entries shared with other
        // scenarios. Non-finite coordinates are skipped before
        // prediction, never cached.
        let lat = plan.corrupt_f64(site.lat_deg);
        if !lat.is_finite() {
            site.lat_deg = lat;
        }
    }
    if plan.chance(0.3) {
        site.station_count = plan.corrupt_count(site.station_count);
    }
    cfg.sites = vec![site];
    if plan.chance(0.1) {
        plan.note("sites=emptied");
        cfg.sites.clear();
    }
    if plan.chance(0.1) {
        plan.note("constellations=emptied");
        cfg.constellations.clear();
    }
    if plan.chance(0.5) {
        cfg.max_days = plan.corrupt_duration(cfg.max_days);
    }
    if plan.chance(0.25) {
        cfg.scheduler = SchedulerKind::Vanilla {
            dwell_s: plan.corrupt_duration(600.0),
        };
    }

    let campaign = PassiveCampaign::new(cfg);
    replay(
        "serial vs pooled",
        campaign.run(&opts.with_threads(Some(1))),
        campaign.run(opts),
        |r| &r.faults,
        |a, b| a.traces.len() == b.traces.len() && a.passes.len() == b.passes.len(),
    )
}

/// Two runs of one damaged input must agree: both accepted with `same`
/// outputs (yielding the first), or both rejected with one message.
/// Typed errors may carry NaN payloads (never `==`), so messages are
/// compared rendered.
fn agree<T, E: std::fmt::Display>(
    label: &str,
    a: Result<T, E>,
    b: Result<T, E>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<T, Verdict> {
    let describe = |r: &Result<T, E>| match r {
        Ok(_) => "Ok".to_string(),
        Err(e) => format!("Err({e})"),
    };
    match (a, b) {
        (Ok(a), Ok(b)) if same(&a, &b) => Ok(a),
        (Ok(_), Ok(_)) => Err(Verdict::Mismatch(format!("{label} diverged"))),
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Err(Verdict::Rejected),
        (a, b) => Err(Verdict::Mismatch(format!(
            "{label} disagree: {} vs {}",
            describe(&a),
            describe(&b)
        ))),
    }
}

/// The verdict on two campaign runs of one damaged input: they
/// [`agree`], fault logs included, and a clean log is `Clean`.
fn replay<T, E: std::fmt::Display>(
    label: &str,
    a: Result<T, E>,
    b: Result<T, E>,
    faults: fn(&T) -> &FaultLog,
    same: impl Fn(&T, &T) -> bool,
) -> Verdict {
    match agree(label, a, b, |x, y| faults(x) == faults(y) && same(x, y)) {
        Ok(r) if faults(&r).is_clean() => Verdict::Clean,
        Ok(_) => Verdict::Degraded,
        Err(verdict) => verdict,
    }
}

/// Family 1: a perturbed active campaign must either be rejected with a
/// typed error or run to completion — and a replay with the identical
/// config must degrade bit-identically.
fn active_scenario(plan: &mut ChaosPlan, opts: &RunOptions) -> Verdict {
    let mut cfg = ActiveConfig::quick(1.0);
    cfg.seed = plan.derived_seed();
    if plan.chance(0.5) {
        cfg.days = plan.corrupt_duration(cfg.days);
    }
    if plan.chance(0.4) {
        cfg.period_s = plan.corrupt_duration(cfg.period_s);
    }
    if plan.chance(0.4) {
        cfg.gs_mask_rad = plan.corrupt_elevation_rad(cfg.gs_mask_rad);
    }
    if plan.chance(0.3) {
        cfg.downlink_service_s = plan.corrupt_f64(cfg.downlink_service_s);
    }
    if plan.chance(0.3) {
        cfg.nodes = plan.corrupt_count(cfg.nodes);
    }
    if plan.chance(0.3) {
        cfg.buffer_capacity = plan.corrupt_count(cfg.buffer_capacity as u32) as usize;
    }
    if plan.chance(0.2) {
        cfg.max_attempts = plan.corrupt_count(cfg.max_attempts);
    }

    replay(
        "replays",
        ActiveCampaign::new(cfg.clone()).run(opts),
        ActiveCampaign::new(cfg).run(opts),
        |r| &r.faults,
        |a, b| a.timelines == b.timelines,
    )
}

/// Family 2: a perturbed terrestrial baseline must either be rejected
/// with a typed error (never a panic, never an infinite loop) or run to
/// completion — and a replay with the identical config must report a
/// bit-identical clamp [`FaultLog`] and packet record set.
fn terrestrial_scenario(plan: &mut ChaosPlan) -> Verdict {
    let mut cfg = TerrestrialConfig {
        days: 1.0,
        seed: plan.derived_seed(),
        ..Default::default()
    };
    if plan.chance(0.4) {
        cfg.days = plan.corrupt_duration(cfg.days);
    }
    if plan.chance(0.4) {
        cfg.period_s = plan.corrupt_duration(cfg.period_s);
    }
    if plan.chance(0.4) {
        // Out-of-range uptimes (negative, above 1, non-finite) must be
        // clamped-and-counted or typed-rejected, mirroring the passive
        // campaign's ground-station masks.
        cfg.gateway_uptime = plan.corrupt_f64(cfg.gateway_uptime);
    }
    if plan.chance(0.35) {
        let slot = plan.index_in(cfg.gateway_distance_km.len());
        cfg.gateway_distance_km[slot] = plan.corrupt_f64(cfg.gateway_distance_km[slot]);
    }
    if plan.chance(0.25) {
        cfg.gateway_distance_km = vec![-plan.corrupt_duration(1.0)];
        plan.note("distances=negated");
    }
    if plan.chance(0.1) {
        plan.note("distances=emptied");
        cfg.gateway_distance_km.clear();
    }
    if plan.chance(0.25) {
        cfg.gateways = plan.corrupt_count(cfg.gateways);
    }
    if plan.chance(0.25) {
        cfg.nodes = plan.corrupt_count(cfg.nodes);
    }

    replay(
        "replays",
        TerrestrialCampaign::new(cfg.clone()).run(),
        TerrestrialCampaign::new(cfg).run(),
        |r| &r.faults,
        |a, b| a.timelines == b.timelines,
    )
}

/// Family 4: scenario-spec JSON chaos. A builtin scenario's canonical
/// JSON is perturbed — truncated mid-token, hostile keys injected,
/// digits chewed, versions bumped into the future — and fed through
/// [`ScenarioSpec::from_json`]. Hostile text must yield a typed
/// [`ScenarioError`] (identically on replay); text that still parses
/// must round-trip to an identical spec with an identical fingerprint,
/// and a spec that builds into a runnable campaign must degrade with
/// bit-identical [`FaultLog`]s on one thread and on the pool.
fn scenario_spec_scenario(plan: &mut ChaosPlan, opts: &RunOptions) -> Verdict {
    let base = match plan.index_in(4) {
        0 => ScenarioSpec::tianqi_hk(),
        1 => ScenarioSpec::paper_passive(),
        2 => ScenarioSpec::disrupted_comms(),
        _ => ScenarioSpec::maritime_tracker(),
    };
    let mut text = base.to_json();
    if plan.chance(0.3) {
        // Truncate at an arbitrary char boundary — mid-token, mid-string.
        let mut cut = plan.index_in(text.len().max(1));
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
        plan.note("json=truncated");
    }
    if plan.chance(0.3) {
        if let Some(brace) = text.find('{') {
            text.insert_str(brace + 1, "\n  \"__hostile\": \"key\",");
            plan.note("json=hostile-key");
        }
    }
    if plan.chance(0.3) {
        // Chew one digit into a letter: breaks a number token, or turns
        // a quoted name into a different (unknown) one.
        let at = plan.index_in(text.len().max(1));
        if let Some((pos, c)) = text
            .char_indices()
            .skip(at.min(text.chars().count().saturating_sub(1)))
            .find(|(_, c)| c.is_ascii_digit())
        {
            text.replace_range(pos..pos + c.len_utf8(), "x");
            plan.note("json=digit-chewed");
        }
    }
    if plan.chance(0.2) {
        text = text.replacen("\"version\": 1", "\"version\": 99", 1);
        plan.note("json=future-version");
    }
    if plan.chance(0.2) {
        text = text.replacen(
            "\"scheduler\": \"predictive\"",
            "\"scheduler\": \"psychic\"",
            1,
        );
    }

    let same_spec =
        |a: &ScenarioSpec, b: &ScenarioSpec| a == b && a.fingerprint() == b.fingerprint();
    let parsed = agree(
        "parse replays",
        ScenarioSpec::from_json(&text),
        ScenarioSpec::from_json(&text),
        same_spec,
    );
    let spec = match parsed {
        Ok(spec) => spec,
        Err(verdict) => return verdict,
    };
    // Whatever survived the mutation must round-trip bitwise.
    match ScenarioSpec::from_json(&spec.to_json()) {
        Ok(rt) if rt == spec => {}
        Ok(_) => return Verdict::Mismatch("round-trip changed the spec".into()),
        Err(e) => return Verdict::Mismatch(format!("canonical JSON rejected: {e}")),
    }
    let resolved = match agree("build replays", spec.build(), spec.build(), |x, y| {
        x.fingerprint == y.fingerprint
    }) {
        Ok(resolved) => resolved,
        Err(verdict) => return verdict,
    };
    // A buildable scenario must also *run* deterministically. Shrink to
    // a quarter day first (catalog sites keep their canonical
    // coordinates, so the shared pass cache stays clean).
    let mut cfg = PassiveConfig::from_scenario(&resolved);
    cfg.max_days = 0.25;
    cfg.sites.truncate(1);
    cfg.constellations.truncate(1);
    let campaign = PassiveCampaign::new(cfg);
    replay(
        "serial vs pooled",
        campaign.run(&opts.with_threads(Some(1))),
        campaign.run(opts),
        |r| &r.faults,
        |_, _| true,
    )
}

/// Family 3: component-level damage — corrupted pass lists through
/// sanitisation and both schedulers, degenerate beacon sampling, and
/// zero/odd-capacity store-and-forward buffers.
fn component_scenario(plan: &mut ChaosPlan) -> Verdict {
    let epoch = JulianDate(2_460_000.0);
    let jd = |s: f64| epoch.plus_seconds(s);

    // A handful of hourly passes, each field individually corruptible.
    let mut candidates: Vec<CandidatePass> = Vec::new();
    let n_passes = 2 + plan.index_in(4);
    for i in 0..n_passes {
        let mut start_s = i as f64 * 3_600.0;
        let mut dur_s = 600.0;
        if plan.chance(0.35) {
            start_s = plan.corrupt_f64(start_s);
        }
        if plan.chance(0.35) {
            dur_s = plan.corrupt_duration(dur_s);
        }
        let (a, l) = if plan.chance(0.15) {
            plan.note("pass=inverted");
            (start_s + dur_s, start_s)
        } else {
            (start_s, start_s + dur_s)
        };
        candidates.push(CandidatePass {
            sat_index: plan.index_in(3),
            pass: Pass {
                aos: jd(a),
                los: jd(l),
                tca: jd(0.5 * (a + l)),
                max_elevation_rad: plan.corrupt_elevation_rad(0.6),
                tca_range_km: 900.0,
            },
        });
    }

    let mut faults = FaultLog::default();
    let dropped = sanitize_candidates(&mut candidates, &mut faults);
    if dropped as u64 != faults.total() {
        return Verdict::Mismatch(format!(
            "sanitize dropped {dropped} but counted {} ({})",
            faults.total(),
            faults
        ));
    }
    candidates.sort_by(|a, b| a.pass.aos.0.total_cmp(&b.pass.aos.0));

    let stations = plan.corrupt_count(2);
    let schedules = [
        PredictiveScheduler.schedule(&candidates, stations),
        VanillaScheduler {
            dwell_s: plan.corrupt_duration(600.0),
            n_targets: 3,
            origin: epoch,
        }
        .schedule(&candidates, stations),
    ];
    for coverage in schedules.iter().flatten() {
        let p = &candidates[coverage.pass_idx].pass;
        let within = coverage.start.0.is_finite()
            && coverage.end.0.is_finite()
            && coverage.duration_s() >= 0.0
            && coverage.start >= p.aos
            && coverage.end <= p.los;
        if !within {
            return Verdict::Mismatch(format!(
                "coverage escaped its pass: [{:?}..{:?}] vs [{:?}..{:?}]",
                coverage.start, coverage.end, p.aos, p.los
            ));
        }
    }

    // Beacon sampling over a surviving (or freshly corrupted) pass.
    let probe = candidates.first().map(|c| c.pass).unwrap_or(Pass {
        aos: jd(0.0),
        los: jd(f64::NAN),
        tca: jd(300.0),
        max_elevation_rad: 0.6,
        tca_range_km: 900.0,
    });
    for b in beacon_times(&probe, plan.corrupt_duration(60.0), plan.corrupt_f64(5.0)) {
        if !(b.0.is_finite() && b >= probe.aos && b <= probe.los) {
            return Verdict::Mismatch(format!(
                "beacon {:?} outside pass [{:?}..{:?}]",
                b, probe.aos, probe.los
            ));
        }
    }

    // Store-and-forward conservation under interleaved push/pop with a
    // possibly-zero capacity.
    let capacity = plan.corrupt_count(4) as usize;
    let policy = if plan.chance(0.5) {
        DropPolicy::DropNewest
    } else {
        DropPolicy::DropOldest
    };
    let mut buf: StoreAndForward<u64> = StoreAndForward::new(capacity, policy);
    let mut popped = 0u64;
    let offers = 1 + plan.index_in(16) as u64;
    for i in 0..offers {
        buf.push(i);
        if plan.chance(0.4) && buf.pop().is_some() {
            popped += 1;
        }
    }
    let conserved = buf.offered == offers
        && buf.dropped + popped + buf.len() as u64 == offers
        && buf.len() <= capacity
        && buf.peak_depth <= capacity;
    if !conserved {
        return Verdict::Mismatch(format!(
            "buffer accounting broke: cap {capacity}, offered {}, dropped {}, \
             popped {popped}, resident {}, peak {}",
            buf.offered,
            buf.dropped,
            buf.len(),
            buf.peak_depth
        ));
    }

    if faults.is_clean() {
        Verdict::Clean
    } else {
        Verdict::Degraded
    }
}
