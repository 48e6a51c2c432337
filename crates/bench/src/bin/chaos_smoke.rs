//! CI chaos smoke: replay hundreds of seeded fault-injection scenarios
//! through the campaign pipeline and assert (a) zero panics anywhere and
//! (b) reproducible, thread-count-independent degradation accounting —
//! one-thread and pooled passive runs must report bit-identical
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
//! A standing scenario also points the spill trace sink at an
//! unwritable path: the campaign must degrade (counted sink IO faults,
//! sketches intact) rather than panic.
//!
//! `SATIOT_CHAOS_SEED=<u64>` reseeds the batch. Every failure report
//! names the scenario index and the mutation labels its plan applied, so
//! `SATIOT_CHAOS_SEED=<seed> cargo run --release -p satiot-bench --bin
//! chaos_smoke` reproduces a failure exactly. The CI step is the plain
//! run, right next to `determinism_smoke`.

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
use satiot_sim::chaos::{ChaosEngine, ChaosPlan};
use satiot_terrestrial::{TerrestrialCampaign, TerrestrialConfig};

/// Scenario count (the robustness contract asks for ≥ 200).
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

fn main() {
    let opts = RunOptions::from_env().apply();
    let seed = opts.chaos_seed;
    let engine = ChaosEngine::new(seed);
    println!("chaos smoke: {SCENARIOS} scenarios from seed {seed:#x}");

    // Spill-sink IO chaos: pointing the spill archive at an unwritable
    // path must degrade (counted in the fault log, sketches intact),
    // never panic the campaign.
    {
        let mut cfg = PassiveConfig {
            max_days: 0.5,
            constellations: vec![tianqi()],
            ..Default::default()
        };
        cfg.sites.truncate(2);
        let spill = SinkMode::SpillCsv {
            path: "/proc/satiot-no-such-dir/spill.csv",
        };
        let results = PassiveCampaign::new(cfg)
            .run(&opts.with_sink(spill))
            .expect("unwritable spill path must degrade, not abort");
        assert!(
            results.faults.sink_io_errors > 0,
            "spill failure was not counted as Fault::SinkIo"
        );
        assert!(
            results.traces.traces.is_empty(),
            "degraded spill shard must not silently retain traces"
        );
        let sketch = results.sketch.expect("sketches survive spill failure");
        assert_eq!(sketch.total, results.sink.emitted);
        println!(
            "spill chaos: degraded gracefully ({} sink IO faults, {} traces sketched)",
            results.faults.sink_io_errors, sketch.total
        );
    }

    // Expected-degenerate inputs only panic when the harness has found a
    // bug; silence the default hook so a failing batch prints structured
    // reports instead of interleaved backtraces.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let (mut clean, mut degraded, mut rejected) = (0u64, 0u64, 0u64);
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
            0 => passive_scenario(&mut plan, &opts),
            1 => active_scenario(&mut plan, &opts),
            2 => terrestrial_scenario(&mut plan),
            3 => component_scenario(&mut plan),
            _ => scenario_spec_scenario(&mut plan, &opts),
        }));
        match verdict {
            Ok(Verdict::Clean) => clean += 1,
            Ok(Verdict::Degraded) => degraded += 1,
            Ok(Verdict::Rejected) => rejected += 1,
            Ok(Verdict::Mismatch(why)) => failures.push(format!(
                "scenario {index} ({family}) mismatch: {why} — mutations {:?}",
                plan.applied()
            )),
            Err(_) => failures.push(format!(
                "scenario {index} ({family}) PANICKED — mutations {:?}",
                plan.applied()
            )),
        }
    }
    std::panic::set_hook(default_hook);

    println!(
        "chaos smoke: {clean} clean, {degraded} degraded, {rejected} rejected, \
         {} failures",
        failures.len()
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("reproduce with SATIOT_CHAOS_SEED={seed}");
        std::process::exit(1);
    }
    // A batch that never exercises the degraded or rejected paths is not
    // testing the contract — fail loudly rather than rot silently.
    assert!(
        degraded > 0,
        "no scenario degraded — perturbations too weak"
    );
    assert!(
        rejected > 0,
        "no scenario was rejected — validation untested"
    );
    // With SATIOT_METRICS=1 the fault counters (`core.faults.*`,
    // `core.geometry.degenerate_passes`, `orbit.pass.non_finite_scans`)
    // have been accumulating across the whole batch; dump them.
    if satiot_obs::metrics::enabled() {
        eprintln!("\n{}", satiot_obs::metrics::report());
    }
    println!("chaos smoke: OK");
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
    let serial = campaign.run(&opts.with_threads(Some(1)));
    let pooled = campaign.run(opts);
    match (serial, pooled) {
        (Ok(a), Ok(b)) => {
            if a.faults != b.faults {
                return Verdict::Mismatch(format!(
                    "serial faults [{}] != pooled faults [{}]",
                    a.faults, b.faults
                ));
            }
            if a.traces.len() != b.traces.len() || a.passes.len() != b.passes.len() {
                return Verdict::Mismatch(format!(
                    "serial {}t/{}p != pooled {}t/{}p",
                    a.traces.len(),
                    a.passes.len(),
                    b.traces.len(),
                    b.passes.len()
                ));
            }
            if a.faults.is_clean() {
                Verdict::Clean
            } else {
                Verdict::Degraded
            }
        }
        (Err(a), Err(b)) => {
            // Typed errors may carry NaN payloads (never `==`), so
            // compare rendered messages.
            if a.to_string() == b.to_string() {
                Verdict::Rejected
            } else {
                Verdict::Mismatch(format!("serial rejected [{a}], pooled rejected [{b}]"))
            }
        }
        (a, b) => Verdict::Mismatch(format!(
            "drivers disagree on acceptance: serial {}, pooled {}",
            ok_or_err(&a),
            ok_or_err(&b)
        )),
    }
}

fn ok_or_err<T, E: std::fmt::Display>(r: &Result<T, E>) -> String {
    match r {
        Ok(_) => "Ok".into(),
        Err(e) => format!("Err({e})"),
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

    let first = ActiveCampaign::new(cfg.clone()).run(opts);
    let replay = ActiveCampaign::new(cfg).run(opts);
    match (first, replay) {
        (Ok(a), Ok(b)) => {
            if a.faults != b.faults {
                return Verdict::Mismatch(format!(
                    "replay faults [{}] != [{}]",
                    b.faults, a.faults
                ));
            }
            if a.sent.len() != b.sent.len() || a.delivered_seqs != b.delivered_seqs {
                return Verdict::Mismatch("replay diverged on sent/delivered".into());
            }
            if a.faults.is_clean() {
                Verdict::Clean
            } else {
                Verdict::Degraded
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() == b.to_string() {
                Verdict::Rejected
            } else {
                Verdict::Mismatch(format!("replay rejected differently: [{a}] vs [{b}]"))
            }
        }
        (a, b) => Verdict::Mismatch(format!(
            "replay disagrees on acceptance: {} vs {}",
            ok_or_err(&a),
            ok_or_err(&b)
        )),
    }
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

    let first = TerrestrialCampaign::new(cfg.clone()).run();
    let replay = TerrestrialCampaign::new(cfg).run();
    match (first, replay) {
        (Ok(a), Ok(b)) => {
            if a.faults != b.faults {
                return Verdict::Mismatch(format!(
                    "replay faults [{}] != [{}]",
                    b.faults, a.faults
                ));
            }
            if a.sent.len() != b.sent.len() || a.delivered_seqs != b.delivered_seqs {
                return Verdict::Mismatch("replay diverged on sent/delivered".into());
            }
            if a.faults.is_clean() {
                Verdict::Clean
            } else {
                Verdict::Degraded
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() == b.to_string() {
                Verdict::Rejected
            } else {
                Verdict::Mismatch(format!("replay rejected differently: [{a}] vs [{b}]"))
            }
        }
        (a, b) => Verdict::Mismatch(format!(
            "replay disagrees on acceptance: {} vs {}",
            ok_or_err(&a),
            ok_or_err(&b)
        )),
    }
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

    let first = ScenarioSpec::from_json(&text);
    let replay = ScenarioSpec::from_json(&text);
    match (first, replay) {
        (Err(a), Err(b)) => {
            if a.to_string() == b.to_string() {
                Verdict::Rejected
            } else {
                Verdict::Mismatch(format!("parse replay differs: [{a}] vs [{b}]"))
            }
        }
        (Ok(a), Ok(b)) => {
            if a != b || a.fingerprint() != b.fingerprint() {
                return Verdict::Mismatch("parse replay produced a different spec".into());
            }
            // Whatever survived the mutation must round-trip bitwise.
            match ScenarioSpec::from_json(&a.to_json()) {
                Ok(rt) if rt == a => {}
                Ok(_) => return Verdict::Mismatch("round-trip changed the spec".into()),
                Err(e) => return Verdict::Mismatch(format!("canonical JSON rejected: {e}")),
            }
            let resolved = match (a.build(), b.build()) {
                (Ok(x), Ok(y)) if x.fingerprint == y.fingerprint => x,
                (Err(x), Err(y)) if x.to_string() == y.to_string() => {
                    return Verdict::Rejected;
                }
                (x, y) => {
                    return Verdict::Mismatch(format!(
                        "build replay disagrees: {} vs {}",
                        ok_or_err(&x),
                        ok_or_err(&y)
                    ));
                }
            };
            // A buildable scenario must also *run* deterministically.
            // Shrink to chaos-smoke size first (catalog sites keep their
            // canonical coordinates, so the shared pass cache stays
            // clean).
            let mut cfg = PassiveConfig::from_scenario(&resolved);
            cfg.max_days = 0.25;
            cfg.sites.truncate(1);
            cfg.constellations.truncate(1);
            let campaign = PassiveCampaign::new(cfg);
            let serial = campaign.run(&opts.with_threads(Some(1)));
            let pooled = campaign.run(opts);
            match (serial, pooled) {
                (Ok(x), Ok(y)) => {
                    if x.faults != y.faults {
                        Verdict::Mismatch(format!(
                            "serial faults [{}] != pooled faults [{}]",
                            x.faults, y.faults
                        ))
                    } else if x.faults.is_clean() {
                        Verdict::Clean
                    } else {
                        Verdict::Degraded
                    }
                }
                (Err(x), Err(y)) => {
                    if x.to_string() == y.to_string() {
                        Verdict::Rejected
                    } else {
                        Verdict::Mismatch(format!("campaign rejected differently: [{x}] vs [{y}]"))
                    }
                }
                (x, y) => Verdict::Mismatch(format!(
                    "drivers disagree on acceptance: {} vs {}",
                    ok_or_err(&x),
                    ok_or_err(&y)
                )),
            }
        }
        (a, b) => Verdict::Mismatch(format!(
            "parse replay disagrees on acceptance: {} vs {}",
            ok_or_err(&a),
            ok_or_err(&b)
        )),
    }
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
    let beacons = beacon_times(&probe, plan.corrupt_duration(60.0), plan.corrupt_f64(5.0));
    for b in &beacons {
        if !(b.0.is_finite() && *b >= probe.aos && *b <= probe.los) {
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
