//! Workload extensions E5–E7: a Walker mega-shell checked against the
//! stochastic-geometry closed forms, scripted terrestrial outages
//! against satellite store-and-forward, and a moving maritime tracker.
//!
//! Each workload is one `run` that computes its results at a [`Scale`]
//! and one `render` that formats them; the tests assert on the same
//! results. Quick scale is the tests' dimensions, full scale the report.

use crate::experiments::Campaigns;
use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_measure::latency::PacketTimeline;
use satiot_orbit::cull::{self, CullStats};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::{ObserverLeg, Pass, PassPredictor};
use satiot_orbit::time::JulianDate;
use satiot_scenarios::mobility::DEFAULT_LEG_S;
use satiot_scenarios::sites::campaign_epoch;
use satiot_scenarios::walker::{
    single_sat_visibility_fraction, union_availability, WalkerConstellation, WalkerShell,
};
use satiot_scenarios::ResolvedScenario;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig, TerrestrialResults};
use std::fmt::Write as _;

/// One (elevation mask, site latitude) cell of E5.
#[derive(Debug, Clone, Copy)]
pub struct MegascaleCell {
    pub mask_deg: f64,
    pub lat_deg: f64,
    /// Per-satellite visible fraction: simulated, and the closed form
    /// [`single_sat_visibility_fraction`].
    pub p_sim: f64,
    pub p_theory: f64,
    /// Union availability: simulated, and the independence
    /// approximation [`union_availability`].
    pub a_sim: f64,
    pub a_theory: f64,
    /// `|p_sim − p_theory| / p_theory`, 0 where the closed form is 0.
    pub rel: f64,
    /// `|a_sim − a_theory|`.
    pub abs: f64,
    /// Passes the site saw across the shell.
    pub passes: usize,
    /// How far the cell moved the `cull::stats()` counters.
    pub cull: CullStats,
}

/// E5: a Walker shell at 650 km / 60° (4×6 for one day at quick scale,
/// 8×8 for two at full) seen from five latitudes under two masks,
/// through the campaign predictors (shared grids, spatial pre-cull).
#[derive(Debug, Clone)]
pub struct Megascale {
    pub shell: WalkerShell,
    pub days: f64,
    /// Cells, mask-major.
    pub cells: Vec<MegascaleCell>,
}

/// Fraction of `[start, end]` covered by the union of the intervals.
fn union_fraction(mut intervals: Vec<(f64, f64)>, start: f64, end: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        } else {
            cursor = cursor.max(b);
        }
    }
    covered / (end - start)
}

impl Megascale {
    /// Predict every (cell, satellite) pair. The cull counters are read
    /// as deltas and the shared stores left alone, so the study can
    /// share a process with other sections; the deltas are exact while
    /// nothing else predicts concurrently.
    pub fn run(scale: Scale) -> Megascale {
        let ((planes, sats_per_plane), days) = match scale {
            Scale::Quick => ((4, 6), 1.0),
            Scale::Full => ((8, 8), 2.0),
        };
        let shell = WalkerShell {
            planes,
            sats_per_plane,
            altitude_km: 650.0,
            inclination_deg: 60.0,
            phasing: 1,
        };
        // The shell enters the pipeline as a scenario file declares it,
        // an inline constellation resolved through `ScenarioSpec::build`.
        // Its name carries the dimensions, so two shells never share a
        // grid key.
        let mut spec = ScenarioSpec::paper_passive();
        spec.name = "megascale".to_string();
        spec.constellations = vec![ConstellationRef::Inline {
            walker: WalkerConstellation {
                name: format!("MEGA-{planes}x{sats_per_plane}"),
                shells: vec![shell],
                frequency_mhz: 868.0,
                beacon_interval_s: 60.0,
            },
            tx_power_dbm: 22.0,
        }];
        let scenario = spec.build().expect("mega shell scenario resolves");
        let mega = &scenario.constellations[0];
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let (start, end) = (epoch, epoch + days);
        let sgp4s: Vec<_> = mega
            .catalog(epoch)
            .iter()
            .map(|def| def.sgp4().expect("walker shell propagates"))
            .collect();
        let n = sgp4s.len() as u32;
        let mut cells = Vec::new();
        for mask_deg in [0.0_f64, 30.0] {
            let mask_rad = mask_deg.to_radians();
            for lat_deg in [0.0_f64, 25.0, 45.0, 70.0, 87.0] {
                let site = Geodetic::from_degrees(lat_deg, 8.0, 0.0);
                let before = cull::stats();
                let mut intervals: Vec<(f64, f64)> = Vec::new();
                let mut frac_sum = 0.0;
                for (s, sgp4) in sgp4s.iter().enumerate() {
                    let key = sweep::GridKey::new(mega.name, s as u32, start, end);
                    let predictor = sweep::predictor(key, sgp4, site, mask_rad);
                    let list = predictor.map(|p| p.passes(start, end)).unwrap_or_default();
                    frac_sum += list.iter().map(Pass::duration_s).sum::<f64>() / (days * 86_400.0);
                    intervals.extend(list.iter().map(|p| (p.aos.0, p.los.0)));
                }
                let after = cull::stats();
                let (p_sim, passes) = (frac_sum / n as f64, intervals.len());
                let incl_rad = shell.inclination_deg.to_radians();
                let p_theory = single_sat_visibility_fraction(
                    site.lat_rad,
                    incl_rad,
                    shell.altitude_km,
                    mask_rad,
                );
                let a_sim = union_fraction(intervals, start.0, end.0);
                let a_theory = union_availability(p_theory, n);
                let rel = if p_theory > 0.0 {
                    (p_sim - p_theory).abs() / p_theory
                } else {
                    0.0
                };
                cells.push(MegascaleCell {
                    mask_deg,
                    lat_deg,
                    p_sim,
                    p_theory,
                    a_sim,
                    a_theory,
                    rel,
                    abs: (a_sim - a_theory).abs(),
                    passes,
                    cull: after.since(&before),
                });
            }
        }
        Megascale { shell, days, cells }
    }

    /// The cells as a table, with the pairs the cull retired per cell.
    pub fn render(&self) -> String {
        let s = &self.shell;
        let mut out = format!(
            "Walker {}x{} @ {} km / {} deg, {} day(s)\n\n",
            s.planes, s.sats_per_plane, s.altitude_km, s.inclination_deg, self.days,
        );
        let _ = writeln!(
            out,
            "{:>8} {:>6}  {:>9} {:>9} {:>7}   {:>9} {:>9} {:>7}  {:>9}",
            "mask", "lat", "p_sim", "p_theory", "rel", "A_sim", "A_theory", "abs", "culled",
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:>7}° {:>5}°  {:>9.5} {:>9.5} {:>6.1}%   {:>9.5} {:>9.5} {:>7.3}  {:>4}/{:<4}",
                c.mask_deg,
                c.lat_deg,
                c.p_sim,
                c.p_theory,
                c.rel * 100.0,
                c.a_sim,
                c.a_theory,
                c.abs,
                c.cull.pairs_culled(),
                c.cull.pairs_considered,
            );
        }
        out.push_str(
            "\nThe per-satellite fraction tracks the closed form E_u[θ_max/π]; the union\n\
             beats the independence approximation 1 − (1 − p)^n because Walker phasing\n\
             anti-correlates coverage gaps. Sites poleward of i + λ read exactly zero,\n\
             every pair retired by the latitude-band cull before a grid is read.\n",
        );
        out
    }
}

/// Extension E5 at the registry's scale.
pub fn megascale(campaigns: &Campaigns) -> String {
    Megascale::run(campaigns.scale()).render()
}

/// E6: the `disrupted_comms` scenario (3 days and its first outage at
/// quick scale) takes the whole terrestrial path down for scripted
/// windows while the satellite deployment keeps store-and-forwarding.
/// All three runs come from the one resolved scenario.
struct Disrupted {
    scenario: ResolvedScenario,
    /// The terrestrial runs with the scripted outages and without.
    terrestrial: TerrestrialResults,
    baseline: TerrestrialResults,
    satellite: ActiveResults,
}

impl Disrupted {
    /// Run the scenario at the options' scale.
    fn run(opts: &RunOptions) -> Disrupted {
        let mut spec = ScenarioSpec::disrupted_comms();
        if opts.scale == Scale::Quick {
            spec.max_days = Some(3.0);
            spec.outages.truncate(1);
        }
        let scenario = spec.build().expect("disrupted-comms scenario resolves");
        let gated = TerrestrialConfig::from_scenario(&scenario);
        let baseline = TerrestrialConfig {
            outages: Vec::new(),
            ..gated.clone()
        };
        let terrestrial = |cfg| {
            TerrestrialCampaign::new(cfg)
                .run()
                .expect("terrestrial run")
        };
        Disrupted {
            terrestrial: terrestrial(gated),
            baseline: terrestrial(baseline),
            satellite: ActiveCampaign::new(ActiveConfig::from_scenario(&scenario))
                .run(opts)
                .expect("satellite run"),
            scenario,
        }
    }

    /// Deliveries in `timelines` that land inside a scripted outage.
    fn in_outage(&self, timelines: &[PacketTimeline]) -> usize {
        let outages = &self.scenario.outages;
        timelines
            .iter()
            .filter_map(|t| t.delivered_s)
            .filter(|&t| outages.iter().any(|w| w.contains(t)))
            .count()
    }

    /// Baseline deliveries the outage run lost.
    fn blacked_out(&self) -> usize {
        let (gated, base) = (&self.terrestrial.timelines, &self.baseline.timelines);
        let lost = |(d, b): &(&PacketTimeline, &PacketTimeline)| {
            d.delivered_s.is_none() && b.delivered_s.is_some()
        };
        gated.iter().zip(base).filter(lost).count()
    }

    /// Both paths' reliability and their deliveries inside the windows.
    fn render(&self) -> String {
        let outages = &self.scenario.outages;
        let outage_s: f64 = outages.iter().map(|w| w.end_s - w.start_s).sum();
        let mut out = format!(
            "{} — {:.1} day(s), {} outage window(s) totalling {:.1} h\n\n",
            self.scenario.name,
            self.scenario.max_days.unwrap_or_default(),
            outages.len(),
            outage_s / 3600.0,
        );
        let _ = writeln!(
            out,
            "terrestrial: {:>5} sent, reliability {:.3} with outages vs {:.3} baseline \
             ({} deliveries blacked out, {} the baseline carried in-window)",
            self.terrestrial.timelines.len(),
            self.terrestrial.reliability(),
            self.baseline.reliability(),
            self.blacked_out(),
            self.in_outage(&self.baseline.timelines),
        );
        let _ = writeln!(
            out,
            "satellite:   {:>5} sent, reliability {:.3} — {} packets delivered inside the \
             terrestrial outage windows (store-and-forward)",
            self.satellite.timelines.len(),
            self.satellite.reliability(),
            self.in_outage(&self.satellite.timelines),
        );
        out
    }
}

/// Extension E6 at the registry's scale.
pub fn disrupted(campaigns: &Campaigns) -> String {
    Disrupted::run(campaigns.options()).render()
}

/// E7's contact mask: the full above-horizon arc, as in the passive
/// campaign's theoretical windows.
const MOBILE_MASK_RAD: f64 = 0.0;

/// E7: the `maritime_tracker` scenario (half a day at quick scale, two
/// at full) steams Hong Kong → Manila under Tianqi. Its track is cut
/// into legs (waypoints always cut one), every contact is predicted
/// with [`PassPredictor::passes_over_legs`], the moving-observer path
/// that bypasses the site-keyed pass cache, and set beside the plan of
/// a fixed observer at the departure berth.
struct Mobile {
    scenario: ResolvedScenario,
    window: (JulianDate, JulianDate),
    /// The track's legs of at most [`DEFAULT_LEG_S`].
    legs: Vec<ObserverLeg>,
    /// Moving-observer and berth-anchored passes, one list per
    /// satellite.
    moving: Vec<Vec<Pass>>,
    fixed: Vec<Vec<Pass>>,
}

impl Mobile {
    /// Predict the tracker's contacts at `scale`.
    fn run(scale: Scale) -> Mobile {
        let mut spec = ScenarioSpec::maritime_tracker();
        if scale == Scale::Quick {
            spec.max_days = Some(0.5);
        }
        let scenario = spec.build().expect("maritime-tracker scenario resolves");
        let track = scenario.sites[0]
            .track
            .as_ref()
            .expect("the site carries a track");
        let window_s = scenario.max_days.unwrap_or(2.0) * 86_400.0;
        let epoch = campaign_epoch();
        let legs = track.legs(epoch, 0.0, window_s, DEFAULT_LEG_S);
        let window = (epoch, epoch.plus_seconds(window_s));
        let (mut moving, mut fixed) = (Vec::new(), Vec::new());
        for def in scenario.constellations[0].catalog(epoch) {
            let sgp4 = def.sgp4().expect("Tianqi catalog propagates");
            let predictor = PassPredictor::new(sgp4, track.position_at(0.0), MOBILE_MASK_RAD);
            let over_legs = predictor.passes_over_legs(&legs);
            moving.push(over_legs.expect("chronological legs scan cleanly"));
            fixed.push(predictor.passes(window.0, window.1));
        }
        Mobile {
            scenario,
            window,
            legs,
            moving,
            fixed,
        }
    }

    /// Moving against berth-anchored contact totals, and the track.
    fn render(&self) -> String {
        let track = self.scenario.sites[0].track.as_ref().expect("tracked site");
        let window_s = self.window.1.seconds_since(self.window.0);
        let mut out = format!(
            "{} — {:.1} day(s), {} sats, {} legs of ≤{DEFAULT_LEG_S:.0}s\n\n",
            self.scenario.name,
            window_s / 86_400.0,
            self.moving.len(),
            self.legs.len(),
        );
        for (label, lists) in [
            ("moving observer:", &self.moving),
            ("berth-anchored: ", &self.fixed),
        ] {
            let passes: usize = lists.iter().map(Vec::len).sum();
            let contact_s: f64 = lists.iter().flatten().map(Pass::duration_s).sum();
            let _ = writeln!(
                out,
                "{label} {passes:>3} passes, {:>7.1} min contact",
                contact_s / 60.0
            );
        }
        let steaming_s = track.duration_s().min(window_s);
        let (from, to) = (track.position_at(0.0), track.position_at(steaming_s));
        let _ = writeln!(
            out,
            "track: {:.1}°N {:.1}°E → {:.1}°N {:.1}°E over {:.1} h",
            from.lat_rad.to_degrees(),
            from.lon_rad.to_degrees(),
            to.lat_rad.to_degrees(),
            to.lon_rad.to_degrees(),
            steaming_s / 3600.0,
        );
        out
    }
}

/// Extension E7 at the registry's scale.
pub fn mobile(campaigns: &Campaigns) -> String {
    Mobile::run(campaigns.scale()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate itself (bit-identical outside the windows, an empty list
    // is the baseline) is pinned by the terrestrial campaign's tests.
    #[test]
    fn satellite_delivers_through_the_scripted_outages() {
        for scale in [Scale::Quick, Scale::Full] {
            let run = Disrupted::run(&RunOptions::default().with_scale(scale));
            assert!(run.blacked_out() > 0, "{scale:?}: the windows never bit");
            assert_eq!(run.blacked_out(), run.in_outage(&run.baseline.timelines));
            assert_eq!(run.in_outage(&run.terrestrial.timelines), 0, "{scale:?}");
            assert!(run.terrestrial.reliability() < run.baseline.reliability());
            // Store-and-forward rides out the terrestrial disaster.
            let through = run.in_outage(&run.satellite.timelines);
            assert!(
                through > 0,
                "{scale:?}: no satellite delivery in the windows"
            );
        }
    }

    #[test]
    fn moving_observer_passes_are_ordered_in_window_and_differ_from_the_berth() {
        for scale in [Scale::Quick, Scale::Full] {
            let run = Mobile::run(scale);
            let (start, end) = run.window;
            let mut moved = false;
            for (moving, fixed) in run.moving.iter().zip(&run.fixed) {
                for pair in moving.windows(2) {
                    assert!(pair[0].los <= pair[1].aos, "{scale:?}: passes out of order");
                }
                for p in moving {
                    assert!(
                        p.aos >= start && p.los <= end,
                        "{scale:?}: pass left the window"
                    );
                    assert!(
                        p.max_elevation_rad >= MOBILE_MASK_RAD,
                        "{scale:?}: below the mask"
                    );
                }
                // If every contact matched the berth-anchored plan to the
                // second, mobility never entered the geometry.
                moved |= moving.len() != fixed.len()
                    || moving
                        .iter()
                        .zip(fixed)
                        .any(|(m, f)| m.aos.seconds_since(f.aos).abs() > 1.0);
            }
            assert!(
                run.moving.iter().any(|l| !l.is_empty()),
                "{scale:?}: no contact"
            );
            assert!(
                moved,
                "{scale:?}: the moving plan equals the berth-anchored one"
            );
        }
    }
}
