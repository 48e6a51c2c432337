//! The spatial pre-cull inside `sweep::predictor`, proven by the
//! process-wide `orbit.cull.*` counters: it drops only empty pairs,
//! retires most of a mega-shell's pair matrix, and campaigns consult it
//! once per (site, satellite) pair.
//!
//! The test resets and reads those counters, which any campaign running
//! in the same process would also move, so it is the only test in this
//! binary (one process per integration-test file).

use satiot_core::prelude::*;
use satiot_core::sweep::{self, gridded_predictor, predictor, GridKey};
use satiot_orbit::cull;
use satiot_orbit::elements::Elements;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_scenarios::sites::tianqi_ground_stations;
use satiot_scenarios::walker::WalkerShell;

fn epoch() -> JulianDate {
    JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
}

/// One polar and one equatorial site against a low-inclination shell:
/// the polar pair is culled, the equatorial one kept with the passes a
/// plain gridded predictor finds, and the plain predictor moves no
/// counter.
fn single_pair() {
    let (start, end) = (epoch(), epoch() + 0.5);
    // Low-inclination shell: never visible from a polar site.
    let sgp4 = Elements::circular(550.0, 20.0, epoch()).to_sgp4().unwrap();
    let polar = Geodetic::from_degrees(80.0, 10.0, 0.0);
    let equatorial = Geodetic::from_degrees(0.0, 10.0, 0.0);
    let key = GridKey::new("TEST_CULL", 0, start, end);

    let before = cull::stats();
    let culled = predictor(key, &sgp4, polar, 0.0);
    assert!(culled.is_none(), "polar pair survived the lat-band cull");
    let kept = predictor(key, &sgp4, equatorial, 0.0);
    let kept = kept.expect("equatorial pair must be kept");
    let after = cull::stats();
    assert_eq!(after.pairs_considered - before.pairs_considered, 2);
    assert_eq!(after.pairs_culled() - before.pairs_culled(), 1);
    assert_eq!(after.pairs_kept - before.pairs_kept, 1);

    let unculled = gridded_predictor(key, &sgp4, equatorial, 0.0);
    assert_eq!(kept.passes(start, end), unculled.passes(start, end));
    assert_eq!(cull::stats(), after, "the plain predictor moved a counter");
}

/// Every (site, satellite) pair's passes, one backend's predictor each;
/// `None` is a pair the backend proved empty.
fn predict_matrix(
    backend: fn(GridKey, &Sgp4, Geodetic, f64) -> Option<PassPredictor>,
    sites: &[Geodetic],
    sats: &[Sgp4],
    (start, end): (JulianDate, JulianDate),
    mask_rad: f64,
) -> Vec<Vec<Pass>> {
    let mut lists = Vec::with_capacity(sites.len() * sats.len());
    for &site in sites {
        for (s, sgp4) in sats.iter().enumerate() {
            let key = GridKey::new("MEGA", s as u32, start, end);
            let predictor = backend(key, sgp4, site, mask_rad);
            lists.push(predictor.map(|p| p.passes(start, end)).unwrap_or_default());
        }
    }
    lists
}

/// A 4×9 Walker shell against 60 equal-area sites over 0.03 days at a
/// 15° mask: the culled passes are bit-identical to the unculled ones
/// for every pair, the counters balance, and the cull keeps at most a
/// fifth of the pairs.
fn mega_shell() {
    let shell = WalkerShell {
        planes: 4,
        sats_per_plane: 9,
        altitude_km: 600.0,
        inclination_deg: 53.0,
        phasing: 1,
    };
    shell.validate().expect("shell is well-formed");
    let sats: Vec<Sgp4> = shell
        .elements(epoch())
        .iter()
        .map(|e| e.to_sgp4().expect("walker shell propagates"))
        .collect();
    // Equal-area latitudes (uniform in sin φ) with golden-angle
    // longitudes: a deterministic stand-in for uniform global sites.
    let n_sites = 60;
    let sites: Vec<Geodetic> = (0..n_sites)
        .map(|k| {
            let z = 1.0 - 2.0 * (k as f64 + 0.5) / n_sites as f64;
            let lon = (k as f64 * 2.399_963_229_728_653) % std::f64::consts::TAU;
            Geodetic::new(z.asin(), lon, 0.0)
        })
        .collect();
    let window = (epoch(), epoch() + 0.03);
    let mask = 15.0_f64.to_radians();
    let pairs = (sites.len() * sats.len()) as u64;

    sweep::clear();
    cull::reset_stats();
    let zero = cull::stats();
    let unculled = predict_matrix(
        |k, s, site, m| Some(gridded_predictor(k, s, site, m)),
        &sites,
        &sats,
        window,
        mask,
    );
    assert_eq!(cull::stats(), zero, "the unculled leg moved a cull counter");
    let culled = predict_matrix(predictor, &sites, &sats, window, mask);
    let stats = cull::stats();
    // A warm repeat, served the shared grids, returns the same lists.
    assert_eq!(
        predict_matrix(predictor, &sites, &sats, window, mask),
        culled
    );

    // The cull is conservative: every pair's passes agree to the bit,
    // culled pairs included, whose unculled lists must be empty.
    for (i, (a, b)) in unculled.iter().zip(&culled).enumerate() {
        assert_eq!(a.len(), b.len(), "pair {i}: culling changed the pass count");
        for (x, y) in a.iter().zip(b) {
            let bits = |p: &Pass| {
                [
                    p.aos.0.to_bits(),
                    p.los.0.to_bits(),
                    p.tca.0.to_bits(),
                    p.max_elevation_rad.to_bits(),
                    p.tca_range_km.to_bits(),
                ]
            };
            assert_eq!(bits(x), bits(y), "pair {i}: culled pass diverged");
        }
    }
    assert!(
        culled.iter().any(|l| !l.is_empty()),
        "the shell shows no pass"
    );
    assert_eq!(
        stats.pairs_considered, pairs,
        "cull saw another pair matrix"
    );
    assert_eq!(
        stats.pairs_considered,
        stats.pairs_culled() + stats.pairs_kept,
        "cull counters do not balance"
    );
    let ratio = stats.pairs_considered as f64 / stats.pairs_kept.max(1) as f64;
    assert!(
        ratio >= 5.0,
        "the cull must retire at least 5× the kept pair count (got {ratio:.2}×: {stats:?})"
    );
    sweep::clear();
}

/// How far one campaign run moves `pairs_considered`.
fn considered_by(run: impl FnOnce()) -> u64 {
    let before = cull::stats().pairs_considered;
    run();
    cull::stats().pairs_considered - before
}

/// A cold campaign consults the cull exactly once per (site,
/// satellite) pair, predict and simulate phases together; a warm
/// re-run, served every pass list from the cache, not at all.
fn campaigns_consult_the_cull_once_per_pair() {
    let opts = RunOptions::default();
    let spec = ScenarioSpec {
        max_days: Some(0.25),
        sites: ["HK", "SYD"]
            .map(|c| SiteRef::Named(c.to_string()))
            .to_vec(),
        constellations: ["Tianqi", "FOSSA"]
            .map(|c| ConstellationRef::Named(c.to_string()))
            .to_vec(),
        ..ScenarioSpec::paper_passive()
    };
    let passive = PassiveConfig::from_scenario(&spec.build().expect("scenario resolves"));
    let sats: u32 = passive.constellations.iter().map(|c| c.sat_count()).sum();
    let pairs = passive.sites.len() as u64 * sats as u64;
    let run_passive = || {
        PassiveCampaign::new(passive.clone())
            .run(&opts)
            .expect("passive campaign runs");
    };
    sweep::clear();
    assert_eq!(considered_by(run_passive), pairs, "cold passive campaign");
    assert_eq!(considered_by(run_passive), 0, "warm passive campaign");

    // The active campaign predicts the farm and every Tianqi ground
    // station against each Tianqi satellite.
    let active = ActiveConfig::quick(0.25);
    let tianqi = satiot_scenarios::constellations::tianqi().sat_count() as u64;
    let pairs = tianqi * (1 + tianqi_ground_stations().len() as u64);
    let run_active = || {
        ActiveCampaign::new(active.clone())
            .run(&opts)
            .expect("active campaign runs");
    };
    sweep::clear();
    assert_eq!(considered_by(run_active), pairs, "cold active campaign");
    assert_eq!(considered_by(run_active), 0, "warm active campaign");
    sweep::clear();
}

#[test]
fn cull_drops_only_empty_pairs_and_runs_once_per_pair() {
    single_pair();
    mega_shell();
    campaigns_consult_the_cull_once_per_pair();
}
