//! The `satiot` binary end to end: `satiot passes LDN 1` lists every
//! pass that the direct-SGP4 reference scan finds over London on the
//! campaign's first day, grazing passes included, and `satiot campaign`
//! runs the scenario that `SATIOT_SCENARIO` names.

use satiot::orbit::pass::PassPredictor;
use satiot::scenarios::constellations::all_constellations;
use satiot::scenarios::sites::{campaign_epoch, site_by_code};
use std::process::Command;

/// London's passes over that day above a 0° mask, as the reference scan
/// finds them at a 1 s floor. A 30 s floor finds one fewer: it steps
/// over an 11 s PICO-1 graze.
const LDN_DAY_ONE_PASSES: usize = 250;

#[test]
fn passes_lists_every_reference_pass() {
    let out = Command::new(env!("CARGO_BIN_EXE_satiot"))
        .args(["passes", "LDN", "1"])
        .env_clear()
        .output()
        .expect("the satiot binary runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let header = lines
        .iter()
        .position(|l| l.starts_with("satellite"))
        .expect("a table header");
    let rows = lines[header + 1..]
        .iter()
        .take_while(|l| !l.is_empty())
        .count();
    let total: usize = lines
        .iter()
        .find_map(|l| l.strip_suffix(" passes total."))
        .expect("a total line")
        .parse()
        .expect("a pass count");

    let start = campaign_epoch();
    let london = site_by_code("LDN").expect("a catalog site").geodetic();
    let reference: usize = all_constellations()
        .iter()
        .flat_map(|spec| spec.catalog(start))
        .map(|sat| {
            let sgp4 = sat.sgp4().expect("catalog elements propagate");
            PassPredictor::new(sgp4, london, 0.0)
                .reference_passes(start, start + 1.0, 1.0)
                .len()
        })
        .sum();
    assert_eq!(
        reference, LDN_DAY_ONE_PASSES,
        "the catalog's pass count moved"
    );
    assert_eq!(total, reference, "the total line");
    assert_eq!(rows, reference, "the printed rows");
}

/// `satiot campaign terrestrial 7`'s `(sent, delivered)` counts, run in
/// a cleared environment plus `env`.
fn terrestrial_week(env: &[(&str, &str)]) -> (usize, usize) {
    let out = Command::new(env!("CARGO_BIN_EXE_satiot"))
        .args(["campaign", "terrestrial", "7"])
        .env_clear()
        .envs(env.iter().copied())
        .output()
        .expect("the satiot binary runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let counts = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("sent "))
        .expect("a sent/delivered line");
    let mut words = counts.split_whitespace();
    let sent = words.next().expect("a sent count");
    let delivered = words.nth(2).expect("a delivered count");
    (
        sent.parse().expect("a sent count"),
        delivered.parse().expect("a delivered count"),
    )
}

#[test]
fn campaign_runs_the_scenario_file() {
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/disrupted_comms.scenario.json"
    );
    let (sent, delivered) = terrestrial_week(&[]);
    let (sent_out, delivered_out) = terrestrial_week(&[("SATIOT_SCENARIO", scenario)]);
    // The scenario keeps the default traffic and scripts two outages.
    assert_eq!(sent_out, sent, "the scenario's traffic");
    assert!(
        delivered_out < delivered,
        "{delivered_out} delivered under outages vs {delivered} without"
    );
}
