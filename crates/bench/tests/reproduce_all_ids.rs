//! `reproduce_all <id>...` renders only the named registry sections: an
//! unknown id is rejected before any work with the list of valid ids,
//! and a named section prints without writing `EXPERIMENTS.md`. The
//! binary reads its `SATIOT_*` knobs once: a malformed one warns once,
//! a retired one warns once and changes nothing, and `SATIOT_SCENARIO`
//! drives every runner.
//!
//! Each spawn clears the environment and sets only the knobs it tests.

use satiot_bench::experiments::{ABLATIONS, PAPER};
use satiot_bench::reports;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty working directory of this test's own.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "satiot-reproduce-all-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn reproduce_all(dir: &Path, ids: &[&str], knobs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(ids)
        .current_dir(dir)
        .env_clear()
        .envs(knobs.iter().copied())
        .output()
        .expect("spawn reproduce_all")
}

#[test]
fn unknown_id_exits_2_and_names_the_valid_ids() {
    let dir = scratch_dir("unknown");
    let out = reproduce_all(&dir, &["table1", "fig99"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`fig99`"), "{stderr}");
    for e in PAPER.iter().chain(ABLATIONS) {
        assert!(stderr.contains(e.id), "valid id {} not listed", e.id);
    }
    // Rejected before any section ran.
    assert!(out.stdout.is_empty());
    assert!(!dir.join("EXPERIMENTS.md").exists());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn named_section_prints_and_writes_no_experiments_md() {
    let dir = scratch_dir("table2");
    let out = reproduce_all(&dir, &["table2"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains(&reports::table2()), "{stdout}");
    assert!(!dir.join("EXPERIMENTS.md").exists());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_malformed_knob_warns_once() {
    let dir = scratch_dir("warn-once");
    let out = reproduce_all(
        &dir,
        &["fig5a"],
        &[("SATIOT_THREADS", "abc"), ("SATIOT_SCALE", "quick")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("warning")).collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(warnings[0].contains("SATIOT_THREADS"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn retired_knobs_warn_and_change_nothing() {
    let dir = scratch_dir("retired");
    let quick = ("SATIOT_SCALE", "quick");
    let plain = reproduce_all(&dir, &["table1"], &[quick]);
    let retired = reproduce_all(
        &dir,
        &["table1"],
        &[
            quick,
            ("SATIOT_SINK", "aggregate"),
            ("SATIOT_SWEEP_SHARD", "0/2"),
        ],
    );
    let stderr = String::from_utf8_lossy(&retired.stderr);
    assert!(
        plain.status.success() && retired.status.success(),
        "{stderr}"
    );
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("warning")).collect();
    assert_eq!(warnings.len(), 2, "{stderr}");
    for knob in ["SATIOT_SINK", "SATIOT_SWEEP_SHARD"] {
        let named = warnings.iter().filter(|w| w.contains(&format!("{knob} ")));
        assert_eq!(named.count(), 1, "one warning for {knob}:\n{stderr}");
    }
    assert!(warnings.iter().all(|w| w.contains("ignored")), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&retired.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "a retired knob changed the table"
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn scenario_file_drives_the_runners() {
    let dir = scratch_dir("scenario");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/tianqi_hk.scenario.json"
    );
    let out = reproduce_all(
        &dir,
        &["table1"],
        &[("SATIOT_SCENARIO", path), ("SATIOT_SCALE", "quick")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // A site's first row is Table 1's; its last column is the
    // reproduction's trace count.
    let traces = |code: &str| -> u64 {
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(code));
        let count = row.and_then(|r| r.split_whitespace().last()?.parse().ok());
        count.unwrap_or_else(|| panic!("no {code} row:\n{stdout}"))
    };
    // The scenario measures Tianqi from Hong Kong only; TOTAL sums every
    // site, so HK holding all of it leaves every other site at zero.
    assert!(traces("HK") > 0, "{stdout}");
    assert_eq!(traces("TOTAL"), traces("HK"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
