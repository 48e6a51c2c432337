//! `reproduce_all <id>...` renders only the named registry sections: an
//! unknown id is rejected before any work with the list of valid ids,
//! and a named section prints without writing `EXPERIMENTS.md`.

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

fn reproduce_all(dir: &Path, ids: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
        .args(ids)
        .current_dir(dir)
        .output()
        .expect("spawn reproduce_all")
}

#[test]
fn unknown_id_exits_2_and_names_the_valid_ids() {
    let dir = scratch_dir("unknown");
    let out = reproduce_all(&dir, &["table1", "fig99"]);
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
    let out = reproduce_all(&dir, &["table2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains(&reports::table2()), "{stdout}");
    assert!(!dir.join("EXPERIMENTS.md").exists());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
