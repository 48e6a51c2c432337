//! The sweep server's checkpoint contract, proven the hard way: the
//! `sweep_worker` binary runs [`checkpoint_jobs`] with checkpoints on,
//! is SIGKILLed once two have landed, one survivor is corrupted, and
//! the sweep resumes in-process. It must lose at most the in-flight job
//! and come out bit-identical to an uninterrupted run. The resumed
//! outcome itself counts the resumed jobs and the rejected checkpoint.

use satiot_bench::runners::checkpoint_jobs;
use satiot_core::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn checkpoints_in(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    found.sort();
    found
}

#[test]
fn killed_sweep_resumes_bit_identically() {
    let opts = RunOptions::default();
    let jobs = checkpoint_jobs();
    let dir = std::env::temp_dir().join(format!("satiot-sweep-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The uninterrupted reference.
    let reference = SweepServer::new(opts)
        .with_spill_dir(None)
        .run(&jobs)
        .expect("reference sweep runs");
    assert_eq!(reference.records.len(), jobs.len());

    // The worker, with no inherited `SATIOT_*` knob, killed once at
    // least two checkpoints have landed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep_worker"))
        .arg(&dir)
        .env_clear()
        .spawn()
        .expect("spawn sweep_worker");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if checkpoints_in(&dir).len() >= 2 {
            child.kill().expect("SIGKILL the worker");
            break;
        }
        // A worker that finishes the whole queue first is a legal, if
        // toothless, outcome: the resume checks below still hold with
        // nothing lost.
        if child.try_wait().expect("poll the worker").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the worker wrote no checkpoints within 120 s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.wait();
    let survivors = checkpoints_in(&dir);
    assert!(
        survivors.len() >= 2,
        "expected at least two surviving checkpoints, found {}",
        survivors.len()
    );

    // Flip a byte in the middle of one survivor.
    let victim = &survivors[0];
    let mut bytes = std::fs::read(victim).expect("read the victim checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(victim, &bytes).expect("corrupt the victim checkpoint");

    // Resume and compare against the reference.
    let resumed = SweepServer::new(opts)
        .with_spill_dir(Some(&dir))
        .run(&jobs)
        .expect("resumed sweep runs");
    let intact = survivors.len() - 1;
    assert_eq!(
        resumed.jobs_resumed, intact,
        "every intact checkpoint must resume"
    );
    assert_eq!(
        resumed.jobs_run,
        jobs.len() - intact,
        "exactly the non-checkpointed jobs must re-run"
    );
    assert_eq!(
        resumed.checkpoints_rejected, 1,
        "the corrupted checkpoint must be rejected by its checksum"
    );
    assert_eq!(
        resumed.checkpoints_written, resumed.jobs_run,
        "every re-run job must checkpoint again"
    );
    assert!(
        resumed.same_results(&reference),
        "the resumed sweep diverged from the uninterrupted reference"
    );
    assert_eq!(
        resumed.merged, reference.merged,
        "merged sketches must be bit-identical"
    );
    std::fs::remove_dir_all(&dir).expect("remove the spill directory");
}
