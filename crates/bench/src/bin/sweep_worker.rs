//! The sweep-server worker that the kill-and-resume test SIGKILLs:
//! `sweep_worker <dir>` runs [`checkpoint_jobs`] with checkpoints in
//! `<dir>`.

use satiot_bench::runners::checkpoint_jobs;
use satiot_core::prelude::*;
use std::path::Path;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .expect("usage: sweep_worker <spill dir>");
    SweepServer::new(RunOptions::from_env().apply())
        .with_spill_dir(Some(Path::new(&dir)))
        .run(&checkpoint_jobs())
        .expect("worker sweep runs");
}
