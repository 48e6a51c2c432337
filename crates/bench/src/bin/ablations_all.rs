//! Renders every ablation (A1–A7) and extension (E1–E7) in sequence —
//! the design-choice appendix to `reproduce_all` — and ends, as it
//! does, by proving that every pass list, ephemeris grid view and
//! ephemeris tile was computed exactly once. Runs at full scale unless
//! `SATIOT_SCALE=quick`.

use satiot_bench::experiments::{Campaigns, ABLATIONS};
use satiot_core::options::RunOptions;

fn main() {
    let campaigns = Campaigns::new(RunOptions::from_env().apply());
    for e in ABLATIONS {
        println!("\n################ {} ################", e.title);
        print!("{}", (e.render)(&campaigns));
    }
    satiot_bench::prove_stores_exactly_once();
}
