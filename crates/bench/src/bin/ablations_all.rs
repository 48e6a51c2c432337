//! Renders every ablation (A1–A7) and extension (E1–E4) in sequence —
//! the design-choice appendix to `reproduce_all`. Runs at full scale
//! unless `SATIOT_SCALE=quick`.

use satiot_bench::experiments::{Campaigns, ABLATIONS};
use satiot_bench::Scale;

fn main() {
    let campaigns = Campaigns::new(Scale::from_env());
    for e in ABLATIONS {
        println!("\n################ {} ################", e.title);
        print!("{}", (e.render)(&campaigns));
    }
}
