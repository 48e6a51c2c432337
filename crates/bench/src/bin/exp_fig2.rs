//! Reproduces Figure 2: the measurement node map — eight sites across
//! four continents, plus Tianqi's ground segment, on an ASCII world grid.

use satiot_bench::reports;

fn main() {
    print!("{}", reports::fig2());
}
