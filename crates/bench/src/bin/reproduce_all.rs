//! Renders the paper's tables and figures from one shared campaign set.
//!
//! With no arguments, renders every section of [`PAPER`] and writes
//! `EXPERIMENTS.md` in the working directory: the paper-vs-measured
//! record. With arguments, each must be a registry id (`table1`,
//! `fig5a`, `ablation_retx`, …; see `satiot_bench::experiments`): the
//! named sections print to stdout in argument order, only the campaigns
//! they read run, and no file is written. An unknown id exits with
//! status 2 and lists the valid ids.
//!
//! Either way each shared campaign runs at most once, and the run ends
//! by proving that every pass list, ephemeris grid view and ephemeris
//! tile was computed exactly once, then writes the metrics report to
//! stderr. The full-scale paper set takes about
//! 8 s on two cores; set `SATIOT_SCALE=quick` for a fast pass. The `SATIOT_*`
//! knobs are read once, here, before anything runs.

use satiot_bench::experiments::{self, Campaigns, Experiment, ABLATIONS, PAPER};
use satiot_core::options::RunOptions;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = match args
        .iter()
        .map(|id| experiments::find(id).ok_or(id))
        .collect()
    {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("reproduce_all: unknown experiment id `{unknown}`; valid ids:");
            for e in PAPER.iter().chain(ABLATIONS) {
                eprintln!("  {:<20} {}", e.id, e.title);
            }
            std::process::exit(2);
        }
    };
    let campaigns = Campaigns::new(RunOptions::from_env().apply());
    if selected.is_empty() {
        write_experiments_md(&campaigns);
    } else {
        for e in selected {
            print_section(e.title, &(e.render)(&campaigns));
        }
    }

    satiot_bench::prove_stores_exactly_once();

    // Every instrumented subsystem has been recording into the global
    // registry; dump it for inspection.
    eprintln!("\n{}", satiot_obs::metrics::report());
}

fn print_section(title: &str, body: &str) {
    println!("\n################ {title} ################\n{body}");
}

/// Render every paper section to stdout and to `EXPERIMENTS.md`.
fn write_experiments_md(campaigns: &Campaigns) {
    let t0 = Instant::now();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. reproduction\n\n\
         Generated by `cargo run --release -p satiot-bench --bin reproduce_all`\n\
         (scale: {:?}). Every section below regenerates one table or figure of\n\
         *Satellite IoT in Practice* (IMC 2025) from the simulation toolkit; see\n\
         `DESIGN.md` for the substitution ledger and calibration notes.\n\n\
         The reproduction targets the paper's *shape* — orderings, ratios and\n\
         crossovers — not its absolute trace counts, which depend on the\n\
         authors' exact hardware uptime.\n",
        campaigns.scale()
    );
    for e in PAPER {
        let body = (e.render)(campaigns);
        print_section(e.title, &body);
        let _ = writeln!(md, "## {}\n\n```text\n{body}```\n", e.title);
    }

    let _ = writeln!(
        md,
        "## Known divergences from the paper\n\n\
         * **Absolute trace counts** track the paper's order of magnitude but\n\
           not its per-site values (notably London's anomalously low 799\n\
           traces, which the paper does not explain) — station uptime of $30\n\
           crowd-sourced hardware is not modelled per-site.\n\
         * **DtS latency segment** (Fig 5d): our protocol retries on later\n\
           beacons of the same contact after a short backoff, recovering in\n\
           ~1–3 min where Tianqi's pipeline takes 10.4 min on average; the\n\
           other two segments and the end-to-end ratio match.\n\
         * **Figure 6d absolute lifetimes** use a deployment-grade sleep\n\
           current: the paper's own bench sleep power (19.1 mW, Fig 10) would\n\
           drain the 5 Ah pack in 40 days by itself, so its 718-day projection\n\
           cannot use that number either (see `satiot-energy` docs).\n\
         * **Figure 12b concurrency** is flat, not degrading: end-to-end\n\
           reliability for 1/2/3 concurrent nodes stays near 98 % in the\n\
           table above (98.24/98.29/98.36 % as 8-seed means, s.d.\n\
           0.14–0.28 pp), where the paper falls from 94 % to 89 %. Over the\n\
           same seeds the modelled uplink contention raises the per-attempt\n\
           collision share only from 2.2 % to 2.7 %; what makes the paper's\n\
           loss steeper is not modelled.\n\
         * **Figures 1 and 7** are an architecture diagram and equipment\n\
           photographs — not data figures; the architecture is documented in\n\
           README/DESIGN and the Figure 2 site map is reproduced above.\n"
    );

    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    eprintln!(
        "\nWrote EXPERIMENTS.md ({} sections) in {:.1} s",
        PAPER.len(),
        t0.elapsed().as_secs_f64()
    );
}
