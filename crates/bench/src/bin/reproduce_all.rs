//! Runs every experiment and writes `EXPERIMENTS.md` at the repository
//! root: the paper-vs-measured record for every table and figure.
//!
//! Campaigns are run once and shared across reports. At full scale this
//! takes a few minutes; set `SATIOT_SCALE=quick` for a fast smoke pass.

use satiot_bench::{reports, runners, Scale};
use satiot_channel::antenna::AntennaPattern;
use satiot_channel::weather::Weather;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
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
        scale
    );

    eprintln!("[1/6] passive campaign…");
    let passive = runners::run_passive(scale);
    eprintln!("[2/6] active campaign (default)…");
    let active = runners::run_active(scale);
    eprintln!("[3/6] active campaign (no retransmissions)…");
    let active_no_retx = runners::run_active_with(scale, |c| c.max_attempts = 1);
    eprintln!("[4/6] terrestrial baseline…");
    let terrestrial = runners::run_terrestrial(scale);

    eprintln!("[5/6] active sweeps (antenna/weather, payload, concurrency)…");
    let fig5b_conditions: [(&str, AntennaPattern, Weather); 4] = [
        (
            "5/8-wave, sunny",
            AntennaPattern::FiveEighthsWaveMonopole,
            Weather::Sunny,
        ),
        (
            "5/8-wave, rainy",
            AntennaPattern::FiveEighthsWaveMonopole,
            Weather::Rainy,
        ),
        (
            "1/4-wave, sunny",
            AntennaPattern::QuarterWaveMonopole,
            Weather::Sunny,
        ),
        (
            "1/4-wave, rainy",
            AntennaPattern::QuarterWaveMonopole,
            Weather::Rainy,
        ),
    ];
    let fig5b_runs: Vec<_> = fig5b_conditions
        .iter()
        .map(|(label, antenna, weather)| {
            let r = runners::run_active_with(scale, |c| {
                c.node_antenna = *antenna;
                c.weather_override = Some(*weather);
            });
            (*label, r)
        })
        .collect();
    let payload_runs: Vec<(usize, _)> = [10usize, 60, 120]
        .iter()
        .map(|&p| (p, runners::run_active_with(scale, |c| c.payload_bytes = p)))
        .collect();
    let node_runs: Vec<(u32, _)> = [1u32, 2, 3]
        .iter()
        .map(|&n| (n, runners::run_active_with(scale, |c| c.nodes = n)))
        .collect();

    eprintln!("[6/6] rendering reports…");
    let sections: Vec<(&str, String)> = vec![
        ("Figure 2 — measurement node map", reports::fig2()),
        ("Table 1 — dataset overview", reports::table1(&passive)),
        ("Table 2 — expenditure comparison", reports::table2()),
        (
            "Table 3 — constellation overview",
            reports::table3(&passive),
        ),
        (
            "Figure 3a — daily presence",
            reports::fig3a(scale.availability_days()),
        ),
        ("Figure 3b — signal strength", reports::fig3b(&passive)),
        ("Figure 3c — RSSI vs distance", reports::fig3c(&passive)),
        ("Figure 3d — reception vs weather", reports::fig3d(&passive)),
        ("Figure 4a — contact durations", reports::fig4a(&passive)),
        ("Figure 4b — contact intervals", reports::fig4b(&passive)),
        (
            "Figure 5a — reliability",
            reports::fig5a(&terrestrial, &active_no_retx, &active),
        ),
        ("Figure 5b — retransmissions", {
            let refs: Vec<(&str, &_)> = fig5b_runs.iter().map(|(l, r)| (*l, r)).collect();
            reports::fig5b(&refs)
        }),
        ("Figure 5c — latency", reports::fig5c(&terrestrial, &active)),
        ("Figure 5d — latency decomposition", reports::fig5d(&active)),
        (
            "Figure 6 — node energy & battery",
            reports::fig6(&active, &terrestrial),
        ),
        ("Figure 8 — DtS distances", reports::fig8(&passive)),
        (
            "Figure 9 — receptions within windows",
            reports::fig9(&passive),
        ),
        ("Figure 10 — terrestrial power", reports::fig10()),
        (
            "Figure 11 — terrestrial breakdown",
            reports::fig11(&terrestrial),
        ),
        ("Figure 12a — payload sweep", {
            let refs: Vec<(usize, &_)> = payload_runs.iter().map(|(p, r)| (*p, r)).collect();
            reports::fig12a(&refs)
        }),
        ("Figure 12b — concurrency sweep", {
            let refs: Vec<(u32, &_)> = node_runs.iter().map(|(n, r)| (*n, r)).collect();
            reports::fig12b(&refs)
        }),
    ];

    for (title, body) in &sections {
        println!("\n################ {title} ################\n{body}");
        let _ = writeln!(md, "## {title}\n\n```text\n{body}```\n");
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
         * **Figures 1 and 7** are an architecture diagram and equipment\n\
           photographs — not data figures; the architecture is documented in\n\
           README/DESIGN and the Figure 2 site map is reproduced above.\n"
    );

    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    eprintln!(
        "\nWrote EXPERIMENTS.md ({} sections) in {:.1} s",
        sections.len(),
        t0.elapsed().as_secs_f64()
    );

    // Every campaign above went through the shared pass-prediction
    // cache; `computes == entries` proves each (site, satellite) pass
    // list was predicted exactly once this process.
    let cache = satiot_core::sweep::stats();
    eprintln!(
        "pass cache: {} lookups, {} computed, {} served from cache ({} entries)",
        cache.lookups,
        cache.computes,
        cache.hits(),
        cache.entries
    );
    assert_eq!(
        cache.computes, cache.entries as u64,
        "a pass list was predicted more than once"
    );

    // The predict phases draw from the shared ephemeris-grid store; the
    // same exactly-once proof applies to the SGP4 sampling sweeps.
    let grids = satiot_core::sweep::grid_stats();
    eprintln!(
        "ephemeris grids: {} lookups, {} built, {} served shared ({} entries)",
        grids.lookups,
        grids.computes,
        grids.hits(),
        grids.entries
    );
    assert_eq!(
        grids.computes, grids.entries as u64,
        "an ephemeris grid was sampled more than once"
    );

    // With SATIOT_METRICS=1, every instrumented subsystem has been
    // recording into the global registry; dump it for inspection.
    if satiot_obs::metrics::enabled() {
        eprintln!("\n{}", satiot_obs::metrics::report());
    }
}
