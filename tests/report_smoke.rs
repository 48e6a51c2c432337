//! Smoke test for the whole reporting surface: every section of the
//! experiment registry (paper tables and figures, ablations, and
//! extensions) renders from one quick-scale campaign set without
//! panicking and carries its headline fields — the safety net that
//! keeps `reproduce_all` and `ablations_all` runnable. It ends, as they
//! do, by proving every sweep store computed each entry exactly once
//! per residency, the sweep servers of A1 and E3 included; so it is the
//! only test in this binary.

use satiot::core::options::{RunOptions, Scale};
use satiot_bench::experiments::{Campaigns, ABLATIONS, PAPER};

#[test]
fn every_registry_section_renders_at_quick_scale() {
    // Hermetic options: machine defaults at quick scale, no env reads.
    let campaigns = Campaigns::new(RunOptions::default().with_scale(Scale::Quick));
    let sections: Vec<(&str, String)> = PAPER
        .iter()
        .chain(ABLATIONS)
        .map(|e| (e.id, (e.render)(&campaigns)))
        .collect();
    for (id, body) in &sections {
        assert!(!body.is_empty(), "{id} rendered empty");
        assert!(body.len() > 60, "{id} suspiciously short: {body:?}");
    }

    // Spot-check load-bearing content.
    let body = |id: &str| &sections.iter().find(|s| s.0 == id).expect("registered").1;
    for (id, needle) in [
        ("table1", "TOTAL"),
        ("table2", "$23.76"),
        ("table3", "Tianqi"),
        ("fig5a", "Terrestrial LoRaWAN"),
        ("fig10", "1630.0"),
        ("fig2", "Hong Kong"),
    ] {
        assert!(body(id).contains(needle), "{id} lacks {needle:?}");
    }
    satiot_bench::prove_stores_exactly_once();
}
