//! Smoke test for the full reporting surface: every table/figure
//! formatter must render from miniature campaign results without
//! panicking and must carry its headline fields — the safety net that
//! keeps `reproduce_all` runnable.

use satiot::core::active::{ActiveCampaign, ActiveConfig};
use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

use satiot::core::RunOptions;

/// Hermetic run options: machine defaults, no env reads.
fn opts() -> RunOptions {
    RunOptions::default()
}
use satiot_bench::reports;

#[test]
fn every_report_renders_from_a_one_day_campaign() {
    let mut pcfg = PassiveConfig {
        max_days: 1.5,
        ..Default::default()
    };
    pcfg.sites.retain(|s| {
        matches!(
            s.code,
            "HK" | "SYD" | "LDN" | "PGH" | "SH" | "GZ" | "NC" | "YC"
        )
    });
    let passive = PassiveCampaign::new(pcfg).run(&opts()).unwrap();
    let active = ActiveCampaign::new(ActiveConfig::quick(1.0))
        .run(&opts())
        .unwrap();
    let terrestrial = TerrestrialCampaign::new(TerrestrialConfig {
        days: 1.0,
        ..Default::default()
    })
    .run()
    .unwrap();

    let sections = [
        ("Table 1", reports::table1(&passive)),
        ("Table 2", reports::table2()),
        ("Table 3", reports::table3(&passive)),
        ("Fig 3a", reports::fig3a(1)),
        ("Fig 3b", reports::fig3b(&passive)),
        ("Fig 3c", reports::fig3c(&passive)),
        ("Fig 3d", reports::fig3d(&passive)),
        ("Fig 4a", reports::fig4a(&passive)),
        ("Fig 4b", reports::fig4b(&passive)),
        ("Fig 5a", reports::fig5a(&terrestrial, &active, &active)),
        ("Fig 5b", reports::fig5b(&[("one", &active)])),
        ("Fig 5c", reports::fig5c(&terrestrial, &active)),
        ("Fig 5d", reports::fig5d(&active)),
        ("Fig 6", reports::fig6(&active, &terrestrial)),
        ("Fig 8", reports::fig8(&passive)),
        ("Fig 9", reports::fig9(&passive)),
        ("Fig 10", reports::fig10()),
        ("Fig 11", reports::fig11(&terrestrial)),
        ("Fig 12a", reports::fig12a(&[(20, &active)])),
        ("Fig 12b", reports::fig12b(&[(3, &active)])),
        ("Fig 2", reports::fig2()),
    ];
    for (name, body) in &sections {
        assert!(!body.is_empty(), "{name} rendered empty");
        assert!(body.len() > 60, "{name} suspiciously short: {body:?}");
    }

    // Spot-check load-bearing content.
    assert!(sections[0].1.contains("TOTAL"));
    assert!(sections[1].1.contains("$23.76"));
    assert!(sections[2].1.contains("Tianqi"));
    assert!(sections[9].1.contains("Terrestrial LoRaWAN"));
    assert!(sections[16].1.contains("1630.0"));
    assert!(sections[20].1.contains("Hong Kong"));
}
