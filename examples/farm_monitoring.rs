//! The paper's motivating workload: a remote coffee plantation reporting
//! 20-byte sensor readings every 30 minutes — through the Tianqi
//! constellation and through a terrestrial LoRaWAN twin — and the
//! decision numbers an operator would compare.
//!
//! Run with: `cargo run --release --example farm_monitoring [days]`

use satiot::core::prelude::*;
use satiot::econ::{
    crossover_month, satellite_cost, terrestrial_cost, Deployment, SatellitePricing,
    TerrestrialPricing,
};
use satiot::energy::battery::Battery;
use satiot::energy::profile::{SatNodeDeploymentProfile, TerrestrialDeploymentProfile};
use satiot::measure::latency::LatencyBreakdown;
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

fn main() {
    let days: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7.0);
    println!("Simulating {days} days of the Yunnan farm deployment…\n");

    let sat = ActiveCampaign::new(ActiveConfig::quick(days))
        .run(&RunOptions::from_env().apply())
        .unwrap();
    let terr = TerrestrialCampaign::new(TerrestrialConfig {
        days,
        ..Default::default()
    })
    .run()
    .unwrap();

    let sb = LatencyBreakdown::compute(&sat.timelines);
    let tb = LatencyBreakdown::compute(&terr.timelines);

    println!("                         satellite (Tianqi)   terrestrial (LoRaWAN+LTE)");
    println!(
        "packets sent             {:>10}            {:>10}",
        sat.timelines.len(),
        terr.timelines.len()
    );
    println!(
        "delivery reliability     {:>9.1}%            {:>9.1}%",
        sat.reliability() * 100.0,
        terr.reliability() * 100.0
    );
    println!(
        "mean e2e latency         {:>7.1} min           {:>7.2} min",
        sb.end_to_end_min.mean, tb.end_to_end_min.mean
    );
    println!(
        "p90 e2e latency          {:>7.1} min           {:>7.2} min",
        sb.end_to_end_min.p90, tb.end_to_end_min.p90
    );

    let battery = Battery::paper_5ah();
    let sat_power = sat.node_energy[0]
        .re_profile(&SatNodeDeploymentProfile)
        .average_power_mw();
    let terr_power = terr.node_energy[0]
        .re_profile(&TerrestrialDeploymentProfile)
        .average_power_mw();
    println!(
        "battery life (5 Ah)      {:>7.0} days          {:>7.0} days",
        battery.lifetime_days(sat_power),
        battery.lifetime_days(terr_power)
    );

    let deployment = Deployment::paper_farm();
    let sat_cost = satellite_cost(&SatellitePricing::default(), &deployment);
    let terr_cost = terrestrial_cost(&TerrestrialPricing::default(), &deployment);
    println!(
        "upfront cost             {:>9.0} USD          {:>9.0} USD",
        sat_cost.device_usd + sat_cost.infrastructure_usd,
        terr_cost.device_usd + terr_cost.infrastructure_usd
    );
    println!(
        "monthly cost             {:>9.2} USD          {:>9.2} USD",
        sat_cost.monthly_usd, terr_cost.monthly_usd
    );
    if let Some(m) = crossover_month(&sat_cost, &terr_cost) {
        println!("\nTerrestrial total cost overtakes satellite after {m:.1} months —");
        println!("satellite IoT wins on *coverage*, not on cost (the paper's conclusion).");
    }

    println!("\nLatency decomposition of the satellite path (paper Fig 5d):");
    println!("  wait for pass      {:>6.1} min", sb.wait_min.mean);
    println!("  DtS transmissions  {:>6.1} min", sb.dts_min.mean);
    println!("  delivery           {:>6.1} min", sb.delivery_min.mean);
}
