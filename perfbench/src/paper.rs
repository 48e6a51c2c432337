//! `paper_full`: the full-scale `reproduce_all` campaign set, cold.
//!
//! The passive campaign (every Table-1 site over its whole span, every
//! Table-3 constellation), twelve active runs over eleven distinct
//! configurations, the terrestrial baseline, and every report
//! including Fig 3a.

use crate::checks::{self, Ops};
use crate::peel::{self, Plan};
use crate::probe;
use crate::trace::Trace;
use crate::{setup_median, Ctx, Outcome};
use satiot_bench::reports;
use satiot_channel::antenna::AntennaPattern;
use satiot_channel::weather::Weather;
use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_measure::latency::LatencyBreakdown;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

/// Days of the Fig 3a theoretical-availability analysis at full scale.
const FIG3A_DAYS: u32 = 14;

struct Inputs {
    passive: PassiveConfig,
    active: ActiveConfig,
    terrestrial: TerrestrialConfig,
    plan: Plan,
}

fn setup(seed: u64) -> (Inputs, f64) {
    let mut spec = ScenarioSpec::paper_passive();
    spec.seed = Some(seed);
    let (scenario, build) = probe::timed(|| spec.build().expect("paper scenario resolves"));
    let passive = PassiveConfig::from_scenario(&scenario);
    let inputs = Inputs {
        plan: Plan::new(&passive),
        active: ActiveConfig::from_scenario(&scenario),
        terrestrial: TerrestrialConfig::from_scenario(&scenario),
        passive,
    };
    (inputs, build.wall_s)
}

/// The twelve active runs of `reproduce_all` (`nodes 3` repeats the
/// default configuration, as there).
fn active_variants(base: &ActiveConfig) -> Vec<(String, ActiveConfig)> {
    let with = |f: &dyn Fn(&mut ActiveConfig)| {
        let mut c = base.clone();
        f(&mut c);
        c
    };
    let mut out = vec![
        ("default".to_string(), base.clone()),
        ("no-retx".to_string(), with(&|c| c.max_attempts = 1)),
    ];
    for (label, antenna, weather) in [
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
    ] {
        let cfg = with(&|c| {
            c.node_antenna = antenna;
            c.weather_override = Some(weather);
        });
        out.push((label.to_string(), cfg));
    }
    for payload in [10usize, 60, 120] {
        out.push((
            format!("payload {payload}"),
            with(&|c| c.payload_bytes = payload),
        ));
    }
    for nodes in [1u32, 2, 3] {
        out.push((format!("nodes {nodes}"), with(&|c| c.nodes = nodes)));
    }
    out
}

/// Every report `reproduce_all` renders from the campaigns, except
/// Fig 3a (timed on its own) and the Fig 2 map (a separate binary).
fn render(
    passive: &PassiveResults,
    actives: &[(String, ActiveResults)],
    terrestrial: &satiot_terrestrial::campaign::TerrestrialResults,
) -> Vec<String> {
    let active = &actives[0].1;
    let no_retx = &actives[1].1;
    let fig5b: Vec<(&str, &ActiveResults)> =
        actives[2..6].iter().map(|(l, r)| (l.as_str(), r)).collect();
    let fig12a: Vec<(usize, &ActiveResults)> = [10, 60, 120]
        .into_iter()
        .zip(&actives[6..9])
        .map(|(p, (_, r))| (p, r))
        .collect();
    let fig12b: Vec<(u32, &ActiveResults)> = [1, 2, 3]
        .into_iter()
        .zip(&actives[9..12])
        .map(|(n, (_, r))| (n, r))
        .collect();
    vec![
        reports::table1(passive),
        reports::table2(),
        reports::table3(passive),
        reports::fig3b(passive),
        reports::fig3c(passive),
        reports::fig3d(passive),
        reports::fig4a(passive),
        reports::fig4b(passive),
        reports::fig5a(terrestrial, no_retx, active),
        reports::fig5b(&fig5b),
        reports::fig5c(terrestrial, active),
        reports::fig5d(active),
        reports::fig6(active, terrestrial),
        reports::fig8(passive),
        reports::fig9(passive),
        reports::fig10(),
        reports::fig11(terrestrial),
        reports::fig12a(&fig12a),
        reports::fig12b(&fig12b),
    ]
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup_s, build_s) = setup_median(|| setup(ctx.seed));
    let mut trace = Trace::new(ctx.traced, ctx.threads);
    trace.set("scenarios.build_s", build_s);
    let Inputs {
        passive: passive_cfg,
        active: active_cfg,
        terrestrial: terrestrial_cfg,
        plan,
    } = inputs;
    let full_scale = passive_cfg.max_days.is_infinite()
        && passive_cfg.sites.len() == 8
        && passive_cfg.constellations.len() == 4
        && active_cfg.days == 30.0
        && terrestrial_cfg.days == 30.0;

    let (result, measured) = probe::timed(|| -> Result<_, String> {
        if trace.on {
            peel::predict(&plan, &mut trace);
        }
        let (passive, _) = peel::campaign(passive_cfg, ctx.opts, &mut trace)
            .map_err(|e| format!("passive: {e}"))?;

        let c0 = probe::counters();
        let mut actives = Vec::new();
        let mut run_s = Vec::new();
        for (label, cfg) in active_variants(&active_cfg) {
            let (r, span) = trace.step(|| ActiveCampaign::new(cfg).run(ctx.opts));
            run_s.push(span.wall_s);
            actives.push((
                label.clone(),
                r.map_err(|e| format!("active {label}: {e}"))?,
            ));
        }
        let c1 = probe::counters();
        trace.set("core.active.run_s", probe::median(&run_s));
        let samples = probe::delta(&c0, &c1, "orbit.ephemeris.grid_samples");
        trace.set("core.active.grid_samples", samples as f64);
        let events = probe::delta(&c0, &c1, "sim.engine.events_processed");
        trace.set("sim.engine.events_processed", events as f64);
        trace.set("core.active.reliability", actives[0].1.reliability());

        let (terrestrial, span) = trace.step(|| TerrestrialCampaign::new(terrestrial_cfg).run());
        let terrestrial = terrestrial.map_err(|e| format!("terrestrial: {e}"))?;
        trace.set("terrestrial.run_s", span.wall_s);

        let c2 = probe::counters();
        let (fig3a, span) = trace.step(|| reports::fig3a(FIG3A_DAYS));
        let c3 = probe::counters();
        trace.set("reports.fig3a_s", span.wall_s);
        let samples = probe::delta(&c2, &c3, "orbit.ephemeris.grid_samples");
        trace.set("reports.fig3a_grid_samples", samples as f64);
        let (mut rendered, span) = trace.step(|| render(&passive, &actives, &terrestrial));
        trace.set("reports.render_s", span.wall_s);
        rendered.push(fig3a);
        Ok((passive, actives, terrestrial, rendered))
    });
    let (passive, actives, terrestrial, rendered) = result?;
    trace.coverage(measured);

    let mut ops = Ops::default();
    let shrink = |c: &str| {
        let covered = passive.contact_stats_covered(c, &[]).duration_shrink;
        checks::windows_shrink(c, covered, passive.contact_stats(c, &[]).duration_shrink)
    };
    let (received, transmitted) = passive.covered_passes().fold((0, 0), |(r, t), p| {
        (
            r + p.window.received as u64,
            t + p.window.transmitted as u64,
        )
    });
    let (passes, grids) = (sweep::stats(), sweep::grid_stats());
    ops.op(
        "passive",
        [
            checks::scale("paper_full", full_scale),
            shrink("Tianqi"),
            shrink("FOSSA"),
            checks::intervals_expand(passive.contact_stats("Tianqi", &[]).interval_expansion()),
            checks::beacons_mostly_lost(received, transmitted),
            checks::exactly_once("pass cache", passes.computes, passes.entries),
            checks::exactly_once("grid store", grids.computes, grids.entries),
        ],
    );
    let latency = |t: &[_]| LatencyBreakdown::compute(t).end_to_end_min.mean;
    let with_retx = actives[0].1.reliability();
    for (label, r) in &actives {
        let check = match label.as_str() {
            "default" => {
                checks::latency_ratio(latency(&r.timelines), latency(&terrestrial.timelines))
            }
            "no-retx" => checks::retx_lifts_reliability(with_retx, r.reliability()),
            _ => None,
        };
        ops.op(format!("active {label}"), [check]);
    }
    ops.op("terrestrial", [None]);
    let empty = rendered.iter().filter(|r| r.trim().is_empty()).count();
    ops.op(
        "reports",
        [(empty > 0).then(|| format!("{empty} reports rendered empty"))],
    );
    Ok(Outcome {
        setup_s,
        measured,
        jobs: ops.0.len() as u64,
        ops,
        trace,
    })
}
