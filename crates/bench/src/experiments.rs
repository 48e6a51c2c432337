//! The experiment registry: every section the bench binaries render,
//! listed once.
//!
//! An [`Experiment`] pairs an id (`table1`, `fig5a`, `ablation_retx`,
//! …) and a section title with a renderer that reads its campaign
//! results from a shared [`Campaigns`] value. `reproduce_all` renders
//! [`PAPER`] into `EXPERIMENTS.md`, or the ids it is given;
//! `ablations_all` renders [`ABLATIONS`], the ablations and extensions
//! E1–E7.
//!
//! [`Campaigns`] runs each shared campaign at most once, on first use,
//! so a set of sections costs exactly the campaigns it reads: `fig10`
//! runs none, `fig5a` runs the terrestrial baseline and two active
//! campaigns, and the whole paper set runs each campaign once.

use crate::{ablations, extensions, reports, runners, Scale};
use satiot_channel::antenna::AntennaPattern;
use satiot_channel::weather::Weather;
use satiot_core::active::ActiveResults;
use satiot_core::options::RunOptions;
use satiot_core::passive::PassiveResults;
use satiot_terrestrial::campaign::TerrestrialResults;
use std::cell::OnceCell;

/// One renderable section.
#[derive(Debug)]
pub struct Experiment {
    /// Selector for `reproduce_all <id>`.
    pub id: &'static str,
    /// Section title; for [`PAPER`], the `EXPERIMENTS.md` heading.
    pub title: &'static str,
    /// Renders the section's text.
    pub render: fn(&Campaigns) -> String,
}

const fn exp(
    id: &'static str,
    title: &'static str,
    render: fn(&Campaigns) -> String,
) -> Experiment {
    Experiment { id, title, render }
}

/// The paper's tables and figures, in `EXPERIMENTS.md` order.
#[rustfmt::skip]
pub const PAPER: &[Experiment] = &[
    exp("fig2", "Figure 2 — measurement node map", |_| reports::fig2()),
    exp("table1", "Table 1 — dataset overview", |c| reports::table1(c.passive())),
    exp("table2", "Table 2 — expenditure comparison", |_| reports::table2()),
    exp("table3", "Table 3 — constellation overview", |c| reports::table3(c.passive())),
    exp("fig3a", "Figure 3a — daily presence", |c| reports::fig3a(c.scale().availability_days())),
    exp("fig3b", "Figure 3b — signal strength", |c| reports::fig3b(c.passive())),
    exp("fig3c", "Figure 3c — RSSI vs distance", |c| reports::fig3c(c.passive())),
    exp("fig3d", "Figure 3d — reception vs weather", |c| reports::fig3d(c.passive())),
    exp("fig4a", "Figure 4a — contact durations", |c| reports::fig4a(c.passive())),
    exp("fig4b", "Figure 4b — contact intervals", |c| reports::fig4b(c.passive())),
    exp("fig5a", "Figure 5a — reliability", |c| {
        reports::fig5a(c.terrestrial(), c.active_no_retx(), c.active())
    }),
    exp("fig5b", "Figure 5b — retransmissions", |c| reports::fig5b(&c.fig5b_runs())),
    exp("fig5c", "Figure 5c — latency", |c| reports::fig5c(c.terrestrial(), c.active())),
    exp("fig5d", "Figure 5d — latency decomposition", |c| reports::fig5d(c.active())),
    exp("fig6", "Figure 6 — node energy & battery", |c| reports::fig6(c.active(), c.terrestrial())),
    exp("fig8", "Figure 8 — DtS distances", |c| reports::fig8(c.passive())),
    exp("fig9", "Figure 9 — receptions within windows", |c| reports::fig9(c.passive())),
    exp("fig10", "Figure 10 — terrestrial power", |_| reports::fig10()),
    exp("fig11", "Figure 11 — terrestrial breakdown", |c| reports::fig11(c.terrestrial())),
    exp("fig12a", "Figure 12a — payload sweep", |c| reports::fig12a(&c.payload_runs())),
    exp("fig12b", "Figure 12b — concurrency sweep", |c| reports::fig12b(&c.node_runs())),
];

/// The design-choice ablations (A1–A7) and extensions (E1–E7).
#[rustfmt::skip]
pub const ABLATIONS: &[Experiment] = &[
    exp("ablation_scheduler", "Ablation A1 — scheduler policy", ablations::scheduler),
    exp("ablation_retx", "Ablation A2 — retransmission cap", ablations::retx),
    exp("ablation_buffer", "Ablation A3 — node buffer size", ablations::buffer),
    exp("ablation_beacon", "Ablation A4 — beacon interval", ablations::beacon),
    exp("ablation_downlink", "Ablation A5 — downlink congestion", ablations::downlink),
    exp("ablation_doppler", "Ablation A6 — Doppler pre-compensation", ablations::doppler),
    exp("ablation_sf", "Ablation A7 — spreading factor", ablations::spreading_factor),
    exp("extension_solar", "Extension E1 — solar harvesting", ablations::solar),
    exp("extension_mac", "Extension E2 — slotted MAC", ablations::mac),
    exp("extension_cost", "Extension E3 — cost crossover", ablations::cost),
    exp("extension_gateways", "Extension E4 — gateway redundancy", ablations::gateways),
    exp("extension_megascale", "Extension E5 — mega-shell availability", extensions::megascale),
    exp("extension_disrupted", "Extension E6 — disrupted comms", extensions::disrupted),
    exp("extension_mobile", "Extension E7 — mobile tracker", extensions::mobile),
];

/// The paper or ablation section with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    PAPER.iter().chain(ABLATIONS).find(|e| e.id == id)
}

/// Figure 5b's antenna × weather conditions, in report order.
const FIG5B_CONDITIONS: [(&str, AntennaPattern, Weather); 4] = [
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

/// Figure 12a's payload sizes, bytes.
const PAYLOADS: [usize; 3] = [10, 60, 120];

/// Figure 12b's concurrent-sender counts.
const NODE_COUNTS: [u32; 3] = [1, 2, 3];

/// The campaigns the paper sections share, each run at most once, on
/// first use, with one set of [`RunOptions`] (and so at one [`Scale`]).
#[derive(Default)]
pub struct Campaigns {
    opts: RunOptions,
    passive: OnceCell<PassiveResults>,
    active: OnceCell<ActiveResults>,
    active_no_retx: OnceCell<ActiveResults>,
    terrestrial: OnceCell<TerrestrialResults>,
    fig5b: OnceCell<Vec<ActiveResults>>,
    payload: OnceCell<Vec<ActiveResults>>,
    nodes: OnceCell<Vec<ActiveResults>>,
}

/// Run `campaign` into `cell` unless it already holds a result,
/// announcing the run on stderr.
fn once<'a, T>(cell: &'a OnceCell<T>, what: &str, campaign: impl FnOnce() -> T) -> &'a T {
    cell.get_or_init(|| {
        eprintln!("running {what}…");
        campaign()
    })
}

impl Campaigns {
    /// Campaigns run with `opts`; nothing runs until a section asks.
    pub fn new(opts: RunOptions) -> Campaigns {
        Campaigns {
            opts,
            ..Campaigns::default()
        }
    }

    /// The options every campaign runs with.
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// The scale every campaign runs at.
    pub fn scale(&self) -> Scale {
        self.opts.scale
    }

    /// The passive campaign.
    pub fn passive(&self) -> &PassiveResults {
        once(&self.passive, "passive campaign", || {
            runners::run_passive(&self.opts)
        })
    }

    /// The default active campaign.
    pub fn active(&self) -> &ActiveResults {
        once(&self.active, "active campaign (default)", || {
            runners::run_active_with(&self.opts, |_| {})
        })
    }

    /// The active campaign without retransmissions.
    pub fn active_no_retx(&self) -> &ActiveResults {
        once(
            &self.active_no_retx,
            "active campaign (no retransmissions)",
            || runners::run_active_with(&self.opts, |c| c.max_attempts = 1),
        )
    }

    /// The terrestrial baseline.
    pub fn terrestrial(&self) -> &TerrestrialResults {
        once(&self.terrestrial, "terrestrial baseline", || {
            runners::run_terrestrial_with(&self.opts, |_| {})
        })
    }

    /// Figure 5b's four antenna × weather runs, labelled.
    pub fn fig5b_runs(&self) -> Vec<(&'static str, &ActiveResults)> {
        let runs = once(&self.fig5b, "active sweep (antenna × weather)", || {
            FIG5B_CONDITIONS
                .iter()
                .map(|&(_, antenna, weather)| {
                    runners::run_active_with(&self.opts, |c| {
                        c.node_antenna = antenna;
                        c.weather_override = Some(weather);
                    })
                })
                .collect()
        });
        FIG5B_CONDITIONS.iter().map(|c| c.0).zip(runs).collect()
    }

    /// Figure 12a's three payload-size runs, keyed by payload bytes.
    pub fn payload_runs(&self) -> Vec<(usize, &ActiveResults)> {
        let runs = once(&self.payload, "active sweep (payload)", || {
            PAYLOADS
                .iter()
                .map(|&p| runners::run_active_with(&self.opts, |c| c.payload_bytes = p))
                .collect()
        });
        PAYLOADS.into_iter().zip(runs).collect()
    }

    /// Figure 12b's three node-count runs, keyed by concurrent senders.
    pub fn node_runs(&self) -> Vec<(u32, &ActiveResults)> {
        let runs = once(&self.nodes, "active sweep (concurrency)", || {
            NODE_COUNTS
                .iter()
                .map(|&n| runners::run_active_with(&self.opts, |c| c.nodes = n))
                .collect()
        });
        NODE_COUNTS.into_iter().zip(runs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let ids: Vec<&str> = PAPER.iter().chain(ABLATIONS).map(|e| e.id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "duplicate experiment id {id}");
        }
        assert_eq!((PAPER.len(), ABLATIONS.len()), (21, 14));
    }

    #[test]
    fn paper_titles_match_the_committed_experiments_md() {
        let md = include_str!("../../../EXPERIMENTS.md");
        let headings: Vec<&str> = md.lines().filter_map(|l| l.strip_prefix("## ")).collect();
        let titles: Vec<&str> = PAPER.iter().map(|e| e.title).collect();
        assert_eq!(headings[..titles.len()], titles[..]);
        assert_eq!(
            headings[titles.len()..],
            ["Known divergences from the paper"]
        );
    }

    #[test]
    fn campaign_free_sections_run_no_campaign() {
        let c = Campaigns::new(RunOptions::default().with_scale(Scale::Quick));
        for id in ["fig2", "table2", "fig10", "ablation_sf"] {
            assert!(!(find(id).expect("registered").render)(&c).is_empty());
        }
        assert!(c.passive.get().is_none() && c.active.get().is_none());
        assert!(c.terrestrial.get().is_none());
    }
}
