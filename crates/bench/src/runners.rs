//! Campaign runners at the options' scale.
//!
//! The [`Scale`] type itself lives in `satiot_core::options` (one
//! `SATIOT_*` parsing site for the whole workspace); it is re-exported
//! here for the experiment registry. Every runner takes the
//! [`RunOptions`] the registry's [`Campaigns`](crate::experiments::Campaigns)
//! carries: a binary parses them once in `main`, and a test builds them
//! by hand, so no runner reads the environment.
//!
//! ## Scenario files
//!
//! Every runner derives its campaign configuration from one resolved
//! scenario, [`scenario`]: the `.scenario.json` file that
//! `SATIOT_SCENARIO=<path>` names, loaded through
//! [`ScenarioSpec::from_file`], or else [`ScenarioSpec::paper_passive`],
//! which sets no field. Fields the scenario leaves unset keep each
//! campaign's defaults, and an unset `max_days` takes the scale's day
//! count, so `SATIOT_SCALE=quick` still truncates a scenario-driven
//! run. A scenario that fails to
//! parse, validate, or resolve aborts the binary with the typed
//! [`ScenarioError`] — a mis-spelled scenario must never silently fall
//! back to the compiled-in campaign.

pub use satiot_core::options::Scale;
use satiot_core::prelude::*;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig, TerrestrialResults};

/// The scenario every runner starts from: the `SATIOT_SCENARIO` file,
/// or else the paper's passive campaign, whose unset fields keep every
/// workload's defaults. Aborts on a scenario error: a broken scenario
/// file must not silently degrade to the compiled-in campaign.
pub fn scenario(opts: &RunOptions) -> ResolvedScenario {
    let spec = opts
        .scenario
        .map_or(Ok(ScenarioSpec::paper_passive()), ScenarioSpec::from_file);
    spec.and_then(|spec| spec.build()).unwrap_or_else(|e| {
        let path = opts.scenario.unwrap_or("unset");
        panic!("SATIOT_SCENARIO={path}: {e}")
    })
}

/// Run the passive campaign at the options' scale.
///
/// The scaled defaults are always valid, so a rejected config is a bug;
/// abort with the typed error rather than returning a `Result` every
/// experiment would immediately unwrap.
pub fn run_passive(opts: &RunOptions) -> PassiveResults {
    let scenario = scenario(opts);
    let mut cfg = PassiveConfig::from_scenario(&scenario);
    if scenario.max_days.is_none() {
        cfg.max_days = opts.scale.passive_days();
    }
    PassiveCampaign::new(cfg)
        .run(opts)
        .unwrap_or_else(|e| panic!("passive campaign rejected its scaled config: {e}"))
}

/// Run an active campaign with config tweaks applied on top of the
/// runners' scenario (the caller's tweaks win).
pub fn run_active_with<F: FnOnce(&mut ActiveConfig)>(opts: &RunOptions, tweak: F) -> ActiveResults {
    let scenario = scenario(opts);
    let mut cfg = ActiveConfig::from_scenario(&scenario);
    if scenario.max_days.is_none() {
        cfg.days = opts.scale.active_days();
    }
    tweak(&mut cfg);
    ActiveCampaign::new(cfg)
        .run(opts)
        .unwrap_or_else(|e| panic!("active campaign rejected its scaled config: {e}"))
}

/// Run a terrestrial campaign with config tweaks applied on top of the
/// runners' scenario.
pub fn run_terrestrial_with<F: FnOnce(&mut TerrestrialConfig)>(
    opts: &RunOptions,
    tweak: F,
) -> TerrestrialResults {
    let scenario = scenario(opts);
    let mut cfg = TerrestrialConfig::from_scenario(&scenario);
    if scenario.max_days.is_none() {
        cfg.days = opts.scale.active_days();
    }
    tweak(&mut cfg);
    TerrestrialCampaign::new(cfg)
        .run()
        .unwrap_or_else(|e| panic!("terrestrial campaign rejected its scaled config: {e}"))
}

/// The sweep queue the `sweep_worker` binary runs and the
/// kill-and-resume test replays: one scenario over eight seeds, so the
/// sweep amortises predictions like real sweeps do, with each job long
/// enough to kill mid-queue.
pub fn checkpoint_jobs() -> Vec<SweepJob> {
    (0..8)
        .map(|i| {
            SweepJob::new(format!("ckpt-{i}"), 0x5EED + i)
                .with_max_days(1.5)
                .with_sites(["HK", "SH"])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tweaks_apply() {
        // A one-day campaign with a tweak reaches the tweak.
        let opts = RunOptions::default().with_scale(Scale::Quick);
        let r = run_active_with(&opts, |c| {
            c.days = 0.5;
            c.nodes = 1;
        });
        // 1 node × 48/day × 0.5 day, inclusive of both endpoints = 25.
        assert_eq!(r.timelines.len(), 25);
    }
}
