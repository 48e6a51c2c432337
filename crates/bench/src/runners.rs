//! Campaign runners at the configured scale.
//!
//! The [`Scale`] type itself lives in `satiot_core::options` (one
//! `SATIOT_*` parsing site for the whole workspace); it is re-exported
//! here for the experiment registry. Every runner resolves the rest of
//! its options through [`RunOptions::from_env`] and installs them
//! process-wide with [`RunOptions::apply`], so `SATIOT_THREADS` /
//! `SATIOT_SINK` / `SATIOT_METRICS` all keep working for every
//! experiment without any of them touching the environment directly.
//!
//! ## Scenario files
//!
//! `SATIOT_SCENARIO=<path>` points every runner at a `.scenario.json`
//! file: the runner loads it through [`ScenarioSpec::from_file`],
//! resolves it with [`ScenarioSpec::build`], and derives its campaign
//! configuration from the resolved scenario instead of the compiled-in
//! defaults. Fields the scenario leaves unset (`max_days` in
//! particular) keep the scaled defaults, so `SATIOT_SCALE=quick` still
//! truncates a scenario-driven smoke run. A scenario that fails to
//! parse, validate, or resolve aborts the binary with the typed
//! [`ScenarioError`] — a mis-spelled scenario must never silently fall
//! back to the compiled-in campaign.

pub use satiot_core::options::Scale;
use satiot_core::prelude::*;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig, TerrestrialResults};

/// Load and resolve the `SATIOT_SCENARIO` override, if any. Aborts on a
/// scenario error: a broken scenario file must not silently degrade to
/// the compiled-in campaign.
pub fn scenario_override(opts: &RunOptions) -> Option<ResolvedScenario> {
    opts.scenario.map(|path| {
        ScenarioSpec::from_file(path)
            .and_then(|spec| spec.build())
            .unwrap_or_else(|e| panic!("SATIOT_SCENARIO={path}: {e}"))
    })
}

/// Run the passive campaign at this scale.
///
/// The scaled defaults are always valid, so a rejected config is a bug;
/// abort with the typed error rather than returning a `Result` every
/// experiment would immediately unwrap.
pub fn run_passive(scale: Scale) -> PassiveResults {
    let opts = RunOptions::from_env().with_scale(scale).apply();
    // The compiled-in default is itself a scenario — the paper's full
    // passive campaign — so every passive run goes through
    // `ScenarioSpec::build()` whether or not `SATIOT_SCENARIO` is set.
    let scenario = scenario_override(&opts).unwrap_or_else(|| {
        ScenarioSpec::paper_passive()
            .build()
            .expect("builtin paper scenario resolves")
    });
    let mut cfg = PassiveConfig::from_scenario(&scenario);
    if scenario.max_days.is_none() {
        cfg.max_days = scale.passive_days();
    }
    PassiveCampaign::new(cfg)
        .run(&opts)
        .unwrap_or_else(|e| panic!("passive campaign rejected its scaled config: {e}"))
}

/// Run an active campaign with config tweaks applied on top of the
/// scaled defaults (and on top of the `SATIOT_SCENARIO` override, when
/// one is set — the caller's tweaks win).
pub fn run_active_with<F: FnOnce(&mut ActiveConfig)>(scale: Scale, tweak: F) -> ActiveResults {
    let opts = RunOptions::from_env().with_scale(scale).apply();
    let mut cfg = match scenario_override(&opts) {
        Some(scenario) => {
            let mut cfg = ActiveConfig::from_scenario(&scenario);
            if scenario.max_days.is_none() {
                cfg.days = scale.active_days();
            }
            cfg
        }
        None => ActiveConfig::quick(scale.active_days()),
    };
    tweak(&mut cfg);
    ActiveCampaign::new(cfg)
        .run(&opts)
        .unwrap_or_else(|e| panic!("active campaign rejected its scaled config: {e}"))
}

/// Run a terrestrial campaign with config tweaks (applied on top of the
/// `SATIOT_SCENARIO` override, when one is set).
pub fn run_terrestrial_with<F: FnOnce(&mut TerrestrialConfig)>(
    scale: Scale,
    tweak: F,
) -> TerrestrialResults {
    let opts = RunOptions::from_env().with_scale(scale);
    let mut cfg = match scenario_override(&opts) {
        Some(scenario) => {
            let mut cfg = TerrestrialConfig::from_scenario(&scenario);
            if scenario.max_days.is_none() {
                cfg.days = scale.active_days();
            }
            cfg
        }
        None => TerrestrialConfig {
            days: scale.active_days(),
            ..Default::default()
        },
    };
    tweak(&mut cfg);
    TerrestrialCampaign::new(cfg)
        .run()
        .unwrap_or_else(|e| panic!("terrestrial campaign rejected its scaled config: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tweaks_apply() {
        // A one-day campaign with a tweak reaches the tweak.
        let r = run_active_with(Scale::Quick, |c| {
            c.days = 0.5;
            c.nodes = 1;
        });
        // 1 node × 48/day × 0.5 day, inclusive of both endpoints = 25.
        assert_eq!(r.sent.len(), 25);
    }
}
