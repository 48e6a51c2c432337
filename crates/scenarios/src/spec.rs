//! The versioned scenario DSL: one typed, validating front door for
//! campaign configuration.
//!
//! A [`ScenarioSpec`] describes everything a campaign binary needs —
//! constellations (named Table-3 catalogs *or* inline Walker stacks),
//! sites (named Table-1 codes *or* inline geodetic sites, optionally
//! carrying a [`MobilityTrack`]), node populations, the traffic model,
//! a weather override, scripted outage windows, and the terrestrial
//! baseline — as a JSON file in the hand-rolled subset grammar of
//! [`crate::json`] (no serde in the build environment; unknown keys are
//! rejected so typos fail loudly).
//!
//! [`ScenarioSpec::build`] resolves the spec against the catalogs into
//! a [`ResolvedScenario`], which `satiot-core` and `satiot-terrestrial`
//! consume as the one constructor for `PassiveConfig` /
//! `ActiveConfig` / `TerrestrialConfig` inputs.
//!
//! ## Fingerprints
//!
//! [`ScenarioSpec::fingerprint`] is FNV-1a 64 ([`satiot_sim::rng::fnv1a`])
//! over the spec's *canonical serialisation* ([`ScenarioSpec::to_json`]).
//! Re-parsing and re-emitting a file erases formatting differences, so
//! two specs fingerprint equal iff they are field-for-field,
//! bit-for-bit equal. The committed paper scenarios pin their
//! fingerprints in regression tests: editing a `.scenario.json` in a
//! way that changes results also changes the fingerprint and fails the
//! pin. A sweep job is a scenario too: `satiot_core::sweep_server`
//! embeds the job's canonical JSON verbatim in its checkpoint and
//! names the file by FNV-1a over that JSON and the job's seed, so a
//! checkpoint can never silently resume against a different scenario.

use crate::constellations::{all_constellations, constellation_suggestion, ConstellationSpec};
use crate::json::{escape_json, JsonError, JsonParser, JsonValue};
use crate::mobility::{MobilityTrack, Waypoint};
use crate::sites::{
    measurement_sites, site_code_suggestion, tianqi_ground_stations, Climate, Site, YUNNAN_FARM,
};
use crate::walker::{intern_name, WalkerConstellation, WalkerParseError, WalkerShell};
use satiot_sim::rng::fnv1a;

use core::fmt;
use core::fmt::Write as _;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The spec version this build reads and writes.
pub const SPEC_VERSION: u32 = 1;

/// Largest integer a JSON number can carry exactly (2^53).
const MAX_JSON_INT: u64 = 9_007_199_254_740_992;

/// Typed error from scenario parsing, validation, or resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Malformed JSON, a wrong type, an unknown key, or a missing
    /// required field. The payload says which and where.
    Parse(String),
    /// The file's `version` is not one this build understands.
    UnsupportedVersion {
        /// Version stated by the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A field value fails validation.
    InvalidValue {
        /// Dotted path of the offending field.
        field: String,
        /// What the value must satisfy.
        requirement: String,
    },
    /// A named site or constellation is not in the catalog (or is
    /// selected twice). Carries the closest catalog name, if any is
    /// plausibly what the author meant.
    UnknownName {
        /// The offending field.
        field: &'static str,
        /// The offending name.
        name: String,
        /// Closest catalog entry, for "did you mean" messages.
        suggestion: Option<&'static str>,
    },
    /// An inline site code or constellation label that would alias
    /// another definition in the label-keyed pass and grid caches: it
    /// equals a catalog label, or this process already bound it to a
    /// different position or shell layout.
    LabelConflict {
        /// The offending field.
        field: String,
        /// The offending label.
        label: String,
        /// What the label already names.
        bound_to: &'static str,
    },
    /// Reading the scenario file failed.
    Io {
        /// Path handed to [`ScenarioSpec::from_file`].
        path: String,
        /// The OS error text.
        message: String,
    },
}

impl ScenarioError {
    pub(crate) fn invalid(field: &str, requirement: &str) -> ScenarioError {
        ScenarioError::InvalidValue {
            field: field.to_string(),
            requirement: requirement.to_string(),
        }
    }

    fn missing(context: &str, key: &str) -> ScenarioError {
        ScenarioError::Parse(format!("{context} missing {key:?}"))
    }

    fn unknown_key(context: &str, key: &str) -> ScenarioError {
        ScenarioError::Parse(format!("unknown {context} key {key:?}"))
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(msg) => write!(f, "scenario: {msg}"),
            ScenarioError::UnsupportedVersion { found, supported } => write!(
                f,
                "scenario version {found} is not supported (this build reads version {supported})"
            ),
            ScenarioError::InvalidValue { field, requirement } => {
                write!(f, "scenario field `{field}`: {requirement}")
            }
            ScenarioError::UnknownName {
                field,
                name,
                suggestion,
            } => {
                write!(f, "scenario field `{field}`: unknown name {name:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
            ScenarioError::LabelConflict {
                field,
                label,
                bound_to,
            } => write!(
                f,
                "scenario field `{field}`: label {label:?} already names {bound_to}"
            ),
            ScenarioError::Io { path, message } => {
                write!(f, "scenario file {path:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Parse(e.0)
    }
}

impl From<WalkerParseError> for ScenarioError {
    fn from(e: WalkerParseError) -> Self {
        ScenarioError::Parse(format!("walker: {}", e.0))
    }
}

/// Station-assignment policy, as scenario files spell it. Campaigns
/// take it as is: `satiot_core` re-exports it as `SchedulerKind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerSpec {
    /// The paper's customised predictive scheduler.
    Predictive,
    /// Vanilla TinyGS rotation with the given dwell, seconds.
    Vanilla {
        /// Seconds per rotation slot.
        dwell_s: f64,
    },
}

/// A constellation selection: a Table-3 catalog by label, or an inline
/// Walker stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstellationRef {
    /// A published catalog (`"Tianqi"` …), matched case-insensitively.
    Named(String),
    /// An inline Walker-delta stack with its transmit power.
    Inline {
        /// The Walker shell stack.
        walker: WalkerConstellation,
        /// Satellite transmit power, dBm.
        tx_power_dbm: f64,
    },
}

/// A site selection: a Table-1 code, or an inline geodetic site.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteRef {
    /// A measurement-site code (`"HK"` …), matched case-insensitively.
    Named(String),
    /// An inline site definition.
    Inline(SiteSpec),
}

/// An inline site: geodetic position, station count, climate, and an
/// optional mobility track.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Short site code (used in traces and pass records).
    pub code: String,
    /// Human-readable name.
    pub name: String,
    /// Latitude, degrees north.
    pub lat_deg: f64,
    /// Longitude, degrees east.
    pub lon_deg: f64,
    /// Altitude, km.
    pub alt_km: f64,
    /// Ground stations deployed at the site.
    pub stations: u32,
    /// Deployment start, days after the campaign epoch.
    pub start_day: f64,
    /// Climate class.
    pub climate: Climate,
    /// Optional waypoint mobility track (seconds relative to the
    /// site's start).
    pub track: Option<MobilityTrack>,
}

/// The sensor traffic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Sensor payload size, bytes.
    pub payload_bytes: u32,
    /// Sensor period, seconds.
    pub period_s: f64,
}

/// One scripted outage window: the terrestrial baseline is down during
/// `[start_s, end_s)` (seconds since campaign start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Outage start, seconds since campaign start.
    pub start_s: f64,
    /// Outage end, seconds since campaign start.
    pub end_s: f64,
}

impl OutageWindow {
    /// Whether `t_s` falls inside the window.
    pub fn contains(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s
    }
}

/// The terrestrial (LoRaWAN + LTE backhaul) baseline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TerrestrialSpec {
    /// Number of LoRaWAN gateways.
    pub gateways: u32,
    /// Node→gateway distances, km (cycled over nodes).
    pub distances_km: Vec<f64>,
    /// Long-run per-gateway uptime fraction, (0, 1].
    pub gateway_uptime: f64,
}

/// A versioned, validating scenario description. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Spec version ([`SPEC_VERSION`]).
    pub version: u32,
    /// Scenario label: printable ASCII or space, without `"` or `\`
    /// (see [`Self::validate`]).
    pub name: String,
    /// Root RNG seed; `None` keeps each workload's default.
    pub seed: Option<u64>,
    /// Cap on simulated days; `None` runs each site's full span.
    pub max_days: Option<f64>,
    /// Station-assignment policy; `None` keeps the workload default.
    pub scheduler: Option<SchedulerSpec>,
    /// Constellation selections; empty selects every Table-3 catalog.
    pub constellations: Vec<ConstellationRef>,
    /// Site selections; empty selects every Table-1 site.
    pub sites: Vec<SiteRef>,
    /// Deployed node population; `None` keeps the workload default.
    pub nodes: Option<u32>,
    /// Sensor traffic model; `None` keeps the workload default.
    pub traffic: Option<TrafficSpec>,
    /// Constant-climate weather override; `None` uses per-site climate.
    pub weather: Option<Climate>,
    /// Scripted terrestrial outage windows, chronological and
    /// non-overlapping.
    pub outages: Vec<OutageWindow>,
    /// Terrestrial baseline parameters; `None` keeps defaults.
    pub terrestrial: Option<TerrestrialSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "unnamed".to_string(),
            seed: None,
            max_days: None,
            scheduler: None,
            constellations: Vec::new(),
            sites: Vec::new(),
            nodes: None,
            traffic: None,
            weather: None,
            outages: Vec::new(),
            terrestrial: None,
        }
    }
}

/// One resolved site: the catalog-shaped [`Site`] plus its mobility
/// track, if any.
#[derive(Debug, Clone)]
pub struct ResolvedSite {
    /// The site in the shape every campaign consumes.
    pub site: Site,
    /// Waypoint track for mobile sites.
    pub track: Option<MobilityTrack>,
}

/// A [`ScenarioSpec`] resolved against the catalogs: every name has
/// become data, every inline definition has been validated and
/// interned. This is the input shape `PassiveConfig::from_scenario`
/// and friends consume.
#[derive(Debug, Clone)]
pub struct ResolvedScenario {
    /// Scenario label.
    pub name: String,
    /// Root seed override.
    pub seed: Option<u64>,
    /// Day cap override.
    pub max_days: Option<f64>,
    /// Scheduler override.
    pub scheduler: Option<SchedulerSpec>,
    /// Resolved sites in selection order.
    pub sites: Vec<ResolvedSite>,
    /// Resolved constellations in selection order.
    pub constellations: Vec<ConstellationSpec>,
    /// Node population override.
    pub nodes: Option<u32>,
    /// Traffic model override.
    pub traffic: Option<TrafficSpec>,
    /// Weather override.
    pub weather: Option<Climate>,
    /// Scripted outage windows.
    pub outages: Vec<OutageWindow>,
    /// Terrestrial baseline overrides.
    pub terrestrial: Option<TerrestrialSpec>,
    /// The source spec's fingerprint (checkpoint compatibility key).
    pub fingerprint: u64,
}

impl ResolvedScenario {
    /// The resolved *fixed* sites (the shape static-site campaigns
    /// consume). Sites carrying a mobility track are excluded: a moving
    /// observer must flow through [`MobilityTrack::legs`] and
    /// `passes_over_legs`, never through the site-code-keyed pass cache
    /// a fixed-site campaign shares.
    pub fn static_sites(&self) -> Vec<Site> {
        self.sites
            .iter()
            .filter(|s| s.track.is_none())
            .map(|s| s.site.clone())
            .collect()
    }

    /// Whether any resolved site carries a mobility track.
    pub fn has_mobile_sites(&self) -> bool {
        self.sites.iter().any(|s| s.track.is_some())
    }
}

impl ScenarioSpec {
    // -----------------------------------------------------------------
    // Validation.

    /// Validate every field of the spec (called by [`Self::from_json`]
    /// and [`Self::build`]).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.version != SPEC_VERSION {
            return Err(ScenarioError::UnsupportedVersion {
                found: self.version,
                supported: SPEC_VERSION,
            });
        }
        // Sweep checkpoints embed the canonical JSON line by line, and
        // `escape_json` escapes only quotes and backslashes, so
        // printable ASCII is what keeps a name on one line.
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| (c.is_ascii_graphic() || c == ' ') && c != '"' && c != '\\')
        {
            return Err(ScenarioError::invalid(
                "name",
                "must be non-empty printable ASCII without quotes or backslashes",
            ));
        }
        if let Some(seed) = self.seed {
            if seed >= MAX_JSON_INT {
                return Err(ScenarioError::invalid("seed", "must be < 2^53"));
            }
        }
        if let Some(days) = self.max_days {
            if !(days.is_finite() && days > 0.0) {
                return Err(ScenarioError::invalid("max_days", "must be finite and > 0"));
            }
        }
        if let Some(SchedulerSpec::Vanilla { dwell_s }) = self.scheduler {
            if !(dwell_s.is_finite() && dwell_s > 0.0) {
                return Err(ScenarioError::invalid(
                    "scheduler.vanilla_dwell_s",
                    "must be finite and > 0",
                ));
            }
        }
        // An inline label may not reuse a catalog label. The list is
        // built only when an inline entry needs it.
        let catalog = std::cell::OnceCell::new();
        let in_catalog = |label: &str| {
            let catalog = catalog.get_or_init(catalog_labels);
            catalog.iter().any(|c| c.eq_ignore_ascii_case(label))
        };
        for (i, c) in self.constellations.iter().enumerate() {
            if let ConstellationRef::Inline {
                walker,
                tx_power_dbm,
            } = c
            {
                walker.validate()?;
                if in_catalog(&walker.name) {
                    let field = format!("constellations[{i}].walker.name");
                    return Err(label_conflict(&field, &walker.name, "a catalog entry"));
                }
                if !tx_power_dbm.is_finite() {
                    return Err(ScenarioError::invalid(
                        &format!("constellations[{i}].tx_power_dbm"),
                        "must be finite",
                    ));
                }
            }
        }
        for (i, s) in self.sites.iter().enumerate() {
            if let SiteRef::Inline(spec) = s {
                spec.validate(i)?;
                if in_catalog(&spec.code) {
                    let field = format!("sites[{i}].code");
                    return Err(label_conflict(&field, &spec.code, "a catalog entry"));
                }
            }
        }
        if let Some(nodes) = self.nodes {
            if nodes == 0 {
                return Err(ScenarioError::invalid("nodes", "must be >= 1"));
            }
        }
        if let Some(t) = &self.traffic {
            if t.payload_bytes == 0 {
                return Err(ScenarioError::invalid(
                    "traffic.payload_bytes",
                    "must be >= 1",
                ));
            }
            if !(t.period_s.is_finite() && t.period_s > 0.0) {
                return Err(ScenarioError::invalid(
                    "traffic.period_s",
                    "must be finite and > 0",
                ));
            }
        }
        for (i, w) in self.outages.iter().enumerate() {
            if !(w.start_s.is_finite() && w.end_s.is_finite()) {
                return Err(ScenarioError::invalid(
                    &format!("outages[{i}]"),
                    "bounds must be finite",
                ));
            }
            if w.start_s < 0.0 {
                return Err(ScenarioError::invalid(
                    &format!("outages[{i}].start_s"),
                    "must be >= 0",
                ));
            }
            if w.end_s <= w.start_s {
                return Err(ScenarioError::invalid(
                    &format!("outages[{i}].end_s"),
                    "must be > start_s",
                ));
            }
        }
        for (i, pair) in self.outages.windows(2).enumerate() {
            if pair[1].start_s < pair[0].end_s {
                return Err(ScenarioError::invalid(
                    &format!("outages[{}]", i + 1),
                    "windows must be chronological and non-overlapping",
                ));
            }
        }
        if let Some(t) = &self.terrestrial {
            if t.gateways == 0 {
                return Err(ScenarioError::invalid(
                    "terrestrial.gateways",
                    "must be >= 1",
                ));
            }
            if t.distances_km.is_empty() {
                return Err(ScenarioError::invalid(
                    "terrestrial.distances_km",
                    "must list at least one distance",
                ));
            }
            for (i, d) in t.distances_km.iter().enumerate() {
                if !(d.is_finite() && *d > 0.0) {
                    return Err(ScenarioError::invalid(
                        &format!("terrestrial.distances_km[{i}]"),
                        "must be finite and > 0",
                    ));
                }
            }
            if !(t.gateway_uptime.is_finite() && t.gateway_uptime > 0.0 && t.gateway_uptime <= 1.0)
            {
                return Err(ScenarioError::invalid(
                    "terrestrial.gateway_uptime",
                    "must be in (0, 1]",
                ));
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Resolution.

    /// Resolve the spec against the catalogs: validate, look up every
    /// named site and constellation (case-insensitively, rejecting
    /// duplicates with "did you mean" suggestions), intern inline
    /// definitions, bind their labels for the rest of the process, and
    /// stamp the spec fingerprint.
    ///
    /// The pass and grid caches key a site by its code and a satellite
    /// by its constellation label, so one label names one definition:
    /// an inline fixed site's code stays bound to its position and an
    /// inline constellation's label to its shell layout. A label this
    /// process already bound to a different definition is rejected.
    ///
    /// Empty `sites` / `constellations` select the full catalogs, the
    /// same convention as `SweepJob`. A `weather` override rewrites
    /// every resolved site's climate class, so the per-site weather
    /// processes all draw from the overridden climate's parameters.
    pub fn build(&self) -> Result<ResolvedScenario, ScenarioError> {
        self.validate()?;

        let mut sites: Vec<ResolvedSite> = Vec::new();
        if self.sites.is_empty() {
            sites.extend(
                measurement_sites()
                    .into_iter()
                    .map(|site| ResolvedSite { site, track: None }),
            );
        } else {
            for r in &self.sites {
                let resolved = match r {
                    SiteRef::Named(code) => {
                        let site = crate::sites::site_by_code(code).ok_or_else(|| {
                            ScenarioError::UnknownName {
                                field: "scenario.sites",
                                name: code.clone(),
                                suggestion: site_code_suggestion(code),
                            }
                        })?;
                        ResolvedSite { site, track: None }
                    }
                    SiteRef::Inline(spec) => spec.resolve(),
                };
                if sites
                    .iter()
                    .any(|s| s.site.code.eq_ignore_ascii_case(resolved.site.code))
                {
                    return Err(ScenarioError::UnknownName {
                        field: "scenario.sites (duplicated)",
                        name: resolved.site.code.to_string(),
                        suggestion: None,
                    });
                }
                sites.push(resolved);
            }
        }
        if let Some(climate) = self.weather {
            for s in &mut sites {
                s.site.climate = climate;
            }
        }

        let mut constellations: Vec<ConstellationSpec> = Vec::new();
        if self.constellations.is_empty() {
            constellations.extend(all_constellations());
        } else {
            for r in &self.constellations {
                let spec = match r {
                    ConstellationRef::Named(label) => {
                        crate::constellations::constellation_by_name(label).ok_or_else(|| {
                            ScenarioError::UnknownName {
                                field: "scenario.constellations",
                                name: label.clone(),
                                suggestion: constellation_suggestion(label),
                            }
                        })?
                    }
                    ConstellationRef::Inline {
                        walker,
                        tx_power_dbm,
                    } => ConstellationSpec::from_walker(walker.clone(), *tx_power_dbm),
                };
                if constellations
                    .iter()
                    .any(|c| c.name.eq_ignore_ascii_case(spec.name))
                {
                    return Err(ScenarioError::UnknownName {
                        field: "scenario.constellations (duplicated)",
                        name: spec.name.to_string(),
                        suggestion: None,
                    });
                }
                constellations.push(spec);
            }
        }
        bind_labels(self)?;

        Ok(ResolvedScenario {
            name: self.name.clone(),
            seed: self.seed,
            max_days: self.max_days,
            scheduler: self.scheduler,
            sites,
            constellations,
            nodes: self.nodes,
            traffic: self.traffic,
            weather: self.weather,
            outages: self.outages.clone(),
            terrestrial: self.terrestrial.clone(),
            fingerprint: self.fingerprint(),
        })
    }

    // -----------------------------------------------------------------
    // Fingerprint.

    /// FNV-1a 64 fingerprint over the canonical serialisation (see the
    /// module docs).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }

    // -----------------------------------------------------------------
    // JSON codec.

    /// Serialise to the canonical JSON form [`Self::from_json`]
    /// accepts. Optional fields that are unset are omitted; re-parsing
    /// the output yields a spec equal to `self`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = write!(out, "  \"name\": \"{}\"", escape_json(&self.name));
        if let Some(seed) = self.seed {
            let _ = write!(out, ",\n  \"seed\": {seed}");
        }
        if let Some(days) = self.max_days {
            let _ = write!(out, ",\n  \"max_days\": {days}");
        }
        match self.scheduler {
            Some(SchedulerSpec::Predictive) => {
                let _ = write!(out, ",\n  \"scheduler\": \"predictive\"");
            }
            Some(SchedulerSpec::Vanilla { dwell_s }) => {
                let _ = write!(
                    out,
                    ",\n  \"scheduler\": {{\"vanilla_dwell_s\": {dwell_s}}}"
                );
            }
            None => {}
        }
        if !self.constellations.is_empty() {
            let _ = write!(out, ",\n  \"constellations\": [");
            for (i, c) in self.constellations.iter().enumerate() {
                let comma = if i + 1 < self.constellations.len() {
                    ","
                } else {
                    ""
                };
                match c {
                    ConstellationRef::Named(label) => {
                        let _ = write!(out, "\n    \"{}\"{comma}", escape_json(label));
                    }
                    ConstellationRef::Inline {
                        walker,
                        tx_power_dbm,
                    } => {
                        // Reuse the walker emitter, indented into place.
                        let body = walker
                            .to_json()
                            .lines()
                            .collect::<Vec<_>>()
                            .join("\n      ");
                        let _ = write!(
                            out,
                            "\n    {{\"tx_power_dbm\": {tx_power_dbm}, \"walker\": {body}}}{comma}"
                        );
                    }
                }
            }
            let _ = write!(out, "\n  ]");
        }
        if !self.sites.is_empty() {
            let _ = write!(out, ",\n  \"sites\": [");
            for (i, s) in self.sites.iter().enumerate() {
                let comma = if i + 1 < self.sites.len() { "," } else { "" };
                match s {
                    SiteRef::Named(code) => {
                        let _ = write!(out, "\n    \"{}\"{comma}", escape_json(code));
                    }
                    SiteRef::Inline(spec) => {
                        let _ = write!(out, "\n    {}{comma}", spec.to_json_inline());
                    }
                }
            }
            let _ = write!(out, "\n  ]");
        }
        if let Some(nodes) = self.nodes {
            let _ = write!(out, ",\n  \"nodes\": {nodes}");
        }
        if let Some(t) = &self.traffic {
            let _ = write!(
                out,
                ",\n  \"traffic\": {{\"payload_bytes\": {}, \"period_s\": {}}}",
                t.payload_bytes, t.period_s
            );
        }
        if let Some(w) = self.weather {
            let _ = write!(out, ",\n  \"weather\": \"{}\"", w.label());
        }
        if !self.outages.is_empty() {
            let _ = write!(out, ",\n  \"outages\": [");
            for (i, w) in self.outages.iter().enumerate() {
                let comma = if i + 1 < self.outages.len() { "," } else { "" };
                let _ = write!(
                    out,
                    "\n    {{\"start_s\": {}, \"end_s\": {}}}{comma}",
                    w.start_s, w.end_s
                );
            }
            let _ = write!(out, "\n  ]");
        }
        if let Some(t) = &self.terrestrial {
            let dists = t
                .distances_km
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                ",\n  \"terrestrial\": {{\"gateways\": {}, \"distances_km\": [{dists}], \
                 \"gateway_uptime\": {}}}",
                t.gateways, t.gateway_uptime
            );
        }
        let _ = write!(out, "\n}}");
        out
    }

    /// Parse a scenario from JSON text, rejecting unknown keys, and
    /// validate it.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let value = JsonParser::new(text).parse_document()?;
        let obj = value.as_object("scenario")?;
        let mut spec = ScenarioSpec::default();
        let mut version = None;
        let mut name = None;
        for (key, val) in obj {
            match key.as_str() {
                "version" => version = Some(val.as_u32("version")?),
                "name" => name = Some(val.as_string("name")?),
                "seed" => spec.seed = Some(val.as_u64("seed")?),
                "max_days" => spec.max_days = Some(val.as_number("max_days")?),
                "scheduler" => spec.scheduler = Some(parse_scheduler(val)?),
                "constellations" => {
                    for item in val.as_array("constellations")? {
                        spec.constellations.push(parse_constellation_ref(item)?);
                    }
                }
                "sites" => {
                    for item in val.as_array("sites")? {
                        spec.sites.push(parse_site_ref(item)?);
                    }
                }
                "nodes" => spec.nodes = Some(val.as_u32("nodes")?),
                "traffic" => spec.traffic = Some(parse_traffic(val)?),
                "weather" => {
                    let label = val.as_string("weather")?;
                    spec.weather = Some(Climate::from_label(&label).ok_or_else(|| {
                        ScenarioError::invalid(
                            "weather",
                            "must be one of subtropical, maritime, continental_dry, \
                             temperate_oceanic",
                        )
                    })?);
                }
                "outages" => {
                    for item in val.as_array("outages")? {
                        spec.outages.push(parse_outage(item)?);
                    }
                }
                "terrestrial" => spec.terrestrial = Some(parse_terrestrial(val)?),
                other => return Err(ScenarioError::unknown_key("scenario", other)),
            }
        }
        spec.version = version.ok_or_else(|| ScenarioError::missing("scenario", "version"))?;
        spec.name = name.ok_or_else(|| ScenarioError::missing("scenario", "name"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Load and parse a scenario file.
    pub fn from_file(path: &str) -> Result<ScenarioSpec, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

impl SiteSpec {
    fn validate(&self, index: usize) -> Result<(), ScenarioError> {
        let at = |what: &str| format!("sites[{index}].{what}");
        if self.code.is_empty()
            || !self
                .code
                .chars()
                .all(|c| (c.is_ascii_graphic() || c == ' ') && c != '"' && c != '\\')
        {
            return Err(ScenarioError::invalid(
                &at("code"),
                "must be non-empty printable ASCII without quotes or backslashes",
            ));
        }
        for (what, v) in [
            ("lat_deg", self.lat_deg),
            ("lon_deg", self.lon_deg),
            ("alt_km", self.alt_km),
            ("start_day", self.start_day),
        ] {
            if !v.is_finite() {
                return Err(ScenarioError::invalid(&at(what), "must be finite"));
            }
        }
        if !(-90.0..=90.0).contains(&self.lat_deg) {
            return Err(ScenarioError::invalid(
                &at("lat_deg"),
                "must be in [-90, 90]",
            ));
        }
        if self.stations == 0 {
            return Err(ScenarioError::invalid(&at("stations"), "must be >= 1"));
        }
        if self.start_day < 0.0 {
            return Err(ScenarioError::invalid(&at("start_day"), "must be >= 0"));
        }
        if let Some(track) = &self.track {
            track.validate()?;
        }
        Ok(())
    }

    /// Intern the inline definition into the catalog [`Site`] shape.
    fn resolve(&self) -> ResolvedSite {
        ResolvedSite {
            site: Site {
                code: intern_name(&self.code),
                name: intern_name(&self.name),
                lat_deg: self.lat_deg,
                lon_deg: self.lon_deg,
                alt_km: self.alt_km,
                station_count: self.stations,
                start_day: self.start_day,
                climate: self.climate,
            },
            track: self.track.clone(),
        }
    }

    fn to_json_inline(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"code\": \"{}\", \"name\": \"{}\", \"lat_deg\": {}, \"lon_deg\": {}, \
             \"alt_km\": {}, \"stations\": {}, \"start_day\": {}, \"climate\": \"{}\"",
            escape_json(&self.code),
            escape_json(&self.name),
            self.lat_deg,
            self.lon_deg,
            self.alt_km,
            self.stations,
            self.start_day,
            self.climate.label()
        );
        if let Some(track) = &self.track {
            let _ = write!(out, ", \"track\": [");
            for (i, w) in track.waypoints.iter().enumerate() {
                let comma = if i + 1 < track.waypoints.len() {
                    ","
                } else {
                    ""
                };
                let _ = write!(
                    out,
                    "\n      {{\"t_s\": {}, \"lat_deg\": {}, \"lon_deg\": {}, \"alt_km\": {}}}{comma}",
                    w.t_s, w.lat_deg, w.lon_deg, w.alt_km
                );
            }
            let _ = write!(out, "\n    ]");
        }
        let _ = write!(out, "}}");
        out
    }
}

// ---------------------------------------------------------------------
// Labels: one label names one definition.

/// The labels an inline definition may not reuse, compared ignoring
/// ASCII case: the Table-1 site codes, the Tianqi ground stations, the
/// Yunnan farm and the Table-3 constellations. The caches key those by
/// the same labels.
fn catalog_labels() -> Vec<&'static str> {
    measurement_sites()
        .into_iter()
        .map(|s| s.code)
        .chain(tianqi_ground_stations().into_iter().map(|(name, _)| name))
        .chain([YUNNAN_FARM])
        .chain(all_constellations().into_iter().map(|c| c.name))
        .collect()
}

/// A `label` in `field` that already names something else.
fn label_conflict(field: &str, label: &str, bound_to: &'static str) -> ScenarioError {
    ScenarioError::LabelConflict {
        field: field.to_string(),
        label: label.to_string(),
        bound_to,
    }
}

/// What an inline label names: a fixed site's position, or a
/// constellation's Walker shells.
#[derive(Debug, Clone, PartialEq)]
enum Definition {
    Position([f64; 3]),
    Shells(Vec<WalkerShell>),
}

/// Bind every inline label of `spec` to its definition for the life of
/// the process, or reject the first label already bound to a different
/// one; a rejected spec binds nothing. Mobile sites are exempt: their
/// passes never enter the site-keyed pass cache.
fn bind_labels(spec: &ScenarioSpec) -> Result<(), ScenarioError> {
    type Bound = HashMap<(&'static str, String), Definition>;
    static BOUND: OnceLock<Mutex<Bound>> = OnceLock::new();
    let sites = spec.sites.iter().filter_map(|s| match s {
        SiteRef::Inline(s) if s.track.is_none() => Some((
            ("scenario.sites", s.code.clone()),
            Definition::Position([s.lat_deg, s.lon_deg, s.alt_km]),
        )),
        _ => None,
    });
    let constellations = spec.constellations.iter().filter_map(|c| match c {
        ConstellationRef::Inline { walker, .. } => Some((
            ("scenario.constellations", walker.name.clone()),
            Definition::Shells(walker.shells.clone()),
        )),
        ConstellationRef::Named(_) => None,
    });
    let labels: Vec<_> = sites.chain(constellations).collect();
    let mut bound = BOUND
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let rebound = labels
        .iter()
        .find(|(key, definition)| bound.get(key).is_some_and(|b| b != definition));
    if let Some(((field, label), definition)) = rebound {
        let bound_to = match definition {
            Definition::Position(_) => "a site at another position",
            Definition::Shells(_) => "a constellation with another shell layout",
        };
        return Err(label_conflict(field, label, bound_to));
    }
    // Labels already bound are bound to an equal definition.
    bound.extend(labels);
    Ok(())
}

// ---------------------------------------------------------------------
// Parse helpers (value → typed).

fn parse_scheduler(val: &JsonValue) -> Result<SchedulerSpec, ScenarioError> {
    if let Ok(tag) = val.as_string("scheduler") {
        return if tag.eq_ignore_ascii_case("predictive") {
            Ok(SchedulerSpec::Predictive)
        } else {
            Err(ScenarioError::invalid(
                "scheduler",
                "must be \"predictive\" or {\"vanilla_dwell_s\": seconds}",
            ))
        };
    }
    let obj = val.as_object("scheduler")?;
    let mut dwell = None;
    for (key, v) in obj {
        match key.as_str() {
            "vanilla_dwell_s" => dwell = Some(v.as_number("vanilla_dwell_s")?),
            other => return Err(ScenarioError::unknown_key("scheduler", other)),
        }
    }
    Ok(SchedulerSpec::Vanilla {
        dwell_s: dwell.ok_or_else(|| ScenarioError::missing("scheduler", "vanilla_dwell_s"))?,
    })
}

fn parse_constellation_ref(val: &JsonValue) -> Result<ConstellationRef, ScenarioError> {
    if let Ok(label) = val.as_string("constellation") {
        return Ok(ConstellationRef::Named(label));
    }
    let obj = val.as_object("constellation")?;
    let mut walker = None;
    let mut tx_power_dbm = None;
    for (key, v) in obj {
        match key.as_str() {
            "walker" => walker = Some(WalkerConstellation::from_value(v)?),
            "tx_power_dbm" => tx_power_dbm = Some(v.as_number("tx_power_dbm")?),
            other => return Err(ScenarioError::unknown_key("inline constellation", other)),
        }
    }
    Ok(ConstellationRef::Inline {
        walker: walker.ok_or_else(|| ScenarioError::missing("inline constellation", "walker"))?,
        tx_power_dbm: tx_power_dbm
            .ok_or_else(|| ScenarioError::missing("inline constellation", "tx_power_dbm"))?,
    })
}

fn parse_site_ref(val: &JsonValue) -> Result<SiteRef, ScenarioError> {
    if let Ok(code) = val.as_string("site") {
        return Ok(SiteRef::Named(code));
    }
    let obj = val.as_object("site")?;
    let mut code = None;
    let mut name = None;
    let mut lat_deg = None;
    let mut lon_deg = None;
    let mut alt_km = None;
    let mut stations = None;
    let mut start_day = None;
    let mut climate = None;
    let mut track = None;
    for (key, v) in obj {
        match key.as_str() {
            "code" => code = Some(v.as_string("code")?),
            "name" => name = Some(v.as_string("name")?),
            "lat_deg" => lat_deg = Some(v.as_number("lat_deg")?),
            "lon_deg" => lon_deg = Some(v.as_number("lon_deg")?),
            "alt_km" => alt_km = Some(v.as_number("alt_km")?),
            "stations" => stations = Some(v.as_u32("stations")?),
            "start_day" => start_day = Some(v.as_number("start_day")?),
            "climate" => {
                let label = v.as_string("climate")?;
                climate = Some(Climate::from_label(&label).ok_or_else(|| {
                    ScenarioError::invalid(
                        "site.climate",
                        "must be one of subtropical, maritime, continental_dry, \
                         temperate_oceanic",
                    )
                })?);
            }
            "track" => {
                let mut waypoints = Vec::new();
                for item in v.as_array("track")? {
                    waypoints.push(parse_waypoint(item)?);
                }
                track = Some(MobilityTrack { waypoints });
            }
            other => return Err(ScenarioError::unknown_key("inline site", other)),
        }
    }
    let code = code.ok_or_else(|| ScenarioError::missing("inline site", "code"))?;
    Ok(SiteRef::Inline(SiteSpec {
        name: name.unwrap_or_else(|| code.clone()),
        code,
        lat_deg: lat_deg.ok_or_else(|| ScenarioError::missing("inline site", "lat_deg"))?,
        lon_deg: lon_deg.ok_or_else(|| ScenarioError::missing("inline site", "lon_deg"))?,
        alt_km: alt_km.unwrap_or(0.0),
        stations: stations.unwrap_or(1),
        start_day: start_day.unwrap_or(0.0),
        climate: climate.unwrap_or(Climate::Subtropical),
        track,
    }))
}

fn parse_waypoint(val: &JsonValue) -> Result<Waypoint, ScenarioError> {
    let obj = val.as_object("waypoint")?;
    let mut t_s = None;
    let mut lat_deg = None;
    let mut lon_deg = None;
    let mut alt_km = None;
    for (key, v) in obj {
        match key.as_str() {
            "t_s" => t_s = Some(v.as_number("t_s")?),
            "lat_deg" => lat_deg = Some(v.as_number("lat_deg")?),
            "lon_deg" => lon_deg = Some(v.as_number("lon_deg")?),
            "alt_km" => alt_km = Some(v.as_number("alt_km")?),
            other => return Err(ScenarioError::unknown_key("waypoint", other)),
        }
    }
    Ok(Waypoint {
        t_s: t_s.ok_or_else(|| ScenarioError::missing("waypoint", "t_s"))?,
        lat_deg: lat_deg.ok_or_else(|| ScenarioError::missing("waypoint", "lat_deg"))?,
        lon_deg: lon_deg.ok_or_else(|| ScenarioError::missing("waypoint", "lon_deg"))?,
        alt_km: alt_km.unwrap_or(0.0),
    })
}

fn parse_traffic(val: &JsonValue) -> Result<TrafficSpec, ScenarioError> {
    let obj = val.as_object("traffic")?;
    let mut payload_bytes = None;
    let mut period_s = None;
    for (key, v) in obj {
        match key.as_str() {
            "payload_bytes" => payload_bytes = Some(v.as_u32("payload_bytes")?),
            "period_s" => period_s = Some(v.as_number("period_s")?),
            other => return Err(ScenarioError::unknown_key("traffic", other)),
        }
    }
    Ok(TrafficSpec {
        payload_bytes: payload_bytes
            .ok_or_else(|| ScenarioError::missing("traffic", "payload_bytes"))?,
        period_s: period_s.ok_or_else(|| ScenarioError::missing("traffic", "period_s"))?,
    })
}

fn parse_outage(val: &JsonValue) -> Result<OutageWindow, ScenarioError> {
    let obj = val.as_object("outage")?;
    let mut start_s = None;
    let mut end_s = None;
    for (key, v) in obj {
        match key.as_str() {
            "start_s" => start_s = Some(v.as_number("start_s")?),
            "end_s" => end_s = Some(v.as_number("end_s")?),
            other => return Err(ScenarioError::unknown_key("outage", other)),
        }
    }
    Ok(OutageWindow {
        start_s: start_s.ok_or_else(|| ScenarioError::missing("outage", "start_s"))?,
        end_s: end_s.ok_or_else(|| ScenarioError::missing("outage", "end_s"))?,
    })
}

fn parse_terrestrial(val: &JsonValue) -> Result<TerrestrialSpec, ScenarioError> {
    let obj = val.as_object("terrestrial")?;
    let mut gateways = None;
    let mut distances_km = None;
    let mut gateway_uptime = None;
    for (key, v) in obj {
        match key.as_str() {
            "gateways" => gateways = Some(v.as_u32("gateways")?),
            "distances_km" => {
                let mut dists = Vec::new();
                for item in v.as_array("distances_km")? {
                    dists.push(item.as_number("distances_km[]")?);
                }
                distances_km = Some(dists);
            }
            "gateway_uptime" => gateway_uptime = Some(v.as_number("gateway_uptime")?),
            other => return Err(ScenarioError::unknown_key("terrestrial", other)),
        }
    }
    Ok(TerrestrialSpec {
        gateways: gateways.ok_or_else(|| ScenarioError::missing("terrestrial", "gateways"))?,
        distances_km: distances_km
            .ok_or_else(|| ScenarioError::missing("terrestrial", "distances_km"))?,
        gateway_uptime: gateway_uptime.unwrap_or(1.0),
    })
}

// ---------------------------------------------------------------------
// The committed paper scenarios (each ships as a `.scenario.json`
// pinned bitwise by fingerprint regression tests below).

impl ScenarioSpec {
    /// The front-door scenario: Tianqi over Hong Kong, one day.
    pub fn tianqi_hk() -> ScenarioSpec {
        ScenarioSpec {
            name: "tianqi_hk".to_string(),
            max_days: Some(1.0),
            constellations: vec![ConstellationRef::Named("Tianqi".to_string())],
            sites: vec![SiteRef::Named("HK".to_string())],
            ..ScenarioSpec::default()
        }
    }

    /// The full paper passive campaign: every Table-1 site, every
    /// Table-3 constellation, each site's full span.
    pub fn paper_passive() -> ScenarioSpec {
        ScenarioSpec {
            name: "paper_passive".to_string(),
            ..ScenarioSpec::default()
        }
    }

    /// The disrupted-comms case study: the Yunnan-style terrestrial
    /// baseline with two scripted day-scale outages in a 7-day window
    /// (a disaster takes the LoRaWAN gateways' backhaul down;
    /// satellite store-and-forward carries the traffic).
    pub fn disrupted_comms() -> ScenarioSpec {
        ScenarioSpec {
            name: "disrupted_comms".to_string(),
            max_days: Some(7.0),
            constellations: vec![ConstellationRef::Named("Tianqi".to_string())],
            nodes: Some(3),
            traffic: Some(TrafficSpec {
                payload_bytes: 20,
                period_s: 1800.0,
            }),
            outages: vec![
                OutageWindow {
                    start_s: 86_400.0,
                    end_s: 172_800.0,
                },
                OutageWindow {
                    start_s: 345_600.0,
                    end_s: 388_800.0,
                },
            ],
            terrestrial: Some(TerrestrialSpec {
                gateways: 3,
                distances_km: vec![0.4, 1.1, 2.0],
                gateway_uptime: 1.0,
            }),
            ..ScenarioSpec::default()
        }
    }

    /// The maritime-tracker mobility scenario: a ship steaming Hong
    /// Kong → Manila over two days with a single-station tracker,
    /// listening to Tianqi.
    pub fn maritime_tracker() -> ScenarioSpec {
        ScenarioSpec {
            name: "maritime_tracker".to_string(),
            max_days: Some(2.0),
            constellations: vec![ConstellationRef::Named("Tianqi".to_string())],
            sites: vec![SiteRef::Inline(SiteSpec {
                code: "SHIP".to_string(),
                name: "HK-Manila tracker".to_string(),
                lat_deg: 22.3,
                lon_deg: 114.2,
                alt_km: 0.0,
                stations: 1,
                start_day: 0.0,
                climate: Climate::Subtropical,
                track: Some(MobilityTrack {
                    waypoints: vec![
                        Waypoint {
                            t_s: 0.0,
                            lat_deg: 22.3,
                            lon_deg: 114.2,
                            alt_km: 0.0,
                        },
                        Waypoint {
                            t_s: 43_200.0,
                            lat_deg: 20.0,
                            lon_deg: 116.5,
                            alt_km: 0.0,
                        },
                        Waypoint {
                            t_s: 108_000.0,
                            lat_deg: 16.5,
                            lon_deg: 119.5,
                            alt_km: 0.0,
                        },
                        Waypoint {
                            t_s: 151_200.0,
                            lat_deg: 14.6,
                            lon_deg: 121.0,
                            alt_km: 0.0,
                        },
                    ],
                }),
            })],
            ..ScenarioSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> ScenarioSpec {
        ScenarioSpec {
            version: SPEC_VERSION,
            name: "kitchen sink".to_string(),
            seed: Some(0xDEAD_BEEF),
            max_days: Some(3.5),
            scheduler: Some(SchedulerSpec::Vanilla { dwell_s: 90.0 }),
            constellations: vec![
                ConstellationRef::Named("Tianqi".to_string()),
                ConstellationRef::Inline {
                    walker: WalkerConstellation {
                        name: "Mega".to_string(),
                        shells: vec![crate::walker::WalkerShell {
                            planes: 4,
                            sats_per_plane: 5,
                            altitude_km: 600.0,
                            inclination_deg: 53.0,
                            phasing: 1,
                        }],
                        frequency_mhz: 401.2,
                        beacon_interval_s: 60.0,
                    },
                    tx_power_dbm: 19.5,
                },
            ],
            sites: vec![
                SiteRef::Named("HK".to_string()),
                SiteRef::Inline(SiteSpec {
                    code: "BOAT".to_string(),
                    name: "Test boat".to_string(),
                    lat_deg: 10.0,
                    lon_deg: 100.0,
                    alt_km: 0.0,
                    stations: 2,
                    start_day: 1.5,
                    climate: Climate::Maritime,
                    track: Some(MobilityTrack {
                        waypoints: vec![
                            Waypoint {
                                t_s: 0.0,
                                lat_deg: 10.0,
                                lon_deg: 100.0,
                                alt_km: 0.0,
                            },
                            Waypoint {
                                t_s: 7200.0,
                                lat_deg: 11.0,
                                lon_deg: 101.0,
                                alt_km: 0.0,
                            },
                        ],
                    }),
                }),
            ],
            nodes: Some(5),
            traffic: Some(TrafficSpec {
                payload_bytes: 24,
                period_s: 900.0,
            }),
            weather: Some(Climate::ContinentalDry),
            outages: vec![
                OutageWindow {
                    start_s: 0.0,
                    end_s: 3600.0,
                },
                OutageWindow {
                    start_s: 7200.0,
                    end_s: 10_800.0,
                },
            ],
            terrestrial: Some(TerrestrialSpec {
                gateways: 2,
                distances_km: vec![0.5, 1.5],
                gateway_uptime: 0.9,
            }),
        }
    }

    #[test]
    fn json_round_trip_identity() {
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::tianqi_hk(),
            ScenarioSpec::paper_passive(),
            ScenarioSpec::disrupted_comms(),
            ScenarioSpec::maritime_tracker(),
            full_spec(),
        ] {
            let parsed = ScenarioSpec::from_json(&spec.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(parsed, spec, "{}", spec.name);
            assert_eq!(parsed.fingerprint(), spec.fingerprint(), "{}", spec.name);
        }
    }

    #[test]
    fn unknown_keys_and_garbage_are_typed_errors() {
        assert!(matches!(
            ScenarioSpec::from_json(""),
            Err(ScenarioError::Parse(_))
        ));
        assert!(matches!(
            ScenarioSpec::from_json("{}"),
            Err(ScenarioError::Parse(_))
        ));
        let with_typo = ScenarioSpec::tianqi_hk()
            .to_json()
            .replace("\"max_days\"", "\"max_dyas\"");
        assert!(matches!(
            ScenarioSpec::from_json(&with_typo),
            Err(ScenarioError::Parse(_))
        ));
        // Truncations at every prefix must error, never panic.
        let text = full_spec().to_json();
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                assert!(ScenarioSpec::from_json(&text[..cut]).is_err());
            }
        }
    }

    #[test]
    fn version_gate() {
        let bumped = ScenarioSpec::tianqi_hk()
            .to_json()
            .replace("\"version\": 1", "\"version\": 2");
        assert_eq!(
            ScenarioSpec::from_json(&bumped),
            Err(ScenarioError::UnsupportedVersion {
                found: 2,
                supported: SPEC_VERSION
            })
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = ScenarioSpec::disrupted_comms();
        bad.outages[1].start_s = 100_000.0; // overlaps window 0
        assert!(matches!(
            bad.validate(),
            Err(ScenarioError::InvalidValue { .. })
        ));
        let mut bad = ScenarioSpec::tianqi_hk();
        bad.max_days = Some(f64::NAN);
        assert!(bad.validate().is_err());
        let mut bad = ScenarioSpec::tianqi_hk();
        bad.name = "bad\"name".to_string();
        assert!(bad.validate().is_err());
        let mut bad = ScenarioSpec::disrupted_comms();
        bad.terrestrial.as_mut().unwrap().gateway_uptime = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn build_resolves_names_case_insensitively_with_suggestions() {
        let mut spec = ScenarioSpec::tianqi_hk();
        spec.constellations = vec![ConstellationRef::Named("tianqi".to_string())];
        spec.sites = vec![SiteRef::Named("hk".to_string())];
        let resolved = spec.build().expect("case-insensitive lookups");
        assert_eq!(resolved.sites[0].site.code, "HK");
        assert_eq!(resolved.constellations[0].name, "Tianqi");

        spec.sites = vec![SiteRef::Named("SYDD".to_string())];
        let err = spec.build().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownName {
                field: "scenario.sites",
                name: "SYDD".to_string(),
                suggestion: Some("SYD"),
            }
        );
        assert!(err.to_string().contains("did you mean"));

        spec.sites = vec![
            SiteRef::Named("HK".to_string()),
            SiteRef::Named("hk".to_string()),
        ];
        assert!(matches!(
            spec.build(),
            Err(ScenarioError::UnknownName {
                field: "scenario.sites (duplicated)",
                ..
            })
        ));
    }

    /// One label names one definition: an inline label may not reuse a
    /// catalog label in any case, nor rebind a label this process bound
    /// to another position or shell layout.
    #[test]
    fn labels_name_one_definition() {
        let site = |code: &str, lat_deg: f64| {
            SiteRef::Inline(SiteSpec {
                code: code.to_string(),
                name: code.to_string(),
                lat_deg,
                lon_deg: 10.0,
                alt_km: 0.0,
                stations: 1,
                start_day: 0.0,
                climate: Climate::Maritime,
                track: None,
            })
        };
        let walker = |name: &str, planes: u32| ConstellationRef::Inline {
            walker: WalkerConstellation {
                name: name.to_string(),
                shells: vec![WalkerShell {
                    planes,
                    sats_per_plane: 4,
                    altitude_km: 550.0,
                    inclination_deg: 53.0,
                    phasing: 1,
                }],
                frequency_mhz: 401.0,
                beacon_interval_s: 60.0,
            },
            tx_power_dbm: 20.0,
        };
        let spec = |sites, constellations| ScenarioSpec {
            name: "labels".to_string(),
            sites,
            constellations,
            ..ScenarioSpec::default()
        };
        let conflict = |spec: ScenarioSpec| match spec.build() {
            Err(ScenarioError::LabelConflict {
                label, bound_to, ..
            }) => (label, bound_to),
            other => panic!("expected a label conflict, got {other:?}"),
        };

        for code in ["hk", "Beijing", "yunnan_farm", "TIANQI"] {
            let catalog = (code.to_string(), "a catalog entry");
            assert_eq!(conflict(spec(vec![site(code, 1.0)], vec![])), catalog);
        }
        let catalog = ("fossa".to_string(), "a catalog entry");
        assert_eq!(conflict(spec(vec![], vec![walker("fossa", 3)])), catalog);

        let first = spec(
            vec![site("LABEL-SITE", 1.0)],
            vec![walker("LABEL-SHELL", 3)],
        );
        first.build().expect("first binding");
        first.build().expect("the same definitions bind again");
        assert_eq!(
            conflict(spec(vec![site("LABEL-SITE", 2.0)], vec![])),
            ("LABEL-SITE".to_string(), "a site at another position")
        );
        assert_eq!(
            conflict(spec(vec![], vec![walker("LABEL-SHELL", 4)])),
            (
                "LABEL-SHELL".to_string(),
                "a constellation with another shell layout"
            )
        );
        // A rejected spec binds nothing.
        let rejected = spec(
            vec![site("LABEL-FREE", 5.0), site("LABEL-SITE", 2.0)],
            vec![],
        );
        assert!(rejected.build().is_err());
        spec(vec![site("LABEL-FREE", 6.0)], vec![])
            .build()
            .expect("the rejected spec left its other labels unbound");
        // A mobile site's code keys no cache, so it never binds.
        let mut ship = ScenarioSpec::maritime_tracker();
        for lat_deg in [22.3, 23.3] {
            if let SiteRef::Inline(s) = &mut ship.sites[0] {
                s.code = "LABEL-SHIP".to_string();
                s.lat_deg = lat_deg;
            }
            ship.build().expect("mobile sites do not bind");
        }
    }

    #[test]
    fn empty_selections_mean_full_catalogs() {
        let resolved = ScenarioSpec::paper_passive().build().expect("build");
        assert_eq!(resolved.sites.len(), measurement_sites().len());
        assert_eq!(resolved.constellations.len(), all_constellations().len());
        assert!(!resolved.has_mobile_sites());
    }

    #[test]
    fn inline_walker_resolves_to_exact_layout() {
        let spec = ScenarioSpec {
            name: "inline".to_string(),
            constellations: vec![ConstellationRef::Inline {
                walker: WalkerConstellation {
                    name: "MegaInline".to_string(),
                    shells: vec![crate::walker::WalkerShell {
                        planes: 3,
                        sats_per_plane: 4,
                        altitude_km: 550.0,
                        inclination_deg: 53.0,
                        phasing: 1,
                    }],
                    frequency_mhz: 401.0,
                    beacon_interval_s: 60.0,
                },
                tx_power_dbm: 20.0,
            }],
            sites: vec![SiteRef::Named("HK".to_string())],
            ..ScenarioSpec::default()
        };
        let resolved = spec.build().expect("build");
        let c = &resolved.constellations[0];
        assert_eq!(c.name, "MegaInline");
        assert_eq!(c.sat_count(), 12);
        let epoch = crate::sites::campaign_epoch();
        let catalog = c.catalog(epoch);
        // The exact Walker layout, not the band-interpolated one: the
        // first plane's satellites share a RAAN.
        assert_eq!(
            catalog[0].elements.raan_rad.to_bits(),
            catalog[1].elements.raan_rad.to_bits()
        );
    }

    #[test]
    fn mobile_site_round_trips_and_resolves() {
        let spec = ScenarioSpec::maritime_tracker();
        let resolved = spec.build().expect("build");
        assert!(resolved.has_mobile_sites());
        let ship = &resolved.sites[0];
        assert_eq!(ship.site.code, "SHIP");
        assert_eq!(ship.site.station_count, 1);
        let track = ship.track.as_ref().expect("track");
        assert_eq!(track.waypoints.len(), 4);
        // A second build interns the same pointer for the code.
        let again = spec.build().expect("build");
        assert!(core::ptr::eq(ship.site.code, again.sites[0].site.code));
    }

    /// The committed `.scenario.json` files are the builtins, byte for
    /// byte, and their fingerprints are pinned: editing a file (or the
    /// builtin) in any way that changes results fails this test.
    #[test]
    fn committed_scenarios_are_pinned_bitwise() {
        for (builtin, file, pinned) in [
            (
                ScenarioSpec::tianqi_hk(),
                include_str!("../../../scenarios/tianqi_hk.scenario.json"),
                TIANQI_HK_FINGERPRINT,
            ),
            (
                ScenarioSpec::paper_passive(),
                include_str!("../../../scenarios/paper_passive.scenario.json"),
                PAPER_PASSIVE_FINGERPRINT,
            ),
            (
                ScenarioSpec::disrupted_comms(),
                include_str!("../../../scenarios/disrupted_comms.scenario.json"),
                DISRUPTED_COMMS_FINGERPRINT,
            ),
            (
                ScenarioSpec::maritime_tracker(),
                include_str!("../../../scenarios/maritime_tracker.scenario.json"),
                MARITIME_TRACKER_FINGERPRINT,
            ),
        ] {
            assert_eq!(file, builtin.to_json(), "{} file drifted", builtin.name);
            let parsed = ScenarioSpec::from_json(file).expect("committed file parses");
            assert_eq!(parsed, builtin);
            assert_eq!(
                parsed.fingerprint(),
                pinned,
                "{} fingerprint drifted (update the pin only with the scenario)",
                builtin.name
            );
            let resolved = |spec: &ScenarioSpec| spec.build().expect("scenario resolves");
            assert_eq!(
                resolved(&parsed).fingerprint,
                resolved(&builtin).fingerprint,
                "{} resolved fingerprints diverged",
                builtin.name
            );
        }
    }

    /// Pinned FNV-64 fingerprints of the committed paper scenarios.
    const TIANQI_HK_FINGERPRINT: u64 = 0x801410c31deada57;
    const PAPER_PASSIVE_FINGERPRINT: u64 = 0xc4f0822fa2dfcad5;
    const DISRUPTED_COMMS_FINGERPRINT: u64 = 0x35e8d800effc1eaa;
    const MARITIME_TRACKER_FINGERPRINT: u64 = 0x57a704acb0e45f42;

    /// Regenerate the committed scenario files after editing a builtin:
    /// `cargo test -p satiot-scenarios --lib -- --ignored regen`, then
    /// update the fingerprint pins above from the printed values.
    #[test]
    #[ignore]
    fn regen_committed_scenario_files() {
        for spec in [
            ScenarioSpec::tianqi_hk(),
            ScenarioSpec::paper_passive(),
            ScenarioSpec::disrupted_comms(),
            ScenarioSpec::maritime_tracker(),
        ] {
            let path = format!("../../scenarios/{}.scenario.json", spec.name);
            std::fs::write(&path, spec.to_json()).expect("write scenario file");
            println!("{}: {:#018x}", spec.name, spec.fingerprint());
        }
    }
}
