//! The campaign plan: schema, validation, and the hand-rolled parser.
//!
//! A plan is a small JSON document describing a matrix of simulation
//! requests — the paper's evaluation shape (five apps × hand-swept
//! configs, Fig. 10 sweeping QPI bandwidth point by point) made into a
//! first-class, committable artifact:
//!
//! ```json
//! {
//!   "schema": "apir.campaign.plan.v1",
//!   "scale": "tiny",
//!   "apps": ["SPEC-BFS", "SPEC-SSSP"],
//!   "seeds": [1, 2, 3],
//!   "configs": [
//!     {"id": "base"},
//!     {"id": "chaos", "chaos": true, "retries": 2},
//!     {"id": "lowbw", "qpi_gbps": 3.5, "lsu_window": 8}
//!   ]
//! }
//! ```
//!
//! Every `(app, config, seed)` triple becomes one job. A config entry
//! starts from the app's synthesized + tuned baseline configuration and
//! applies its [`Overrides`]; `"chaos": true` additionally arms the
//! seeded fault-injection preset ([`apir_fabric::FaultConfig::chaos`])
//! with the cell's seed, so fault campaigns are just plan cells.
//! `"retries": N` re-runs a panicking or failing cell up to `N` extra
//! times — each retry with a deterministically bumped fault salt — and
//! records an error only once every attempt has failed.
//!
//! Parsing is strict: unknown apps, unknown keys, a wrong schema
//! string, empty/duplicate apps, seeds, or config ids are all hard
//! errors ([`PlanError`]) — the CLI turns them into exit-2 diagnostics,
//! pinned by the malformed corpus under `tests/plans/`.

use apir_bench::scale::APP_NAMES;
use apir_bench::Scale;
use apir_fabric::FabricConfig;
use apir_util::json::{parse, Json};
use std::collections::HashSet;

/// The only plan schema this engine accepts.
pub const PLAN_SCHEMA: &str = "apir.campaign.plan.v1";

/// A validated campaign plan.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignPlan {
    /// Workload scale every cell runs at.
    pub scale: Scale,
    /// Builtin app names (validated against the registry, unique).
    pub apps: Vec<String>,
    /// Seeds (unique). A seed keys the cell and, for chaos configs,
    /// drives the fault plan; fault-free configs run identically across
    /// seeds but still emit one record per seed.
    pub seeds: Vec<u64>,
    /// Configuration variants (unique non-empty ids).
    pub configs: Vec<ConfigVariant>,
}

impl CampaignPlan {
    /// Number of cells the plan expands to.
    pub fn cells(&self) -> usize {
        self.apps.len() * self.seeds.len() * self.configs.len()
    }
}

/// One configuration variant of the plan matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigVariant {
    /// Stable identifier, part of every result record's key.
    pub id: String,
    /// Arm the seeded chaos fault-injection preset for this variant.
    pub chaos: bool,
    /// Extra attempts for a failing or panicking cell; each retry uses
    /// a deterministically bumped fault salt
    /// ([`crate::engine::retry_seed`]), and an error is recorded only
    /// after every attempt fails. `0` (the default) records the first
    /// failure immediately.
    pub retries: u32,
    /// Knob overrides applied on top of the synthesized baseline.
    pub overrides: Overrides,
}

/// The `FabricConfig` knobs a plan may override. Everything is optional;
/// an empty override set runs the app's synthesized + tuned baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Overrides {
    /// `FabricConfig::pipelines_per_set`.
    pub pipelines_per_set: Option<usize>,
    /// `FabricConfig::queue_banks`.
    pub queue_banks: Option<usize>,
    /// `FabricConfig::queue_capacity`.
    pub queue_capacity: Option<usize>,
    /// `FabricConfig::rule_lanes`.
    pub rule_lanes: Option<usize>,
    /// `FabricConfig::lsu_window`.
    pub lsu_window: Option<usize>,
    /// `FabricConfig::rendezvous_window`.
    pub rendezvous_window: Option<usize>,
    /// `FabricConfig::max_cycles` (a deliberately small value is the
    /// supported way to plant a failing cell in a plan).
    pub max_cycles: Option<u64>,
    /// `FabricConfig::dense_tick` (differential runs of the dense
    /// scheduler oracle at campaign scale).
    pub dense_tick: Option<bool>,
    /// `MemConfig::cache_kb`.
    pub cache_kb: Option<usize>,
    /// `MemConfig::qpi_gbps` (the Fig. 10 sweep axis).
    pub qpi_gbps: Option<f64>,
    /// `MemConfig::max_inflight_misses`.
    pub max_inflight_misses: Option<usize>,
}

impl Overrides {
    /// Applies the present knobs to `cfg`.
    pub fn apply(&self, cfg: &mut FabricConfig) {
        if let Some(v) = self.pipelines_per_set {
            cfg.pipelines_per_set = v;
        }
        if let Some(v) = self.queue_banks {
            cfg.queue_banks = v;
        }
        if let Some(v) = self.queue_capacity {
            cfg.queue_capacity = v;
        }
        if let Some(v) = self.rule_lanes {
            cfg.rule_lanes = v;
        }
        if let Some(v) = self.lsu_window {
            cfg.lsu_window = v;
        }
        if let Some(v) = self.rendezvous_window {
            cfg.rendezvous_window = v;
        }
        if let Some(v) = self.max_cycles {
            cfg.max_cycles = v;
        }
        if let Some(v) = self.dense_tick {
            cfg.dense_tick = v;
        }
        if let Some(v) = self.cache_kb {
            cfg.mem.cache_kb = v;
        }
        if let Some(v) = self.qpi_gbps {
            cfg.mem.qpi_gbps = v;
        }
        if let Some(v) = self.max_inflight_misses {
            cfg.mem.max_inflight_misses = v;
        }
    }
}

/// Why a plan was rejected. Rendered verbatim in the CLI's exit-2
/// diagnostic, so messages name the offending entity precisely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError {
    /// What is wrong with the plan.
    pub msg: String,
}

impl PlanError {
    fn new(msg: impl Into<String>) -> Self {
        PlanError { msg: msg.into() }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid campaign plan: {}", self.msg)
    }
}

impl std::error::Error for PlanError {}

fn want_u64(v: &Json, what: &str) -> Result<u64, PlanError> {
    v.as_u64()
        .ok_or_else(|| PlanError::new(format!("{what} must be a non-negative integer")))
}

fn want_usize(v: &Json, what: &str) -> Result<usize, PlanError> {
    Ok(want_u64(v, what)? as usize)
}

/// Parses and validates a plan document.
///
/// # Errors
///
/// [`PlanError`] on malformed JSON, a wrong/missing schema string, an
/// unknown app, empty or duplicated `apps`/`seeds`/config ids, or any
/// unknown key (top-level or inside a config entry).
pub fn parse_plan(text: &str) -> Result<CampaignPlan, PlanError> {
    let doc = parse(text).map_err(|e| PlanError::new(format!("not valid JSON: {e}")))?;
    let Json::Obj(members) = &doc else {
        return Err(PlanError::new("plan must be a JSON object"));
    };

    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == PLAN_SCHEMA => {}
        Some(s) => {
            return Err(PlanError::new(format!(
                "unsupported plan schema `{s}` (this engine reads `{PLAN_SCHEMA}`)"
            )))
        }
        None => {
            return Err(PlanError::new(format!(
                "missing `schema` (want `{PLAN_SCHEMA}`)"
            )))
        }
    }

    let mut scale = Scale::Tiny;
    let mut apps: Vec<String> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut configs: Vec<ConfigVariant> = Vec::new();
    let mut saw = (false, false, false);
    // Sets keep the duplicate checks linear in the plan's size; entries
    // are visited in document order, so the first repeat is reported.
    let mut seen_apps = HashSet::new();
    let mut seen_seeds = HashSet::new();

    for (key, value) in members {
        match key.as_str() {
            "schema" => {}
            "scale" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| PlanError::new("`scale` must be a string"))?;
                scale = Scale::parse(s).ok_or_else(|| {
                    PlanError::new(format!(
                        "unknown scale `{s}` (want tiny|small|medium|large)"
                    ))
                })?;
            }
            "apps" => {
                saw.0 = true;
                let arr = value
                    .as_arr()
                    .ok_or_else(|| PlanError::new("`apps` must be an array of app names"))?;
                for v in arr {
                    let name = v
                        .as_str()
                        .ok_or_else(|| PlanError::new("`apps` entries must be strings"))?;
                    if !APP_NAMES.contains(&name) {
                        return Err(PlanError::new(format!(
                            "unknown app `{name}` (known: {})",
                            APP_NAMES.join(", ")
                        )));
                    }
                    if !seen_apps.insert(name) {
                        return Err(PlanError::new(format!("duplicate app `{name}`")));
                    }
                    apps.push(name.to_string());
                }
            }
            "seeds" => {
                saw.1 = true;
                let arr = value
                    .as_arr()
                    .ok_or_else(|| PlanError::new("`seeds` must be an array of integers"))?;
                for v in arr {
                    let seed = want_u64(v, "`seeds` entries")?;
                    if !seen_seeds.insert(seed) {
                        return Err(PlanError::new(format!("duplicate seed {seed}")));
                    }
                    seeds.push(seed);
                }
            }
            "configs" => {
                saw.2 = true;
                let arr = value
                    .as_arr()
                    .ok_or_else(|| PlanError::new("`configs` must be an array of objects"))?;
                for v in arr {
                    configs.push(parse_config(v)?);
                }
            }
            other => {
                return Err(PlanError::new(format!("unknown plan key `{other}`")));
            }
        }
    }

    if !saw.0 || apps.is_empty() {
        return Err(PlanError::new(
            "`apps` must be a non-empty array of builtin app names",
        ));
    }
    if !saw.1 || seeds.is_empty() {
        return Err(PlanError::new(
            "`seeds` must be a non-empty array of integers (zero seeds means zero cells)",
        ));
    }
    if !saw.2 || configs.is_empty() {
        return Err(PlanError::new(
            "`configs` must be a non-empty array of config variants",
        ));
    }
    let mut seen_ids = HashSet::new();
    if let Some(c) = configs.iter().find(|c| !seen_ids.insert(c.id.as_str())) {
        return Err(PlanError::new(format!("duplicate config id `{}`", c.id)));
    }

    Ok(CampaignPlan {
        scale,
        apps,
        seeds,
        configs,
    })
}

fn parse_config(v: &Json) -> Result<ConfigVariant, PlanError> {
    let Json::Obj(members) = v else {
        return Err(PlanError::new("`configs` entries must be objects"));
    };
    let mut variant = ConfigVariant::default();
    let mut saw_id = false;
    for (key, value) in members {
        let what = |field: &str| format!("config `{}`: `{field}`", variant.id);
        match key.as_str() {
            "id" => {
                let id = value
                    .as_str()
                    .ok_or_else(|| PlanError::new("config `id` must be a string"))?;
                if id.is_empty() {
                    return Err(PlanError::new("config `id` must be non-empty"));
                }
                variant.id = id.to_string();
                saw_id = true;
            }
            "chaos" => {
                variant.chaos = value
                    .as_bool()
                    .ok_or_else(|| PlanError::new(format!("{} must be a bool", what("chaos"))))?;
            }
            "retries" => {
                let n = want_u64(value, &what("retries"))?;
                variant.retries = u32::try_from(n).map_err(|_| {
                    PlanError::new(format!("{} is absurdly large ({n})", what("retries")))
                })?;
            }
            "pipelines_per_set" => {
                variant.overrides.pipelines_per_set =
                    Some(want_usize(value, &what("pipelines_per_set"))?);
            }
            "queue_banks" => {
                variant.overrides.queue_banks = Some(want_usize(value, &what("queue_banks"))?);
            }
            "queue_capacity" => {
                variant.overrides.queue_capacity =
                    Some(want_usize(value, &what("queue_capacity"))?);
            }
            "rule_lanes" => {
                variant.overrides.rule_lanes = Some(want_usize(value, &what("rule_lanes"))?);
            }
            "lsu_window" => {
                variant.overrides.lsu_window = Some(want_usize(value, &what("lsu_window"))?);
            }
            "rendezvous_window" => {
                variant.overrides.rendezvous_window =
                    Some(want_usize(value, &what("rendezvous_window"))?);
            }
            "max_cycles" => {
                variant.overrides.max_cycles = Some(want_u64(value, &what("max_cycles"))?);
            }
            "dense_tick" => {
                variant.overrides.dense_tick = Some(value.as_bool().ok_or_else(|| {
                    PlanError::new(format!("{} must be a bool", what("dense_tick")))
                })?);
            }
            "cache_kb" => {
                variant.overrides.cache_kb = Some(want_usize(value, &what("cache_kb"))?);
            }
            "qpi_gbps" => {
                variant.overrides.qpi_gbps = Some(value.as_f64().ok_or_else(|| {
                    PlanError::new(format!("{} must be a number", what("qpi_gbps")))
                })?);
            }
            "max_inflight_misses" => {
                variant.overrides.max_inflight_misses =
                    Some(want_usize(value, &what("max_inflight_misses"))?);
            }
            other => {
                return Err(PlanError::new(format!(
                    "config `{}`: unknown key `{other}`",
                    variant.id
                )));
            }
        }
    }
    if !saw_id {
        return Err(PlanError::new("every config needs an `id`"));
    }
    Ok(variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_plan() -> &'static str {
        r#"{
          "schema": "apir.campaign.plan.v1",
          "scale": "tiny",
          "apps": ["SPEC-BFS", "SPEC-SSSP"],
          "seeds": [1, 2],
          "configs": [
            {"id": "base"},
            {"id": "chaos", "chaos": true},
            {"id": "lowbw", "qpi_gbps": 3.5, "lsu_window": 8}
          ]
        }"#
    }

    #[test]
    fn parses_a_valid_plan() {
        let plan = parse_plan(ok_plan()).unwrap();
        assert_eq!(plan.scale, Scale::Tiny);
        assert_eq!(plan.apps, ["SPEC-BFS", "SPEC-SSSP"]);
        assert_eq!(plan.seeds, [1, 2]);
        assert_eq!(plan.cells(), 2 * 2 * 3);
        assert!(!plan.configs[0].chaos);
        assert!(plan.configs[1].chaos);
        assert_eq!(plan.configs[2].overrides.qpi_gbps, Some(3.5));
        assert_eq!(plan.configs[2].overrides.lsu_window, Some(8));
    }

    #[test]
    fn parses_and_validates_retries() {
        let plan = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"r","chaos":true,"retries":3}]}"#,
        )
        .unwrap();
        assert_eq!(plan.configs[0].retries, 3);
        let plan = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"r"}]}"#,
        )
        .unwrap();
        assert_eq!(plan.configs[0].retries, 0, "retries defaults to zero");
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"r","retries":-1}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("`retries`"), "{e}");
    }

    #[test]
    fn scale_defaults_to_tiny() {
        let text = r#"{"schema":"apir.campaign.plan.v1","apps":["COOR-LU"],
                       "seeds":[7],"configs":[{"id":"x"}]}"#;
        assert_eq!(parse_plan(text).unwrap().scale, Scale::Tiny);
    }

    #[test]
    fn rejects_wrong_schema_and_missing_schema() {
        let e = parse_plan(r#"{"schema":"apir.campaign.plan.v9"}"#).unwrap_err();
        assert!(e.msg.contains("unsupported plan schema `apir.campaign.plan.v9`"), "{e}");
        let e = parse_plan(r#"{"apps":["SPEC-BFS"]}"#).unwrap_err();
        assert!(e.msg.contains("missing `schema`"), "{e}");
    }

    #[test]
    fn rejects_unknown_app_and_duplicates() {
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-FOO"],
                "seeds":[1],"configs":[{"id":"x"}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown app `SPEC-FOO`"), "{e}");
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS","SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"x"}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("duplicate app"), "{e}");
    }

    #[test]
    fn rejects_empty_seeds_and_duplicate_seeds() {
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[],"configs":[{"id":"x"}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("`seeds` must be a non-empty"), "{e}");
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[3,3],"configs":[{"id":"x"}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("duplicate seed 3"), "{e}");
    }

    #[test]
    fn rejects_unknown_keys_and_bad_config_entries() {
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"x"}],"bogus":1}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown plan key `bogus`"), "{e}");
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"x","frobnicate":2}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("config `x`: unknown key `frobnicate`"), "{e}");
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"chaos":true}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("needs an `id`"), "{e}");
        let e = parse_plan(
            r#"{"schema":"apir.campaign.plan.v1","apps":["SPEC-BFS"],
                "seeds":[1],"configs":[{"id":"a"},{"id":"a"}]}"#,
        )
        .unwrap_err();
        assert!(e.msg.contains("duplicate config id `a`"), "{e}");
    }

    #[test]
    fn duplicates_report_the_first_repeat_in_document_order() {
        let plan = |apps: &str, seeds: &str, ids: &str| {
            let configs: Vec<String> = ids
                .split(',')
                .map(|id| format!(r#"{{"id":"{id}"}}"#))
                .collect();
            let text = format!(
                r#"{{"schema":"apir.campaign.plan.v1","apps":[{apps}],
                    "seeds":[{seeds}],"configs":[{}]}}"#,
                configs.join(",")
            );
            parse_plan(&text).unwrap_err().msg
        };
        let bfs_sssp = r#""SPEC-BFS","SPEC-SSSP""#;
        assert_eq!(
            plan(r#""SPEC-SSSP","SPEC-BFS","SPEC-BFS","SPEC-SSSP""#, "1", "a"),
            "duplicate app `SPEC-BFS`"
        );
        assert_eq!(plan(bfs_sssp, "5,6,6,5", "a"), "duplicate seed 6");
        assert_eq!(plan(bfs_sssp, "1,2", "a,b,b,a"), "duplicate config id `b`");
        // Seeds are checked as they are read, config ids only once every
        // config parsed: a repeated seed wins.
        assert_eq!(plan(bfs_sssp, "1,1", "a,a"), "duplicate seed 1");
    }

    #[test]
    fn overrides_apply_only_present_knobs() {
        let plan = parse_plan(ok_plan()).unwrap();
        let base = FabricConfig::default();
        let mut cfg = base.clone();
        plan.configs[0].overrides.apply(&mut cfg);
        assert_eq!(
            format!("{cfg:?}"),
            format!("{base:?}"),
            "empty overrides are the identity"
        );
        plan.configs[2].overrides.apply(&mut cfg);
        assert_eq!(cfg.mem.qpi_gbps, 3.5);
        assert_eq!(cfg.lsu_window, 8);
        assert_eq!(cfg.queue_banks, base.queue_banks);
    }
}
