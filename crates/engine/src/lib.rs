//! Declarative scenario grids over the battery-scheduling simulator.
//!
//! The seed repository regenerated every table of the paper with a bespoke
//! loop. This crate replaces those loops with a single declarative layer:
//!
//! 1. describe a **grid** with a [`ScenarioSpec`] — battery fleets (uniform
//!    `battery × count` sugar or heterogeneous `B1+B2` mixes) ×
//!    discretizations × loads × policies × backends;
//! 2. [`run_grid`] expands the grid and executes every cell **in parallel**
//!    on scoped worker threads, through the backend-agnostic
//!    [`battery_sched::model::BatteryModel`] simulation path — each cell on
//!    a copy of the one cached system for its fleet and discretization,
//!    which shares that system's tables;
//! 3. results (and the spec itself) **round-trip through JSON** via the
//!    built-in writer/parser in [`json`], so sweeps can be scripted,
//!    archived and diffed (`BENCH_scenarios.json` in the bench crate).
//!
//! # Example
//!
//! ```
//! use engine::{run_grid, BackendKind, BatterySpec, DiscSpec, FleetDef, LoadSpec,
//!              PolicyKind, ScenarioSpec};
//! use workload::paper_loads::TestLoad;
//!
//! # fn main() -> Result<(), engine::EngineError> {
//! let spec = ScenarioSpec {
//!     // `batteries × battery_counts` is sugar for uniform fleets; the
//!     // `fleets` axis adds heterogeneous systems like B1+B2.
//!     batteries: vec![BatterySpec::b1()],
//!     battery_counts: vec![2],
//!     fleets: vec![FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()])],
//!     discretizations: vec![DiscSpec::paper()],
//!     loads: vec![LoadSpec::Paper(TestLoad::Cl500), LoadSpec::Paper(TestLoad::Ils500)],
//!     policies: vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo],
//!     backends: vec![BackendKind::Discretized],
//! };
//! let results = run_grid(&spec)?;
//! assert_eq!(results.len(), 8);
//! // Table 5: round robin on ILs 500 lives about 10.48 minutes on 2 x B1.
//! let rr = results
//!     .iter()
//!     .find(|r| r.scenario.load.name() == "ILs 500"
//!         && r.scenario.policy == PolicyKind::RoundRobin
//!         && r.scenario.fleet.name == "2xB1")
//!     .unwrap();
//! assert!((rr.lifetime_minutes.unwrap() - 10.48).abs() < 0.15);
//! // The mixed fleet (5.5 + 11 A·min) outlives the uniform pair.
//! let mixed = results
//!     .iter()
//!     .find(|r| r.scenario.load.name() == "ILs 500"
//!         && r.scenario.policy == PolicyKind::RoundRobin
//!         && r.scenario.fleet.name == "B1+B2")
//!     .unwrap();
//! assert!(mixed.lifetime_minutes.unwrap() > rr.lifetime_minutes.unwrap());
//! // The whole result set serializes to JSON.
//! let json = engine::results_to_json(&spec, &results)?;
//! assert!(json.contains("\"B1+B2\""));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod api;
pub mod json;
mod runner;
mod spec;

pub use api::{ErrorCode, GridRun, Request, RequestClass, Response, ServeError};
pub use runner::{
    results_from_json, results_to_json, run_grid, run_scenario, run_scenario_with_cache,
    ScenarioResult, SearchStats, SharedCacheStats, SharedSystemCache, StreamSummary,
    StreamingResultWriter, WorkerCache, TIMING_FIELDS,
};
pub use spec::{
    BackendKind, BatterySpec, DiscSpec, FleetDef, LoadSpec, PolicyKind, Scenario, ScenarioSpec,
};

use std::fmt;

/// Errors produced by the scenario engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A scenario failed inside the scheduling stack.
    Sched(battery_sched::SchedError),
    /// A battery specification failed validation.
    Kibam(kibam::KibamError),
    /// A load specification failed validation.
    Workload(workload::WorkloadError),
    /// A JSON document could not be parsed or rendered.
    Json(json::JsonError),
    /// A well-formed JSON document did not describe a valid grid.
    InvalidSpec(String),
    /// A streaming writer failed to write.
    Io(std::io::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sched(e) => write!(f, "simulation error: {e}"),
            EngineError::Kibam(e) => write!(f, "battery spec error: {e}"),
            EngineError::Workload(e) => write!(f, "load spec error: {e}"),
            EngineError::Json(e) => write!(f, "{e}"),
            EngineError::InvalidSpec(message) => write!(f, "invalid scenario spec: {message}"),
            EngineError::Io(e) => write!(f, "stream write error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Sched(e) => Some(e),
            EngineError::Kibam(e) => Some(e),
            EngineError::Workload(e) => Some(e),
            EngineError::Json(e) => Some(e),
            EngineError::InvalidSpec(_) => None,
            EngineError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<battery_sched::SchedError> for EngineError {
    fn from(e: battery_sched::SchedError) -> Self {
        EngineError::Sched(e)
    }
}

impl From<kibam::KibamError> for EngineError {
    fn from(e: kibam::KibamError) -> Self {
        EngineError::Kibam(e)
    }
}

impl From<workload::WorkloadError> for EngineError {
    fn from(e: workload::WorkloadError) -> Self {
        EngineError::Workload(e)
    }
}

impl From<json::JsonError> for EngineError {
    fn from(e: json::JsonError) -> Self {
        EngineError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e: EngineError = battery_sched::SchedError::NoBatteries.into();
        assert!(e.to_string().contains("simulation error"));
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::InvalidSpec("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
