//! In-process layer probes of the traced run: spans timed from the
//! benchmark's own code around calls into each layer's public functions,
//! over the workload's own seeded inputs. Nothing inside the program is
//! instrumented.

use crate::stats::Sample;
use crate::workloads::Metric;
use battery_sched::optimal::OptimalScheduler;
use battery_sched::policy::FixedSchedule;
use battery_sched::system::{simulate_policy_with, SystemConfig};
use engine::api::run_requests;
use engine::{Request, RequestClass, Response, Scenario, SharedSystemCache, WorkerCache};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed through the request-path probes.
const REQUEST_PROBES: usize = 400;

/// Times `f` in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e6)
}

fn median(values: Vec<f64>) -> f64 {
    Sample::new(values).median().unwrap_or(0.0)
}

/// A validated system configuration for a scenario's fleet and grid.
fn config_of(scenario: &Scenario) -> Result<SystemConfig, String> {
    let fleet = scenario.fleet.to_fleet_spec().map_err(|e| e.to_string())?;
    let disc = scenario.disc.to_discretization().map_err(|e| e.to_string())?;
    Ok(SystemConfig::from_fleet(fleet, disc))
}

/// The request path `served` takes for each line, one layer at a time:
/// parse (`Request::from_line`), the prototype clone a fresh worker cache
/// pays (`run_requests` on a fresh `WorkerCache::with_shared` minus the same
/// call on a warm one), execute, and render. Also load profiles and
/// discretization, which every request pays before it simulates.
pub fn request_path(scenarios: &[Scenario]) -> Result<Vec<Metric>, String> {
    let scenarios = &scenarios[..scenarios.len().min(REQUEST_PROBES)];
    let lines: Vec<String> = scenarios
        .iter()
        .enumerate()
        .map(|(id, scenario)| {
            crate::gen::Line::new(scenario.clone(), RequestClass::Interactive).text(id as u64)
        })
        .collect();
    let mut parse = Vec::new();
    let mut requests = Vec::new();
    for line in &lines {
        let (request, micros) = timed(|| Request::from_line(line));
        requests.push(request.map_err(|e| e.to_string())?);
        parse.push(micros);
    }

    let shared = Arc::new(SharedSystemCache::new());
    let mut warm = WorkerCache::with_shared(Arc::clone(&shared));
    // Warm the shared and the worker cache with every system first.
    let _ = run_requests(&requests, &mut warm);
    let (mut fresh_us, mut warm_us, mut render) = (Vec::new(), Vec::new(), Vec::new());
    for request in &requests {
        let one = std::slice::from_ref(request);
        let (_, micros) =
            timed(|| run_requests(one, &mut WorkerCache::with_shared(Arc::clone(&shared))));
        fresh_us.push(micros);
        let (responses, micros) = timed(|| run_requests(one, &mut warm));
        warm_us.push(micros);
        let response: &Response = &responses[0];
        if !response.is_ok() {
            return Err(format!("probe request failed: {:?}", response.outcome));
        }
        let (rendered, micros) = timed(|| response.to_json_value().render());
        rendered.map_err(|e| e.to_string())?;
        render.push(micros);
    }
    let stats = shared.stats();
    let exec = median(warm_us);

    let mut configs: BTreeMap<String, SystemConfig> = BTreeMap::new();
    let (mut profile_us, mut discretize_us) = (Vec::new(), Vec::new());
    for scenario in scenarios {
        let key = format!("{}@{}", scenario.fleet.name, scenario.disc.time_step);
        if !configs.contains_key(&key) {
            configs.insert(key.clone(), config_of(scenario)?);
        }
        let config = &configs[&key];
        let (profile, micros) = timed(|| scenario.load.profile());
        let profile = profile.map_err(|e| e.to_string())?;
        profile_us.push(micros);
        let (load, micros) = timed(|| config.discretize(&profile));
        load.map_err(|e| e.to_string())?;
        discretize_us.push(micros);
    }

    Ok(vec![
        Metric::new("served.parse_us", median(parse), "us"),
        Metric::new("served.render_us", median(render), "us"),
        Metric::new("engine.lookup_us", median(fresh_us) - exec, "us"),
        Metric::new("engine.exec_us", exec, "us"),
        Metric::new(
            "engine.cache_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.builds).max(1) as f64,
            "share",
        ),
        Metric::new("workload.profile_us", median(profile_us), "us"),
        Metric::new("core.discretize_us", median(discretize_us), "us"),
    ])
}

/// The optimal search of each batch scenario, phase by phase as the engine
/// runs it: the root-bound probe, the search, and the replay of the found
/// schedule. Node and prune counts are exact and repeat for a seed.
pub fn search(scenarios: &[Scenario]) -> Result<Vec<Metric>, String> {
    let (mut probe_ms, mut find_ms, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut memo, mut charge, mut availability, mut relax) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut find_total_s = 0.0;
    for scenario in scenarios {
        let engine::PolicyKind::Optimal { budget } = scenario.policy else {
            return Err("search probes need optimal scenarios".into());
        };
        let config = config_of(scenario)?;
        let profile = scenario.load.profile().map_err(|e| e.to_string())?;
        let load = config.discretize(&profile).map_err(|e| e.to_string())?;
        let mut model = config.discretized_model();
        let (bounds, micros) =
            timed(|| OptimalScheduler::probe_root_bounds(&config, &load, &mut model));
        bounds.map_err(|e| e.to_string())?;
        probe_ms.push(micros / 1e3);
        let scheduler = OptimalScheduler::with_budget(budget);
        let (outcome, micros) = timed(|| scheduler.find_optimal_with(&config, &load, &mut model));
        let outcome = outcome.map_err(|e| e.to_string())?;
        find_ms.push(micros / 1e3);
        find_total_s += micros / 1e6;
        let mut replay = FixedSchedule::new(outcome.decisions.clone());
        let (replayed, micros) =
            timed(|| simulate_policy_with(&config, &load, &mut replay, &mut model));
        replayed.map_err(|e| e.to_string())?;
        replay_ms.push(micros / 1e3);
        nodes += outcome.nodes_explored as u64;
        memo += outcome.memo_hits as u64;
        charge += outcome.charge_bound_prunes as u64;
        availability += outcome.availability_bound_prunes as u64;
        relax += outcome.relax_bound_prunes as u64;
    }
    Ok(vec![
        Metric::new("search.probe_ms", median(probe_ms), "ms"),
        Metric::new("search.find_ms", median(find_ms), "ms"),
        Metric::new("search.replay_ms", median(replay_ms), "ms"),
        Metric::new("search.nodes", nodes as f64, "count"),
        Metric::new("search.nodes_per_s", nodes as f64 / find_total_s.max(1e-9), "1/s"),
        Metric::new("search.memo_hit_ratio", memo as f64 / (nodes + memo).max(1) as f64, "share"),
        Metric::new("search.prunes.charge", charge as f64, "count"),
        Metric::new("search.prunes.availability", availability as f64, "count"),
        Metric::new("search.prunes.relax", relax as f64, "count"),
    ])
}

/// Battery-steps a cell simulated: its lifetime (or, when the fleet
/// outlived the load, the load's length) in time steps, times the fleet
/// size.
fn battery_steps(scenario: &Scenario, lifetime_minutes: Option<f64>) -> f64 {
    let minutes =
        lifetime_minutes.or_else(|| scenario.load.profile().ok()?.total_duration()).unwrap_or(0.0);
    minutes / scenario.disc.time_step * scenario.fleet.battery_count() as f64
}

/// Per-cell simulation cost and kernel throughput, tallied from answered
/// deterministic rows.
#[derive(Debug, Default)]
pub struct SimTally {
    cells: usize,
    wall_micros: u64,
    /// Per backend: (battery-steps, simulate µs).
    kernels: BTreeMap<&'static str, (f64, f64)>,
}

impl SimTally {
    pub fn add(&mut self, scenario: &Scenario, lifetime_minutes: Option<f64>, wall_micros: u64) {
        self.cells += 1;
        self.wall_micros += wall_micros;
        let entry = self.kernels.entry(scenario.backend.name()).or_default();
        entry.0 += battery_steps(scenario, lifetime_minutes);
        entry.1 += wall_micros as f64;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let rate = |backend: &str| {
            self.kernels
                .get(backend)
                .map_or(0.0, |&(steps, micros)| steps / (micros.max(1.0) / 1e6))
        };
        vec![
            // A mean: `wall_micros` is whole microseconds, so a median of a
            // few µs would read the same on every run.
            Metric::new(
                "core.simulate_us",
                self.wall_micros as f64 / self.cells.max(1) as f64,
                "us",
            ),
            Metric::new("dkibam.cell_steps_per_s", rate("discretized"), "1/s"),
            Metric::new("rv.cell_steps_per_s", rate("rv"), "1/s"),
        ]
    }
}
