//! Grid-vs-single-cell equivalence: the grid runner and the request path —
//! which share one load preparation among the cells a grid worker runs or
//! a micro-batch holds, and run every cell on a copy of one cached system —
//! must give rows **bit-identical** to a fresh single-scenario run: same
//! lifetimes (to the last mantissa bit), same residual charge, same switch
//! and decision counts — across uniform and mixed fleets, every paper load,
//! seeded random loads and both table-driven backends (discretized KiBaM
//! and RV diffusion). Each backend has one stepping path: the identity of
//! its batch kernel with the scalar reference is proved step by step in the
//! backends' lockstep tests, and the committed `BENCH_*.json` documents
//! (`scenarios --compare` in CI) pin the result bits themselves. This suite
//! pins the engine wiring; the last case pins the engine's optimal rows to
//! direct calls into the core search the same way.

use battery_sched::optimal::{OptimalOutcome, OptimalScheduler, RootBounds};
use battery_sched::system::SystemConfig;
use battery_sched::BatteryModel;
use dkibam::DiscretizedLoad;
use engine::api::run_requests;
use engine::json::JsonValue;
use engine::{
    results_from_json, run_scenario, BackendKind, BatterySpec, DiscSpec, FleetDef, GridRun,
    LoadSpec, PolicyKind, Request, Scenario, ScenarioResult, ScenarioSpec, SearchStats, ServeError,
    WorkerCache,
};
use workload::paper_loads::TestLoad;

/// Both fleet shapes of the paper experiments: the uniform pair and the
/// heterogeneous B1+B2 mix (two type groups).
fn spec_with(loads: Vec<LoadSpec>, policies: Vec<PolicyKind>) -> ScenarioSpec {
    ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()])],
        discretizations: vec![DiscSpec::paper()],
        loads,
        policies,
        backends: vec![BackendKind::Discretized, BackendKind::Rv],
    }
}

fn assert_identical(grid: &ScenarioResult, single: &ScenarioResult, context: &str) {
    assert_eq!(grid.scenario, single.scenario, "{context}: scenario mismatch");
    assert_eq!(
        grid.lifetime_minutes.map(f64::to_bits),
        single.lifetime_minutes.map(f64::to_bits),
        "{context}: lifetime diverged ({:?} vs {:?})",
        grid.lifetime_minutes,
        single.lifetime_minutes
    );
    assert_eq!(
        grid.residual_charge.to_bits(),
        single.residual_charge.to_bits(),
        "{context}: residual charge diverged ({} vs {})",
        grid.residual_charge,
        single.residual_charge
    );
    assert_eq!(grid.switches, single.switches, "{context}: switch count diverged");
    assert_eq!(grid.decisions, single.decisions, "{context}: decision count diverged");
    assert_eq!(grid.search, single.search, "{context}: search stats diverged");
    assert_eq!(grid.seeded_by, single.seeded_by, "{context}: seed label diverged");
}

/// Runs the grid through the grid runner and re-runs every cell through
/// the single-scenario entry point on a fresh cache, asserting bit-identity.
fn assert_grid_matches_single_runs(spec: &ScenarioSpec) {
    let grid = GridRun::new(spec).threads(1).collect().expect("the grid runs");
    assert_eq!(grid.len(), spec.expand().len());
    for result in &grid {
        let single = run_scenario(&result.scenario).expect("the single scenario runs");
        assert_identical(result, &single, &result.scenario.label());
    }
}

#[test]
fn all_paper_loads_match_scalar_bit_for_bit() {
    let loads = TestLoad::all().into_iter().map(LoadSpec::Paper).collect();
    let spec = spec_with(loads, vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo]);
    assert_grid_matches_single_runs(&spec);
}

#[test]
fn remaining_deterministic_policies_match_scalar() {
    let loads = vec![LoadSpec::Paper(TestLoad::Ils500), LoadSpec::Paper(TestLoad::IlsAlt)];
    let spec = spec_with(loads, vec![PolicyKind::Sequential, PolicyKind::CapacityRr]);
    assert_grid_matches_single_runs(&spec);
}

#[test]
fn seeded_random_loads_match_scalar() {
    let loads = (0..8).map(|seed| LoadSpec::random_paper_levels(seed, 12)).collect();
    let spec = spec_with(loads, vec![PolicyKind::RoundRobin]);
    assert_grid_matches_single_runs(&spec);
}

#[test]
fn thread_count_does_not_change_batched_results() {
    // Different worker counts claim different ranges, so cells share
    // different load preparations — the results must not differ.
    let loads = TestLoad::all().into_iter().map(LoadSpec::Paper).collect();
    let spec = spec_with(loads, vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo]);
    let serial = GridRun::new(&spec).threads(1).collect().unwrap();
    let parallel = GridRun::new(&spec).threads(4).collect().unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_identical(b, a, &a.scenario.label());
    }
}

/// A row's JSON without its wall-clock field, the one field a repeated run
/// may change.
fn without_wall_clock(row: &JsonValue) -> JsonValue {
    let JsonValue::Object(fields) = row else { panic!("a result row is an object: {row:?}") };
    JsonValue::Object(fields.iter().filter(|(key, _)| key != "wall_micros").cloned().collect())
}

#[test]
fn uneven_cost_grid_matches_single_runs_on_every_thread_count() {
    // The sweep shape: fleet-outer, so the 8xB1 and B1+B2 cells cost several
    // times the 2xB1 ones and claims of equal length take unequal time.
    // Every worker count must reproduce the single runs bit for bit, both
    // collected and streamed.
    let spec = ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![
            FleetDef::uniform(BatterySpec::b1(), 2),
            FleetDef::uniform(BatterySpec::b1(), 4),
            FleetDef::uniform(BatterySpec::b1(), 8),
            FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()]),
        ],
        discretizations: vec![DiscSpec::paper()],
        loads: (11..14).map(|seed| LoadSpec::random_paper_levels(seed, 40)).collect(),
        policies: PolicyKind::deterministic().to_vec(),
        backends: vec![BackendKind::Discretized, BackendKind::Rv],
    };
    let singles: Vec<ScenarioResult> = spec
        .expand()
        .iter()
        .map(|scenario| run_scenario(scenario).expect("the single scenario runs"))
        .collect();
    assert_eq!(singles.len(), 96);
    for threads in 1..=4 {
        let rows = GridRun::new(&spec).threads(threads).collect().expect("the grid runs");
        assert_eq!(rows.len(), singles.len());
        for (row, single) in rows.iter().zip(&singles) {
            assert_identical(
                row,
                single,
                &format!("{threads} threads: {}", single.scenario.label()),
            );
        }
        let mut buffer = Vec::new();
        let summary = GridRun::new(&spec).threads(threads).stream(&mut buffer).unwrap();
        assert_eq!(summary.written, singles.len());
        let (_, streamed) = results_from_json(&String::from_utf8(buffer).unwrap()).unwrap();
        assert_eq!(streamed.len(), singles.len());
        for (row, single) in streamed.iter().zip(&singles) {
            assert_eq!(
                without_wall_clock(row),
                without_wall_clock(&single.to_json_value()),
                "{threads} threads, streamed: {}",
                single.scenario.label()
            );
        }
    }
}

#[test]
fn shared_load_preparation_keys_on_the_charge_horizon() {
    // Cells that share a load spec share one discretized load per grid
    // worker or micro-batch — but a cyclic load is truncated at each fleet's
    // own charge horizon, so 2xB1 and 4xB1 on `ILs 250` must not share one
    // (4xB1 round robin draws 14.9 A·min, past the 13.75 A·min 2xB1
    // horizon), while the finite random load may.
    let cyclic = LoadSpec::Paper(TestLoad::Ils250);
    let spec = ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![
            FleetDef::uniform(BatterySpec::b1(), 2),
            FleetDef::uniform(BatterySpec::b1(), 4),
        ],
        discretizations: vec![DiscSpec::paper()],
        loads: vec![cyclic.clone(), LoadSpec::random_paper_levels(7, 12), cyclic.clone()],
        policies: PolicyKind::deterministic().to_vec(),
        backends: vec![BackendKind::Discretized, BackendKind::Rv],
    };
    let scenarios = spec.expand();
    // 24 cells per fleet; one worker runs them all through one load memo,
    // which then holds `ILs 250` under both fleets' horizons.
    assert_eq!(scenarios.len(), 48);
    for threads in [1, 2] {
        let rows = GridRun::new(&spec).threads(threads).collect().expect("the grid runs");
        assert_eq!(rows.len(), scenarios.len());
        for row in &rows {
            let single = run_scenario(&row.scenario).expect("the single scenario runs");
            assert_identical(row, &single, &format!("{threads} threads: {}", row.scenario.label()));
        }
    }

    // One micro-batch alternating the fleets cell by cell, with a load that
    // cannot be prepared twice: both copies answer with its error, and
    // their neighbours are unaffected.
    let broken =
        LoadSpec::Custom { name: "broken".into(), epochs: vec![(0.5, -1.0)], cyclic: false };
    let mut cells: Vec<Scenario> = Vec::new();
    for (pair, quad) in scenarios[..24].iter().zip(&scenarios[24..]) {
        cells.extend([pair.clone(), quad.clone()]);
    }
    for at in [1, 30] {
        let mut bad = cells[at].clone();
        bad.load = broken.clone();
        cells.insert(at, bad);
    }
    let requests: Vec<Request> = cells.iter().cloned().map(Request::of_scenario).collect();
    let responses = run_requests(&requests, &WorkerCache::new());
    assert_eq!(responses.len(), 50);
    for (cell, response) in cells.iter().zip(&responses) {
        match run_scenario(cell) {
            Ok(single) => {
                let row = response.outcome.as_ref().expect("a preparable cell answers");
                assert_identical(row, &single, &cell.label());
            }
            Err(error) => {
                assert_eq!(cell.load, broken, "{}: only the broken load fails", cell.label());
                assert_eq!(response.outcome, Err(ServeError::from_engine(&error)));
            }
        }
    }
    assert_eq!(responses.iter().filter(|r| !r.is_ok()).count(), 2);
}

/// The root bounds and the search outcome of direct core calls, each on a
/// freshly built model.
fn direct_search<M: BatteryModel>(
    config: &SystemConfig,
    load: &DiscretizedLoad,
    budget: usize,
    fresh_model: impl Fn() -> M,
) -> (RootBounds, OptimalOutcome) {
    let bounds = OptimalScheduler::probe_root_bounds(config, load, &mut fresh_model())
        .expect("the root phase runs");
    let outcome = OptimalScheduler::with_budget(budget)
        .find_optimal_with(config, load, &mut fresh_model())
        .expect("the search finishes");
    (bounds, outcome)
}

#[test]
fn optimal_rows_match_direct_core_searches() {
    // The engine times the search's root phase apart from its exploration;
    // its rows must still carry exactly what the core API returns. Paper
    // loads on both fleet shapes, plus a seeded random load the pair
    // survives (the search then proves the whole load).
    let grid = |fleet: FleetDef, loads: Vec<LoadSpec>| ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![fleet],
        discretizations: vec![DiscSpec::coarse()],
        loads,
        policies: vec![PolicyKind::optimal()],
        backends: vec![BackendKind::Discretized, BackendKind::Rv, BackendKind::Continuous],
    };
    let pair = FleetDef::uniform(BatterySpec::b1(), 2);
    let mixed = FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()]);
    let mut rows = Vec::new();
    for spec in [
        grid(pair, vec![LoadSpec::Paper(TestLoad::IlsAlt), LoadSpec::random_paper_levels(3, 20)]),
        grid(mixed, vec![LoadSpec::Paper(TestLoad::Cl500), LoadSpec::Paper(TestLoad::Ils500)]),
    ] {
        rows.extend(GridRun::new(&spec).threads(1).collect().expect("the optimal grid runs"));
    }
    assert_eq!(rows.len(), 12);
    for row in &rows {
        let scenario = &row.scenario;
        let context = scenario.label();
        let PolicyKind::Optimal { budget } = scenario.policy else {
            panic!("{context}: every cell is optimal");
        };
        let config = SystemConfig::from_fleet(
            scenario.fleet.to_fleet_spec().unwrap(),
            scenario.disc.to_discretization().unwrap(),
        );
        let load = config.discretize(&scenario.load.profile().unwrap()).unwrap();
        let (bounds, outcome) = match scenario.backend {
            BackendKind::Discretized => {
                direct_search(&config, &load, budget, || config.discretized_model())
            }
            BackendKind::Rv => direct_search(&config, &load, budget, || config.rv_model()),
            BackendKind::Continuous => {
                direct_search(&config, &load, budget, || config.continuous_model())
            }
            BackendKind::Ideal => unreachable!("{context}: the grid has no ideal cells"),
        };
        assert_eq!(row.root_bounds, Some(bounds), "{context}: root bounds diverged");
        assert_eq!(row.seeded_by.as_deref(), outcome.seeded_by, "{context}: seed label diverged");
        let stats = SearchStats {
            nodes_explored: outcome.nodes_explored as u64,
            memo_hits: outcome.memo_hits as u64,
            dominance_prunes: outcome.dominance_prunes as u64,
            charge_bound_prunes: outcome.charge_bound_prunes as u64,
            availability_bound_prunes: outcome.availability_bound_prunes as u64,
            relax_bound_prunes: outcome.relax_bound_prunes as u64,
        };
        assert_eq!(row.search, Some(stats), "{context}: search stats diverged");
        assert_eq!(
            row.lifetime_minutes.map(f64::to_bits),
            Some(outcome.lifetime_minutes(&config).to_bits()),
            "{context}: lifetime diverged"
        );
    }
}
