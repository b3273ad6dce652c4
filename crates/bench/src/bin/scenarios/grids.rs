//! The collected grids: the paper grid, the optimal grid with its frontier
//! root bounds, the fleet grid and the cross-model grid with its rankings.
//! Every grid runs its specs through [`run`] and returns its document.

use crate::gates::GatedGrid;
use crate::Error;
use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use dkibam::Discretization;
use engine::json::JsonValue;
use engine::{
    BackendKind, BatterySpec, DiscSpec, FleetDef, GridRun, LoadSpec, PolicyKind, ScenarioResult,
    ScenarioSpec,
};
use kibam::{BatteryParams, FleetSpec};
use std::time::Instant;
use workload::paper_loads::TestLoad;

/// Runs every cell of `spec` on all cores, in grid order.
pub fn run(spec: &ScenarioSpec, what: &str) -> Result<Vec<ScenarioResult>, Error> {
    let start = Instant::now();
    let results = GridRun::new(spec)
        .collect()
        .map_err(|error| Error::Failed(format!("{what} failed: {error}")))?;
    println!("{what}: ran {} scenarios in {:.2?}", results.len(), start.elapsed());
    Ok(results)
}

/// A grid document: the spec and one row per result.
fn document(spec: &ScenarioSpec, results: &[ScenarioResult]) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("spec", spec.to_json_value()),
        ("results", JsonValue::Array(results.iter().map(ScenarioResult::to_json_value).collect())),
    ]
}

/// A spec on the 2 × B1 fleet (the paper's system) at one discretization.
pub fn two_b1(
    disc: DiscSpec,
    loads: Vec<LoadSpec>,
    policies: Vec<PolicyKind>,
    backends: Vec<BackendKind>,
) -> ScenarioSpec {
    ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![],
        discretizations: vec![disc],
        loads,
        policies,
        backends,
    }
}

/// The same grid on an explicit fleet instead of 2 × B1.
fn on_fleet(fleet: FleetDef, spec: ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec { batteries: vec![], battery_counts: vec![], fleets: vec![fleet], ..spec }
}

fn paper_loads(loads: &[TestLoad]) -> Vec<LoadSpec> {
    loads.iter().copied().map(LoadSpec::Paper).collect()
}

/// The four deterministic policies followed by the optimal search.
fn policies_and_optimal() -> Vec<PolicyKind> {
    let mut policies = PolicyKind::deterministic().to_vec();
    policies.push(PolicyKind::optimal());
    policies
}

/// A row's lifetime for the printed tables.
pub fn lifetime_label(result: &ScenarioResult) -> String {
    result.lifetime_minutes.map_or_else(|| "-".to_owned(), |m| format!("{m:.2} min"))
}

/// The Table 5 grid: 60 scenarios, printed as a table and archived as
/// `BENCH_scenarios.json`.
pub fn paper() -> Result<JsonValue, Error> {
    let spec = ScenarioSpec::paper_table5();
    let results = run(&spec, "paper grid")?;
    println!("{:<40} {:>10} {:>10}", "scenario", "lifetime", "residual");
    for result in &results {
        println!(
            "{:<40} {:>10} {:>10.2}",
            result.scenario.label(),
            lifetime_label(result),
            result.residual_charge,
        );
    }
    Ok(JsonValue::object(document(&spec, &results)))
}

/// Optimal-vs-policy on the coarse grid, with node counts: the CI
/// regression gate of the search (`BENCH_optimal.json`).
///
/// On top of the classic 2×B1 grid, the document carries the
/// alternating-load *frontier* instance the availability bound contains —
/// 3×B1 on `ILs alt` — as extra rows outside the node ceiling (the 4×B1
/// and 22 A·min mixed-fleet searches still exceed the 20M-node budget; see
/// ROADMAP.md), and the root bounds of the frontier fleets.
pub fn optimal() -> Result<GatedGrid, Error> {
    let spec = two_b1(
        DiscSpec::coarse(),
        paper_loads(&[TestLoad::Cl500, TestLoad::Ils500, TestLoad::IlsAlt, TestLoad::Ils250]),
        policies_and_optimal(),
        vec![BackendKind::Discretized],
    );
    let frontier = on_fleet(
        FleetDef::uniform(BatterySpec::b1(), 3),
        two_b1(
            DiscSpec::coarse(),
            paper_loads(&[TestLoad::IlsAlt]),
            vec![PolicyKind::optimal()],
            vec![BackendKind::Discretized],
        ),
    );
    let mut results = run(&spec, "optimal grid (coarse)")?;
    results.extend(run(&frontier, "optimal frontier")?);
    let mut fields = document(&spec, &results);
    fields.insert(1, ("frontier_spec", frontier.to_json_value()));
    fields.push(("frontier_root_bounds", frontier_root_bounds()?));
    Ok(GatedGrid {
        document: JsonValue::object(fields),
        gated: results,
        ceiling_rows: spec.scenario_count(),
    })
}

/// Probes the root bounds (charge / availability / warm start) of the
/// alternating-load frontier fleets on the coarse grid — the
/// machine-readable trajectory of the bound-tightening work. A `null`
/// availability bound means the backend reports no envelopes (never
/// expected here).
fn frontier_root_bounds() -> Result<JsonValue, Error> {
    let fleets: [(&str, &[BatteryParams]); 4] = [
        ("2xB1", &[BatteryParams::itsy_b1(); 2]),
        ("3xB1", &[BatteryParams::itsy_b1(); 3]),
        (
            "2xB1+B2",
            &[BatteryParams::itsy_b1(), BatteryParams::itsy_b1(), BatteryParams::itsy_b2()],
        ),
        ("4xB1", &[BatteryParams::itsy_b1(); 4]),
    ];
    let profile = TestLoad::IlsAlt.profile();
    let mut rows = Vec::new();
    println!("frontier root bounds (ILs alt, coarse grid):");
    for (name, batteries) in fleets {
        let config =
            SystemConfig::from_fleet(FleetSpec::new(batteries.to_vec())?, Discretization::coarse());
        let load = config.discretize(&profile)?;
        let mut model = config.discretized_model();
        let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model)?;
        let availability = bounds.availability.map_or("none".to_owned(), |steps| steps.to_string());
        println!(
            "  {name:<8} charge {}, availability {availability}, warm start {}",
            bounds.charge, bounds.warm_start
        );
        #[allow(clippy::cast_precision_loss)]
        let field = |steps: u64| JsonValue::Number(steps as f64);
        rows.push(JsonValue::object(vec![
            ("fleet", JsonValue::String(name.to_owned())),
            ("load", JsonValue::String(TestLoad::IlsAlt.name().to_owned())),
            ("charge_steps", field(bounds.charge)),
            ("availability_steps", bounds.availability.map_or(JsonValue::Null, field)),
            ("warm_start_steps", field(bounds.warm_start)),
        ]));
    }
    println!();
    Ok(JsonValue::Array(rows))
}

/// Prints the seed search (pruning disabled — PR 1 behaviour) next to the
/// memoized search so the perf trajectory is visible in the bench log.
pub fn print_seed_vs_memoized() -> Result<(), Error> {
    println!("seed search vs memoized search (coarse grid, 2 x B1):");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "load", "seed nodes", "seed wall", "memo nodes", "memo wall", "ratio"
    );
    let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2)?;
    for load in [TestLoad::IlsAlt, TestLoad::Ils250] {
        let discretized = config.discretize(&load.profile())?;
        let seed_start = Instant::now();
        let seed = OptimalScheduler::reference().find_optimal_on(&config, &discretized)?;
        let seed_wall = seed_start.elapsed();
        let memo_start = Instant::now();
        let memo = OptimalScheduler::new().find_optimal_on(&config, &discretized)?;
        let memo_wall = memo_start.elapsed();
        if seed.lifetime_steps != memo.lifetime_steps {
            return Err(Error::Failed(format!(
                "pruning changed the optimum on {}: {} steps, seed search {}",
                load.name(),
                memo.lifetime_steps,
                seed.lifetime_steps
            )));
        }
        #[allow(clippy::cast_precision_loss)]
        let ratio = seed.nodes_explored as f64 / memo.nodes_explored as f64;
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>6.1}x",
            load.name(),
            seed.nodes_explored,
            format!("{seed_wall:.2?}"),
            memo.nodes_explored,
            format!("{memo_wall:.2?}"),
            ratio,
        );
    }
    println!(
        "(ILs alt on two batteries is already near-minimal after symmetry pruning; the deep\n\
         ILs 250 search is where the transposition table and dominance pruning pay off)\n"
    );
    Ok(())
}

/// A heterogeneous fleet on the coarse grid: deterministic policies next to
/// the optimal search, under the same gates as the optimal grid
/// (`BENCH_fleet.json`).
pub fn fleet(fleet: FleetDef) -> Result<GatedGrid, Error> {
    let what = format!("fleet grid (coarse, {})", fleet.name);
    let spec = on_fleet(
        fleet,
        two_b1(
            DiscSpec::coarse(),
            paper_loads(&[TestLoad::Cl500, TestLoad::IlsAlt]),
            policies_and_optimal(),
            vec![BackendKind::Discretized],
        ),
    );
    let results = run(&spec, &what)?;
    let document = JsonValue::object(document(&spec, &results));
    let ceiling_rows = results.len();
    Ok(GatedGrid { document, gated: results, ceiling_rows })
}

/// The policies whose relative order defines "the paper's ranking"
/// (Table 5); `capacity-rr` is reported in the table but kept out of the
/// agreement verdict.
const RANKING_POLICIES: [&str; 3] = ["sequential", "round-robin", "best-of-two"];

/// `-1`, `0`, `+1` for worse / tied / better, with lifetimes on the same
/// discrete grid compared exactly.
fn relation(a: f64, b: f64) -> i8 {
    if (a - b).abs() <= 1e-9 {
        0
    } else if a > b {
        1
    } else {
        -1
    }
}

/// The lifetime of one (load, policy, backend) cell of a result set.
fn lifetime_of(results: &[ScenarioResult], load: &str, policy: &str, backend: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| {
            r.scenario.load.name() == load
                && r.scenario.policy.name() == policy
                && r.scenario.backend.name() == backend
        })
        .and_then(|r| r.lifetime_minutes)
}

/// Whether two backends rank the paper's three policies compatibly on one
/// load: a **strict reversal** of any pair (one backend says A outlives B,
/// the other says B outlives A) counts as divergence; a tie against a
/// strict order does not.
fn rankings_agree(results: &[ScenarioResult], load: &str, a: &str, b: &str) -> bool {
    for (i, first) in RANKING_POLICIES.iter().enumerate() {
        for second in &RANKING_POLICIES[i + 1..] {
            let (Some(a_first), Some(a_second), Some(b_first), Some(b_second)) = (
                lifetime_of(results, load, first, a),
                lifetime_of(results, load, second, a),
                lifetime_of(results, load, first, b),
                lifetime_of(results, load, second, b),
            ) else {
                return false;
            };
            if i32::from(relation(a_first, a_second)) * i32::from(relation(b_first, b_second)) < 0 {
                return false;
            }
        }
    }
    true
}

/// The cross-model policy table: every paper load × all four deterministic
/// policies × all four backends (ideal / discretized KiBaM / continuous
/// KiBaM / RV diffusion) at the paper discretization — the three-model
/// agreement story — plus optimal cross-model cells on the coarse grid,
/// the gated rows (`BENCH_crossmodel.json`, with per-load policy rankings
/// and the RV-vs-KiBaM agreement verdict).
pub fn crossmodel() -> Result<GatedGrid, Error> {
    let backends = vec![
        BackendKind::Ideal,
        BackendKind::Discretized,
        BackendKind::Continuous,
        BackendKind::Rv,
    ];
    let ranking_spec = two_b1(
        DiscSpec::paper(),
        paper_loads(&TestLoad::all()),
        PolicyKind::deterministic().to_vec(),
        backends.clone(),
    );
    // ILs 250 is deliberately absent: the continuous and RV backends carry
    // no (or rarely-colliding) memo keys, so their deep slow-drain searches
    // run 70k-135k nodes — fine for a study, not for the CI node ceiling.
    let optimal_spec = two_b1(
        DiscSpec::coarse(),
        paper_loads(&[TestLoad::Cl500, TestLoad::IlsAlt]),
        vec![PolicyKind::optimal()],
        backends.clone(),
    );
    let mut results = run(&ranking_spec, "cross-model ranking grid")?;
    let optimal_results = run(&optimal_spec, "cross-model optimal grid")?;

    // Per-load, per-backend policy orderings plus the RV-vs-KiBaM verdict.
    let mut ranking_rows = Vec::new();
    let mut divergent: Vec<String> = Vec::new();
    for load in &ranking_spec.loads {
        let load_name = load.name();
        let mut backend_rows = Vec::new();
        for backend in &backends {
            let mut cells: Vec<(&'static str, f64)> = PolicyKind::deterministic()
                .iter()
                .filter_map(|p| {
                    lifetime_of(&results, &load_name, p.name(), backend.name())
                        .map(|lifetime| (p.name(), lifetime))
                })
                .collect();
            cells.sort_by(|a, b| b.1.total_cmp(&a.1));
            let order = cells
                .iter()
                .map(|(policy, lifetime)| format!("{policy} ({lifetime:.2})"))
                .collect::<Vec<_>>();
            println!("  {load_name:<8} {:<12} {}", backend.name(), order.join(" >= "));
            let policy_names = cells.iter().map(|(policy, _)| JsonValue::String((*policy).into()));
            backend_rows.push(JsonValue::object(vec![
                ("backend", JsonValue::String(backend.name().to_owned())),
                ("order", JsonValue::Array(policy_names.collect())),
                (
                    "lifetimes",
                    JsonValue::object(
                        cells.iter().map(|&(policy, m)| (policy, JsonValue::Number(m))).collect(),
                    ),
                ),
            ]));
        }
        let agrees = rankings_agree(&results, &load_name, "discretized", "rv");
        if !agrees {
            divergent.push(load_name.clone());
        }
        ranking_rows.push(JsonValue::object(vec![
            ("load", JsonValue::String(load_name)),
            ("backends", JsonValue::Array(backend_rows)),
            ("rv_matches_discretized", JsonValue::Bool(agrees)),
        ]));
    }
    match divergent.len() {
        0 => println!("ranking agreement: RV matches the discretized KiBaM on all paper loads\n"),
        _ => println!(
            "ranking agreement: RV diverges from the discretized KiBaM on {} (see README)\n",
            divergent.join(", ")
        ),
    }

    results.extend(optimal_results.iter().cloned());
    let mut fields = document(&ranking_spec, &results);
    fields.insert(1, ("optimal_spec", optimal_spec.to_json_value()));
    fields.push(("rankings", JsonValue::Array(ranking_rows)));
    fields.push((
        "rv_divergent_loads",
        JsonValue::Array(divergent.into_iter().map(JsonValue::String).collect()),
    ));
    let ceiling_rows = optimal_results.len();
    Ok(GatedGrid { document: JsonValue::object(fields), gated: optimal_results, ceiling_rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_root_bounds_rows_carry_the_charge_and_availability_bounds() {
        let JsonValue::Array(rows) = frontier_root_bounds().unwrap() else {
            panic!("the frontier section is an array");
        };
        let fleets: Vec<_> = rows.iter().map(|row| row.get("fleet").cloned()).collect();
        let name = |fleet: &str| Some(JsonValue::String(fleet.to_owned()));
        assert_eq!(fleets, [name("2xB1"), name("3xB1"), name("2xB1+B2"), name("4xB1")]);
        for row in &rows {
            let JsonValue::Object(fields) = row else {
                panic!("each frontier row is an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(
                keys,
                ["fleet", "load", "charge_steps", "availability_steps", "warm_start_steps"]
            );
            for (key, value) in &fields[2..] {
                assert!(value.as_u64().is_some(), "{key}: every fleet has a discretized bound");
            }
        }
    }
}
