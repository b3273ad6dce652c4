//! Scenario-grid benchmarks through the parallel scenario engine.
//!
//! Four grids, all machine-readable so future sessions can diff the
//! performance and accuracy trajectory:
//!
//! * **Paper grid** (always): the Table 5 experiment — 1 battery type (B1)
//!   × 1 count (2) × 1 discretization (paper) × 10 loads × 3 policies ×
//!   2 backends = 60 scenarios — written to `BENCH_scenarios.json`.
//! * **Optimal grid** (`--optimal`): optimal-vs-policy on the coarse grid,
//!   with branch-and-bound node counts (and, per optimal cell, the probed
//!   root bounds plus their wall time), written to `BENCH_optimal.json`
//!   together with a `frontier_root_bounds` section — the charge /
//!   availability / relaxation / warm-start root bounds on the
//!   alternating-load frontier fleets (2×B1 through 4×B1), so bound
//!   tightening is diffable across commits; also prints the seed
//!   (pruning-disabled) search next to the memoized one. `--max-nodes N`
//!   turns the node counts into a CI gate.
//! * **Fleet grid** (`--fleet B1+B1+B2` / `--fleet 2xB1+B2`): a
//!   heterogeneous fleet on the coarse grid, deterministic policies next to
//!   the optimal search, written to `BENCH_fleet.json`. The `--max-nodes`
//!   ceiling applies to these searches too, so CI gates mixed-fleet search
//!   regressions alongside uniform ones.
//! * **Random grid** (`--random-cells N`): a seed sweep over
//!   `RandomLoadSpec` loads, **streamed** to `BENCH_random_grid.json` while
//!   the grid runs — a 10⁴–10⁵-cell sweep never materializes its results in
//!   memory. `--analyze` then summarizes the streamed file (policy means,
//!   best-of-two-vs-round-robin gap counts) and re-runs a coarse sub-grid
//!   of the seeds with the optimal search to count optimal-vs-best-of-two
//!   gaps — the seed of the Section 7 random-workload study.
//! * **Cross-model grid** (`--crossmodel`): every paper load × all four
//!   deterministic policies × all four backends (ideal / discretized KiBaM /
//!   continuous KiBaM / RV diffusion) at the paper discretization, plus
//!   optimal cross-model cells on the coarse grid, written to
//!   `BENCH_crossmodel.json` together with per-load policy **rankings** and
//!   an RV-vs-KiBaM ranking-agreement verdict (a strict reversal among the
//!   paper's three policies counts as divergence). The optimal cells run
//!   under the `--max-nodes` ceiling and the baseline gate.
//!
//! With `--baseline PATH`, the optimal grid gates its node counts against
//! the committed document at PATH, and the fleet and cross-model grids gate
//! against the committed copies of their own output files (loaded before
//! they are overwritten). A gated cell that disappears from a run fails the
//! gate — a dropped scenario must not pass as "nothing regressed".
//!
//! Million-cell sweeps shard across processes: `--shard I/N` streams only
//! the `I`-th of `N` contiguous slices of the random grid, `--merge`
//! concatenates shard documents back into one (verifying they share a
//! spec), and `--compare` checks two result documents row-for-row (ignoring
//! wall-clock times) — the CI proof that sharded and unsharded sweeps
//! produce the same artifact.
//!
//! ```text
//! scenarios [OUT] [--threads N]
//!           [--optimal] [--optimal-out PATH] [--max-nodes N]
//!           [--baseline PATH]
//!           [--fleet SPEC] [--fleet-out PATH]
//!           [--crossmodel] [--crossmodel-out PATH]
//!           [--random-cells N] [--random-jobs N] [--random-out PATH]
//!           [--analyze] [--analyze-seeds N]
//!           [--shard I/N] # stream only shard I of N of the random grid
//! scenarios --merge OUT IN...   # concatenate shard documents into OUT
//! scenarios --compare A B       # row-for-row equality (ignores wall_micros)
//! ```

use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use dkibam::Discretization;
use engine::json::JsonValue;
use engine::{
    results_from_json, results_to_json, BackendKind, BatterySpec, DiscSpec, FleetDef, GridRun,
    LoadSpec, PolicyKind, ScenarioSpec,
};
use kibam::{BatteryParams, FleetSpec};
use std::time::Instant;
use workload::paper_loads::TestLoad;

struct Options {
    out: String,
    threads: usize,
    shard: Option<(usize, usize)>,
    optimal: bool,
    optimal_out: String,
    max_nodes: Option<u64>,
    baseline: Option<String>,
    fleet: Option<FleetDef>,
    fleet_out: String,
    crossmodel: bool,
    crossmodel_out: String,
    random_cells: Option<usize>,
    random_jobs: usize,
    random_out: String,
    analyze: bool,
    analyze_seeds: usize,
    analyze_out: String,
}

fn parse_options() -> Options {
    let mut options = Options {
        out: "BENCH_scenarios.json".to_owned(),
        threads: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        shard: None,
        optimal: false,
        optimal_out: "BENCH_optimal.json".to_owned(),
        max_nodes: None,
        baseline: None,
        fleet: None,
        fleet_out: "BENCH_fleet.json".to_owned(),
        crossmodel: false,
        crossmodel_out: "BENCH_crossmodel.json".to_owned(),
        random_cells: None,
        random_jobs: 50,
        random_out: "BENCH_random_grid.json".to_owned(),
        analyze: false,
        analyze_seeds: 12,
        analyze_out: "BENCH_analyze.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--threads" => options.threads = parse(&value("--threads")),
            "--shard" => options.shard = Some(parse_shard(&value("--shard"))),
            "--optimal" => options.optimal = true,
            "--optimal-out" => options.optimal_out = value("--optimal-out"),
            "--max-nodes" => options.max_nodes = Some(parse(&value("--max-nodes"))),
            "--baseline" => options.baseline = Some(value("--baseline")),
            "--fleet" => options.fleet = Some(parse_fleet(&value("--fleet"))),
            "--fleet-out" => options.fleet_out = value("--fleet-out"),
            "--crossmodel" => options.crossmodel = true,
            "--crossmodel-out" => options.crossmodel_out = value("--crossmodel-out"),
            "--random-cells" => options.random_cells = Some(parse(&value("--random-cells"))),
            "--random-jobs" => options.random_jobs = parse(&value("--random-jobs")),
            "--random-out" => options.random_out = value("--random-out"),
            "--analyze" => options.analyze = true,
            "--analyze-seeds" => options.analyze_seeds = parse(&value("--analyze-seeds")),
            "--analyze-out" => options.analyze_out = value("--analyze-out"),
            other if !other.starts_with("--") => options.out = other.to_owned(),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    options
}

fn parse<T: std::str::FromStr>(text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse '{text}'");
        std::process::exit(2);
    })
}

/// Parses a `--shard` spec like `2/3` (shard index 2 of 3) into
/// `(index, count)`.
fn parse_shard(text: &str) -> (usize, usize) {
    let Some((index, count)) = text.split_once('/') else {
        eprintln!("--shard expects I/N (e.g. 0/3), got '{text}'");
        std::process::exit(2);
    };
    let (index, count) = (parse::<usize>(index), parse::<usize>(count));
    if count == 0 || index >= count {
        eprintln!("--shard {index}/{count} is out of range");
        std::process::exit(2);
    }
    (index, count)
}

/// Parses a `--fleet` spec like `B1+B2`, `B1+B1+B2` or `2xB1+B2` into a
/// [`FleetDef`]: `+`-separated terms, each a battery name (`B1`/`B2`)
/// optionally prefixed with a `Nx` multiplier.
fn parse_fleet(text: &str) -> FleetDef {
    let mut batteries = Vec::new();
    for term in text.split('+') {
        let (count, name) = match term.split_once('x') {
            Some((count, name)) => (parse::<usize>(count), name),
            None => (1, term),
        };
        let battery = match name {
            "B1" => BatterySpec::b1(),
            "B2" => BatterySpec::b2(),
            other => {
                eprintln!("unknown battery '{other}' in --fleet (expected B1 or B2)");
                std::process::exit(2);
            }
        };
        if count == 0 {
            eprintln!("--fleet multiplier must be positive in '{term}'");
            std::process::exit(2);
        }
        batteries.extend(vec![battery; count]);
    }
    if batteries.is_empty() {
        eprintln!("--fleet needs at least one battery");
        std::process::exit(2);
    }
    FleetDef::mixed(batteries)
}

fn main() {
    // Merge and compare are standalone utility modes (they run no grids),
    // selected by their flag in first position.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--merge") => return run_merge(&args[1..]),
        Some("--compare") => return run_compare(&args[1..]),
        _ => {}
    }
    let options = parse_options();
    run_paper_grid(&options);
    if options.optimal {
        run_optimal_grid(&options);
        print_seed_vs_memoized();
    }
    if let Some(fleet) = &options.fleet {
        run_fleet_grid(&options, fleet.clone());
    }
    if options.crossmodel {
        run_crossmodel_grid(&options);
    }
    if let Some(cells) = options.random_cells {
        run_random_grid(&options, cells);
    }
    if options.analyze {
        run_analyze(&options);
    }
}

/// Reads a result document (unsharded or one shard) into its spec and raw
/// result rows, exiting with a diagnostic on failure.
fn read_results(path: &str) -> (ScenarioSpec, Vec<JsonValue>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {path}: {error}");
            std::process::exit(1);
        }
    };
    match results_from_json(&text) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("cannot parse {path}: {error}");
            std::process::exit(1);
        }
    }
}

/// `--merge OUT IN...`: concatenates shard documents (in argument order,
/// which must be shard order) into one result document at OUT. Every input
/// must carry the same grid spec — shards of different grids refuse to
/// merge instead of producing a silently inconsistent artifact.
fn run_merge(args: &[String]) {
    let [out, inputs @ ..] = args else {
        eprintln!("--merge needs an output path and at least one input");
        std::process::exit(2);
    };
    if inputs.is_empty() {
        eprintln!("--merge needs at least one input document");
        std::process::exit(2);
    }
    let mut merged: Option<(ScenarioSpec, Vec<JsonValue>)> = None;
    for path in inputs {
        let (spec, rows) = read_results(path);
        match &mut merged {
            Some((first_spec, all_rows)) => {
                if *first_spec != spec {
                    eprintln!(
                        "{path} holds a different grid spec than {} — not shards of one grid",
                        inputs[0]
                    );
                    std::process::exit(1);
                }
                all_rows.extend(rows);
            }
            None => merged = Some((spec, rows)),
        }
    }
    let (spec, rows) = merged.expect("at least one input");
    let document = JsonValue::object(vec![
        ("spec", spec.to_json_value()),
        ("results", JsonValue::Array(rows)),
    ]);
    let json = match document.render() {
        Ok(json) => json,
        Err(error) => {
            eprintln!("cannot render the merged document: {error}");
            std::process::exit(1);
        }
    };
    if let Err(error) = std::fs::write(out, &json) {
        eprintln!("cannot write {out}: {error}");
        std::process::exit(1);
    }
    let (_, rows) = read_results(out);
    println!("merged {} inputs into {out} ({} result rows)", inputs.len(), rows.len());
}

/// A result row with its wall-clock fields removed: simulation outcomes
/// are deterministic, wall time (`wall_micros`, and the root-bound probe
/// time `bound_micros`) never is.
fn without_wall_micros(row: &JsonValue) -> JsonValue {
    match row {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(key, _)| key != "wall_micros" && key != "bound_micros")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `--compare A B`: verifies two result documents describe the same grid
/// and hold identical result rows (ignoring `wall_micros`), row for row.
/// Exits non-zero on any difference — the CI gate that a sharded sweep
/// merged back together matches the unsharded run exactly.
fn run_compare(args: &[String]) {
    let [a_path, b_path] = args else {
        eprintln!("--compare needs exactly two documents");
        std::process::exit(2);
    };
    let (a_spec, a_rows) = read_results(a_path);
    let (b_spec, b_rows) = read_results(b_path);
    if a_spec != b_spec {
        eprintln!("{a_path} and {b_path} describe different grids");
        std::process::exit(1);
    }
    if a_rows.len() != b_rows.len() {
        eprintln!(
            "row count differs: {a_path} has {}, {b_path} has {}",
            a_rows.len(),
            b_rows.len()
        );
        std::process::exit(1);
    }
    for (index, (a, b)) in a_rows.iter().zip(&b_rows).enumerate() {
        if without_wall_micros(a) != without_wall_micros(b) {
            eprintln!("row {index} differs (ignoring wall-clock fields):");
            eprintln!("  {a_path}: {}", a.render().unwrap_or_else(|e| e.to_string()));
            eprintln!("  {b_path}: {}", b.render().unwrap_or_else(|e| e.to_string()));
            std::process::exit(1);
        }
    }
    println!("documents match: {} rows identical (wall-clock fields ignored)", a_rows.len());
}

/// The Table 5 grid of the seed harness: collected (it is small), printed
/// as a table and archived as `BENCH_scenarios.json`.
fn run_paper_grid(options: &Options) {
    let spec = ScenarioSpec::paper_table5();
    println!("paper grid: {} scenarios", spec.scenario_count());

    let start = Instant::now();
    let results = match GridRun::new(&spec).threads(options.threads).collect() {
        Ok(results) => results,
        Err(error) => {
            eprintln!("paper grid failed: {error}");
            std::process::exit(1);
        }
    };
    let wall = start.elapsed();

    let total_sim_micros: u64 = results.iter().map(|r| r.wall_micros).sum();
    println!(
        "ran {} scenarios in {:.2?} wall clock ({:.2?} total simulation time)",
        results.len(),
        wall,
        std::time::Duration::from_micros(total_sim_micros),
    );
    println!("{:<40} {:>10} {:>10}", "scenario", "lifetime", "residual");
    for result in &results {
        println!(
            "{:<40} {:>10} {:>10.2}",
            result.scenario.label(),
            result
                .lifetime_minutes
                .map(|m| format!("{m:.2} min"))
                .unwrap_or_else(|| "-".to_owned()),
            result.residual_charge,
        );
    }

    let json = results_to_json(&spec, &results).expect("scenario results serialize");
    if let Err(error) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {error}", options.out);
        std::process::exit(1);
    }
    println!("wrote {} bytes to {}\n", json.len(), options.out);
}

/// Writes a grid document and runs its gates, in the one order that keeps
/// both the baseline and the artifact honest: the *committed* copy of
/// `out_path` is read first (it is the baseline), the fresh document is
/// written next (so a failing gate still leaves the artifact behind for
/// baseline regeneration), and the node-ceiling gate over `gated` plus the
/// committed-baseline gate over `all` run last. A missing committed
/// document skips the baseline gate with a note instead of aborting — the
/// bootstrap path for a newly gated grid, whose first run must be able to
/// produce the document it will be gated against.
fn write_and_gate(
    options: &Options,
    out_path: &str,
    json: &str,
    gated: &[engine::ScenarioResult],
    all: &[engine::ScenarioResult],
) {
    let baseline = match &options.baseline {
        Some(_) if std::path::Path::new(out_path).exists() => Some(load_baseline(out_path)),
        Some(_) => {
            println!(
                "baseline note: no committed {out_path} yet — baseline gate skipped \
                 (commit this run's document to arm it)"
            );
            None
        }
        None => None,
    };
    if let Err(error) = std::fs::write(out_path, json) {
        eprintln!("cannot write {out_path}: {error}");
        std::process::exit(1);
    }
    println!("wrote {} bytes to {out_path}\n", json.len());

    print_and_gate(gated, options.max_nodes, gated.len());
    if let Some(baseline) = baseline {
        check_baseline(&baseline, all);
    }
}

/// Runs a coarse-grid spec with optimal cells, prints the node counts and
/// enforces the `--max-nodes` ceiling. Shared by the optimal and the fleet
/// grids. When `--baseline` is active, the grid's optimal cells are also
/// gated against the *committed* copy of `out_path` (loaded before the new
/// results overwrite it), with the same no-disappearing-cells semantics as
/// the `BENCH_optimal.json` gate.
fn run_gated_grid(options: &Options, spec: &ScenarioSpec, what: &str, out_path: &str) {
    let start = Instant::now();
    let results = match GridRun::new(spec).threads(options.threads).collect() {
        Ok(results) => results,
        Err(error) => {
            eprintln!("{what} failed: {error}");
            std::process::exit(1);
        }
    };
    println!("ran in {:.2?}", start.elapsed());
    let json = results_to_json(spec, &results).expect("results serialize");
    write_and_gate(options, out_path, &json, &results, &results);
}

/// Optimal-vs-policy on the coarse grid, with node counts; the node ceiling
/// (`--max-nodes`) makes this the CI regression gate for the search, and
/// `--baseline` additionally fails the run if any optimal cell explores
/// more nodes than the committed `BENCH_optimal.json` recorded.
///
/// On top of the classic 2×B1 grid, the document carries the
/// alternating-load *frontier* instance the availability bound newly
/// contains — 3×B1 on `ILs alt` — as extra rows (the 4×B1 and
/// 22 A·min mixed-fleet searches still exceed the 20M-node budget; see
/// ROADMAP.md).
fn run_optimal_grid(options: &Options) {
    let spec = ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![],
        discretizations: vec![DiscSpec::coarse()],
        loads: vec![
            LoadSpec::Paper(TestLoad::Cl500),
            LoadSpec::Paper(TestLoad::Ils500),
            LoadSpec::Paper(TestLoad::IlsAlt),
            LoadSpec::Paper(TestLoad::Ils250),
        ],
        policies: vec![
            PolicyKind::Sequential,
            PolicyKind::RoundRobin,
            PolicyKind::BestOfTwo,
            PolicyKind::CapacityRr,
            PolicyKind::optimal(),
        ],
        backends: vec![BackendKind::Discretized],
    };
    let frontier = ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![FleetDef::uniform(BatterySpec::b1(), 3)],
        discretizations: vec![DiscSpec::coarse()],
        loads: vec![LoadSpec::Paper(TestLoad::IlsAlt)],
        policies: vec![PolicyKind::optimal()],
        backends: vec![BackendKind::Discretized],
    };
    println!(
        "optimal grid (coarse): {} scenarios + {} frontier",
        spec.scenario_count(),
        frontier.scenario_count()
    );

    let start = Instant::now();
    let mut results = match GridRun::new(&spec).threads(options.threads).collect() {
        Ok(results) => results,
        Err(error) => {
            eprintln!("optimal grid failed: {error}");
            std::process::exit(1);
        }
    };
    match GridRun::new(&frontier).threads(options.threads).collect() {
        Ok(frontier_results) => results.extend(frontier_results),
        Err(error) => {
            eprintln!("optimal frontier failed: {error}");
            std::process::exit(1);
        }
    }
    println!("ran in {:.2?}", start.elapsed());

    // The baseline is loaded *before* the results overwrite its file, and
    // the document is written *before* the gates run, so a failing CI run
    // still leaves the fresh artifact behind for baseline regeneration.
    let baseline = options.baseline.as_deref().map(load_baseline);
    let document = JsonValue::object(vec![
        ("spec", spec.to_json_value()),
        ("frontier_spec", frontier.to_json_value()),
        (
            "results",
            JsonValue::Array(results.iter().map(engine::ScenarioResult::to_json_value).collect()),
        ),
        ("frontier_root_bounds", frontier_root_bounds()),
    ]);
    let json = document.render().expect("results serialize");
    if let Err(error) = std::fs::write(&options.optimal_out, &json) {
        eprintln!("cannot write {}: {error}", options.optimal_out);
        std::process::exit(1);
    }
    println!("wrote {} bytes to {}\n", json.len(), options.optimal_out);

    // The ceiling applies to the classic small grid; the frontier rows are
    // gated by the per-cell baseline comparison instead.
    print_and_gate(&results, options.max_nodes, spec.scenario_count());
    if let Some(baseline) = baseline {
        check_baseline(&baseline, &results);
    }
}

/// Probes the root bounds (charge / availability / relaxation / warm
/// start) of the alternating-load frontier fleets on the coarse grid — the
/// machine-readable trajectory of the bound-tightening work. A `null`
/// bound means the backend could not produce it (never expected here).
fn frontier_root_bounds() -> JsonValue {
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
        let fleet = FleetSpec::new(batteries.to_vec()).expect("frontier fleet spec");
        let config = SystemConfig::from_fleet(fleet, Discretization::coarse());
        let load = config.discretize(&profile).expect("frontier load discretizes");
        let mut model = config.discretized_model();
        let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model)
            .expect("frontier root-bound probe");
        println!(
            "  {name:<8} charge {}, availability {}, relaxation {}, warm start {}",
            bounds.charge, bounds.availability, bounds.relaxation, bounds.warm_start
        );
        #[allow(clippy::cast_precision_loss)]
        let field = |steps: u64| {
            if steps == u64::MAX {
                JsonValue::Null
            } else {
                JsonValue::Number(steps as f64)
            }
        };
        rows.push(JsonValue::object(vec![
            ("fleet", JsonValue::String(name.to_owned())),
            ("load", JsonValue::String(TestLoad::IlsAlt.name().to_owned())),
            ("charge_steps", field(bounds.charge)),
            ("availability_steps", field(bounds.availability)),
            ("relaxation_steps", field(bounds.relaxation)),
            ("warm_start_steps", field(bounds.warm_start)),
        ]));
    }
    println!();
    JsonValue::Array(rows)
}

/// Prints the result table and enforces the node ceiling over the first
/// `ceiling_rows` rows (the rows beyond are baseline-gated frontier cells).
fn print_and_gate(results: &[engine::ScenarioResult], max_nodes: Option<u64>, ceiling_rows: usize) {
    println!(
        "{:<32} {:>10} {:>12} {:>9} {:>7} {:>9} {:>9} {:>9}",
        "scenario", "lifetime", "nodes", "memo", "dom", "charge", "avail", "relax"
    );
    let mut worst_nodes = 0u64;
    for (index, result) in results.iter().enumerate() {
        let stats = result.search.map(|s| {
            if index < ceiling_rows {
                worst_nodes = worst_nodes.max(s.nodes_explored);
            }
            s
        });
        let fmt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
        println!(
            "{:<32} {:>10} {:>12} {:>9} {:>7} {:>9} {:>9} {:>9}",
            result.scenario.label(),
            result
                .lifetime_minutes
                .map(|m| format!("{m:.2} min"))
                .unwrap_or_else(|| "-".to_owned()),
            fmt(stats.map(|s| s.nodes_explored)),
            fmt(stats.map(|s| s.memo_hits)),
            fmt(stats.map(|s| s.dominance_prunes)),
            fmt(stats.map(|s| s.charge_bound_prunes)),
            fmt(stats.map(|s| s.availability_bound_prunes)),
            fmt(stats.map(|s| s.relax_bound_prunes)),
        );
    }
    if let Some(ceiling) = max_nodes {
        if worst_nodes > ceiling {
            eprintln!(
                "node-count regression: worst optimal search explored {worst_nodes} nodes, \
                 ceiling is {ceiling}"
            );
            std::process::exit(2);
        }
        println!("node gate ok: worst search {worst_nodes} <= ceiling {ceiling}\n");
    }
}

/// One gated cell of a committed baseline document: the node count the
/// search recorded and the lifetime it proved.
#[derive(Debug, Clone, Copy)]
struct BaselineCell {
    nodes: u64,
    lifetime_minutes: Option<f64>,
}

/// Loads a committed baseline document into a `(fleet load policy
/// backend) -> cell` map (see [`check_baseline`]).
fn load_baseline(path: &str) -> std::collections::HashMap<String, BaselineCell> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read baseline {path}: {error}");
            std::process::exit(1);
        }
    };
    let (_, rows) = match results_from_json(&text) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("cannot parse baseline {path}: {error}");
            std::process::exit(1);
        }
    };
    let mut baseline = std::collections::HashMap::new();
    for row in &rows {
        let (Some(fleet), Some(load), Some(policy), Some(backend)) = (
            row.get("fleet").and_then(JsonValue::as_str),
            row.get("load").and_then(JsonValue::as_str),
            row.get("policy").and_then(JsonValue::as_str),
            row.get("backend").and_then(JsonValue::as_str),
        ) else {
            continue;
        };
        if let Some(nodes) = row.get("nodes_explored").and_then(JsonValue::as_u64) {
            let lifetime_minutes = row.get("lifetime_minutes").and_then(JsonValue::as_f64);
            baseline.insert(
                format!("{fleet} {load} {policy} {backend}"),
                BaselineCell { nodes, lifetime_minutes },
            );
        }
    }
    if baseline.is_empty() {
        eprintln!("baseline {path} holds no optimal cells — refusing to gate against nothing");
        std::process::exit(1);
    }
    baseline
}

/// The node-count tolerance of the baseline gate: a cell may explore up to
/// 10 % more nodes than the committed baseline records before the gate
/// fails. Bound and search-order changes legitimately wobble node counts by
/// a few percent; anything past a tenth is a real regression. Lifetimes get
/// no tolerance — a solved cell must reproduce its optimum bit-identically.
const BASELINE_NODE_TOLERANCE_PERCENT: u64 = 10;

/// Fails the run if any optimal cell explores more nodes than the committed
/// baseline document records for the same (fleet, load, policy, backend)
/// plus the documented tolerance, if a cell's proven lifetime differs from
/// the baseline's at all, or if a baseline cell is no longer produced (a
/// silently dropped scenario must not pass as "nothing regressed"). Cells
/// without a baseline entry are new and noted, not gated.
fn check_baseline(
    baseline: &std::collections::HashMap<String, BaselineCell>,
    results: &[engine::ScenarioResult],
) {
    let mut checked = 0usize;
    let mut seen = std::collections::HashSet::new();
    for result in results {
        let Some(stats) = result.search else { continue };
        let label = result.scenario.label();
        match baseline.get(&label) {
            Some(cell) => {
                let ceiling =
                    cell.nodes.saturating_add(cell.nodes * BASELINE_NODE_TOLERANCE_PERCENT / 100);
                if stats.nodes_explored > ceiling {
                    eprintln!(
                        "baseline regression: {label} explored {} nodes, baseline {} \
                         (+{BASELINE_NODE_TOLERANCE_PERCENT}% ceiling {ceiling})",
                        stats.nodes_explored, cell.nodes
                    );
                    std::process::exit(2);
                }
                if result.lifetime_minutes != cell.lifetime_minutes {
                    eprintln!(
                        "baseline regression: {label} proved lifetime {:?}, baseline {:?} \
                         (solved cells must reproduce their optimum bit-identically)",
                        result.lifetime_minutes, cell.lifetime_minutes
                    );
                    std::process::exit(2);
                }
                checked += 1;
                seen.insert(label);
            }
            None => println!("baseline note: no entry for '{label}' (new cell)"),
        }
    }
    let mut dropped: Vec<&String> =
        baseline.keys().filter(|label| !seen.contains(label.as_str())).collect();
    if !dropped.is_empty() {
        dropped.sort();
        for label in dropped {
            eprintln!("baseline cell '{label}' was not produced by this run");
        }
        eprintln!("a dropped cell silently removes its regression gate — failing");
        std::process::exit(2);
    }
    println!("baseline gate ok: {checked} optimal cells at or below the baseline\n");
}

/// A heterogeneous fleet on the coarse grid: deterministic policies next to
/// the optimal search, under the same node ceiling as the uniform grid.
fn run_fleet_grid(options: &Options, fleet: FleetDef) {
    let spec = ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![fleet.clone()],
        discretizations: vec![DiscSpec::coarse()],
        loads: vec![LoadSpec::Paper(TestLoad::Cl500), LoadSpec::Paper(TestLoad::IlsAlt)],
        policies: vec![
            PolicyKind::Sequential,
            PolicyKind::RoundRobin,
            PolicyKind::BestOfTwo,
            PolicyKind::CapacityRr,
            PolicyKind::optimal(),
        ],
        backends: vec![BackendKind::Discretized],
    };
    println!("fleet grid (coarse, {}): {} scenarios", fleet.name, spec.scenario_count());
    run_gated_grid(options, &spec, "fleet grid", &options.fleet_out);
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
fn lifetime_of(
    results: &[engine::ScenarioResult],
    load: &str,
    policy: &str,
    backend: &str,
) -> Option<f64> {
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
fn rankings_agree(results: &[engine::ScenarioResult], load: &str, a: &str, b: &str) -> bool {
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
/// agreement story — plus optimal cross-model cells on the coarse grid.
/// The optimal cells run under the `--max-nodes` ceiling and (with
/// `--baseline`) against the committed copy of the output document, and
/// the whole table is archived as `BENCH_crossmodel.json` together with
/// per-load policy rankings and the RV-vs-KiBaM agreement verdict.
fn run_crossmodel_grid(options: &Options) {
    let backends = vec![
        BackendKind::Ideal,
        BackendKind::Discretized,
        BackendKind::Continuous,
        BackendKind::Rv,
    ];
    let ranking_spec = ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![],
        discretizations: vec![DiscSpec::paper()],
        loads: TestLoad::all().into_iter().map(LoadSpec::Paper).collect(),
        policies: PolicyKind::deterministic().to_vec(),
        backends: backends.clone(),
    };
    // ILs 250 is deliberately absent: the continuous and RV backends carry
    // no (or rarely-colliding) memo keys, so their deep slow-drain searches
    // run 70k-135k nodes — fine for a study, not for the CI node ceiling.
    let optimal_spec = ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![],
        discretizations: vec![DiscSpec::coarse()],
        loads: vec![LoadSpec::Paper(TestLoad::Cl500), LoadSpec::Paper(TestLoad::IlsAlt)],
        policies: vec![PolicyKind::optimal()],
        backends: backends.clone(),
    };
    println!(
        "cross-model grid: {} ranking cells (paper grid) + {} optimal cells (coarse)",
        ranking_spec.scenario_count(),
        optimal_spec.scenario_count()
    );

    let start = Instant::now();
    let ranking_results = match GridRun::new(&ranking_spec).threads(options.threads).collect() {
        Ok(results) => results,
        Err(error) => {
            eprintln!("cross-model ranking grid failed: {error}");
            std::process::exit(1);
        }
    };
    let optimal_results = match GridRun::new(&optimal_spec).threads(options.threads).collect() {
        Ok(results) => results,
        Err(error) => {
            eprintln!("cross-model optimal grid failed: {error}");
            std::process::exit(1);
        }
    };
    println!("ran in {:.2?}", start.elapsed());

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
                    lifetime_of(&ranking_results, &load_name, p.name(), backend.name())
                        .map(|lifetime| (p.name(), lifetime))
                })
                .collect();
            cells.sort_by(|a, b| b.1.total_cmp(&a.1));
            let order = cells
                .iter()
                .map(|(policy, lifetime)| format!("{policy} ({lifetime:.2})"))
                .collect::<Vec<_>>();
            println!("  {load_name:<8} {:<12} {}", backend.name(), order.join(" >= "));
            backend_rows.push(JsonValue::object(vec![
                ("backend", JsonValue::String(backend.name().to_owned())),
                (
                    "order",
                    JsonValue::Array(
                        cells
                            .iter()
                            .map(|(policy, _)| JsonValue::String((*policy).to_owned()))
                            .collect(),
                    ),
                ),
                (
                    "lifetimes",
                    JsonValue::object(
                        cells
                            .iter()
                            .map(|&(policy, lifetime)| (policy, JsonValue::Number(lifetime)))
                            .collect::<Vec<_>>(),
                    ),
                ),
            ]));
        }
        let agrees = rankings_agree(&ranking_results, &load_name, "discretized", "rv");
        if !agrees {
            divergent.push(load_name.clone());
        }
        ranking_rows.push(JsonValue::object(vec![
            ("load", JsonValue::String(load_name.clone())),
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

    let mut results = ranking_results;
    results.extend(optimal_results.iter().cloned());
    let document = JsonValue::object(vec![
        ("spec", ranking_spec.to_json_value()),
        ("optimal_spec", optimal_spec.to_json_value()),
        (
            "results",
            JsonValue::Array(results.iter().map(engine::ScenarioResult::to_json_value).collect()),
        ),
        ("rankings", JsonValue::Array(ranking_rows)),
        (
            "rv_divergent_loads",
            JsonValue::Array(divergent.into_iter().map(JsonValue::String).collect()),
        ),
    ]);
    let json = document.render().expect("results serialize");
    write_and_gate(options, &options.crossmodel_out, &json, &optimal_results, &results);
}

/// Prints the seed search (pruning disabled — PR 1 behaviour) next to the
/// memoized search so the perf trajectory is visible in the bench log.
fn print_seed_vs_memoized() {
    println!("seed search vs memoized search (coarse grid, 2 x B1):");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "load", "seed nodes", "seed wall", "memo nodes", "memo wall", "ratio"
    );
    let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2).unwrap();
    for load in [TestLoad::IlsAlt, TestLoad::Ils250] {
        let profile = load.profile();
        let discretized = config.discretize(&profile).unwrap();
        let seed_start = Instant::now();
        let seed = OptimalScheduler::reference().find_optimal_on(&config, &discretized).unwrap();
        let seed_wall = seed_start.elapsed();
        let memo_start = Instant::now();
        let memo = OptimalScheduler::new().find_optimal_on(&config, &discretized).unwrap();
        let memo_wall = memo_start.elapsed();
        assert_eq!(seed.lifetime_steps, memo.lifetime_steps, "pruning must preserve the optimum");
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
}

/// A large random-load seed sweep, streamed to disk while it runs.
fn run_random_grid(options: &Options, cells: usize) {
    let policies = PolicyKind::deterministic().to_vec();
    let seeds = cells.div_ceil(policies.len()).max(1);
    let spec = ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![],
        discretizations: vec![DiscSpec::paper()],
        loads: (0..seeds as u64)
            .map(|seed| LoadSpec::random_paper_levels(seed, options.random_jobs))
            .collect(),
        policies,
        backends: vec![BackendKind::Discretized],
    };
    match options.shard {
        Some((index, count)) => println!(
            "random grid: {} scenarios ({} seeds x {} policies, {} jobs each), \
             shard {index}/{count} streaming to {}",
            spec.scenario_count(),
            seeds,
            spec.policies.len(),
            options.random_jobs,
            options.random_out,
        ),
        None => println!(
            "random grid: {} scenarios ({} seeds x {} policies, {} jobs each), streaming to {}",
            spec.scenario_count(),
            seeds,
            spec.policies.len(),
            options.random_jobs,
            options.random_out,
        ),
    }

    let file = match std::fs::File::create(&options.random_out) {
        Ok(file) => std::io::BufWriter::new(file),
        Err(error) => {
            eprintln!("cannot create {}: {error}", options.random_out);
            std::process::exit(1);
        }
    };
    let start = Instant::now();
    let mut run = GridRun::new(&spec).threads(options.threads);
    if let Some((index, count)) = options.shard {
        run = run.shard(index, count);
    }
    match run.stream(file) {
        Ok(summary) => {
            let wall = start.elapsed();
            #[allow(clippy::cast_precision_loss)]
            let per_cell = wall.as_secs_f64() * 1e6 / summary.written.max(1) as f64;
            println!(
                "streamed {} results in {:.2?} ({per_cell:.0} us/cell, {} threads)",
                summary.written, wall, options.threads
            );
        }
        Err(error) => {
            eprintln!("random grid failed: {error}");
            std::process::exit(1);
        }
    }
}

/// Per-load lifetimes of the streamed random grid, keyed by policy name.
fn lifetimes_by_policy(rows: &[JsonValue]) -> Vec<(String, Vec<(String, f64)>)> {
    let mut policies: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for row in rows {
        let (Some(load), Some(policy), Some(lifetime)) = (
            row.get("load").and_then(JsonValue::as_str),
            row.get("policy").and_then(JsonValue::as_str),
            row.get("lifetime_minutes").and_then(JsonValue::as_f64),
        ) else {
            continue;
        };
        match policies.iter_mut().find(|(name, _)| name == policy) {
            Some((_, cells)) => cells.push((load.to_owned(), lifetime)),
            None => policies.push((policy.to_owned(), vec![(load.to_owned(), lifetime)])),
        }
    }
    policies
}

/// The gap-percentage histogram buckets of the analyze summary.
const GAP_BUCKETS: [(&str, f64, f64); 6] = [
    ("0%", 0.0, 0.0),
    ("(0,1]%", 0.0, 1.0),
    ("(1,2]%", 1.0, 2.0),
    ("(2,5]%", 2.0, 5.0),
    ("(5,10]%", 5.0, 10.0),
    (">10%", 10.0, f64::INFINITY),
];

/// Counts `gaps` (relative gains, in percent) into the [`GAP_BUCKETS`]
/// histogram and renders it as a JSON array.
fn gap_histogram(gaps: &[f64]) -> JsonValue {
    JsonValue::Array(
        GAP_BUCKETS
            .iter()
            .map(|&(label, low, high)| {
                #[allow(clippy::cast_precision_loss)]
                let count = gaps
                    .iter()
                    .filter(|&&gap| {
                        if low == 0.0 && high == 0.0 {
                            gap <= 0.0
                        } else {
                            gap > low && gap <= high
                        }
                    })
                    .count() as f64;
                JsonValue::object(vec![
                    ("bucket", JsonValue::String(label.to_owned())),
                    ("count", JsonValue::Number(count)),
                ])
            })
            .collect(),
    )
}

/// Summarizes the streamed random grid (`--random-out`): per-policy mean
/// lifetimes, best-of-two-vs-round-robin gap histograms, and an
/// optimal-vs-best-of-two comparison on a coarse sub-grid of the seeds —
/// the random-workload study of the Section 7 outlook. The summary is
/// printed *and* archived as machine-readable JSON (`--analyze-out`,
/// `BENCH_analyze.json`) so the trajectory can be diffed across commits.
fn run_analyze(options: &Options) {
    let text = match std::fs::read_to_string(&options.random_out) {
        Ok(text) => text,
        Err(error) => {
            eprintln!(
                "cannot read {} (run with --random-cells first?): {error}",
                options.random_out
            );
            std::process::exit(1);
        }
    };
    let (spec, rows) = match results_from_json(&text) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("cannot parse {}: {error}", options.random_out);
            std::process::exit(1);
        }
    };

    let policies = lifetimes_by_policy(&rows);
    println!("analyze: {} result rows from {}", rows.len(), options.random_out);
    let mut policy_rows = Vec::new();
    for (policy, cells) in &policies {
        #[allow(clippy::cast_precision_loss)]
        let mean = cells.iter().map(|(_, m)| m).sum::<f64>() / cells.len().max(1) as f64;
        println!("  {policy:<14} {:>6} cells, mean lifetime {mean:.2} min", cells.len());
        #[allow(clippy::cast_precision_loss)]
        policy_rows.push(JsonValue::object(vec![
            ("policy", JsonValue::String(policy.clone())),
            ("cells", JsonValue::Number(cells.len() as f64)),
            ("mean_lifetime_minutes", JsonValue::Number(mean)),
        ]));
    }
    #[allow(clippy::cast_precision_loss)]
    let mut document = vec![
        ("rows", JsonValue::Number(rows.len() as f64)),
        ("policies", JsonValue::Array(policy_rows)),
    ];

    // Best-of-two vs round-robin, matched per load, with a gap histogram.
    let find = |name: &str| policies.iter().find(|(p, _)| p == name).map(|(_, c)| c);
    if let (Some(rr), Some(best)) = (find("round-robin"), find("best-of-two")) {
        let mut gaps = Vec::new();
        for (load, best_lifetime) in best {
            let Some((_, rr_lifetime)) = rr.iter().find(|(l, _)| l == load) else { continue };
            let gap = (best_lifetime - rr_lifetime) / rr_lifetime * 100.0;
            gaps.push(if gap > 1e-7 { gap } else { 0.0 });
        }
        let better = gaps.iter().filter(|&&g| g > 0.0).count();
        let max_gain = gaps.iter().copied().fold(0.0f64, f64::max);
        println!(
            "  best-of-two beats round-robin on {better}/{} random loads \
             (max gain {max_gain:.1}%)",
            gaps.len(),
        );
        #[allow(clippy::cast_precision_loss)]
        document.push((
            "best_vs_round_robin",
            JsonValue::object(vec![
                ("matched", JsonValue::Number(gaps.len() as f64)),
                ("better", JsonValue::Number(better as f64)),
                ("max_gain_percent", JsonValue::Number(max_gain)),
                ("gap_histogram", gap_histogram(&gaps)),
            ]),
        ));
    }

    // Optimal-vs-best-of-two on a coarse sub-grid of the same seeds: the
    // paper grid is too fine for exhaustive search, so the sub-grid answers
    // the qualitative question (how often does the best deterministic
    // policy already achieve the optimum on random loads?).
    let sub_loads: Vec<LoadSpec> = spec.loads.iter().take(options.analyze_seeds).cloned().collect();
    if sub_loads.is_empty() {
        println!("  (no random loads in the document; skipping the optimal sub-grid)");
        write_analyze(options, document);
        return;
    }
    let sub_spec = ScenarioSpec {
        batteries: spec.batteries.clone(),
        battery_counts: spec.battery_counts.clone(),
        fleets: spec.fleets.clone(),
        discretizations: vec![DiscSpec::coarse()],
        loads: sub_loads,
        policies: vec![PolicyKind::BestOfTwo, PolicyKind::optimal()],
        backends: vec![BackendKind::Discretized],
    };
    let start = Instant::now();
    let results = match GridRun::new(&sub_spec).threads(options.threads).collect() {
        Ok(results) => results,
        Err(error) => {
            eprintln!("optimal sub-grid failed: {error}");
            std::process::exit(1);
        }
    };
    let mut gap_list = Vec::new();
    for pair in results.chunks(2) {
        let [best, optimal] = pair else { continue };
        let (Some(best_lifetime), Some(optimal_lifetime)) =
            (best.lifetime_minutes, optimal.lifetime_minutes)
        else {
            continue;
        };
        let gap = (optimal_lifetime - best_lifetime) / best_lifetime * 100.0;
        gap_list.push(if gap > 1e-7 { gap } else { 0.0 });
    }
    let seeds = gap_list.len();
    let gaps = gap_list.iter().filter(|&&g| g > 0.0).count();
    let max_gap = gap_list.iter().copied().fold(0.0f64, f64::max);
    println!(
        "  coarse sub-grid ({seeds} seeds, {:.2?}): optimal beats best-of-two on \
         {gaps}/{seeds} loads (max gap {max_gap:.1}%)",
        start.elapsed(),
    );
    #[allow(clippy::cast_precision_loss)]
    document.push((
        "optimal_sub_grid",
        JsonValue::object(vec![
            ("seeds", JsonValue::Number(seeds as f64)),
            ("optimal_better", JsonValue::Number(gaps as f64)),
            ("max_gap_percent", JsonValue::Number(max_gap)),
            ("gap_histogram", gap_histogram(&gap_list)),
        ]),
    ));
    write_analyze(options, document);
}

/// Renders and writes the analyze summary document (`--analyze-out`).
fn write_analyze(options: &Options, fields: Vec<(&str, JsonValue)>) {
    let json = match JsonValue::object(fields).render() {
        Ok(json) => json,
        Err(error) => {
            eprintln!("cannot render the analyze summary: {error}");
            std::process::exit(1);
        }
    };
    if let Err(error) = std::fs::write(&options.analyze_out, &json) {
        eprintln!("cannot write {}: {error}", options.analyze_out);
        std::process::exit(1);
    }
    println!("wrote {} bytes to {}\n", json.len(), options.analyze_out);
}
