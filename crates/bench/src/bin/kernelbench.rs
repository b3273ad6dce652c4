//! Stepping-kernel throughput: the scalar reference stepping vs the
//! struct-of-arrays batch kernels, at N ∈ {1, 8, 64, 512} cells, per
//! backend.
//!
//! The workload is the engine's hot loop in miniature: N cells are grouped
//! into four-battery systems (N = 1 keeps a single-battery system), and
//! each measurement cycle resets the fleet and runs three rounds of
//! *serve each battery in turn → idle* with the paper's B1 cell on the
//! paper grid — drain rates chosen so no cell empties inside a cycle, so
//! scalar and batched paths execute identical step counts. The scalar
//! side is the reference the backends are held bit-identical to
//! ([`dkibam::multi::MultiBatteryState`] per system, one [`rv::RvCell`] vector per
//! system); the batched side packs all systems into one
//! [`dkibam::DiscreteBatch`] / [`rv::RvBatch`]. After timing, the final
//! states of both paths are compared word-for-word — a throughput number
//! from a diverging kernel would be meaningless, so divergence aborts.
//!
//! Output: a table on stdout and `BENCH_kernel.json` (override with a
//! positional path). The document also carries a `bound_probes` section —
//! the wall time (`bound_micros`) of the optimal search's root phase (warm
//! start plus root bounds, the part of every search that runs before the
//! first node) on the coarse-grid alternating-load fleets, timed here because the
//! relaxation bound's column DP is itself a kernel on the hot path of the
//! branch-and-bound search. A `grid` section measures the engine layer:
//! cells/s of sweep-shaped [`engine::GridRun`]s (four fleets × the four
//! deterministic policies × discretized and RV, 400-job random loads, one
//! shared system cache) on one thread and on every core, and the parallel
//! efficiency cells/s(N) / (N · cells/s(1)); it is recorded, never gated.
//! A `codec` section measures the request codec `served` runs on every
//! line: the median µs per [`engine::Request::from_line`] and per
//! [`engine::Response`] rendering, over seeded interactive re-plan requests
//! and their answers. `--smoke` shrinks the workload for CI.
//!
//! ```text
//! kernelbench [OUT] [--smoke]
//! ```

use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use dkibam::multi::MultiBatteryState;
use dkibam::{DiscreteBatch, DiscreteFleet, Discretization};
use engine::api::run_requests;
use engine::json::JsonValue;
use engine::{
    BackendKind, BatterySpec, DiscSpec, FleetDef, GridRun, LoadSpec, PolicyKind, Request,
    RequestClass, Scenario, ScenarioSpec, SharedSystemCache, WorkerCache,
};
use kibam::BatteryParams;
use rv::{RvBatch, RvCell, RvFleet};
use std::sync::Arc;
use std::time::Instant;
use workload::paper_loads::TestLoad;
use workload::random::SplitMix64;

/// Batch sizes measured, in cells (= battery lanes).
const CELL_COUNTS: [usize; 4] = [1, 8, 64, 512];

/// Batteries per system. The scalar path recovers every passive battery at
/// every draw instant while the batched kernel bulk-recovers passive lanes
/// once per job, so the gap widens with fleet size; four batteries is the
/// representative multi-battery fleet from the grid sweeps.
const LANES_PER_SYSTEM: usize = 4;

/// Steps served per job portion (one draw of 1 unit every 4 steps — the
/// paper's 0.5 A level on the paper grid).
const SERVE_STEPS: u64 = 120;
const DRAW_INTERVAL: u32 = 4;
const UNITS_PER_DRAW: u32 = 1;

/// Idle steps between rounds.
const IDLE_STEPS: u64 = 120;

/// Rounds per cycle: three rounds drain ~90 units of the active battery's
/// available charge — just under B1's Eq. 8 emptiness boundary, so every
/// cycle runs its full nominal step count on both paths.
const ROUNDS_PER_CYCLE: u64 = 3;

/// Nominal steps every lane advances per cycle (serve, sibling's serve as
/// recovery, idle — all three windows touch every lane).
fn lane_steps_per_cycle(lanes_per_system: usize) -> u64 {
    ROUNDS_PER_CYCLE * (SERVE_STEPS * lanes_per_system as u64 + IDLE_STEPS)
}

struct Options {
    out: String,
    smoke: bool,
}

fn parse_options() -> Options {
    let mut options = Options { out: "BENCH_kernel.json".to_owned(), smoke: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            other if !other.starts_with("--") => options.out = other.to_owned(),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    options
}

/// One measured row: scalar and batched throughput at one cell count.
struct Row {
    cells: usize,
    scalar_cell_steps_per_sec: f64,
    batched_cell_steps_per_sec: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.batched_cell_steps_per_sec / self.scalar_cell_steps_per_sec
    }
}

/// Times `run` over `cycles` workload cycles, returning the best-of-3
/// cell-steps/second (minimum wall time filters scheduler noise).
fn time_throughput(
    cells: usize,
    lanes_per_system: usize,
    cycles: u64,
    mut run: impl FnMut(u64),
) -> f64 {
    let total_lane_steps = cells as u64 * lane_steps_per_cycle(lanes_per_system) * cycles;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        run(cycles);
        best = best.min(start.elapsed().as_secs_f64());
    }
    #[allow(clippy::cast_precision_loss)]
    let steps = total_lane_steps as f64;
    steps / best
}

/// Measures the discretized-KiBaM backend at one cell count and checks the
/// final batch state against the scalar state word-for-word.
fn measure_discretized(cells: usize, cycles: u64) -> Row {
    let lanes_per_system = LANES_PER_SYSTEM.min(cells);
    let systems = cells / lanes_per_system;
    let disc = Discretization::paper_default();
    let fleet = DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &disc, lanes_per_system);
    let type_params = fleet.spec().types();

    // Scalar: one MultiBatteryState per system (the reference stepping).
    let mut scalar: Vec<MultiBatteryState> =
        (0..systems).map(|_| MultiBatteryState::new_full(&fleet)).collect();
    let scalar_throughput = time_throughput(cells, lanes_per_system, cycles, |cycles| {
        for _ in 0..cycles {
            for state in &mut scalar {
                *state = MultiBatteryState::new_full(&fleet);
            }
            for _ in 0..ROUNDS_PER_CYCLE {
                for state in &mut scalar {
                    for active in 0..lanes_per_system {
                        state
                            .advance_job(active, SERVE_STEPS, DRAW_INTERVAL, UNITS_PER_DRAW, &fleet)
                            .expect("active index is in range");
                    }
                }
                for state in &mut scalar {
                    state.advance_idle(IDLE_STEPS, &fleet);
                }
            }
        }
    });

    // Batched: every system is a lane range of one struct-of-arrays batch.
    let mut batch = DiscreteBatch::with_capacity(cells);
    let ranges: Vec<_> = (0..systems).map(|_| batch.push_fleet(&fleet)).collect();
    let batched_throughput = time_throughput(cells, lanes_per_system, cycles, |cycles| {
        for _ in 0..cycles {
            batch.reset_range(0..cells, type_params, fleet.disc());
            for _ in 0..ROUNDS_PER_CYCLE {
                for range in &ranges {
                    for active in range.clone() {
                        batch
                            .advance_job_range(
                                range.clone(),
                                active,
                                SERVE_STEPS,
                                DRAW_INTERVAL,
                                UNITS_PER_DRAW,
                                type_params,
                                fleet.type_tables(),
                            )
                            .expect("active lane is in range");
                    }
                }
                batch.recover_range(0..cells, IDLE_STEPS, fleet.type_tables());
            }
        }
    });

    // Word-for-word identity of the final states: the throughput comparison
    // is only meaningful if both paths computed the same thing.
    for (system, state) in scalar.iter().enumerate() {
        for (index, battery) in state.batteries().iter().enumerate() {
            let lane = ranges[system].start + index;
            assert_eq!(
                batch.state_word(lane),
                battery.state_word(),
                "discretized batch diverged from scalar at lane {lane}"
            );
        }
    }

    Row {
        cells,
        scalar_cell_steps_per_sec: scalar_throughput,
        batched_cell_steps_per_sec: batched_throughput,
    }
}

/// Scalar mirror of the RV backend's job advance: serve the active cell,
/// then recover the system's other cells by the steps that elapsed.
fn rv_scalar_job(cells: &mut [RvCell], active: usize, fleet: &RvFleet) {
    let table = fleet.table_of(active);
    if cells[active].is_observed_empty() || table.is_empty(&cells[active]) {
        cells[active].mark_observed_empty();
        return;
    }
    let advance = table.serve(&mut cells[active], SERVE_STEPS, DRAW_INTERVAL, UNITS_PER_DRAW);
    for (index, cell) in cells.iter_mut().enumerate() {
        if index != active {
            fleet.table_of(index).recover(cell, advance.steps_consumed);
        }
    }
}

/// Measures the RV-diffusion backend at one cell count, with the same
/// final-state identity check as the discretized path.
fn measure_rv(cells: usize, cycles: u64) -> Row {
    let lanes_per_system = LANES_PER_SYSTEM.min(cells);
    let systems = cells / lanes_per_system;
    let disc = Discretization::paper_default();
    let fleet = RvFleet::uniform(&BatteryParams::itsy_b1(), &disc, lanes_per_system);

    let mut scalar: Vec<Vec<RvCell>> = (0..systems)
        .map(|_| (0..lanes_per_system).map(|i| fleet.table_of(i).fresh_cell()).collect())
        .collect();
    let scalar_throughput = time_throughput(cells, lanes_per_system, cycles, |cycles| {
        for _ in 0..cycles {
            for system in &mut scalar {
                for (index, cell) in system.iter_mut().enumerate() {
                    *cell = fleet.table_of(index).fresh_cell();
                }
            }
            for _ in 0..ROUNDS_PER_CYCLE {
                for system in &mut scalar {
                    for active in 0..lanes_per_system {
                        rv_scalar_job(system, active, &fleet);
                    }
                }
                for system in &mut scalar {
                    for (index, cell) in system.iter_mut().enumerate() {
                        fleet.table_of(index).recover(cell, IDLE_STEPS);
                    }
                }
            }
        }
    });

    let mut batch = RvBatch::with_capacity(cells);
    let ranges: Vec<_> = (0..systems).map(|_| batch.push_fleet(&fleet)).collect();
    let batched_throughput = time_throughput(cells, lanes_per_system, cycles, |cycles| {
        for _ in 0..cycles {
            batch.reset_range(0..cells);
            for _ in 0..ROUNDS_PER_CYCLE {
                for range in &ranges {
                    for active in range.clone() {
                        batch.advance_job_range(
                            range.clone(),
                            active,
                            SERVE_STEPS,
                            DRAW_INTERVAL,
                            UNITS_PER_DRAW,
                            fleet.type_tables(),
                        );
                    }
                }
                batch.recover_range(0..cells, IDLE_STEPS, fleet.type_tables());
            }
        }
    });

    for (system, state) in scalar.iter().enumerate() {
        for (index, cell) in state.iter().enumerate() {
            let lane = ranges[system].start + index;
            assert_eq!(
                batch.state_word(lane, fleet.type_tables()),
                fleet.table_of(index).state_word(cell),
                "rv batch diverged from scalar at lane {lane}"
            );
        }
    }

    Row {
        cells,
        scalar_cell_steps_per_sec: scalar_throughput,
        batched_cell_steps_per_sec: batched_throughput,
    }
}

/// Times the search's root phase (charge + availability + relaxation
/// bounds plus the warm start) on the coarse-grid alternating-load fleets
/// through [`OptimalScheduler::probe_root_bounds`]. Every search runs it
/// once and the relaxation bound re-runs at interior nodes, so its wall
/// time (`bound_micros`, matching the per-cell field the scenario grids
/// record) belongs in the kernel trajectory next to the stepping
/// throughput.
fn measure_bound_probes(smoke: bool) -> JsonValue {
    let repeats = if smoke { 1 } else { 3 };
    let profile = TestLoad::IlsAlt.profile();
    let mut rows = Vec::new();
    println!("root-bound probe (ILs alt, coarse grid, best of {repeats}):");
    println!("{:>6} {:>14}", "fleet", "bound_micros");
    for count in [2usize, 3, 4] {
        let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), count)
            .expect("coarse uniform fleet");
        let load = config.discretize(&profile).expect("the paper load discretizes");
        let mut best = u128::MAX;
        for _ in 0..repeats {
            let mut model = config.discretized_model();
            let start = Instant::now();
            let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model)
                .expect("the root-bound probe succeeds");
            std::hint::black_box(bounds);
            best = best.min(start.elapsed().as_micros());
        }
        println!("{count:>5}x {best:>14}");
        #[allow(clippy::cast_precision_loss)]
        rows.push(JsonValue::object(vec![
            ("fleet", JsonValue::String(format!("{count}xB1"))),
            ("load", JsonValue::String(TestLoad::IlsAlt.name().to_owned())),
            ("bound_micros", JsonValue::Number(best as f64)),
        ]));
    }
    println!();
    JsonValue::Array(rows)
}

/// Jobs per random load of the grid section (the sweep benchmark's size).
const GRID_JOBS: usize = 400;

/// Cells per timed trial of the grid section: about half a second of work
/// on one core, long enough that a scheduler hiccup on a shared box does
/// not decide the trial.
const GRID_TRIAL_CELLS: usize = 16_384;

/// The sweep-shaped grid over the random loads of `seeds`: fleet-outer, so
/// the cheap 2xB1 cells come first and the costly 8xB1 and B1+B2 cells
/// last.
fn sweep_grid(seeds: std::ops::Range<u64>) -> ScenarioSpec {
    ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: vec![
            FleetDef::uniform(BatterySpec::b1(), 2),
            FleetDef::uniform(BatterySpec::b1(), 4),
            FleetDef::uniform(BatterySpec::b1(), 8),
            FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()]),
        ],
        discretizations: vec![DiscSpec::paper()],
        loads: seeds.map(|seed| LoadSpec::random_paper_levels(seed, GRID_JOBS)).collect(),
        policies: PolicyKind::deterministic().to_vec(),
        backends: vec![BackendKind::Discretized, BackendKind::Rv],
    }
}

/// Grid cells/s on `threads` workers: best of 5 trials of `runs` runs of
/// each grid, on a system cache warmed by one untimed run.
fn grid_cells_per_sec(grids: &[ScenarioSpec], threads: usize, runs: usize) -> f64 {
    let cache = Arc::new(SharedSystemCache::new());
    let run = |spec: &ScenarioSpec| {
        let results = GridRun::new(spec)
            .threads(threads)
            .shared_cache(Arc::clone(&cache))
            .collect()
            .expect("the sweep grid runs");
        results.len()
    };
    run(&grids[0]);
    let mut best = 0.0_f64;
    for _ in 0..5 {
        let start = Instant::now();
        let cells: usize = (0..runs).flat_map(|_| grids).map(run).sum();
        #[allow(clippy::cast_precision_loss)]
        let rate = cells as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// The engine layer's number: grid cells/s on one thread and on every
/// core, for a small (one load, 32 cells) and a large (eight loads, 256
/// cells) sweep grid.
fn measure_grid(smoke: bool) -> JsonValue {
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!("grid sweeps (cells/second, best of 5):");
    println!(
        "{:>6} {:>12} {:>12} {:>11}",
        "cells",
        "1 thread",
        format!("{cores} threads"),
        "efficiency"
    );
    let mut rows = Vec::new();
    for loads in [1u64, 8] {
        // Distinct seeds per grid, so no load repeats between grids.
        let grids: Vec<ScenarioSpec> =
            (0..4).map(|grid| sweep_grid(grid * loads..(grid + 1) * loads)).collect();
        let cells = grids[0].scenario_count();
        let runs = if smoke { 1 } else { GRID_TRIAL_CELLS / (grids.len() * cells) };
        let single = grid_cells_per_sec(&grids, 1, runs);
        let parallel = grid_cells_per_sec(&grids, cores, runs);
        #[allow(clippy::cast_precision_loss)]
        let efficiency = parallel / (cores as f64 * single);
        println!("{cells:>6} {single:>12.0} {parallel:>12.0} {efficiency:>11.2}");
        #[allow(clippy::cast_precision_loss)]
        rows.push(JsonValue::object(vec![
            ("cells", JsonValue::Number(cells as f64)),
            ("jobs", JsonValue::Number(GRID_JOBS as f64)),
            ("threads", JsonValue::Number(cores as f64)),
            ("cells_per_sec_1", JsonValue::Number(single)),
            ("cells_per_sec_n", JsonValue::Number(parallel)),
            ("parallel_efficiency", JsonValue::Number(efficiency)),
        ]));
    }
    println!();
    JsonValue::Array(rows)
}

/// Request lines of the codec section, and timed passes over them.
const CODEC_LINES: usize = 256;
const CODEC_PASSES: usize = 20;

/// Seeded interactive re-plan requests, rendered as request lines: a
/// repeated fleet on the paper grid, a fresh 20-job random load, one of the
/// four deterministic policies, one in five on the RV backend.
fn codec_lines(count: usize) -> Vec<String> {
    let fleets = [
        FleetDef::uniform(BatterySpec::b1(), 2),
        FleetDef::uniform(BatterySpec::b1(), 4),
        FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()]),
        FleetDef::uniform(BatterySpec::b2(), 2),
    ];
    let policies = PolicyKind::deterministic();
    let mut rng = SplitMix64::new(1);
    (0..count)
        .map(|id| {
            let scenario = Scenario {
                fleet: fleets[rng.next_index(fleets.len())].clone(),
                disc: DiscSpec::paper(),
                load: LoadSpec::random_paper_levels(rng.next_u64() >> 11, 20),
                policy: policies[rng.next_index(policies.len())],
                backend: if rng.next_index(5) == 0 {
                    BackendKind::Rv
                } else {
                    BackendKind::Discretized
                },
            };
            #[allow(clippy::cast_precision_loss)]
            let id = JsonValue::Number(id as f64);
            let request = Request { id, class: RequestClass::Interactive, scenario };
            request.to_json_value().render().expect("generated requests are finite")
        })
        .collect()
}

/// Median µs of `f` over `passes` calls on each input.
fn median_micros<T>(inputs: &[T], passes: usize, f: impl Fn(&T)) -> f64 {
    let mut micros: Vec<f64> = Vec::with_capacity(inputs.len() * passes);
    for _ in 0..passes {
        for input in inputs {
            let start = Instant::now();
            f(std::hint::black_box(input));
            micros.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    micros.sort_by(f64::total_cmp);
    micros[micros.len() / 2]
}

/// The codec's number: median µs to parse a request line and to render its
/// answer, the two steps `served` adds around every request it executes.
fn measure_codec(smoke: bool) -> JsonValue {
    let lines = codec_lines(if smoke { 32 } else { CODEC_LINES });
    let passes = if smoke { 1 } else { CODEC_PASSES };
    let requests: Vec<Request> = lines
        .iter()
        .map(|line| Request::from_line(line).expect("rendered requests parse back"))
        .collect();
    let responses = run_requests(&requests, &WorkerCache::new());
    assert!(responses.iter().all(engine::Response::is_ok), "every codec request is answered");
    let parse_us = median_micros(&lines, passes, |line| {
        std::hint::black_box(Request::from_line(line).expect("request lines parse"));
    });
    let render_us = median_micros(&responses, passes, |response| {
        std::hint::black_box(response.to_json_value().render().expect("answers are finite"));
    });
    let answers: Vec<String> = responses
        .iter()
        .map(|response| response.to_json_value().render().expect("answers are finite"))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean_bytes =
        |texts: &[String]| texts.iter().map(String::len).sum::<usize>() as f64 / texts.len() as f64;
    let (request_bytes, answer_bytes) = (mean_bytes(&lines), mean_bytes(&answers));
    println!("request codec (median us per line, {} lines x {passes}):", lines.len());
    println!("{:>14} {:>9} {:>13} {:>10}", "request bytes", "parse", "answer bytes", "render");
    println!("{request_bytes:>14.0} {parse_us:>9.2} {answer_bytes:>13.0} {render_us:>10.2}");
    println!();
    #[allow(clippy::cast_precision_loss)]
    JsonValue::object(vec![
        ("lines", JsonValue::Number(lines.len() as f64)),
        ("request_bytes", JsonValue::Number(request_bytes)),
        ("parse_us", JsonValue::Number(parse_us)),
        ("answer_bytes", JsonValue::Number(answer_bytes)),
        ("render_us", JsonValue::Number(render_us)),
    ])
}

fn main() {
    let options = parse_options();
    // Cycle counts scale inversely with N so every row does comparable
    // total work; smoke mode cuts the budget ~8x for CI.
    let budget_lane_steps: u64 = if options.smoke { 1_000_000 } else { 8_000_000 };

    let mut backends = Vec::new();
    for backend in ["discretized", "rv"] {
        println!("{backend} kernels (cell-steps/second, best of 3):");
        println!("{:>6} {:>14} {:>14} {:>9}", "cells", "scalar", "batched", "speedup");
        let mut rows = Vec::new();
        for cells in CELL_COUNTS {
            let lanes_per_system = LANES_PER_SYSTEM.min(cells);
            let cycles = (budget_lane_steps
                / (cells as u64 * lane_steps_per_cycle(lanes_per_system)))
            .max(1);
            let row = match backend {
                "discretized" => measure_discretized(cells, cycles),
                _ => measure_rv(cells, cycles),
            };
            println!(
                "{:>6} {:>14.3e} {:>14.3e} {:>8.2}x",
                row.cells,
                row.scalar_cell_steps_per_sec,
                row.batched_cell_steps_per_sec,
                row.speedup()
            );
            rows.push(row);
        }
        println!();
        #[allow(clippy::cast_precision_loss)]
        backends.push(JsonValue::object(vec![
            ("backend", JsonValue::String(backend.to_owned())),
            (
                "rows",
                JsonValue::Array(
                    rows.iter()
                        .map(|row| {
                            JsonValue::object(vec![
                                ("cells", JsonValue::Number(row.cells as f64)),
                                (
                                    "scalar_cell_steps_per_sec",
                                    JsonValue::Number(row.scalar_cell_steps_per_sec),
                                ),
                                (
                                    "batched_cell_steps_per_sec",
                                    JsonValue::Number(row.batched_cell_steps_per_sec),
                                ),
                                ("speedup", JsonValue::Number(row.speedup())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }

    let bound_probes = measure_bound_probes(options.smoke);
    let grid = measure_grid(options.smoke);
    let codec = measure_codec(options.smoke);

    let document = JsonValue::object(vec![
        ("smoke", JsonValue::Bool(options.smoke)),
        ("serve_steps", JsonValue::Number(SERVE_STEPS as f64)),
        ("draw_interval", JsonValue::Number(f64::from(DRAW_INTERVAL))),
        ("idle_steps", JsonValue::Number(IDLE_STEPS as f64)),
        ("backends", JsonValue::Array(backends)),
        ("bound_probes", bound_probes),
        ("grid", grid),
        ("codec", codec),
    ]);
    let json = document.render().expect("throughput numbers are finite");
    if let Err(error) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {error}", options.out);
        std::process::exit(1);
    }
    println!("wrote {} bytes to {}", json.len(), options.out);
}
