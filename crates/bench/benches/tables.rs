//! Benchmarks: one group per table/figure of the paper plus two ablations
//! (discretization granularity and capacity scaling).
//!
//! The build environment is offline, so instead of Criterion this file is a
//! `harness = false` bench with a small built-in timing harness: every
//! benchmark runs a warm-up iteration and then reports the median, minimum
//! and maximum wall-clock time over a fixed number of iterations. Run with
//! `cargo bench -p bench` (or `cargo bench -p bench -- <filter>`).
//!
//! The groups measure the computations that regenerate each experiment:
//!
//! * `table3` / `table4` — single-battery validation rows (analytic +
//!   discretized lifetime) for B1 and B2;
//! * `table5` — two-battery policy simulations at the paper grid and the
//!   optimal search at the coarse grid;
//! * `figure6` — trace generation for the `ILs alt` load;
//! * `scenario_grid` — the paper grid through the parallel scenario engine;
//! * `ablation_discretization` — discrete lifetime at several grid sizes;
//! * `capacity_scaling` — deterministic policies on a 10× larger battery
//!   (the remark at the end of Section 6).

use battery_sched::optimal::OptimalScheduler;
use battery_sched::policy::{BestAvailable, RoundRobin, Sequential};
use battery_sched::report::validation_row;
use battery_sched::system::{simulate_policy_on, SystemConfig};
use dkibam::sim::simulate_lifetime;
use dkibam::{Discretization, DiscretizedLoad};
use kibam::BatteryParams;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workload::paper_loads::TestLoad;

/// Iterations per benchmark (after one warm-up run).
const ITERATIONS: usize = 10;

/// Times `f` and prints a `group/name: median [min .. max]` line. A filter
/// passed on the command line restricts which benchmarks run.
fn bench(filter: &[String], group: &str, name: &str, mut f: impl FnMut()) {
    let label = format!("{group}/{name}");
    if !filter.is_empty() && !filter.iter().any(|needle| label.contains(needle)) {
        return;
    }
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..ITERATIONS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    println!(
        "{label:<45} median {:>12?}  [{:?} .. {:?}]",
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
    );
}

fn bench_table3(filter: &[String]) {
    let params = BatteryParams::itsy_b1();
    let disc = Discretization::paper_default();
    for load in [TestLoad::Cl500, TestLoad::Ils250, TestLoad::IlsAlt] {
        bench(filter, "table3", load.name(), || {
            black_box(validation_row(black_box(load), &params, &disc).unwrap());
        });
    }
}

fn bench_table4(filter: &[String]) {
    let params = BatteryParams::itsy_b2();
    let disc = Discretization::paper_default();
    for load in [TestLoad::Cl250, TestLoad::Ill500] {
        bench(filter, "table4", load.name(), || {
            black_box(validation_row(black_box(load), &params, &disc).unwrap());
        });
    }
}

fn bench_table5(filter: &[String]) {
    let config = SystemConfig::paper_two_b1();
    let coarse = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2).unwrap();
    for load in [TestLoad::Cl500, TestLoad::IlsAlt] {
        let discretized = config.discretize(&load.profile()).unwrap();
        bench(filter, "table5", &format!("{} sequential", load.name()), || {
            black_box(simulate_policy_on(&config, &discretized, &mut Sequential::new()).unwrap());
        });
        bench(filter, "table5", &format!("{} round robin", load.name()), || {
            black_box(simulate_policy_on(&config, &discretized, &mut RoundRobin::new()).unwrap());
        });
        bench(filter, "table5", &format!("{} best of two", load.name()), || {
            black_box(
                simulate_policy_on(&config, &discretized, &mut BestAvailable::new()).unwrap(),
            );
        });
        let coarse_load = coarse.discretize(&load.profile()).unwrap();
        bench(filter, "table5", &format!("{} optimal (coarse)", load.name()), || {
            black_box(OptimalScheduler::new().find_optimal_on(&coarse, &coarse_load).unwrap());
        });
    }
}

fn bench_figure6(filter: &[String]) {
    let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2)
        .unwrap()
        .with_sampling(2);
    let discretized = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
    bench(filter, "figure6", "best-of-two trace", || {
        black_box(simulate_policy_on(&config, &discretized, &mut BestAvailable::new()).unwrap());
    });
    bench(filter, "figure6", "optimal schedule + trace", || {
        let optimal = OptimalScheduler::new().find_optimal_on(&config, &discretized).unwrap();
        black_box(
            simulate_policy_on(
                &config,
                &discretized,
                &mut battery_sched::policy::FixedSchedule::new(optimal.decisions),
            )
            .unwrap(),
        );
    });
}

fn bench_scenario_grid(filter: &[String]) {
    let spec = engine::ScenarioSpec::paper_table5();
    bench(filter, "scenario_grid", "paper grid serial", || {
        black_box(engine::GridRun::new(&spec).threads(1).collect().unwrap());
    });
    bench(filter, "scenario_grid", "paper grid parallel", || {
        black_box(engine::run_grid(&spec).unwrap());
    });
}

fn bench_ablation_discretization(filter: &[String]) {
    let params = BatteryParams::itsy_b1();
    for (label, time_step, charge_unit) in
        [("T=0.01", 0.01, 0.01), ("T=0.02", 0.02, 0.02), ("T=0.05", 0.05, 0.05)]
    {
        let disc = Discretization::new(time_step, charge_unit).unwrap();
        let load = DiscretizedLoad::from_profile(&TestLoad::Cl250.profile(), &disc, 11.0).unwrap();
        bench(filter, "ablation_discretization", label, || {
            black_box(simulate_lifetime(&params, &disc, black_box(&load)).unwrap());
        });
    }
}

fn bench_capacity_scaling(filter: &[String]) {
    // Section 6: with a ten times larger capacity the residual-charge
    // fraction drops below 10 % for best-of-two scheduling.
    let big = BatteryParams::itsy_b1().with_capacity(55.0).unwrap();
    let config = SystemConfig::new(big, Discretization::paper_default(), 2).unwrap();
    let discretized = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
    bench(filter, "capacity_scaling", "10x capacity best-of-two", || {
        black_box(simulate_policy_on(&config, &discretized, &mut BestAvailable::new()).unwrap());
    });
}

fn main() {
    // Cargo's default bench runner passes `--bench`; everything else is
    // treated as a substring filter on `group/name` labels.
    let filter: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    bench_table3(&filter);
    bench_table4(&filter);
    bench_table5(&filter);
    bench_figure6(&filter);
    bench_scenario_grid(&filter);
    bench_ablation_discretization(&filter);
    bench_capacity_scaling(&filter);
}
