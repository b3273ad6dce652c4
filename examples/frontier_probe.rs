//! Probes the alternating-load search frontier: root upper bounds and
//! branch-and-bound node counts under each bound ablation.
//!
//! The `ILs alt` load strands ~70 % of the fleet's charge, so the charge
//! bound wildly overestimates the remaining lifetime and 3+-battery
//! searches historically relied on state-space reduction alone. This probe
//! prints, for each fleet,
//!
//! * the root values of all three upper bounds (charge, availability,
//!   flow relaxation) next to the warm-start incumbent (how tight
//!   is each bound before a single node is explored?), and
//! * the full search (relaxation on) against the relaxation-ablated and
//!   the charge-only searches (what does each bound buy in nodes?).
//!
//! ```text
//! cargo run --release --example frontier_probe [NODE_BUDGET] [--smoke]
//! ```
//!
//! The default budget keeps the probe fast; pass a larger budget to
//! measure how far a search gets before giving up. `--smoke` restricts
//! the searches to the cheap fleets (2×B1 and 3×B1) so CI can exercise
//! the probe end-to-end in seconds; the root-bound table still covers
//! every fleet (bounds are four policy simulations plus one column build
//! per battery, not searches).

use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};
use std::time::Instant;
use workload::paper_loads::TestLoad;

fn main() {
    let mut smoke = false;
    let mut budget: Option<usize> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                budget = Some(other.parse().expect("NODE_BUDGET must be an integer"));
            }
        }
    }
    // The smoke budget contains the 3xB1 availability-ablated search
    // (~208.5k nodes), so a clean run explores every smoke case fully.
    let budget = budget.unwrap_or(if smoke { 300_000 } else { 2_000_000 });

    let disc = Discretization::coarse();
    let cases: Vec<(&str, SystemConfig)> = vec![
        ("2xB1", SystemConfig::new(BatteryParams::itsy_b1(), disc, 2).unwrap()),
        ("3xB1", SystemConfig::new(BatteryParams::itsy_b1(), disc, 3).unwrap()),
        (
            "2xB1+B2",
            SystemConfig::from_fleet(
                FleetSpec::new(vec![
                    BatteryParams::itsy_b1(),
                    BatteryParams::itsy_b1(),
                    BatteryParams::itsy_b2(),
                ])
                .unwrap(),
                disc,
            ),
        ),
        ("4xB1", SystemConfig::new(BatteryParams::itsy_b1(), disc, 4).unwrap()),
    ];
    let load = TestLoad::IlsAlt.profile();

    println!("root bounds on ILs alt (coarse grid):");
    for (name, config) in &cases {
        let discretized = config.discretize(&load).unwrap();
        let mut model = config.discretized_model();
        let bounds = OptimalScheduler::probe_root_bounds(config, &discretized, &mut model).unwrap();
        println!(
            "  {name:>8}: charge {}, availability {}, relaxation {}, warm start {}",
            bounds.charge, bounds.availability, bounds.relaxation, bounds.warm_start
        );
    }

    println!("\nsearches (budget {budget} nodes):");
    let searched: &[(&str, SystemConfig)] = if smoke { &cases[..2] } else { &cases[..] };
    for (name, config) in searched {
        for (which, scheduler) in [
            ("relax", OptimalScheduler::with_budget(budget)),
            ("avail", OptimalScheduler::with_budget(budget).without_relax_bound()),
            (
                "charge",
                OptimalScheduler::with_budget(budget)
                    .without_relax_bound()
                    .without_availability_bound(),
            ),
        ] {
            let start = Instant::now();
            match scheduler.find_optimal(config, &load) {
                Ok(outcome) => println!(
                    "  {name:>8} {which:>6}: {} steps, {} nodes, memo {}, dom {}, charge {}, \
                     avail {}, relax {}, seeded {:?}, {:.2?}",
                    outcome.lifetime_steps,
                    outcome.nodes_explored,
                    outcome.memo_hits,
                    outcome.dominance_prunes,
                    outcome.charge_bound_prunes,
                    outcome.availability_bound_prunes,
                    outcome.relax_bound_prunes,
                    outcome.seeded_by,
                    start.elapsed()
                ),
                Err(error) => {
                    println!("  {name:>8} {which:>6}: {error} ({:.2?})", start.elapsed());
                }
            }
        }
    }
}
