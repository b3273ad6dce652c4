//! Regenerates Table 3 of the paper: lifetime of battery B1 under the ten
//! test loads, analytical KiBaM vs. discretized (TA-)KiBaM.

use battery_sched::report::validation_row;
use bench::{format_validation_row, validation_header};
use dkibam::Discretization;
use kibam::BatteryParams;
use workload::paper_loads::TestLoad;

fn main() {
    println!("Table 3 — battery B1 (5.5 A·min), T = 0.01 min, Γ = 0.01 A·min");
    println!("{}", validation_header());
    let params = BatteryParams::itsy_b1();
    let disc = Discretization::paper_default();
    for load in TestLoad::all() {
        match validation_row(load, &params, &disc) {
            Ok(row) => println!("{}", format_validation_row(&row)),
            Err(error) => eprintln!("{load}: {error}"),
        }
    }
    println!("\nNote: ILs r1 / ILs r2 use seeded random job sequences; the paper's exact");
    println!("sequences are not published, so their absolute values differ (see README,");
    println!("\"Results vs. the paper\").");
}
