//! Cross-crate integration tests asserting the *shape* of the paper's
//! results: Tables 3–5 and the qualitative claims of Section 6.

use battery_sched::optimal::OptimalScheduler;
use battery_sched::policy::{BestAvailable, RoundRobin, SchedulingPolicy, Sequential};
use battery_sched::report::{table5_row, validation_row};
use battery_sched::system::{simulate_policy, SystemConfig};
use dkibam::Discretization;
use kibam::BatteryParams;
use workload::paper_loads::TestLoad;

/// Table 3: every deterministic load reproduces the paper's analytical B1
/// lifetime to 0.02 min, and the discretized model stays within ~1–2 %.
#[test]
fn table3_reproduces_for_b1() {
    let params = BatteryParams::itsy_b1();
    let disc = Discretization::paper_default();
    for load in TestLoad::all() {
        let row = validation_row(load, &params, &disc).unwrap();
        if !load.is_random() {
            assert!(
                (row.analytic_minutes - load.paper_lifetime_b1()).abs() < 0.02,
                "{load}: analytic {:.3} vs paper {:.3}",
                row.analytic_minutes,
                load.paper_lifetime_b1()
            );
        }
        assert!(row.difference_percent.abs() < 2.5, "{load}: {:.2}%", row.difference_percent);
    }
}

/// Table 4: same for battery B2.
#[test]
fn table4_reproduces_for_b2() {
    let params = BatteryParams::itsy_b2();
    let disc = Discretization::paper_default();
    for load in TestLoad::all() {
        let row = validation_row(load, &params, &disc).unwrap();
        if !load.is_random() {
            assert!(
                (row.analytic_minutes - load.paper_lifetime_b2()).abs() < 0.02,
                "{load}: analytic {:.3} vs paper {:.3}",
                row.analytic_minutes,
                load.paper_lifetime_b2()
            );
        }
        assert!(row.difference_percent.abs() < 2.5, "{load}: {:.2}%", row.difference_percent);
    }
}

/// Table 5 (deterministic columns): the sequential, round-robin and
/// best-of-two lifetimes of every non-random load sit at most 0.085 min
/// below the published values and never above them.
#[test]
fn table5_deterministic_columns_match_paper() {
    let config = SystemConfig::paper_two_b1();
    for load in TestLoad::all() {
        if load.is_random() {
            continue;
        }
        let row = table5_row(load, &config, None).unwrap();
        let (paper_seq, paper_rr, paper_best, _) = load.paper_table5();
        for (ours, paper, name) in [
            (row.sequential_minutes, paper_seq, "sequential"),
            (row.round_robin_minutes, paper_rr, "round robin"),
            (row.best_of_two_minutes, paper_best, "best of two"),
        ] {
            // The paper rounds to 0.01 min. Ours sit 0–0.08 min below it
            // and never above; the widest gap is CL alt sequential, 5.40
            // against 5.48.
            let offset = ours - paper;
            assert!(
                offset <= 0.005 && paper - ours <= 0.085,
                "{load} {name}: ours {ours:.3} vs paper {paper:.2} (offset {offset:+.3} min)"
            );
        }
    }
}

/// Section 6, qualitative claims: sequential is always worst; round robin
/// and best-of-two coincide except on alternating/random loads, where
/// best-of-two wins clearly.
#[test]
fn section6_policy_ordering_claims_hold() {
    let config = SystemConfig::paper_two_b1();
    for load in TestLoad::all() {
        let run = |policy: &mut dyn SchedulingPolicy| {
            simulate_policy(&config, &load.profile(), policy).unwrap().lifetime_minutes().unwrap()
        };
        let seq = run(&mut Sequential::new());
        let rr = run(&mut RoundRobin::new());
        let best = run(&mut BestAvailable::new());
        assert!(seq <= rr + 0.03, "{load}: sequential must be worst");
        // Best-of-two is a greedy heuristic: on the paper's deterministic
        // loads it never loses to round robin; on arbitrary random loads it
        // can fall marginally short (a couple of time steps), so allow that.
        let slack = if load.is_random() { 0.05 } else { 1e-9 };
        assert!(best + slack >= rr, "{load}: best-of-two never loses to round robin");
        if matches!(load, TestLoad::IlsAlt) {
            assert!(best > rr * 1.2, "{load}: best-of-two should win clearly (27% in the paper)");
        }
    }
}

/// Table 5 (optimal column, coarse grid): the optimal schedule dominates the
/// deterministic ones and shows a clear gain on the alternating loads.
#[test]
fn optimal_schedule_dominates_on_coarse_grid() {
    let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2).unwrap();
    let scheduler = OptimalScheduler::new();
    for load in [TestLoad::Cl500, TestLoad::ClAlt, TestLoad::IlsAlt] {
        let row = table5_row(load, &config, Some(&scheduler)).unwrap();
        let optimal = row.optimal_minutes.unwrap();
        assert!(optimal + 1e-9 >= row.best_of_two_minutes, "{load}: optimal >= best-of-two");
        assert!(optimal + 1e-9 >= row.round_robin_minutes, "{load}: optimal >= round robin");
    }
    let alt = table5_row(TestLoad::ClAlt, &config, Some(&scheduler)).unwrap();
    assert!(
        alt.optimal_minutes.unwrap() > alt.round_robin_minutes * 1.02,
        "CL alt: the optimal schedule improves on round robin (6.2% in the paper)"
    );
}

/// Table 5 (optimal column, paper grid): one 2×B1 search at T = Γ = 0.01,
/// its optimum pinned to the exact step, held within 0.05 min of the
/// paper's Uppaal Cora value and never below best-of-two.
fn assert_paper_grid_optimum(load: TestLoad, lifetime_steps: u64) {
    let config = SystemConfig::paper_two_b1();
    let profile = load.profile();
    let optimal = OptimalScheduler::new().find_optimal(&config, &profile).unwrap();
    assert_eq!(optimal.lifetime_steps, lifetime_steps, "{load}: paper-grid optimum");
    let minutes = optimal.lifetime_minutes(&config);
    let paper = load.paper_table5().3;
    assert!((minutes - paper).abs() <= 0.05, "{load}: optimal {minutes:.2} vs paper {paper:.2}");
    let best = simulate_policy(&config, &profile, &mut BestAvailable::new())
        .unwrap()
        .lifetime_minutes()
        .unwrap();
    assert!(minutes + 1e-9 >= best, "{load}: optimal {minutes:.2} < best-of-two {best:.2}");
}

/// The paper's headline column on seven of its eight deterministic loads.
/// The random loads are left out: the paper's sequences are unpublished.
#[test]
fn table5_optimal_column_reproduces_on_the_paper_grid() {
    for (load, lifetime_steps) in [
        (TestLoad::Cl250, 1200),
        (TestLoad::Cl500, 454),
        (TestLoad::ClAlt, 646),
        (TestLoad::Ils250, 4076),
        (TestLoad::Ils500, 1048),
        (TestLoad::IlsAlt, 1690),
        (TestLoad::Ill500, 1868),
    ] {
        assert_paper_grid_optimum(load, lifetime_steps);
    }
}

/// The eighth deterministic load, ``IL` 250``: a 132k-node search. With
/// its service envelopes memoized it takes under 1 s in release and about
/// 5 s in the debug test profile, so it runs in every test pass.
#[test]
fn table5_optimal_il_250_reproduces_on_the_paper_grid() {
    assert_paper_grid_optimum(TestLoad::Ill250, 7892);
}

/// Section 6: with the small B1 batteries roughly 70 % of the energy is left
/// behind on ILs alt; a ten-fold larger battery strands far less.
#[test]
fn residual_charge_shrinks_with_capacity() {
    let small = SystemConfig::paper_two_b1();
    let outcome_small =
        simulate_policy(&small, &TestLoad::IlsAlt.profile(), &mut BestAvailable::new()).unwrap();
    let fraction_small = outcome_small.residual_charge() / (2.0 * 5.5);
    assert!(fraction_small > 0.5, "small batteries strand most of their charge");

    let big_params = BatteryParams::itsy_b1().with_capacity(55.0).unwrap();
    let big = SystemConfig::new(big_params, Discretization::paper_default(), 2).unwrap();
    let outcome_big =
        simulate_policy(&big, &TestLoad::IlsAlt.profile(), &mut BestAvailable::new()).unwrap();
    let fraction_big = outcome_big.residual_charge() / (2.0 * 55.0);
    assert!(
        fraction_big < 0.12,
        "ten-fold capacity should strand less than ~10% (got {fraction_big:.3})"
    );
    assert!(fraction_big < fraction_small);
}

/// Figure 6 ingredients: the sampled trace shows recovery (available charge
/// rising while a battery rests) and the optimal schedule leaves less charge
/// behind than best-of-two.
#[test]
fn figure6_traces_show_recovery_and_optimal_gain() {
    let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2)
        .unwrap()
        .with_sampling(2);
    let load = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
    let best = battery_sched::system::simulate_policy_on(&config, &load, &mut BestAvailable::new())
        .unwrap();
    // Recovery: some battery's available charge increases between samples.
    let mut recovery_seen = false;
    for pair in best.trace().points.windows(2) {
        for (before, after) in pair[0].charges.iter().zip(&pair[1].charges) {
            if after.available > before.available + 1e-9 {
                recovery_seen = true;
            }
        }
    }
    assert!(recovery_seen, "the trace must show the recovery effect");

    let optimal = OptimalScheduler::new().find_optimal_on(&config, &load).unwrap();
    assert!(
        config.disc().steps_to_minutes(optimal.lifetime_steps)
            >= best.lifetime_minutes().unwrap() - 1e-9,
        "the optimal schedule lives at least as long as best-of-two"
    );
}
