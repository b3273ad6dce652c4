//! Admissibility of the availability-aware search bound.
//!
//! The availability bound (recovery-coupled service envelopes, demand
//! pacing — see `core::optimal` and `dkibam::ServiceRateTable`) is only
//! sound if it never underestimates the true remaining lifetime: an
//! undercount would prune optimal schedules. This property-style suite
//! samples deterministic random loads and fleets (uniform and mixed) and
//! asserts, for every instance,
//!
//! * the availability-bounded search returns the exact lifetime of the
//!   pruning-free reference search (`OptimalScheduler::reference()`),
//! * it never explores more nodes than the same search *without* the
//!   availability bound (the full pre-availability search), and
//! * every bound evaluated at the root (charge and availability) is at
//!   least the optimal lifetime.
//!
//! The newly contained alternating-load frontier instance (3×B1 on
//! `ILs alt`) is pinned as a golden: lifetime and node counts are
//! deterministic, so any regression of the bound shows up as an exact
//! mismatch here before it shows up in CI's bench gate.

use battery_sched::model::BatteryModel;
use battery_sched::optimal::OptimalScheduler;
use battery_sched::policy::FixedSchedule;
use battery_sched::system::{simulate_policy, SystemConfig};
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};
use workload::builder::LoadProfileBuilder;
use workload::paper_loads::TestLoad;
use workload::random::RandomLoadSpec;
use workload::LoadProfile;

fn coarse_uniform(count: usize) -> SystemConfig {
    SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), count).unwrap()
}

fn coarse_mixed() -> SystemConfig {
    SystemConfig::from_fleet(
        FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
        Discretization::coarse(),
    )
}

/// Deterministic random loads: fixed seeds, so every run samples the same
/// profiles.
fn random_profiles(seeds: &[u64]) -> Vec<LoadProfile> {
    let spec = RandomLoadSpec::new(vec![0.25, 0.5], 1.0, 0.5, 40).unwrap();
    seeds.iter().map(|&seed| spec.generate(seed).unwrap()).collect()
}

/// The admissibility suite for one instance: exact lifetime against the
/// reference search with and without the availability bound, node-count
/// monotonicity as it is added (charge-only ⊇ availability), and root
/// bounds at or above the optimum.
fn assert_admissible(config: &SystemConfig, profile: &LoadProfile, label: &str) {
    let reference = OptimalScheduler::reference().find_optimal(config, profile).unwrap();
    let with_bound = OptimalScheduler::new().find_optimal(config, profile).unwrap();
    let without_bound =
        OptimalScheduler::new().without_availability_bound().find_optimal(config, profile).unwrap();
    assert_eq!(
        with_bound.lifetime_steps, reference.lifetime_steps,
        "{label}: the availability bound changed the optimum"
    );
    assert_eq!(
        without_bound.lifetime_steps, reference.lifetime_steps,
        "{label}: the charge-only search changed the optimum"
    );
    assert!(
        with_bound.nodes_explored <= without_bound.nodes_explored,
        "{label}: the availability bound grew the search ({} vs {})",
        with_bound.nodes_explored,
        without_bound.nodes_explored
    );
    // The decision sequence replays to the exact optimum.
    let mut replay = FixedSchedule::new(with_bound.decisions.clone());
    let replayed = simulate_policy(config, profile, &mut replay).unwrap();
    let lifetime = replayed.lifetime_steps().unwrap_or(with_bound.lifetime_steps);
    assert_eq!(lifetime, with_bound.lifetime_steps, "{label}: decisions do not replay");

    // Root bounds must dominate the optimum (necessary admissibility
    // condition, checked directly against the exact answer).
    let load = config.discretize(profile).unwrap();
    let mut model = config.discretized_model();
    let bounds = OptimalScheduler::probe_root_bounds(config, &load, &mut model).unwrap();
    let availability = bounds.availability.expect("the discretized backend has envelopes");
    assert!(
        availability >= reference.lifetime_steps,
        "{label}: availability root bound {availability} underestimates the optimum {}",
        reference.lifetime_steps
    );
    assert!(bounds.charge >= reference.lifetime_steps, "{label}: charge root bound underestimates");
    assert!(
        bounds.warm_start <= reference.lifetime_steps,
        "{label}: the warm start can never beat the optimum"
    );
}

#[test]
fn two_battery_bound_is_admissible_on_paper_loads() {
    let config = coarse_uniform(2);
    for load in [TestLoad::Cl500, TestLoad::Ils500, TestLoad::IlsAlt, TestLoad::Ils250] {
        assert_admissible(&config, &load.profile(), load.name());
    }
}

#[test]
fn two_battery_bound_is_admissible_on_random_loads() {
    let config = coarse_uniform(2);
    for (index, profile) in random_profiles(&[3, 17, 29]).iter().enumerate() {
        assert_admissible(&config, profile, &format!("2xB1 random[{index}]"));
    }
}

#[test]
fn mixed_fleet_bound_is_admissible() {
    let config = coarse_mixed();
    for load in [TestLoad::Cl500, TestLoad::IlsAlt] {
        assert_admissible(&config, &load.profile(), &format!("B1+B2 {load}"));
    }
    for (index, profile) in random_profiles(&[11]).iter().enumerate() {
        assert_admissible(&config, profile, &format!("B1+B2 random[{index}]"));
    }
}

#[test]
fn three_battery_bound_is_admissible() {
    let config = coarse_uniform(3);
    // Higher currents keep the pruning-free reference search tractable.
    let spec = RandomLoadSpec::new(vec![0.5, 1.0], 1.0, 0.5, 25).unwrap();
    assert_admissible(&config, &spec.generate(7).unwrap(), "3xB1 random[7]");
    assert_admissible(&config, &TestLoad::Cl500.profile(), "3xB1 CL 500");
}

/// Nine small batteries: the bound walk has no fleet-size limit.
#[test]
fn nine_battery_bound_is_admissible() {
    let small = BatteryParams::itsy_b1().with_capacity(1.0).unwrap();
    let config =
        SystemConfig::from_fleet(FleetSpec::uniform(small, 9).unwrap(), Discretization::coarse());
    assert_admissible(&config, &TestLoad::Ils250.profile(), "9xB1 (1.0 A·min) ILs 250");
}

/// The frontier golden: 3×B1 on the alternating load. The charge bound
/// never fires here, not even in the charge-only search (the load strands
/// ~70 % of the charge), so the whole reduction against that search is the
/// availability bound's doing. Values are pinned exactly — node counts are
/// deterministic.
#[test]
fn three_b1_alternating_frontier_is_pinned() {
    let config = coarse_uniform(3);
    let profile = TestLoad::IlsAlt.profile();
    let full = OptimalScheduler::new().find_optimal(&config, &profile).unwrap();
    let charge_only = OptimalScheduler::new()
        .without_availability_bound()
        .find_optimal(&config, &profile)
        .unwrap();
    assert_eq!(full.lifetime_steps, 740, "3xB1 ILs alt optimum (coarse grid)");
    assert_eq!(full.lifetime_steps, charge_only.lifetime_steps);
    assert_eq!(full.nodes_explored, 53_595, "availability-bounded node count");
    assert_eq!(charge_only.nodes_explored, 208_504, "charge-only node count");
    assert_eq!(charge_only.charge_bound_prunes, 0, "the charge bound never fires on ILs alt");
    assert_eq!(full.charge_bound_prunes, 0, "the default search evaluates one bound per node");
    assert!(full.availability_bound_prunes > 5_000, "the availability bound does the pruning");
    assert_eq!(full.relax_bound_prunes, 0, "the search has no relaxation bound");
    assert_eq!(full.seeded_by, Some("round robin"));
}

/// The root bounds of `batteries` on coarse `ILs alt`, as
/// `(charge, availability, warm start)`.
fn alternating_root_bounds(batteries: Vec<BatteryParams>) -> (u64, Option<u64>, u64) {
    let config =
        SystemConfig::from_fleet(FleetSpec::new(batteries).unwrap(), Discretization::coarse());
    let load = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
    let mut model = config.discretized_model();
    let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model).unwrap();
    (bounds.charge, bounds.availability, bounds.warm_start)
}

// The alternating-load root bounds of the four frontier fleets are pinned
// to the `frontier_root_bounds` archived in `BENCH_optimal.json` as
// `(charge, availability, warm start)`. Tightening is welcome (update the
// pin); loosening is a regression.

/// 2×B1: the availability bound claims 650 steps where the charge bound
/// claims 1140 (optimum: 330). The warm start is the best-of-two policy's
/// 328 steps.
#[test]
fn alternating_root_bounds_are_pinned() {
    let b1 = BatteryParams::itsy_b1();
    assert_eq!(alternating_root_bounds(vec![b1; 2]), (1140, Some(650), 328), "2xB1 ILs alt");
    let full =
        OptimalScheduler::new().find_optimal(&coarse_uniform(2), &TestLoad::IlsAlt.profile());
    assert_eq!(full.unwrap().seeded_by, Some("best of two"));
}

/// 3×B1: the availability bound claims 1368 against the charge bound's
/// 1740 (optimum: 740).
#[test]
fn three_b1_alternating_root_bounds_are_pinned() {
    let b1 = BatteryParams::itsy_b1();
    assert_eq!(alternating_root_bounds(vec![b1; 3]), (1740, Some(1368), 648), "3xB1 ILs alt");
}

/// 2×B1+B2 and 4×B1: both bounds sit far above the warm start, which is
/// the frontier the search cannot close.
#[test]
fn two_b1_plus_b2_alternating_root_bounds_are_pinned() {
    let (b1, b2) = (BatteryParams::itsy_b1(), BatteryParams::itsy_b2());
    assert_eq!(
        alternating_root_bounds(vec![b1, b1, b2]),
        (2332, Some(2052), 1136),
        "2xB1+B2 ILs alt"
    );
}

/// See [`two_b1_plus_b2_alternating_root_bounds_are_pinned`].
#[test]
fn four_b1_alternating_root_bounds_are_pinned() {
    let b1 = BatteryParams::itsy_b1();
    assert_eq!(alternating_root_bounds(vec![b1; 4]), (2332, Some(2020), 1020), "4xB1 ILs alt");
}

/// The root bounds against the default search's optimum on every paper
/// load (the admissibility suite above runs the costlier pruning-free
/// reference, so it samples four of them).
fn assert_root_bounds_dominate_on_paper_loads(config: &SystemConfig, fleet: &str) {
    for load in TestLoad::all() {
        let label = format!("{fleet} {load}");
        let discretized = config.discretize(&load.profile()).unwrap();
        let optimum = OptimalScheduler::new().find_optimal_on(config, &discretized).unwrap();
        let mut model = config.discretized_model();
        let bounds = OptimalScheduler::probe_root_bounds(config, &discretized, &mut model).unwrap();
        assert!(bounds.charge >= optimum.lifetime_steps, "{label}: charge bound underestimates");
        let availability = bounds.availability.expect("the discretized backend has envelopes");
        assert!(
            availability >= optimum.lifetime_steps,
            "{label}: availability bound {availability} underestimates the optimum {}",
            optimum.lifetime_steps
        );
        assert!(bounds.warm_start <= optimum.lifetime_steps, "{label}: warm start above optimum");
    }
}

#[test]
fn two_b1_root_bounds_dominate_the_optimum_on_every_paper_load() {
    assert_root_bounds_dominate_on_paper_loads(&coarse_uniform(2), "2xB1");
}

#[test]
fn bound_is_admissible_past_trailing_idle_time() {
    // A load the fleet survives, ending in idle time: the optimum is the
    // whole timeline, trailing idle included.
    let trailing_idle = LoadProfileBuilder::new()
        .job(0.5, 1.0)
        .idle(1.0)
        .job(0.25, 2.0)
        .idle(3.0)
        .build_finite()
        .unwrap();
    for (fleet, config) in [("2xB1", coarse_uniform(2)), ("B1+B2", coarse_mixed())] {
        assert_admissible(&config, &trailing_idle, &format!("{fleet} trailing idle"));
        let load = config.discretize(&trailing_idle).unwrap();
        let optimum = OptimalScheduler::new().find_optimal_on(&config, &load).unwrap();
        assert_eq!(optimum.lifetime_steps, load.total_steps(), "{fleet}: the fleet survives");
    }
}

/// The root bounds on a backend without service envelopes: no
/// availability bound (`None`), a charge bound at or above that
/// backend's own optimum, and a warm start at or below it.
fn assert_no_availability_claim<M: BatteryModel>(backend: &str, fresh_model: impl Fn() -> M) {
    let config = coarse_uniform(2);
    for load in [TestLoad::Cl500, TestLoad::IlsAlt] {
        let label = format!("{backend} 2xB1 {load}");
        let discretized = config.discretize(&load.profile()).unwrap();
        let bounds =
            OptimalScheduler::probe_root_bounds(&config, &discretized, &mut fresh_model()).unwrap();
        assert_eq!(bounds.availability, None, "{label}: no envelopes, no availability bound");
        let optimum = OptimalScheduler::new()
            .find_optimal_with(&config, &discretized, &mut fresh_model())
            .unwrap();
        assert!(bounds.charge >= optimum.lifetime_steps, "{label}: charge bound underestimates");
        assert!(bounds.warm_start <= optimum.lifetime_steps, "{label}: warm start above optimum");
    }
}

#[test]
fn continuous_backend_makes_no_availability_claim() {
    let config = coarse_uniform(2);
    assert_no_availability_claim("continuous", || config.continuous_model());
}

#[test]
fn rv_backend_makes_no_availability_claim() {
    let config = coarse_uniform(2);
    assert_no_availability_claim("rv", || config.rv_model());
}

#[test]
fn ideal_backend_makes_no_availability_claim() {
    let config = coarse_uniform(2);
    assert_no_availability_claim("ideal", || config.ideal_model());
}
