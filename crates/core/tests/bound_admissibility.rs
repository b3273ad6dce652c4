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
//! * the bound evaluated at the root is at least the optimal lifetime.
//!
//! The newly contained alternating-load frontier instance (3×B1 on
//! `ILs alt`) is pinned as a golden: lifetime and node counts are
//! deterministic, so any regression of the bound shows up as an exact
//! mismatch here before it shows up in CI's bench gate.

use battery_sched::optimal::OptimalScheduler;
use battery_sched::policy::FixedSchedule;
use battery_sched::system::{simulate_policy, SystemConfig};
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};
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
/// reference search under every bound ablation, node-count monotonicity
/// as bounds are added (charge-only ⊇ availability ⊇ relaxation), and
/// root bounds at or above the optimum.
fn assert_admissible(config: &SystemConfig, profile: &LoadProfile, label: &str) {
    let reference = OptimalScheduler::reference().find_optimal(config, profile).unwrap();
    let with_bound = OptimalScheduler::new().find_optimal(config, profile).unwrap();
    let without_relax =
        OptimalScheduler::new().without_relax_bound().find_optimal(config, profile).unwrap();
    let without_bound = OptimalScheduler::new()
        .without_relax_bound()
        .without_availability_bound()
        .find_optimal(config, profile)
        .unwrap();
    assert_eq!(
        with_bound.lifetime_steps, reference.lifetime_steps,
        "{label}: the relaxation bound changed the optimum"
    );
    assert_eq!(
        without_relax.lifetime_steps, reference.lifetime_steps,
        "{label}: the availability bound changed the optimum"
    );
    assert_eq!(
        without_bound.lifetime_steps, reference.lifetime_steps,
        "{label}: the charge-only search changed the optimum"
    );
    assert!(
        with_bound.nodes_explored <= without_relax.nodes_explored,
        "{label}: the relaxation bound grew the search ({} vs {})",
        with_bound.nodes_explored,
        without_relax.nodes_explored
    );
    assert!(
        without_relax.nodes_explored <= without_bound.nodes_explored,
        "{label}: the availability bound grew the search ({} vs {})",
        without_relax.nodes_explored,
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
    assert!(
        bounds.availability >= reference.lifetime_steps,
        "{label}: availability root bound {} underestimates the optimum {}",
        bounds.availability,
        reference.lifetime_steps
    );
    assert!(bounds.charge >= reference.lifetime_steps, "{label}: charge root bound underestimates");
    assert!(
        bounds.relaxation >= reference.lifetime_steps,
        "{label}: relaxation root bound {} underestimates the optimum {}",
        bounds.relaxation,
        reference.lifetime_steps
    );
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

/// The frontier golden: 3×B1 on the alternating load. The charge bound
/// never fires here (the load strands ~70 % of the charge), so the whole
/// reduction against the charge-only search is the availability and
/// relaxation bounds' doing. Values are pinned exactly — node counts are
/// deterministic.
#[test]
fn three_b1_alternating_frontier_is_pinned() {
    let config = coarse_uniform(3);
    let profile = TestLoad::IlsAlt.profile();
    let full = OptimalScheduler::new().find_optimal(&config, &profile).unwrap();
    let without_relax =
        OptimalScheduler::new().without_relax_bound().find_optimal(&config, &profile).unwrap();
    let charge_only = OptimalScheduler::new()
        .without_relax_bound()
        .without_availability_bound()
        .find_optimal(&config, &profile)
        .unwrap();
    assert_eq!(full.lifetime_steps, 740, "3xB1 ILs alt optimum (coarse grid)");
    assert_eq!(full.lifetime_steps, without_relax.lifetime_steps);
    assert_eq!(full.lifetime_steps, charge_only.lifetime_steps);
    assert_eq!(full.nodes_explored, 22_923, "relaxation-bounded node count");
    assert_eq!(without_relax.nodes_explored, 53_595, "availability-bounded node count");
    assert_eq!(charge_only.nodes_explored, 208_504, "charge-only node count");
    assert_eq!(full.charge_bound_prunes, 0, "the charge bound never fires on ILs alt");
    assert!(full.availability_bound_prunes > 5_000, "the availability bound still fires first");
    assert!(full.relax_bound_prunes > 5_000, "the relaxation bound carries the rest");
    assert_eq!(full.seeded_by, Some("round robin"));
}

/// The 2×B1 alternating-load root bound, pinned: the availability bound
/// claims 650 steps where the charge bound claims 1140 (optimum: 330).
/// Tightening is welcome (update the pin); loosening is a regression. The
/// warm start is the best-of-two policy's 328 steps, as archived in
/// `BENCH_optimal.json`.
#[test]
fn alternating_root_bounds_are_pinned() {
    let config = coarse_uniform(2);
    let load = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
    let mut model = config.discretized_model();
    let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model).unwrap();
    assert_eq!(bounds.charge, 1140);
    assert_eq!(bounds.availability, 650);
    assert!(
        bounds.relaxation < bounds.availability,
        "the relaxation root bound ({}) must tighten the availability bound (650)",
        bounds.relaxation
    );
    assert!(bounds.relaxation >= 330, "the relaxation bound must stay above the 330-step optimum");
    assert_eq!(bounds.warm_start, 328);
    let full = OptimalScheduler::new().find_optimal_on(&config, &load).unwrap();
    assert_eq!(full.seeded_by, Some("best of two"));
}
