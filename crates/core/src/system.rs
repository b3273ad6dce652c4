//! Multi-battery system simulation under a scheduling policy.
//!
//! This is the executable counterpart of the paper's Table 5 experiments:
//! given a system of `B` identical batteries, a load and a policy, the
//! simulator plays the load against a battery backend, consulting the policy
//! at every scheduling point, and reports the system lifetime (the time at
//! which the *last* battery is observed empty), the schedule and a charge
//! trace.
//!
//! The simulation loop is generic over the [`BatteryModel`] backend
//! ([`simulate_policy_with`]); the [`simulate_policy`] / [`simulate_policy_on`]
//! entry points run it against the paper's discretized KiBaM, which keeps
//! the original call sites unchanged.

use crate::backends::{ContinuousKibam, DiscretizedKibam, IdealBattery, RvDiffusion};
use crate::model::BatteryModel;
use crate::policy::{DecisionContext, SchedulingPolicy};
use crate::schedule::{Assignment, BatteryCharge, Schedule, SystemTrace, SystemTracePoint};
use crate::SchedError;
use dkibam::{Discretization, DiscretizedLoad};
use kibam::{BatteryParams, FleetSpec};
use workload::LoadProfile;

/// Margin applied to the total battery capacity when truncating cyclic loads
/// so that the load always outlasts the batteries.
const HORIZON_MARGIN: f64 = 1.25;

/// Configuration of a multi-battery system: a battery fleet (uniform or
/// heterogeneous) plus the discretization that defines its time base.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    fleet: FleetSpec,
    disc: Discretization,
    sample_interval_steps: Option<u64>,
}

impl SystemConfig {
    /// Creates a configuration of `battery_count` identical batteries (the
    /// uniform convenience constructor; [`SystemConfig::from_fleet`] takes
    /// an arbitrary fleet).
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoBatteries`] if `battery_count` is zero.
    pub fn new(
        params: BatteryParams,
        disc: Discretization,
        battery_count: usize,
    ) -> Result<Self, SchedError> {
        let fleet =
            FleetSpec::uniform(params, battery_count).map_err(|_| SchedError::NoBatteries)?;
        Ok(Self::from_fleet(fleet, disc))
    }

    /// Creates a configuration from a (possibly heterogeneous) fleet.
    #[must_use]
    pub fn from_fleet(fleet: FleetSpec, disc: Discretization) -> Self {
        Self { fleet, disc, sample_interval_steps: None }
    }

    /// The paper's two-battery setup: 2 × B1 with the paper discretization.
    #[must_use]
    pub fn paper_two_b1() -> Self {
        Self::new(BatteryParams::itsy_b1(), Discretization::paper_default(), 2)
            // xlint: allow(panic) -- two batteries are always a valid fleet
            .expect("two batteries are a valid fleet")
    }

    /// Enables trace sampling roughly every `steps` time steps (samples are
    /// aligned to draw instants, so the effective spacing may differ
    /// slightly). Required to regenerate Figure 6.
    #[must_use]
    pub fn with_sampling(mut self, steps: u64) -> Self {
        self.sample_interval_steps = Some(steps.max(1));
        self
    }

    /// The battery fleet.
    #[must_use]
    pub fn fleet(&self) -> &FleetSpec {
        &self.fleet
    }

    /// The discretization.
    #[must_use]
    pub fn disc(&self) -> &Discretization {
        &self.disc
    }

    /// The number of batteries.
    #[must_use]
    pub fn battery_count(&self) -> usize {
        self.fleet.len()
    }

    /// A freshly charged discretized-KiBaM backend for this configuration
    /// (the paper's default model).
    #[must_use]
    pub fn discretized_model(&self) -> DiscretizedKibam {
        DiscretizedKibam::from_fleet(&self.fleet, &self.disc)
    }

    /// A freshly charged continuous-KiBaM backend for this configuration.
    #[must_use]
    pub fn continuous_model(&self) -> ContinuousKibam {
        ContinuousKibam::from_fleet(&self.fleet, &self.disc)
    }

    /// A freshly charged ideal-battery backend for this configuration (the
    /// linear cross-model baseline).
    #[must_use]
    pub fn ideal_model(&self) -> IdealBattery {
        IdealBattery::from_fleet(&self.fleet, &self.disc)
    }

    /// A freshly charged Rakhmatov–Vrudhula diffusion backend for this
    /// configuration (RV parameters fitted per battery type from the
    /// fleet's KiBaM parameters — the cross-model validation chemistry).
    #[must_use]
    pub fn rv_model(&self) -> RvDiffusion {
        RvDiffusion::from_fleet(&self.fleet, &self.disc)
    }

    /// The charge horizon used to truncate cyclic loads: a bit more than the
    /// combined capacity of all batteries.
    #[must_use]
    pub fn charge_horizon(&self) -> f64 {
        self.fleet.total_capacity() * HORIZON_MARGIN
    }

    /// Discretizes a load profile with this configuration's horizon.
    ///
    /// # Errors
    ///
    /// Propagates discretization errors.
    pub fn discretize(&self, profile: &LoadProfile) -> Result<DiscretizedLoad, SchedError> {
        Ok(DiscretizedLoad::from_profile(profile, &self.disc, self.charge_horizon())?)
    }
}

/// The result of simulating a policy on a load.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOutcome {
    lifetime_steps: Option<u64>,
    disc: Discretization,
    backend: &'static str,
    schedule: Schedule,
    trace: SystemTrace,
    final_charges: Vec<BatteryCharge>,
    residual_charge: f64,
}

impl SystemOutcome {
    /// System lifetime in time steps (the time at which the last battery was
    /// observed empty), or `None` if the load ended first.
    #[must_use]
    pub fn lifetime_steps(&self) -> Option<u64> {
        self.lifetime_steps
    }

    /// System lifetime in minutes.
    #[must_use]
    pub fn lifetime_minutes(&self) -> Option<f64> {
        self.lifetime_steps.map(|s| self.disc.steps_to_minutes(s))
    }

    /// The name of the battery backend that produced this outcome.
    #[must_use]
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The schedule that was executed.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The sampled charge trace (non-empty only if sampling was enabled in
    /// the [`SystemConfig`]).
    #[must_use]
    pub fn trace(&self) -> &SystemTrace {
        &self.trace
    }

    /// Per-battery charge snapshots when the simulation stopped.
    #[must_use]
    pub fn final_charges(&self) -> &[BatteryCharge] {
        &self.final_charges
    }

    /// Total charge left in the batteries at the end, in A·min. The paper
    /// observes that roughly 70 % of the original energy remains in the
    /// `ILs alt` two-battery experiment.
    #[must_use]
    pub fn residual_charge(&self) -> f64 {
        self.residual_charge
    }
}

/// Simulates `policy` on `profile` under `config`, using the discretized
/// KiBaM backend (the paper's model).
///
/// # Errors
///
/// Propagates discretization errors and
/// [`SchedError::InvalidBatteryIndex`] if the policy returns an index
/// outside the system.
pub fn simulate_policy(
    config: &SystemConfig,
    profile: &LoadProfile,
    policy: &mut dyn SchedulingPolicy,
) -> Result<SystemOutcome, SchedError> {
    let load = config.discretize(profile)?;
    simulate_policy_on(config, &load, policy)
}

/// Simulates `policy` on an already-discretized load, using the discretized
/// KiBaM backend.
///
/// # Errors
///
/// Same as [`simulate_policy`].
pub fn simulate_policy_on(
    config: &SystemConfig,
    load: &DiscretizedLoad,
    policy: &mut dyn SchedulingPolicy,
) -> Result<SystemOutcome, SchedError> {
    let mut model = config.discretized_model();
    simulate_policy_with(config, load, policy, &mut model)
}

/// Simulates `policy` on an already-discretized load against an arbitrary
/// [`BatteryModel`] backend.
///
/// The model is [`reset`](BatteryModel::reset) before the run, so the same
/// backend instance can be reused across simulations. The backend must have
/// been built for the same battery parameters and discretization as
/// `config` (the [`SystemConfig::discretized_model`] and
/// [`SystemConfig::continuous_model`] constructors guarantee this).
///
/// # Errors
///
/// Propagates backend errors and [`SchedError::InvalidBatteryIndex`] if the
/// policy returns an index outside the system.
pub fn simulate_policy_with<M: BatteryModel>(
    config: &SystemConfig,
    load: &DiscretizedLoad,
    policy: &mut dyn SchedulingPolicy,
    model: &mut M,
) -> Result<SystemOutcome, SchedError> {
    policy.reset();
    model.reset();
    let battery_count = model.battery_count();
    let mut elapsed: u64 = 0;
    let mut job_index: usize = 0;
    let mut decision_index: usize = 0;
    let mut schedule = Schedule::default();
    let mut trace = SystemTrace::default();
    let mut charges = Vec::with_capacity(battery_count);
    let mut available = Vec::with_capacity(battery_count);
    let sampling = config.sample_interval_steps;

    record_sample(&mut trace, sampling, elapsed, model, None, config.disc());

    for epoch in load.epochs() {
        if epoch.is_idle() {
            advance_idle_sampled(
                model,
                &mut elapsed,
                epoch.duration_steps(),
                sampling,
                &mut trace,
                config.disc(),
            );
            continue;
        }

        let interval = u64::from(epoch.draw_interval_steps());
        let mut remaining = epoch.duration_steps();
        let mut continuation = false;
        while remaining > 0 {
            model.available_into(&mut available);
            if available.is_empty() {
                // All batteries are empty: the system died at `elapsed`.
                return Ok(finish(Some(elapsed), config, model, schedule, trace));
            }
            model.charges_into(&mut charges);
            let ctx = DecisionContext {
                job_index,
                continuation,
                available: &available,
                charges: &charges,
            };
            let Some(chosen) = policy.choose(&ctx) else {
                return Ok(finish(Some(elapsed), config, model, schedule, trace));
            };
            if chosen >= battery_count {
                return Err(SchedError::InvalidBatteryIndex {
                    index: chosen,
                    count: battery_count,
                });
            }

            let start_step = elapsed;
            // Serve the job in sampling-aligned chunks (multiples of the draw
            // interval) so the trace stays faithful to the draw schedule.
            let mut battery_died = false;
            while remaining > 0 {
                let chunk = chunk_size(remaining, interval, sampling);
                let advance = model.advance_job(
                    chosen,
                    chunk,
                    epoch.draw_interval_steps(),
                    epoch.units_per_draw(),
                )?;
                elapsed += advance.steps_consumed;
                remaining -= advance.steps_consumed;
                record_sample(&mut trace, sampling, elapsed, model, Some(chosen), config.disc());
                if !advance.completed {
                    battery_died = true;
                    break;
                }
            }
            schedule.assignments.push(Assignment {
                decision_index,
                job_index,
                battery: chosen,
                start_step,
                end_step: elapsed,
                continuation,
            });
            decision_index += 1;
            if battery_died {
                if !model.any_available() {
                    // The last battery died while serving: system lifetime.
                    return Ok(finish(Some(elapsed), config, model, schedule, trace));
                }
                continuation = true;
            }
        }
        job_index += 1;
    }

    Ok(finish(None, config, model, schedule, trace))
}

fn finish<M: BatteryModel>(
    lifetime_steps: Option<u64>,
    config: &SystemConfig,
    model: &M,
    schedule: Schedule,
    trace: SystemTrace,
) -> SystemOutcome {
    SystemOutcome {
        lifetime_steps,
        disc: config.disc,
        backend: model.backend_name(),
        schedule,
        trace,
        final_charges: model.charges(),
        residual_charge: model.total_charge(),
    }
}

/// Chooses the next chunk of a job: a multiple of the draw interval close to
/// the sampling interval (or the whole remainder when not sampling).
fn chunk_size(remaining: u64, interval: u64, sampling: Option<u64>) -> u64 {
    match sampling {
        None => remaining,
        Some(sample) => {
            let aligned = match sample.max(interval).checked_div(interval) {
                None => sample,
                Some(quotient) => quotient * interval,
            };
            aligned.max(1).min(remaining)
        }
    }
}

fn advance_idle_sampled<M: BatteryModel>(
    model: &mut M,
    elapsed: &mut u64,
    duration: u64,
    sampling: Option<u64>,
    trace: &mut SystemTrace,
    disc: &Discretization,
) {
    let mut remaining = duration;
    while remaining > 0 {
        let chunk = sampling.unwrap_or(remaining).max(1).min(remaining);
        model.advance_idle(chunk);
        *elapsed += chunk;
        remaining -= chunk;
        record_sample(trace, sampling, *elapsed, model, None, disc);
    }
}

fn record_sample<M: BatteryModel>(
    trace: &mut SystemTrace,
    sampling: Option<u64>,
    elapsed: u64,
    model: &M,
    active: Option<usize>,
    disc: &Discretization,
) {
    if sampling.is_none() {
        return;
    }
    trace.points.push(SystemTracePoint {
        time: disc.steps_to_minutes(elapsed),
        charges: model.charges(),
        active,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestAvailable, FixedSchedule, RoundRobin, Sequential};
    use workload::paper_loads::TestLoad;

    fn two_b1() -> SystemConfig {
        SystemConfig::paper_two_b1()
    }

    fn lifetime(policy: &mut dyn SchedulingPolicy, load: TestLoad) -> f64 {
        simulate_policy(&two_b1(), &load.profile(), policy)
            .unwrap()
            .lifetime_minutes()
            .expect("paper loads exhaust both batteries")
    }

    fn continuous_lifetime(policy: &mut dyn SchedulingPolicy, load: TestLoad) -> f64 {
        let config = two_b1();
        let discretized = config.discretize(&load.profile()).unwrap();
        let mut model = config.continuous_model();
        simulate_policy_with(&config, &discretized, policy, &mut model)
            .unwrap()
            .lifetime_minutes()
            .expect("paper loads exhaust both batteries")
    }

    #[test]
    fn config_rejects_zero_batteries() {
        assert!(matches!(
            SystemConfig::new(BatteryParams::itsy_b1(), Discretization::paper_default(), 0),
            Err(SchedError::NoBatteries)
        ));
    }

    #[test]
    fn sequential_matches_table_5_on_cl_500() {
        // Table 5: sequential on CL 500 gives 4.10 min.
        let value = lifetime(&mut Sequential::new(), TestLoad::Cl500);
        assert!((value - 4.10).abs() < 0.06, "got {value}");
    }

    #[test]
    fn round_robin_matches_table_5_on_cl_500() {
        // Table 5: round robin on CL 500 gives 4.53 min.
        let value = lifetime(&mut RoundRobin::new(), TestLoad::Cl500);
        assert!((value - 4.53).abs() < 0.06, "got {value}");
    }

    #[test]
    fn round_robin_matches_table_5_on_ils_500() {
        // Table 5: round robin on ILs 500 gives 10.48 min.
        let value = lifetime(&mut RoundRobin::new(), TestLoad::Ils500);
        assert!((value - 10.48).abs() < 0.12, "got {value}");
    }

    #[test]
    fn best_of_two_beats_round_robin_on_alternating_load() {
        // Table 5 (ILs alt): round robin 12.82, best-of-two 16.30 (+27 %).
        let rr = lifetime(&mut RoundRobin::new(), TestLoad::IlsAlt);
        let best = lifetime(&mut BestAvailable::new(), TestLoad::IlsAlt);
        assert!(best > rr * 1.15, "best-of-two {best} should clearly beat round robin {rr}");
    }

    #[test]
    fn sequential_is_never_better_than_round_robin() {
        for load in TestLoad::all() {
            let seq = lifetime(&mut Sequential::new(), load);
            let rr = lifetime(&mut RoundRobin::new(), load);
            assert!(seq <= rr + 0.03, "{load}: sequential {seq} must not beat round robin {rr}");
        }
    }

    #[test]
    fn best_of_two_equals_round_robin_on_uniform_loads() {
        // The paper observes that the two schemes only differ on the
        // alternating (and random) loads.
        for load in [TestLoad::Cl250, TestLoad::Cl500, TestLoad::Ils500, TestLoad::Ill250] {
            let rr = lifetime(&mut RoundRobin::new(), load);
            let best = lifetime(&mut BestAvailable::new(), load);
            assert!((rr - best).abs() < 1e-9, "{load}: {rr} vs {best}");
        }
    }

    #[test]
    fn two_batteries_last_longer_than_one() {
        let single =
            SystemConfig::new(BatteryParams::itsy_b1(), Discretization::paper_default(), 1)
                .unwrap();
        let one = simulate_policy(&single, &TestLoad::Ils500.profile(), &mut Sequential::new())
            .unwrap()
            .lifetime_minutes()
            .unwrap();
        let two = lifetime(&mut Sequential::new(), TestLoad::Ils500);
        assert!(two > one * 1.5);
    }

    #[test]
    fn schedule_records_assignments_and_switches() {
        let outcome =
            simulate_policy(&two_b1(), &TestLoad::Ils500.profile(), &mut RoundRobin::new())
                .unwrap();
        let schedule = outcome.schedule();
        assert!(!schedule.assignments.is_empty());
        assert!(schedule.switches() > 0, "round robin alternates batteries");
        let per_battery = schedule.assignments_per_battery(2);
        assert!(per_battery[0] > 0 && per_battery[1] > 0);
        // Assignment steps are consistent and ordered.
        for assignment in &schedule.assignments {
            assert!(assignment.end_step >= assignment.start_step);
        }
    }

    #[test]
    fn trace_is_recorded_only_when_sampling_enabled() {
        let without =
            simulate_policy(&two_b1(), &TestLoad::Cl500.profile(), &mut RoundRobin::new()).unwrap();
        assert!(without.trace().is_empty());
        let with = simulate_policy(
            &two_b1().with_sampling(10),
            &TestLoad::Cl500.profile(),
            &mut RoundRobin::new(),
        )
        .unwrap();
        assert!(with.trace().len() > 10);
        // Times are non-decreasing and totals never increase.
        for pair in with.trace().points.windows(2) {
            assert!(pair[1].time >= pair[0].time);
            let sum_before: f64 = pair[0].charges.iter().map(|c| c.total).sum();
            let sum_after: f64 = pair[1].charges.iter().map(|c| c.total).sum();
            assert!(sum_after <= sum_before + 1e-9);
        }
    }

    #[test]
    fn residual_charge_is_large_for_ils_alt() {
        // Section 6: about 70 % of the original energy remains in the
        // batteries for the ILs alt load on 2 x B1.
        let outcome =
            simulate_policy(&two_b1(), &TestLoad::IlsAlt.profile(), &mut BestAvailable::new())
                .unwrap();
        let fraction = outcome.residual_charge() / (2.0 * 5.5);
        assert!(fraction > 0.5 && fraction < 0.85, "residual fraction {fraction}");
        assert_eq!(outcome.final_charges().len(), 2);
        let from_snapshots: f64 = outcome.final_charges().iter().map(|c| c.total).sum();
        assert!((from_snapshots - outcome.residual_charge()).abs() < 1e-9);
    }

    #[test]
    fn replaying_a_schedule_reproduces_its_lifetime() {
        let original =
            simulate_policy(&two_b1(), &TestLoad::IlsAlt.profile(), &mut BestAvailable::new())
                .unwrap();
        let mut replay = FixedSchedule::new(original.schedule().decisions());
        let replayed =
            simulate_policy(&two_b1(), &TestLoad::IlsAlt.profile(), &mut replay).unwrap();
        assert_eq!(original.lifetime_steps(), replayed.lifetime_steps());
    }

    #[test]
    fn load_that_ends_early_gives_no_lifetime() {
        let profile = TestLoad::Cl500.profile().truncate_to_duration(1.0).unwrap();
        let outcome = simulate_policy(&two_b1(), &profile, &mut Sequential::new()).unwrap();
        assert_eq!(outcome.lifetime_steps(), None);
        assert!(outcome.residual_charge() > 10.0);
    }

    #[test]
    fn backend_name_is_reported() {
        let config = two_b1();
        let load = config.discretize(&TestLoad::Cl500.profile()).unwrap();
        let discrete = simulate_policy_on(&config, &load, &mut RoundRobin::new()).unwrap();
        assert_eq!(discrete.backend(), "discretized");
        let mut model = config.continuous_model();
        let continuous =
            simulate_policy_with(&config, &load, &mut RoundRobin::new(), &mut model).unwrap();
        assert_eq!(continuous.backend(), "continuous");
    }

    #[test]
    fn continuous_backend_agrees_with_discretized_within_tolerance() {
        // Tables 3 and 4 report ~1-2 % agreement between the continuous and
        // discretized models; the same must hold for the two-battery system
        // simulation through the trait path.
        for load in [TestLoad::Cl500, TestLoad::Ils500, TestLoad::IlsAlt] {
            let discrete = lifetime(&mut RoundRobin::new(), load);
            let continuous = continuous_lifetime(&mut RoundRobin::new(), load);
            let relative = (discrete - continuous).abs() / continuous;
            assert!(
                relative < 0.03,
                "{load}: discretized {discrete:.3} vs continuous {continuous:.3}"
            );
        }
    }

    #[test]
    fn continuous_backend_can_be_reused_across_runs() {
        let config = two_b1();
        let load = config.discretize(&TestLoad::Ils500.profile()).unwrap();
        let mut model = config.continuous_model();
        let first = simulate_policy_with(&config, &load, &mut RoundRobin::new(), &mut model)
            .unwrap()
            .lifetime_steps();
        let second = simulate_policy_with(&config, &load, &mut RoundRobin::new(), &mut model)
            .unwrap()
            .lifetime_steps();
        assert_eq!(first, second, "the model is reset between runs");
    }
}
