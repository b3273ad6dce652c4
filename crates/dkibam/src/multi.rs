//! Multi-battery discrete state: the scalar reference stepping.
//!
//! Battery scheduling operates on several batteries at once: at any instant
//! one battery serves the load while the others recover. This module holds
//! the joint integer state of all batteries and advances it through idle
//! periods and (portions of) jobs the plain way — every battery recovers at
//! every draw instant — which makes it the direct discrete analogue of the
//! network of total-charge / height-difference automata of Figure 5. The
//! schedulers of the `battery-sched` crate step the same dynamics through
//! the [`DiscreteBatch`](crate::DiscreteBatch) kernel; this state is the
//! reference that kernel is held bit-identical to, in lockstep tests and in
//! the kernel benchmark.
//!
//! The state is purely dynamic; all static data — per-battery parameters,
//! discretization, per-type recovery tables — lives in a
//! [`DiscreteFleet`], which every state-advancing method takes. Fleets may
//! be heterogeneous (e.g. one B1 next to one B2): emptiness tests and
//! recovery dynamics are always evaluated against the battery's own
//! parameters and table.

use crate::{DiscreteBattery, DiscreteFleet, DkibamError};

/// Result of letting one battery serve (a portion of) a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobAdvance {
    /// Time steps that actually elapsed.
    pub steps_consumed: u64,
    /// `true` if the requested number of steps was served completely;
    /// `false` if the active battery was observed empty at a draw instant
    /// before the end (the remaining steps still need to be served by
    /// another battery).
    pub completed: bool,
}

/// The joint discrete state of a fleet of batteries.
///
/// Per-battery state is a [`DiscreteBattery`]; per-battery parameters come
/// from the [`DiscreteFleet`] passed to each method (the paper's systems are
/// uniform fleets, but any mix is supported).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MultiBatteryState {
    batteries: Vec<DiscreteBattery>,
}

impl MultiBatteryState {
    /// Creates a state with every battery of the fleet fully charged.
    #[must_use]
    pub fn new_full(fleet: &DiscreteFleet) -> Self {
        Self {
            batteries: (0..fleet.len())
                .map(|i| DiscreteBattery::full(fleet.params_of(i), fleet.disc()))
                .collect(),
        }
    }

    /// Creates a state from explicit per-battery states.
    #[must_use]
    pub fn from_batteries(batteries: Vec<DiscreteBattery>) -> Self {
        Self { batteries }
    }

    /// The number of batteries in the system.
    #[must_use]
    pub fn battery_count(&self) -> usize {
        self.batteries.len()
    }

    /// All per-battery states, in index order.
    #[must_use]
    pub fn batteries(&self) -> &[DiscreteBattery] {
        &self.batteries
    }

    /// Total remaining charge units over all batteries. This is exactly the
    /// quantity the paper's maximum-finder automaton converts into a cost:
    /// the longest-lived schedule leaves the least charge behind.
    #[must_use]
    pub fn total_charge_units(&self) -> u64 {
        self.batteries.iter().map(|b| u64::from(b.charge_units())).sum()
    }

    /// Lets every battery recover for `steps` time steps (an idle period of
    /// the load, or the portion of a job served by some other battery).
    pub fn advance_idle(&mut self, steps: u64, fleet: &DiscreteFleet) {
        #[cfg(debug_assertions)]
        let total_before = self.total_charge_units();
        for (i, battery) in self.batteries.iter_mut().enumerate() {
            battery.advance_recovery(steps, fleet.table_of(i));
        }
        // Charge conservation: recovery redistributes charge between the
        // bound and available wells; it never changes the fleet total.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.total_charge_units(),
            total_before,
            "idle recovery changed the total charge"
        );
    }

    /// Lets battery `active` serve a job portion of `steps` time steps with
    /// the given draw pattern while all other batteries recover.
    ///
    /// If the active battery is observed empty at a draw instant (Eq. 8), it
    /// is retired, the remaining steps are *not* served, and the returned
    /// [`JobAdvance`] reports `completed == false` together with the number
    /// of steps that did elapse; the caller then re-schedules the remainder
    /// on another battery, mirroring the scheduler automaton of Figure 5(d).
    ///
    /// # Errors
    ///
    /// Returns [`DkibamError::BatteryIndexOutOfRange`] if `active` is not a
    /// valid battery index.
    pub fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval: u32,
        units_per_draw: u32,
        fleet: &DiscreteFleet,
    ) -> Result<JobAdvance, DkibamError> {
        if active >= self.batteries.len() {
            return Err(DkibamError::BatteryIndexOutOfRange {
                index: active,
                count: self.batteries.len(),
            });
        }
        if draw_interval == 0 || units_per_draw == 0 {
            // Degenerate "job" that draws nothing: just idle time.
            self.advance_idle(steps, fleet);
            return Ok(JobAdvance { steps_consumed: steps, completed: true });
        }
        let active_params = fleet.params_of(active);
        if self.batteries[active].is_empty(active_params) {
            self.batteries[active].mark_observed_empty();
            return Ok(JobAdvance { steps_consumed: 0, completed: false });
        }

        let interval = u64::from(draw_interval);
        let draws = steps / interval;
        let remainder = steps - draws * interval;
        let mut consumed = 0;
        for _ in 0..draws {
            for (i, battery) in self.batteries.iter_mut().enumerate() {
                battery.advance_recovery(interval, fleet.table_of(i));
            }
            consumed += interval;
            // As in the single-battery simulation, the emptiness condition is
            // checked at the draw instant both before and after the draw.
            #[cfg(debug_assertions)]
            let n_before = self.batteries[active].charge_units();
            if !self.batteries[active].is_empty(active_params) {
                self.batteries[active].draw(units_per_draw);
            }
            // Charge conservation: a draw instant removes at most
            // `units_per_draw` units, all from the active battery.
            #[cfg(debug_assertions)]
            debug_assert!(
                n_before - self.batteries[active].charge_units() <= units_per_draw,
                "draw instant removed more than the configured draw"
            );
            if self.batteries[active].is_empty(active_params) {
                self.batteries[active].mark_observed_empty();
                return Ok(JobAdvance { steps_consumed: consumed, completed: false });
            }
        }
        for (i, battery) in self.batteries.iter_mut().enumerate() {
            battery.advance_recovery(remainder, fleet.table_of(i));
        }
        consumed += remainder;
        Ok(JobAdvance { steps_consumed: consumed, completed: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Discretization;
    use kibam::{BatteryParams, FleetSpec};

    fn two_b1() -> DiscreteFleet {
        DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2)
    }

    fn b1_plus_b2() -> DiscreteFleet {
        DiscreteFleet::new(
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
            Discretization::paper_default(),
        )
    }

    #[test]
    fn new_full_creates_identical_full_batteries() {
        let fleet = two_b1();
        let state = MultiBatteryState::new_full(&fleet);
        assert_eq!(state.battery_count(), 2);
        assert_eq!(state.total_charge_units(), 1100);
    }

    #[test]
    fn heterogeneous_fleet_fills_per_battery_capacities() {
        let fleet = b1_plus_b2();
        let state = MultiBatteryState::new_full(&fleet);
        assert_eq!(state.batteries()[0].charge_units(), 550);
        assert_eq!(state.batteries()[1].charge_units(), 1100);
        assert_eq!(state.total_charge_units(), 1650);
    }

    #[test]
    fn advance_job_discharges_only_the_active_battery() {
        let fleet = two_b1();
        let mut state = MultiBatteryState::new_full(&fleet);
        // One minute of 500 mA: 100 steps, one unit every 2 steps.
        let advance = state.advance_job(0, 100, 2, 1, &fleet).unwrap();
        assert!(advance.completed);
        assert_eq!(advance.steps_consumed, 100);
        assert_eq!(state.batteries()[0].charge_units(), 500);
        assert_eq!(state.batteries()[1].charge_units(), 550);
        assert!(state.batteries()[0].height_units() > 0);
        assert_eq!(state.batteries()[1].height_units(), 0);
    }

    #[test]
    fn advance_job_on_out_of_range_battery_fails() {
        let fleet = two_b1();
        let mut state = MultiBatteryState::new_full(&fleet);
        assert!(state.advance_job(5, 10, 2, 1, &fleet).is_err());
    }

    #[test]
    fn active_battery_is_retired_when_observed_empty() {
        let fleet = two_b1();
        // Battery 0 is nearly dead: few charge units, big height difference.
        let dying = DiscreteBattery::from_units(30, 120);
        let fresh = DiscreteBattery::full(fleet.params_of(1), fleet.disc());
        let mut state = MultiBatteryState::from_batteries(vec![dying, fresh]);
        let advance = state.advance_job(0, 200, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        assert!(advance.steps_consumed < 200);
        assert!(state.batteries()[0].is_observed_empty());
        // The other battery is still usable, so the system is not dead yet.
        assert!(!state.batteries()[1].is_empty(fleet.params_of(1)));
    }

    #[test]
    fn scheduling_an_already_empty_battery_consumes_no_time() {
        let fleet = two_b1();
        let mut dead = DiscreteBattery::from_units(10, 100);
        assert!(dead.is_empty(fleet.params_of(0)));
        dead.mark_observed_empty();
        let fresh = DiscreteBattery::full(fleet.params_of(1), fleet.disc());
        let mut state = MultiBatteryState::from_batteries(vec![dead, fresh]);
        let advance = state.advance_job(0, 100, 2, 1, &fleet).unwrap();
        assert_eq!(advance.steps_consumed, 0);
        assert!(!advance.completed);
    }

    #[test]
    fn idle_advance_recovers_all_batteries() {
        let fleet = two_b1();
        let used_a = DiscreteBattery::from_units(400, 60);
        let used_b = DiscreteBattery::from_units(300, 80);
        let mut state = MultiBatteryState::from_batteries(vec![used_a, used_b]);
        state.advance_idle(1_000, &fleet);
        assert!(state.batteries()[0].height_units() < 60);
        assert!(state.batteries()[1].height_units() < 80);
        // Total charge never changes during idle periods.
        assert_eq!(state.total_charge_units(), 700);
    }

    #[test]
    fn degenerate_job_with_no_draws_is_idle_time() {
        let fleet = two_b1();
        let mut state = MultiBatteryState::new_full(&fleet);
        let advance = state.advance_job(0, 50, 0, 0, &fleet).unwrap();
        assert!(advance.completed);
        assert_eq!(state.total_charge_units(), 1100);
    }

    #[test]
    fn mixed_fleet_emptiness_uses_per_battery_parameters() {
        // Drain the B1 of a B1+B2 fleet dry: the (larger) B2 keeps serving.
        let fleet = b1_plus_b2();
        let mut state = MultiBatteryState::new_full(&fleet);
        let advance = state.advance_job(0, 100_000, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        assert!(state.batteries()[0].is_observed_empty());
        assert!(!state.batteries()[1].is_empty(fleet.params_of(1)));
        let advance = state.advance_job(1, 100, 2, 1, &fleet).unwrap();
        assert!(advance.completed);
    }

    #[test]
    fn state_equality_and_hashing_ignore_nothing() {
        use std::collections::HashSet;
        let fleet = two_b1();
        let a = MultiBatteryState::new_full(&fleet);
        let b = MultiBatteryState::new_full(&fleet);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        let mut c = b.clone();
        c = {
            let mut batteries = c.batteries().to_vec();
            batteries[0].draw(1);
            MultiBatteryState::from_batteries(batteries)
        };
        assert!(!set.contains(&c));
    }
}
