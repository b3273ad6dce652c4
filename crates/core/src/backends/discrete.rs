//! The discretized-KiBaM backend: the dKiBaM of Section 2.3 stepped by its
//! per-system kernel ([`dkibam::kernel`]).
//!
//! The backend owns one [`DiscreteBattery`] per battery and reads the
//! fleet's static data — parameters, discretization, per-type recovery and
//! service-rate tables — through a shared [`Arc<DiscreteFleet>`], so a copy
//! of a built system costs the battery states alone. The scalar
//! [`dkibam::multi::MultiBatteryState`] stays the reference the kernel is
//! held bit-identical to (the lockstep tests of this module's parent).

use crate::model::{BatteryModel, ModelAdvance, StateKey};
use crate::schedule::BatteryCharge;
use crate::SchedError;
use dkibam::{kernel, DiscreteBattery, DiscreteFleet, Discretization};
use kibam::{BatteryParams, FleetSpec};
use std::sync::Arc;

/// The discretized KiBaM of Section 2.3 as a [`BatteryModel`] backend.
///
/// Holds the static data (the fleet: per-battery parameters,
/// discretization, per-type recovery tables) behind an `Arc` next to the
/// dynamic battery states, so that searches snapshot just the states and
/// clones share the tables. Fleets may be heterogeneous;
/// [`DiscretizedKibam::new`] is the uniform convenience constructor the
/// paper's systems use.
#[derive(Debug, Clone)]
pub struct DiscretizedKibam {
    fleet: Arc<DiscreteFleet>,
    batteries: Vec<DiscreteBattery>,
}

impl DiscretizedKibam {
    /// Creates a system of `count` identical, freshly charged batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`DiscretizedKibam::from_fleet`] with
    /// a validated [`FleetSpec`] to handle the error explicitly.
    #[must_use]
    pub fn new(params: &BatteryParams, disc: &Discretization, count: usize) -> Self {
        Self::from_fleet_data(DiscreteFleet::uniform(params, disc, count))
    }

    /// Creates a freshly charged system from a (possibly heterogeneous)
    /// fleet.
    #[must_use]
    pub fn from_fleet(fleet: &FleetSpec, disc: &Discretization) -> Self {
        Self::from_fleet_data(DiscreteFleet::new(fleet.clone(), *disc))
    }

    fn from_fleet_data(fleet: DiscreteFleet) -> Self {
        let batteries = (0..fleet.len())
            .map(|i| DiscreteBattery::full(fleet.params_of(i), fleet.disc()))
            .collect();
        Self { fleet: Arc::new(fleet), batteries }
    }

    /// The static fleet data (per-battery parameters and recovery tables),
    /// shared by every clone of this system.
    #[must_use]
    pub fn fleet(&self) -> &Arc<DiscreteFleet> {
        &self.fleet
    }

    /// The discretization in use.
    #[must_use]
    pub fn disc(&self) -> &Discretization {
        self.fleet.disc()
    }
}

impl BatteryModel for DiscretizedKibam {
    type State = Vec<DiscreteBattery>;

    fn backend_name(&self) -> &'static str {
        "discretized"
    }

    fn battery_count(&self) -> usize {
        self.batteries.len()
    }

    fn type_of(&self, index: usize) -> usize {
        self.fleet.type_of(index)
    }

    fn reset(&mut self) {
        for (index, battery) in self.batteries.iter_mut().enumerate() {
            *battery = DiscreteBattery::full(self.fleet.params_of(index), self.fleet.disc());
        }
    }

    fn save_state(&self) -> Vec<DiscreteBattery> {
        self.batteries.clone()
    }

    fn save_state_into(&self, out: &mut Vec<DiscreteBattery>) {
        out.clone_from(&self.batteries);
    }

    fn restore_state(&mut self, state: &Vec<DiscreteBattery>) {
        self.batteries.clone_from(state);
    }

    fn is_empty(&self, index: usize) -> bool {
        self.batteries[index].is_empty(self.fleet.params_of(index))
    }

    fn memo_key(&self) -> Option<StateKey> {
        StateKey::from_typed_words(
            self.batteries.iter().enumerate().map(|(i, b)| (self.fleet.type_of(i), b.state_word())),
        )
    }

    fn key_dominates(&self, a: &StateKey, b: &StateKey) -> bool {
        a.dominates_pairwise(b, DiscreteBattery::word_dominates)
    }

    fn charge(&self, index: usize) -> BatteryCharge {
        let battery = &self.batteries[index];
        BatteryCharge {
            total: battery.total_charge(self.fleet.disc()),
            available: battery.available_charge(self.fleet.params_of(index), self.fleet.disc()),
        }
    }

    fn total_charge(&self) -> f64 {
        // One multiply over the integer unit sum, not a sum of per-battery
        // products (the reference's `total_charge_units` accounting).
        let units: u64 = self.batteries.iter().map(|b| u64::from(b.charge_units())).sum();
        #[allow(clippy::cast_precision_loss)]
        let units = units as f64;
        units * self.fleet.disc().charge_unit()
    }

    fn usable_charge(&self) -> f64 {
        self.batteries
            .iter()
            .filter(|b| !b.is_observed_empty())
            .map(|b| f64::from(b.charge_units()) * self.fleet.disc().charge_unit())
            .sum()
    }

    fn service_envelope_into(
        &self,
        index: usize,
        max_units_per_draw: u32,
        out: &mut dkibam::ServiceEnvelope,
    ) -> Option<&dkibam::ServiceRateTable> {
        let battery = &self.batteries[index];
        let table = self.fleet.service_of(index);
        // A retired battery serves nothing, ever: build from zero charge.
        let charge = if battery.is_observed_empty() { 0 } else { battery.charge_units() };
        table.build_envelope(charge, battery.height_units(), max_units_per_draw, out);
        Some(table)
    }

    fn states_identical(&self, a: usize, b: usize) -> bool {
        self.fleet.type_of(a) == self.fleet.type_of(b) && self.batteries[a] == self.batteries[b]
    }

    fn advance_idle(&mut self, steps: u64) {
        kernel::recover(&mut self.batteries, steps, &self.fleet);
    }

    fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> Result<ModelAdvance, SchedError> {
        let advance = kernel::advance_job(
            &mut self.batteries,
            active,
            steps,
            draw_interval_steps,
            units_per_draw,
            &self.fleet,
        )?;
        Ok(ModelAdvance { steps_consumed: advance.steps_consumed, completed: advance.completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1_plus_b2() -> DiscretizedKibam {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        DiscretizedKibam::from_fleet(&fleet, &Discretization::paper_default())
    }

    #[test]
    fn tracks_charge_units_through_a_job() {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let mut model = DiscretizedKibam::new(&params, &disc, 2);
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
        model.advance_job(0, 100, 2, 1).unwrap();
        assert!((model.total_charge() - 10.5).abs() < 1e-12);
        assert_eq!(model.backend_name(), "discretized");
        assert!((model.usable_charge() - 10.5).abs() < 1e-12);
    }

    #[test]
    fn tracks_the_underlying_multi_battery_state() {
        // The scalar reference, stepped through the same job and idle
        // period, leaves the same charge units behind.
        let fleet =
            DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2);
        let mut reference = dkibam::multi::MultiBatteryState::new_full(&fleet);
        let mut model = DiscretizedKibam::from_fleet_data(fleet.clone());
        reference.advance_job(0, 100, 2, 1, &fleet).unwrap();
        model.advance_job(0, 100, 2, 1).unwrap();
        reference.advance_idle(50, &fleet);
        model.advance_idle(50);
        assert_eq!(model.save_state(), reference.batteries());
        let units: u64 = model.save_state().iter().map(|b| u64::from(b.charge_units())).sum();
        assert_eq!(units, reference.total_charge_units());
    }

    #[test]
    fn available_into_matches_available() {
        let mut model =
            DiscretizedKibam::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 3);
        let mut buf = vec![7usize; 5];
        model.available_into(&mut buf);
        assert_eq!(buf, model.available());
        assert!(model.any_available());
        // Retire battery 1 and check the reduced set.
        let advance = model.advance_job(1, 10_000, 2, 1).unwrap();
        assert!(!advance.completed);
        model.available_into(&mut buf);
        assert_eq!(buf, vec![0, 2]);
        assert_eq!(buf, model.available());
        assert!(model.any_available());
    }

    #[test]
    fn clones_share_the_fleet_and_step_independently() {
        let prototype = b1_plus_b2();
        let mut copy = prototype.clone();
        assert!(Arc::ptr_eq(prototype.fleet(), copy.fleet()));
        copy.advance_job(1, 100, 2, 1).unwrap();
        assert!((prototype.total_charge() - 16.5).abs() < 1e-12, "the prototype is untouched");
        assert!((copy.total_charge() - 16.0).abs() < 1e-12);
        assert_ne!(copy.save_state(), prototype.save_state());
    }

    #[test]
    fn reset_refills_every_battery_to_full() {
        let fresh = b1_plus_b2();
        let mut model = fresh.clone();
        assert!(!model.advance_job(0, 1_000_000, 2, 1).unwrap().completed);
        assert!(!model.advance_job(1, 1_000_000, 2, 1).unwrap().completed);
        assert!(!model.any_available());
        model.reset();
        assert_eq!(model.save_state(), fresh.save_state());
        assert_eq!(model.memo_key(), fresh.memo_key());
        assert_eq!(model.available(), vec![0, 1]);
    }

    #[test]
    fn save_restore_round_trips_including_in_place() {
        let mut model = b1_plus_b2();
        let fresh = model.save_state();
        model.advance_job(0, 500, 2, 1).unwrap();
        let mut scratch = model.save_state();
        model.advance_job(1, 300, 2, 1).unwrap();
        model.save_state_into(&mut scratch);
        let drained = model.save_state();
        model.restore_state(&fresh);
        assert!((model.total_charge() - 16.5).abs() < 1e-12);
        model.restore_state(&scratch);
        assert_eq!(model.save_state(), drained);
    }

    #[test]
    fn degenerate_draw_pattern_is_idle_time() {
        let mut model = b1_plus_b2();
        model.advance_job(0, 100, 2, 1).unwrap();
        let mut idle = model.clone();
        idle.advance_idle(50);
        let advance = model.advance_job(1, 50, 0, 0).unwrap();
        assert!(advance.completed);
        assert_eq!(advance.steps_consumed, 50);
        assert_eq!(model.save_state(), idle.save_state());
    }

    #[test]
    fn key_dominance_is_permutation_invariant() {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let mut model = DiscretizedKibam::new(&params, &disc, 2);
        let fresh = model.memo_key().unwrap();
        let initial = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let drained_0 = model.memo_key().unwrap();
        model.restore_state(&initial);
        model.advance_job(1, 100, 2, 1).unwrap();
        let drained_1 = model.memo_key().unwrap();

        // A fresh system dominates a drained one, never the reverse.
        assert!(model.key_dominates(&fresh, &drained_0));
        assert!(!model.key_dominates(&drained_0, &fresh));
        // Permuted drains dominate each other (identical canonical keys).
        assert!(model.key_dominates(&drained_0, &drained_1));
        assert!(model.key_dominates(&drained_1, &drained_0));
        // Reflexive.
        assert!(model.key_dominates(&drained_0, &drained_0));
    }

    #[test]
    fn usable_charge_excludes_retired_batteries() {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let mut model = DiscretizedKibam::new(&params, &disc, 2);
        // Drain battery 0 until it is observed empty.
        let advance = model.advance_job(0, 2_000, 2, 1).unwrap();
        assert!(!advance.completed);
        assert!(model.usable_charge() < model.total_charge());
    }

    #[test]
    fn mixed_fleet_keys_do_not_swap_batteries_across_types() {
        // Drain the B1 vs. drain the B2 by the same amount: under the old
        // global sort these states could collide; with type groups they
        // must stay distinct.
        let mut model = b1_plus_b2();
        assert_eq!(model.type_of(0), 0);
        assert_eq!(model.type_of(1), 1);
        let initial = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let drained_b1 = model.memo_key().unwrap();
        model.restore_state(&initial);
        model.advance_job(1, 100, 2, 1).unwrap();
        let drained_b2 = model.memo_key().unwrap();
        assert_ne!(drained_b1, drained_b2, "cross-type states must not collide");
        assert!(drained_b1.same_layout(&drained_b2));
        // Same layout, comparable within groups: the fresh system dominates
        // both drained variants.
        let fresh = {
            model.restore_state(&initial);
            model.memo_key().unwrap()
        };
        assert!(model.key_dominates(&fresh, &drained_b1));
        assert!(model.key_dominates(&fresh, &drained_b2));
        assert!(!model.key_dominates(&drained_b1, &fresh));
    }

    #[test]
    fn mixed_fleet_batteries_are_never_symmetric() {
        let model = b1_plus_b2();
        // Both fresh, but different types: not interchangeable.
        assert!(!model.states_identical(0, 1));
        let uniform =
            DiscretizedKibam::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2);
        assert!(uniform.states_identical(0, 1));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different type-group layouts")]
    fn cross_layout_dominance_is_rejected_in_debug_builds() {
        let mixed = b1_plus_b2();
        let mixed_key = mixed.memo_key().unwrap();
        let uniform =
            DiscretizedKibam::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2);
        let uniform_key = uniform.memo_key().unwrap();
        let _ = mixed.key_dominates(&mixed_key, &uniform_key);
    }
}
