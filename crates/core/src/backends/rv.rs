//! The Rakhmatov–Vrudhula diffusion backend: cross-model validation.
//!
//! Steps the discretized RV form of the [`rv`] crate in place with its
//! per-system kernel ([`rv::kernel`], one [`RvCell`] per battery), the way
//! [`super::DiscretizedKibam`] steps `dkibam`. RV parameters are fitted per
//! battery *type* from the fleet's KiBaM parameters
//! ([`rv::RvParams::from_kibam`]: shared capacity, matched steady-state
//! recovery gain), and the per-type correction tables live in a static
//! [`rv::RvFleet`] behind an `Arc`, so that search snapshots carry only the
//! dynamic [`RvCell`]s and clones share the tables. Scalar [`RvCell`]
//! stepping (`RvStepTable::serve`/`recover`) stays the reference the kernel
//! is held bit-identical to (the lockstep tests of this module's parent).
//!
//! The backend is a full search citizen: cells keep integer consumed units
//! and *grid-aligned* fixed-point diffusion moments, so canonical
//! [`StateKey`]s are exact (equal words ⇔ equal states) and both the
//! transposition table and dominance pruning of the optimal search engage —
//! unlike the float-state continuous backend, which opts out of keying.
//! Like the continuous backend, it explicitly opts **out** of
//! [`BatteryModel::envelope_input`]: the availability bound's
//! service-frontier analysis is a KiBaM-shaped (Eq. 8) computation, and a
//! diffusion battery has no equivalent precomputed frontier, so the search
//! soundly degrades to the charge bound on this backend.
//!
//! Scheduling semantics mirror the discretized KiBaM: draws consume whole
//! charge units at draw instants, the other batteries recover meanwhile,
//! and emptiness (`σ ≥ α`) is *observed* at draw instants and sticky once
//! observed (Section 4.3 of the paper).

use crate::model::{BatteryModel, ModelAdvance, StateKey};
use crate::schedule::BatteryCharge;
use crate::SchedError;
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};
use rv::{kernel, RvCell, RvFleet};
use std::sync::Arc;

/// The Rakhmatov–Vrudhula diffusion model as a [`BatteryModel`] backend.
#[derive(Debug, Clone)]
pub struct RvDiffusion {
    fleet: Arc<RvFleet>,
    cells: Vec<RvCell>,
}

impl RvDiffusion {
    /// Creates a system of `count` identical, freshly charged batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`RvDiffusion::from_fleet`] with a
    /// validated [`FleetSpec`] to handle the error explicitly.
    #[must_use]
    pub fn new(params: &BatteryParams, disc: &Discretization, count: usize) -> Self {
        // xlint: allow(panic) -- documented `# Panics` convenience constructor
        let fleet = FleetSpec::uniform(*params, count).expect("battery count must be positive");
        Self::from_fleet(&fleet, disc)
    }

    /// Creates a freshly charged system from a (possibly heterogeneous)
    /// fleet. Each battery type's RV parameters are fitted from its KiBaM
    /// parameters.
    #[must_use]
    pub fn from_fleet(fleet: &FleetSpec, disc: &Discretization) -> Self {
        let fleet = RvFleet::new(fleet.clone(), *disc);
        Self { cells: vec![RvCell::fresh(); fleet.len()], fleet: Arc::new(fleet) }
    }

    /// The static fleet data (fitted parameters and correction tables),
    /// shared by every clone of this system.
    #[must_use]
    pub fn fleet(&self) -> &Arc<RvFleet> {
        &self.fleet
    }
}

impl BatteryModel for RvDiffusion {
    type State = Vec<RvCell>;

    fn backend_name(&self) -> &'static str {
        "rv"
    }

    fn battery_count(&self) -> usize {
        self.cells.len()
    }

    fn type_of(&self, index: usize) -> usize {
        self.fleet.type_of(index)
    }

    fn reset(&mut self) {
        self.cells.fill(RvCell::fresh());
    }

    fn save_state(&self) -> Vec<RvCell> {
        self.cells.clone()
    }

    fn save_state_into(&self, out: &mut Vec<RvCell>) {
        out.clone_from(&self.cells);
    }

    fn restore_state(&mut self, state: &Vec<RvCell>) {
        self.cells.clone_from(state);
    }

    fn is_empty(&self, index: usize) -> bool {
        self.fleet.table_of(index).is_empty(&self.cells[index])
    }

    fn memo_key(&self) -> Option<StateKey> {
        let mut words = [(0usize, 0u128); crate::model::MAX_KEY_BATTERIES];
        if self.cells.len() > words.len() {
            return None;
        }
        for (index, (slot, cell)) in words.iter_mut().zip(&self.cells).enumerate() {
            *slot = (self.fleet.type_of(index), self.fleet.table_of(index).state_word(cell)?);
        }
        StateKey::from_typed_words(words.into_iter().take(self.cells.len()))
    }

    fn key_dominates(&self, a: &StateKey, b: &StateKey) -> bool {
        a.dominates_pairwise(b, RvCell::word_dominates)
    }

    fn charge(&self, index: usize) -> BatteryCharge {
        let table = self.fleet.table_of(index);
        let cell = &self.cells[index];
        // Policies decide on `available`, which for the RV model is the
        // apparent remaining charge α - σ: it shrinks under load faster
        // than the true charge and recovers when idle, exactly the signal
        // best-of-two needs.
        BatteryCharge { total: table.total_charge(cell), available: table.apparent_charge(cell) }
    }

    fn usable_charge(&self) -> f64 {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, cell)| !cell.is_observed_empty())
            .map(|(index, cell)| self.fleet.table_of(index).total_charge(cell))
            .sum()
    }

    // `envelope_input` deliberately stays at the trait default
    // (`None`): the availability bound's service envelopes are built from
    // the discretized KiBaM's Eq. 8 reachability analysis, which has no RV
    // counterpart here, so the search degrades to the (still admissible)
    // charge bound — the same explicit opt-out as the continuous backend.

    fn states_identical(&self, a: usize, b: usize) -> bool {
        self.fleet.type_of(a) == self.fleet.type_of(b) && self.cells[a] == self.cells[b]
    }

    fn advance_idle(&mut self, steps: u64) {
        kernel::recover(&mut self.cells, steps, &self.fleet);
    }

    fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> Result<ModelAdvance, SchedError> {
        let count = self.cells.len();
        if active >= count {
            return Err(SchedError::InvalidBatteryIndex { index: active, count });
        }
        let advance = kernel::advance_job(
            &mut self.cells,
            active,
            steps,
            draw_interval_steps,
            units_per_draw,
            &self.fleet,
        );
        Ok(ModelAdvance { steps_consumed: advance.steps_consumed, completed: advance.completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv::RvParams;

    fn b1_pair() -> RvDiffusion {
        RvDiffusion::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2)
    }

    #[test]
    fn constant_load_matches_the_analytic_rv_lifetime() {
        let disc = Discretization::paper_default();
        let mut model = RvDiffusion::new(&BatteryParams::itsy_b1(), &disc, 1);
        let advance = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!advance.completed);
        let minutes = disc.steps_to_minutes(advance.steps_consumed);
        let analytic =
            rv::analytic::lifetime_constant_current(&RvParams::itsy_b1(), 0.5).unwrap().unwrap();
        assert!((minutes - analytic).abs() < 0.05, "died at {minutes}, analytic {analytic}");
        assert!(model.is_empty(0));
        assert!(model.available().is_empty());
    }

    #[test]
    fn clones_share_the_fleet_and_step_independently() {
        let prototype = b1_pair();
        let mut copy = prototype.clone();
        assert!(Arc::ptr_eq(prototype.fleet(), copy.fleet()));
        let fresh = prototype.charge(0);
        copy.advance_job(0, 100, 2, 1).unwrap();
        assert_eq!(prototype.charge(0), fresh, "the prototype is untouched");
        assert!(copy.charge(0).available < fresh.available);
        assert!(copy.charge(0).total < fresh.total);
    }

    #[test]
    fn idle_periods_recover_apparent_charge() {
        let mut model = b1_pair();
        model.advance_job(0, 100, 2, 1).unwrap();
        let after_job = model.charge(0);
        model.advance_idle(100);
        let after_idle = model.charge(0);
        assert!(after_idle.available > after_job.available);
        assert!((after_idle.total - after_job.total).abs() < 1e-12, "idle consumes nothing");
    }

    #[test]
    fn passive_batteries_recover_while_the_active_one_serves() {
        let mut model = b1_pair();
        // Stress battery 1, then serve on battery 0: battery 1 recovers.
        model.advance_job(1, 100, 2, 1).unwrap();
        let stressed = model.charge(1);
        model.advance_job(0, 100, 2, 1).unwrap();
        assert!(model.charge(1).available > stressed.available);
    }

    #[test]
    fn observed_empty_is_sticky_even_after_recovery() {
        let mut model =
            RvDiffusion::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 1);
        let advance = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!advance.completed);
        model.advance_idle(1_000_000);
        assert!(model.charge(0).available > 0.0, "the deficit dissipated");
        assert!(model.is_empty(0), "but the battery stays retired");
        assert!((model.usable_charge() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn scheduling_an_empty_battery_consumes_no_time() {
        let mut model = b1_pair();
        let first = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!first.completed);
        let again = model.advance_job(0, 100, 2, 1).unwrap();
        assert_eq!(again.steps_consumed, 0);
        assert!(!again.completed);
        assert!(model.advance_job(9, 100, 2, 1).is_err());
    }

    #[test]
    fn memo_keys_canonicalize_same_type_permutations() {
        let mut model = b1_pair();
        let fresh = model.save_state();
        let fresh_key = model.memo_key().expect("RV states pack into exact keys");
        model.advance_job(0, 100, 2, 1).unwrap();
        let key_0 = model.memo_key().unwrap();
        model.restore_state(&fresh);
        model.advance_job(1, 100, 2, 1).unwrap();
        let key_1 = model.memo_key().unwrap();
        assert_eq!(key_0, key_1, "permuted same-type drains share a canonical key");
        assert_ne!(fresh_key, key_0);
        // Dominance: the fresh fleet dominates the drained one.
        assert!(model.key_dominates(&fresh_key, &key_0));
        assert!(!model.key_dominates(&key_0, &fresh_key));
    }

    #[test]
    fn mixed_fleet_keys_do_not_swap_batteries_across_types() {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        let mut model = RvDiffusion::from_fleet(&fleet, &Discretization::paper_default());
        assert_eq!(model.type_of(0), 0);
        assert_eq!(model.type_of(1), 1);
        assert!(!model.states_identical(0, 1), "different types are never symmetric");
        let initial = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let drained_b1 = model.memo_key().unwrap();
        model.restore_state(&initial);
        model.advance_job(1, 100, 2, 1).unwrap();
        let drained_b2 = model.memo_key().unwrap();
        assert_ne!(drained_b1, drained_b2, "cross-type states must not collide");
        assert!(drained_b1.same_layout(&drained_b2));
    }

    #[test]
    fn mixed_fleet_tracks_per_battery_capacity() {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        let mut model = RvDiffusion::from_fleet(&fleet, &Discretization::paper_default());
        assert!((model.total_charge() - 16.5).abs() < 1e-9);
        let b1_death = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!b1_death.completed);
        let b2_death = model.advance_job(1, 1_000_000, 2, 1).unwrap();
        assert!(!b2_death.completed);
        assert!(
            b2_death.steps_consumed > b1_death.steps_consumed,
            "the larger B2 outlives the B1 under the same load"
        );
        model.reset();
        assert!((model.total_charge() - 16.5).abs() < 1e-9);
        assert_eq!(model.available(), vec![0, 1]);
    }

    #[test]
    fn save_restore_round_trips_including_in_place() {
        let mut model = b1_pair();
        let fresh = model.save_state();
        model.advance_job(0, 500, 2, 1).unwrap();
        let mut scratch = model.save_state();
        model.advance_job(1, 300, 2, 1).unwrap();
        model.save_state_into(&mut scratch);
        let drained = model.total_charge();
        model.restore_state(&fresh);
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
        model.restore_state(&scratch);
        assert!((model.total_charge() - drained).abs() < 1e-12);
    }

    #[test]
    fn reset_refreshes_every_cell() {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        let fresh = RvDiffusion::from_fleet(&fleet, &Discretization::paper_default());
        let mut model = fresh.clone();
        assert!(!model.advance_job(0, 1_000_000, 2, 1).unwrap().completed);
        model.advance_idle(777);
        model.reset();
        assert_eq!(model.save_state(), fresh.save_state());
        assert_eq!(model.memo_key(), fresh.memo_key());
        assert_eq!(model.available(), vec![0, 1]);
    }

    #[test]
    fn degenerate_draw_pattern_is_idle_time() {
        let mut model = b1_pair();
        let advance = model.advance_job(0, 50, 0, 0).unwrap();
        assert!(advance.completed);
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
    }
}
