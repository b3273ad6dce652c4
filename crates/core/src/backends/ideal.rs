//! The ideal (linear) battery backend: a cross-model baseline.
//!
//! An ideal battery delivers every stored coulomb regardless of the
//! discharge rate — no rate-capacity effect, no recovery effect, no bound
//! charge. Under an ideal model the system lifetime is the same for *every*
//! non-wasteful schedule (the load simply runs until the combined capacity
//! is exhausted), which is exactly what makes it a useful baseline: the gap
//! between an ideal-backend lifetime and a KiBaM-backend lifetime isolates
//! how much the battery nonlinearities — the effects scheduling exploits —
//! cost on a given load (Section 2.1 of the paper introduces KiBaM by
//! contrast with this model).
//!
//! The backend is fleet-aware from day one: each battery holds its own
//! capacity in discrete charge units, heterogeneous fleets mix freely, and
//! canonical state keys use the same sort-within-type-group layout as the
//! discretized KiBaM, so the optimal search memoizes ideal fleets too.

use crate::model::{BatteryModel, ModelAdvance, StateKey};
use crate::schedule::BatteryCharge;
use crate::SchedError;
use dkibam::Discretization;
use kibam::{BatteryParams, FleetSpec};

/// One battery of the ideal backend: remaining charge units plus the sticky
/// observed-empty flag shared by all backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealCell {
    /// Remaining charge in discrete charge units.
    pub charge_units: u32,
    /// Whether this battery has been observed empty and retired.
    pub observed_empty: bool,
}

impl IdealCell {
    /// Packs the cell into a state word (equal words ⇔ equal states, and
    /// the ordering is stable under draws).
    fn state_word(self) -> u128 {
        (u128::from(self.charge_units) << 1) | u128::from(self.observed_empty)
    }

    /// Component-wise dominance on packed words: at least as much charge
    /// and not retired unless the other is retired too. Draws preserve the
    /// ordering (an ideal battery has no other dynamics), which makes
    /// dominance pruning sound for this backend.
    fn word_dominates(a: u128, b: u128) -> bool {
        let (units_a, empty_a) = (a >> 1, a & 1 == 1);
        let (units_b, empty_b) = (b >> 1, b & 1 == 1);
        (!empty_a || empty_b) && units_a >= units_b
    }
}

/// The ideal (linear) battery model as a [`BatteryModel`] backend.
#[derive(Debug, Clone)]
pub struct IdealBattery {
    fleet: FleetSpec,
    disc: Discretization,
    cells: Vec<IdealCell>,
}

impl IdealBattery {
    /// Creates a system of `count` identical, freshly charged batteries.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; use [`IdealBattery::from_fleet`] with a
    /// validated [`FleetSpec`] to handle the error explicitly.
    #[must_use]
    pub fn new(params: &BatteryParams, disc: &Discretization, count: usize) -> Self {
        // xlint: allow(panic) -- documented `# Panics` convenience constructor
        let fleet = FleetSpec::uniform(*params, count).expect("battery count must be positive");
        Self::from_fleet(&fleet, disc)
    }

    /// Creates a freshly charged system from a (possibly heterogeneous)
    /// fleet. Only each battery's capacity matters to the ideal model; the
    /// KiBaM shape parameters (`c`, `k'`) are carried for type identity but
    /// never enter the dynamics.
    #[must_use]
    pub fn from_fleet(fleet: &FleetSpec, disc: &Discretization) -> Self {
        let cells = fleet
            .params()
            .iter()
            .map(|params| IdealCell {
                charge_units: disc.charge_units(params.capacity()),
                observed_empty: false,
            })
            .collect();
        Self { fleet: fleet.clone(), disc: *disc, cells }
    }

    /// The per-battery states, in index order.
    #[must_use]
    pub fn cells(&self) -> &[IdealCell] {
        &self.cells
    }

    /// The fleet description.
    #[must_use]
    pub fn fleet(&self) -> &FleetSpec {
        &self.fleet
    }
}

impl BatteryModel for IdealBattery {
    type State = Vec<IdealCell>;

    fn backend_name(&self) -> &'static str {
        "ideal"
    }

    fn battery_count(&self) -> usize {
        self.cells.len()
    }

    fn type_of(&self, index: usize) -> usize {
        self.fleet.type_of(index)
    }

    fn reset(&mut self) {
        for (cell, params) in self.cells.iter_mut().zip(self.fleet.params()) {
            *cell = IdealCell {
                charge_units: self.disc.charge_units(params.capacity()),
                observed_empty: false,
            };
        }
    }

    fn save_state(&self) -> Vec<IdealCell> {
        self.cells.clone()
    }

    fn save_state_into(&self, out: &mut Vec<IdealCell>) {
        out.clear();
        out.extend_from_slice(&self.cells);
    }

    fn restore_state(&mut self, state: &Vec<IdealCell>) {
        self.cells.clone_from(state);
    }

    fn is_empty(&self, index: usize) -> bool {
        let cell = &self.cells[index];
        cell.observed_empty || cell.charge_units == 0
    }

    fn memo_key(&self) -> Option<StateKey> {
        StateKey::from_typed_words(
            self.cells.iter().enumerate().map(|(i, c)| (self.fleet.type_of(i), c.state_word())),
        )
    }

    fn key_dominates(&self, a: &StateKey, b: &StateKey) -> bool {
        a.dominates_pairwise(b, IdealCell::word_dominates)
    }

    fn charge(&self, index: usize) -> BatteryCharge {
        let total = f64::from(self.cells[index].charge_units) * self.disc.charge_unit();
        // All stored charge is available in an ideal battery.
        BatteryCharge { total, available: total }
    }

    fn usable_charge(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| !c.observed_empty)
            .map(|c| f64::from(c.charge_units) * self.disc.charge_unit())
            .sum()
    }

    // `envelope_input` deliberately stays at the trait default
    // (`None`): an ideal battery has no recovery dynamics to couple to, so
    // the availability bound has nothing to add over charge accounting —
    // the search degrades to the plain charge bound, which is exact for
    // linear batteries.

    fn states_identical(&self, a: usize, b: usize) -> bool {
        self.fleet.type_of(a) == self.fleet.type_of(b) && self.cells[a] == self.cells[b]
    }

    fn advance_idle(&mut self, _steps: u64) {
        // No recovery effect: idle time does not change an ideal battery.
    }

    fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> Result<ModelAdvance, SchedError> {
        if active >= self.cells.len() {
            return Err(SchedError::InvalidBatteryIndex { index: active, count: self.cells.len() });
        }
        if draw_interval_steps == 0 || units_per_draw == 0 {
            return Ok(ModelAdvance { steps_consumed: steps, completed: true });
        }
        if self.is_empty(active) {
            self.cells[active].observed_empty = true;
            return Ok(ModelAdvance { steps_consumed: 0, completed: false });
        }

        // Mirror the discretized draw loop: draws land every
        // `draw_interval_steps`, and emptiness is observed at draw instants
        // (here simply "no charge left").
        let interval = u64::from(draw_interval_steps);
        let draws = steps / interval;
        let remainder = steps - draws * interval;
        let mut consumed = 0;
        for _ in 0..draws {
            consumed += interval;
            let cell = &mut self.cells[active];
            cell.charge_units = cell.charge_units.saturating_sub(units_per_draw);
            if cell.charge_units == 0 {
                cell.observed_empty = true;
                return Ok(ModelAdvance { steps_consumed: consumed, completed: false });
            }
        }
        consumed += remainder;
        Ok(ModelAdvance { steps_consumed: consumed, completed: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1_pair() -> IdealBattery {
        IdealBattery::new(&BatteryParams::itsy_b1(), &Discretization::paper_default(), 2)
    }

    #[test]
    fn lifetime_is_capacity_over_current() {
        // One B1 (5.5 A·min) under 500 mA: an ideal battery lasts exactly
        // C / I = 11 minutes (vs. 2.02 min for the KiBaM, Table 3).
        let disc = Discretization::paper_default();
        let mut model = IdealBattery::new(&BatteryParams::itsy_b1(), &disc, 1);
        let advance = model.advance_job(0, 1_000_000, 2, 1).unwrap();
        assert!(!advance.completed);
        let minutes = disc.steps_to_minutes(advance.steps_consumed);
        assert!((minutes - 11.0).abs() < 0.05, "died at {minutes} min");
        assert!(model.is_empty(0));
    }

    #[test]
    fn idle_time_changes_nothing() {
        let mut model = b1_pair();
        model.advance_job(0, 100, 2, 1).unwrap();
        let before = model.charge(0);
        model.advance_idle(10_000);
        assert_eq!(model.charge(0), before, "ideal batteries do not recover");
    }

    #[test]
    fn all_charge_is_available() {
        let model = b1_pair();
        let charge = model.charge(0);
        assert!((charge.total - 5.5).abs() < 1e-12);
        assert!((charge.available - charge.total).abs() < 1e-12);
        assert!((model.usable_charge() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn save_restore_and_reset_round_trip() {
        let mut model = b1_pair();
        let fresh = model.save_state();
        model.advance_job(0, 500, 2, 1).unwrap();
        let mut scratch = model.save_state();
        model.save_state_into(&mut scratch);
        let drained_total = model.total_charge();
        model.restore_state(&fresh);
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
        model.restore_state(&scratch);
        assert!((model.total_charge() - drained_total).abs() < 1e-12);
        model.reset();
        assert!((model.total_charge() - 11.0).abs() < 1e-12);
        assert_eq!(model.available(), vec![0, 1]);
    }

    #[test]
    fn memo_keys_canonicalize_same_type_permutations() {
        let mut model = b1_pair();
        let fresh = model.save_state();
        model.advance_job(0, 100, 2, 1).unwrap();
        let key_0 = model.memo_key().unwrap();
        model.restore_state(&fresh);
        model.advance_job(1, 100, 2, 1).unwrap();
        let key_1 = model.memo_key().unwrap();
        assert_eq!(key_0, key_1, "same-type drains share a canonical key");
        model.restore_state(&fresh);
        let fresh_key = model.memo_key().unwrap();
        assert!(model.key_dominates(&fresh_key, &key_0));
        assert!(!model.key_dominates(&key_0, &fresh_key));
    }

    #[test]
    fn mixed_fleet_tracks_per_battery_capacity() {
        let fleet =
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap();
        let disc = Discretization::paper_default();
        let mut model = IdealBattery::from_fleet(&fleet, &disc);
        assert!((model.total_charge() - 16.5).abs() < 1e-12);
        assert!(!model.states_identical(0, 1));
        let b1_death = model.advance_job(0, 10_000_000, 2, 1).unwrap();
        assert!(!b1_death.completed);
        let b2_death = model.advance_job(1, 10_000_000, 2, 1).unwrap();
        assert_eq!(
            b2_death.steps_consumed,
            2 * b1_death.steps_consumed,
            "twice the capacity serves exactly twice as long"
        );
    }

    #[test]
    fn scheduling_an_empty_battery_consumes_no_time() {
        let disc = Discretization::paper_default();
        let mut model = IdealBattery::new(&BatteryParams::itsy_b1(), &disc, 2);
        let first = model.advance_job(0, 10_000_000, 2, 1).unwrap();
        assert!(!first.completed);
        let again = model.advance_job(0, 100, 2, 1).unwrap();
        assert_eq!(again.steps_consumed, 0);
        assert!(!again.completed);
        assert!(model.advance_job(9, 100, 2, 1).is_err());
    }
}
