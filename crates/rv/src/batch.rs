//! Struct-of-arrays batch stepping for the discretized RV model.
//!
//! The diffusion analogue of `dkibam::batch`: an [`RvBatch`] holds N
//! independent cells in columnar form — `consumed_units[]`, lane-major
//! moment rows, a retired bitmask — and advances whole lane ranges per
//! kernel call. The kernels reuse the *same* raw serve/recover routines as
//! the scalar [`RvCell`] path (`RvStepTable::serve_raw` and friends), so
//! both paths execute identical floating-point operations in identical
//! order: every lane's `(consumed_units, moments, observed_empty)` tuple —
//! and hence its [`RvStepTable::state_word`] — is bit-identical to the
//! scalar path after every epoch.
//!
//! The batch win on this backend is locality plus hoisting: the per-type
//! recovery decay factors `e^{-β²m²·T·steps}` are computed once per kernel
//! call instead of once per cell (same inputs, same `powi`, same bits), and
//! the moment rows of a lane range stream through the cache instead of
//! chasing per-system `Vec<RvCell>` allocations.

use crate::{RvCell, RvFleet, RvStepTable, StepAdvance, MAX_STEP_TERMS};
use std::ops::Range;

/// N independent discretized-RV cells in struct-of-arrays form.
///
/// Lanes are appended with [`push`](RvBatch::push) /
/// [`push_fleet`](RvBatch::push_fleet) and addressed by index; the RV
/// backend of `battery-sched` holds one lane per battery of its system and
/// steps them with the `_range` kernels.
#[derive(Debug, Clone, Default)]
pub struct RvBatch {
    /// Charge units consumed so far, per lane.
    consumed_units: Vec<u32>,
    /// Grid-aligned diffusion moments, lane-major.
    moments: Vec<[f64; MAX_STEP_TERMS]>,
    /// Observed-empty (retired) flags, 64 lanes per word.
    retired: Vec<u64>,
    /// Battery type-group id per lane, indexing the per-type table slice.
    type_ids: Vec<u32>,
}

impl RvBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `lanes` lanes.
    #[must_use]
    pub fn with_capacity(lanes: usize) -> Self {
        Self {
            consumed_units: Vec::with_capacity(lanes),
            moments: Vec::with_capacity(lanes),
            retired: Vec::with_capacity(lanes.div_ceil(64)),
            type_ids: Vec::with_capacity(lanes),
        }
    }

    /// The number of lanes held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.consumed_units.len()
    }

    /// Whether the batch holds no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.consumed_units.is_empty()
    }

    /// Removes all lanes, keeping the allocations.
    pub fn clear(&mut self) {
        self.consumed_units.clear();
        self.moments.clear();
        self.retired.clear();
        self.type_ids.clear();
    }

    /// Appends one lane holding `cell`'s state, tagged with the battery
    /// type-group id `type_id`; returns the new lane's index.
    pub fn push(&mut self, cell: &RvCell, type_id: usize) -> usize {
        let lane = self.len();
        self.consumed_units.push(cell.consumed_units);
        self.moments.push(cell.moments);
        // xlint: allow(panic) -- fleets are bounded far below u32::MAX type groups
        self.type_ids.push(u32::try_from(type_id).expect("type count fits u32"));
        if self.retired.len() * 64 < self.len() {
            self.retired.push(0);
        }
        if cell.observed_empty {
            self.set_retired(lane);
        }
        lane
    }

    /// Appends one freshly charged lane per battery of `fleet`, returning
    /// the appended lane range.
    pub fn push_fleet(&mut self, fleet: &RvFleet) -> Range<usize> {
        let start = self.len();
        for i in 0..fleet.len() {
            self.push(&RvCell::fresh(), fleet.type_of(i));
        }
        start..self.len()
    }

    /// Unpacks lane `lane` into the scalar cell form.
    #[must_use]
    pub fn lane(&self, lane: usize) -> RvCell {
        RvCell {
            consumed_units: self.consumed_units[lane],
            moments: self.moments[lane],
            observed_empty: self.is_retired(lane),
        }
    }

    /// Overwrites lane `lane` with `cell`'s state.
    pub fn set_lane(&mut self, lane: usize, cell: &RvCell) {
        self.consumed_units[lane] = cell.consumed_units;
        self.moments[lane] = cell.moments;
        if cell.observed_empty {
            self.set_retired(lane);
        } else {
            self.retired[lane / 64] &= !(1u64 << (lane % 64));
        }
    }

    /// The battery type-group id of lane `lane`.
    #[must_use]
    pub fn type_id(&self, lane: usize) -> usize {
        dkibam::checked::index(self.type_ids[lane])
    }

    /// Whether lane `lane` has been observed empty and retired.
    #[must_use]
    pub fn is_retired(&self, lane: usize) -> bool {
        self.retired[lane / 64] >> (lane % 64) & 1 == 1
    }

    fn set_retired(&mut self, lane: usize) {
        self.retired[lane / 64] |= 1u64 << (lane % 64);
    }

    /// The emptiness criterion `σ ≥ α` for lane `lane` against its own
    /// type's table; retired lanes are always empty.
    #[must_use]
    pub fn lane_is_empty(&self, lane: usize, tables: &[RvStepTable]) -> bool {
        tables[self.type_id(lane)].is_empty_raw(
            self.is_retired(lane),
            self.consumed_units[lane],
            &self.moments[lane],
        )
    }

    /// The packed canonical state word of lane `lane`
    /// (see [`RvStepTable::state_word`]).
    #[must_use]
    pub fn state_word(&self, lane: usize, tables: &[RvStepTable]) -> Option<u128> {
        tables[self.type_id(lane)].state_word(&self.lane(lane))
    }

    /// Resets every lane of `lanes` to a freshly charged cell.
    pub fn reset_range(&mut self, lanes: Range<usize>) {
        for lane in lanes {
            self.set_lane(lane, &RvCell::fresh());
        }
    }

    /// Lets every lane of `lanes` recover (zero current) for `steps` time
    /// steps. The decay factors are computed once per type and applied to
    /// that type's lanes; retired lanes keep recovering, exactly as in the
    /// scalar model.
    pub fn recover_range(&mut self, lanes: Range<usize>, steps: u64, tables: &[RvStepTable]) {
        if steps == 0 {
            return;
        }
        for (ty, table) in tables.iter().enumerate() {
            let decays = table.recovery_decays(steps);
            for lane in lanes.clone() {
                if dkibam::checked::index(self.type_ids[lane]) == ty {
                    table.apply_recovery_decays(&mut self.moments[lane], &decays);
                }
            }
        }
    }

    /// Lets lane `active` of the system occupying `lanes` serve a job
    /// portion while the other lanes recover through the consumed window —
    /// the batch mirror of the `rv` backend's `advance_job` (serve the
    /// active cell, then recover every other cell once by the steps that
    /// actually elapsed).
    ///
    /// # Panics
    ///
    /// Panics if `active` does not lie in `lanes`; callers bounds-check
    /// battery indices before packing them into lane indices.
    pub fn advance_job_range(
        &mut self,
        lanes: Range<usize>,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
        tables: &[RvStepTable],
    ) -> StepAdvance {
        assert!(lanes.contains(&active), "active lane {active} outside {lanes:?}");
        if draw_interval_steps == 0 || units_per_draw == 0 {
            // Degenerate "job" that draws nothing: just idle time.
            self.recover_range(lanes, steps, tables);
            return StepAdvance { steps_consumed: steps, completed: true };
        }
        let table = &tables[dkibam::checked::index(self.type_ids[active])];
        if self.lane_is_empty(active, tables) {
            self.set_retired(active);
            return StepAdvance { steps_consumed: 0, completed: false };
        }
        let mut observed = self.is_retired(active);
        let advance = table.serve_raw(
            &mut self.consumed_units[active],
            &mut self.moments[active],
            &mut observed,
            steps,
            draw_interval_steps,
            units_per_draw,
        );
        if observed {
            self.set_retired(active);
        }
        self.recover_range(lanes.start..active, advance.steps_consumed, tables);
        self.recover_range(active + 1..lanes.end, advance.steps_consumed, tables);
        advance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkibam::Discretization;
    use kibam::{BatteryParams, FleetSpec};

    /// SplitMix64 — deterministic seeded epochs without external crates.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    fn b1_fleet(count: usize) -> RvFleet {
        RvFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), count)
    }

    fn mixed_fleet() -> RvFleet {
        RvFleet::new(
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
            Discretization::paper_default(),
        )
    }

    /// The scalar reference: per-cell stepping exactly as the `rv` backend
    /// of the scheduling trait drives it (serve the active cell, recover
    /// every other cell once by the consumed steps).
    fn scalar_advance_job(
        cells: &mut [RvCell],
        fleet: &RvFleet,
        active: usize,
        steps: u64,
        interval: u32,
        units: u32,
    ) -> StepAdvance {
        if interval == 0 || units == 0 {
            for (i, cell) in cells.iter_mut().enumerate() {
                fleet.table_of(i).recover(cell, steps);
            }
            return StepAdvance { steps_consumed: steps, completed: true };
        }
        let table = fleet.table_of(active);
        if table.is_empty(&cells[active]) {
            cells[active].mark_observed_empty();
            return StepAdvance { steps_consumed: 0, completed: false };
        }
        let advance = table.serve(&mut cells[active], steps, interval, units);
        for (i, cell) in cells.iter_mut().enumerate() {
            if i != active {
                fleet.table_of(i).recover(cell, advance.steps_consumed);
            }
        }
        advance
    }

    fn assert_lockstep(batch: &RvBatch, lanes: &Range<usize>, cells: &[RvCell]) {
        for (i, cell) in cells.iter().enumerate() {
            let lane = batch.lane(lanes.start + i);
            assert_eq!(lane.consumed_units, cell.consumed_units, "lane {i} consumed");
            assert_eq!(lane.observed_empty, cell.observed_empty, "lane {i} retired");
            for (a, b) in lane.moments.iter().zip(&cell.moments) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {i} moment bits diverged");
            }
        }
    }

    fn exercise_lockstep(fleet: &RvFleet, seed: u64) {
        let tables = fleet.type_tables();
        let mut batch = RvBatch::new();
        let lanes = batch.push_fleet(fleet);
        let mut cells: Vec<RvCell> = (0..fleet.len()).map(|_| RvCell::fresh()).collect();
        assert_lockstep(&batch, &lanes, &cells);

        let mut rng = SplitMix64(seed);
        for _ in 0..150 {
            if rng.below(4) == 0 {
                let steps = rng.below(2_000);
                batch.recover_range(lanes.clone(), steps, tables);
                if steps > 0 {
                    for (i, cell) in cells.iter_mut().enumerate() {
                        fleet.table_of(i).recover(cell, steps);
                    }
                }
            } else {
                let active = usize::try_from(rng.below(fleet.len() as u64)).unwrap();
                let steps = rng.below(3_000);
                #[allow(clippy::cast_possible_truncation)]
                let interval = rng.below(5) as u32; // 0 exercises the degenerate job
                #[allow(clippy::cast_possible_truncation)]
                let units = rng.below(3) as u32;
                let batched = batch.advance_job_range(
                    lanes.clone(),
                    lanes.start + active,
                    steps,
                    interval,
                    units,
                    tables,
                );
                let reference =
                    scalar_advance_job(&mut cells, fleet, active, steps, interval, units);
                assert_eq!(batched, reference);
            }
            assert_lockstep(&batch, &lanes, &cells);
        }
    }

    #[test]
    fn uniform_fleet_steps_bit_identically_to_the_scalar_cells() {
        exercise_lockstep(&b1_fleet(2), 0xD5_0909);
        exercise_lockstep(&b1_fleet(3), 11);
    }

    #[test]
    fn mixed_fleet_steps_bit_identically_to_the_scalar_cells() {
        exercise_lockstep(&mixed_fleet(), 0xB1B2);
        exercise_lockstep(&mixed_fleet(), 1234);
    }

    #[test]
    fn hoisted_recovery_decays_match_per_cell_recovery() {
        let fleet = mixed_fleet();
        let tables = fleet.type_tables();
        let mut batch = RvBatch::new();
        let lanes = batch.push_fleet(&fleet);
        let mut cells: Vec<RvCell> = (0..fleet.len()).map(|_| RvCell::fresh()).collect();
        // Build distinct deficits, then recover in bulk.
        for (i, cell) in cells.iter_mut().enumerate() {
            fleet.table_of(i).serve(cell, 100 + 20 * u64::try_from(i).unwrap(), 2, 1);
            batch.set_lane(lanes.start + i, cell);
        }
        batch.recover_range(lanes.clone(), 777, tables);
        for (i, cell) in cells.iter_mut().enumerate() {
            fleet.table_of(i).recover(cell, 777);
        }
        assert_lockstep(&batch, &lanes, &cells);
    }

    #[test]
    fn retirement_lives_in_the_bitmask() {
        let fleet = b1_fleet(2);
        let tables = fleet.type_tables();
        let mut batch = RvBatch::new();
        let lanes = batch.push_fleet(&fleet);
        let advance = batch.advance_job_range(lanes.clone(), lanes.start, 1_000_000, 2, 1, tables);
        assert!(!advance.completed);
        assert!(batch.is_retired(lanes.start));
        assert!(batch.lane_is_empty(lanes.start, tables));
        assert!(!batch.is_retired(lanes.start + 1));
        assert!(batch.lane(lanes.start).is_observed_empty());
        // Scheduling the retired lane again consumes no time.
        let again = batch.advance_job_range(lanes.clone(), lanes.start, 100, 2, 1, tables);
        assert_eq!(again, StepAdvance { steps_consumed: 0, completed: false });
    }

    #[test]
    fn state_words_match_the_scalar_packing() {
        let fleet = b1_fleet(2);
        let tables = fleet.type_tables();
        let mut batch = RvBatch::new();
        let lanes = batch.push_fleet(&fleet);
        batch.advance_job_range(lanes.clone(), lanes.start, 250, 2, 1, tables);
        let cell = batch.lane(lanes.start);
        assert_eq!(batch.state_word(lanes.start, tables), fleet.table_of(0).state_word(&cell));
        assert!(batch.state_word(lanes.start, tables).is_some());
    }

    #[test]
    #[should_panic(expected = "active lane")]
    fn out_of_range_active_lane_panics() {
        let fleet = b1_fleet(2);
        let mut batch = RvBatch::new();
        let lanes = batch.push_fleet(&fleet);
        let _ = batch.advance_job_range(lanes.clone(), lanes.end, 10, 2, 1, fleet.type_tables());
    }

    #[test]
    fn reset_range_refreshes_lanes() {
        let fleet = b1_fleet(2);
        let tables = fleet.type_tables();
        let mut batch = RvBatch::new();
        let lanes = batch.push_fleet(&fleet);
        batch.advance_job_range(lanes.clone(), lanes.start, 1_000_000, 2, 1, tables);
        batch.reset_range(lanes.clone());
        let fresh: Vec<RvCell> = (0..fleet.len()).map(|_| RvCell::fresh()).collect();
        assert_lockstep(&batch, &lanes, &fresh);
    }
}
