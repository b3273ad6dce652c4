//! The per-system stepping kernel of the discretized RV model.
//!
//! The diffusion analogue of `dkibam::kernel`: [`recover`] and
//! [`advance_job`] step the cells of one system in place, reading each
//! cell's correction table from the [`RvFleet`]; they are the stepping path
//! of the RV backend of the `battery-sched` crate. Serving and recovering
//! run the same [`RvStepTable`](crate::RvStepTable) routines as scalar
//! [`RvCell`] stepping (`serve`, `recover`), so every cell's
//! `(consumed_units, moments, observed_empty)` — and hence its state word —
//! is bit-identical to the scalar reference after every epoch.
//!
//! The kernel's one saving over that reference is hoisting: the recovery
//! decay factors `e^{-β²m²·T·steps}` are computed once per battery type per
//! call instead of once per cell (same inputs, same `powi`, same bits).
//! Both share the moment grid's alignment after every draw and recovery:
//! the table's division-free quantizer, bit-equal to
//! `(x / q).round() * q`.

use crate::{RvCell, RvFleet, StepAdvance};

/// Lets every cell recover (zero current) for `steps` time steps. Retired
/// cells keep recovering, exactly as in the scalar model.
pub fn recover(cells: &mut [RvCell], steps: u64, fleet: &RvFleet) {
    recover_except(cells, None, steps, fleet);
}

/// Lets cell `active` serve a job portion while the other cells recover
/// through the steps that actually elapsed — the scalar reference's
/// [`serve`](crate::RvStepTable::serve) on the active cell, then
/// [`recover`](crate::RvStepTable::recover) on every other one.
///
/// # Panics
///
/// Panics if `active` is not a valid cell index; callers bounds-check
/// battery indices first.
pub fn advance_job(
    cells: &mut [RvCell],
    active: usize,
    steps: u64,
    draw_interval_steps: u32,
    units_per_draw: u32,
    fleet: &RvFleet,
) -> StepAdvance {
    if draw_interval_steps == 0 || units_per_draw == 0 {
        // Degenerate "job" that draws nothing: just idle time.
        recover(cells, steps, fleet);
        return StepAdvance { steps_consumed: steps, completed: true };
    }
    let table = fleet.table_of(active);
    let cell = &mut cells[active];
    if table.is_empty(cell) {
        cell.mark_observed_empty();
        return StepAdvance { steps_consumed: 0, completed: false };
    }
    let advance = table.serve(cell, steps, draw_interval_steps, units_per_draw);
    recover_except(cells, Some(active), advance.steps_consumed, fleet);
    advance
}

/// Recovers every cell but `skip` by `steps`, computing each type's decay
/// factors at most once.
fn recover_except(cells: &mut [RvCell], skip: Option<usize>, steps: u64, fleet: &RvFleet) {
    if steps == 0 {
        return;
    }
    for (ty, table) in fleet.type_tables().iter().enumerate() {
        let mut decays = None;
        for (index, cell) in cells.iter_mut().enumerate() {
            if fleet.type_of(index) == ty && Some(index) != skip {
                let decays = decays.get_or_insert_with(|| table.recovery_decays(steps));
                table.apply_recovery_decays(cell, decays);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dkibam::Discretization;
    use kibam::{BatteryParams, FleetSpec};

    /// SplitMix64 — deterministic seeded epochs without external crates.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, bound: u64) -> u64 {
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

    fn fresh(fleet: &RvFleet) -> Vec<RvCell> {
        vec![RvCell::fresh(); fleet.len()]
    }

    /// The scalar reference: per-cell stepping (serve the active cell,
    /// recover every other cell once by the consumed steps).
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

    fn assert_lockstep(cells: &[RvCell], reference: &[RvCell]) {
        for (i, (cell, expected)) in cells.iter().zip(reference).enumerate() {
            assert_eq!(cell.consumed_units, expected.consumed_units, "cell {i} consumed");
            assert_eq!(cell.observed_empty, expected.observed_empty, "cell {i} retired");
            for (a, b) in cell.moments.iter().zip(&expected.moments) {
                assert_eq!(a.to_bits(), b.to_bits(), "cell {i} moment bits diverged");
            }
        }
    }

    fn exercise_lockstep(fleet: &RvFleet, seed: u64) {
        let mut cells = fresh(fleet);
        let mut reference = fresh(fleet);
        let mut rng = SplitMix64(seed);
        for _ in 0..150 {
            if rng.below(4) == 0 {
                let steps = rng.below(2_000);
                recover(&mut cells, steps, fleet);
                for (i, cell) in reference.iter_mut().enumerate() {
                    fleet.table_of(i).recover(cell, steps);
                }
            } else {
                let active = usize::try_from(rng.below(fleet.len() as u64)).unwrap();
                let steps = rng.below(3_000);
                #[allow(clippy::cast_possible_truncation)]
                let interval = rng.below(5) as u32; // 0 exercises the degenerate job
                #[allow(clippy::cast_possible_truncation)]
                let units = rng.below(3) as u32;
                let advance = advance_job(&mut cells, active, steps, interval, units, fleet);
                let expected =
                    scalar_advance_job(&mut reference, fleet, active, steps, interval, units);
                assert_eq!(advance, expected);
            }
            assert_lockstep(&cells, &reference);
        }
    }

    #[test]
    fn uniform_fleet_steps_bit_identically_to_the_scalar_cells() {
        exercise_lockstep(&b1_fleet(2), 0xD5_0909);
        exercise_lockstep(&b1_fleet(3), 11);
        exercise_lockstep(&b1_fleet(8), 8);
    }

    #[test]
    fn mixed_fleet_steps_bit_identically_to_the_scalar_cells() {
        exercise_lockstep(&mixed_fleet(), 0xB1B2);
        exercise_lockstep(&mixed_fleet(), 1234);
    }

    #[test]
    fn hoisted_recovery_decays_match_per_cell_recovery() {
        let fleet = mixed_fleet();
        let mut cells = fresh(&fleet);
        // Build distinct deficits, then recover in bulk.
        for (i, cell) in cells.iter_mut().enumerate() {
            fleet.table_of(i).serve(cell, 100 + 20 * u64::try_from(i).unwrap(), 2, 1);
        }
        let mut reference = cells.clone();
        recover(&mut cells, 777, &fleet);
        for (i, cell) in reference.iter_mut().enumerate() {
            fleet.table_of(i).recover(cell, 777);
        }
        assert_lockstep(&cells, &reference);
    }

    #[test]
    fn single_cell_system_steps_bit_identically_to_the_scalar_cells() {
        exercise_lockstep(&b1_fleet(1), 1);
        exercise_lockstep(
            &RvFleet::uniform(&BatteryParams::itsy_b2(), &Discretization::paper_default(), 1),
            2,
        );
    }

    #[test]
    fn passive_cells_recover_only_through_the_served_window() {
        let fleet = mixed_fleet();
        let mut cells = fresh(&fleet);
        // Give the passive B2 a deficit to recover from.
        advance_job(&mut cells, 1, 300, 2, 1, &fleet);
        let before = cells.clone();
        let advance = advance_job(&mut cells, 0, 1_000_000, 2, 1, &fleet);
        assert!(!advance.completed, "the B1 dies inside the portion");
        assert!(advance.steps_consumed < 1_000_000);
        let mut expected = before[1];
        fleet.table_of(1).recover(&mut expected, advance.steps_consumed);
        assert_lockstep(&cells[1..], &[expected]);
    }

    #[test]
    fn degenerate_job_is_idle_time() {
        let fleet = mixed_fleet();
        let mut cells = fresh(&fleet);
        advance_job(&mut cells, 0, 500, 2, 1, &fleet);
        let mut idle = cells.clone();
        recover(&mut idle, 640, &fleet);
        for (interval, units) in [(0, 1), (2, 0), (0, 0)] {
            let mut job = cells.clone();
            let advance = advance_job(&mut job, 1, 640, interval, units, &fleet);
            assert_eq!(advance, StepAdvance { steps_consumed: 640, completed: true });
            assert_lockstep(&job, &idle);
        }
    }

    #[test]
    fn kernel_steps_keep_cells_on_the_moment_grid() {
        // Memo keys pack moments as whole quanta, so every kernel path —
        // serving and the hoisted recovery alike — must leave each moment
        // exactly on the table's grid.
        let fleet = b1_fleet(4);
        let mut cells = fresh(&fleet);
        let mut rng = SplitMix64(99);
        for _ in 0..60 {
            let active = usize::try_from(rng.below(4)).unwrap();
            advance_job(&mut cells, active, rng.below(400), 2, 1, &fleet);
            recover(&mut cells, rng.below(300), &fleet);
            for (i, cell) in cells.iter().enumerate() {
                let table = fleet.table_of(i);
                let quantum = table.moment_quantum();
                for &moment in &cell.moments {
                    let on_grid = (moment / quantum).round() * quantum;
                    assert_eq!(moment.to_bits(), on_grid.to_bits(), "cell {i} left the grid");
                }
                assert!(table.state_word(cell).is_some(), "cell {i} has no exact key");
            }
        }
    }

    #[test]
    fn retired_cells_serve_nothing() {
        let fleet = b1_fleet(2);
        let mut cells = fresh(&fleet);
        let advance = advance_job(&mut cells, 0, 1_000_000, 2, 1, &fleet);
        assert!(!advance.completed);
        assert!(cells[0].is_observed_empty());
        assert!(!cells[1].is_observed_empty());
        // Scheduling the retired cell again consumes no time.
        let again = advance_job(&mut cells, 0, 100, 2, 1, &fleet);
        assert_eq!(again, StepAdvance { steps_consumed: 0, completed: false });
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_active_cell_panics() {
        let fleet = b1_fleet(2);
        let _ = advance_job(&mut fresh(&fleet), 2, 10, 2, 1, &fleet);
    }
}
