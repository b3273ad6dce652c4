//! The per-system stepping kernel of the discretized KiBaM.
//!
//! [`recover`] and [`advance_job`] step the batteries of one system in
//! place, reading each battery's parameters and recovery table from the
//! [`DiscreteFleet`]; they are the stepping path of the discretized backend
//! of the `battery-sched` crate.
//!
//! The kernel is **bit-identical** to
//! [`MultiBatteryState`](crate::multi::MultiBatteryState): every battery's
//! state — and hence its [`DiscreteBattery::state_word`] — matches the
//! reference after every epoch. It is cheaper in one place. The reference
//! recovers *every* battery at *every* draw instant of a job; here only the
//! active battery walks the draw loop, and the passive batteries recover
//! once through the whole served window. That is sound because bulk recovery
//! composes additively (`skip(a)` then `skip(b)` equals `skip(a + b)`, as
//! progress is an absolute position on the recovery ladder).

use crate::multi::JobAdvance;
use crate::{DiscreteBattery, DiscreteFleet, DkibamError};

/// Lets every battery recover for `steps` time steps, one prefix-table skip
/// each. Retired batteries keep recovering, exactly as in the reference.
pub fn recover(batteries: &mut [DiscreteBattery], steps: u64, fleet: &DiscreteFleet) {
    for (index, battery) in batteries.iter_mut().enumerate() {
        battery.advance_recovery(steps, fleet.table_of(index));
    }
}

/// Lets battery `active` serve a job portion while the others recover,
/// mirroring [`MultiBatteryState::advance_job`](crate::multi::MultiBatteryState::advance_job)
/// bit for bit.
///
/// # Errors
///
/// Returns [`DkibamError::BatteryIndexOutOfRange`] if `active` is not a
/// valid battery index.
pub fn advance_job(
    batteries: &mut [DiscreteBattery],
    active: usize,
    steps: u64,
    draw_interval: u32,
    units_per_draw: u32,
    fleet: &DiscreteFleet,
) -> Result<JobAdvance, DkibamError> {
    if active >= batteries.len() {
        return Err(DkibamError::BatteryIndexOutOfRange { index: active, count: batteries.len() });
    }
    if draw_interval == 0 || units_per_draw == 0 {
        // Degenerate "job" that draws nothing: just idle time.
        recover(batteries, steps, fleet);
        return Ok(JobAdvance { steps_consumed: steps, completed: true });
    }
    let params = fleet.params_of(active);
    let table = fleet.table_of(active);
    let battery = &mut batteries[active];
    if battery.is_empty(params) {
        battery.mark_observed_empty();
        return Ok(JobAdvance { steps_consumed: 0, completed: false });
    }

    let interval = u64::from(draw_interval);
    let draws = steps / interval;
    let remainder = steps - draws * interval;
    let mut consumed = 0;
    let mut completed = true;
    for _ in 0..draws {
        battery.advance_recovery(interval, table);
        consumed += interval;
        // As in the reference, the emptiness condition is checked at the
        // draw instant both before and after the draw.
        if !battery.is_empty(params) {
            battery.draw(units_per_draw);
        }
        if battery.is_empty(params) {
            battery.mark_observed_empty();
            completed = false;
            break;
        }
    }
    if completed {
        battery.advance_recovery(remainder, table);
        consumed += remainder;
    }
    for (index, battery) in batteries.iter_mut().enumerate() {
        if index != active {
            battery.advance_recovery(consumed, fleet.table_of(index));
        }
    }
    Ok(JobAdvance { steps_consumed: consumed, completed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiBatteryState;
    use crate::Discretization;
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

    fn b1_fleet(count: usize) -> DiscreteFleet {
        DiscreteFleet::uniform(&BatteryParams::itsy_b1(), &Discretization::paper_default(), count)
    }

    fn mixed_fleet() -> DiscreteFleet {
        DiscreteFleet::new(
            FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
            Discretization::paper_default(),
        )
    }

    fn full(fleet: &DiscreteFleet) -> Vec<DiscreteBattery> {
        MultiBatteryState::new_full(fleet).batteries().to_vec()
    }

    /// Drives the kernel and the reference through an identical seeded mix
    /// of jobs and idle periods, comparing every battery after every epoch.
    fn exercise_lockstep(fleet: &DiscreteFleet, seed: u64) {
        let mut batteries = full(fleet);
        let mut reference = MultiBatteryState::new_full(fleet);
        let mut rng = SplitMix64(seed);
        for _ in 0..200 {
            if rng.below(4) == 0 {
                let steps = rng.below(2_000);
                recover(&mut batteries, steps, fleet);
                reference.advance_idle(steps, fleet);
            } else {
                let active = usize::try_from(rng.below(fleet.len() as u64)).unwrap();
                let steps = rng.below(3_000);
                #[allow(clippy::cast_possible_truncation)]
                let interval = rng.below(5) as u32; // 0 exercises the degenerate job
                #[allow(clippy::cast_possible_truncation)]
                let units = rng.below(3) as u32;
                let advance =
                    advance_job(&mut batteries, active, steps, interval, units, fleet).unwrap();
                let expected =
                    reference.advance_job(active, steps, interval, units, fleet).unwrap();
                assert_eq!(advance, expected);
            }
            assert_eq!(batteries, reference.batteries(), "the kernel diverged from the reference");
        }
    }

    #[test]
    fn uniform_fleet_steps_bit_identically_to_the_scalar_state() {
        exercise_lockstep(&b1_fleet(2), 0xD5_0909);
        exercise_lockstep(&b1_fleet(3), 7);
        exercise_lockstep(&b1_fleet(8), 8);
    }

    #[test]
    fn mixed_fleet_steps_bit_identically_to_the_scalar_state() {
        exercise_lockstep(&mixed_fleet(), 0xB1B2);
        exercise_lockstep(&mixed_fleet(), 42);
    }

    #[test]
    fn single_battery_system_steps_bit_identically_to_the_scalar_state() {
        exercise_lockstep(&b1_fleet(1), 1);
        exercise_lockstep(
            &DiscreteFleet::uniform(&BatteryParams::itsy_b2(), &Discretization::paper_default(), 1),
            2,
        );
    }

    #[test]
    fn recovery_composes_additively() {
        // The kernel recovers passive batteries once per job portion; that
        // is sound only if two skips equal one skip of their sum.
        let fleet = mixed_fleet();
        let mut drained = full(&fleet);
        advance_job(&mut drained, 0, 400, 2, 1, &fleet).unwrap();
        advance_job(&mut drained, 1, 300, 1, 1, &fleet).unwrap();
        for (a, b) in [(0, 0), (0, 17), (1, 1), (3, 250), (999, 1), (1_234, 4_321)] {
            let mut split = drained.clone();
            recover(&mut split, a, &fleet);
            recover(&mut split, b, &fleet);
            let mut whole = drained.clone();
            recover(&mut whole, a + b, &fleet);
            assert_eq!(split, whole, "skip({a}) then skip({b})");
        }
    }

    #[test]
    fn passive_batteries_recover_only_through_the_served_window() {
        let fleet = b1_fleet(3);
        let mut batteries = full(&fleet);
        // Give the passive batteries a height difference to recover from.
        advance_job(&mut batteries, 1, 200, 2, 1, &fleet).unwrap();
        advance_job(&mut batteries, 2, 300, 2, 1, &fleet).unwrap();
        let before = batteries.clone();
        let advance = advance_job(&mut batteries, 0, 1_000_000, 2, 1, &fleet).unwrap();
        assert!(!advance.completed, "battery 0 dies inside the portion");
        assert!(advance.steps_consumed < 1_000_000);
        for index in 1..3 {
            let mut expected = before[index];
            expected.advance_recovery(advance.steps_consumed, fleet.table_of(index));
            assert_eq!(batteries[index], expected, "battery {index}");
        }
    }

    #[test]
    fn degenerate_job_is_idle_time() {
        let fleet = mixed_fleet();
        let mut batteries = full(&fleet);
        advance_job(&mut batteries, 0, 500, 2, 1, &fleet).unwrap();
        let mut idle = batteries.clone();
        recover(&mut idle, 640, &fleet);
        for (interval, units) in [(0, 1), (2, 0), (0, 0)] {
            let mut job = batteries.clone();
            let advance = advance_job(&mut job, 1, 640, interval, units, &fleet).unwrap();
            assert_eq!(advance, JobAdvance { steps_consumed: 640, completed: true });
            assert_eq!(job, idle, "interval {interval}, units {units}");
        }
    }

    #[test]
    fn retired_batteries_serve_nothing() {
        let fleet = b1_fleet(2);
        let mut batteries = full(&fleet);
        let advance = advance_job(&mut batteries, 0, 1_000_000, 2, 1, &fleet).unwrap();
        assert!(!advance.completed);
        assert!(batteries[0].is_observed_empty());
        assert!(!batteries[1].is_observed_empty());
        // Scheduling the retired battery again consumes no time.
        let again = advance_job(&mut batteries, 0, 100, 2, 1, &fleet).unwrap();
        assert_eq!(again, JobAdvance { steps_consumed: 0, completed: false });
    }

    #[test]
    fn out_of_range_active_battery_fails() {
        let fleet = b1_fleet(2);
        let mut batteries = full(&fleet);
        let result = advance_job(&mut batteries, 2, 10, 2, 1, &fleet);
        assert_eq!(result, Err(DkibamError::BatteryIndexOutOfRange { index: 2, count: 2 }));
    }
}
