//! Struct-of-arrays batch stepping for the discretized KiBaM.
//!
//! A [`DiscreteBatch`] holds the dynamic state of N independent battery
//! lanes in columnar form — `n_gamma[]`, `m_delta[]`, `recovery_clock[]`,
//! a retired bitmask — and advances whole lane ranges per kernel call.
//! Combined with the prefix-table bulk skip of
//! [`RecoveryTable::skip`](crate::RecoveryTable::skip) this removes the two
//! scalar-path costs that dominate grid sweeps: per-battery pointer chasing
//! through `Vec<DiscreteBattery>` heaps, and redundant recovery advances of
//! the passive batteries at every draw instant of a job.
//!
//! The kernels are **bit-identical** to [`MultiBatteryState`](crate::multi::MultiBatteryState): every lane's
//! `(n_gamma, m_delta, recovery_clock, observed_empty)` tuple — and hence
//! its [`DiscreteBattery::state_word`] — matches the scalar path after every
//! epoch. For job service this relies on bulk recovery composing
//! additively (`skip(a)` then `skip(b)` equals `skip(a + b)`, because
//! progress is an absolute position on the recovery ladder), so the passive
//! lanes can recover once through the whole served window instead of once
//! per draw.
//!
//! Static data stays in per-type slices (`&[BatteryParams]`,
//! `&[RecoveryTable]`, indexed by the lane's type id), so any number of
//! scenario systems built from the same battery types can share one batch.

use crate::multi::JobAdvance;
use crate::{DiscreteBattery, DiscreteFleet, Discretization, DkibamError};
use kibam::BatteryParams;
use std::ops::Range;

/// N independent discretized-KiBaM cells in struct-of-arrays form.
///
/// Lanes are appended with [`push`](DiscreteBatch::push) /
/// [`push_fleet`](DiscreteBatch::push_fleet) and addressed by index; the
/// discretized backend of `battery-sched` holds one lane per battery of its
/// system and steps them with the `_range` kernels.
#[derive(Debug, Clone, Default)]
pub struct DiscreteBatch {
    /// Remaining total charge, in charge units, per lane.
    n_gamma: Vec<u32>,
    /// Height difference, in height units, per lane.
    m_delta: Vec<u32>,
    /// Recovery-clock progress within the current height unit, per lane.
    recovery_clock: Vec<u64>,
    /// Observed-empty (retired) flags, 64 lanes per word.
    retired: Vec<u64>,
    /// Battery type-group id per lane, indexing the per-type table slices.
    type_ids: Vec<u32>,
}

impl DiscreteBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `lanes` lanes.
    #[must_use]
    pub fn with_capacity(lanes: usize) -> Self {
        Self {
            n_gamma: Vec::with_capacity(lanes),
            m_delta: Vec::with_capacity(lanes),
            recovery_clock: Vec::with_capacity(lanes),
            retired: Vec::with_capacity(lanes.div_ceil(64)),
            type_ids: Vec::with_capacity(lanes),
        }
    }

    /// The number of lanes held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_gamma.len()
    }

    /// Whether the batch holds no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_gamma.is_empty()
    }

    /// Removes all lanes, keeping the allocations.
    pub fn clear(&mut self) {
        self.n_gamma.clear();
        self.m_delta.clear();
        self.recovery_clock.clear();
        self.retired.clear();
        self.type_ids.clear();
    }

    /// Appends one lane holding `battery`'s state, tagged with the battery
    /// type-group id `type_id`; returns the new lane's index.
    pub fn push(&mut self, battery: &DiscreteBattery, type_id: usize) -> usize {
        let lane = self.len();
        self.n_gamma.push(battery.charge_units());
        self.m_delta.push(battery.height_units());
        self.recovery_clock.push(battery.recovery_clock());
        // xlint: allow(panic) -- fleets are bounded far below u32::MAX type groups
        self.type_ids.push(u32::try_from(type_id).expect("type count fits u32"));
        if self.retired.len() * 64 < self.len() {
            self.retired.push(0);
        }
        if battery.is_observed_empty() {
            self.set_retired(lane);
        }
        lane
    }

    /// Appends one fully charged lane per battery of `fleet`, returning the
    /// appended lane range.
    pub fn push_fleet(&mut self, fleet: &DiscreteFleet) -> Range<usize> {
        let start = self.len();
        for i in 0..fleet.len() {
            let battery = DiscreteBattery::full(fleet.params_of(i), fleet.disc());
            self.push(&battery, fleet.type_of(i));
        }
        start..self.len()
    }

    /// Unpacks lane `lane` into the scalar battery form.
    #[must_use]
    pub fn lane(&self, lane: usize) -> DiscreteBattery {
        DiscreteBattery::from_raw_parts(
            self.n_gamma[lane],
            self.m_delta[lane],
            self.recovery_clock[lane],
            self.is_retired(lane),
        )
    }

    /// Overwrites lane `lane` with `battery`'s state.
    pub fn set_lane(&mut self, lane: usize, battery: &DiscreteBattery) {
        self.n_gamma[lane] = battery.charge_units();
        self.m_delta[lane] = battery.height_units();
        self.recovery_clock[lane] = battery.recovery_clock();
        if battery.is_observed_empty() {
            self.set_retired(lane);
        } else {
            self.retired[lane / 64] &= !(1u64 << (lane % 64));
        }
    }

    /// The battery type-group id of lane `lane`.
    #[must_use]
    pub fn type_id(&self, lane: usize) -> usize {
        crate::checked::index(self.type_ids[lane])
    }

    /// Remaining total charge of lane `lane`, in charge units.
    #[must_use]
    pub fn charge_units(&self, lane: usize) -> u32 {
        self.n_gamma[lane]
    }

    /// Whether lane `lane` has been observed empty and retired.
    #[must_use]
    pub fn is_retired(&self, lane: usize) -> bool {
        self.retired[lane / 64] >> (lane % 64) & 1 == 1
    }

    fn set_retired(&mut self, lane: usize) {
        self.retired[lane / 64] |= 1u64 << (lane % 64);
    }

    /// The packed 128-bit state word of lane `lane`
    /// (see [`DiscreteBattery::state_word`]).
    #[must_use]
    pub fn state_word(&self, lane: usize) -> u128 {
        self.lane(lane).state_word()
    }

    /// The emptiness criterion of Eq. 8 for lane `lane`, evaluated against
    /// its own type's parameters; retired lanes are always empty.
    #[must_use]
    pub fn lane_is_empty(&self, lane: usize, type_params: &[BatteryParams]) -> bool {
        self.is_retired(lane) || self.eq8_empty(lane, type_params[self.type_id(lane)].c())
    }

    /// Eq. 8 with a pre-fetched well-share `c` (the job kernel hoists the
    /// active lane's parameters out of the draw loop).
    fn eq8_empty(&self, lane: usize, c: f64) -> bool {
        c * f64::from(self.n_gamma[lane]) <= (1.0 - c) * f64::from(self.m_delta[lane])
    }

    /// Resets every lane of `lanes` to a fully charged battery of its type.
    pub fn reset_range(
        &mut self,
        lanes: Range<usize>,
        type_params: &[BatteryParams],
        disc: &Discretization,
    ) {
        for lane in lanes {
            let params = &type_params[self.type_id(lane)];
            self.set_lane(lane, &DiscreteBattery::full(params, disc));
        }
    }

    /// Lets every lane of `lanes` recover for `steps` time steps — one
    /// prefix-table skip per lane, no per-lane branching. Retired lanes keep
    /// recovering, exactly as in the scalar model.
    pub fn recover_range(
        &mut self,
        lanes: Range<usize>,
        steps: u64,
        tables: &[crate::RecoveryTable],
    ) {
        if steps == 0 {
            return;
        }
        for lane in lanes {
            let table = &tables[crate::checked::index(self.type_ids[lane])];
            let (m, clock) = table.skip(self.m_delta[lane], self.recovery_clock[lane], steps);
            self.m_delta[lane] = m;
            self.recovery_clock[lane] = clock;
        }
    }

    /// Lets lane `active` of the system occupying `lanes` serve a job
    /// portion, mirroring [`MultiBatteryState::advance_job`](crate::multi::MultiBatteryState::advance_job) bit for bit.
    ///
    /// The scalar path recovers *every* battery at *every* draw instant; here
    /// only the active lane walks the draw loop, and the passive lanes
    /// recover once through the whole consumed window afterwards (sound
    /// because bulk recovery composes additively — see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`DkibamError::BatteryIndexOutOfRange`] if `active` does not
    /// lie in `lanes`.
    // The signature is the scalar `advance_job` plus the two shared
    // per-type slices that replace its `&DiscreteFleet`; bundling them
    // would just re-invent the fleet the batch deliberately decouples from.
    #[allow(clippy::too_many_arguments)]
    pub fn advance_job_range(
        &mut self,
        lanes: Range<usize>,
        active: usize,
        steps: u64,
        draw_interval: u32,
        units_per_draw: u32,
        type_params: &[BatteryParams],
        tables: &[crate::RecoveryTable],
    ) -> Result<JobAdvance, DkibamError> {
        if !lanes.contains(&active) {
            return Err(DkibamError::BatteryIndexOutOfRange {
                index: active - lanes.start.min(active),
                count: lanes.len(),
            });
        }
        if draw_interval == 0 || units_per_draw == 0 {
            // Degenerate "job" that draws nothing: just idle time.
            self.recover_range(lanes, steps, tables);
            return Ok(JobAdvance { steps_consumed: steps, completed: true });
        }
        let c = type_params[self.type_id(active)].c();
        let table = &tables[crate::checked::index(self.type_ids[active])];
        if self.is_retired(active) || self.eq8_empty(active, c) {
            self.set_retired(active);
            return Ok(JobAdvance { steps_consumed: 0, completed: false });
        }

        let interval = u64::from(draw_interval);
        let draws = steps / interval;
        let remainder = steps - draws * interval;
        let mut consumed = 0;
        let mut completed = true;
        for _ in 0..draws {
            let (m, clock) =
                table.skip(self.m_delta[active], self.recovery_clock[active], interval);
            self.m_delta[active] = m;
            self.recovery_clock[active] = clock;
            consumed += interval;
            // As in the scalar path, the emptiness condition is checked at
            // the draw instant both before and after the draw.
            #[cfg(debug_assertions)]
            let n_before = self.n_gamma[active];
            if !self.eq8_empty(active, c) {
                self.n_gamma[active] = self.n_gamma[active].saturating_sub(units_per_draw);
                self.m_delta[active] = self.m_delta[active].saturating_add(units_per_draw);
            }
            // Charge conservation, mirroring the scalar kernel: a draw
            // instant removes at most `units_per_draw`, only from `active`.
            #[cfg(debug_assertions)]
            debug_assert!(
                n_before - self.n_gamma[active] <= units_per_draw,
                "batched draw instant removed more than the configured draw"
            );
            if self.eq8_empty(active, c) {
                self.set_retired(active);
                completed = false;
                break;
            }
        }
        if completed {
            let (m, clock) =
                table.skip(self.m_delta[active], self.recovery_clock[active], remainder);
            self.m_delta[active] = m;
            self.recovery_clock[active] = clock;
            consumed += remainder;
        }
        // The passive lanes recover through the whole consumed window in one
        // skip each (additive composition makes this equal to the scalar
        // per-draw advances).
        self.recover_range(lanes.start..active, consumed, tables);
        self.recover_range(active + 1..lanes.end, consumed, tables);
        Ok(JobAdvance { steps_consumed: consumed, completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiBatteryState;
    use kibam::FleetSpec;

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

    fn type_params(fleet: &DiscreteFleet) -> Vec<BatteryParams> {
        (0..fleet.spec().type_count()).map(|t| *fleet.spec().type_params(t)).collect()
    }

    fn assert_lockstep(batch: &DiscreteBatch, lanes: &Range<usize>, scalar: &MultiBatteryState) {
        for (i, battery) in scalar.batteries().iter().enumerate() {
            assert_eq!(
                batch.state_word(lanes.start + i),
                battery.state_word(),
                "lane {i} diverged from the scalar battery"
            );
        }
    }

    /// Drives the batch and the scalar state through an identical seeded
    /// mix of jobs and idle periods, comparing every lane's state word after
    /// every epoch.
    fn exercise_lockstep(fleet: &DiscreteFleet, seed: u64) {
        let params = type_params(fleet);
        let tables = fleet.type_tables();
        let mut batch = DiscreteBatch::new();
        let lanes = batch.push_fleet(fleet);
        let mut scalar = MultiBatteryState::new_full(fleet);
        assert_lockstep(&batch, &lanes, &scalar);

        let mut rng = SplitMix64(seed);
        for _ in 0..200 {
            if rng.below(4) == 0 {
                let steps = rng.below(2_000);
                batch.recover_range(lanes.clone(), steps, tables);
                scalar.advance_idle(steps, fleet);
            } else {
                let active = usize::try_from(rng.below(fleet.len() as u64)).unwrap();
                let steps = rng.below(3_000);
                #[allow(clippy::cast_possible_truncation)]
                let interval = rng.below(5) as u32; // 0 exercises the degenerate job
                #[allow(clippy::cast_possible_truncation)]
                let units = rng.below(3) as u32;
                let batched = batch
                    .advance_job_range(
                        lanes.clone(),
                        lanes.start + active,
                        steps,
                        interval,
                        units,
                        &params,
                        tables,
                    )
                    .unwrap();
                let reference = scalar.advance_job(active, steps, interval, units, fleet).unwrap();
                assert_eq!(batched, reference);
            }
            assert_lockstep(&batch, &lanes, &scalar);
        }
    }

    #[test]
    fn uniform_fleet_steps_bit_identically_to_the_scalar_state() {
        exercise_lockstep(&b1_fleet(2), 0xD5_0909);
        exercise_lockstep(&b1_fleet(3), 7);
    }

    #[test]
    fn mixed_fleet_steps_bit_identically_to_the_scalar_state() {
        exercise_lockstep(&mixed_fleet(), 0xB1B2);
        exercise_lockstep(&mixed_fleet(), 42);
    }

    #[test]
    fn multiple_systems_share_one_batch_independently() {
        let fleet = b1_fleet(2);
        let params = type_params(&fleet);
        let tables = fleet.type_tables();
        let mut batch = DiscreteBatch::with_capacity(4);
        let first = batch.push_fleet(&fleet);
        let second = batch.push_fleet(&fleet);
        // Drain system one only; system two must be untouched.
        batch.advance_job_range(first.clone(), first.start, 10_000, 2, 1, &params, tables).unwrap();
        let fresh = DiscreteBattery::full(fleet.params_of(0), fleet.disc());
        for lane in second.clone() {
            assert_eq!(batch.state_word(lane), fresh.state_word());
        }
        assert!(batch.charge_units(first.start) < fresh.charge_units());
    }

    #[test]
    fn retirement_lives_in_the_bitmask() {
        let fleet = b1_fleet(2);
        let params = type_params(&fleet);
        let tables = fleet.type_tables();
        let mut batch = DiscreteBatch::new();
        let lanes = batch.push_fleet(&fleet);
        let advance = batch
            .advance_job_range(lanes.clone(), lanes.start, 1_000_000, 2, 1, &params, tables)
            .unwrap();
        assert!(!advance.completed);
        assert!(batch.is_retired(lanes.start));
        assert!(batch.lane_is_empty(lanes.start, &params));
        assert!(!batch.is_retired(lanes.start + 1));
        // Unpacked lanes carry the flag.
        assert!(batch.lane(lanes.start).is_observed_empty());
        // Scheduling the retired lane again consumes no time.
        let again = batch
            .advance_job_range(lanes.clone(), lanes.start, 100, 2, 1, &params, tables)
            .unwrap();
        assert_eq!(again, JobAdvance { steps_consumed: 0, completed: false });
    }

    #[test]
    fn out_of_range_active_lane_fails() {
        let fleet = b1_fleet(2);
        let params = type_params(&fleet);
        let mut batch = DiscreteBatch::new();
        let lanes = batch.push_fleet(&fleet);
        let result = batch.advance_job_range(
            lanes.clone(),
            lanes.end,
            10,
            2,
            1,
            &params,
            fleet.type_tables(),
        );
        assert!(result.is_err());
    }

    #[test]
    fn reset_range_refills_lanes_to_full() {
        let fleet = mixed_fleet();
        let params = type_params(&fleet);
        let tables = fleet.type_tables();
        let mut batch = DiscreteBatch::new();
        let lanes = batch.push_fleet(&fleet);
        batch
            .advance_job_range(lanes.clone(), lanes.start, 100_000, 2, 1, &params, tables)
            .unwrap();
        batch.reset_range(lanes.clone(), &params, fleet.disc());
        let scalar = MultiBatteryState::new_full(&fleet);
        assert_lockstep(&batch, &lanes, &scalar);
    }

    #[test]
    fn push_beyond_64_lanes_grows_the_bitmask() {
        let fleet = b1_fleet(1);
        let mut batch = DiscreteBatch::new();
        for _ in 0..130 {
            batch.push_fleet(&fleet);
        }
        assert_eq!(batch.len(), 130);
        assert!(!batch.is_retired(129));
        let battery = {
            let mut b = DiscreteBattery::from_units(10, 100);
            b.mark_observed_empty();
            b
        };
        batch.set_lane(129, &battery);
        assert!(batch.is_retired(129));
        assert!(!batch.is_retired(128));
        batch.set_lane(129, &DiscreteBattery::from_units(10, 100));
        assert!(!batch.is_retired(129));
    }
}
