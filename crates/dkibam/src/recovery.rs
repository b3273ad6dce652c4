use crate::checked;
use crate::Discretization;
use kibam::BatteryParams;

/// Largest cumulative recovery time (in steps) for which the O(1) inverse
/// lookup table is materialized. The paper's B1 table sums to ~5 600 steps;
/// the gate only matters for pathological discretizations whose ladder is
/// millions of steps long, where the binary-search fallback is used instead.
const INVERSE_TABLE_LIMIT: u64 = 1 << 20;

/// Precomputed recovery times (the paper's `recov_times` array).
///
/// When no charge is being drawn, the height difference `δ` relaxes
/// exponentially (Eq. 4/5 of the paper). With `δ = m · Γ/c`, the time to
/// fall from `m` to `m - 1` units is
///
/// ```text
/// t(m) = -(1/k') · ln((m - 1) / m)        (Eq. 6)
/// ```
///
/// which this table stores rounded to the nearest whole number of time
/// steps, exactly as prescribed in Section 2.3. Entries for `m <= 1` are
/// [`None`]: by Eq. 6 the final unit would take infinitely long to recover
/// (the relaxation is asymptotic), so the automaton never recovers below a
/// height difference of one unit.
///
/// Next to the per-unit times the table carries their **cumulative prefix
/// sums** ([`cumulative_steps`](RecoveryTable::cumulative_steps)) and, when
/// small enough, an inverse lookup array, so a bulk recovery advance
/// ([`skip`](RecoveryTable::skip)) lands on the exact ladder position in
/// O(1) instead of walking one height unit at a time.
///
/// # Example
///
/// ```
/// use dkibam::{Discretization, RecoveryTable};
/// use kibam::BatteryParams;
///
/// let b1 = BatteryParams::itsy_b1();
/// let disc = Discretization::paper_default();
/// let table = RecoveryTable::for_battery(&b1, &disc);
/// // Larger height differences recover faster (shorter per-unit times).
/// assert!(table.steps(10).unwrap() > table.steps(100).unwrap());
/// assert!(table.steps(1).is_none());
/// // A bulk advance lands exactly where the per-unit automaton would.
/// assert_eq!(table.skip(3, 0, table.steps(3).unwrap()), (2, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryTable {
    steps: Vec<Option<u64>>,
    /// `cumulative[m]` — time steps from `(m, clock 0)` all the way down to
    /// a height difference of one unit: `Σ_{j=2..=m} steps[j]` (saturating;
    /// `cumulative[0] == cumulative[1] == 0`). Strictly increasing from
    /// `m = 2` on, which is what makes the inverse lookup well defined.
    cumulative: Vec<u64>,
    /// `inverse[t]` — the smallest height `m` with `cumulative[m] >= t`,
    /// i.e. the ladder position with `t` steps of work left before height
    /// one. Materialized only when the full ladder fits
    /// [`INVERSE_TABLE_LIMIT`]; [`skip`](RecoveryTable::skip) falls back to
    /// a binary search over `cumulative` otherwise.
    inverse: Option<Vec<u32>>,
}

impl RecoveryTable {
    /// Builds a recovery table covering height differences up to `max_units`.
    #[must_use]
    pub fn new(params: &BatteryParams, disc: &Discretization, max_units: u32) -> Self {
        let k_prime = params.k_prime();
        let time_step = disc.time_step();
        let steps: Vec<Option<u64>> = (0..=max_units)
            .map(|m| {
                if m <= 1 {
                    None
                } else {
                    let minutes = (f64::from(m) / (f64::from(m) - 1.0)).ln() / k_prime;
                    // Rounded to the nearest time step as in the paper; at
                    // least one step so recovery can never be instantaneous.
                    Some(checked::f64_to_u64((minutes / time_step).round()).max(1))
                }
            })
            .collect();
        let mut cumulative = Vec::with_capacity(steps.len());
        let mut total: u64 = 0;
        for entry in &steps {
            total = total.saturating_add(entry.unwrap_or(0));
            cumulative.push(total);
        }
        let inverse = Self::build_inverse(&cumulative);
        Self { steps, cumulative, inverse }
    }

    /// Builds the O(1) inverse ladder lookup, or `None` when the full
    /// ladder is too long to materialize (the binary-search fallback in
    /// [`skip`](RecoveryTable::skip) produces identical results).
    fn build_inverse(cumulative: &[u64]) -> Option<Vec<u32>> {
        let total = *cumulative.last()?;
        if total >= INVERSE_TABLE_LIMIT {
            return None;
        }
        let len = usize::try_from(total).ok()?.checked_add(1)?;
        let mut inverse = vec![1u32; len];
        let mut t: usize = 1;
        for (m, &cum) in cumulative.iter().enumerate().skip(2) {
            let height = checked::to_u32(m);
            let end = usize::try_from(cum).ok()?;
            while t <= end {
                inverse[t] = height;
                t += 1;
            }
        }
        Some(inverse)
    }

    /// Builds a table sized for a full battery: the height difference can
    /// never exceed the number of charge units drawn, so `N = C / Γ` entries
    /// suffice.
    #[must_use]
    pub fn for_battery(params: &BatteryParams, disc: &Discretization) -> Self {
        Self::new(params, disc, disc.charge_units(params.capacity()))
    }

    /// The number of time steps needed to reduce a height difference of `m`
    /// units by one unit, or `None` if `m <= 1` (no further recovery) or `m`
    /// exceeds the table.
    #[must_use]
    pub fn steps(&self, m: u32) -> Option<u64> {
        self.steps.get(checked::index(m)).copied().flatten()
    }

    /// The total time steps from `(m, clock 0)` down to a height difference
    /// of one unit (zero for `m <= 1`; saturated for `m` beyond the table).
    #[must_use]
    pub fn cumulative_steps(&self, m: u32) -> u64 {
        let m = checked::index(m).min(self.cumulative.len().saturating_sub(1));
        self.cumulative.get(m).copied().unwrap_or(0)
    }

    /// The largest height difference covered by this table.
    #[must_use]
    pub fn max_units(&self) -> u32 {
        checked::to_u32(self.steps.len()).saturating_sub(1)
    }

    /// Advances the recovery automaton from `(m, clock)` by `steps` time
    /// steps in bulk, returning the new `(m, clock)`.
    ///
    /// Bit-identical to iterating the per-unit automaton of Figure 5(b) one
    /// `recov_times[m]` interval at a time, including its edge cases:
    ///
    /// * `steps == 0` is a no-op (the clock is preserved);
    /// * at or below one height unit — or beyond the table — the clock is
    ///   cleared and the height stays put;
    /// * a clock at or past the current per-unit time (possible because
    ///   draws raise `m`, shrinking `recov_times[m]` under an accumulated
    ///   clock) credits exactly one level, as the per-unit loop does.
    ///
    /// After the first level the clock is zero and the remaining descent is
    /// a pure prefix-sum lookup: O(1) with the inverse table, O(log levels)
    /// through the binary-search fallback.
    #[must_use]
    pub fn skip(&self, m: u32, clock: u64, steps: u64) -> (u32, u64) {
        if steps == 0 {
            return (m, clock);
        }
        let Some(needed) = self.steps(m) else {
            // No recovery possible at or below one height unit (or beyond
            // the table's coverage).
            return (m, 0);
        };
        // First level by hand: the clock may hold more progress than the
        // current per-unit time requires.
        let remaining = needed.saturating_sub(clock);
        if steps < remaining {
            return (m, clock + steps);
        }
        let steps = steps - remaining;
        let m = m - 1;
        if m <= 1 {
            return (1, 0);
        }
        // From `(m, 0)`: total descent work is `cumulative[m]`.
        let cum_m = self.cumulative[checked::index(m)];
        if steps >= cum_m {
            return (1, 0);
        }
        let target = cum_m - steps; // work left before height one; > 0
        let landed = match &self.inverse {
            // target <= cum_m < inverse.len()
            Some(inverse) => inverse[checked::index_u64(target)],
            None => checked::to_u32(self.cumulative.partition_point(|&c| c < target)),
        };
        let clock = steps - (cum_m - self.cumulative[checked::index(landed)]);
        (landed, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RecoveryTable {
        RecoveryTable::for_battery(&BatteryParams::itsy_b1(), &Discretization::paper_default())
    }

    /// The pre-prefix-table per-unit loop, kept as the reference the bulk
    /// skip must match bit for bit.
    fn reference_skip(
        table: &RecoveryTable,
        mut m: u32,
        mut clock: u64,
        mut steps: u64,
    ) -> (u32, u64) {
        while steps > 0 {
            let Some(needed) = table.steps(m) else {
                return (m, 0);
            };
            let remaining = needed.saturating_sub(clock);
            if steps < remaining {
                return (m, clock + steps);
            }
            steps -= remaining;
            m -= 1;
            clock = 0;
        }
        (m, clock)
    }

    #[test]
    fn no_recovery_at_or_below_one_unit() {
        let t = table();
        assert_eq!(t.steps(0), None);
        assert_eq!(t.steps(1), None);
        assert!(t.steps(2).is_some());
    }

    #[test]
    fn recovery_times_match_equation_6() {
        let t = table();
        // For m = 2: t = ln(2) / 0.122 ≈ 5.6815 min ≈ 568 steps of 0.01 min.
        assert_eq!(t.steps(2), Some(568));
        // For m = 100: t = ln(100/99)/0.122 ≈ 0.08237 min ≈ 8 steps.
        assert_eq!(t.steps(100), Some(8));
    }

    #[test]
    fn recovery_times_are_non_increasing_in_m() {
        let t = table();
        let mut previous = u64::MAX;
        for m in 2..=t.max_units() {
            let steps = t.steps(m).unwrap();
            assert!(steps <= previous, "recovery must speed up as delta grows");
            previous = steps;
        }
    }

    #[test]
    fn recovery_never_rounds_to_zero_steps() {
        // Even with an extremely coarse time step the table clamps at one
        // step per unit, so simulations can never loop forever.
        let coarse = Discretization::new(5.0, 0.01).unwrap();
        let t = RecoveryTable::new(&BatteryParams::itsy_b1(), &coarse, 1000);
        for m in 2..=1000 {
            assert!(t.steps(m).unwrap() >= 1);
        }
    }

    #[test]
    fn table_covers_full_battery() {
        let t = table();
        assert_eq!(t.max_units(), 550);
        assert!(t.steps(550).is_some());
        assert_eq!(t.steps(551), None);
    }

    #[test]
    fn cumulative_steps_are_prefix_sums_of_the_per_unit_times() {
        let t = table();
        assert_eq!(t.cumulative_steps(0), 0);
        assert_eq!(t.cumulative_steps(1), 0);
        let mut sum = 0;
        for m in 2..=t.max_units() {
            sum += t.steps(m).unwrap();
            assert_eq!(t.cumulative_steps(m), sum);
        }
        // Beyond the table the total saturates at the full ladder.
        assert_eq!(t.cumulative_steps(10_000), t.cumulative_steps(t.max_units()));
    }

    #[test]
    fn paper_table_materializes_the_inverse_lookup() {
        let t = table();
        assert!(t.inverse.is_some(), "the paper ladder is a few thousand steps long");
        // The inverse really inverts the prefix sums.
        let inverse = t.inverse.as_ref().unwrap();
        for m in 2..=t.max_units() {
            let cum = t.cumulative_steps(m);
            assert_eq!(inverse[usize::try_from(cum).unwrap()], m);
            assert_eq!(inverse[usize::try_from(t.cumulative_steps(m - 1) + 1).unwrap()], m);
        }
    }

    #[test]
    fn skip_matches_the_per_unit_reference_everywhere() {
        let t = table();
        let steps_of = |m: u32| t.steps(m).unwrap_or(0);
        for m in [0u32, 1, 2, 3, 5, 50, 100, 300, 549, 550, 551, 600] {
            let clocks: Vec<u64> = vec![
                0,
                1,
                steps_of(m).saturating_sub(1),
                // Over-full clocks arise when a draw raises m under an
                // accumulated clock (recov_times shrink with m).
                steps_of(m) + 3,
                steps_of(m).saturating_mul(2),
            ];
            for &clock in &clocks {
                for steps in [0u64, 1, 2, 7, 100, 568, 569, 1_000, 5_000, 10_000, u64::MAX / 2] {
                    assert_eq!(
                        t.skip(m, clock, steps),
                        reference_skip(&t, m, clock, steps),
                        "m={m} clock={clock} steps={steps}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_composes_additively() {
        let t = table();
        for m in [2u32, 10, 123, 550] {
            for (a, b) in [(1u64, 1u64), (5, 563), (568, 568), (1_000, 4_000), (0, 7), (7, 0)] {
                let (m1, c1) = t.skip(m, 3, a);
                let split = t.skip(m1, c1, b);
                let fused = t.skip(m, 3, a + b);
                assert_eq!(split, fused, "m={m} a={a} b={b}");
            }
        }
    }

    #[test]
    fn binary_search_fallback_matches_the_inverse_lookup() {
        let t = table();
        let mut fallback = t.clone();
        fallback.inverse = None;
        for m in [2u32, 3, 77, 550] {
            for steps in [1u64, 8, 567, 568, 569, 2_000, 5_641, 100_000] {
                assert_eq!(t.skip(m, 0, steps), fallback.skip(m, 0, steps), "m={m} steps={steps}");
            }
        }
    }

    #[test]
    fn oversized_ladders_skip_the_inverse_table() {
        // A tiny k' makes recovery glacial: the ladder exceeds the limit,
        // so only the prefix sums are kept.
        let params = BatteryParams::new(5.5, 0.166, 1e-6).unwrap();
        let t = RecoveryTable::new(&params, &Discretization::paper_default(), 550);
        assert!(t.inverse.is_none());
        // The fallback still descends correctly.
        let full = t.cumulative_steps(550);
        assert_eq!(t.skip(550, 0, full), (1, 0));
        assert_eq!(t.skip(550, 0, full - 1).0, 2);
    }
}
