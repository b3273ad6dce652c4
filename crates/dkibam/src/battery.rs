use crate::{Discretization, RecoveryTable};
use kibam::BatteryParams;

/// The integer state of one battery in the discretized KiBaM.
///
/// Mirrors the per-battery variables of the TA-KiBaM (Table 1 of the paper):
///
/// * `n_gamma` — remaining total charge in charge units;
/// * `m_delta` — height difference between the wells, in height units;
/// * a recovery clock counting the time steps since the last height-unit
///   recovery (the `c_recov` clock of the height-difference automaton);
/// * an `observed_empty` flag: once a battery has been observed empty it is
///   never used again, even though it keeps recovering charge (Section 4.3).
///
/// The emptiness criterion is Eq. 8: `c·n ≤ (1 - c)·m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscreteBattery {
    n_gamma: u32,
    m_delta: u32,
    recovery_clock: u64,
    observed_empty: bool,
}

impl DiscreteBattery {
    /// A freshly charged battery: `n_gamma = N = C / Γ`, `m_delta = 0`.
    #[must_use]
    pub fn full(params: &BatteryParams, disc: &Discretization) -> Self {
        Self {
            n_gamma: disc.charge_units(params.capacity()),
            m_delta: 0,
            recovery_clock: 0,
            observed_empty: false,
        }
    }

    /// Creates a battery state from raw unit counts (used by tests and by
    /// the timed-automata encoding).
    #[must_use]
    pub fn from_units(n_gamma: u32, m_delta: u32) -> Self {
        Self { n_gamma, m_delta, recovery_clock: 0, observed_empty: false }
    }

    /// Remaining total charge in charge units (`n_gamma`).
    #[must_use]
    pub fn charge_units(&self) -> u32 {
        self.n_gamma
    }

    /// Height difference in height units (`m_delta`).
    #[must_use]
    pub fn height_units(&self) -> u32 {
        self.m_delta
    }

    /// Time steps accumulated on the recovery clock since the last recovery.
    #[must_use]
    pub fn recovery_clock(&self) -> u64 {
        self.recovery_clock
    }

    /// Whether this battery has been observed empty and retired.
    #[must_use]
    pub fn is_observed_empty(&self) -> bool {
        self.observed_empty
    }

    /// Marks the battery as observed empty; it will never be used again.
    pub fn mark_observed_empty(&mut self) {
        self.observed_empty = true;
    }

    /// The emptiness criterion of Eq. 8: `c·n ≤ (1 - c)·m`.
    ///
    /// A battery that has been [observed empty](Self::is_observed_empty) is
    /// also reported as empty, even if recovery has since made charge
    /// available again.
    #[must_use]
    pub fn is_empty(&self, params: &BatteryParams) -> bool {
        if self.observed_empty {
            return true;
        }
        let c = params.c();
        c * f64::from(self.n_gamma) <= (1.0 - c) * f64::from(self.m_delta)
    }

    /// Remaining total charge `γ = n · Γ` in A·min.
    #[must_use]
    pub fn total_charge(&self, disc: &Discretization) -> f64 {
        f64::from(self.n_gamma) * disc.charge_unit()
    }

    /// Charge in the available-charge well, `y1 = Γ·(c·n - (1 - c)·m)`,
    /// clamped at zero.
    #[must_use]
    pub fn available_charge(&self, params: &BatteryParams, disc: &Discretization) -> f64 {
        let c = params.c();
        (disc.charge_unit() * (c * f64::from(self.n_gamma) - (1.0 - c) * f64::from(self.m_delta)))
            .max(0.0)
    }

    /// Draws `units` charge units from the battery: the total charge drops
    /// and the height difference rises by the same number of units
    /// (saturating at zero remaining charge).
    pub fn draw(&mut self, units: u32) {
        let n_before = self.n_gamma;
        let drained = self.n_gamma.min(units);
        self.n_gamma = self.n_gamma.saturating_sub(units);
        self.m_delta = self.m_delta.saturating_add(units);
        // Charge conservation: the total charge drops by exactly the
        // drained units (saturating at empty) — a draw never creates
        // charge and never loses more than it drew.
        debug_assert!(self.n_gamma == n_before - drained, "draw broke charge conservation");
    }

    /// Packs the dynamic state into a single 128-bit word: total charge,
    /// height difference, recovery clock and the observed-empty flag. Equal
    /// words are equal states, and the ordering is stable, so search
    /// schedulers can canonicalize a multi-battery state by sorting the
    /// per-battery words — without allocating.
    #[must_use]
    pub fn state_word(&self) -> u128 {
        // The recovery clock is bounded by the largest per-unit recovery
        // time, far below 2^63; the mask keeps the packing total even if a
        // pathological table ever exceeded it.
        let clock = self.recovery_clock & ((1u64 << 63) - 1);
        (u128::from(self.n_gamma) << 96)
            | (u128::from(self.m_delta) << 64)
            | (u128::from(clock) << 1)
            | u128::from(self.observed_empty)
    }

    /// [`DiscreteBattery::dominates`] on packed [state
    /// words](DiscreteBattery::state_word), so search schedulers can compare
    /// canonicalized states without reconstructing batteries. This is the
    /// single source of truth for the dominance rule; `dominates` delegates
    /// here.
    #[must_use]
    pub fn word_dominates(a: u128, b: u128) -> bool {
        let (n_a, m_a, clock_a, empty_a) = unpack(a);
        let (n_b, m_b, clock_b, empty_b) = unpack(b);
        if empty_a && !empty_b {
            return false;
        }
        if n_a < n_b {
            return false;
        }
        m_a < m_b || (m_a == m_b && clock_a >= clock_b)
    }

    /// Whether this battery's state is at least as good as `other`'s in
    /// every component, so that any schedule achievable from `other` is
    /// achievable (or bettered) from `self`:
    ///
    /// * at least as much total charge (`n_gamma`),
    /// * at least as far along in recovery — a strictly smaller height
    ///   difference, or an equal one with an equal-or-ahead recovery clock
    ///   (recovery trajectories are deterministic and never cross),
    /// * not retired unless `other` is retired too.
    ///
    /// Both emptiness (Eq. 8 is monotone in `n` and `m`) and every future
    /// draw/recovery step preserve this ordering, which is what makes
    /// dominance pruning in the optimal search sound.
    #[must_use]
    pub fn dominates(&self, other: &DiscreteBattery) -> bool {
        Self::word_dominates(self.state_word(), other.state_word())
    }

    /// Advances the recovery process by `steps` time steps.
    ///
    /// While the height difference exceeds one unit, each elapsed
    /// `recov_times[m_delta]` time steps reduce it by one unit (the
    /// height-difference automaton of Figure 5(b)). Recovery continues even
    /// for observed-empty batteries, exactly as in the paper's model. The
    /// whole advance is a single prefix-table lookup
    /// ([`RecoveryTable::skip`]) rather than a walk over height units.
    pub fn advance_recovery(&mut self, steps: u64, table: &RecoveryTable) {
        let (m_delta, recovery_clock) = table.skip(self.m_delta, self.recovery_clock, steps);
        // Recovery physics: the height difference is monotone non-increasing
        // under recovery (never below one unit once started), and the total
        // charge n_gamma is untouched — recovery only redistributes charge.
        debug_assert!(m_delta <= self.m_delta.max(1), "recovery raised the height difference");
        self.m_delta = m_delta;
        self.recovery_clock = recovery_clock;
    }

    /// Reassembles a battery from raw state components, for tests that need
    /// a battery mid-recovery.
    #[must_use]
    pub fn from_raw_parts(
        n_gamma: u32,
        m_delta: u32,
        recovery_clock: u64,
        observed_empty: bool,
    ) -> Self {
        Self { n_gamma, m_delta, recovery_clock, observed_empty }
    }

    /// Advances recovery by a single time step; returns `true` if a height
    /// unit was recovered during this step.
    pub fn tick_recovery(&mut self, table: &RecoveryTable) -> bool {
        let before = self.m_delta;
        self.advance_recovery(1, table);
        self.m_delta < before
    }
}

/// Unpacks a [`DiscreteBattery::state_word`] into
/// `(n_gamma, m_delta, recovery_clock, observed_empty)`.
fn unpack(word: u128) -> (u32, u32, u64, bool) {
    #[allow(clippy::cast_possible_truncation)]
    // xlint: allow(cast) -- masked field extraction from the packed state word
    let n_gamma = (word >> 96) as u32;
    #[allow(clippy::cast_possible_truncation)]
    // xlint: allow(cast) -- masked field extraction from the packed state word
    let m_delta = (word >> 64) as u32;
    #[allow(clippy::cast_possible_truncation)]
    // xlint: allow(cast) -- masked field extraction from the packed state word
    let clock = ((word >> 1) as u64) & ((1u64 << 63) - 1);
    (n_gamma, m_delta, clock, word & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BatteryParams, Discretization, RecoveryTable) {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        let table = RecoveryTable::for_battery(&params, &disc);
        (params, disc, table)
    }

    #[test]
    fn full_battery_has_all_units_and_no_height_difference() {
        let (params, disc, _) = setup();
        let battery = DiscreteBattery::full(&params, &disc);
        assert_eq!(battery.charge_units(), 550);
        assert_eq!(battery.height_units(), 0);
        assert!(!battery.is_empty(&params));
        assert!((battery.total_charge(&disc) - 5.5).abs() < 1e-12);
        assert!((battery.available_charge(&params, &disc) - 0.166 * 5.5).abs() < 1e-9);
    }

    #[test]
    fn draw_moves_charge_into_height_difference() {
        let (params, disc, _) = setup();
        let mut battery = DiscreteBattery::full(&params, &disc);
        battery.draw(10);
        assert_eq!(battery.charge_units(), 540);
        assert_eq!(battery.height_units(), 10);
        assert!((battery.total_charge(&disc) - 5.4).abs() < 1e-12);
    }

    #[test]
    fn emptiness_criterion_matches_equation_8() {
        let params = BatteryParams::itsy_b1();
        // c n <= (1 - c) m  <=>  0.166 n <= 0.834 m.
        let boundary = DiscreteBattery::from_units(100, 20);
        // 0.166 * 100 = 16.6; 0.834 * 20 = 16.68 -> empty.
        assert!(boundary.is_empty(&params));
        let not_empty = DiscreteBattery::from_units(100, 19);
        // 0.834 * 19 = 15.846 < 16.6 -> not empty.
        assert!(!not_empty.is_empty(&params));
    }

    #[test]
    fn equation_8_ties_and_the_service_frontier_agree_with_the_f64_test() {
        // B1's only exact decimal tie within 550 units: 0.166 · 417 =
        // 0.834 · 83 = 69.222. The binary value of 0.166 lies above 0.166,
        // so `c·n ≤ (1 − c)·m` calls it non-empty; the committed grid
        // documents depend on that answer. A rewrite such as
        // `c·(n + m) ≤ m` decides the tie the other way and fails here.
        let b1 = BatteryParams::itsy_b1();
        assert!(!DiscreteBattery::from_units(417, 83).is_empty(&b1));
        assert!(DiscreteBattery::from_units(417, 84).is_empty(&b1));

        // The search's bounds read Eq. 8 through the service frontier:
        // non-empty iff `m ≤ threshold(n)`. It must match `is_empty` on the
        // whole state space, ties included (`c = 0.4` has 183 of them, e.g.
        // `(6, 4)`). At `n = 0` the unsigned table reports `(0, 0)` as
        // non-empty where Eq. 8 says empty; no draw reaches that state
        // (every draw raises `m`), so the check starts at `n = 1`.
        let disc = Discretization::paper_default();
        let tie_prone = BatteryParams::new(5.5, 0.4, 0.122).unwrap();
        for params in [b1, BatteryParams::itsy_b2(), tie_prone] {
            let table = crate::ServiceRateTable::for_battery(&params, &disc);
            let capacity = disc.charge_units(params.capacity());
            for n in 1..=capacity {
                let threshold = table.service_threshold(n);
                for m in 0..=capacity + 1 {
                    assert_eq!(
                        DiscreteBattery::from_units(n, m).is_empty(&params),
                        m > threshold,
                        "c = {}, (n, m) = ({n}, {m})",
                        params.c()
                    );
                }
            }
        }
    }

    #[test]
    fn observed_empty_is_sticky() {
        let (params, disc, table) = setup();
        let mut battery = DiscreteBattery::full(&params, &disc);
        battery.mark_observed_empty();
        assert!(battery.is_empty(&params));
        // Even after a long recovery the battery stays retired.
        battery.advance_recovery(1_000_000, &table);
        assert!(battery.is_empty(&params));
        assert!(battery.is_observed_empty());
    }

    #[test]
    fn recovery_reduces_height_difference_to_one_unit() {
        let (_, _, table) = setup();
        let mut battery = DiscreteBattery::from_units(400, 50);
        battery.advance_recovery(10_000_000, &table);
        assert_eq!(battery.height_units(), 1, "recovery stops at one height unit");
        assert_eq!(battery.charge_units(), 400, "recovery never changes the total charge");
    }

    #[test]
    fn recovery_respects_per_unit_times() {
        let (_, _, table) = setup();
        let mut battery = DiscreteBattery::from_units(400, 3);
        let to_two = table.steps(3).unwrap();
        battery.advance_recovery(to_two - 1, &table);
        assert_eq!(battery.height_units(), 3);
        battery.advance_recovery(1, &table);
        assert_eq!(battery.height_units(), 2);
        // The clock restarts for the next unit.
        let to_one = table.steps(2).unwrap();
        battery.advance_recovery(to_one - 1, &table);
        assert_eq!(battery.height_units(), 2);
        battery.advance_recovery(1, &table);
        assert_eq!(battery.height_units(), 1);
    }

    #[test]
    fn tick_recovery_reports_recovered_units() {
        let (_, _, table) = setup();
        let mut battery = DiscreteBattery::from_units(100, 200);
        let needed = table.steps(200).unwrap();
        let mut recovered = 0;
        for _ in 0..needed {
            if battery.tick_recovery(&table) {
                recovered += 1;
            }
        }
        assert_eq!(recovered, 1);
        assert_eq!(battery.height_units(), 199);
    }

    #[test]
    fn draw_saturates_at_zero_charge() {
        let mut battery = DiscreteBattery::from_units(2, 0);
        battery.draw(5);
        assert_eq!(battery.charge_units(), 0);
        assert_eq!(battery.height_units(), 5);
    }

    #[test]
    fn state_words_are_injective_over_the_dynamic_state() {
        let (params, disc, table) = setup();
        let a = DiscreteBattery::full(&params, &disc);
        let mut b = a;
        assert_eq!(a.state_word(), b.state_word());
        b.draw(1);
        assert_ne!(a.state_word(), b.state_word());
        let mut c = DiscreteBattery::from_units(400, 3);
        let word = c.state_word();
        c.advance_recovery(1, &table);
        assert_ne!(word, c.state_word(), "the recovery clock is part of the state");
        let mut d = c;
        d.mark_observed_empty();
        assert_ne!(c.state_word(), d.state_word());
    }

    #[test]
    fn dominance_is_component_wise() {
        let fresh = DiscreteBattery::from_units(500, 10);
        let drained = DiscreteBattery::from_units(400, 20);
        assert!(fresh.dominates(&drained));
        assert!(!drained.dominates(&fresh));
        // Reflexive.
        assert!(fresh.dominates(&fresh));
        // More charge but a worse height difference: incomparable.
        let mixed = DiscreteBattery::from_units(450, 25);
        assert!(!mixed.dominates(&drained));
        assert!(!drained.dominates(&mixed));
        // A retired battery never dominates a live one.
        let mut retired = fresh;
        retired.mark_observed_empty();
        assert!(!retired.dominates(&fresh));
        assert!(fresh.dominates(&retired));
    }

    #[test]
    fn dominance_breaks_ties_on_the_recovery_clock() {
        let (_, _, table) = setup();
        let behind = DiscreteBattery::from_units(400, 3);
        let mut ahead = behind;
        // Advance less than one full recovery: same m_delta, larger clock.
        ahead.advance_recovery(1, &table);
        assert_eq!(ahead.height_units(), behind.height_units());
        assert!(ahead.dominates(&behind));
        assert!(!behind.dominates(&ahead));
    }

    #[test]
    fn available_charge_is_clamped_at_zero() {
        let (params, disc, _) = setup();
        let battery = DiscreteBattery::from_units(10, 100);
        assert_eq!(battery.available_charge(&params, &disc), 0.0);
    }
}
