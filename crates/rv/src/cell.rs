use crate::table::MomentGrid;
use crate::MAX_STEP_TERMS;

/// Number of bits per packed field of a [state word](RvCell::state_word) (consumed
/// units and each fixed-point diffusion moment).
const FIELD_BITS: u32 = 24;
/// Largest value a packed field can hold.
const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;

/// The state of one battery in the discretized RV stepping form.
///
/// The discretization mirrors Section 2.3 of the scheduling paper: time
/// advances in steps of `T`, consumed charge in integer units of `Γ`, and
/// the diffusion moments `u_1..u_M` live on a fixed-point grid of
/// [`crate::MOMENT_SCALE`] quanta per charge unit (the
/// [`crate::RvStepTable`] re-aligns them after every draw and recovery
/// advance). Keeping every component on a finite grid is what makes the
/// state exactly packable into a canonical search key
/// ([`crate::RvStepTable::state_word`]) — the diffusion analogue of
/// `dkibam::DiscreteBattery`'s integer `(n_gamma, m_delta)` state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RvCell {
    /// Charge units consumed so far.
    pub(crate) consumed_units: u32,
    /// Grid-aligned diffusion moments, in A·min (slots beyond the table's
    /// truncation order stay zero).
    pub(crate) moments: [f64; MAX_STEP_TERMS],
    /// Whether this battery has been observed empty and retired.
    pub(crate) observed_empty: bool,
}

impl RvCell {
    /// The state of a freshly charged battery.
    #[must_use]
    pub fn fresh() -> Self {
        Self { consumed_units: 0, moments: [0.0; MAX_STEP_TERMS], observed_empty: false }
    }

    /// Charge units consumed so far.
    #[must_use]
    pub fn consumed_units(&self) -> u32 {
        self.consumed_units
    }

    /// The grid-aligned diffusion moments, in A·min.
    #[must_use]
    pub fn moments(&self) -> &[f64; MAX_STEP_TERMS] {
        &self.moments
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

    /// Packs the dynamic state into a single 128-bit word, counting each
    /// moment in whole quanta of `grid`; see
    /// [`crate::RvStepTable::state_word`].
    pub(crate) fn state_word(&self, grid: &MomentGrid) -> Option<u128> {
        let consumed = u64::from(self.consumed_units);
        if consumed > FIELD_MAX {
            return None;
        }
        let mut word = (u128::from(consumed) << 1) | u128::from(self.observed_empty);
        let mut shift = 1 + FIELD_BITS;
        for &moment in &self.moments {
            let quanta = grid.quanta(moment);
            #[allow(clippy::cast_precision_loss)]
            if !(quanta >= 0.0 && quanta <= FIELD_MAX as f64) {
                return None;
            }
            let quanta = dkibam::checked::f64_to_u64(quanta);
            word |= u128::from(quanta) << shift;
            shift += FIELD_BITS;
        }
        Some(word)
    }

    /// Component-wise dominance on packed
    /// [state words](crate::RvStepTable::state_word):
    /// `a` dominates `b` when it has consumed no more charge, carries no
    /// larger diffusion deficit in *every* moment, and is not retired unless
    /// `b` is retired too.
    ///
    /// Every transition of the stepping form is monotone in each component
    /// (moments evolve by `u·D + g` with `D > 0`, consumption adds equal
    /// increments, and the grid rounding is monotone), and the emptiness
    /// criterion `σ ≥ α` is monotone in all of them, so any schedule
    /// achievable from `b` is achievable (or bettered) from `a` — the
    /// property that makes dominance pruning in the optimal search sound.
    #[must_use]
    pub fn word_dominates(a: u128, b: u128) -> bool {
        let (consumed_a, quanta_a, empty_a) = unpack(a);
        let (consumed_b, quanta_b, empty_b) = unpack(b);
        if empty_a && !empty_b {
            return false;
        }
        consumed_a <= consumed_b && quanta_a.iter().zip(&quanta_b).all(|(qa, qb)| qa <= qb)
    }
}

/// Unpacks a [state word](RvCell::state_word) into
/// `(consumed_units, moment_quanta, observed_empty)`.
fn unpack(word: u128) -> (u64, [u64; MAX_STEP_TERMS], bool) {
    let empty = word & 1 == 1;
    #[allow(clippy::cast_possible_truncation)]
    // xlint: allow(cast) -- masked field extraction from the packed state word
    let consumed = ((word >> 1) as u64) & FIELD_MAX;
    let mut quanta = [0u64; MAX_STEP_TERMS];
    let mut shift = 1 + FIELD_BITS;
    for slot in &mut quanta {
        #[allow(clippy::cast_possible_truncation)]
        // xlint: allow(cast) -- masked field extraction from the packed state word
        let value = ((word >> shift) as u64) & FIELD_MAX;
        *slot = value;
        shift += FIELD_BITS;
    }
    (consumed, quanta, empty)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUANTUM: f64 = 0.01 / crate::MOMENT_SCALE;

    fn grid() -> MomentGrid {
        MomentGrid::new(QUANTUM)
    }

    fn cell(consumed: u32, quanta: [u64; MAX_STEP_TERMS]) -> RvCell {
        let mut moments = [0.0; MAX_STEP_TERMS];
        for (slot, &q) in moments.iter_mut().zip(&quanta) {
            #[allow(clippy::cast_precision_loss)]
            {
                *slot = q as f64 * QUANTUM;
            }
        }
        RvCell { consumed_units: consumed, moments, observed_empty: false }
    }

    #[test]
    fn state_words_are_injective_over_the_grid_state() {
        let a = cell(10, [1, 2, 3, 4]);
        let mut b = a;
        assert_eq!(a.state_word(&grid()), b.state_word(&grid()));
        b.consumed_units += 1;
        assert_ne!(a.state_word(&grid()), b.state_word(&grid()));
        let mut c = a;
        c.moments[3] += QUANTUM;
        assert_ne!(a.state_word(&grid()), c.state_word(&grid()));
        let mut d = a;
        d.mark_observed_empty();
        assert_ne!(a.state_word(&grid()), d.state_word(&grid()));
    }

    #[test]
    fn oversized_components_opt_out_of_packing() {
        assert!(cell(u32::MAX, [0; MAX_STEP_TERMS]).state_word(&grid()).is_none());
        let mut huge = cell(0, [0; MAX_STEP_TERMS]);
        huge.moments[0] = 1e9;
        assert!(huge.state_word(&grid()).is_none());
        assert!(cell(100, [5, 5, 5, 5]).state_word(&grid()).is_some());
    }

    #[test]
    fn dominance_is_component_wise() {
        let word = |c: &RvCell| c.state_word(&grid()).unwrap();
        let fresh = cell(0, [0, 0, 0, 0]);
        let used = cell(50, [9, 4, 2, 1]);
        assert!(RvCell::word_dominates(word(&fresh), word(&used)));
        assert!(!RvCell::word_dominates(word(&used), word(&fresh)));
        // Reflexive.
        assert!(RvCell::word_dominates(word(&used), word(&used)));
        // Less consumed but a larger deficit: incomparable.
        let stressed = cell(40, [20, 4, 2, 1]);
        assert!(!RvCell::word_dominates(word(&stressed), word(&used)));
        assert!(!RvCell::word_dominates(word(&used), word(&stressed)));
        // A retired battery never dominates a live one.
        let mut retired = fresh;
        retired.mark_observed_empty();
        assert!(!RvCell::word_dominates(word(&retired), word(&used)));
        assert!(RvCell::word_dominates(word(&fresh), word(&retired)));
    }
}
