//! The backend-agnostic battery-stepping contract.
//!
//! The simulator and the optimal-schedule search only need a handful of
//! operations from a battery model: let one battery serve (a portion of) a
//! job while the rest recover, let every battery recover through an idle
//! period, test for emptiness and take charge snapshots. This module
//! extracts that contract into the [`BatteryModel`] trait so the same
//! scheduling machinery runs against different battery backends:
//!
//! * [`crate::backends::DiscretizedKibam`] — the paper's discretized KiBaM
//!   (integer charge/height units), the model behind Tables 3–5;
//! * [`crate::backends::ContinuousKibam`] — the closed-form continuous KiBaM,
//!   which cross-validates the discretization and is much cheaper to step
//!   over long horizons;
//! * [`crate::backends::RvDiffusion`] — the Rakhmatov–Vrudhula diffusion
//!   model, parameter-fitted from the fleet's KiBaM parameters: the
//!   structurally different chemistry of the cross-model comparison;
//! * [`crate::backends::IdealBattery`] — the linear battery baseline with no
//!   rate-capacity or recovery effect.
//!
//! Backends are built from a [`kibam::FleetSpec`] and may hold
//! heterogeneous fleets; [`BatteryModel::type_of`] exposes the fleet's
//! type groups so searches prune symmetry only within a group.
//!
//! Time is always measured in discrete *steps* of the [`Discretization`]
//! that produced the load — the load's job boundaries and draw instants are
//! the scheduling points, no matter how a backend represents battery state
//! internally. Backends expose a cheap save/restore state (the
//! [`BatteryModel::State`] associated type) so that search-based schedulers
//! can branch without cloning static data such as recovery tables.
//!
//! [`Discretization`]: dkibam::Discretization

use crate::schedule::BatteryCharge;
use crate::SchedError;

/// Result of letting one battery serve (a portion of) a job.
///
/// Mirrors `dkibam::multi::JobAdvance`, but at the trait layer so that
/// non-discretized backends can report the same information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelAdvance {
    /// Time steps that actually elapsed.
    pub steps_consumed: u64,
    /// `true` if the requested number of steps was served completely;
    /// `false` if the active battery was observed empty before the end (the
    /// remaining steps still need to be served by another battery).
    pub completed: bool,
}

/// The largest battery count a [`StateKey`] can canonicalize inline.
///
/// Keys are fixed-size so transposition tables never allocate per node;
/// systems with more batteries simply opt out of memoization
/// ([`BatteryModel::memo_key`] returns `None`).
pub const MAX_KEY_BATTERIES: usize = 4;

/// A fixed-size, allocation-free canonical key over a backend's dynamic
/// state, used by search schedulers as a transposition-table key.
///
/// The backend packs each battery's dynamic state into one opaque `u128`
/// word (equal words ⇔ equal states) tagged with the battery's *type-group*
/// id (see [`kibam::FleetSpec`]); the key sorts the `(type, word)` pairs so
/// that permutations of identical-type batteries — which have identical
/// futures — collide in the table, while batteries of different types never
/// exchange positions: a drained B1 next to a fresh B2 and a fresh B1 next
/// to a drained B2 keep distinct keys. Uniform fleets tag every battery
/// with type 0, which reduces to a plain global sort (bit-identical to the
/// homogeneous-key behaviour this key type replaced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateKey {
    len: u8,
    types: [u8; MAX_KEY_BATTERIES],
    words: [u128; MAX_KEY_BATTERIES],
}

// Hash only the occupied slots: unused slots are always zero, so equality
// over the full arrays coincides with equality over the prefix, and
// skipping the padding halves the hashing cost for two-battery systems (the
// common case) on the search's per-node hot path.
impl std::hash::Hash for StateKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.len);
        for i in 0..usize::from(self.len) {
            state.write_u8(self.types[i]);
            state.write_u128(self.words[i]);
        }
    }
}

impl StateKey {
    /// Builds a canonical key from per-battery `(type-group id, state word)`
    /// pairs, or `None` if there are more than [`MAX_KEY_BATTERIES`] of
    /// them or a type id exceeds `u8::MAX` (fleets never assign that many
    /// distinct types below the battery cap). Pairs are sorted by
    /// `(type, word)`, so words permute only within their type group.
    pub fn from_typed_words(pairs: impl IntoIterator<Item = (usize, u128)>) -> Option<Self> {
        let mut buf = [(0u8, 0u128); MAX_KEY_BATTERIES];
        let mut len = 0usize;
        for (type_id, word) in pairs {
            if len == MAX_KEY_BATTERIES {
                return None;
            }
            buf[len] = (u8::try_from(type_id).ok()?, word);
            len += 1;
        }
        buf[..len].sort_unstable();
        let mut types = [0u8; MAX_KEY_BATTERIES];
        let mut words = [0u128; MAX_KEY_BATTERIES];
        for (slot, &(type_id, word)) in buf[..len].iter().enumerate() {
            types[slot] = type_id;
            words[slot] = word;
        }
        #[allow(clippy::cast_possible_truncation)]
        // xlint: allow(cast) -- len <= MAX_KEY_BATTERIES, far below u8::MAX
        Some(Self { len: len as u8, types, words })
    }

    /// Builds a canonical key for a *uniform* fleet: every battery belongs
    /// to type group 0, so the words sort globally.
    pub fn from_words(words: impl IntoIterator<Item = u128>) -> Option<Self> {
        Self::from_typed_words(words.into_iter().map(|word| (0, word)))
    }

    /// The number of battery words in the key.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the key holds no battery words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The canonical (type-grouped, sorted-within-group) per-battery state
    /// words.
    #[must_use]
    pub fn words(&self) -> &[u128] {
        &self.words[..usize::from(self.len)]
    }

    /// The type-group id of each canonical slot (non-decreasing).
    #[must_use]
    pub fn types(&self) -> &[u8] {
        &self.types[..usize::from(self.len)]
    }

    /// Whether `self` and `other` describe fleets with the same type-group
    /// layout (same battery count, same type id in every canonical slot).
    /// Dominance comparisons are only meaningful within one layout; see
    /// [`BatteryModel::key_dominates`].
    #[must_use]
    pub fn same_layout(&self, other: &StateKey) -> bool {
        self.len == other.len && self.types() == other.types()
    }

    /// Slot-wise dominance between two same-layout keys, with the per-word
    /// rule supplied by the backend. Both keys are sorted by `(type, word)`,
    /// so within a type group, matching the i-th word of one key against
    /// the i-th of the other is a valid witness schedule mapping for
    /// identical battery types (any perfect matching would do — the sorted
    /// pairing is the cheap one, and this runs on the search's per-node hot
    /// path). Across type groups no pairing is meaningful — a B1 word never
    /// dominates a B2 word — so mismatched layouts claim nothing
    /// (`debug_assert` + `false`). Backends implement
    /// [`BatteryModel::key_dominates`] with this helper so the layout guard
    /// lives in exactly one place.
    #[must_use]
    pub fn dominates_pairwise(
        &self,
        other: &StateKey,
        word_dominates: impl Fn(u128, u128) -> bool,
    ) -> bool {
        debug_assert!(
            self.same_layout(other),
            "key_dominates compared keys with different type-group layouts"
        );
        // Partial-order law: per-word dominance must be reflexive, or the
        // Pareto fronts would prune a state against itself.
        debug_assert!(
            self.words().iter().all(|&x| word_dominates(x, x)),
            "word dominance must be reflexive"
        );
        self.same_layout(other)
            && self.words().iter().zip(other.words()).all(|(&x, &y)| word_dominates(x, y))
    }
}

/// A multi-battery battery model that the scheduling engine can step.
///
/// Implementations hold the joint state of all batteries in the system plus
/// whatever static data they need (parameters, recovery tables). The
/// contract, in the paper's terms (Sections 2 and 4):
///
/// * [`advance_job`](Self::advance_job) — one battery serves a job portion
///   with a given draw pattern while the others recover; the battery is
///   *observed empty* at a draw instant and retired if the emptiness
///   criterion holds there;
/// * [`advance_idle`](Self::advance_idle) — every battery recovers;
/// * [`is_empty`](Self::is_empty) / [`available`](Self::available) — the
///   emptiness test (Eq. 3 continuous, Eq. 8 discretized), sticky once a
///   battery has been observed empty;
/// * [`charge`](Self::charge) — total / available charge snapshots, the
///   quantities policies decide on and traces record.
pub trait BatteryModel {
    /// A cheap snapshot of the dynamic state of all batteries, used by
    /// search-based schedulers to branch. Static data (parameters, recovery
    /// tables) must not live in the state.
    type State: Clone;

    /// A short name identifying the backend in reports and JSON output.
    fn backend_name(&self) -> &'static str;

    /// The number of batteries in the system.
    fn battery_count(&self) -> usize;

    /// The type-group id of battery `index`: batteries with identical
    /// parameters share a group (see [`kibam::FleetSpec::type_of`]), and
    /// only same-group batteries are interchangeable for symmetry pruning
    /// and canonical state keys. The default declares every battery the
    /// same type, which is exact for uniform fleets.
    fn type_of(&self, index: usize) -> usize {
        let _ = index;
        0
    }

    /// Returns every battery to the freshly-charged state.
    fn reset(&mut self);

    /// Captures the current dynamic state.
    fn save_state(&self) -> Self::State;

    /// Captures the current dynamic state into `out`, reusing whatever `out`
    /// already holds. Search schedulers snapshot at every node; backends
    /// should override the default (which allocates a fresh state) with an
    /// in-place copy.
    fn save_state_into(&self, out: &mut Self::State) {
        *out = self.save_state();
    }

    /// Restores a previously captured dynamic state.
    fn restore_state(&mut self, state: &Self::State);

    /// Whether battery `index` is empty: either currently satisfying the
    /// emptiness criterion or already observed empty and retired.
    fn is_empty(&self, index: usize) -> bool;

    /// Indices of the batteries that can still serve a job.
    fn available(&self) -> Vec<usize> {
        (0..self.battery_count()).filter(|&i| !self.is_empty(i)).collect()
    }

    /// Fills `out` with the indices of the batteries that can still serve a
    /// job, reusing its allocation (the allocation-free counterpart of
    /// [`available`](Self::available)).
    fn available_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.battery_count()).filter(|&i| !self.is_empty(i)));
    }

    /// Whether at least one battery can still serve a job. Search hot paths
    /// use this instead of materializing an index list.
    fn any_available(&self) -> bool {
        (0..self.battery_count()).any(|i| !self.is_empty(i))
    }

    /// A canonical, hashable key of the current dynamic state for
    /// transposition tables, or `None` if the backend cannot key its state
    /// exactly (e.g. continuous backends with floating-point state). The
    /// default claims no key; discrete backends should provide one.
    fn memo_key(&self) -> Option<StateKey> {
        None
    }

    /// Whether the state behind canonical key `a` is component-wise at least
    /// as good as the state behind key `b` — every schedule achievable from
    /// `b` is achievable (or bettered) from `a`, so a search need not expand
    /// `b` once `a` has been expanded from the same position. Both keys must
    /// come from this backend's [`memo_key`](Self::memo_key), and therefore
    /// share one type-group layout ([`StateKey::same_layout`]); comparing
    /// keys across layouts would pair batteries of different types, so
    /// implementations must refuse it (`debug_assert` + `false`). The
    /// conservative default claims nothing, which disables dominance pruning
    /// for the backend.
    fn key_dominates(&self, a: &StateKey, b: &StateKey) -> bool {
        let _ = (a, b);
        false
    }

    /// Charge snapshot (total and available charge, A·min) of battery
    /// `index`.
    fn charge(&self, index: usize) -> BatteryCharge;

    /// Charge snapshots of all batteries, in index order.
    fn charges(&self) -> Vec<BatteryCharge> {
        (0..self.battery_count()).map(|i| self.charge(i)).collect()
    }

    /// Fills `out` with the charge snapshots of all batteries, reusing its
    /// allocation. The simulation loop snapshots at every scheduling
    /// decision, so this avoids a per-decision allocation.
    fn charges_into(&self, out: &mut Vec<BatteryCharge>) {
        out.clear();
        out.extend((0..self.battery_count()).map(|i| self.charge(i)));
    }

    /// Total remaining charge over all batteries, in A·min (including
    /// retired ones — their stranded charge is what the paper's residual
    /// observations count).
    fn total_charge(&self) -> f64 {
        (0..self.battery_count()).map(|i| self.charge(i).total).sum()
    }

    /// Total remaining charge over the batteries that have *not* been
    /// retired, in A·min. Upper-bound computations in search schedulers use
    /// this: retired charge can never be delivered.
    fn usable_charge(&self) -> f64;

    /// Builds the recovery-coupled service envelope of battery `index` —
    /// an admissible upper bound on the charge units it could serve within
    /// any future window, given its *current* state — into `out`, and
    /// returns the battery type's [`dkibam::ServiceRateTable`] for
    /// querying it ([`dkibam::ServiceRateTable::units_within`]).
    /// `max_units_per_draw` is the largest single-draw size of the load
    /// ahead (one final draw may overshoot the battery's service
    /// frontier).
    ///
    /// The envelope may never undercount what a real schedule can extract
    /// — the availability-aware bound of the optimal search prunes on it,
    /// and an undercount would prune optimal schedules. Backends that
    /// cannot bound service return `None` (the default), which disables
    /// the availability bound and degrades the search to pure charge
    /// accounting. Retired batteries must report an envelope capped at
    /// zero units.
    fn service_envelope_into(
        &self,
        index: usize,
        max_units_per_draw: u32,
        out: &mut dkibam::ServiceEnvelope,
    ) -> Option<&dkibam::ServiceRateTable> {
        let _ = (index, max_units_per_draw, out);
        None
    }

    /// Whether batteries `a` and `b` are in identical states, so a search
    /// need only branch on one of them (symmetry pruning).
    fn states_identical(&self, a: usize, b: usize) -> bool;

    /// Lets every battery recover for `steps` time steps.
    fn advance_idle(&mut self, steps: u64);

    /// Lets battery `active` serve a job portion of `steps` time steps with
    /// the given draw pattern (one draw of `units_per_draw` charge units
    /// every `draw_interval_steps` steps) while all other batteries recover.
    ///
    /// If the active battery is observed empty at a draw instant it is
    /// retired and the advance reports `completed == false` together with
    /// the steps that did elapse; the caller re-schedules the remainder.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidBatteryIndex`] (or a backend error) if
    /// `active` is out of range.
    fn advance_job(
        &mut self,
        active: usize,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> Result<ModelAdvance, SchedError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{ContinuousKibam, DiscretizedKibam, RvDiffusion};
    use dkibam::Discretization;
    use kibam::BatteryParams;

    fn backends() -> (DiscretizedKibam, ContinuousKibam, RvDiffusion) {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::paper_default();
        (
            DiscretizedKibam::new(&params, &disc, 2),
            ContinuousKibam::new(&params, &disc, 2),
            RvDiffusion::new(&params, &disc, 2),
        )
    }

    fn exercise<M: BatteryModel>(model: &mut M) {
        assert_eq!(model.battery_count(), 2);
        assert_eq!(model.available(), vec![0, 1]);
        let full = model.total_charge();
        assert!((full - 11.0).abs() < 1e-9, "{}: {full}", model.backend_name());
        assert!((model.usable_charge() - full).abs() < 1e-9);
        assert!(model.states_identical(0, 1));

        let mut buf = vec![9usize; 4];
        model.available_into(&mut buf);
        assert_eq!(buf, vec![0, 1]);
        assert!(model.any_available());

        // One minute of 500 mA on battery 0: one charge unit every 2 steps.
        let saved = model.save_state();
        let advance = model.advance_job(0, 100, 2, 1).unwrap();
        assert!(advance.completed);
        assert_eq!(advance.steps_consumed, 100);
        assert!(!model.states_identical(0, 1));
        let after = model.charges();
        assert!((after[0].total - 5.0).abs() < 1e-9, "{}: {:?}", model.backend_name(), after);
        assert!((after[1].total - 5.5).abs() < 1e-9);
        assert!(after[0].available < after[1].available);

        // Idle recovery raises the served battery's available charge.
        model.advance_idle(100);
        assert!(model.charge(0).available > after[0].available);

        // Save/restore round-trips, including the in-place variant.
        let mut scratch = model.save_state();
        model.restore_state(&saved);
        assert!((model.total_charge() - full).abs() < 1e-9);
        assert!(model.states_identical(0, 1));
        model.advance_job(0, 100, 2, 1).unwrap();
        model.save_state_into(&mut scratch);
        let drained = model.total_charge();
        model.restore_state(&saved);
        model.restore_state(&scratch);
        assert!((model.total_charge() - drained).abs() < 1e-9);
        model.restore_state(&saved);

        // Reset returns to full no matter what happened before.
        model.advance_job(1, 200, 2, 1).unwrap();
        model.reset();
        assert!((model.total_charge() - full).abs() < 1e-9);
        assert_eq!(model.available(), vec![0, 1]);
    }

    #[test]
    fn discretized_backend_honours_the_contract() {
        let (mut discrete, _, _) = backends();
        exercise(&mut discrete);
    }

    #[test]
    fn continuous_backend_honours_the_contract() {
        let (_, mut continuous, _) = backends();
        exercise(&mut continuous);
    }

    #[test]
    fn rv_backend_honours_the_contract() {
        let (_, _, mut rv) = backends();
        exercise(&mut rv);
    }

    #[test]
    fn out_of_range_battery_is_rejected_by_every_backend() {
        let (mut discrete, mut continuous, mut rv) = backends();
        assert!(discrete.advance_job(7, 10, 2, 1).is_err());
        assert!(continuous.advance_job(7, 10, 2, 1).is_err());
        assert!(rv.advance_job(7, 10, 2, 1).is_err());
    }

    #[test]
    fn state_keys_canonicalize_battery_permutations() {
        let key_a = StateKey::from_words([3u128, 1, 2]).unwrap();
        let key_b = StateKey::from_words([1u128, 2, 3]).unwrap();
        assert_eq!(key_a, key_b);
        assert_eq!(key_a.len(), 3);
        assert!(!key_a.is_empty());
        assert_ne!(key_a, StateKey::from_words([1u128, 2, 4]).unwrap());
        // Length is part of the key: [1, 0] and [1] differ.
        assert_ne!(
            StateKey::from_words([1u128, 0]).unwrap(),
            StateKey::from_words([1u128]).unwrap()
        );
        // Too many batteries: no key, so callers skip memoization.
        assert!(StateKey::from_words([0u128; MAX_KEY_BATTERIES + 1]).is_none());
    }

    #[test]
    fn typed_state_keys_sort_only_within_type_groups() {
        // All-type-0 keys reduce to the global sort of the uniform path.
        let uniform = StateKey::from_words([3u128, 1]).unwrap();
        let typed = StateKey::from_typed_words([(0usize, 3u128), (0, 1)]).unwrap();
        assert_eq!(uniform, typed);

        // Words never swap across type groups: a drained type-0 next to a
        // fresh type-1 differs from the mirrored state.
        let ab = StateKey::from_typed_words([(0usize, 3u128), (1, 1)]).unwrap();
        let ba = StateKey::from_typed_words([(0usize, 1u128), (1, 3)]).unwrap();
        assert_ne!(ab, ba);
        assert!(ab.same_layout(&ba));
        assert_eq!(ab.types(), &[0, 1]);

        // Permutations within a type group still collide.
        let x = StateKey::from_typed_words([(0usize, 5u128), (0, 2), (1, 9)]).unwrap();
        let y = StateKey::from_typed_words([(0usize, 2u128), (0, 5), (1, 9)]).unwrap();
        assert_eq!(x, y);
        assert_eq!(x.words(), &[2, 5, 9]);

        // Different layouts never compare as the same fleet shape.
        assert!(!uniform.same_layout(&ab));

        // Type ids beyond u8 (and too many batteries) yield no key.
        assert!(StateKey::from_typed_words([(usize::from(u8::MAX) + 1, 0u128)]).is_none());
        assert!(StateKey::from_typed_words((0..5).map(|_| (0usize, 0u128))).is_none());
    }

    #[test]
    fn memo_keys_exist_for_exactly_keyable_backends() {
        let (mut discrete, continuous, rv) = backends();
        // Float-state continuous cells cannot be keyed exactly; the
        // grid-aligned RV cells can.
        assert!(continuous.memo_key().is_none());
        assert!(rv.memo_key().is_some());
        let fresh = discrete.memo_key().unwrap();
        // Draining battery 0 vs battery 1 yields the same canonical key.
        let saved = discrete.save_state();
        discrete.advance_job(0, 100, 2, 1).unwrap();
        let key_0 = discrete.memo_key().unwrap();
        discrete.restore_state(&saved);
        discrete.advance_job(1, 100, 2, 1).unwrap();
        let key_1 = discrete.memo_key().unwrap();
        assert_eq!(key_0, key_1, "permuted states share a canonical key");
        assert_ne!(fresh, key_0);
    }
}
