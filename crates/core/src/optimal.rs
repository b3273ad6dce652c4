//! Optimal battery schedules.
//!
//! The paper obtains optimal schedules by asking Uppaal Cora for a
//! minimum-cost path through the TA-KiBaM. This module computes the same
//! optimum directly: a depth-first branch-and-bound search over the battery
//! state, branching only at scheduling points (job starts and battery-empty
//! events), with
//!
//! * a **charge upper bound** on the remaining lifetime derived from the
//!   remaining usable charge and the load ahead (a schedule can never
//!   outlive the point at which the load has requested more charge than all
//!   batteries jointly hold),
//! * an **availability upper bound** that couples per-battery draw/recovery
//!   dynamics with the load's duty cycle: each battery reports an
//!   admissible service envelope ([`BatteryModel::service_envelope_into`],
//!   backed by the per-type [`dkibam::ServiceRateTable`]) bounding the
//!   units it can serve within any window given the demand delivered by
//!   then, and the bound walks the remaining epochs charging every draw
//!   against both the joint charge budget and the fleet's joint
//!   availability. On loads that strand charge (`ILs alt` leaves ~70 %
//!   behind) the charge bound never fires — batteries die from the Eq. 8
//!   emptiness criterion, not exhaustion — while the availability bound
//!   tracks exactly that criterion: it shrinks the 3-battery alternating
//!   search ~4× (53.6k nodes vs 208.5k, pinned in
//!   `tests/bound_admissibility.rs`) and fires on roughly half of all
//!   nodes there, where the charge bound fires on none,
//! * a **relaxation upper bound** that drops only the "one battery per
//!   draw" coupling: each battery's *exact* maximum cumulative service
//!   through every remaining job epoch is computed by the serve/skip
//!   dynamic program of [`dkibam::ColumnBuilder`] (full-horizon columns,
//!   cached by `(type, state, position)` so transpositions re-solve from
//!   the parent's cached columns rather than from scratch), and a
//!   prefix-capacity transportation relaxation couples them through the
//!   shared demand: its closed-form min cut, walked epoch by epoch, yields
//!   an admissible death bound that is evaluated only when the
//!   availability bound fails to fire
//!   ([`OptimalOutcome::relax_bound_prunes`]); a test-only max-flow
//!   reference (`tests/relaxation_reference.rs`) checks the walk against
//!   the flow optimum,
//! * **symmetry pruning** (batteries in identical states need only be tried
//!   once),
//! * a **transposition table** keyed by the canonicalized battery state and
//!   the position in the load, pruning revisits that cannot improve on an
//!   earlier visit ([`OptimalOutcome::memo_hits`]),
//! * **dominance pruning**: a candidate whose batteries are component-wise
//!   no better than an already-expanded state at the same load position —
//!   an elder sibling or any transposition — is skipped; the table keeps
//!   only the Pareto front of expanded states per position
//!   ([`OptimalOutcome::dominance_prunes`]), and
//! * **warm starting** from the best of *all* deterministic policies
//!   (sequential, round robin, best-of-two, capacity-weighted round
//!   robin), so the bounds are maximally effective from node 0;
//!   [`OptimalOutcome::seeded_by`] reports which policy provided the
//!   incumbent.
//!
//! Every search starts with one **root phase**
//! ([`OptimalScheduler::root_phase`]): the search is built against the
//! fresh fleet with a zero incumbent, the three bounds are evaluated at the
//! root ([`RootBounds`]) — the relaxation bound leaving the fresh fleet's
//! full-horizon columns in the search's column cache — and the warm start
//! runs. The incumbent is then installed and the exploration starts.
//! [`OptimalScheduler::probe_root_bounds`] is the root phase without the
//! exploration.
//!
//! The search runs on an explicit stack (no recursion) and is
//! allocation-free per node in steady state: snapshots live in a pool
//! indexed by depth, candidate buffers are arenas that grow only to the
//! search's high-water mark, and availability queries reuse one buffer.
//!
//! How much each pruning buys depends on the load: deep searches with
//! converging histories (e.g. `ILs 250`, random loads, three-battery
//! systems) shrink 5–10× under the transposition table, while short
//! alternating loads on two batteries (`ILs alt`) are already near-minimal
//! after symmetry pruning and only the availability and relaxation bounds
//! trim them further. The availability bound alone sits ~2× above the
//! true optimum at the root of the alternating loads; the relaxation
//! bound's exact per-battery columns close most of that gap
//! (`examples/frontier_probe.rs` reports the per-bound root tightness from
//! [`OptimalScheduler::probe_root_bounds`]). The bench harness
//! (`cargo run --release -p bench --bin scenarios -- --optimal`) prints the
//! per-load node counts of both searches.
//!
//! The search is generic over the [`BatteryModel`] backend: it runs against
//! the discretized KiBaM (the paper's model, [`OptimalScheduler::find_optimal`])
//! or any other backend ([`OptimalScheduler::find_optimal_with`]), using the
//! backend's cheap save/restore state to branch. Memoization and dominance
//! pruning engage automatically on backends that support them (the
//! discretized KiBaM does; the continuous backend falls back to the plain
//! bounded search). It returns the maximum achievable system lifetime for
//! the given discretization together with the decision sequence that
//! realises it (replayable through [`crate::policy::FixedSchedule`]).

use crate::model::{BatteryModel, StateKey};
use crate::policy::{
    BestAvailable, CapacityWeightedRoundRobin, RoundRobin, SchedulingPolicy, Sequential,
};
use crate::system::{simulate_policy_with, SystemConfig};
use crate::SchedError;
use dkibam::{
    ColumnBuilder, DiscreteEpoch, DiscretizedLoad, EnvelopeCursor, ServiceColumn, ServiceEnvelope,
    ServiceRateTable,
};
use std::collections::HashMap; // xlint: allow(hash) -- see `FxMap` below
use std::hash::{BuildHasherDefault, Hasher};
use workload::LoadProfile;

/// A minimal Fx-style hasher (multiply–xor–rotate, as used by rustc). The
/// transposition table hashes a fat key (up to four `u128` words plus the
/// position) at every node; the default SipHash is a measurable fraction of
/// the whole search there, and HashDoS resistance is irrelevant for a
/// single-process search table. The build environment is offline, so this is
/// written out instead of depending on `rustc-hash`.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    state: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        #[allow(clippy::cast_possible_truncation)]
        // xlint: allow(cast) -- hashing deliberately folds the two u64 halves
        self.mix(value as u64);
        #[allow(clippy::cast_possible_truncation)]
        // xlint: allow(cast) -- hashing deliberately folds the two u64 halves
        self.mix((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        // xlint: allow(cast) -- usize -> u64 is lossless on supported targets
        self.mix(value as u64);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// The search's hash map: Fx-hashed for speed. Hash iteration order is
/// never observed — `seen` and `fronts` are probed by key only, so the
/// determinism argument does not rest on this container.
// xlint: allow(hash) -- keyed lookups only; iteration order is never observed
type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// Default node budget of the search (decision nodes, not states).
pub const DEFAULT_BUDGET: usize = 20_000_000;

/// The most batteries the availability bound handles (per-battery table
/// references live in a fixed-size array on the bound's hot path); larger
/// fleets simply skip the availability bound.
const MAX_BOUND_BATTERIES: usize = 8;

/// The most Pareto-maximal expanded states retained per load position for
/// dominance checks. The cap bounds both memory and the per-node scan cost;
/// states beyond it are still explored, just not recorded as pruners.
const MAX_STATES_PER_POSITION: usize = 16;

/// The most entries the transposition table retains. Bounds the memory of
/// deep searches (an entry is ~90 bytes); once full, new states are still
/// explored but no longer recorded, so pruning degrades gracefully instead
/// of exhausting memory.
const MAX_MEMO_ENTRIES: usize = 1_000_000;

/// The most `(StateKey, elapsed)` entries retained across *all* dominance
/// fronts, analogous to [`MAX_MEMO_ENTRIES`]: fine-grained loads can visit
/// millions of distinct positions, and without a global cap the per-position
/// `Vec`s (and their map slots) would grow unboundedly. Once full, existing
/// fronts still prune; new positions are no longer recorded.
const MAX_FRONT_ENTRIES: usize = 500_000;

/// The most cached per-battery service columns of the relaxation bound.
/// Keyed by `(battery type, battery state, load position)`, so transposed
/// searches re-use the exact single-battery DP solved at the parent instead
/// of re-solving it; once full, columns are still built (into a scratch
/// buffer) but no longer retained.
const MAX_COLUMN_CACHE_ENTRIES: usize = 200_000;

/// The result of an optimal-schedule search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimalOutcome {
    /// The maximum achievable system lifetime, in time steps.
    pub lifetime_steps: u64,
    /// The decisions (battery index per scheduling point) realising it.
    pub decisions: Vec<usize>,
    /// The number of decision nodes explored by the search.
    pub nodes_explored: usize,
    /// Nodes pruned by the transposition table: the same canonical battery
    /// state was reached at the same load position with at least as much
    /// lifetime already accumulated.
    pub memo_hits: usize,
    /// Nodes pruned because an already-expanded state at the same load
    /// position (an elder sibling or a transposition) was component-wise at
    /// least as good.
    pub dominance_prunes: usize,
    /// Nodes cut by the usable-charge upper bound against the incumbent.
    pub charge_bound_prunes: usize,
    /// Nodes cut by the availability-aware upper bound (recovery-coupled
    /// service envelopes) after the charge bound failed to fire.
    pub availability_bound_prunes: usize,
    /// Nodes cut by the flow relaxation bound (exact per-battery service
    /// columns coupled only through the shared demand) after both cheaper
    /// bounds failed to fire.
    pub relax_bound_prunes: usize,
    /// The warm-start policy that seeded the incumbent: `"sequential"`,
    /// `"round robin"`, `"best of two"` or `"capacity-weighted round
    /// robin"`, or `None` if no policy produced a lifetime (the load ended
    /// before the batteries died under every one).
    pub seeded_by: Option<&'static str>,
}

impl OptimalOutcome {
    /// The optimal lifetime in minutes under the given configuration.
    #[must_use]
    pub fn lifetime_minutes(&self, config: &SystemConfig) -> f64 {
        config.disc().steps_to_minutes(self.lifetime_steps)
    }
}

/// Exact optimal-schedule search (branch and bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimalScheduler {
    budget: usize,
    memoize: bool,
    dominance: bool,
    availability: bool,
    relaxation: bool,
}

impl Default for OptimalScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl OptimalScheduler {
    /// Creates a scheduler with the default node budget and all prunings
    /// (memoization + dominance + the availability and relaxation bounds)
    /// enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            budget: DEFAULT_BUDGET,
            memoize: true,
            dominance: true,
            availability: true,
            relaxation: true,
        }
    }

    /// Creates a scheduler with an explicit node budget. The search fails
    /// with [`SchedError::SearchBudgetExceeded`] instead of silently
    /// returning a sub-optimal answer when the budget runs out.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        Self { budget, ..Self::new() }
    }

    /// A reference scheduler with memoization, dominance pruning and the
    /// availability and relaxation bounds disabled: the plain bounded
    /// search (charge bound, symmetry and warm start only — the seed
    /// search).
    /// Equivalence tests and the bench harness compare the pruned search
    /// against this one — both must return identical lifetimes, the
    /// pruned one in (far) fewer nodes.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            budget: DEFAULT_BUDGET,
            memoize: false,
            dominance: false,
            availability: false,
            relaxation: false,
        }
    }

    /// Disables the transposition table (for ablation and equivalence
    /// testing).
    #[must_use]
    pub fn without_memoization(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Disables sibling dominance pruning (for ablation and equivalence
    /// testing).
    #[must_use]
    pub fn without_dominance(mut self) -> Self {
        self.dominance = false;
        self
    }

    /// Disables the availability-aware bound, leaving only the charge
    /// bound (for ablation: this is the full pre-availability search, so
    /// node-count comparisons against it isolate what the new bound buys).
    #[must_use]
    pub fn without_availability_bound(mut self) -> Self {
        self.availability = false;
        self
    }

    /// Disables the flow relaxation bound, leaving the charge and
    /// availability bounds (for ablation: node-count comparisons against
    /// this scheduler isolate what the relaxation buys).
    #[must_use]
    pub fn without_relax_bound(mut self) -> Self {
        self.relaxation = false;
        self
    }

    /// The node budget of this scheduler.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Finds the optimal schedule for a load profile under the discretized
    /// KiBaM backend (the paper's model).
    ///
    /// # Errors
    ///
    /// Propagates discretization errors and returns
    /// [`SchedError::SearchBudgetExceeded`] if the node budget is exhausted.
    pub fn find_optimal(
        &self,
        config: &SystemConfig,
        profile: &LoadProfile,
    ) -> Result<OptimalOutcome, SchedError> {
        let load = config.discretize(profile)?;
        self.find_optimal_on(config, &load)
    }

    /// Finds the optimal schedule for an already-discretized load under the
    /// discretized KiBaM backend.
    ///
    /// # Errors
    ///
    /// Same as [`OptimalScheduler::find_optimal`].
    pub fn find_optimal_on(
        &self,
        config: &SystemConfig,
        load: &DiscretizedLoad,
    ) -> Result<OptimalOutcome, SchedError> {
        let mut model = config.discretized_model();
        self.find_optimal_with(config, load, &mut model)
    }

    /// Finds the optimal schedule against an arbitrary [`BatteryModel`]
    /// backend: the root phase ([`OptimalScheduler::root_phase`]), then the
    /// branch-and-bound exploration. The model is reset before the search;
    /// it must have been built for the same parameters and discretization
    /// as `config`.
    ///
    /// # Errors
    ///
    /// Same as [`OptimalScheduler::find_optimal`].
    pub fn find_optimal_with<M: BatteryModel>(
        &self,
        config: &SystemConfig,
        load: &DiscretizedLoad,
        model: &mut M,
    ) -> Result<OptimalOutcome, SchedError> {
        self.root_phase(config, load, model)?.explore()
    }

    /// Runs the root phase every search starts with, without exploring:
    /// builds the search against the freshly reset model with a zero
    /// incumbent, evaluates the charge, availability and relaxation bounds
    /// at the root position, then runs the warm start and installs its
    /// incumbent. [`RootPhase::explore`] continues with the branch and
    /// bound.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the warm-start policies.
    pub fn root_phase<'a, M: BatteryModel>(
        &self,
        config: &SystemConfig,
        load: &'a DiscretizedLoad,
        model: &'a mut M,
    ) -> Result<RootPhase<'a, M>, SchedError> {
        let mut search = Search::new(config, load, model, *self);
        // Evaluated against the zero incumbent, so no bound early-exits at
        // the pruning margin.
        let charge = search.charge_bound(0, 0);
        let availability = search.availability_bound(0, 0, u64::MAX);
        let relaxation = search.relax_bound(0, 0, u64::MAX);
        let seeded_by = search.warm_start(config, load)?;
        let bounds = RootBounds { charge, availability, relaxation, warm_start: search.best_steps };
        Ok(RootPhase { search, bounds, seeded_by })
    }

    /// Evaluates the search's upper bounds at the root position (fresh
    /// fleet, start of load) without searching, plus the warm-start
    /// incumbent: the root phase of a default scheduler. Diagnostic API
    /// for bound-tightness tests and the bench harness.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the warm-start policies.
    pub fn probe_root_bounds<M: BatteryModel>(
        config: &SystemConfig,
        load: &DiscretizedLoad,
        model: &mut M,
    ) -> Result<RootBounds, SchedError> {
        Ok(OptimalScheduler::new().root_phase(config, load, model)?.bounds())
    }
}

/// The values of the search's admissible upper bounds at the root position
/// (fresh fleet, start of load), plus the warm-start incumbent. Each bound
/// is a number of lifetime steps; `optimum ≤ min(bounds)` and
/// `warm_start ≤ optimum`, so `min(bounds) − warm_start` brackets the gap
/// the search has to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootBounds {
    /// The usable-charge bound.
    pub charge: u64,
    /// The availability (recovery-coupled service envelope) bound.
    pub availability: u64,
    /// The flow relaxation bound over exact per-battery service columns,
    /// or `u64::MAX` when the backend cannot provide columns.
    pub relaxation: u64,
    /// The warm-start incumbent (the best deterministic policy).
    pub warm_start: u64,
}

/// A search whose root phase has run ([`OptimalScheduler::root_phase`]):
/// root bounds evaluated, warm-start incumbent installed, model reset.
pub struct RootPhase<'a, M: BatteryModel> {
    search: Search<'a, M>,
    bounds: RootBounds,
    seeded_by: Option<&'static str>,
}

impl<M: BatteryModel> std::fmt::Debug for RootPhase<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RootPhase").field("bounds", &self.bounds).finish_non_exhaustive()
    }
}

impl<M: BatteryModel> RootPhase<'_, M> {
    /// The bounds evaluated at the root, and the warm-start incumbent.
    #[must_use]
    pub fn bounds(&self) -> RootBounds {
        self.bounds
    }

    /// Runs the branch-and-bound exploration from the root.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::SearchBudgetExceeded`] if the node budget is
    /// exhausted, and propagates simulation errors.
    pub fn explore(self) -> Result<OptimalOutcome, SchedError> {
        let mut search = self.search;
        search.explore()?;
        Ok(OptimalOutcome {
            lifetime_steps: search.best_steps,
            decisions: search.best_decisions,
            nodes_explored: search.nodes,
            memo_hits: search.memo_hits,
            dominance_prunes: search.dominance_prunes,
            charge_bound_prunes: search.charge_bound_prunes,
            availability_bound_prunes: search.availability_bound_prunes,
            relax_bound_prunes: search.relax_bound_prunes,
            seeded_by: self.seeded_by,
        })
    }
}

/// One decision node on the explicit DFS stack. The frame at stack index
/// `d` owns snapshot `pool[d]` (the state at its decision point) and the
/// candidate range `cand_start..cand_end` of the shared candidate arena.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Index of the job epoch this decision schedules.
    epoch_index: usize,
    /// Steps already served into that epoch.
    offset: u64,
    /// Lifetime accumulated up to the decision point.
    elapsed: u64,
    /// Candidate range in the candidate arena.
    cand_start: usize,
    cand_end: usize,
    /// Next candidate (absolute arena index) to expand.
    next_candidate: usize,
}

struct Search<'a, M: BatteryModel> {
    model: &'a mut M,
    epochs: &'a [DiscreteEpoch],
    charge_unit: f64,
    /// Largest single-draw size in the load, for the service envelopes.
    max_units_per_draw: u32,
    budget: usize,
    memoize: bool,
    dominance: bool,
    availability: bool,
    relaxation: bool,
    nodes: usize,
    memo_hits: usize,
    dominance_prunes: usize,
    charge_bound_prunes: usize,
    availability_bound_prunes: usize,
    relax_bound_prunes: usize,
    best_steps: u64,
    best_decisions: Vec<usize>,
    current_decisions: Vec<usize>,
    /// Explicit DFS stack; `stack[d]`'s branch snapshot is `pool[d]`.
    stack: Vec<Frame>,
    /// Snapshot pool indexed by depth; grows only to the maximum depth.
    pool: Vec<M::State>,
    /// Arena of candidate battery indices, ranges owned by frames.
    candidates: Vec<usize>,
    /// Reusable availability buffer.
    avail: Vec<usize>,
    /// Reusable per-battery service envelopes for the availability bound.
    envelopes: Vec<ServiceEnvelope>,
    /// Per-battery envelope cursors of the availability walk (windows and
    /// demands are queried in non-decreasing order, so each cursor only
    /// moves forward).
    cursors: Vec<EnvelopeCursor>,
    /// Cursor snapshot at the start of the epoch under test, for the
    /// in-epoch death scan (whose windows restart below the epoch's end).
    cursors_mark: Vec<EnvelopeCursor>,
    /// Transposition table: the lifetime accumulated when a canonical state
    /// was first expanded at a load position. Exact-equality revisits are
    /// pruned in O(1).
    seen: FxMap<(StateKey, usize, u64), u64>,
    /// Per-position Pareto fronts of expanded states (bounded per position
    /// and globally): a new state component-wise dominated by a recorded one
    /// is pruned.
    fronts: FxMap<(usize, u64), Vec<(StateKey, u64)>>,
    /// Total entries across all fronts, enforcing [`MAX_FRONT_ENTRIES`].
    front_entries: usize,
    /// The exact single-battery DP of the relaxation bound.
    column_builder: ColumnBuilder,
    /// Cached full-horizon service columns of the relaxation bound, keyed
    /// by `(battery type, battery state word, epoch index, offset)`. The
    /// full-horizon build makes the key independent of the pruning margin,
    /// so a column solved at the parent (or any transposition) is reused
    /// verbatim at every revisit.
    column_cache: FxMap<(usize, u128, usize, u64), ServiceColumn>,
    /// Per-battery scratch columns for cache misses.
    columns_scratch: Vec<ServiceColumn>,
}

impl<'a, M: BatteryModel> Search<'a, M> {
    /// Builds a search over `load` against a freshly reset `model`, with
    /// the scheduler's pruning configuration and a zero incumbent.
    fn new(
        config: &SystemConfig,
        load: &'a DiscretizedLoad,
        model: &'a mut M,
        scheduler: OptimalScheduler,
    ) -> Self {
        // The largest single draw of the load ahead, for the service
        // envelopes (a battery's recovery state may overshoot its
        // serviceable band by at most one draw).
        let max_units_per_draw =
            load.epochs().iter().map(DiscreteEpoch::units_per_draw).max().unwrap_or(0);
        model.reset();
        Search {
            model,
            epochs: load.epochs(),
            charge_unit: config.disc().charge_unit(),
            max_units_per_draw,
            budget: scheduler.budget,
            memoize: scheduler.memoize,
            dominance: scheduler.dominance,
            availability: scheduler.availability,
            relaxation: scheduler.relaxation,
            nodes: 0,
            memo_hits: 0,
            dominance_prunes: 0,
            charge_bound_prunes: 0,
            availability_bound_prunes: 0,
            relax_bound_prunes: 0,
            best_steps: 0,
            best_decisions: Vec::new(),
            current_decisions: Vec::new(),
            stack: Vec::new(),
            pool: Vec::new(),
            candidates: Vec::new(),
            avail: Vec::new(),
            envelopes: Vec::new(),
            cursors: Vec::new(),
            cursors_mark: Vec::new(),
            seen: FxMap::default(),
            fronts: FxMap::default(),
            front_entries: 0,
            column_builder: ColumnBuilder::default(),
            column_cache: FxMap::default(),
            columns_scratch: Vec::new(),
        }
    }
}

impl<M: BatteryModel> Search<'_, M> {
    /// Runs the depth-first exploration from the freshly reset model.
    fn explore(&mut self) -> Result<(), SchedError> {
        if !self.enter_position(0, 0, 0)? {
            return Ok(());
        }
        while let Some(top) = self.stack.last().copied() {
            let depth = self.stack.len() - 1;
            if top.next_candidate >= top.cand_end {
                self.stack.pop();
                self.candidates.truncate(top.cand_start);
                if depth > 0 {
                    self.current_decisions.pop();
                }
                continue;
            }
            let battery = self.candidates[top.next_candidate];
            self.stack[depth].next_candidate += 1;

            // Re-branch from the decision point and serve (a portion of) the
            // job on the chosen battery.
            let epoch = self.epochs[top.epoch_index];
            self.model.restore_state(&self.pool[depth]);
            let remaining = epoch.duration_steps() - top.offset;
            let advance = self.model.advance_job(
                battery,
                remaining,
                epoch.draw_interval_steps(),
                epoch.units_per_draw(),
            )?;
            let (child_epoch, child_offset) = if advance.completed {
                (top.epoch_index + 1, 0)
            } else {
                (top.epoch_index, top.offset + advance.steps_consumed)
            };
            let child_elapsed = top.elapsed + advance.steps_consumed;

            self.current_decisions.push(battery);
            if !self.enter_position(child_epoch, child_offset, child_elapsed)? {
                self.current_decisions.pop();
            }
        }
        Ok(())
    }

    /// Advances the model (which must hold the state for the given position)
    /// deterministically to the next decision point and, unless the position
    /// is a leaf or pruned, pushes a decision frame. Returns whether a frame
    /// was pushed.
    fn enter_position(
        &mut self,
        mut epoch_index: usize,
        mut offset: u64,
        mut elapsed: u64,
    ) -> Result<bool, SchedError> {
        // The system lifetime ends the moment the last battery is observed
        // empty — trailing idle time of the load does not count.
        if !self.model.any_available() {
            self.record_candidate(elapsed);
            return Ok(false);
        }
        // Advance deterministically (idle epochs) until the next decision.
        loop {
            let Some(epoch) = self.epochs.get(epoch_index) else {
                // The load ended before the batteries died; the schedule kept
                // the system alive for the whole (truncated) load.
                self.record_candidate(elapsed);
                return Ok(false);
            };
            if epoch.is_idle() {
                let steps = epoch.duration_steps() - offset;
                self.model.advance_idle(steps);
                elapsed += steps;
                epoch_index += 1;
                offset = 0;
            } else if offset >= epoch.duration_steps() {
                epoch_index += 1;
                offset = 0;
            } else {
                break;
            }
        }
        if !self.model.any_available() {
            self.record_candidate(elapsed);
            return Ok(false);
        }

        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(SchedError::SearchBudgetExceeded { budget: self.budget });
        }

        // Charge bound: even if every remaining unit of usable charge were
        // extractable, the load ahead limits how long the system can live.
        if elapsed + self.charge_bound(epoch_index, offset) <= self.best_steps {
            self.charge_bound_prunes += 1;
            return Ok(false);
        }
        // Availability bound: recovery dynamics limit how fast that charge
        // can actually be served. Evaluated only when the (cheaper) charge
        // bound fails to fire, so the split counters attribute each prune
        // to the weakest bound that achieves it.
        let margin = self.best_steps.saturating_sub(elapsed);
        // Whether the availability bound landed close enough to the
        // pruning margin that the (much costlier) relaxation bound has a
        // realistic chance of closing the rest of the gap. When the
        // availability walk survives past twice the margin, the relaxation
        // — empirically within ~15 % of it at the root — will not prune
        // either, so building columns there would be pure overhead.
        let mut relax_worthwhile = true;
        if self.availability {
            // Only walk past the margin (to the gate) when the relaxation
            // is on and the extra information is actually consumed.
            let gate = if self.relaxation { margin.saturating_mul(2) } else { margin };
            let bound = self.availability_bound(epoch_index, offset, gate);
            if elapsed.saturating_add(bound) <= self.best_steps {
                self.availability_bound_prunes += 1;
                return Ok(false);
            }
            relax_worthwhile = bound <= gate;
        }
        // Relaxation bound: exact per-battery service columns coupled only
        // through the shared demand. The most expensive bound, so it runs
        // last (and gated), and its counter attributes only the prunes the
        // cheaper bounds missed.
        if self.relaxation && relax_worthwhile {
            let bound = self.relax_bound(epoch_index, offset, margin);
            if elapsed.saturating_add(bound) <= self.best_steps {
                self.relax_bound_prunes += 1;
                return Ok(false);
            }
        }

        // Transposition table + dominance pruning. An earlier visit of the
        // same (or a component-wise at-least-as-good) canonical state at the
        // same load position with at least as much accumulated lifetime has
        // already explored — or soundly bound-pruned — every completion this
        // node could reach. Time always advances with the load, so two
        // visits of the same position in practice carry the same `elapsed`;
        // the comparison is kept for safety.
        if self.memoize || self.dominance {
            if let Some(key) = self.model.memo_key() {
                if self.memoize {
                    let under_cap = self.seen.len() < MAX_MEMO_ENTRIES;
                    match self.seen.entry((key, epoch_index, offset)) {
                        std::collections::hash_map::Entry::Occupied(mut entry) => {
                            if *entry.get() >= elapsed {
                                self.memo_hits += 1;
                                return Ok(false);
                            }
                            entry.insert(elapsed);
                        }
                        std::collections::hash_map::Entry::Vacant(entry) => {
                            if under_cap {
                                entry.insert(elapsed);
                            }
                        }
                    }
                }
                if self.dominance {
                    // Keys that dominate earlier entries evict them
                    // (dominance is transitive), so each front holds only
                    // Pareto-maximal expanded states, capped per position to
                    // bound the scan and globally to bound memory (beyond
                    // the global cap, existing fronts still prune but new
                    // positions are not recorded).
                    let front = if self.front_entries < MAX_FRONT_ENTRIES {
                        Some(self.fronts.entry((epoch_index, offset)).or_default())
                    } else {
                        self.fronts.get_mut(&(epoch_index, offset))
                    };
                    if let Some(front) = front {
                        let model: &M = self.model;
                        for (stored, stored_elapsed) in front.iter() {
                            if *stored_elapsed >= elapsed && model.key_dominates(stored, &key) {
                                self.dominance_prunes += 1;
                                return Ok(false);
                            }
                        }
                        let before = front.len();
                        front.retain(|(stored, stored_elapsed)| {
                            !(elapsed >= *stored_elapsed && model.key_dominates(&key, stored))
                        });
                        self.front_entries -= before - front.len();
                        if front.len() < MAX_STATES_PER_POSITION
                            && self.front_entries < MAX_FRONT_ENTRIES
                        {
                            front.push((key, elapsed));
                            self.front_entries += 1;
                        }
                    }
                }
            }
        }

        // Candidate batteries, deduplicated by identical state (symmetry)
        // and ordered by remaining charge (best first) so that good
        // incumbents are found early.
        self.model.available_into(&mut self.avail);
        let cand_start = self.candidates.len();
        for position in 0..self.avail.len() {
            let battery = self.avail[position];
            let duplicate = self.candidates[cand_start..]
                .iter()
                .any(|&other| self.model.states_identical(other, battery));
            if !duplicate {
                self.candidates.push(battery);
            }
        }
        {
            let model: &M = self.model;
            self.candidates[cand_start..]
                .sort_by(|&a, &b| model.charge(b).total.total_cmp(&model.charge(a).total));
        }

        let depth = self.stack.len();
        self.save_snapshot(depth);
        self.stack.push(Frame {
            epoch_index,
            offset,
            elapsed,
            cand_start,
            cand_end: self.candidates.len(),
            next_candidate: cand_start,
        });
        Ok(true)
    }

    /// Saves the model's current state into `pool[depth]`, allocating only
    /// when the pool has never been this deep before.
    fn save_snapshot(&mut self, depth: usize) {
        if depth == self.pool.len() {
            self.pool.push(self.model.save_state());
        } else {
            self.model.save_state_into(&mut self.pool[depth]);
        }
    }

    fn record_candidate(&mut self, elapsed: u64) {
        if elapsed > self.best_steps {
            self.best_steps = elapsed;
            self.best_decisions.clone_from(&self.current_decisions);
        }
    }

    /// Charge upper bound on the additional lifetime obtainable from this
    /// position: walk the remaining load; the system cannot survive past
    /// the point at which the load has requested more charge units than all
    /// usable batteries jointly hold.
    fn charge_bound(&self, epoch_index: usize, offset: u64) -> u64 {
        let mut units_left = dkibam::checked::f64_to_u64(
            ((self.model.usable_charge() + 1e-9) / self.charge_unit).floor().max(0.0),
        );
        let mut steps: u64 = 0;
        let mut offset = offset;
        for epoch in &self.epochs[epoch_index..] {
            let duration = epoch.duration_steps() - offset;
            offset = 0;
            if epoch.is_idle() {
                steps += duration;
                continue;
            }
            let interval = u64::from(epoch.draw_interval_steps());
            let draws_possible = duration / interval;
            let units_needed = draws_possible * u64::from(epoch.units_per_draw());
            if units_needed < units_left {
                units_left -= units_needed;
                steps += duration;
            } else {
                // The batteries run dry somewhere in this epoch.
                let draws_served = units_left / u64::from(epoch.units_per_draw());
                steps += (draws_served + 1).min(draws_possible) * interval;
                return steps;
            }
        }
        steps
    }

    /// Availability upper bound on the additional lifetime obtainable from
    /// this position. Every survived draw instant consumes its units from
    /// *some* battery, so the cumulative demand up to any draw instant can
    /// never exceed the fleet's joint service capability over that window
    /// — the sum of the per-battery recovery-coupled service envelopes
    /// ([`BatteryModel::service_envelope_into`]), each also paced by the
    /// demand delivered so far (a battery's recovery state only climbs by
    /// serving). The walk checks that necessary condition at the last draw
    /// of every remaining job epoch and, once it fails, locates the last
    /// coverable draw inside the failing epoch.
    ///
    /// Returns `u64::MAX` (no claim) when the backend cannot bound
    /// service, and may return early with any value above `limit` once the
    /// walk has survived past it (the caller only compares against
    /// `limit`, so the exact value no longer matters).
    fn availability_bound(&mut self, epoch_index: usize, offset: u64, limit: u64) -> u64 {
        let battery_count = self.model.battery_count();
        if battery_count > MAX_BOUND_BATTERIES {
            return u64::MAX;
        }
        if self.envelopes.len() < battery_count {
            self.envelopes.resize_with(battery_count, ServiceEnvelope::new);
        }
        let mut tables: [Option<&ServiceRateTable>; MAX_BOUND_BATTERIES] =
            [None; MAX_BOUND_BATTERIES];
        for (battery, slot) in tables.iter_mut().enumerate().take(battery_count) {
            match self.model.service_envelope_into(
                battery,
                self.max_units_per_draw,
                &mut self.envelopes[battery],
            ) {
                Some(table) => *slot = Some(table),
                None => return u64::MAX,
            }
        }
        self.cursors.clear();
        self.cursors.resize(battery_count, EnvelopeCursor::default());
        let envelopes = &self.envelopes;
        let cursors = &mut self.cursors;
        let marks = &mut self.cursors_mark;
        let fleet_units = |cursors: &mut [EnvelopeCursor], window: u64, demand: u64| -> u64 {
            let mut total: u64 = 0;
            for battery in 0..battery_count {
                // xlint: allow(panic) -- every index was populated in the loop above
                let table = tables[battery].expect("all envelope tables were filled above");
                #[cfg(debug_assertions)]
                let cursor_before = cursors[battery];
                total = total.saturating_add(table.units_within(
                    &envelopes[battery],
                    &mut cursors[battery],
                    window,
                    demand,
                ));
                // Cursor monotonicity: the availability walk queries windows
                // and demands in non-decreasing order, so a cursor only
                // advances; the only rewind is the explicit `marks` restore.
                #[cfg(debug_assertions)]
                debug_assert!(
                    cursor_before <= cursors[battery],
                    "envelope cursor moved backwards inside the walk"
                );
            }
            total
        };

        let mut demand: u64 = 0;
        let mut steps: u64 = 0;
        let mut offset = offset;
        for epoch in &self.epochs[epoch_index..] {
            let duration = epoch.duration_steps() - offset;
            offset = 0;
            if epoch.is_idle() {
                steps += duration;
                continue;
            }
            if steps > limit {
                // The walk has already survived past the pruning margin;
                // the caller cannot use a larger bound, so stop walking.
                return steps;
            }
            let interval = u64::from(epoch.draw_interval_steps());
            let units = u64::from(epoch.units_per_draw());
            let draws_possible = duration / interval;
            let epoch_demand = demand + draws_possible * units;
            // The binding check sits at the epoch's last draw instant:
            // demand peaks there while the envelopes keep growing through
            // the idle time that follows. The cursor snapshot lets the
            // death scan below rewind to the epoch's start.
            marks.clone_from(cursors);
            if epoch_demand <= fleet_units(cursors, steps + draws_possible * interval, epoch_demand)
            {
                demand = epoch_demand;
                steps += duration;
                continue;
            }
            // The fleet cannot cover this epoch: the system dies at (or
            // before) the first uncoverable draw. Envelopes regenerate
            // stepwise, so scan for the last draw whose cumulative demand
            // still fits.
            cursors.clone_from(marks);
            let mut draws_served = 0;
            for draw in 1..=draws_possible {
                let at_draw = demand + draw * units;
                if at_draw <= fleet_units(cursors, steps + draw * interval, at_draw) {
                    draws_served = draw;
                }
            }
            return steps + (draws_served + 1).min(draws_possible) * interval;
        }
        steps
    }

    /// Flow relaxation bound on the additional lifetime obtainable
    /// from this position. It drops only the "one battery per draw"
    /// coupling: battery `i`'s cumulative service through job epoch `e` is
    /// bounded by its *exact* best-case column `columns[i][e]` (the
    /// serve/skip DP of [`ColumnBuilder`], which prices every recovery the
    /// battery would actually need), and the fleet jointly covers each
    /// epoch's demand. Because the columns are cumulative, the optimum of
    /// that transportation relaxation has a closed-form min cut, and the
    /// demand walk uses its epoch form directly: the system dies in the
    /// first epoch whose cumulative demand exceeds the summed column
    /// capacities, and the last coverable draw inside that epoch follows
    /// from the remaining unit budget. `tests/relaxation_reference.rs`
    /// checks the walk against a max-flow solve of the same network.
    ///
    /// A column entry depends only on the epochs up to it, so a build
    /// truncated at the walk's early-exit horizon (the first job epoch
    /// starting past `limit`) produces exactly the entries the walk can
    /// read — deep nodes with small margins build short, cheap prefixes.
    /// Cached prefixes are keyed by `(type, state word, position)` — the
    /// key is limit-independent — and extended in place when a later visit
    /// (e.g. after the incumbent improved) needs a longer prefix, so
    /// revisits of a battery state solved at the parent (or any
    /// transposition) re-use the parent's columns instead of re-running
    /// the DP.
    ///
    /// Returns `u64::MAX` (no claim) when the backend cannot provide
    /// column inputs, and may return early with any value above `limit`
    /// once the walk has survived past it.
    fn relax_bound(&mut self, epoch_index: usize, offset: u64, limit: u64) -> u64 {
        let battery_count = self.model.battery_count();
        if battery_count == 0 || battery_count > MAX_BOUND_BATTERIES {
            return u64::MAX;
        }
        // The build horizon: `needed` job-epoch entries, covered by the
        // first `span` timeline epochs. Mirrors the walk below exactly —
        // each job epoch is counted iff the walk would reach its check.
        let mut needed = 0usize;
        let mut span = 0usize;
        {
            let mut steps_ahead: u64 = 0;
            let mut walk_offset = offset;
            for (index, epoch) in self.epochs[epoch_index..].iter().enumerate() {
                let duration = epoch.duration_steps() - walk_offset;
                walk_offset = 0;
                if !epoch.is_idle() {
                    if steps_ahead > limit {
                        break;
                    }
                    needed += 1;
                    span = index + 1;
                }
                steps_ahead += duration;
            }
        }
        if self.columns_scratch.len() < battery_count {
            self.columns_scratch.resize_with(battery_count, ServiceColumn::default);
        }
        let mut keys = [(0usize, 0u128, 0usize, 0u64); MAX_BOUND_BATTERIES];
        let mut from_scratch = [false; MAX_BOUND_BATTERIES];
        let mut alive: u64 = 0;
        for battery in 0..battery_count {
            let Some((state, params, recovery)) = self.model.column_inputs(battery) else {
                return u64::MAX;
            };
            alive += u64::from(!state.is_observed_empty());
            let key = (self.model.type_of(battery), state.state_word(), epoch_index, offset);
            keys[battery] = key;
            if self.column_cache.get(&key).is_some_and(|cached| cached.len() >= needed) {
                continue;
            }
            self.column_builder.build(
                state,
                params,
                recovery,
                &self.epochs[epoch_index..epoch_index + span],
                offset,
                &mut self.columns_scratch[battery],
            );
            let under_cap = self.column_cache.len() < MAX_COLUMN_CACHE_ENTRIES;
            match self.column_cache.get_mut(&key) {
                // Extending an existing prefix never adds an entry, so it
                // is allowed even at the cache cap.
                Some(cached) => cached.clone_from_column(&self.columns_scratch[battery]),
                None if under_cap => {
                    self.column_cache.insert(key, self.columns_scratch[battery].clone());
                }
                None => from_scratch[battery] = true,
            }
        }
        let empty = ServiceColumn::default();
        let mut columns: [&ServiceColumn; MAX_BOUND_BATTERIES] = [&empty; MAX_BOUND_BATTERIES];
        for battery in 0..battery_count {
            columns[battery] = if from_scratch[battery] {
                &self.columns_scratch[battery]
            } else {
                self.column_cache.get(&keys[battery]).unwrap_or(&empty)
            };
        }
        // Flat extension of a cumulative column past its end (the prefix
        // build covers every epoch the walk can reach before its early
        // exit, so this is defensive only).
        let entry = |column: &[u64], index: usize| {
            column.get(index).or_else(|| column.last()).copied().unwrap_or(0)
        };

        let mut cumulative_demand: u64 = 0;
        let mut whole_epochs: u64 = 0;
        let mut steps: u64 = 0;
        let mut offset = offset;
        let mut job_epoch = 0usize;
        for epoch in &self.epochs[epoch_index..] {
            let whole = offset == 0;
            let duration = epoch.duration_steps() - offset;
            offset = 0;
            if epoch.is_idle() {
                steps += duration;
                continue;
            }
            if steps > limit {
                return steps;
            }
            let interval = u64::from(epoch.draw_interval_steps());
            let units = u64::from(epoch.units_per_draw());
            let draws_possible = duration / interval;
            let epoch_demand = draws_possible * units;
            let capacity: u64 = columns[..battery_count]
                .iter()
                .map(|column| entry(&column.units, job_epoch))
                .fold(0, u64::saturating_add);
            let mut death: Option<u64> = None;
            if cumulative_demand.saturating_add(epoch_demand) > capacity {
                // The relaxed fleet dies in this epoch: it can cover
                // `capacity − cumulative_demand` more units, i.e. that many
                // whole draws, and survives one draw interval past the last
                // covered draw (or to the first draw, if none).
                let draws_served = capacity.saturating_sub(cumulative_demand) / units;
                death = Some(steps + (draws_served + 1).min(draws_possible) * interval);
            }
            // Serialization cut: of the `whole_epochs` whole job epochs so
            // far, at most `alive` can be split between batteries (every
            // mid-epoch handoff consumes one of the remaining deaths); the
            // rest must each be served whole by a single battery, and
            // `Σ full_epochs` caps how many whole serves the fleet has.
            // The fractional LP may still split a whole serve across
            // batteries, so this is the relaxation's integral face — it is
            // what keeps the bound from degenerating to the charge budget
            // on fresh fleets, where per-unit capacity is plentiful but
            // serialized epoch coverage is not.
            if whole && epoch_demand > 0 {
                whole_epochs += 1;
                let full_serves: u64 = columns[..battery_count]
                    .iter()
                    .map(|column| entry(&column.full_epochs, job_epoch))
                    .fold(0, u64::saturating_add);
                if whole_epochs.saturating_sub(alive) > full_serves {
                    // Some prior whole epoch cannot be fully covered; the
                    // system dies by this epoch's last draw at the latest.
                    let at_last_draw = steps + draws_possible * interval;
                    death = Some(death.map_or(at_last_draw, |d| d.min(at_last_draw)));
                }
            }
            if let Some(death) = death {
                return death;
            }
            cumulative_demand += epoch_demand;
            steps += duration;
            job_epoch += 1;
        }
        steps
    }

    /// Simulates every deterministic policy from the fresh fleet, installs
    /// the best lifetime as the incumbent (which makes the bounds maximally
    /// effective from the first node) and resets the model for the
    /// exploration. Returns the label of the policy that set the incumbent.
    fn warm_start(
        &mut self,
        config: &SystemConfig,
        load: &DiscretizedLoad,
    ) -> Result<Option<&'static str>, SchedError> {
        let mut seeded_by = None;
        for (name, policy) in [
            ("sequential", &mut Sequential::new() as &mut dyn SchedulingPolicy),
            ("round robin", &mut RoundRobin::new()),
            ("best of two", &mut BestAvailable::new()),
            ("capacity-weighted round robin", &mut CapacityWeightedRoundRobin::new()),
        ] {
            let outcome = simulate_policy_with(config, load, policy, self.model)?;
            if let Some(steps) = outcome.lifetime_steps().filter(|&steps| steps > self.best_steps) {
                self.best_steps = steps;
                self.best_decisions = outcome.schedule().decisions();
                seeded_by = Some(name);
            }
        }
        self.model.reset();
        Ok(seeded_by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestAvailable, FixedSchedule, RoundRobin};
    use crate::system::simulate_policy;
    use dkibam::Discretization;
    use kibam::BatteryParams;
    use workload::builder::LoadProfileBuilder;
    use workload::paper_loads::TestLoad;

    /// A coarse two-battery configuration that keeps the exhaustive search
    /// small enough for unit tests while preserving the model behaviour.
    fn coarse_config() -> SystemConfig {
        SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 2).unwrap()
    }

    #[test]
    fn optimal_never_loses_to_deterministic_policies() {
        let config = coarse_config();
        for load in [TestLoad::Cl500, TestLoad::IlsAlt, TestLoad::Ils500] {
            let optimal = OptimalScheduler::new().find_optimal(&config, &load.profile()).unwrap();
            for policy in
                [&mut RoundRobin::new() as &mut dyn SchedulingPolicy, &mut BestAvailable::new()]
            {
                let outcome = simulate_policy(&config, &load.profile(), policy).unwrap();
                assert!(
                    optimal.lifetime_steps >= outcome.lifetime_steps().unwrap(),
                    "{load}: optimal must dominate {}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn optimal_schedule_is_replayable() {
        let config = coarse_config();
        let load = TestLoad::IlsAlt.profile();
        let optimal = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        let mut replay = FixedSchedule::new(optimal.decisions.clone());
        let outcome = simulate_policy(&config, &load, &mut replay).unwrap();
        assert_eq!(outcome.lifetime_steps(), Some(optimal.lifetime_steps));
    }

    #[test]
    fn optimal_improves_on_round_robin_for_alternating_load() {
        // Table 5: the optimal schedule beats round robin by ~32 % on
        // ILs alt; the coarse discretization preserves a clear gap.
        let config = coarse_config();
        let load = TestLoad::IlsAlt.profile();
        let optimal = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        let rr = simulate_policy(&config, &load, &mut RoundRobin::new())
            .unwrap()
            .lifetime_steps()
            .unwrap();
        assert!(
            optimal.lifetime_steps as f64 >= rr as f64 * 1.15,
            "optimal {} vs round robin {rr}",
            optimal.lifetime_steps
        );
    }

    #[test]
    fn memoized_search_matches_the_reference_search() {
        let config = coarse_config();
        for load in [TestLoad::Cl500, TestLoad::IlsAlt] {
            let pruned = OptimalScheduler::new().find_optimal(&config, &load.profile()).unwrap();
            let reference =
                OptimalScheduler::reference().find_optimal(&config, &load.profile()).unwrap();
            assert_eq!(
                pruned.lifetime_steps, reference.lifetime_steps,
                "{load}: pruning must not change the optimum"
            );
            assert!(
                pruned.nodes_explored <= reference.nodes_explored,
                "{load}: pruning must not grow the search ({} vs {})",
                pruned.nodes_explored,
                reference.nodes_explored
            );
        }
    }

    #[test]
    fn pruning_counters_are_reported() {
        let config = coarse_config();
        // ILs 250 drains slowly, so its deep search has many converging
        // histories (ILs alt on two batteries has none after symmetry
        // pruning — see the module docs).
        let load = TestLoad::Ils250.profile();
        let pruned = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        assert!(pruned.memo_hits > 0, "the slow-drain load revisits states");
        assert!(pruned.dominance_prunes > 0, "expanded states dominate later siblings");
        let reference = OptimalScheduler::reference().find_optimal(&config, &load).unwrap();
        assert_eq!(reference.memo_hits, 0);
        assert_eq!(reference.dominance_prunes, 0);
        assert!(
            pruned.nodes_explored * 5 <= reference.nodes_explored,
            "pruning shrinks the deep search at least 5x ({} vs {})",
            pruned.nodes_explored,
            reference.nodes_explored
        );
        assert_eq!(pruned.lifetime_steps, reference.lifetime_steps);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let config = coarse_config();
        let result =
            OptimalScheduler::with_budget(1).find_optimal(&config, &TestLoad::Ils250.profile());
        assert!(matches!(result, Err(SchedError::SearchBudgetExceeded { budget: 1 })));
    }

    #[test]
    fn single_battery_optimal_equals_single_battery_simulation() {
        let config =
            SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), 1).unwrap();
        let load = TestLoad::Cl500.profile();
        let optimal = OptimalScheduler::new().find_optimal(&config, &load).unwrap();
        let only_choice = simulate_policy(&config, &load, &mut RoundRobin::new())
            .unwrap()
            .lifetime_steps()
            .unwrap();
        assert_eq!(optimal.lifetime_steps, only_choice);
    }

    #[test]
    fn load_too_short_to_kill_batteries_reports_full_duration() {
        let config = coarse_config();
        // A finite load of two 500 mA jobs: both batteries easily survive.
        let profile =
            LoadProfileBuilder::new().job(0.5, 1.0).idle(1.0).job(0.5, 1.0).build_finite().unwrap();
        let optimal = OptimalScheduler::new().find_optimal(&config, &profile).unwrap();
        let total_steps = config.disc().minutes_to_steps(3.0);
        assert_eq!(optimal.lifetime_steps, total_steps);
    }

    #[test]
    fn continuous_backend_search_dominates_and_replays() {
        let config = coarse_config();
        let load = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
        let mut model = config.continuous_model();
        let optimal =
            OptimalScheduler::new().find_optimal_with(&config, &load, &mut model).unwrap();

        // The continuous backend has no memo key, so the table never fires.
        assert_eq!(optimal.memo_hits, 0);

        // Dominates the deterministic policies on the same backend.
        for policy in
            [&mut RoundRobin::new() as &mut dyn SchedulingPolicy, &mut BestAvailable::new()]
        {
            let outcome =
                crate::system::simulate_policy_with(&config, &load, policy, &mut model).unwrap();
            assert!(optimal.lifetime_steps >= outcome.lifetime_steps().unwrap());
        }

        // And the decision sequence replays to the same lifetime.
        let mut replay = FixedSchedule::new(optimal.decisions.clone());
        let outcome =
            crate::system::simulate_policy_with(&config, &load, &mut replay, &mut model).unwrap();
        assert_eq!(outcome.lifetime_steps(), Some(optimal.lifetime_steps));
    }

    #[test]
    fn continuous_and_discretized_optima_agree_on_coarse_grid() {
        let config = coarse_config();
        let load = config.discretize(&TestLoad::Cl500.profile()).unwrap();
        let discrete = OptimalScheduler::new().find_optimal_on(&config, &load).unwrap();
        let mut model = config.continuous_model();
        let continuous =
            OptimalScheduler::new().find_optimal_with(&config, &load, &mut model).unwrap();
        let a = discrete.lifetime_steps as f64;
        let b = continuous.lifetime_steps as f64;
        assert!((a - b).abs() / b < 0.06, "discrete {a} vs continuous {b} steps");
    }
}
