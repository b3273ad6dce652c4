//! Exact single-battery service columns over a load's draw-slot timeline.
//!
//! The relaxation bound of the optimal search (see `battery-sched`) treats
//! the fleet as a transportation problem: battery `i` may serve at most
//! `column[i][e]` charge units among the job epochs `0..=e`, and the load
//! demands its draws per epoch. This module computes
//! those per-battery **columns exactly** with a dynamic program over the
//! battery's real discrete dynamics — the ROADMAP's "exact single-battery
//! DP over the load's draw-slot timeline", shipped as the bound's column
//! generator.
//!
//! At every draw slot a battery either serves the draw or recovers through
//! it (another battery serving); the DP carries a Pareto front of
//! `(battery state, units served, epoch phase)` traces over the serve/skip
//! tree. Crucially the serve/skip freedom is **per-epoch contiguous**, not
//! per-draw: the search's decision points are job-epoch starts and battery
//! deaths only (`advance_job` returns `completed: false` solely on an
//! emptiness observation, never for a voluntary switch), so within one job
//! epoch a real battery serves exactly one contiguous run of draws —
//! whole epoch, or a segment bounded by its own or another battery's
//! death. The DP enforces this with a three-phase flag per trace that
//! resets at every job-epoch boundary (`Idle` → may start a run;
//! `Serving` → may continue or stop for good; `Done` → recovers through
//! the epoch's remaining draws), which forbids the cherry-picking of
//! alternate draws that made the unconstrained column degenerate to the
//! charge budget on fresh fleets:
//!
//! * a trace whose battery state dominates another's
//!   ([`DiscreteBattery::dominates`]) with at least as many units served
//!   *and* at least as much in-epoch freedom (`Idle ⊃ Serving ⊃ Done` in
//!   continuation options) makes the other redundant — every continuation
//!   is weakly better;
//! * retirement (a post-draw emptiness observation — the killing draw's
//!   units still count, exactly as in [`crate::multi`]) collapses a trace
//!   to the scalar "most units any retired trace served";
//! * a battery that starts at (or recovers into) the Eq. 8 emptiness
//!   region without being *observed* empty simply skips draws until
//!   recovery lifts it back out, again exactly as the real dynamics do.
//!
//! With an unbounded front the DP is exact (asserted against exhaustive
//! serve/skip enumeration in this module's tests). Production callers cap
//! the front: when it overflows, the lowest-served traces are merged into
//! one **super-state** (max charge, min height difference, max recovery
//! clock, max served) that dominates each of them, so a capped column can
//! only over-count — an admissible upper bound, never an undercount.
//! Idle epochs and post-draw remainders advance in O(1) bulk recovery
//! ([`RecoveryTable::skip`]); the column records one cumulative entry per
//! job epoch, evaluated at the epoch's last draw instant.

use crate::{DiscreteBattery, DiscreteEpoch, RecoveryTable};
use kibam::BatteryParams;

/// Default Pareto-front cap used by the search's relaxation bound. On the
/// paper's alternating full-horizon timelines the uncapped front peaks
/// near ~85 traces and a cap of 64 reproduces the uncapped column exactly,
/// while a small cap (e.g. 12) inflates the tail ~2× through repeated
/// super-state merges; 64 keeps the column exact there at an acceptable
/// build cost (columns are cached by the search).
pub const DEFAULT_FRONT_CAP: usize = 64;

/// A battery's per-epoch service capacities: for each job epoch `e`,
/// `units[e]` is the most charge units the battery could serve among the
/// draws of job epochs `0..=e`, and `full_epochs[e]` is the most of those
/// epochs it could serve *in their entirety* (every draw, first to last).
/// Both are cumulative. The full-epoch column feeds the relaxation
/// bound's serialization constraint: a fleet of `B` batteries covering
/// `E` whole job epochs must serve at least `E − deaths` of them with a
/// single battery each (a handoff mid-epoch requires a death), so
/// `Σ_i full_epochs[i][e]` bounds how deep the fleet can survive no
/// matter how the charge budget looks.
#[derive(Debug, Clone, Default)]
pub struct ServiceColumn {
    /// Cumulative serveable charge units per job epoch.
    pub units: Vec<u64>,
    /// Cumulative fully-serveable job epochs per job epoch.
    pub full_epochs: Vec<u64>,
}

impl ServiceColumn {
    /// Number of job-epoch entries (both columns always agree).
    #[must_use]
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the column holds no entries yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    fn clear(&mut self) {
        self.units.clear();
        self.full_epochs.clear();
    }

    /// Copies `other`'s entries into `self`, reusing the allocations.
    pub fn clone_from_column(&mut self, other: &Self) {
        self.units.clone_from(&other.units);
        self.full_epochs.clone_from(&other.full_epochs);
    }
}

/// Where a trace stands in the current job epoch's single contiguous
/// serve-run. Ordered by in-epoch freedom: every continuation available
/// to a `Done` trace (skip the epoch's remaining draws) is available to a
/// `Serving` one (which may also keep serving), and every continuation of
/// `Serving` is available to `Idle` (which may also wait and start its
/// run later). The flag resets to `Idle` at each job-epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Stopped serving this epoch (its run ended): may only recover.
    Done,
    /// Mid-run: may serve the next draw or stop for the epoch.
    Serving,
    /// Has not served this epoch: may skip freely or start its run.
    Idle,
}

/// One serve/skip hypothesis of the units DP: a reachable battery state
/// together with the units it has served so far and its in-epoch run
/// phase.
#[derive(Debug, Clone, Copy)]
struct Trace {
    battery: DiscreteBattery,
    served: u64,
    phase: Phase,
}

/// Whether trace `a` makes trace `b` redundant: at least as many units
/// served from a battery state that dominates (reflexively) `b`'s, with
/// at least as much in-epoch freedom left.
fn trace_dominates(a: &Trace, b: &Trace) -> bool {
    a.served >= b.served && a.phase >= b.phase && a.battery.dominates(&b.battery)
}

/// One hypothesis of the full-epoch DP: a reachable battery state
/// together with the number of job epochs it has served whole. This DP
/// branches per **epoch** (serve it whole or skip it whole), not per
/// draw: a partial in-epoch run costs charge and recovery without ever
/// earning the credit, so it is dominated by skipping — the binary
/// branching loses no maxima.
#[derive(Debug, Clone, Copy)]
struct EpochTrace {
    battery: DiscreteBattery,
    epochs: u64,
}

/// Whether epoch-trace `a` makes epoch-trace `b` redundant.
fn epoch_trace_dominates(a: &EpochTrace, b: &EpochTrace) -> bool {
    a.epochs >= b.epochs && a.battery.dominates(&b.battery)
}

/// Reusable builder of exact per-battery service columns. Holds the trace
/// arenas so repeated builds (one per battery per search node, cached by
/// the caller) do not allocate in steady state.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    front: Vec<Trace>,
    next: Vec<Trace>,
    epoch_front: Vec<EpochTrace>,
    epoch_next: Vec<EpochTrace>,
    cap: usize,
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new(DEFAULT_FRONT_CAP)
    }
}

impl ColumnBuilder {
    /// Creates a builder whose Pareto front is capped at `cap` traces
    /// (minimum 1). Columns built with a finite cap are admissible upper
    /// bounds; `usize::MAX` keeps the DP exact.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            front: Vec::new(),
            next: Vec::new(),
            epoch_front: Vec::new(),
            epoch_next: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Fills `out` with the battery's cumulative service column over
    /// `epochs`: one entry per **job** epoch (idle epochs only contribute
    /// recovery time), `out.units[e]` = the most charge units the battery
    /// could serve among the draw slots of job epochs `0..=e`, evaluated
    /// at epoch `e`'s last draw instant, and `out.full_epochs[e]` = the
    /// most of those epochs it could serve whole. `first_epoch_offset`
    /// steps of `epochs[0]` have already elapsed (the search's mid-epoch
    /// position; always a multiple of the draw interval there), which
    /// also disqualifies `epochs[0]` from full-serve credit — a death
    /// already split it.
    pub fn build(
        &mut self,
        battery: DiscreteBattery,
        params: &BatteryParams,
        recovery: &RecoveryTable,
        epochs: &[DiscreteEpoch],
        first_epoch_offset: u64,
        out: &mut ServiceColumn,
    ) {
        out.clear();
        self.front.clear();
        self.epoch_front.clear();
        let mut best_retired: u64 = 0;
        let mut best_retired_epochs: u64 = 0;
        // Hard cap on every emission: a battery holding `n` charge units
        // can never serve more than `n`, whatever the capped front's merged
        // super-states claim (the merge takes the max charge of one trace
        // and the max served of another, so long timelines can inflate a
        // super-state's `served` past the physical budget).
        let charge_cap = u64::from(battery.charge_units());
        if !battery.is_observed_empty() {
            // `Idle` also covers the search's mid-epoch positions
            // (`first_epoch_offset > 0`): those follow a battery death,
            // and a battery still alive there cannot have served earlier
            // in the epoch — it would have kept serving to the epoch's
            // end or died.
            self.front.push(Trace { battery, served: 0, phase: Phase::Idle });
            self.epoch_front.push(EpochTrace { battery, epochs: 0 });
        }
        let mut offset = first_epoch_offset;
        for epoch in epochs {
            let whole = offset == 0;
            let duration = epoch.duration_steps().saturating_sub(offset);
            offset = 0;
            if epoch.is_idle() {
                for trace in &mut self.front {
                    trace.battery.advance_recovery(duration, recovery);
                }
                for trace in &mut self.epoch_front {
                    trace.battery.advance_recovery(duration, recovery);
                }
                continue;
            }
            let interval = u64::from(epoch.draw_interval_steps());
            let units = epoch.units_per_draw();
            let draws = duration / interval;
            if self.front.is_empty() && self.epoch_front.is_empty() {
                // Every hypothesis has retired: the column is flat from
                // here on, no matter how many epochs remain.
                out.units.push(best_retired.min(charge_cap));
                out.full_epochs.push(best_retired_epochs);
                continue;
            }
            for _ in 0..draws {
                self.next.clear();
                for slot in 0..self.front.len() {
                    let trace = self.front[slot];
                    let mut recovered = trace.battery;
                    recovered.advance_recovery(interval, recovery);
                    // Skip branch: another battery serves this draw. A
                    // trace mid-run that skips has ended its contiguous
                    // run — it may not serve again this epoch.
                    let skipped = match trace.phase {
                        Phase::Idle => Phase::Idle,
                        Phase::Serving | Phase::Done => Phase::Done,
                    };
                    insert(
                        &mut self.next,
                        Trace { battery: recovered, served: trace.served, phase: skipped },
                    );
                    // Serve branch: only a currently non-empty battery
                    // whose run is open (starting or mid-run) can serve;
                    // a post-draw emptiness observation retires the trace
                    // with the killing draw's units counted.
                    if trace.phase != Phase::Done && !recovered.is_empty(params) {
                        let mut serving = recovered;
                        serving.draw(units);
                        let served = trace.served + u64::from(units);
                        if serving.is_empty(params) {
                            best_retired = best_retired.max(served);
                        } else {
                            insert(
                                &mut self.next,
                                Trace { battery: serving, served, phase: Phase::Serving },
                            );
                        }
                    }
                }
                std::mem::swap(&mut self.front, &mut self.next);
                self.enforce_cap();
            }
            let peak = self.front.iter().map(|t| t.served).max().unwrap_or(0).max(best_retired);
            out.units.push(peak.min(charge_cap));
            // The epoch is over: every run closes and the next epoch is a
            // fresh contiguity choice. Traces that differed only in phase
            // collapse here, shrinking the front.
            self.next.clear();
            for slot in 0..self.front.len() {
                let mut trace = self.front[slot];
                trace.phase = Phase::Idle;
                insert(&mut self.next, trace);
            }
            std::mem::swap(&mut self.front, &mut self.next);
            let remainder = duration - draws * interval;
            if remainder > 0 {
                for trace in &mut self.front {
                    trace.battery.advance_recovery(remainder, recovery);
                }
            }

            // The full-epoch DP branches once per epoch: skip it whole
            // (pure recovery) or — for whole epochs with draws — serve it
            // whole, which succeeds only if the battery survives every
            // draw (dying on the final draw still completes the epoch,
            // exactly as the real dynamics count the killing draw).
            self.epoch_next.clear();
            for slot in 0..self.epoch_front.len() {
                let trace = self.epoch_front[slot];
                let mut skipping = trace.battery;
                skipping.advance_recovery(duration, recovery);
                insert_epoch(
                    &mut self.epoch_next,
                    EpochTrace { battery: skipping, epochs: trace.epochs },
                );
                if whole && draws > 0 {
                    let mut serving = trace.battery;
                    let mut outcome = FullServe::Completed;
                    for draw in 0..draws {
                        serving.advance_recovery(interval, recovery);
                        if serving.is_empty(params) {
                            // Pre-draw death: the draw goes unserved.
                            outcome = FullServe::Died;
                            break;
                        }
                        serving.draw(units);
                        if serving.is_empty(params) {
                            outcome = if draw + 1 == draws {
                                FullServe::CompletedAndDied
                            } else {
                                FullServe::Died
                            };
                            break;
                        }
                    }
                    match outcome {
                        FullServe::Completed => {
                            serving.advance_recovery(remainder, recovery);
                            insert_epoch(
                                &mut self.epoch_next,
                                EpochTrace { battery: serving, epochs: trace.epochs + 1 },
                            );
                        }
                        FullServe::CompletedAndDied => {
                            best_retired_epochs = best_retired_epochs.max(trace.epochs + 1);
                        }
                        FullServe::Died => {
                            best_retired_epochs = best_retired_epochs.max(trace.epochs);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.epoch_front, &mut self.epoch_next);
            self.enforce_epoch_cap();
            let peak_epochs = self
                .epoch_front
                .iter()
                .map(|t| t.epochs)
                .max()
                .unwrap_or(0)
                .max(best_retired_epochs);
            out.full_epochs.push(peak_epochs);
        }
        debug_assert!(out.units.windows(2).all(|w| w[0] <= w[1]), "columns must be cumulative");
        debug_assert!(
            out.full_epochs.windows(2).all(|w| w[0] <= w[1]),
            "full-epoch columns must be cumulative"
        );
        debug_assert_eq!(out.units.len(), out.full_epochs.len());
    }

    /// Caps the Pareto front: the traces beyond the cap (lowest served
    /// first) are merged into one super-state — max charge, min height
    /// difference, max recovery clock, max served — which dominates each
    /// of them, so capping can only widen the column upward.
    fn enforce_cap(&mut self) {
        if self.front.len() <= self.cap {
            return;
        }
        // Deterministic order: most-served (then smallest state word)
        // first, so the exact hypotheses kept are the most promising ones.
        self.front.sort_unstable_by(|a, b| {
            b.served.cmp(&a.served).then(a.battery.state_word().cmp(&b.battery.state_word()))
        });
        let tail = self.front.split_off(self.cap - 1);
        let mut charge = 0u32;
        let mut height = u32::MAX;
        let mut clock = 0u64;
        let mut served = 0u64;
        let mut phase = Phase::Done;
        for trace in &tail {
            charge = charge.max(trace.battery.charge_units());
            height = height.min(trace.battery.height_units());
            clock = clock.max(trace.battery.recovery_clock());
            served = served.max(trace.served);
            phase = phase.max(trace.phase);
        }
        let merged = Trace {
            battery: DiscreteBattery::from_raw_parts(charge, height, clock, false),
            served,
            phase,
        };
        debug_assert!(tail.iter().all(|t| trace_dominates(&merged, t)));
        insert(&mut self.front, merged);
    }

    /// Caps the full-epoch DP's front the same way (fewest epochs merged
    /// into a dominating super-state). The epoch front grows by at most
    /// one trace per job epoch, so the cap rarely binds.
    fn enforce_epoch_cap(&mut self) {
        if self.epoch_front.len() <= self.cap {
            return;
        }
        self.epoch_front.sort_unstable_by(|a, b| {
            b.epochs.cmp(&a.epochs).then(a.battery.state_word().cmp(&b.battery.state_word()))
        });
        let tail = self.epoch_front.split_off(self.cap - 1);
        let mut charge = 0u32;
        let mut height = u32::MAX;
        let mut clock = 0u64;
        let mut epochs = 0u64;
        for trace in &tail {
            charge = charge.max(trace.battery.charge_units());
            height = height.min(trace.battery.height_units());
            clock = clock.max(trace.battery.recovery_clock());
            epochs = epochs.max(trace.epochs);
        }
        let merged = EpochTrace {
            battery: DiscreteBattery::from_raw_parts(charge, height, clock, false),
            epochs,
        };
        debug_assert!(tail.iter().all(|t| epoch_trace_dominates(&merged, t)));
        insert_epoch(&mut self.epoch_front, merged);
    }
}

/// How a whole-epoch serve attempt of the full-epoch DP ended.
enum FullServe {
    /// Every draw served, battery alive.
    Completed,
    /// Every draw served, but the killing last draw emptied the battery.
    CompletedAndDied,
    /// The battery died before covering the epoch.
    Died,
}

/// Inserts `candidate` into the Pareto front unless a present trace makes
/// it redundant; evicts the traces it makes redundant.
fn insert(traces: &mut Vec<Trace>, candidate: Trace) {
    if traces.iter().any(|t| trace_dominates(t, &candidate)) {
        return;
    }
    traces.retain(|t| !trace_dominates(&candidate, t));
    traces.push(candidate);
}

/// [`insert`] for the full-epoch DP's front.
fn insert_epoch(traces: &mut Vec<EpochTrace>, candidate: EpochTrace) {
    if traces.iter().any(|t| epoch_trace_dominates(t, &candidate)) {
        return;
    }
    traces.retain(|t| !epoch_trace_dominates(&candidate, t));
    traces.push(candidate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Discretization;

    fn b1_coarse() -> (BatteryParams, Discretization, RecoveryTable) {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::coarse();
        let recovery = RecoveryTable::for_battery(&params, &disc);
        (params, disc, recovery)
    }

    /// Exhaustive serve/skip enumeration over `slots` draw instants spaced
    /// `interval` steps within a single job epoch (the ground truth of
    /// the DP; mirrors the real dynamics of `advance_job` including
    /// sticky retirement and the one-contiguous-run-per-epoch shape of
    /// the search's decision space).
    fn max_served(
        battery: DiscreteBattery,
        params: &BatteryParams,
        recovery: &RecoveryTable,
        interval: u64,
        units: u32,
        slots: u32,
        phase: Phase,
    ) -> u64 {
        if slots == 0 {
            return 0;
        }
        let mut stepped = battery;
        stepped.advance_recovery(interval, recovery);
        let skipped = if phase == Phase::Idle { Phase::Idle } else { Phase::Done };
        let mut best = max_served(stepped, params, recovery, interval, units, slots - 1, skipped);
        if phase != Phase::Done && !stepped.is_empty(params) {
            let mut serving = stepped;
            serving.draw(units);
            let rest = if serving.is_empty(params) {
                0
            } else {
                max_served(serving, params, recovery, interval, units, slots - 1, Phase::Serving)
            };
            best = best.max(u64::from(units) + rest);
        }
        best
    }

    fn states() -> [(u32, u32); 7] {
        [(110, 0), (110, 18), (80, 14), (60, 11), (30, 5), (20, 3), (8, 1)]
    }

    #[test]
    fn exact_column_matches_exhaustive_enumeration() {
        let (params, _, recovery) = b1_coarse();
        let mut builder = ColumnBuilder::new(usize::MAX);
        let mut column = ServiceColumn::default();
        for interval in [2u32, 4] {
            let slots = 11u64;
            let epochs = [DiscreteEpoch::job(slots * u64::from(interval), interval, 1)];
            for (n, m) in states() {
                let battery = DiscreteBattery::from_units(n, m);
                builder.build(battery, &params, &recovery, &epochs, 0, &mut column);
                let brute = max_served(
                    battery,
                    &params,
                    &recovery,
                    u64::from(interval),
                    1,
                    11,
                    Phase::Idle,
                );
                assert_eq!(
                    column.units,
                    [brute],
                    "(n={n}, m={m}, interval={interval}): exact DP vs enumeration"
                );
            }
        }
    }

    #[test]
    fn capped_column_never_undercounts_the_exact_one() {
        let (params, _, recovery) = b1_coarse();
        let mut exact = ColumnBuilder::new(usize::MAX);
        let mut capped = ColumnBuilder::new(2);
        let (mut exact_col, mut capped_col) = (ServiceColumn::default(), ServiceColumn::default());
        // A multi-epoch alternating timeline with an idle break.
        let epochs = [
            DiscreteEpoch::job(20, 2, 1),
            DiscreteEpoch::idle(10),
            DiscreteEpoch::job(20, 2, 1),
            DiscreteEpoch::job(16, 4, 1),
        ];
        for (n, m) in states() {
            let battery = DiscreteBattery::from_units(n, m);
            exact.build(battery, &params, &recovery, &epochs, 0, &mut exact_col);
            capped.build(battery, &params, &recovery, &epochs, 0, &mut capped_col);
            assert_eq!(exact_col.len(), 3, "one entry per job epoch");
            assert_eq!(capped_col.len(), 3);
            for (e, (&tight, &loose)) in exact_col.units.iter().zip(&capped_col.units).enumerate() {
                assert!(
                    loose >= tight,
                    "(n={n}, m={m}) epoch {e}: capped column {loose} undercounts exact {tight}"
                );
            }
            for (e, (&tight, &loose)) in
                exact_col.full_epochs.iter().zip(&capped_col.full_epochs).enumerate()
            {
                assert!(
                    loose >= tight,
                    "(n={n}, m={m}) epoch {e}: capped epochs {loose} undercounts exact {tight}"
                );
            }
        }
    }

    #[test]
    fn columns_are_cumulative_and_charge_capped() {
        let (params, _, recovery) = b1_coarse();
        let mut builder = ColumnBuilder::default();
        let mut column = ServiceColumn::default();
        let epochs: Vec<DiscreteEpoch> =
            (0..6).flat_map(|_| [DiscreteEpoch::job(20, 2, 1), DiscreteEpoch::idle(20)]).collect();
        for (n, m) in states() {
            builder.build(
                DiscreteBattery::from_units(n, m),
                &params,
                &recovery,
                &epochs,
                0,
                &mut column,
            );
            assert_eq!(column.len(), 6);
            assert!(column.units.windows(2).all(|w| w[0] <= w[1]), "(n={n}, m={m}): cumulative");
            assert!(
                *column.units.last().unwrap() <= u64::from(n),
                "(n={n}, m={m}): column exceeds the battery's charge"
            );
            assert!(
                column.full_epochs.windows(2).all(|w| w[0] <= w[1]),
                "(n={n}, m={m}): full-epoch column must be cumulative"
            );
            for (e, &full) in column.full_epochs.iter().enumerate() {
                assert!(
                    full <= (e + 1) as u64,
                    "(n={n}, m={m}): cannot fully serve more epochs than elapsed"
                );
            }
        }
    }

    #[test]
    fn retired_battery_has_a_zero_column() {
        let (params, _, recovery) = b1_coarse();
        let mut builder = ColumnBuilder::default();
        let mut column = ServiceColumn::default();
        let mut battery = DiscreteBattery::from_units(50, 10);
        battery.mark_observed_empty();
        let epochs = [DiscreteEpoch::job(20, 2, 1), DiscreteEpoch::job(20, 2, 1)];
        builder.build(battery, &params, &recovery, &epochs, 0, &mut column);
        assert_eq!(column.units, [0, 0]);
        assert_eq!(column.full_epochs, [0, 0]);
    }

    #[test]
    fn mid_epoch_offsets_shorten_the_first_entry() {
        let (params, _, recovery) = b1_coarse();
        let mut builder = ColumnBuilder::new(usize::MAX);
        let (mut full, mut partial) = (ServiceColumn::default(), ServiceColumn::default());
        let epochs = [DiscreteEpoch::job(40, 2, 1)];
        let battery = DiscreteBattery::from_units(30, 5);
        builder.build(battery, &params, &recovery, &epochs, 0, &mut full);
        builder.build(battery, &params, &recovery, &epochs, 20, &mut partial);
        assert!(partial.units[0] <= full.units[0], "fewer slots cannot serve more units");
        assert_eq!(
            partial.full_epochs[0], 0,
            "a mid-epoch start can never earn the split epoch's full-serve credit"
        );
    }

    /// The serialization column: a fresh battery serving a whole epoch
    /// from its first draw earns exactly one credit per epoch it fully
    /// covers, and the credit survives dying on the epoch's last draw.
    #[test]
    fn full_epoch_credits_count_whole_serves_only() {
        let (params, _, recovery) = b1_coarse();
        let mut builder = ColumnBuilder::new(usize::MAX);
        let mut column = ServiceColumn::default();
        let epochs: Vec<DiscreteEpoch> =
            (0..4).flat_map(|_| [DiscreteEpoch::job(20, 2, 1), DiscreteEpoch::idle(20)]).collect();
        let battery = DiscreteBattery::from_units(110, 0);
        builder.build(battery, &params, &recovery, &epochs, 0, &mut column);
        assert_eq!(column.full_epochs[0], 1, "a fresh battery can serve the first epoch whole");
        for (e, &full) in column.full_epochs.iter().enumerate() {
            assert!(full <= (e + 1) as u64);
        }
        // A weak battery that cannot cover a whole epoch before going
        // empty earns no credit even though it serves some units.
        let exhausted = DiscreteBattery::from_units(10, 0);
        builder.build(exhausted, &params, &recovery, &epochs, 0, &mut column);
        assert!(column.units[0] > 0);
        assert_eq!(column.full_epochs[0], 0, "a partial prefix run is not a full serve");
    }

    #[test]
    fn eq8_empty_but_unobserved_batteries_recover_into_service() {
        let (params, _, recovery) = b1_coarse();
        // A battery inside the Eq. 8 emptiness region that was never
        // *observed* empty: it must skip early draws, recover, and serve
        // later — a zero column here would be an undercount.
        let battery = DiscreteBattery::from_units(20, 20);
        assert!(battery.is_empty(&params));
        assert!(!battery.is_observed_empty());
        let mut builder = ColumnBuilder::new(usize::MAX);
        let mut column = ServiceColumn::default();
        let epochs = [DiscreteEpoch::job(400, 4, 1)];
        builder.build(battery, &params, &recovery, &epochs, 0, &mut column);
        let brute = max_served(battery, &params, &recovery, 4, 1, 100, Phase::Idle);
        assert_eq!(column.units, [brute]);
        assert!(column.units[0] > 0, "recovery must lift the battery back into service");
        assert_eq!(
            column.full_epochs[0], 0,
            "an Eq. 8-empty battery cannot serve the epoch's first draw, so no full-serve credit"
        );
    }
}
