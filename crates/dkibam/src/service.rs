//! Recovery-coupled service-rate analysis of a battery type.
//!
//! The optimal-schedule search needs an *admissible* answer to the question
//! "how many charge units could this battery possibly still serve within
//! the next `Δ` time steps, given that the load has delivered `D` draw
//! units by then?". Total charge alone wildly overestimates on loads that
//! strand charge (`ILs alt` leaves ~70 % of the capacity behind): batteries
//! die from the emptiness criterion (Eq. 8, `c·n ≤ (1−c)·m`), not from
//! running out of charge, and the height difference `m` only relaxes at the
//! finite rate of the recovery table (Eq. 6). This module precomputes, once
//! per battery type, a reachability analysis of the discrete dynamics that
//! turns three facts into a cheap upper envelope:
//!
//! * the **service frontier** `threshold(n)` — the largest height
//!   difference at which a battery holding `n` charge units is still
//!   non-empty. A battery that serves a draw while the *post-draw* state
//!   violates the frontier is retired on the spot (the observed-empty flag
//!   is sticky), so every draw except a battery's final one must land at
//!   `m ≤ threshold(n)` — and the frontier *shrinks* as charge drains;
//! * the **recovery cost ladder** — Eq. 6 recovery is fastest at large
//!   height differences, and the largest serviceable height after `s`
//!   units have been served is `threshold(n₀ − s) + u`, so the `j`-th
//!   height unit a battery regains can never cost fewer steps than the
//!   table time at that shrinking ceiling;
//! * **demand pacing** — the height difference only *rises* by serving,
//!   and a battery can never have served more units than the whole load
//!   has delivered, so a recovery completing while the load has delivered
//!   `D` units can occur at height at most `m₀ + D − (recoveries so far)`.
//!   Early recoveries are therefore priced at *low* heights — the slow
//!   part of Eq. 6 — which is exactly what makes alternating loads strand
//!   charge.
//!
//! [`ServiceRateTable::build_envelope`] bakes the state-dependent parts
//! into a [`ServiceEnvelope`]; [`ServiceRateTable::units_within`] then
//! answers `(Δ, D)` queries against it in amortized constant time via a
//! monotone [`EnvelopeCursor`], which prices each recovery it grants in
//! O(1). An [`EnvelopeStore`] per battery type builds each envelope once
//! for every search on a system. The `battery-sched` search sums these
//! per-battery envelopes into an availability-aware upper bound on the
//! remaining system lifetime; admissibility (the envelope may never
//! undercount what a real schedule serves) is asserted against brute-force
//! single-battery service enumeration in this module's tests.

use crate::{Discretization, RecoveryTable};
use kibam::BatteryParams;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Precomputed service-rate data of one battery type: the emptiness
/// frontier per charge level and the recovery cost structure it couples to.
///
/// Built once per battery type next to the [`RecoveryTable`] (see
/// [`crate::DiscreteFleet`]) and held by the type's [`EnvelopeStore`],
/// which builds each envelope from it once for every search on the system
/// (at most [`MAX_ENVELOPE_BYTES`] of them at a time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRateTable {
    /// `threshold[n]` = the largest height difference `m` at which a
    /// battery with `n` charge units is still non-empty under Eq. 8.
    threshold: Vec<u32>,
    /// Per-unit recovery times, indexed by height difference (`None` at or
    /// below one unit — the asymptotic tail never recovers).
    recovery_steps: Vec<Option<u64>>,
    /// `prefix_steps[h]` = Σ of `recovery_steps[2..=h]`, for O(1) sums of
    /// recovery ladders over height ranges.
    prefix_steps: Vec<u64>,
}

/// The state-dependent half of a battery's service envelope, built by
/// [`ServiceRateTable::build_envelope`] and queried through
/// [`ServiceRateTable::units_within`]. Buffers are reused across builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceEnvelope {
    /// `units_at[r]` = the most charge units servable given `r` completed
    /// recovery units (the shrinking-frontier condition); non-decreasing,
    /// capped at the remaining charge (a `u32`, like the charge units of a
    /// battery state).
    units_at: Vec<u32>,
    /// `frontier_height[j]` = the largest height at which the `j`-th
    /// recovery unit can occur, ignoring demand pacing (1-indexed via
    /// `frontier_height[j - 1]`); non-increasing.
    frontier_height: Vec<u32>,
    /// Prefix sums of `steps(frontier_height[..])`, `frontier_prefix[j]` =
    /// cost of the first `j` frontier-priced recoveries.
    frontier_prefix: Vec<u64>,
    /// The battery's current height difference (for the demand-pacing
    /// branch).
    height: u32,
    /// The battery's remaining charge units.
    charge: u64,
}

impl ServiceEnvelope {
    /// Creates an empty envelope (filled by
    /// [`ServiceRateTable::build_envelope`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The heap bytes held by the envelope's buffers (their capacity), for
    /// callers that bound the memory of the envelopes they keep.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.units_at.capacity() * std::mem::size_of::<u32>()
            + self.frontier_height.capacity() * std::mem::size_of::<u32>()
            + self.frontier_prefix.capacity() * std::mem::size_of::<u64>()
    }

    /// The demand-paced height ceiling plus one under demand cap
    /// `demand_units`: recovery `j` can occur at height at most
    /// `climb − j = m₀ + min(D, charge) + 1 − j`.
    fn climb(&self, demand_units: u64) -> u64 {
        u64::from(self.height) + self.charge.min(demand_units) + 1
    }

    /// Whether the frontier branch prices recovery `j = index + 1` under
    /// `climb`, i.e. `frontier_height[j] + j ≤ climb` (false past the
    /// frontier ladder). `frontier_height[j] + j` is non-decreasing (the
    /// frontier shrinks by at most one per recovery, asserted in
    /// [`ServiceRateTable::build_envelope`]), so the recoveries the frontier
    /// governs form a prefix, which a cursor extends one check at a time.
    fn frontier_governs(&self, index: usize, climb: u64) -> bool {
        self.frontier_height
            .get(index)
            .is_some_and(|&height| u64::from(height) + crate::checked::to_u64(index) < climb)
    }
}

/// Monotone query cursor over a [`ServiceEnvelope`]: windows and demands
/// must be queried in non-decreasing order (rewind by restoring a saved
/// copy). Holds the recovery units granted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct EnvelopeCursor {
    /// Recovery units granted.
    recovered: usize,
    /// How many leading recoveries are known to be frontier-governed
    /// ([`ServiceEnvelope::frontier_governs`]), at most `recovered` (the
    /// recoveries priced for the next grant). Demands only grow, and with
    /// them the climb, so a recovery governed at one query stays governed
    /// at every later one: each query extends this count instead of
    /// searching for it.
    governed: usize,
}

impl ServiceRateTable {
    /// Builds the service-rate table for a battery type: the emptiness
    /// frontier for every charge level `0..=N`, the per-unit recovery
    /// times, and their prefix sums.
    #[must_use]
    pub fn for_battery(params: &BatteryParams, disc: &Discretization) -> Self {
        Self::from_recovery(params, disc, &RecoveryTable::for_battery(params, disc))
    }

    /// Like [`ServiceRateTable::for_battery`], reusing an already-built
    /// [`RecoveryTable`] for the same `(params, disc)` instead of paying
    /// the O(N) log evaluations again (see [`crate::DiscreteFleet`]).
    #[must_use]
    pub fn from_recovery(
        params: &BatteryParams,
        disc: &Discretization,
        table: &RecoveryTable,
    ) -> Self {
        let capacity_units = disc.charge_units(params.capacity());
        let c = params.c();
        let ratio = c / (1.0 - c);
        let threshold: Vec<u32> = (0..=capacity_units)
            .map(|n| {
                // Largest m with c·n > (1−c)·m, found from the float
                // estimate and corrected against the exact predicate so the
                // frontier matches `DiscreteBattery::is_empty` bit for bit.
                let mut m = crate::checked::f64_to_u32((ratio * f64::from(n)).floor().max(0.0)) + 1;
                while m > 0 && c * f64::from(n) <= (1.0 - c) * f64::from(m) {
                    m -= 1;
                }
                m
            })
            .collect();
        let recovery_steps: Vec<Option<u64>> =
            (0..=table.max_units()).map(|m| table.steps(m)).collect();
        let mut prefix_steps = Vec::with_capacity(recovery_steps.len());
        let mut sum = 0u64;
        for steps in &recovery_steps {
            sum += steps.unwrap_or(0);
            prefix_steps.push(sum);
        }
        Self { threshold, recovery_steps, prefix_steps }
    }

    /// The largest height difference at which a battery holding `n` charge
    /// units is still non-empty (the Eq. 8 frontier). Saturates at the top
    /// of the table for `n` beyond the capacity.
    #[must_use]
    pub fn service_threshold(&self, n: u32) -> u32 {
        let top = self.threshold.len() - 1;
        self.threshold[crate::checked::index(n).min(top)]
    }

    /// The Eq. 6 recovery time at height difference `m`, saturating at the
    /// top of the table (`None` at or below one unit).
    #[must_use]
    pub fn recovery_steps(&self, m: u32) -> Option<u64> {
        let top = self.recovery_steps.len() - 1;
        self.recovery_steps[crate::checked::index(m).min(top)]
    }

    /// Σ of the recovery times at heights `2..=h` (0 for `h ≤ 1`),
    /// saturating above the table: heights past the top are charged the
    /// top's (fastest) time.
    fn height_range_cost(&self, h: u64) -> u64 {
        let top = crate::checked::to_u64(self.prefix_steps.len() - 1);
        if h <= top {
            return self.prefix_steps[crate::checked::index_u64(h)];
        }
        let extra = h - top;
        let top = crate::checked::index_u64(top);
        self.prefix_steps[top] + extra * self.recovery_steps[top].unwrap_or(0)
    }

    /// Whether a battery at `(n, m)` could serve `s + 1` units without
    /// retiring before the final draw, given `r` completed recovery units:
    /// the height before the final draw, `m + s − r`, must sit on the
    /// frontier of the charge left then. (The final draw itself may
    /// overshoot the frontier — the battery retires serving it.)
    fn can_serve(&self, n: u32, m: u32, s: u64, r: u64) -> bool {
        let charge_left = n.saturating_sub(u32::try_from(s).unwrap_or(u32::MAX));
        u64::from(m) + s <= r + u64::from(self.service_threshold(charge_left))
    }

    /// Fills `out` with the service envelope of a battery currently at
    /// `(n, m)`. `max_units_per_draw` is the largest single draw of the
    /// load ahead (one final draw may overshoot the service frontier by
    /// that much). Buffers inside `out` are reused.
    pub fn build_envelope(
        &self,
        n: u32,
        m: u32,
        max_units_per_draw: u32,
        out: &mut ServiceEnvelope,
    ) {
        out.units_at.clear();
        out.frontier_height.clear();
        out.frontier_prefix.clear();
        out.height = m;
        out.charge = u64::from(n);
        let overshoot = u64::from(max_units_per_draw);

        // units_at[r]: extend while the shrinking-frontier condition holds,
        // granting the final draw its overshoot.
        let mut served: u64 = 0;
        // Crossing pointer for the recovery-height maximization below: the
        // largest prior-serve count S where the climb branch still sits at
        // or under the frontier branch (non-decreasing in j).
        let mut crossing: u64 = 0;
        for recovered in 0u64.. {
            while served < out.charge
                && self.can_serve(n, m, served.saturating_sub(overshoot), recovered)
            {
                served += 1;
            }
            // `served` never exceeds the u32 charge `n`.
            out.units_at.push(crate::checked::to_u32(crate::checked::index_u64(served)));
            if served >= out.charge {
                break;
            }
            // The j-th recovery's height is capped by both the climb (the
            // height has risen by at most the S serves preceding it:
            // m + S − (j − 1)) and the shrinking service frontier of the
            // charge left after those serves (thr(n − S) + overshoot); the
            // admissible price is the best case over S — the crossing of
            // the rising climb branch and the falling frontier branch —
            // or the start height for recoveries preceding all serving.
            let j = recovered + 1;
            let idle_height = u64::from(m).saturating_sub(j - 1);
            let climb = |s: u64| (u64::from(m) + s + 1).saturating_sub(j);
            // No overshoot here: every priced recovery precedes a further
            // serve, and a battery only keeps serving while its post-draw
            // height sits on the frontier proper.
            let frontier = |s: u64| {
                u64::from(
                    self.service_threshold(n.saturating_sub(u32::try_from(s).unwrap_or(u32::MAX))),
                )
            };
            while crossing < out.charge && climb(crossing + 1) <= frontier(crossing + 1) {
                crossing += 1;
            }
            let mut height = idle_height.max(climb(crossing).min(frontier(crossing)));
            if crossing < out.charge {
                height = height.max(frontier(crossing + 1).min(climb(crossing + 1)));
            }
            if self.recovery_steps(u32::try_from(height).unwrap_or(u32::MAX)).is_none() {
                // The reachable band cannot recover: the envelope ends.
                break;
            }
            // Envelope monotonicity: the recovery frontier only shrinks as
            // units are served, so the priced heights are non-increasing —
            // by at most one per recovery, which keeps the frontier-governed
            // recoveries a prefix ([`ServiceEnvelope::frontier_governs`]).
            debug_assert!(
                out.frontier_height.last().map_or(true, |&prev| height <= u64::from(prev)
                    && height + 1 >= u64::from(prev)),
                "service frontier heights must fall by at most one per recovery"
            );
            // `height` was validated against the u32 recovery table above.
            out.frontier_height.push(crate::checked::to_u32(crate::checked::index_u64(height)));
            let cost = self.height_range_cost(height) - self.height_range_cost(height - 1);
            let previous = out.frontier_prefix.last().copied().unwrap_or(0);
            out.frontier_prefix.push(previous + cost);
        }
    }

    /// The minimum time (steps) for the first `priced + 1` recovery units
    /// of `envelope` under the demand-paced ceiling `climb`
    /// ([`ServiceEnvelope::climb`]): each recovery is priced at the
    /// cheapest (largest) height it could occur at — the frontier ladder
    /// capped by the demand-paced climb `m₀ + D − (j − 1)` — with the first
    /// recovery riding free on a pre-accumulated clock. The frontier ladder
    /// prices the first `split` of the `priced` recoveries (the
    /// frontier-governed prefix, [`ServiceEnvelope::frontier_governs`]), the
    /// climb the rest, so the price is O(1).
    fn recovery_time(
        &self,
        envelope: &ServiceEnvelope,
        priced: usize,
        split: usize,
        climb: u64,
    ) -> u64 {
        let mut total = if split > 0 { envelope.frontier_prefix[split - 1] } else { 0 };
        if split < priced {
            // Demand-paced heights climb − (split+1) down to climb − priced.
            let high = climb.saturating_sub(crate::checked::to_u64(split) + 1);
            let low = climb.saturating_sub(crate::checked::to_u64(priced));
            if low <= 1 {
                return u64::MAX;
            }
            total = total
                .saturating_add(self.height_range_cost(high))
                .saturating_sub(self.height_range_cost(low - 1));
        }
        total
    }

    /// Upper bound on the units a battery with `envelope` can serve within
    /// `window_steps`, given the load delivers at most `demand_units` over
    /// that window. `cursor` carries the recoveries granted so far and must
    /// be queried with non-decreasing `(window, demand)` pairs (save and
    /// restore it to rewind).
    #[must_use]
    pub fn units_within(
        &self,
        envelope: &ServiceEnvelope,
        cursor: &mut EnvelopeCursor,
        window_steps: u64,
        demand_units: u64,
    ) -> u64 {
        if cursor.recovered + 1 < envelope.units_at.len() {
            // Granting recovery `r + 1` prices `r` recoveries after the
            // free first one, the first `governed` of them on the frontier
            // ladder. The governed prefix only grows, by one check per
            // recovery, across all the cursor's queries.
            let climb = envelope.climb(demand_units);
            let governed = &mut cursor.governed;
            while *governed < cursor.recovered && envelope.frontier_governs(*governed, climb) {
                *governed += 1;
            }
            while cursor.recovered + 1 < envelope.units_at.len()
                && self.recovery_time(envelope, cursor.recovered, *governed, climb) <= window_steps
            {
                cursor.recovered += 1;
                if *governed + 1 == cursor.recovered && envelope.frontier_governs(*governed, climb)
                {
                    *governed += 1;
                }
            }
        }
        // Charge conservation: no window lets a battery serve more units
        // than the charge it held when the envelope was built.
        debug_assert!(
            u64::from(envelope.units_at[cursor.recovered]) <= envelope.charge,
            "service envelope promised more units than the battery's charge"
        );
        u64::from(envelope.units_at[cursor.recovered]).min(demand_units)
    }
}

/// The most heap bytes of service envelopes one [`EnvelopeStore`] keeps.
/// An envelope takes up to 3.4 KB on the coarse grid and 17 KB for a
/// paper-grid B2; the largest searches of the repository's grids meet
/// 1.8 MB of them (coarse B1+B2 ``IL` 250``, 1,006 envelopes) and 15.4 MB
/// (paper-grid B1+B2 `ILs alt`, 1,428).
pub const MAX_ENVELOPE_BYTES: usize = 16 << 20;

/// What a service envelope is built from, besides its battery type's
/// [`ServiceRateTable`]: the battery's state and the load's largest single
/// draw ([`ServiceRateTable::build_envelope`]'s arguments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnvelopeKey {
    /// Charge units the battery can still serve.
    pub charge_units: u32,
    /// The battery's height difference, in height units.
    pub height_units: u32,
    /// The largest single draw of the load ahead, in charge units.
    pub max_units_per_draw: u32,
}

/// A battery type's [`ServiceRateTable`] together with every envelope built
/// from it, shared by all searches on one system ([`crate::DiscreteFleet`]
/// holds one store per battery type).
///
/// An envelope is a pure function of its [`EnvelopeKey`], and searches on
/// one system meet the same few hundred keys again and again, so each is
/// built once, under the store's lock, and handed out as an `Arc`. The
/// store keeps at most [`MAX_ENVELOPE_BYTES`]: when a build would pass the
/// cap, the store empties itself first. Handles already handed out stay
/// valid, so a search never loses an envelope it holds, and a long-running
/// process never stops caching.
#[derive(Debug)]
pub struct EnvelopeStore {
    table: Arc<ServiceRateTable>,
    capacity_bytes: usize,
    stored: Mutex<StoredEnvelopes>,
}

/// The envelopes of an [`EnvelopeStore`], behind its lock.
#[derive(Debug, Default)]
struct StoredEnvelopes {
    /// Heap bytes of the stored envelopes.
    bytes: usize,
    envelopes: BTreeMap<EnvelopeKey, Arc<ServiceEnvelope>>,
    /// Every build runs in here; the stored copy is sized to its contents.
    buffer: ServiceEnvelope,
}

impl EnvelopeStore {
    /// An empty store over `table`, capped at [`MAX_ENVELOPE_BYTES`].
    #[must_use]
    pub fn new(table: ServiceRateTable) -> Self {
        Self::with_capacity_bytes(table, MAX_ENVELOPE_BYTES)
    }

    fn with_capacity_bytes(table: ServiceRateTable, capacity_bytes: usize) -> Self {
        Self { table: Arc::new(table), capacity_bytes, stored: Mutex::default() }
    }

    /// The service-rate table the envelopes are built with.
    #[must_use]
    pub fn table(&self) -> &ServiceRateTable {
        &self.table
    }

    /// A handle on [`EnvelopeStore::table`], for holders of its envelopes
    /// that outlive a borrow of the store.
    #[must_use]
    pub fn shared_table(&self) -> Arc<ServiceRateTable> {
        Arc::clone(&self.table)
    }

    /// The envelope of `key`, built on the first request.
    #[must_use]
    pub fn envelope(&self, key: EnvelopeKey) -> Arc<ServiceEnvelope> {
        let mut stored = self.lock();
        if let Some(envelope) = stored.envelopes.get(&key) {
            return Arc::clone(envelope);
        }
        let StoredEnvelopes { bytes, envelopes, buffer } = &mut *stored;
        self.table.build_envelope(
            key.charge_units,
            key.height_units,
            key.max_units_per_draw,
            buffer,
        );
        // A clone allocates exactly its length: stored envelopes keep no
        // slack from the buffer's earlier, larger builds.
        let envelope = Arc::new(buffer.clone());
        let size = envelope.heap_bytes();
        if *bytes + size > self.capacity_bytes {
            envelopes.clear();
            *bytes = 0;
        }
        *bytes += size;
        envelopes.insert(key, Arc::clone(&envelope));
        envelope
    }

    /// The stored envelopes, in key order.
    #[must_use]
    pub fn entries(&self) -> Vec<(EnvelopeKey, Arc<ServiceEnvelope>)> {
        self.lock().envelopes.iter().map(|(key, envelope)| (*key, Arc::clone(envelope))).collect()
    }

    /// The number of stored envelopes.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().envelopes.len()
    }

    /// The stored envelopes. A panic under the lock leaves them whole (a
    /// build only touches the buffer), so a poisoned lock is still usable.
    fn lock(&self) -> MutexGuard<'_, StoredEnvelopes> {
        self.stored.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscreteBattery;

    fn b1_coarse() -> (BatteryParams, Discretization, ServiceRateTable) {
        let params = BatteryParams::itsy_b1();
        let disc = Discretization::coarse();
        let table = ServiceRateTable::for_battery(&params, &disc);
        (params, disc, table)
    }

    /// Evaluates an envelope at a window with unbounded demand, the way a
    /// fresh (non-cursor) caller would.
    fn units_at_window(table: &ServiceRateTable, env: &ServiceEnvelope, window: u64) -> u64 {
        let mut cursor = EnvelopeCursor::default();
        table.units_within(env, &mut cursor, window, u64::MAX)
    }

    #[test]
    fn threshold_matches_the_emptiness_predicate_exactly() {
        let (params, disc, table) = b1_coarse();
        let capacity = disc.charge_units(params.capacity());
        for n in 0..=capacity {
            let threshold = table.service_threshold(n);
            if threshold > 0 {
                let live = DiscreteBattery::from_units(n, threshold);
                assert!(!live.is_empty(&params), "n={n}: m={threshold} must be serviceable");
            }
            let dead = DiscreteBattery::from_units(n, threshold + 1);
            assert!(dead.is_empty(&params), "n={n}: m={} must be empty", threshold + 1);
        }
    }

    #[test]
    fn threshold_is_monotone_in_charge() {
        let (params, disc, table) = b1_coarse();
        let capacity = disc.charge_units(params.capacity());
        let mut previous = 0;
        for n in 0..=capacity {
            let threshold = table.service_threshold(n);
            assert!(threshold >= previous, "the frontier never shrinks as charge grows");
            previous = threshold;
        }
        // Beyond the capacity the lookup saturates instead of panicking.
        assert_eq!(table.service_threshold(capacity + 100), previous);
    }

    #[test]
    fn envelope_is_monotone_and_charge_capped() {
        let (_, _, table) = b1_coarse();
        let mut env = ServiceEnvelope::new();
        for (n, m) in [(110u32, 0u32), (80, 14), (30, 5), (8, 1), (0, 3)] {
            table.build_envelope(n, m, 1, &mut env);
            assert!(!env.units_at.is_empty(), "(n={n}, m={m}): envelopes are never empty");
            assert!(
                env.units_at.windows(2).all(|w| w[0] <= w[1]),
                "(n={n}, m={m}): units monotone"
            );
            assert!(
                env.frontier_prefix.windows(2).all(|w| w[0] <= w[1]),
                "(n={n}, m={m}): costs monotone"
            );
            assert!(
                env.units_at.last().is_some_and(|&units| units <= n),
                "(n={n}, m={m}): can never serve more than the remaining charge"
            );
            // Queries are monotone in the window and capped by demand.
            let mut previous = 0;
            for window in [0u64, 20, 80, 200, 400, 1_000] {
                let units = units_at_window(&table, &env, window);
                assert!(units >= previous);
                previous = units;
            }
            let mut cursor = EnvelopeCursor::default();
            assert!(table.units_within(&env, &mut cursor, 1_000, 7) <= 7);
        }
    }

    #[test]
    fn demand_pacing_slows_early_recoveries() {
        // A fresh battery's height can only climb as fast as the load
        // delivers draws, so with little demand its recoveries are priced
        // at low (slow) heights and the envelope must shrink.
        let (_, _, table) = b1_coarse();
        let mut env = ServiceEnvelope::new();
        table.build_envelope(110, 0, 1, &mut env);
        let mut starved = EnvelopeCursor::default();
        let mut fed = EnvelopeCursor::default();
        let with_low_demand = table.units_within(&env, &mut starved, 400, 30);
        let with_high_demand = table.units_within(&env, &mut fed, 400, 10_000);
        assert!(
            with_low_demand < with_high_demand,
            "demand pacing must bind: {with_low_demand} vs {with_high_demand}"
        );
    }

    #[test]
    fn worn_batteries_have_smaller_envelopes_than_fresh_ones() {
        let (_, _, table) = b1_coarse();
        let mut fresh = ServiceEnvelope::new();
        let mut worn = ServiceEnvelope::new();
        table.build_envelope(110, 0, 1, &mut fresh);
        table.build_envelope(80, 14, 1, &mut worn);
        for window in [0u64, 20, 80, 200, 400] {
            let fresh_units = units_at_window(&table, &fresh, window);
            let worn_units = units_at_window(&table, &worn, window);
            assert!(
                fresh_units >= worn_units,
                "window {window}: fresh {fresh_units} < worn {worn_units}"
            );
        }
        // A worn battery cannot cover a 500 mA epoch (10 units / 20 steps)
        // the way a fresh one can — the shape the availability bound
        // exploits.
        assert!(units_at_window(&table, &fresh, 20) >= 10);
        assert!(units_at_window(&table, &worn, 20) <= 5);
    }

    #[test]
    fn envelope_never_undercounts_brute_force_service() {
        // Admissibility at the single-battery level: for a sample of
        // states, enumerate every subset of the next `slots` draw slots and
        // count the most units any serving pattern delivers; the envelope
        // evaluated at the window (with demand = the slots offered) must
        // never report less.
        let (params, disc, table) = b1_coarse();
        let recovery = RecoveryTable::for_battery(&params, &disc);
        let mut env = ServiceEnvelope::new();
        for interval in [2u64, 4] {
            let slots = 11u32;
            for (n, m) in [(110, 0), (110, 18), (80, 14), (60, 11), (30, 5), (20, 3), (8, 1)] {
                let best = max_served(
                    DiscreteBattery::from_units(n, m),
                    &params,
                    &recovery,
                    interval,
                    slots,
                );
                table.build_envelope(n, m, 1, &mut env);
                let mut cursor = EnvelopeCursor::default();
                let window = u64::from(slots) * interval;
                let bound = table.units_within(&env, &mut cursor, window, u64::from(slots));
                assert!(
                    bound >= u64::from(best),
                    "(n={n}, m={m}, interval={interval}): envelope {bound} undercounts \
                     brute force {best}"
                );
            }
        }
    }

    #[test]
    fn envelope_never_undercounts_multi_unit_draws() {
        // A final draw may overshoot the service frontier by a whole draw
        // (`max_units_per_draw`); with draws of several units that
        // overshoot is what keeps the envelope admissible, so hold the
        // envelope to the brute force at two and three units per draw.
        let (params, disc, table) = b1_coarse();
        let recovery = RecoveryTable::for_battery(&params, &disc);
        let mut env = ServiceEnvelope::new();
        for units in [2u32, 3] {
            for interval in [2u64, 4] {
                let slots = 10u32;
                for (n, m) in [(110, 0), (110, 18), (80, 14), (60, 11), (30, 5), (20, 3), (8, 1)] {
                    let best = max_units_served(
                        DiscreteBattery::from_units(n, m),
                        &params,
                        &recovery,
                        interval,
                        units,
                        slots,
                    );
                    table.build_envelope(n, m, units, &mut env);
                    let window = u64::from(slots) * interval;
                    let mut cursor = EnvelopeCursor::default();
                    let bound =
                        table.units_within(&env, &mut cursor, window, u64::from(slots * units));
                    assert!(
                        bound >= u64::from(best),
                        "(n={n}, m={m}, {units} units every {interval} steps): envelope \
                         {bound} undercounts brute force {best}"
                    );
                }
            }
        }
    }

    #[test]
    fn eq8_empty_but_unobserved_batteries_recover_into_the_envelope() {
        // A battery inside the Eq. 8 emptiness region that was never
        // *observed* empty skips the early draws, recovers and serves
        // later; a zero envelope here would be an undercount.
        let (params, disc, table) = b1_coarse();
        let recovery = RecoveryTable::for_battery(&params, &disc);
        let battery = DiscreteBattery::from_units(20, 20);
        assert!(battery.is_empty(&params));
        assert!(!battery.is_observed_empty());
        let (interval, slots) = (32u64, 14u32);
        let best = max_served(battery, &params, &recovery, interval, slots);
        assert!(best > 0, "recovery lifts the battery back into service");
        let mut env = ServiceEnvelope::new();
        table.build_envelope(20, 20, 1, &mut env);
        let window = u64::from(slots) * interval;
        let mut cursor = EnvelopeCursor::default();
        let bound = table.units_within(&env, &mut cursor, window, u64::from(slots));
        assert!(bound >= u64::from(best), "envelope {bound} undercounts brute force {best}");
        assert_eq!(units_at_window(&table, &env, 0), 0, "no service before recovering");
    }

    #[test]
    fn reused_envelope_buffers_match_a_fresh_build() {
        // An envelope store builds every envelope into its one buffer; a
        // rebuild must leave nothing of the previous state behind,
        // whichever way the envelope's size changes.
        let (_, _, table) = b1_coarse();
        let states = [(110u32, 0u32), (8, 1), (80, 14), (0, 3), (110, 18), (20, 20)];
        let mut reused = ServiceEnvelope::new();
        for (n, m) in states {
            for units in [1u32, 3] {
                table.build_envelope(n, m, units, &mut reused);
                let mut fresh = ServiceEnvelope::new();
                table.build_envelope(n, m, units, &mut fresh);
                assert_eq!(reused, fresh, "(n={n}, m={m}, {units} units per draw)");
            }
        }
    }

    /// The pricing [`ServiceRateTable::recovery_time`] replaced: the
    /// frontier-governed prefix found anew, by binary search over the first
    /// `r − 1` recoveries, for every `r`.
    fn recovery_time_by_search(
        table: &ServiceRateTable,
        envelope: &ServiceEnvelope,
        r: usize,
        demand_units: u64,
    ) -> u64 {
        if r <= 1 {
            return 0;
        }
        let priced = r - 1;
        let climb = u64::from(envelope.height) + envelope.charge.min(demand_units) + 1;
        let mut lo = 0usize;
        let mut hi = priced.min(envelope.frontier_height.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if u64::from(envelope.frontier_height[mid]) + (mid as u64 + 1) <= climb {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let split = lo;
        let mut total = if split > 0 { envelope.frontier_prefix[split - 1] } else { 0 };
        if split < priced {
            let high = climb.saturating_sub(split as u64 + 1);
            let low = climb.saturating_sub(priced as u64);
            if low <= 1 {
                return u64::MAX;
            }
            total = total
                .saturating_add(table.height_range_cost(high))
                .saturating_sub(table.height_range_cost(low - 1));
        }
        total
    }

    /// The cursor advance [`ServiceRateTable::units_within`] replaced:
    /// every step priced by [`recovery_time_by_search`].
    fn units_within_by_search(
        table: &ServiceRateTable,
        envelope: &ServiceEnvelope,
        cursor: &mut EnvelopeCursor,
        window_steps: u64,
        demand_units: u64,
    ) -> u64 {
        while cursor.recovered + 1 < envelope.units_at.len()
            && recovery_time_by_search(table, envelope, cursor.recovered + 1, demand_units)
                <= window_steps
        {
            cursor.recovered += 1;
        }
        u64::from(envelope.units_at[cursor.recovered]).min(demand_units)
    }

    #[test]
    fn split_pricing_equals_the_per_step_binary_search() {
        let (params, _, b1) = b1_coarse();
        let b2 =
            ServiceRateTable::for_battery(&BatteryParams::itsy_b2(), &Discretization::coarse());
        let paper = ServiceRateTable::for_battery(&params, &Discretization::paper_default());
        let mut rng = workload::random::SplitMix64::new(29);
        let mut env = ServiceEnvelope::new();
        let (mut prices, mut queries) = (0, 0);
        for table in [&b1, &b2, &paper] {
            let top = table.threshold.len() - 1;
            for _ in 0..200 {
                let n = crate::checked::to_u32(rng.next_index(top + 1));
                let m =
                    crate::checked::to_u32(rng.next_index(table.service_threshold(n) as usize + 8));
                let units = 1 + crate::checked::to_u32(rng.next_index(3));
                table.build_envelope(n, m, units, &mut env);
                // Every price, with the whole ladder's governed prefix
                // capped at the recoveries priced.
                for _ in 0..4 {
                    let demand = match rng.next_index(3) {
                        0 => u64::MAX,
                        _ => rng.next_index(n as usize + 20) as u64,
                    };
                    let climb = env.climb(demand);
                    let governed = (0..env.frontier_height.len())
                        .take_while(|&index| env.frontier_governs(index, climb))
                        .count();
                    for r in 0..env.units_at.len() {
                        let priced = r.saturating_sub(1);
                        assert_eq!(
                            table.recovery_time(&env, priced, governed.min(priced), climb),
                            recovery_time_by_search(table, &env, r, demand),
                            "(n={n}, m={m}, {units} units per draw): r={r}, demand {demand}"
                        );
                        prices += 1;
                    }
                }
                // Cursor walks over non-decreasing windows and demands,
                // the way the availability bound queries.
                let (mut fast, mut slow) = (EnvelopeCursor::default(), EnvelopeCursor::default());
                let (mut window, mut demand) = (0u64, 0u64);
                for _ in 0..12 {
                    window += rng.next_index(60) as u64;
                    demand += rng.next_index(12) as u64;
                    assert_eq!(
                        table.units_within(&env, &mut fast, window, demand),
                        units_within_by_search(table, &env, &mut slow, window, demand),
                        "(n={n}, m={m}, {units} units per draw): window {window}, demand {demand}"
                    );
                    assert_eq!(fast.recovered, slow.recovered);
                    queries += 1;
                }
            }
        }
        assert!(prices > 10_000 && queries > 5_000, "{prices} prices, {queries} queries compared");
    }

    fn b1_key(charge_units: u32, height_units: u32) -> EnvelopeKey {
        EnvelopeKey { charge_units, height_units, max_units_per_draw: 2 }
    }

    fn fresh_build(table: &ServiceRateTable, key: EnvelopeKey) -> ServiceEnvelope {
        let mut envelope = ServiceEnvelope::new();
        table.build_envelope(
            key.charge_units,
            key.height_units,
            key.max_units_per_draw,
            &mut envelope,
        );
        envelope
    }

    #[test]
    fn the_store_builds_each_key_once() {
        let (_, _, table) = b1_coarse();
        let store = EnvelopeStore::new(table.clone());
        assert_eq!(store.len(), 0);
        let first = store.envelope(b1_key(110, 0));
        let again = store.envelope(b1_key(110, 0));
        assert!(Arc::ptr_eq(&first, &again), "a stored key is handed out, not rebuilt");
        // The largest draw is part of the key.
        let wider = store.envelope(EnvelopeKey { max_units_per_draw: 3, ..b1_key(110, 0) });
        assert!(!Arc::ptr_eq(&first, &wider));
        assert_eq!(store.len(), 2);
        for (key, envelope) in store.entries() {
            assert_eq!(*envelope, fresh_build(&table, key), "{key:?}");
            assert_eq!(envelope.heap_bytes(), envelope.clone().heap_bytes(), "stored compactly");
        }
    }

    #[test]
    fn a_full_store_empties_itself_and_keeps_building_correctly() {
        let (_, _, table) = b1_coarse();
        let keys = [b1_key(110, 0), b1_key(80, 14), b1_key(20, 20), b1_key(60, 11)];
        let bytes = |key| fresh_build(&table, key).clone().heap_bytes();
        // Room for the first two envelopes, not for the third.
        let store =
            EnvelopeStore::with_capacity_bytes(table.clone(), bytes(keys[0]) + bytes(keys[1]));
        let held: Vec<_> = keys[..2].iter().map(|&key| store.envelope(key)).collect();
        assert_eq!(store.len(), 2);
        let third = store.envelope(keys[2]);
        assert_eq!(store.entries().len(), 1, "the third build emptied the store");
        assert!(Arc::ptr_eq(&store.entries()[0].1, &third));
        // Handles taken before the reset survive it.
        for (key, envelope) in keys.iter().zip(&held) {
            assert_eq!(**envelope, fresh_build(&table, *key), "{key:?}");
        }
        // The store goes on caching after the reset, counting from zero:
        // the third envelope is no larger than the second, so it and the
        // first fit together again.
        assert!(bytes(keys[2]) <= bytes(keys[1]));
        let rebuilt = store.envelope(keys[0]);
        assert!(!Arc::ptr_eq(&rebuilt, &held[0]));
        assert!(Arc::ptr_eq(&rebuilt, &store.envelope(keys[0])));
        assert_eq!(store.len(), 2, "the store emptied itself again below its cap");
        // A cap below any envelope keeps just the latest build, correctly.
        let tiny = EnvelopeStore::with_capacity_bytes(table.clone(), 1);
        for _ in 0..2 {
            for key in keys {
                assert_eq!(*tiny.envelope(key), fresh_build(&table, key), "{key:?}");
                assert_eq!(tiny.len(), 1);
            }
        }
    }

    /// Brute force: the most draws a single battery can serve among the
    /// next `slots` draw instants (spaced `interval` steps), trying every
    /// serve/skip pattern under the real discrete dynamics (including
    /// sticky retirement at a post-draw emptiness observation).
    fn max_served(
        battery: DiscreteBattery,
        params: &BatteryParams,
        recovery: &RecoveryTable,
        interval: u64,
        slots: u32,
    ) -> u32 {
        max_units_served(battery, params, recovery, interval, 1, slots)
    }

    /// [`max_served`] for draws of `units` charge units each: the most
    /// units (not draws) any serve/skip pattern delivers.
    fn max_units_served(
        battery: DiscreteBattery,
        params: &BatteryParams,
        recovery: &RecoveryTable,
        interval: u64,
        units: u32,
        slots: u32,
    ) -> u32 {
        if slots == 0 {
            return 0;
        }
        // Skip this slot: recover through it.
        let mut skipped = battery;
        skipped.advance_recovery(interval, recovery);
        let mut best = max_units_served(skipped, params, recovery, interval, units, slots - 1);
        // Serve this slot if the battery is up to it: recovery runs up to
        // the draw instant, the draw lands if the battery is non-empty
        // there, and a post-draw emptiness observation retires it.
        let mut served = battery;
        served.advance_recovery(interval, recovery);
        if !served.is_empty(params) {
            served.draw(units);
            let rest = if served.is_empty(params) {
                0
            } else {
                max_units_served(served, params, recovery, interval, units, slots - 1)
            };
            best = best.max(units + rest);
        }
        best
    }
}
