//! The discretized RV stepping form and its precomputed correction table.
//!
//! The analytic model ([`crate::analytic`]) evolves continuous moments with
//! one `exp` per term per interval. Scheduling simulations and the optimal
//! search instead step on the discretization grid of the scheduling paper
//! (time steps `T`, charge units `Γ`), so this module precomputes, per
//! battery *type*, everything the per-draw hot loop needs — the term rates
//! `β²m²`, the per-step decay factors `e^{-β²m²T}`, the fixed-point grid of
//! the moments and the emptiness threshold — exactly like `dkibam` caches a
//! [`dkibam::RecoveryTable`] per type: built once per fleet (and shared
//! through the engine's worker caches), never per cell or per node.

use crate::{RvCell, RvError, RvParams, MAX_STEP_TERMS, MOMENT_SCALE};
use dkibam::Discretization;

/// Result of letting one battery serve (a portion of) a job through the
/// stepping form. Mirrors `dkibam::multi::JobAdvance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAdvance {
    /// Time steps that actually elapsed.
    pub steps_consumed: u64,
    /// `true` if the requested number of steps was served completely;
    /// `false` if the battery was observed empty at a draw instant before
    /// the end.
    pub completed: bool,
}

/// The precomputed per-type correction table of the discretized RV model.
///
/// Holds the validated [`RvParams`] next to the derived per-term decay
/// factors and the fixed-point moment grid, and implements the stepping
/// operations ([`serve`](RvStepTable::serve) /
/// [`recover`](RvStepTable::recover)) on [`RvCell`] states. Within one
/// `serve` call the draw pattern's constant current is applied with the
/// exact closed-form moment update between draw instants, consumption is
/// counted in whole charge units at the draw instants (as in the
/// discretized KiBaM), and emptiness (`σ ≥ α`) is *observed* at draw
/// instants only.
#[derive(Debug, Clone, PartialEq)]
pub struct RvStepTable {
    params: RvParams,
    disc: Discretization,
    /// Per-term decay rates `β²m²`, 1/min.
    rates: [f64; MAX_STEP_TERMS],
    /// Per-term single-step decay factors `e^{-β²m²·T}`.
    step_decays: [f64; MAX_STEP_TERMS],
    /// Charge units of a full battery, `round(α / Γ)`.
    capacity_units: u32,
    /// Fixed-point grid of the moments, spacing `Γ /` [`MOMENT_SCALE`].
    grid: MomentGrid,
    /// σ at or above this value means empty (`α` minus a relative slack).
    empty_threshold: f64,
}

impl RvStepTable {
    /// Builds the correction table for one battery type.
    ///
    /// # Errors
    ///
    /// Returns [`RvError::InvalidTerms`] if the parameters carry more than
    /// [`MAX_STEP_TERMS`] correction terms — the stepping form keeps the
    /// moments in a fixed-size cell, and silently truncating the sum would
    /// change σ, so oversized orders are refused (the analytic module
    /// handles them).
    pub fn new(params: &RvParams, disc: &Discretization) -> Result<Self, RvError> {
        if params.terms() > MAX_STEP_TERMS {
            return Err(RvError::InvalidTerms { value: params.terms() });
        }
        let mut rates = [0.0; MAX_STEP_TERMS];
        let mut step_decays = [0.0; MAX_STEP_TERMS];
        for m in 0..params.terms() {
            rates[m] = params.rate(m + 1);
            step_decays[m] = (-rates[m] * disc.time_step()).exp();
        }
        Ok(Self {
            params: *params,
            disc: *disc,
            rates,
            step_decays,
            capacity_units: disc.charge_units(params.alpha()),
            grid: MomentGrid::new(disc.charge_unit() / MOMENT_SCALE),
            empty_threshold: params.alpha() * (1.0 - 1e-9),
        })
    }

    /// The battery parameters behind this table.
    #[must_use]
    pub fn params(&self) -> &RvParams {
        &self.params
    }

    /// The discretization this table was built for.
    #[must_use]
    pub fn disc(&self) -> &Discretization {
        &self.disc
    }

    /// Charge units of a full battery.
    #[must_use]
    pub fn capacity_units(&self) -> u32 {
        self.capacity_units
    }

    /// The fixed-point grid spacing of the diffusion moments, in A·min.
    #[must_use]
    pub fn moment_quantum(&self) -> f64 {
        self.grid.quantum
    }

    /// A freshly charged cell.
    #[must_use]
    pub fn fresh_cell(&self) -> RvCell {
        RvCell::fresh()
    }

    /// The apparent charge lost, `σ = consumed·Γ + 2·Σ_m u_m`, in A·min.
    #[must_use]
    pub fn sigma(&self, cell: &RvCell) -> f64 {
        f64::from(cell.consumed_units) * self.disc.charge_unit()
            + 2.0 * cell.moments.iter().sum::<f64>()
    }

    /// True remaining charge `max(α - consumed·Γ, 0)` in A·min (the last
    /// draw before the emptiness observation may overshoot slightly).
    #[must_use]
    pub fn total_charge(&self, cell: &RvCell) -> f64 {
        (self.params.alpha() - f64::from(cell.consumed_units) * self.disc.charge_unit()).max(0.0)
    }

    /// Apparent remaining charge `max(α - σ, 0)` in A·min — what a
    /// scheduling policy sees as available.
    #[must_use]
    pub fn apparent_charge(&self, cell: &RvCell) -> f64 {
        (self.params.alpha() - self.sigma(cell)).max(0.0)
    }

    /// The emptiness criterion `σ ≥ α`, sticky once the battery has been
    /// observed empty.
    #[must_use]
    pub fn is_empty(&self, cell: &RvCell) -> bool {
        cell.observed_empty || self.sigma(cell) >= self.empty_threshold
    }

    /// The per-term decay factors for a recovery advance of `steps` time
    /// steps, `e^{-β²m²·T·steps}` (computed as the per-step factor raised to
    /// `steps`). The [`kernel`](crate::kernel) hoists these per type per
    /// call instead of recomputing them per cell; the values are
    /// bit-identical either way (same inputs, same `powi`).
    pub(crate) fn recovery_decays(&self, steps: u64) -> [f64; MAX_STEP_TERMS] {
        let mut decays = [0.0; MAX_STEP_TERMS];
        for (decay, step_decay) in
            decays.iter_mut().zip(&self.step_decays).take(self.params.terms())
        {
            *decay = decay_pow(*step_decay, steps);
        }
        decays
    }

    /// Applies precomputed recovery decay factors to a cell's moments and
    /// re-aligns them to the grid — the recovery step shared by
    /// [`recover`](RvStepTable::recover) and the [`kernel`](crate::kernel).
    pub(crate) fn apply_recovery_decays(&self, cell: &mut RvCell, decays: &[f64; MAX_STEP_TERMS]) {
        for (moment, decay) in cell.moments.iter_mut().zip(decays).take(self.params.terms()) {
            *moment *= decay;
        }
        self.align(cell);
    }

    /// Lets the battery recover (zero current) for `steps` time steps: each
    /// moment decays by its per-step factor, then re-aligns to the grid.
    pub fn recover(&self, cell: &mut RvCell, steps: u64) {
        if steps == 0 {
            return;
        }
        self.apply_recovery_decays(cell, &self.recovery_decays(steps));
    }

    /// Lets the battery serve a job portion of `steps` time steps with the
    /// given draw pattern (one draw of `units_per_draw` charge units every
    /// `draw_interval_steps` steps, i.e. the constant current
    /// `units·Γ / (interval·T)`).
    ///
    /// Between draw instants the moments follow the exact constant-current
    /// solution; at each draw instant the units are consumed, the state
    /// re-aligns to the grid, and emptiness is checked — if `σ ≥ α` the
    /// battery is observed empty there, retired, and the advance reports
    /// `completed == false`. Steps after the last full draw interval are
    /// recovery, exactly as in the discretized KiBaM.
    pub fn serve(
        &self,
        cell: &mut RvCell,
        steps: u64,
        draw_interval_steps: u32,
        units_per_draw: u32,
    ) -> StepAdvance {
        debug_assert!(draw_interval_steps > 0 && units_per_draw > 0);
        let interval = u64::from(draw_interval_steps);
        let interval_minutes = self.disc.steps_to_minutes(interval);
        let current = f64::from(units_per_draw) * self.disc.charge_unit() / interval_minutes;
        let draws = steps / interval;
        let remainder = steps - draws * interval;

        // Per-interval factors, derived from the cached per-step decays once
        // per call (the interval is constant within a job portion).
        let mut interval_decay = [0.0; MAX_STEP_TERMS];
        let mut interval_gain = [0.0; MAX_STEP_TERMS];
        for m in 0..self.params.terms() {
            interval_decay[m] = decay_pow(self.step_decays[m], interval);
            interval_gain[m] = current * (1.0 - interval_decay[m]) / self.rates[m];
        }

        let mut consumed: u64 = 0;
        for _ in 0..draws {
            for m in 0..self.params.terms() {
                cell.moments[m] = cell.moments[m] * interval_decay[m] + interval_gain[m];
            }
            cell.consumed_units = cell.consumed_units.saturating_add(units_per_draw);
            self.align(cell);
            consumed += interval;
            if self.is_empty(cell) {
                cell.observed_empty = true;
                return StepAdvance { steps_consumed: consumed, completed: false };
            }
        }
        if remainder > 0 {
            self.apply_recovery_decays(cell, &self.recovery_decays(remainder));
        }
        consumed += remainder;
        StepAdvance { steps_consumed: consumed, completed: true }
    }

    /// Packs a cell into a canonical 128-bit state word, or `None` if a
    /// component exceeds its 24-bit field (batteries beyond ~167 A·min at
    /// the paper's `Γ`; such systems simply opt out of memoization).
    ///
    /// Equal words are equal states: the moments are grid-aligned, so each
    /// one is a whole number of quanta, counted by the same quantizer that
    /// aligned it. That is what makes the packing sound as a
    /// transposition-table key.
    #[must_use]
    pub fn state_word(&self, cell: &RvCell) -> Option<u128> {
        cell.state_word(&self.grid)
    }

    /// Rounds every moment to the fixed-point grid. Called after every state
    /// transition, so cells are always grid-aligned (which makes
    /// [`state_word`](RvStepTable::state_word) exact).
    ///
    /// Inlined into every caller: as an out-of-line call, the moments make
    /// a round trip through memory around it and the quantizer's
    /// fast-path checks cost as much as the division they replace.
    #[inline(always)]
    fn align(&self, cell: &mut RvCell) {
        for moment in cell.moments.iter_mut().take(self.params.terms()) {
            #[cfg(test)]
            tests::record_alignment(*moment);
            *moment = self.grid.align(*moment);
        }
    }
}

/// `2^52`: adding and subtracting it rounds a double in `[0, 2^51)` to the
/// nearest integer, ties to even (the spacing of doubles in `[2^52, 2^53)`
/// is exactly one).
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
/// `2^51`: the fast path takes quotients below it only.
const TWO_POW_51: f64 = 2_251_799_813_685_248.0;
/// Relative distance from a half-quantum inside which the fast path defers
/// to the division (see [`MomentGrid`]): about three times the proven
/// worst case of `3.34·10⁻¹⁶`.
const TIE_MARGIN: f64 = 1e-15;

/// The fixed-point grid of the diffusion moments and its exact quantizer.
///
/// [`quanta`](MomentGrid::quanta) returns `(x / q).round()` bit for bit,
/// but on the common path without the division and without the call to
/// `round` (the baseline x86-64 target has no rounding instruction, so
/// `f64::round` is a library call). It multiplies by the stored reciprocal
/// `r = fl(1/q)` and rounds `p = fl(x·r)` to the nearest integer `k` with
/// the `2^52` constant, then accepts `k` when `p` is clear of a
/// half-quantum.
///
/// **Why `k` equals the reference.** Let `u = 2^-53` and `t = x/q` exactly.
/// Rounding gives `r = (1/q)(1 + δ₁)`, `p = x·r·(1 + δ₂)` and the
/// reference's `d = fl(x/q) = t(1 + δ₃)` with each `|δᵢ| ≤ u`, so
/// `|p − d| ≤ (3u + u²)·t ≤ 3.34·10⁻¹⁶·p`. For `p < 2^51` the constant
/// rounds exactly and `p − k` is exact, so `½ − |p − k|` is the distance
/// from `p` to the nearest half-integer up to one rounding. The fast path
/// requires it to exceed `TIE_MARGIN·p`, about three times the bound even
/// after the check's own roundings. Then no half-integer lies between `p`
/// and `d`: `d` rounds to the same `k` and is not itself a tie, the one
/// case where round-half-even (the constant) and round-half-away
/// (`f64::round`) disagree. The product `k·q` is then the reference's
/// product too.
///
/// **Where it defers.** `p` must be a double in `[+0.0, 2^51)`, tested as
/// one integer compare on its bits: that rejects negatives, `-0.0` (the
/// constant would return `+0.0`), NaN, infinities and quotients too large
/// for the constant. Below the normal range the relative bounds give way to
/// an absolute error under `2^-1074`, but then `p` and `d` are both far
/// below ½ and both round to zero. A quantum `q = Γ / 1024` cannot exceed
/// `f64::MAX / 1024`, so `1/q` is normal or, for a tiny `Γ`, infinite; then
/// every `p` is infinite or NaN and takes the division.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MomentGrid {
    /// The grid spacing `q`, in A·min.
    pub(crate) quantum: f64,
    /// `fl(1/q)`.
    reciprocal: f64,
}

impl MomentGrid {
    /// The grid of spacing `quantum`.
    pub(crate) fn new(quantum: f64) -> Self {
        Self { quantum, reciprocal: 1.0 / quantum }
    }

    /// `(x / q).round()`, bit for bit: the whole quanta nearest `x`.
    #[inline]
    pub(crate) fn quanta(&self, x: f64) -> f64 {
        self.fast_quanta(x).unwrap_or_else(|| (x / self.quantum).round())
    }

    /// `(x / q).round() * q`, bit for bit: `x` moved to the nearest grid
    /// point.
    #[inline]
    pub(crate) fn align(&self, x: f64) -> f64 {
        self.quanta(x) * self.quantum
    }

    /// The division-free path of [`quanta`](MomentGrid::quanta), or `None`
    /// where it cannot prove its result equal to the division's.
    #[inline]
    fn fast_quanta(&self, x: f64) -> Option<f64> {
        let p = x * self.reciprocal;
        if p.to_bits() >= TWO_POW_51.to_bits() {
            return None;
        }
        let k = (p + TWO_POW_52) - TWO_POW_52;
        (0.5 - (p - k).abs() > TIE_MARGIN * p).then_some(k)
    }
}

/// `decay^steps` for a per-step decay factor in `(0, 1)`, via exact integer
/// exponentiation (the discretized model's decay is the per-step factor
/// iterated, so two advances of `n` and `m` steps compose like one advance
/// of `n + m` steps up to grid rounding).
fn decay_pow(decay: f64, steps: u64) -> f64 {
    match i32::try_from(steps) {
        Ok(steps) => decay.powi(steps),
        // Far beyond any load horizon; the decay has long underflowed.
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{evolve, DiffusionState};
    use crate::kernel::tests::SplitMix64;
    use crate::RvFleet;
    use kibam::{BatteryParams, FleetSpec};
    use std::cell::RefCell;

    thread_local! {
        /// Every value [`RvStepTable::align`] quantizes on this thread while
        /// a [`recording`] runs.
        static ALIGNED: RefCell<Option<Vec<f64>>> = const { RefCell::new(None) };
    }

    pub(super) fn record_alignment(x: f64) {
        ALIGNED.with(|aligned| {
            if let Some(values) = aligned.borrow_mut().as_mut() {
                values.push(x);
            }
        });
    }

    /// Runs `walk` and returns every value it sent through the quantizer.
    fn recording(walk: impl FnOnce()) -> Vec<f64> {
        ALIGNED.with(|aligned| *aligned.borrow_mut() = Some(Vec::new()));
        walk();
        ALIGNED.with(|aligned| aligned.borrow_mut().take()).unwrap()
    }

    /// The expression the quantizer replaces.
    fn reference_align(x: f64, quantum: f64) -> f64 {
        (x / quantum).round() * quantum
    }

    fn assert_exact(grid: &MomentGrid, x: f64) {
        let expected = reference_align(x, grid.quantum);
        assert_eq!(
            grid.align(x).to_bits(),
            expected.to_bits(),
            "x = {x:e} ({:#018x}), q = {:e}: got {:e}, expected {expected:e}",
            x.to_bits(),
            grid.quantum,
            grid.align(x),
        );
        assert_eq!(grid.quanta(x).to_bits(), (x / grid.quantum).round().to_bits());
    }

    fn table() -> RvStepTable {
        RvStepTable::new(&RvParams::itsy_b1(), &Discretization::paper_default()).unwrap()
    }

    /// A seeded walk of scalar `serve`/`recover` and the kernel over
    /// `fleet`, starting over from fresh cells whenever every battery has
    /// died.
    fn walk(fleet: &RvFleet, seed: u64) {
        let mut rng = SplitMix64(seed);
        let mut cells = vec![RvCell::fresh(); fleet.len()];
        for _ in 0..4_000 {
            if cells.iter().all(RvCell::is_observed_empty) {
                cells.fill(RvCell::fresh());
            }
            let index = usize::try_from(rng.below(fleet.len() as u64)).unwrap();
            let steps = rng.below(1_500);
            let interval = u32::try_from(1 + rng.below(4)).unwrap();
            let units = u32::try_from(1 + rng.below(2)).unwrap();
            match rng.below(4) {
                0 => {
                    fleet.table_of(index).serve(&mut cells[index], steps, interval, units);
                }
                1 => fleet.table_of(index).recover(&mut cells[index], steps),
                2 => crate::kernel::recover(&mut cells, steps, fleet),
                _ => {
                    crate::kernel::advance_job(&mut cells, index, steps, interval, units, fleet);
                }
            }
        }
    }

    #[test]
    fn the_quantizer_matches_the_division_on_every_walked_moment() {
        let b1 = BatteryParams::itsy_b1();
        let b2 = BatteryParams::itsy_b2();
        let mut total = 0;
        let mut deferred = 0;
        for disc in [Discretization::paper_default(), Discretization::coarse()] {
            let grid = MomentGrid::new(disc.charge_unit() / MOMENT_SCALE);
            let fleets = [
                RvFleet::uniform(&b1, &disc, 2),
                RvFleet::uniform(&b1, &disc, 8),
                RvFleet::new(FleetSpec::new(vec![b1, b2]).unwrap(), disc),
            ];
            for (seed, fleet) in (1..).zip(&fleets) {
                for moment in recording(|| walk(fleet, seed)) {
                    assert_exact(&grid, moment);
                    total += 1;
                    deferred += usize::from(grid.fast_quanta(moment).is_none());
                }
            }
        }
        assert!(total > 1_000_000, "the walk quantized only {total} moments");
        assert!(deferred * 100_000 <= total, "{deferred} of {total} moments took the division");
    }

    /// ±32 ulps around `(k + ½)·q` for every `k` below 2000 and a
    /// geometric spread of `k` up to `10¹⁵`. Where `fl(1/q)` rounds up
    /// (`Γ = 0.01`, `0.05`), `p` never falls below the reference's tie;
    /// `Γ = 0.003` and `0.09` round it down, which is where a missing or
    /// too small margin shows.
    #[test]
    fn the_quantizer_matches_the_division_around_half_quanta() {
        for charge_unit in [0.01, 0.05, 0.001, 0.003, 0.09, 0.3, 1.0] {
            let grid = MomentGrid::new(charge_unit / MOMENT_SCALE);
            let mut k: f64 = 0.0;
            while k < 1e15 {
                let half = (k + 0.5) * grid.quantum;
                for offset in -32_i64..=32 {
                    let bits = half.to_bits().checked_add_signed(offset).unwrap();
                    assert_exact(&grid, f64::from_bits(bits));
                }
                k = if k < 2_000.0 { k + 1.0 } else { (k * 1.013).floor() };
            }
        }
    }

    #[test]
    fn the_quantizer_matches_the_division_on_special_values() {
        let grid = MomentGrid::new(0.01 / MOMENT_SCALE);
        let quotient = |q: f64| q * grid.quantum;
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -1e-300,
            -grid.quantum,
            -0.5 * grid.quantum,
            -1.5 * grid.quantum,
            -3.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            quotient(TWO_POW_51) * (1.0 - f64::EPSILON),
            quotient(TWO_POW_51),
            quotient(TWO_POW_51 + 0.5),
            quotient(TWO_POW_52),
            quotient(TWO_POW_52 + 1.5),
            quotient(1e18),
            1e300,
            f64::MAX,
        ];
        for x in specials {
            assert_exact(&grid, x);
        }
        assert!(grid.fast_quanta(-0.0).is_none(), "-0.0 keeps its sign through the division");
        // A quantum whose reciprocal overflows: every value takes the
        // division.
        let grid = MomentGrid::new(1e-310);
        for x in [0.0, 1e-300, 1.0, 1e300] {
            assert!(grid.fast_quanta(x).is_none());
            assert_exact(&grid, x);
        }
    }

    #[test]
    fn construction_validates_the_truncation_order() {
        let disc = Discretization::paper_default();
        let oversized = RvParams::new(5.5, 0.07, MAX_STEP_TERMS + 1).unwrap();
        assert!(matches!(RvStepTable::new(&oversized, &disc), Err(RvError::InvalidTerms { .. })));
        let t = table();
        assert_eq!(t.capacity_units(), 550);
        assert!((t.moment_quantum() - 0.01 / MOMENT_SCALE).abs() < 1e-15);
    }

    #[test]
    fn fresh_cell_is_full_and_available() {
        let t = table();
        let cell = t.fresh_cell();
        assert_eq!(t.sigma(&cell), 0.0);
        assert!((t.total_charge(&cell) - 5.5).abs() < 1e-12);
        assert!((t.apparent_charge(&cell) - 5.5).abs() < 1e-12);
        assert!(!t.is_empty(&cell));
    }

    #[test]
    fn serving_consumes_integer_units_and_builds_a_deficit() {
        let t = table();
        let mut cell = t.fresh_cell();
        // One minute of 500 mA: 100 steps, one unit every 2 steps.
        let advance = t.serve(&mut cell, 100, 2, 1);
        assert!(advance.completed);
        assert_eq!(advance.steps_consumed, 100);
        assert_eq!(cell.consumed_units(), 50);
        assert!((t.total_charge(&cell) - 5.0).abs() < 1e-12);
        assert!(t.sigma(&cell) > 0.5, "the diffusion deficit adds to the consumed charge");
        assert!(t.apparent_charge(&cell) < t.total_charge(&cell));
    }

    #[test]
    fn stepping_tracks_the_analytic_solution() {
        // After a minute of 500 mA the stepped σ must agree with the
        // analytic constant-current solution to within the fixed-point
        // grid (the per-draw alignment is the only difference).
        let t = table();
        let params = RvParams::itsy_b1();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 100, 2, 1);
        let analytic = evolve(&params, &DiffusionState::full(&params), 0.5, 1.0).unwrap();
        assert!(
            (t.sigma(&cell) - analytic.sigma()).abs() < 1e-3,
            "stepped {} vs analytic {}",
            t.sigma(&cell),
            analytic.sigma()
        );
        // Recovery agrees too.
        let mut rested = cell;
        t.recover(&mut rested, 200);
        let analytic_rested = evolve(&params, &analytic, 0.0, 2.0).unwrap();
        assert!((t.sigma(&rested) - analytic_rested.sigma()).abs() < 1e-3);
    }

    #[test]
    fn recovery_composes_additively_on_the_grid() {
        let t = table();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 100, 2, 1);
        let mut once = cell;
        t.recover(&mut once, 300);
        let mut twice = cell;
        t.recover(&mut twice, 150);
        t.recover(&mut twice, 150);
        for (a, b) in once.moments().iter().zip(twice.moments()) {
            assert!((a - b).abs() <= 2.0 * t.moment_quantum(), "{a} vs {b}");
        }
    }

    #[test]
    fn a_long_job_observes_the_battery_empty_at_a_draw_instant() {
        let t = table();
        let mut cell = t.fresh_cell();
        let advance = t.serve(&mut cell, 1_000_000, 2, 1);
        assert!(!advance.completed);
        assert_eq!(advance.steps_consumed % 2, 0, "death lands on a draw instant");
        assert!(cell.is_observed_empty());
        assert!(t.is_empty(&cell));
        // The battery died from the apparent-charge criterion with real
        // charge still inside (the rate-capacity effect).
        assert!(t.total_charge(&cell) > 0.0);
        // Close to the analytic CL 500 lifetime of the fitted model.
        let minutes = t.disc().steps_to_minutes(advance.steps_consumed);
        let analytic =
            crate::analytic::lifetime_constant_current(&RvParams::itsy_b1(), 0.5).unwrap().unwrap();
        assert!((minutes - analytic).abs() < 0.05, "stepped {minutes} vs analytic {analytic}");
    }

    #[test]
    fn observed_empty_is_sticky_through_recovery() {
        let t = table();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 1_000_000, 2, 1);
        t.recover(&mut cell, 1_000_000);
        assert!(t.apparent_charge(&cell) > 0.0, "the deficit dissipated");
        assert!(t.is_empty(&cell), "but the battery stays retired");
    }

    #[test]
    fn cells_stay_grid_aligned_for_exact_packing() {
        let t = table();
        let mut cell = t.fresh_cell();
        t.serve(&mut cell, 250, 2, 1);
        t.recover(&mut cell, 37);
        for &moment in cell.moments() {
            let quanta = moment / t.moment_quantum();
            assert!((quanta - quanta.round()).abs() < 1e-6, "moment off-grid: {moment}");
        }
        assert!(t.state_word(&cell).is_some());
    }
}
