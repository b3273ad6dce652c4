use crate::{KibamError, TwoWellState};

/// Parameters of a Kinetic Battery Model battery.
///
/// A battery is described by three parameters (Section 2.1 of the paper):
///
/// * `capacity` — the total charge `C` stored in a full battery, in A·min;
/// * `c` — the fraction of the capacity held in the *available-charge* well
///   (the rest, `1 - c`, is bound charge);
/// * `k_prime` — the normalised valve conductance `k' = k / (c (1 - c))`, in
///   1/min, which governs how fast bound charge becomes available.
///
/// The paper's experiments use the lithium-ion cell of the Itsy pocket
/// computer with `c = 0.166` and `k' = 0.122 / min` in two capacities:
/// [`BatteryParams::itsy_b1`] (5.5 A·min) and [`BatteryParams::itsy_b2`]
/// (11 A·min).
///
/// # Example
///
/// ```
/// use kibam::BatteryParams;
///
/// # fn main() -> Result<(), kibam::KibamError> {
/// let battery = BatteryParams::new(5.5, 0.166, 0.122)?;
/// assert_eq!(battery.capacity(), 5.5);
/// // The raw valve conductance k = k' * c * (1 - c).
/// assert!((battery.k() - 0.122 * 0.166 * 0.834).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryParams {
    capacity: f64,
    c: f64,
    k_prime: f64,
}

/// The well fraction `c` of the Itsy lithium-ion cell used in the paper.
pub const ITSY_C: f64 = 0.166;
/// The rate constant `k'` (1/min) of the Itsy lithium-ion cell used in the paper.
pub const ITSY_K_PRIME: f64 = 0.122;
/// Capacity (A·min) of battery B1 of the paper.
pub const ITSY_B1_CAPACITY: f64 = 5.5;
/// Capacity (A·min) of battery B2 of the paper.
pub const ITSY_B2_CAPACITY: f64 = 11.0;

impl BatteryParams {
    /// Creates battery parameters after validating them.
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::InvalidCapacity`] if `capacity` is not positive
    /// and finite, [`KibamError::InvalidWellFraction`] if `c` does not lie
    /// strictly between 0 and 1, and [`KibamError::InvalidRateConstant`] if
    /// `k_prime` is not positive and finite.
    pub fn new(capacity: f64, c: f64, k_prime: f64) -> Result<Self, KibamError> {
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(KibamError::InvalidCapacity { value: capacity });
        }
        if !(c.is_finite() && c > 0.0 && c < 1.0) {
            return Err(KibamError::InvalidWellFraction { value: c });
        }
        if !(k_prime.is_finite() && k_prime > 0.0) {
            return Err(KibamError::InvalidRateConstant { value: k_prime });
        }
        Ok(Self { capacity, c, k_prime })
    }

    /// The battery **B1** of the paper: 5.5 A·min, `c = 0.166`,
    /// `k' = 0.122 / min` (Itsy pocket-computer lithium-ion cell).
    #[must_use]
    pub fn itsy_b1() -> Self {
        Self { capacity: ITSY_B1_CAPACITY, c: ITSY_C, k_prime: ITSY_K_PRIME }
    }

    /// The battery **B2** of the paper: 11 A·min, `c = 0.166`,
    /// `k' = 0.122 / min`.
    #[must_use]
    pub fn itsy_b2() -> Self {
        Self { capacity: ITSY_B2_CAPACITY, c: ITSY_C, k_prime: ITSY_K_PRIME }
    }

    /// Total capacity `C` in A·min.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Fraction `c` of the capacity held in the available-charge well.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Normalised rate constant `k' = k / (c (1 - c))` in 1/min.
    #[must_use]
    pub fn k_prime(&self) -> f64 {
        self.k_prime
    }

    /// Raw valve conductance `k = k' · c · (1 - c)` in 1/min.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k_prime * self.c * (1.0 - self.c)
    }

    /// The steady-state *recovery gain* `(1 - c) / (c · k')` in minutes: the
    /// bound-charge deficit (unavailable charge) per ampere of sustained
    /// load once the height difference has settled, `lim_{t→∞} (1-c)·δ(t)/I`.
    ///
    /// This is the KiBaM side of cross-model parameter fits: a battery model
    /// with a different unavailable-charge law (e.g. the Rakhmatov–Vrudhula
    /// diffusion model of the `rv` crate) reproduces the same low-rate
    /// rate-capacity loss exactly when its own steady-state gain matches
    /// this value.
    #[must_use]
    pub fn recovery_gain(&self) -> f64 {
        (1.0 - self.c) / (self.c * self.k_prime)
    }

    /// Returns a copy of these parameters with a different capacity.
    ///
    /// This is convenient for capacity-scaling studies (Section 6 of the
    /// paper discusses a ten-fold larger battery).
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::InvalidCapacity`] if `capacity` is not positive
    /// and finite.
    pub fn with_capacity(&self, capacity: f64) -> Result<Self, KibamError> {
        Self::new(capacity, self.c, self.k_prime)
    }

    /// The state of a freshly charged battery: the available-charge well
    /// holds `c · C`, the bound-charge well `(1 - c) · C`.
    #[must_use]
    pub fn full_state(&self) -> TwoWellState {
        TwoWellState::new_unchecked(self.c * self.capacity, (1.0 - self.c) * self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_values() {
        let b1 = BatteryParams::itsy_b1();
        assert_eq!(b1.capacity(), 5.5);
        assert_eq!(b1.c(), 0.166);
        assert_eq!(b1.k_prime(), 0.122);
        let b2 = BatteryParams::itsy_b2();
        assert_eq!(b2.capacity(), 11.0);
        assert_eq!(b2.c(), b1.c());
        assert_eq!(b2.k_prime(), b1.k_prime());
    }

    #[test]
    fn new_rejects_invalid_capacity() {
        assert!(matches!(
            BatteryParams::new(0.0, 0.5, 1.0),
            Err(KibamError::InvalidCapacity { .. })
        ));
        assert!(matches!(
            BatteryParams::new(-1.0, 0.5, 1.0),
            Err(KibamError::InvalidCapacity { .. })
        ));
        assert!(matches!(
            BatteryParams::new(f64::NAN, 0.5, 1.0),
            Err(KibamError::InvalidCapacity { .. })
        ));
        assert!(matches!(
            BatteryParams::new(f64::INFINITY, 0.5, 1.0),
            Err(KibamError::InvalidCapacity { .. })
        ));
    }

    #[test]
    fn new_rejects_invalid_well_fraction() {
        for c in [0.0, 1.0, -0.1, 1.1, f64::NAN] {
            assert!(matches!(
                BatteryParams::new(1.0, c, 1.0),
                Err(KibamError::InvalidWellFraction { .. })
            ));
        }
    }

    #[test]
    fn new_rejects_invalid_rate_constant() {
        for k in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                BatteryParams::new(1.0, 0.5, k),
                Err(KibamError::InvalidRateConstant { .. })
            ));
        }
    }

    #[test]
    fn k_is_consistent_with_k_prime() {
        let p = BatteryParams::new(2.0, 0.25, 0.4).unwrap();
        assert!((p.k() - 0.4 * 0.25 * 0.75).abs() < 1e-15);
    }

    #[test]
    fn recovery_gain_matches_the_steady_state_height_difference() {
        // Under a sustained current I the height difference settles at
        // δ = I / (c·k'), so the unavailable charge settles at
        // (1-c)·δ = I·(1-c)/(c·k') — the gain times the current.
        let b1 = BatteryParams::itsy_b1();
        let expected = (1.0 - 0.166) / (0.166 * 0.122);
        assert!((b1.recovery_gain() - expected).abs() < 1e-12);
        // Capacity does not enter the gain: B2 shares it.
        assert_eq!(b1.recovery_gain(), BatteryParams::itsy_b2().recovery_gain());
    }

    #[test]
    fn full_state_splits_capacity_by_c() {
        let p = BatteryParams::itsy_b1();
        let s = p.full_state();
        assert!((s.available() - 0.166 * 5.5).abs() < 1e-12);
        assert!((s.bound() - 0.834 * 5.5).abs() < 1e-12);
        assert!((s.total() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn with_capacity_scales_only_capacity() {
        let b1 = BatteryParams::itsy_b1();
        let b10 = b1.with_capacity(55.0).unwrap();
        assert_eq!(b10.capacity(), 55.0);
        assert_eq!(b10.c(), b1.c());
        assert_eq!(b10.k_prime(), b1.k_prime());
        assert!(b1.with_capacity(-3.0).is_err());
    }
}
