use crate::RvError;
use kibam::BatteryParams;

/// The truncation order the cross-model fit picks for a KiBaM battery:
/// `M = round((1-c)/(2c))`, clamped to `1..=`[`crate::MAX_STEP_TERMS`].
///
/// At `t → 0` every RV correction term responds identically, so the
/// truncated deficit grows as `2M·I·t`, while the KiBaM's unavailable
/// charge grows as `((1-c)/c)·I·t` — equating the two slopes fixes `M`
/// from the well fraction alone. For the paper's Itsy cell (`c = 0.166`,
/// slope 5.02) this lands on `M = 3`; together with the `β²` gain match of
/// [`RvParams::from_kibam`] the fit pins *both* ends of the response curve,
/// leaving only the genuinely diffusion-shaped transients in between to
/// differ. (Rakhmatov and Vrudhula used ten terms for voltage-accurate
/// traces; for lifetime prediction the sum converges much faster, and the
/// fit re-solves `β²` per order, so the model is self-consistent at any
/// `M`.)
#[must_use]
pub fn fitted_terms(params: &BatteryParams) -> usize {
    let slope = (1.0 - params.c()) / (2.0 * params.c());
    let terms = dkibam::checked::f64_to_usize(slope.round().max(1.0));
    terms.clamp(1, crate::MAX_STEP_TERMS)
}

/// Parameters of a Rakhmatov–Vrudhula (RV) diffusion battery.
///
/// The RV model describes the battery as one-dimensional diffusion of the
/// electroactive species towards the electrode. For a load `i(τ)` the
/// *apparent charge lost* by time `t` is
///
/// ```text
/// σ(t) = ∫₀ᵗ i(τ) dτ  +  2 Σ_{m=1}^{M} ∫₀ᵗ i(τ) e^{-β²m²(t-τ)} dτ
/// ```
///
/// — the charge actually consumed plus a diffusion deficit that *recovers*
/// (decays) during idle periods — and the battery is empty when `σ(t) = α`.
/// The infinite exponential sum is truncated at `M = terms`.
///
/// Two parameters describe a battery:
///
/// * `alpha` — the apparent-charge capacity `α` in A·min (the battery dies
///   when the apparent charge lost reaches it);
/// * `beta_squared` — the diffusion rate `β²` in 1/min, governing how fast
///   the deficit dissipates (larger `β²` ⇒ weaker rate-capacity and
///   recovery effects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RvParams {
    alpha: f64,
    beta_squared: f64,
    terms: usize,
}

impl RvParams {
    /// Creates RV parameters after validating them.
    ///
    /// # Errors
    ///
    /// Returns [`RvError::InvalidAlpha`] if `alpha` is not positive and
    /// finite, [`RvError::InvalidDiffusionRate`] if `beta_squared` is not
    /// positive and finite, and [`RvError::InvalidTerms`] if `terms` is zero
    /// or above [`crate::MAX_TERMS`].
    pub fn new(alpha: f64, beta_squared: f64, terms: usize) -> Result<Self, RvError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(RvError::InvalidAlpha { value: alpha });
        }
        if !(beta_squared.is_finite() && beta_squared > 0.0) {
            return Err(RvError::InvalidDiffusionRate { value: beta_squared });
        }
        if terms == 0 || terms > crate::MAX_TERMS {
            return Err(RvError::InvalidTerms { value: terms });
        }
        Ok(Self { alpha, beta_squared, terms })
    }

    /// Fits RV parameters to a KiBaM battery: shared capacity, matched
    /// response slopes at both ends.
    ///
    /// The fit shares the battery's **capacity** (`α = C`, so both models
    /// store the same total charge), picks the truncation order from the
    /// well fraction ([`fitted_terms`]: `M = round((1-c)/(2c))`, matching
    /// the *instantaneous* deficit response `2M·I ≈ ((1-c)/c)·I`), and
    /// matches the **steady-state recovery gain**: under a sustained
    /// current `I`, the KiBaM's unavailable charge settles at
    /// `I·(1-c)/(c·k')` ([`BatteryParams::recovery_gain`]) while the
    /// truncated RV deficit settles at `2I·Σ_{m=1}^{M} 1/(β²m²)`.
    /// Equating the two gives the closed form
    ///
    /// ```text
    /// β² = 2·H₂(M) / recovery_gain,    H₂(M) = Σ_{m=1}^{M} 1/m²
    /// ```
    ///
    /// With both the short-time slope and the long-run gain pinned, the two
    /// models agree at the extremes of the response curve and differ only
    /// in the genuinely diffusion-shaped transients between them — which is
    /// exactly the cross-model difference the scheduling comparison is
    /// after.
    #[must_use]
    pub fn from_kibam(params: &BatteryParams) -> Self {
        Self::from_kibam_with_terms(params, fitted_terms(params))
            // xlint: allow(panic) -- fitted_terms is clamped to the valid range above
            .expect("fitted_terms stays within the valid range")
    }

    /// [`RvParams::from_kibam`] at an explicit truncation order.
    ///
    /// # Errors
    ///
    /// Returns [`RvError::InvalidTerms`] if `terms` is zero or above
    /// [`crate::MAX_TERMS`].
    pub fn from_kibam_with_terms(params: &BatteryParams, terms: usize) -> Result<Self, RvError> {
        if terms == 0 || terms > crate::MAX_TERMS {
            return Err(RvError::InvalidTerms { value: terms });
        }
        #[allow(clippy::cast_precision_loss)]
        let h2: f64 = (1..=terms).map(|m| 1.0 / (m * m) as f64).sum();
        let beta_squared = 2.0 * h2 / params.recovery_gain();
        Self::new(params.capacity(), beta_squared, terms)
    }

    /// The RV fit of the paper's battery **B1** (5.5 A·min Itsy cell).
    #[must_use]
    pub fn itsy_b1() -> Self {
        Self::from_kibam(&BatteryParams::itsy_b1())
    }

    /// The RV fit of the paper's battery **B2** (11 A·min Itsy cell).
    #[must_use]
    pub fn itsy_b2() -> Self {
        Self::from_kibam(&BatteryParams::itsy_b2())
    }

    /// The apparent-charge capacity `α` in A·min.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The diffusion rate `β²` in 1/min.
    #[must_use]
    pub fn beta_squared(&self) -> f64 {
        self.beta_squared
    }

    /// The truncation order `M` of the exponential-sum correction term.
    #[must_use]
    pub fn terms(&self) -> usize {
        self.terms
    }

    /// The decay rate `β²·m²` of correction term `m` (1-based), in 1/min.
    #[must_use]
    pub fn rate(&self, m: usize) -> f64 {
        debug_assert!(m >= 1 && m <= self.terms);
        #[allow(clippy::cast_precision_loss)]
        let m2 = (m * m) as f64;
        self.beta_squared * m2
    }

    /// The steady-state deficit per ampere of sustained load,
    /// `2·Σ_{m=1}^{M} 1/(β²m²)` in minutes — the RV analogue of
    /// [`BatteryParams::recovery_gain`], which [`RvParams::from_kibam`]
    /// matches exactly.
    #[must_use]
    pub fn recovery_gain(&self) -> f64 {
        (1..=self.terms).map(|m| 2.0 / self.rate(m)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(matches!(RvParams::new(0.0, 0.1, 4), Err(RvError::InvalidAlpha { .. })));
        assert!(matches!(
            RvParams::new(5.5, f64::NAN, 4),
            Err(RvError::InvalidDiffusionRate { .. })
        ));
        assert!(matches!(RvParams::new(5.5, 0.1, 0), Err(RvError::InvalidTerms { value: 0 })));
        assert!(matches!(
            RvParams::new(5.5, 0.1, crate::MAX_TERMS + 1),
            Err(RvError::InvalidTerms { .. })
        ));
        assert!(RvParams::new(5.5, 0.1, 4).is_ok());
    }

    #[test]
    fn fit_preserves_capacity_and_recovery_gain() {
        let b1 = BatteryParams::itsy_b1();
        let rv = RvParams::from_kibam(&b1);
        assert_eq!(rv.alpha(), b1.capacity());
        // The defining properties of the fit: equal steady-state gains and
        // the slope-matched truncation order.
        assert_eq!(rv.terms(), fitted_terms(&b1));
        assert!((rv.recovery_gain() - b1.recovery_gain()).abs() < 1e-9);
    }

    #[test]
    fn fitted_terms_match_the_short_time_slope() {
        // Itsy cell: (1 - c) / (2c) = 0.834 / 0.332 = 2.51 -> M = 3.
        assert_eq!(fitted_terms(&BatteryParams::itsy_b1()), 3);
        // A balanced-well battery responds like a single mode.
        assert_eq!(fitted_terms(&BatteryParams::new(1.0, 0.4, 0.1).unwrap()), 1);
        // Tiny well fractions clamp at the stepping form's term cap.
        assert_eq!(
            fitted_terms(&BatteryParams::new(1.0, 0.05, 0.1).unwrap()),
            crate::MAX_STEP_TERMS
        );
    }

    #[test]
    fn fit_matches_the_closed_form() {
        // beta^2 = 2 * H2(3) / gain with H2(3) = 1 + 1/4 + 1/9 and
        // gain = (1 - c) / (c k') = 0.834 / (0.166 * 0.122).
        let rv = RvParams::itsy_b1();
        assert_eq!(rv.terms(), 3);
        let h2 = 1.0 + 0.25 + 1.0 / 9.0;
        let gain = 0.834 / (0.166 * 0.122);
        assert!((rv.beta_squared() - 2.0 * h2 / gain).abs() < 1e-12);
    }

    #[test]
    fn b2_differs_from_b1_only_in_capacity() {
        let b1 = RvParams::itsy_b1();
        let b2 = RvParams::itsy_b2();
        assert_eq!(b2.alpha(), 11.0);
        assert_eq!(b1.beta_squared(), b2.beta_squared());
        assert_eq!(b1.terms(), b2.terms());
    }

    #[test]
    fn rates_grow_quadratically() {
        let rv = RvParams::itsy_b1();
        assert!((rv.rate(2) - 4.0 * rv.rate(1)).abs() < 1e-12);
        assert!((rv.rate(3) - 9.0 * rv.rate(1)).abs() < 1e-12);
    }

    #[test]
    fn higher_truncation_orders_refit_beta() {
        let b1 = BatteryParams::itsy_b1();
        let four = RvParams::from_kibam_with_terms(&b1, 4).unwrap();
        let ten = RvParams::from_kibam_with_terms(&b1, 10).unwrap();
        assert!(ten.beta_squared() > four.beta_squared(), "more terms need a faster base rate");
        // Both orders still reproduce the KiBaM gain.
        assert!((ten.recovery_gain() - b1.recovery_gain()).abs() < 1e-9);
        assert!(RvParams::from_kibam_with_terms(&b1, 0).is_err());
    }
}
