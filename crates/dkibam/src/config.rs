use crate::checked;
use crate::DkibamError;
use kibam::BatteryParams;

/// Discretization step sizes of the dKiBaM (Section 2.3 of the paper).
///
/// * `time_step` — the length `T` of one discrete time step, in minutes;
/// * `charge_unit` — the size `Γ` of one charge unit, in A·min.
///
/// The height difference is discretized in units of `Γ / c`, which depends on
/// the battery parameters and is therefore exposed as a method.
///
/// # Example
///
/// ```
/// use dkibam::Discretization;
/// use kibam::BatteryParams;
///
/// let disc = Discretization::paper_default();
/// assert_eq!(disc.time_step(), 0.01);
/// assert_eq!(disc.charge_unit(), 0.01);
/// // Battery B1 holds N = 550 charge units.
/// assert_eq!(disc.charge_units(BatteryParams::itsy_b1().capacity()), 550);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discretization {
    time_step: f64,
    charge_unit: f64,
}

impl Discretization {
    /// Creates a discretization with the given time step `T` (minutes) and
    /// charge unit `Γ` (A·min).
    ///
    /// # Errors
    ///
    /// Returns [`DkibamError::InvalidStepSize`] if either step is not
    /// positive and finite.
    pub fn new(time_step: f64, charge_unit: f64) -> Result<Self, DkibamError> {
        if !(time_step.is_finite() && time_step > 0.0) {
            return Err(DkibamError::InvalidStepSize { which: "time", value: time_step });
        }
        if !(charge_unit.is_finite() && charge_unit > 0.0) {
            return Err(DkibamError::InvalidStepSize { which: "charge", value: charge_unit });
        }
        Ok(Self { time_step, charge_unit })
    }

    /// The discretization used throughout the paper's experiments:
    /// `T = 0.01` min and `Γ = 0.01` A·min.
    #[must_use]
    pub fn paper_default() -> Self {
        Self { time_step: 0.01, charge_unit: 0.01 }
    }

    /// A coarser discretization (`T = 0.05` min, `Γ = 0.05` A·min) that keeps
    /// optimal-schedule searches tractable in tests and benchmarks while
    /// preserving the qualitative behaviour.
    #[must_use]
    pub fn coarse() -> Self {
        Self { time_step: 0.05, charge_unit: 0.05 }
    }

    /// The time step `T` in minutes.
    #[must_use]
    pub fn time_step(&self) -> f64 {
        self.time_step
    }

    /// The charge unit `Γ` in A·min.
    #[must_use]
    pub fn charge_unit(&self) -> f64 {
        self.charge_unit
    }

    /// Number of charge units `N = round(C / Γ)` for a capacity `C` (A·min).
    #[must_use]
    pub fn charge_units(&self, capacity: f64) -> u32 {
        checked::f64_to_u32((capacity / self.charge_unit).round())
    }

    /// Size of one height-difference unit, `Γ / c`, for the given battery.
    #[must_use]
    pub fn height_unit(&self, params: &BatteryParams) -> f64 {
        self.charge_unit / params.c()
    }

    /// Converts a number of time steps into minutes.
    #[must_use]
    pub fn steps_to_minutes(&self, steps: u64) -> f64 {
        steps as f64 * self.time_step
    }

    /// Converts a duration in minutes into the nearest number of time steps.
    #[must_use]
    pub fn minutes_to_steps(&self, minutes: f64) -> u64 {
        checked::f64_to_u64((minutes / self.time_step).round().max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Discretization::new(0.01, 0.01).is_ok());
        assert!(matches!(
            Discretization::new(0.0, 0.01),
            Err(DkibamError::InvalidStepSize { which: "time", .. })
        ));
        assert!(matches!(
            Discretization::new(0.01, -1.0),
            Err(DkibamError::InvalidStepSize { which: "charge", .. })
        ));
        assert!(Discretization::new(f64::NAN, 0.01).is_err());
    }

    #[test]
    fn paper_default_matches_section_5() {
        let disc = Discretization::paper_default();
        assert_eq!(disc.time_step(), 0.01);
        assert_eq!(disc.charge_unit(), 0.01);
        let b1 = BatteryParams::itsy_b1();
        assert_eq!(disc.charge_units(b1.capacity()), 550);
        assert_eq!(disc.charge_units(BatteryParams::itsy_b2().capacity()), 1100);
        // Height unit 0.01 / 0.166 ≈ 0.06 A·min as stated in the paper.
        assert!((disc.height_unit(&b1) - 0.0602).abs() < 0.001);
    }

    #[test]
    fn step_time_conversions_round_trip() {
        let disc = Discretization::paper_default();
        assert_eq!(disc.minutes_to_steps(1.0), 100);
        assert_eq!(disc.steps_to_minutes(100), 1.0);
        assert_eq!(disc.minutes_to_steps(0.999), 100);
        assert_eq!(disc.minutes_to_steps(0.0), 0);
    }

    #[test]
    fn coarse_is_coarser_than_default() {
        assert!(Discretization::coarse().time_step() > Discretization::paper_default().time_step());
        assert!(
            Discretization::coarse().charge_unit() > Discretization::paper_default().charge_unit()
        );
    }
}
