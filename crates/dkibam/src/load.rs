use crate::{Discretization, DkibamError};
use workload::LoadProfile;

/// Largest draw-interval denominator tried when converting a current into
/// "`cur` charge units every `cur_times` time steps".
const MAX_DRAW_INTERVAL: u32 = 10_000;

/// One epoch of a discretized load, mirroring one entry of the paper's
/// `load_time` / `cur_times` / `cur` arrays (Section 4.1).
///
/// During a job epoch, `units_per_draw` charge units are subtracted from the
/// serving battery every `draw_interval_steps` time steps, which realises the
/// epoch current `I = cur·Γ / (cur_times·T)` (Eq. 7). Idle epochs draw
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscreteEpoch {
    duration_steps: u64,
    draw_interval_steps: u32,
    units_per_draw: u32,
}

impl DiscreteEpoch {
    /// An idle epoch of the given number of time steps.
    #[must_use]
    pub fn idle(duration_steps: u64) -> Self {
        Self { duration_steps, draw_interval_steps: 0, units_per_draw: 0 }
    }

    /// A job epoch: `units_per_draw` charge units are drawn every
    /// `draw_interval_steps` time steps for `duration_steps` steps.
    #[must_use]
    pub fn job(duration_steps: u64, draw_interval_steps: u32, units_per_draw: u32) -> Self {
        Self { duration_steps, draw_interval_steps, units_per_draw }
    }

    /// Length of the epoch in time steps.
    #[must_use]
    pub fn duration_steps(&self) -> u64 {
        self.duration_steps
    }

    /// Time steps between two consecutive charge draws (the paper's
    /// `cur_times[j]`); zero for idle epochs.
    #[must_use]
    pub fn draw_interval_steps(&self) -> u32 {
        self.draw_interval_steps
    }

    /// Charge units drawn at each draw instant (the paper's `cur[j]`); zero
    /// for idle epochs.
    #[must_use]
    pub fn units_per_draw(&self) -> u32 {
        self.units_per_draw
    }

    /// Whether the epoch draws no charge.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.units_per_draw == 0 || self.draw_interval_steps == 0
    }

    /// The continuous current realised by this epoch under the given
    /// discretization (Eq. 7 of the paper), in amperes.
    #[must_use]
    pub fn current(&self, disc: &Discretization) -> f64 {
        if self.is_idle() {
            0.0
        } else {
            f64::from(self.units_per_draw) * disc.charge_unit()
                / (f64::from(self.draw_interval_steps) * disc.time_step())
        }
    }

    /// The number of complete draw instants contained in this epoch.
    #[must_use]
    pub fn draws_in_epoch(&self) -> u64 {
        if self.is_idle() {
            0
        } else {
            self.duration_steps / u64::from(self.draw_interval_steps)
        }
    }

    /// Total charge units drawn over the whole epoch.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.draws_in_epoch() * u64::from(self.units_per_draw)
    }
}

/// A complete load expressed in the discrete quantities of the TA-KiBaM:
/// a sequence of [`DiscreteEpoch`]s plus the discretization they refer to.
///
/// This corresponds to the three precomputed arrays `load_time`,
/// `cur_times` and `cur` that the paper imports into its timed-automata
/// model ("The three arrays are created using an external program", §4.1 —
/// this type *is* that external program).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizedLoad {
    epochs: Vec<DiscreteEpoch>,
    disc: Discretization,
}

impl DiscretizedLoad {
    /// Discretizes a load profile.
    ///
    /// Cyclic profiles are truncated so that they draw at least
    /// `charge_horizon` A·min — callers typically pass the total capacity of
    /// all batteries involved, guaranteeing the load outlasts them. Finite
    /// profiles are used as-is.
    ///
    /// # Errors
    ///
    /// * [`DkibamError::InvalidHorizon`] if a cyclic profile is given a
    ///   non-positive or non-finite horizon;
    /// * [`DkibamError::UnrepresentableCurrent`] if an epoch current cannot
    ///   be written as an integer number of charge units per integer number
    ///   of time steps;
    /// * [`DkibamError::EmptyLoad`] if the resulting epoch list is empty.
    pub fn from_profile(
        profile: &LoadProfile,
        disc: &Discretization,
        charge_horizon: f64,
    ) -> Result<Self, DkibamError> {
        let finite = if profile.is_cyclic() {
            if !(charge_horizon.is_finite() && charge_horizon > 0.0) {
                return Err(DkibamError::InvalidHorizon { value: charge_horizon });
            }
            profile.truncate_to_charge(charge_horizon)?
        } else {
            profile.clone()
        };
        let mut epochs = Vec::with_capacity(finite.pattern().len());
        for epoch in finite.pattern() {
            let duration_steps = disc.minutes_to_steps(epoch.duration());
            if epoch.is_idle() {
                epochs.push(DiscreteEpoch::idle(duration_steps));
            } else {
                let (units, interval) = represent_current(epoch.current(), disc)?;
                epochs.push(DiscreteEpoch::job(duration_steps, interval, units));
            }
        }
        if epochs.is_empty() {
            return Err(DkibamError::EmptyLoad);
        }
        Ok(Self { epochs, disc: *disc })
    }

    /// The discretized epochs in load order.
    #[must_use]
    pub fn epochs(&self) -> &[DiscreteEpoch] {
        &self.epochs
    }

    /// The discretization this load was built with.
    #[must_use]
    pub fn discretization(&self) -> &Discretization {
        &self.disc
    }

    /// The paper's `load_time` array: the absolute end time of each epoch,
    /// in time steps from the start of the load.
    #[must_use]
    pub fn load_time(&self) -> Vec<u64> {
        let mut total = 0;
        self.epochs
            .iter()
            .map(|e| {
                total += e.duration_steps();
                total
            })
            .collect()
    }

    /// Total duration of the load in time steps.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.epochs.iter().map(DiscreteEpoch::duration_steps).sum()
    }

    /// Total charge units drawn by the whole load.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.epochs.iter().map(DiscreteEpoch::total_units).sum()
    }
}

/// Finds the smallest `(units, interval)` pair such that drawing `units`
/// charge units every `interval` time steps realises `current` exactly (to
/// within floating-point tolerance).
fn represent_current(current: f64, disc: &Discretization) -> Result<(u32, u32), DkibamError> {
    // current = units * Γ / (interval * T)  =>  units / interval = current·T/Γ.
    let ratio = current * disc.time_step() / disc.charge_unit();
    if !(ratio.is_finite() && ratio > 0.0) {
        return Err(DkibamError::UnrepresentableCurrent { current });
    }
    for interval in 1..=MAX_DRAW_INTERVAL {
        let units = ratio * f64::from(interval);
        let rounded = units.round();
        if rounded >= 1.0 && (units - rounded).abs() < 1e-9 {
            return Ok((crate::checked::f64_to_u32(rounded), interval));
        }
    }
    Err(DkibamError::UnrepresentableCurrent { current })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::paper_loads::TestLoad;

    fn disc() -> Discretization {
        Discretization::paper_default()
    }

    #[test]
    fn paper_currents_have_small_representations() {
        // 250 mA: one unit every 4 steps; 500 mA: one unit every 2 steps.
        assert_eq!(represent_current(0.25, &disc()).unwrap(), (1, 4));
        assert_eq!(represent_current(0.5, &disc()).unwrap(), (1, 2));
        // 700 mA (the Itsy maximum): 7 units every 100 steps... actually 7/10.
        assert_eq!(represent_current(0.7, &disc()).unwrap(), (7, 10));
    }

    #[test]
    fn unrepresentable_and_zero_currents_are_rejected() {
        assert!(matches!(
            represent_current(0.0, &disc()),
            Err(DkibamError::UnrepresentableCurrent { .. })
        ));
        assert!(represent_current(f64::NAN, &disc()).is_err());
    }

    #[test]
    fn discrete_epoch_current_round_trips() {
        let epoch = DiscreteEpoch::job(100, 4, 1);
        assert!((epoch.current(&disc()) - 0.25).abs() < 1e-12);
        assert_eq!(epoch.draws_in_epoch(), 25);
        assert_eq!(epoch.total_units(), 25);
        assert!(!epoch.is_idle());
        let idle = DiscreteEpoch::idle(50);
        assert!(idle.is_idle());
        assert_eq!(idle.current(&disc()), 0.0);
        assert_eq!(idle.total_units(), 0);
    }

    #[test]
    fn cyclic_profile_requires_valid_horizon() {
        let profile = TestLoad::Cl250.profile();
        assert!(DiscretizedLoad::from_profile(&profile, &disc(), 0.0).is_err());
        assert!(DiscretizedLoad::from_profile(&profile, &disc(), f64::NAN).is_err());
        assert!(DiscretizedLoad::from_profile(&profile, &disc(), 6.0).is_ok());
    }

    #[test]
    fn discretized_load_draws_at_least_the_horizon() {
        let profile = TestLoad::Ils500.profile();
        let load = DiscretizedLoad::from_profile(&profile, &disc(), 11.0).unwrap();
        let drawn_charge = load.total_units() as f64 * disc().charge_unit();
        assert!(drawn_charge >= 11.0);
    }

    #[test]
    fn load_time_is_cumulative_and_matches_total() {
        let profile = TestLoad::IlsAlt.profile();
        let load = DiscretizedLoad::from_profile(&profile, &disc(), 6.0).unwrap();
        let times = load.load_time();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(*times.last().unwrap(), load.total_steps());
    }

    #[test]
    fn paper_load_epochs_have_expected_step_counts() {
        let profile = TestLoad::Ill250.profile();
        let load = DiscretizedLoad::from_profile(&profile, &disc(), 6.0).unwrap();
        // Pattern: one-minute job (100 steps), two-minute idle (200 steps).
        assert_eq!(load.epochs()[0].duration_steps(), 100);
        assert_eq!(load.epochs()[0].draw_interval_steps(), 4);
        assert_eq!(load.epochs()[1].duration_steps(), 200);
        assert!(load.epochs()[1].is_idle());
    }

    #[test]
    fn finite_profiles_are_used_verbatim() {
        let profile = TestLoad::IlsR1.profile();
        let load = DiscretizedLoad::from_profile(&profile, &disc(), 1.0).unwrap();
        assert_eq!(load.epochs().len(), profile.pattern().len());
    }
}
