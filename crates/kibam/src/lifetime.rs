//! Battery lifetime under piecewise-constant loads.
//!
//! All loads in the paper (Section 5) are sequences of constant-current
//! *segments*: jobs of 250 mA or 500 mA and idle periods of 0 mA. This module
//! evolves the analytical KiBaM segment by segment and locates the instant at
//! which the battery first becomes empty, which is the paper's definition of
//! battery *lifetime*.

use crate::analytic::{evolve_unchecked, time_to_empty};
use crate::{BatteryParams, KibamError, TransformedState};

/// Safety cap on the number of processed segments, so that an accidentally
/// infinite all-idle load does not hang the solver.
const MAX_SEGMENTS: usize = 10_000_000;

/// A period of constant discharge current.
///
/// `current` is in amperes, `duration` in minutes. A zero current models an
/// idle (recovery) period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    current: f64,
    duration: f64,
}

impl Segment {
    /// Creates a segment, validating current and duration.
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::InvalidCurrent`] if `current` is negative or not
    /// finite and [`KibamError::InvalidDuration`] if `duration` is negative
    /// or not finite.
    pub fn new(current: f64, duration: f64) -> Result<Self, KibamError> {
        if !(current.is_finite() && current >= 0.0) {
            return Err(KibamError::InvalidCurrent { value: current });
        }
        if !(duration.is_finite() && duration >= 0.0) {
            return Err(KibamError::InvalidDuration { value: duration });
        }
        Ok(Self { current, duration })
    }

    /// An idle segment (zero current) of the given duration.
    ///
    /// # Errors
    ///
    /// Returns [`KibamError::InvalidDuration`] if `duration` is negative or
    /// not finite.
    pub fn idle(duration: f64) -> Result<Self, KibamError> {
        Self::new(0.0, duration)
    }

    /// The discharge current of this segment in amperes.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The duration of this segment in minutes.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Whether this segment draws no current.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        // xlint: allow(float-eq) -- idle is defined as exactly-zero current
        self.current == 0.0
    }

    /// The charge drawn over the whole segment, in A·min.
    #[must_use]
    pub fn charge(&self) -> f64 {
        self.current * self.duration
    }
}

/// Outcome of a lifetime computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeResult {
    /// Time (minutes from the start of the load) at which the battery first
    /// became empty.
    pub lifetime: f64,
    /// Battery state at the moment it became empty.
    pub final_state: TransformedState,
    /// Total charge delivered to the load up to the lifetime, in A·min.
    pub delivered_charge: f64,
    /// Charge left behind in the battery (all of it bound or unavailable) at
    /// the moment it became empty, in A·min.
    pub residual_charge: f64,
}

/// Computes the lifetime of a full battery under a piecewise-constant load.
///
/// The iterator may be infinite (e.g. a repeating job pattern); iteration
/// stops as soon as the battery becomes empty. `None` is returned when the
/// load ends (or the internal segment cap is reached) before the battery is
/// empty.
///
/// # Example
///
/// ```
/// use kibam::{BatteryParams, lifetime::{lifetime_for_segments, Segment}};
///
/// # fn main() -> Result<(), kibam::KibamError> {
/// let b1 = BatteryParams::itsy_b1();
/// // The paper's ILs 500 load: 500 mA jobs of one minute with one-minute
/// // idle periods in between. Table 3 reports a lifetime of 4.30 minutes.
/// let job = Segment::new(0.5, 1.0)?;
/// let idle = Segment::idle(1.0)?;
/// let load = std::iter::repeat([job, idle]).flatten();
/// let result = lifetime_for_segments(&b1, load).expect("battery empties");
/// assert!((result.lifetime - 4.30).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn lifetime_for_segments<I>(params: &BatteryParams, segments: I) -> Option<LifetimeResult>
where
    I: IntoIterator<Item = Segment>,
{
    lifetime_from_state(params, TransformedState::full(params), segments).map(|mut r| {
        r.delivered_charge = params.capacity() - r.final_state.gamma;
        r
    })
}

/// Computes the time until empty starting from an arbitrary state.
///
/// Like [`lifetime_for_segments`] but starting from `state` rather than a
/// full battery; the returned `delivered_charge` is measured relative to
/// `state`.
#[must_use]
pub fn lifetime_from_state<I>(
    params: &BatteryParams,
    state: TransformedState,
    segments: I,
) -> Option<LifetimeResult>
where
    I: IntoIterator<Item = Segment>,
{
    let initial_gamma = state.gamma;
    let mut current_state = state;
    let mut elapsed = 0.0_f64;
    for (index, segment) in segments.into_iter().enumerate() {
        if index >= MAX_SEGMENTS {
            return None;
        }
        if let Some(t) = time_to_empty(params, current_state, segment.current)
            // xlint: allow(panic) -- segment currents are validated at construction
            .expect("segment currents are validated at construction")
        {
            if t <= segment.duration {
                let final_state = evolve_unchecked(params, current_state, segment.current, t);
                return Some(LifetimeResult {
                    lifetime: elapsed + t,
                    final_state,
                    delivered_charge: initial_gamma - final_state.gamma,
                    residual_charge: final_state.gamma,
                });
            }
        }
        current_state = evolve_unchecked(params, current_state, segment.current, segment.duration);
        elapsed += segment.duration;
    }
    None
}

/// Evolves a state through a finite list of segments without stopping at the
/// empty condition; useful for computing the state a load leaves a battery
/// in, e.g. in scheduling simulations where another battery takes over.
#[must_use]
pub fn evolve_through_segments<I>(
    params: &BatteryParams,
    state: TransformedState,
    segments: I,
) -> TransformedState
where
    I: IntoIterator<Item = Segment>,
{
    segments
        .into_iter()
        .fold(state, |s, seg| evolve_unchecked(params, s, seg.current, seg.duration))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b1() -> BatteryParams {
        BatteryParams::itsy_b1()
    }

    fn b2() -> BatteryParams {
        BatteryParams::itsy_b2()
    }

    fn repeat_jobs(pattern: Vec<Segment>) -> impl Iterator<Item = Segment> {
        std::iter::repeat(pattern).flatten()
    }

    #[test]
    fn segment_validation() {
        assert!(Segment::new(0.25, 1.0).is_ok());
        assert!(Segment::new(-0.25, 1.0).is_err());
        assert!(Segment::new(0.25, -1.0).is_err());
        assert!(Segment::new(f64::NAN, 1.0).is_err());
        assert!(Segment::idle(2.0).unwrap().is_idle());
        assert_eq!(Segment::new(0.5, 2.0).unwrap().charge(), 1.0);
    }

    #[test]
    fn continuous_250_matches_table_3() {
        let result =
            lifetime_for_segments(&b1(), repeat_jobs(vec![Segment::new(0.25, 1.0).unwrap()]))
                .unwrap();
        assert!((result.lifetime - 4.53).abs() < 0.01, "got {}", result.lifetime);
        assert!(result.residual_charge > 0.0);
        assert!(
            (result.delivered_charge + result.residual_charge - 5.5).abs() < 1e-9,
            "charge must be conserved"
        );
    }

    #[test]
    fn intermittent_500_matches_table_3() {
        let pattern = vec![Segment::new(0.5, 1.0).unwrap(), Segment::idle(1.0).unwrap()];
        let result = lifetime_for_segments(&b1(), repeat_jobs(pattern)).unwrap();
        assert!((result.lifetime - 4.30).abs() < 0.01, "got {}", result.lifetime);
    }

    #[test]
    fn long_idle_250_matches_table_3() {
        let pattern = vec![Segment::new(0.25, 1.0).unwrap(), Segment::idle(2.0).unwrap()];
        let result = lifetime_for_segments(&b1(), repeat_jobs(pattern)).unwrap();
        assert!((result.lifetime - 21.86).abs() < 0.02, "got {}", result.lifetime);
    }

    #[test]
    fn alternating_continuous_matches_table_3() {
        // CL alt: alternating 500 mA / 250 mA one-minute jobs, starting with
        // the high-current job (see README, "Results vs. the paper", on calibration).
        let pattern = vec![Segment::new(0.5, 1.0).unwrap(), Segment::new(0.25, 1.0).unwrap()];
        let result = lifetime_for_segments(&b1(), repeat_jobs(pattern)).unwrap();
        assert!((result.lifetime - 2.58).abs() < 0.01, "got {}", result.lifetime);
    }

    #[test]
    fn b2_intermittent_250_matches_table_4() {
        let pattern = vec![Segment::new(0.25, 1.0).unwrap(), Segment::idle(1.0).unwrap()];
        let result = lifetime_for_segments(&b2(), repeat_jobs(pattern)).unwrap();
        assert!((result.lifetime - 44.78).abs() < 0.02, "got {}", result.lifetime);
    }

    #[test]
    fn finite_load_that_does_not_empty_returns_none() {
        let load = vec![Segment::new(0.25, 1.0).unwrap(); 3];
        assert!(lifetime_for_segments(&b1(), load).is_none());
    }

    #[test]
    fn infinite_idle_load_terminates_with_none() {
        let load = repeat_jobs(vec![Segment::idle(1.0).unwrap()]).take(MAX_SEGMENTS + 10);
        assert!(lifetime_for_segments(&b1(), load).is_none());
    }

    #[test]
    fn idle_periods_extend_lifetime() {
        let continuous =
            lifetime_for_segments(&b1(), repeat_jobs(vec![Segment::new(0.5, 1.0).unwrap()]))
                .unwrap()
                .lifetime;
        let intermittent = lifetime_for_segments(
            &b1(),
            repeat_jobs(vec![Segment::new(0.5, 1.0).unwrap(), Segment::idle(1.0).unwrap()]),
        )
        .unwrap()
        .lifetime;
        // More wall-clock lifetime *and* more charge delivered.
        assert!(intermittent > continuous);
    }

    #[test]
    fn evolve_through_segments_accumulates() {
        let params = b1();
        let segs = vec![
            Segment::new(0.5, 1.0).unwrap(),
            Segment::idle(1.0).unwrap(),
            Segment::new(0.25, 1.0).unwrap(),
        ];
        let state = evolve_through_segments(&params, TransformedState::full(&params), segs);
        assert!((state.gamma - (5.5 - 0.5 - 0.25)).abs() < 1e-12);
        assert!(state.delta > 0.0);
    }

    #[test]
    fn available_charge_recovers_during_idle() {
        let params = b1();
        let after_job = evolve_through_segments(
            &params,
            TransformedState::full(&params),
            vec![Segment::new(0.5, 1.0).unwrap()],
        );
        let after_idle =
            evolve_through_segments(&params, after_job, vec![Segment::idle(2.0).unwrap()]);
        assert!(after_idle.available_charge(&params) > after_job.available_charge(&params));
        assert!((after_idle.gamma - after_job.gamma).abs() < 1e-12, "idle draws nothing");
    }

    #[test]
    fn total_charge_falls_by_exactly_the_drawn_charge() {
        let params = b1();
        let pattern = [Segment::new(0.25, 1.0).unwrap(), Segment::idle(1.0).unwrap()];
        let mut state = TransformedState::full(&params);
        let mut drawn = 0.0;
        for segment in pattern.iter().cycle().take(30) {
            let next = evolve_through_segments(&params, state, [*segment]);
            assert!(next.gamma <= state.gamma + 1e-12, "total charge never rises");
            drawn += segment.charge();
            state = next;
        }
        assert!((state.gamma - (5.5 - drawn)).abs() < 1e-9, "{} vs {}", state.gamma, 5.5 - drawn);
    }

    #[test]
    fn lifetime_from_partially_used_state_is_shorter() {
        let params = b1();
        let used = evolve_through_segments(
            &params,
            TransformedState::full(&params),
            vec![Segment::new(0.5, 1.0).unwrap()],
        );
        let from_full =
            lifetime_for_segments(&params, repeat_jobs(vec![Segment::new(0.25, 1.0).unwrap()]))
                .unwrap()
                .lifetime;
        let from_used =
            lifetime_from_state(&params, used, repeat_jobs(vec![Segment::new(0.25, 1.0).unwrap()]))
                .unwrap()
                .lifetime;
        assert!(from_used < from_full);
    }
}
