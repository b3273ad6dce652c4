//! Continuous Kinetic Battery Model (KiBaM).
//!
//! The Kinetic Battery Model of Manwell and McGowan describes a battery as two
//! charge wells: the *available-charge* well, which feeds the load directly,
//! and the *bound-charge* well, which replenishes the available-charge well
//! through a valve of fixed conductance `k`. The model captures the two most
//! important non-linear battery effects:
//!
//! * the **rate-capacity effect** — at high discharge currents less of the
//!   stored charge can be extracted before the battery appears empty, and
//! * the **recovery effect** — during idle periods bound charge flows back
//!   into the available-charge well, so the battery "recovers".
//!
//! This crate implements the model exactly as used in *"Maximizing System
//! Lifetime by Battery Scheduling"* (Jongerden et al., DSN 2009), Section 2:
//!
//! * [`BatteryParams`] — capacity `C`, well fraction `c` and rate constant
//!   `k' = k / (c (1 - c))`;
//! * [`TwoWellState`] / [`TransformedState`] — the battery state in the
//!   original `(y1, y2)` and transformed `(δ, γ)` coordinates (Eq. 2 of the
//!   paper);
//! * [`analytic`] — closed-form evolution under constant current and
//!   time-to-empty computation;
//! * [`ode`] — a Runge–Kutta integrator for arbitrary load functions, used to
//!   cross-validate the analytical solution;
//! * [`lifetime`] — lifetime computation for piecewise-constant loads, the
//!   form in which all of the paper's test loads are expressed.
//!
//! Figure 6's charge trajectories are sampled during scheduling, by the
//! `battery-sched` crate's `schedule::SystemTrace`.
//!
//! # Quick example
//!
//! ```
//! use kibam::{BatteryParams, lifetime::{lifetime_for_segments, Segment}};
//!
//! # fn main() -> Result<(), kibam::KibamError> {
//! // Battery B1 of the paper: 5.5 A·min, c = 0.166, k' = 0.122 / min.
//! let b1 = BatteryParams::itsy_b1();
//! // Continuous 250 mA load (the paper's "CL 250").
//! let load = std::iter::repeat(Segment::new(0.25, 1.0)?);
//! let result = lifetime_for_segments(&b1, load).expect("battery must empty");
//! // Table 3 of the paper reports 4.53 minutes.
//! assert!((result.lifetime - 4.53).abs() < 0.01);
//! # Ok(())
//! # }
//! ```
//!
//! Units throughout the crate follow the paper: charge in ampere-minutes
//! (A·min), current in amperes (A), time in minutes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analytic;
mod error;
mod fleet;
pub mod lifetime;
pub mod ode;
mod params;
mod state;

pub use error::KibamError;
pub use fleet::FleetSpec;
pub use params::BatteryParams;
pub use state::{TransformedState, TwoWellState};

/// Numerical tolerance used for emptiness checks and validation throughout
/// the crate (charge quantities below this value are treated as zero).
pub const CHARGE_EPSILON: f64 = 1e-12;
