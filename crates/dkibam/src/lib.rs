//! Discretized Kinetic Battery Model (dKiBaM).
//!
//! Section 2.3 of the battery-scheduling paper discretizes the KiBaM in
//! three dimensions so that it can be expressed as a (priced) timed
//! automaton:
//!
//! * **time** in steps of size `T` (0.01 min in the paper);
//! * **total charge** `γ` in `N = C / Γ` units of size `Γ` (0.01 A·min);
//! * **height difference** `δ` in units of size `Γ / c`.
//!
//! Discharge subtracts whole charge units at epoch-specific intervals, and
//! recovery decreases the height difference by one unit after a precomputed
//! number of time steps (Eq. 6). This crate implements that discretization
//! directly — the state space explored here is exactly the state space of
//! the TA-KiBaM of Section 4 — and provides:
//!
//! * [`Discretization`] — the step sizes `T` and `Γ` plus derived quantities;
//! * [`RecoveryTable`] — the `recov_times` array of Eq. 6;
//! * [`ServiceRateTable`] — the recovery-coupled service envelope of a
//!   battery type (the Eq. 8 frontier per charge level plus the fastest
//!   recovery rate on the serviceable band), feeding the availability-aware
//!   search bound of the `battery-sched` crate;
//! * [`DiscreteBattery`] — the integer battery state (`n_gamma`, `m_delta`)
//!   with discharge, recovery and the emptiness test of Eq. 8;
//! * [`DiscretizedLoad`] — a [`workload::LoadProfile`] converted to the
//!   `load_time` / `cur_times` / `cur` arrays of Section 4.1;
//! * [`simulate_lifetime`](sim::simulate_lifetime) — the single-battery
//!   discrete simulation used to validate the model (Tables 3 and 4);
//! * [`DiscreteFleet`] — the static side of a (possibly heterogeneous)
//!   multi-battery system: per-battery parameters from a
//!   [`kibam::FleetSpec`] plus one recovery table per battery type;
//! * [`kernel`] — the multi-battery dynamics of one system, stepped in
//!   place over its batteries: the stepping kernel behind the schedulers of
//!   the `battery-sched` crate (including the optimal one);
//! * [`MultiBatteryState`](multi::MultiBatteryState) — the same dynamics
//!   with every battery recovering at every draw instant: the scalar
//!   reference the kernel is held bit-identical to.
//!
//! # Example
//!
//! ```
//! use dkibam::{Discretization, DiscretizedLoad, sim::simulate_lifetime};
//! use kibam::BatteryParams;
//! use workload::paper_loads::TestLoad;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let b1 = BatteryParams::itsy_b1();
//! let disc = Discretization::paper_default();
//! let load = DiscretizedLoad::from_profile(&TestLoad::Cl500.profile(), &disc, 10.0)?;
//! let outcome = simulate_lifetime(&b1, &disc, &load)?;
//! // Table 3: the TA-KiBaM reports 2.04 min for CL 500 on B1.
//! let lifetime = outcome.lifetime_minutes.expect("battery empties");
//! assert!((lifetime - 2.04).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod battery;
pub mod checked;
mod config;
mod error;
mod fleet;
pub mod kernel;
mod load;
pub mod multi;
mod recovery;
mod service;
pub mod sim;

pub use battery::DiscreteBattery;
pub use config::Discretization;
pub use error::DkibamError;
pub use fleet::DiscreteFleet;
pub use load::{DiscreteEpoch, DiscretizedLoad};
pub use recovery::RecoveryTable;
pub use service::{EnvelopeCursor, ServiceEnvelope, ServiceRateTable};
