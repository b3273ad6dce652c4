//! Battery scheduling for maximizing system lifetime.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Maximizing System Lifetime by Battery Scheduling"* (Jongerden et al.,
//! DSN 2009). Given a device powered by several batteries and a load made of
//! jobs and idle periods, it answers the question the paper poses: **which
//! battery should serve each job so that the system as a whole lives as long
//! as possible?**
//!
//! The construction API is **fleet-first**: systems are described by a
//! [`kibam::FleetSpec`] — an ordered list of per-battery parameters, so
//! heterogeneous mixes like one B1 next to one B2 are first-class — with
//! `params × count` convenience constructors for the paper's uniform
//! systems.
//!
//! The crate provides:
//!
//! * the [`model::BatteryModel`] trait — the backend-agnostic
//!   battery-stepping contract — with four backends:
//!   [`backends::DiscretizedKibam`] (the paper's discretized model),
//!   [`backends::ContinuousKibam`] (closed-form analytic stepping),
//!   [`backends::RvDiffusion`] (the Rakhmatov–Vrudhula diffusion model,
//!   fitted from the fleet's KiBaM parameters — the cross-model check) and
//!   [`backends::IdealBattery`] (the linear cross-model baseline);
//! * the three deterministic scheduling policies compared in the paper —
//!   [`policy::Sequential`], [`policy::RoundRobin`] and
//!   [`policy::BestAvailable`] ("best of two") — a fleet-aware
//!   [`policy::CapacityWeightedRoundRobin`] baseline, plus replay of
//!   explicit schedules ([`policy::FixedSchedule`]);
//! * a multi-battery system simulator, generic over the backend
//!   ([`system::simulate_policy_with`]; [`system::simulate_policy`] runs the
//!   discretized default) that produces lifetimes, schedules and charge
//!   traces (the ingredients of Tables 5 and Figure 6);
//! * the **optimal scheduler** ([`optimal::OptimalScheduler`]) — a
//!   memoized branch-and-bound search over the discrete battery state that
//!   plays the role of the Uppaal Cora query in the paper. The paper's
//!   TA-KiBaM network (Figure 5) is not part of this crate: it lives in
//!   the `ta_reference` test suite, which holds the search's optimum equal
//!   to the network's minimum-cost run;
//! * lifetime analysis helpers ([`report`]) used by the benchmark harness to
//!   regenerate the paper's tables.
//!
//! # Quick example: Table 5, one row
//!
//! ```
//! use battery_sched::policy::{BestAvailable, RoundRobin, Sequential};
//! use battery_sched::system::{simulate_policy, SystemConfig};
//! use dkibam::Discretization;
//! use kibam::BatteryParams;
//! use workload::paper_loads::TestLoad;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::new(BatteryParams::itsy_b1(), Discretization::paper_default(), 2)?;
//! let load = TestLoad::Ils500.profile();
//!
//! let seq = simulate_policy(&config, &load, &mut Sequential::new())?;
//! let rr = simulate_policy(&config, &load, &mut RoundRobin::new())?;
//! let best = simulate_policy(&config, &load, &mut BestAvailable::new())?;
//!
//! // Table 5 (ILs 500): sequential 8.60, round robin 10.48, best-of-two 10.48.
//! assert!(seq.lifetime_minutes().unwrap() < rr.lifetime_minutes().unwrap());
//! assert!((rr.lifetime_minutes().unwrap() - best.lifetime_minutes().unwrap()).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod backends;
mod error;
pub mod model;
pub mod optimal;
pub mod policy;
pub mod report;
pub mod schedule;
pub mod system;

pub use error::SchedError;
pub use model::{BatteryModel, EnvelopeInput, ModelAdvance, StateKey, MAX_KEY_BATTERIES};
