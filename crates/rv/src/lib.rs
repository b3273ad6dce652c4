//! Rakhmatov–Vrudhula (RV) diffusion battery model.
//!
//! The battery-scheduling paper's lifetime results rest on the KiBaM's
//! recovery and rate-capacity effects. This crate implements the standard
//! *analytical diffusion* battery model of Rakhmatov and Vrudhula — the
//! reference chemistry of battery-aware task-scheduling work (Khan &
//! Vemuri; Shi et al.) — as an independent cross-model check: if the
//! scheduling conclusions (policy rankings, the value of recovery-aware
//! schedules) reproduce under a structurally different battery model, they
//! are properties of battery-powered systems, not artifacts of one model.
//!
//! The model tracks the *apparent charge lost* by time `t`,
//!
//! ```text
//! σ(t) = ∫₀ᵗ i(τ) dτ + 2 Σ_{m=1}^{M} ∫₀ᵗ i(τ) e^{-β²m²(t-τ)} dτ,
//! ```
//!
//! with emptiness at `σ(t) = α`: the first integral is the charge actually
//! consumed, the truncated exponential sum a diffusion deficit that builds
//! under load (rate-capacity effect) and dissipates when idle (recovery
//! effect). The KiBaM is exactly the one-term (`M = 1`) shape of this law,
//! which is what makes the comparison sharp: same two effects, different
//! spectrum.
//!
//! The crate provides:
//!
//! * [`RvParams`] — capacity `α`, diffusion rate `β²`, truncation order
//!   `M`, with the cross-model **fit** from KiBaM parameters
//!   ([`RvParams::from_kibam`]: shared capacity, matched steady-state
//!   recovery gain) and presets for the paper's B1/B2 cells;
//! * [`analytic`] — the exact moment-space evolution under constant
//!   current, the closed-form σ(t) golden reference, and a robust
//!   time-to-empty solver (the diffusion analogue of `kibam::analytic`);
//! * [`RvStepTable`] / [`RvCell`] — the **discretized stepping form** on
//!   the scheduling grid (integer charge units, fixed-point diffusion
//!   moments, emptiness observed at draw instants), with the per-type
//!   correction table cached like `dkibam`'s recovery table; scalar
//!   [`RvCell`] stepping is the reference the kernel is held bit-identical
//!   to;
//! * [`RvFleet`] — the static side of a (possibly heterogeneous)
//!   multi-battery system, one table per battery type;
//! * [`kernel`] — the cells of one system stepped in place, with the
//!   scalar path's serve/recover routines (bit-identical states).
//!
//! The `battery-sched` crate wires the [`kernel`] in as the `rv` backend of
//! its `BatteryModel` trait, which puts every scheduling policy, the
//! scenario engine and the optimal branch-and-bound search on this model
//! unchanged.
//!
//! # Example
//!
//! ```
//! use rv::analytic::lifetime_constant_current;
//! use rv::RvParams;
//!
//! // The RV fit of the paper's B1 cell under a constant 500 mA load dies
//! // in the same range as the KiBaM's Table 3 value (2.02 min).
//! let b1 = RvParams::itsy_b1();
//! let lifetime = lifetime_constant_current(&b1, 0.5).unwrap().unwrap();
//! assert!((lifetime / 2.02 - 1.0).abs() < 0.1, "got {lifetime}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analytic;
mod cell;
mod error;
mod fleet;
pub mod kernel;
mod params;
mod table;

pub use cell::RvCell;
pub use error::RvError;
pub use fleet::RvFleet;
pub use params::{fitted_terms, RvParams};
pub use table::{RvStepTable, StepAdvance};

/// The largest truncation order the analytic model accepts.
pub const MAX_TERMS: usize = 64;

/// The truncation order of the discretized stepping form: [`RvCell`] keeps
/// its moments in a fixed-size array so search snapshots stay `Copy` and
/// allocation-free, and four 24-bit fixed-point moments (plus the consumed
/// units and the retired flag) pack into one 128-bit canonical state word.
pub const MAX_STEP_TERMS: usize = 4;

/// Fixed-point quanta per charge unit for the diffusion moments of the
/// stepping form: the moment grid is `Γ / MOMENT_SCALE` (≈ 10 µA·min at
/// the paper's `Γ = 0.01`), fine enough that the grid never shows in
/// lifetimes yet exact enough to pack states into canonical search keys.
pub const MOMENT_SCALE: f64 = 1024.0;
