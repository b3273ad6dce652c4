//! Networks of (linear) priced timed automata with discrete-time semantics.
//!
//! The battery-scheduling paper encodes its discretized battery model as a
//! *network of linear priced timed automata* (NLPTA) and uses the Uppaal
//! **Cora** model checker to find minimum-cost schedules (Sections 3–4).
//! This crate is the substrate that replaces Cora in the reproduction. It
//! provides the same modelling ingredients the paper relies on:
//!
//! * **locations** with invariants, cost rates and the *committed* marker;
//! * **switches (edges)** with guards, integer-variable updates, clock
//!   resets, discrete cost updates and channel synchronisation;
//! * **clocks** compared against integer expressions in guards/invariants;
//! * **integer variables** and **constant lookup tables** (the paper's
//!   `recov_times`, `cur_times`, `cur` and `load_time` arrays);
//! * **binary and broadcast channels**;
//! * a **cost** variable accumulated through rates and updates.
//!
//! Semantics are *discrete time*: clocks advance in unit steps, and a delay
//! transition is one step. This is enough for the paper's model without
//! Cora's dense-time zones:
//!
//! * the dKiBaM is itself a discrete-time model. Every constant a clock is
//!   compared with (the `recov_times`, `cur_times` and `load_time` tables)
//!   is a whole number of time steps `T`, and the battery state changes
//!   only when a clock reaches such a constant. With one unit step read as
//!   `T`, the integer-time runs of the network are the runs of the dKiBaM;
//! * dense time only adds runs that fire edges between two steps. Where
//!   guards and invariants compare clocks with integers by `<=` and `>=`,
//!   such a run can be shifted to integer instants without changing the
//!   locations and variables it reaches or raising its cost (the classical
//!   digitization argument), since costs are integer edge costs and integer
//!   rates per step. A strict comparison `c < k` means `c <= k - 1` here,
//!   which is how a model on a time grid uses it;
//! * so minimum-cost reachability over the discrete states
//!   ([`mincost::min_cost_reachability`]) finds the optimal schedules Cora
//!   would. The `ta_reference` suite of `battery-sched` checks the outcome
//!   on a corpus: the discrete-time optimum of the TA-KiBaM equals the
//!   lifetime of the direct branch-and-bound search on every instance.
//!
//! # Example: the priced lamp of Section 3
//!
//! ```
//! use pta::{
//!     automaton::{Automaton, Edge, Location},
//!     expr::{BoolExpr, IntExpr},
//!     network::{ChannelKind, Network},
//!     mincost::min_cost_reachability,
//! };
//!
//! # fn main() -> Result<(), pta::PtaError> {
//! let mut network = Network::new();
//! let press = network.add_channel("press", ChannelKind::Broadcast);
//! let y = network.add_clock("y");
//!
//! // The lamp: off -> low, with switch-on cost 50 and burn rate 10.
//! let mut lamp = Automaton::new("lamp");
//! let off = lamp.add_location(Location::new("off"));
//! let low = lamp.add_location(
//!     Location::new("low")
//!         .with_invariant(BoolExpr::clock_le(y, IntExpr::constant(10)))
//!         .with_cost_rate(IntExpr::constant(10)),
//! );
//! lamp.add_edge(
//!     Edge::new(off, low)
//!         .with_receive(press)
//!         .with_reset(y)
//!         .with_cost(IntExpr::constant(50)),
//! )?;
//! lamp.add_edge(Edge::new(low, off).with_guard(BoolExpr::clock_ge(y, IntExpr::constant(10))))?;
//! lamp.set_initial(off)?;
//! let lamp_id = network.add_automaton(lamp)?;
//!
//! // The user presses the button once, immediately.
//! let mut user = Automaton::new("user");
//! let idle = user.add_location(Location::new("idle"));
//! let done = user.add_location(Location::new("done"));
//! user.add_edge(Edge::new(idle, done).with_send(press))?;
//! user.set_initial(idle)?;
//! let user_id = network.add_automaton(user)?;
//!
//! // Minimum energy for one full on/off cycle of the lamp.
//! let result = min_cost_reachability(
//!     &network,
//!     |state| state.location(user_id) == done && state.location(lamp_id) == off,
//!     100_000,
//! )?
//! .expect("the lamp can always be switched off again");
//! // 50 for switching on + 10 per time unit for 10 time units.
//! assert_eq!(result.cost, 150);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod automaton;
mod error;
pub mod expr;
pub mod mincost;
pub mod network;
pub mod semantics;
pub mod state;

pub use error::PtaError;
