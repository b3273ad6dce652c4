//! A long-running battery-scheduling service over the engine's request
//! API.
//!
//! `served` turns the batch scenario engine into infrastructure: a caller
//! asks "given this fleet, this load, this policy or optimal budget — what
//! lifetime, what schedule?" by writing one line of JSON, and gets back
//! the **same result row** the batch engine emits for the equivalent grid
//! cell. The protocol is line-delimited JSON over stdin (`--stdin`) or TCP
//! (`--listen ADDR`); see `docs/protocol.md` for the schema and error
//! codes.
//!
//! The serving loop is built from three pieces:
//!
//! - a bounded request queue with **admission control**: per-class caps on
//!   optimal-search node budgets, and explicit `overloaded` responses when
//!   the queue is full — no unbounded buffering, no silent drops;
//! - **micro-batching workers**: each worker drains a slice of the queue
//!   and answers it through [`engine::api::run_requests`], which prepares
//!   each distinct load once per batch and runs every request on a copy of
//!   its cached system;
//! - the **process-wide system cache** ([`engine::SharedSystemCache`]):
//!   recovery/service/RV step tables are built once per (fleet,
//!   discretization) across all requests ever, and the hit/build counters
//!   land in the `BENCH_serve.json` smoke artifact.
//!
//! The [`Server`] type is library-level so tests can drive connections
//! over in-memory readers and writers or real sockets
//! ([`Server::serve_listener`]); the binary is a thin mode switch around
//! it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
mod metrics;
mod server;
mod smoke;

pub use config::{parse_arg_list, parse_args, Cli, Mode, ServeConfig, USAGE};
pub use metrics::{Metrics, MetricsSnapshot};
pub use server::{split_connection, Server};
pub use smoke::{run_smoke, SmokeSummary};
