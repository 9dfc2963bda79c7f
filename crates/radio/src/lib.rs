#![warn(missing_docs)]

//! Round-synchronous radio network simulator.
//!
//! Implements exactly the sensor-network model of Section 3.1 of the paper:
//!
//! 1. nodes share `k ≥ 1` radio channels (`k = 1` in the base model);
//! 2. each node has a distinct ID and, a priori, no other network
//!    knowledge — whatever knowledge a protocol assumes (e.g. the CNet
//!    structure and time slots) is injected into its per-node program;
//! 3. time advances in fixed *rounds*; in each round a node acts as either
//!    a transmitter or a receiver (or sleeps);
//! 4. **no collision detection**: a receiver gets a message in a round iff
//!    *exactly one* of its graph neighbours transmits on the channel it is
//!    tuned to. Zero transmitters and two-or-more transmitters are
//!    indistinguishable silence.
//!
//! Protocols are written as per-node state machines implementing
//! [`NodeProgram`]; the [`Engine`] executes them lock-step against a
//! connectivity [`Graph`](dsnet_graph::Graph), meters per-node energy
//! ([`EnergyMeter`]), applies failure schedules ([`FailurePlan`]) and can
//! record a full event [`Trace`] for debugging and verification.

pub mod action;
mod barrier;
pub mod energy;
pub mod engine;
pub mod failure;
pub mod loss;
pub mod shard;
pub mod trace;

pub use action::{Action, Channel};
pub use energy::{EnergyMeter, EnergyReport};
pub use engine::{Engine, EngineConfig, NodeCtx, NodeProgram, RunOutcome, StopReason};
pub use failure::FailurePlan;
pub use loss::LossModel;
pub use shard::ShardPlan;
pub use trace::{Trace, TraceEvent};

/// Rounds are numbered from 1, matching the paper's "transmits at round
/// *t*" convention for time slots numbered from 1.
pub type Round = u64;
