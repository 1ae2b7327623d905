//! # locaware-sim — deterministic scheduling primitives
//!
//! The Locaware paper evaluates its protocol on [PeerSim](https://peersim.sourceforge.net).
//! This crate holds the scheduling core the reproduction's sharded engine
//! (`locaware::engine`) is built on:
//!
//! * integer simulated time ([`SimTime`], [`Duration`]),
//! * a hierarchical seed derivation scheme so that every stochastic component of
//!   the simulation owns an independent, reproducible random stream
//!   ([`rng::RngFactory`], [`rng::StreamId`], [`rng::mix`]), and
//! * a canonical, layout-independent event ordering with window-bounded queues
//!   for deterministic intra-run parallelism ([`shard::EventKey`],
//!   [`shard::ShardQueue`]).
//!
//! The queue is generic over the event payload type; the engine defines its own
//! event enum.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod rng;
pub mod shard;
pub mod time;

pub use rng::{mix, RngFactory, StreamId};
pub use shard::{EventKey, QueueStats, ShardQueue};
pub use time::{Duration, SimTime};
