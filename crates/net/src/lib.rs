//! # locaware-net — the physical underlay model
//!
//! The Locaware paper evaluates download distance in terms of *latency between
//! the requestor and the chosen provider* on an underlay "inspired by BRITE"
//! that "assigns latencies between 10 and 500 ms" (§5.1), and derives each
//! peer's location identifier (`locId`) from the ordering of its round-trip
//! times to a small set of well-known *landmarks* (§4.1.1), exactly as in
//! Ratnasamy et al.'s binning scheme.
//!
//! This crate provides the Rust substitute for that underlay:
//!
//! * [`coordinates`] — a 2-D Euclidean coordinate space in which peers and
//!   landmarks are placed,
//! * [`brite`] — the BRITE-inspired generator: uniform node placement plus a
//!   latency function that maps geometric distance into the paper's
//!   \[10 ms, 500 ms\] range with deterministic per-pair jitter,
//! * [`topology`] — [`PhysicalTopology`]: one-way latency / RTT lookups between
//!   any two nodes,
//! * [`landmark`] — landmark placement and per-peer RTT measurement vectors,
//! * [`locid`] — [`LocId`]: the landmark-ordering fingerprint, encoded as a
//!   Lehmer-coded permutation index (4 landmarks ⇒ 4! = 24 distinct ids),
//! * [`latency_cache`] — [`LinkLatencyCache`]: per-link latencies computed once
//!   per topology and reused across every message delivery of a simulation.
//!
//! The model is geometric rather than a router-level graph: latency is a
//! monotone function of distance in the plane. This preserves the two
//! properties the paper's evaluation depends on — latencies spanning the
//! prescribed range, and *physically close peers producing the same landmark
//! ordering* — without simulating routers the paper never models.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod brite;
pub mod coordinates;
pub mod landmark;
pub mod latency_cache;
pub mod locid;
pub mod topology;

pub use brite::{BriteConfig, BriteGenerator};
pub use coordinates::Point;
pub use landmark::{LandmarkSet, RttVector};
pub use latency_cache::LinkLatencyCache;
pub use locid::LocId;
pub use topology::{NodeId, PhysicalTopology};
