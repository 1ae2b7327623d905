//! # locaware-overlay — the unstructured (Gnutella-like) overlay substrate
//!
//! §3.1 of the Locaware paper describes the substrate its protocol runs on:
//! *"each peer joins the network by establishing logical links to randomly
//! chosen peers, referred to as its neighbors. Normally, the neighborhood of a
//! peer is set without knowledge of the underlying topology."* Query routing is
//! *"done by blindly flooding q over the P2P network and is bounded by a fixed
//! TTL. Query responses follow the reverse path of their corresponding q, back
//! to the requesting peer."*
//!
//! This crate implements that substrate:
//!
//! * [`graph`] — the overlay graph: random neighbour wiring at a target average
//!   degree (the paper's setup uses 1000 peers with average degree 3),
//!   connectivity repair, degree queries (needed for the "highly connected
//!   neighbour" fallback of §4.2), and dynamic join/leave for churn,
//! * [`generator`] — the overlay generator: Erdős–Rényi-style random wiring
//!   over a random spanning tree,
//! * [`message`] — the overlay message vocabulary (queries, query responses,
//!   Bloom-filter updates, DHT lookups/stores), the message kinds the traffic
//!   counters key on, and a per-message wire-size model,
//! * [`dht`] — Kademlia-style structured-overlay primitives (160-bit XOR key
//!   space, k-bucket routing tables, size-capped keyword→provider records)
//!   used by the structured `dht-index`/`hybrid` protocol family,
//! * [`routing`] — mechanism shared by every protocol: TTL bookkeeping, and
//!   duplicate-query suppression plus reverse paths as one table, kept per
//!   live query and recycled when the query completes,
//! * [`churn`] — an optional session-based churn model (exponential on/off
//!   times) exercised by the robustness example and tests.
//!
//! Which neighbours a query is forwarded to is *policy* and lives in the
//! `locaware` core crate (flooding, Dicas, Dicas-Keys, Locaware); this crate
//! only provides the mechanism those policies share.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod churn;
pub mod dht;
pub mod generator;
pub mod graph;
pub mod message;
pub mod routing;

pub use churn::{ChurnConfig, ChurnEvent, ChurnEventKind};
pub use dht::{DhtDistance, DhtId, DhtNode, DhtRecordStore, RoutingTable, DHT_ID_BITS, DHT_ID_BYTES};
pub use generator::{GeneratorConfig, GraphModel};
pub use graph::OverlayGraph;
pub use message::{Message, MessageKind, ProviderEntry, QueryId};
pub use routing::{ForwardDecision, QueryRouter, QueryRoutes, RouteTable};

/// Peers are identified by the same id at the overlay and underlay layers, so
/// no translation table is needed when crossing layers.
pub use locaware_net::NodeId as PeerId;
