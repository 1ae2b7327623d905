//! # locaware — location-aware index caching for unstructured P2P file sharing
//!
//! A faithful, from-scratch Rust reproduction of
//!
//! > Manal El Dick, Esther Pacitti. *Locaware: Index Caching in Unstructured
//! > P2P-file Sharing Systems.* DAMAP Workshop (EDBT), March 2009.
//!
//! Unstructured (Gnutella-like) file-sharing overlays flood keyword queries,
//! which wastes bandwidth twice: once in the search itself, and again when the
//! download is served by a physically distant replica. Locaware attacks both:
//! query responses are cached as *indexes* (filename → provider addresses) at a
//! deterministic subset of peers, each index entry carries the provider's
//! physical *location id*, requestors are recorded as new providers (so natural
//! replication is visible to the index), and queries are routed by neighbour
//! Bloom filters summarising cached keywords instead of being flooded.
//!
//! ## Crate layout
//!
//! * [`config`] — every parameter of the paper's §5.1 setup, with defaults,
//! * [`experiment`] — the public experiment API: validated [`Scenario`]s,
//!   [`ExperimentPlan`] grids and the substrate-sharing parallel [`Runner`],
//! * [`group`] — group ids and the `hash(·) mod M` caching/routing rule,
//! * [`index`] — the location-aware response index (`RI`),
//! * [`peer`] — per-peer state (storage, index, Bloom filters, neighbours),
//! * [`provider`] — provider selection (same locality first, then smallest RTT),
//! * [`protocol`] — the policies of the eight [`ProtocolKind`]s: the
//!   forwarding, matching and caching rules of the four evaluated families
//!   (flooding, Dicas, Dicas-Keys, Locaware), shared by the two Locaware
//!   ablations and the hybrid's overlay side, while the structured kinds
//!   resolve through the DHT,
//! * [`engine`] — the event-driven execution of one run (internal),
//! * [`simulation`] — substrate construction and the public run API,
//! * [`results`] — per-query records, their aggregations and the per-run
//!   report feeding the figures.
//!
//! ## Quick start
//!
//! ```
//! use locaware::experiment::Scenario;
//! use locaware::ProtocolKind;
//!
//! // A scaled-down scenario so the doctest runs in milliseconds; use
//! // `Scenario::paper_defaults()` for the 1000-peer setup. Scenario
//! // construction validates the configuration, so `substrate()` cannot fail.
//! let scenario = Scenario::small(60).with_seed(42);
//! let simulation = scenario.substrate();
//!
//! let report = simulation.run(ProtocolKind::Locaware, 50);
//! assert_eq!(report.queries_issued, 50);
//! println!("{}", report.summary_table().render());
//! ```
//!
//! To compare protocols — or scenarios, seeds and query counts — declare an
//! [`ExperimentPlan`] and hand it to a [`Runner`], which builds each substrate
//! exactly once and fans the grid out over worker threads:
//!
//! ```
//! use locaware::experiment::{ExperimentPlan, Runner, Scenario};
//! use locaware::ProtocolKind;
//!
//! let plan = ExperimentPlan::new()
//!     .scenario(Scenario::small(60).with_seed(42))
//!     .protocols(ProtocolKind::PAPER_SET)
//!     .query_count(50);
//! let outcome = Runner::new().run(&plan).expect("plan lists every dimension");
//! assert_eq!(outcome.substrates_built, 1); // four protocols, one substrate
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod engine;
pub mod experiment;
pub mod group;
pub mod index;
pub mod peer;
pub mod protocol;
pub mod provider;
pub mod results;
pub mod simulation;

pub use config::{ConfigError, ProtocolKind, SimulationConfig};
pub use experiment::{
    ExperimentOutcome, ExperimentPlan, ExperimentPoint, PlanError, Runner, Scenario,
};
pub use group::{GroupId, GroupScheme};
pub use index::{IndexEntry, ProviderRecord, ResponseIndex};
pub use peer::PeerState;
pub use protocol::{LocalMatch, PeerView, QueryContext, ResponseContext};
pub use provider::{select_provider, SelectedProvider, SelectionPolicy};
pub use results::{CounterSet, QueryOutcome, QueryRecord, RunProfile, SimulationReport};
pub use simulation::Simulation;

// Re-export the substrate types that appear in this crate's public API so that
// downstream users can depend on `locaware` alone.
pub use locaware_net::{LinkLatencyCache, LocId, PhysicalTopology};
pub use locaware_overlay::{OverlayGraph, PeerId, ProviderEntry, QueryId};
pub use locaware_workload::{Catalog, FaultConfig, FileId, KeywordId, OutageWindow, TimeoutPolicy};
