//! # locaware-workload — workload generation for the Locaware evaluation
//!
//! §5.1 of the paper fixes the workload precisely:
//!
//! * *"each peer initially shares 3 files, randomly chosen from a pool of
//!   3000"*,
//! * *"each filename is formed of 3 keywords, randomly chosen from a pool of
//!   9000"*,
//! * *"Queries are generated according to Zipf distribution, at the rate of
//!   0.00083 queries per second per peer"*,
//! * *"To express each query, we randomly choose 1 to 3 keywords from the
//!   queried filename"*.
//!
//! This crate builds all of that, deterministically:
//!
//! * [`keywords`] — the keyword pool (synthetic pseudo-words; ids are what the
//!   protocols hash, the strings exist for realistic Bloom-filter behaviour and
//!   readable examples),
//! * [`catalog`] — the file catalog: 3000 filenames of 3 keywords each, and
//!   the ground-truth rule for "which files satisfy query q",
//! * [`zipf`] — a Zipf(α) sampler over file popularity ranks (implemented
//!   in-crate; `rand_distr` is outside the allowed dependency set),
//! * [`placement`] — the initial assignment of shared files to peers, with
//!   optional weighted-cluster concentration ([`ClusterWeights`]),
//! * [`queries`] — query generation: Zipf-chosen target file, 1–3 of its
//!   keywords,
//! * [`arrival`] — the Poisson arrival process at 0.00083 queries/s/peer,
//!   steady or modulated by one validated burst window ([`ArrivalSchedule`]),
//! * [`faults`] — the fault plan: per-message loss, transient link outages,
//!   crash-stop departures, and typed timeout/retry policies
//!   ([`FaultConfig`], [`TimeoutPolicy`]) making failure a first-class,
//!   validated workload dimension.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod arrival;
pub mod catalog;
pub mod faults;
pub mod keywords;
pub mod placement;
pub mod queries;
pub mod zipf;

pub use arrival::{Arrival, ArrivalConfig, ArrivalProcess, ArrivalSchedule};
pub use catalog::{Catalog, CatalogConfig, FileId, Filename};
pub use faults::{FaultConfig, OutageWindow, TimeoutPolicy};
pub use keywords::{KeywordHashes, KeywordId, KeywordPool};
pub use placement::{ClusterWeights, ClusterWeightsError, InitialPlacement, PlacementConfig};
pub use queries::{Query, QueryGenerator, QueryWorkloadConfig};
pub use zipf::ZipfDistribution;

/// Paper default: number of distinct files in the system (§5.1).
pub const PAPER_FILE_POOL: usize = 3000;
/// Paper default: number of distinct keywords (§5.1).
pub const PAPER_KEYWORD_POOL: usize = 9000;
/// Paper default: keywords per filename (§5.1).
pub const PAPER_KEYWORDS_PER_FILE: usize = 3;
/// Paper default: files initially shared by each peer (§5.1).
pub const PAPER_FILES_PER_PEER: usize = 3;
/// Paper default: per-peer query rate in queries per second (§5.1).
pub const PAPER_QUERY_RATE_PER_PEER: f64 = 0.00083;
