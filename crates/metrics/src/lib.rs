//! # locaware-metrics — measurement and reporting
//!
//! The Locaware evaluation (§5) reports three metrics as a function of the
//! number of queries issued:
//!
//! 1. **Download distance** (Figure 2) — the average latency between the
//!    requestor and the provider it chooses for download,
//! 2. **Search traffic** (Figure 3) — "the total number of messages produced by
//!    a query in the P2P network",
//! 3. **Success rate** (Figure 4) — "the rate of queries successfully satisfied
//!    to all submitted queries".
//!
//! This crate holds the measurement plumbing shared by the simulation engine,
//! the experiment harness and the tests:
//!
//! * [`query_record`] — one record per issued query with everything the three
//!   figures need (plus diagnostics such as hop counts and locality matches),
//! * [`counters`] — generic named counters used for per-message-kind traffic
//!   accounting,
//! * [`aggregate`] — means and percentiles,
//! * [`series`] — (x, y) series keyed by protocol label, the exact shape of the
//!   paper's figures,
//! * [`report`] — fixed-width text tables used by the experiment binaries
//!   and EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod aggregate;
pub mod counters;
pub mod query_record;
pub mod report;
pub mod series;

pub use aggregate::{mean, percentile};
pub use counters::CounterSet;
pub use query_record::{QueryOutcome, QueryRecord, RunMetrics};
pub use report::Table;
pub use series::{Figure, SeriesPoint};
