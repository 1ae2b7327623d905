//! # locaware-metrics — aggregation and presentation
//!
//! The Locaware evaluation (§5) reports three metrics as a function of the
//! number of queries issued: download distance (Figure 2), search traffic
//! (Figure 3) and success rate (Figure 4). The per-query records they
//! aggregate are the simulation's own (`locaware::results`); this crate holds
//! the generic pieces that turn numbers into what the experiment binaries
//! print:
//!
//! * [`aggregate`] — means and percentiles,
//! * [`series`] — (x, y) series keyed by protocol label, the exact shape of the
//!   paper's figures,
//! * [`report`] — the one [`Table`] every result is printed as, rendered as
//!   aligned text (the terminal and EXPERIMENTS.md) or CSV.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod aggregate;
pub mod report;
pub mod series;

pub use aggregate::{mean, percentile};
pub use report::Table;
pub use series::{Figure, SeriesPoint};
