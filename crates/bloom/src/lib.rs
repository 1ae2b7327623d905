//! # locaware-bloom — Bloom filters for keyword-query routing
//!
//! §4.2 of the Locaware paper: *"we use a Bloom filter to express filenames'
//! keywords in a response index and to send the filter to neighbors. [...]
//! Each peer n maintains a Bloom filter, noted BFn, that represents the set of
//! keywords of all cached filenames in RIn."* Neighbouring peers exchange their
//! filters, and a peer forwards a query to the neighbours whose filter contains
//! **all** query keywords.
//!
//! The paper sizes the filter at **1200 bits** for a response index of 50
//! filenames × 3 keywords (§5.1) and propagates *incremental updates* as the
//! positions of changed bits — the footnote bounds an update at 12 changed bits
//! × 11 bits per position ≈ 0.132 Kb.
//!
//! This crate provides:
//!
//! * [`BloomFilter`] — the fixed-size bit-vector filter exchanged between
//!   neighbours,
//! * [`CountingBloomFilter`] — the per-peer counting variant that supports
//!   removal when index entries are evicted from the response index. It is
//!   kept as its own projection, the plain filter it exports (borrowed by
//!   [`CountingBloomFilter::bloom`], never rebuilt), plus each position's
//!   count − 1 in bit planes allocated only as high as the largest count
//!   needs; counts saturate at `u16::MAX`,
//! * [`BloomDelta`] — the changed-bit-position encoding of §4.2's footnote,
//! * [`hashing`] — the double-hashing scheme used to derive the `k` bit
//!   positions of an element.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod counting;
pub mod delta;
pub mod filter;
pub mod hashing;

pub use counting::CountingBloomFilter;
pub use delta::BloomDelta;
pub use filter::{BloomFilter, BloomParams};
pub use hashing::{ElementHasher, ElementHashes};

/// The paper's Bloom-filter size in bits (§5.1): sized for an "enlarged
/// response index with 50 filenames of 3 keywords".
pub const PAPER_FILTER_BITS: usize = 1200;

/// The default number of hash functions.
///
/// For `m = 1200` bits and `n = 150` keywords the optimum is
/// `k = (m / n) ln 2 ≈ 5.5`; we use 5, giving a false-positive rate of about
/// 2 % at full load and much less at typical load.
pub const DEFAULT_HASHES: usize = 5;
