//! The counting Bloom filter each peer keeps privately.
//!
//! §4.2: the filter must follow the response index "as new filenames are
//! inserted in RIn and existing ones discarded". A plain Bloom filter cannot
//! delete, so each peer maintains a **counting** filter (one small counter per
//! bit) and projects it onto the plain 1200-bit filter that is exchanged with
//! neighbours. This mirrors the Summary-Cache design ([Fan et al. 1998], cited
//! by the paper) where counting filters stay local and plain bit vectors travel.

use crate::filter::{BloomFilter, BloomParams};
use crate::hashing::ElementHashes;

/// A Bloom filter with per-position counters, supporting element removal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    params: BloomParams,
    counters: Vec<u16>,
}

impl Default for CountingBloomFilter {
    fn default() -> Self {
        Self::new(BloomParams::default())
    }
}

impl CountingBloomFilter {
    /// Creates an empty counting filter.
    pub fn new(params: BloomParams) -> Self {
        CountingBloomFilter {
            counters: vec![0; params.bits],
            params,
        }
    }

    /// The filter's parameters.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Inserts a string element, incrementing its counters.
    pub fn insert(&mut self, element: &str) {
        self.insert_hashes(&ElementHashes::of_str(element));
    }

    /// Inserts a pre-hashed element.
    pub fn insert_hashes(&mut self, hashes: &ElementHashes) {
        for pos in hashes.positions(self.params.hashes, self.params.bits) {
            self.counters[pos] = self.counters[pos].saturating_add(1);
        }
    }

    /// Removes a string element, decrementing its counters.
    ///
    /// Removing an element that was never inserted is a logic error upstream;
    /// the counters saturate at zero rather than wrapping, so the filter
    /// degrades to (at worst) extra false positives, never false negatives for
    /// elements still present.
    pub fn remove(&mut self, element: &str) {
        self.remove_hashes(&ElementHashes::of_str(element));
    }

    /// Removes a pre-hashed element.
    pub fn remove_hashes(&mut self, hashes: &ElementHashes) {
        for pos in hashes.positions(self.params.hashes, self.params.bits) {
            self.counters[pos] = self.counters[pos].saturating_sub(1);
        }
    }

    /// Membership test (same semantics as the plain filter).
    pub fn contains(&self, element: &str) -> bool {
        ElementHashes::of_str(element)
            .positions(self.params.hashes, self.params.bits)
            .all(|pos| self.counters[pos] > 0)
    }

    /// Projects the counting filter onto a plain [`BloomFilter`] (counter > 0 ⇒
    /// bit set). This is the representation sent to neighbours.
    pub fn to_bloom(&self) -> BloomFilter {
        let mut f = BloomFilter::new(self.params);
        for (pos, &c) in self.counters.iter().enumerate() {
            if c > 0 {
                f.set_bit(pos);
            }
        }
        f
    }

    /// Number of positions with non-zero counters.
    pub fn count_nonzero(&self) -> usize {
        self.counters.iter().filter(|&&c| c > 0).count()
    }

    /// True if every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_remove_restores_emptiness() {
        let mut f = CountingBloomFilter::default();
        let kws = ["alpha", "beta", "gamma"];
        for k in kws {
            f.insert(k);
        }
        for k in kws {
            assert!(f.contains(k));
        }
        for k in kws {
            f.remove(k);
        }
        assert!(f.is_empty());
        for k in kws {
            assert!(!f.contains(k));
        }
    }

    #[test]
    fn duplicate_insertions_need_matching_removals() {
        let mut f = CountingBloomFilter::default();
        // The same keyword can appear in several cached filenames.
        f.insert("love");
        f.insert("love");
        f.remove("love");
        assert!(f.contains("love"), "still one reference outstanding");
        f.remove("love");
        assert!(!f.contains("love"));
    }

    #[test]
    fn projection_matches_membership() {
        let mut c = CountingBloomFilter::default();
        for i in 0..40 {
            c.insert(&format!("kw{i}"));
        }
        let plain = c.to_bloom();
        for i in 0..40 {
            assert!(plain.contains(&format!("kw{i}")));
        }
        assert_eq!(plain.count_ones(), c.count_nonzero());
    }

    #[test]
    fn removal_of_absent_element_saturates_at_zero() {
        let mut f = CountingBloomFilter::default();
        f.insert("present");
        f.remove("never-inserted");
        // "present" may share bits with the removed element only with tiny
        // probability; what we guarantee structurally is no underflow panic and
        // no wrap-around to huge counters.
        assert!(f.count_nonzero() <= 5 * 2);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn projection_of_empty_filter_is_empty() {
        let c = CountingBloomFilter::default();
        assert!(c.to_bloom().is_empty());
    }
}
