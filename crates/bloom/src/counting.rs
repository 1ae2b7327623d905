//! The counting Bloom filter each peer keeps privately.
//!
//! §4.2: the filter must follow the response index "as new filenames are
//! inserted in RIn and existing ones discarded". A plain Bloom filter cannot
//! delete, so each peer maintains a **counting** filter (a small counter per
//! bit) whose projection — bit set ⇔ counter > 0 — is the plain 1200-bit
//! filter exchanged with neighbours. This mirrors the Summary-Cache design
//! ([Fan et al. 1998], cited by the paper) where counting filters stay local
//! and plain bit vectors travel.
//!
//! The counters are stored as that projection plus, bit-sliced, each set
//! position's count − 1: plane `j` is one filter's worth of words holding bit
//! `j` of every position's excess. Planes are allocated only as high as the
//! largest count needs, so a filter whose counts are all 0 or 1 — most of a
//! peer's, keywords rarely colliding in 1200 bits — costs one plain filter,
//! and projecting it costs nothing: [`CountingBloomFilter::bloom`] borrows.
//! A count saturates at `u16::MAX` (an excess of 65 534, sixteen planes), and
//! removing from a zero count does nothing.

use crate::filter::{BloomFilter, BloomParams};
use crate::hashing::ElementHashes;

/// The largest excess (count − 1) a position holds: a `u16` counter's.
const MAX_EXCESS: u32 = u16::MAX as u32 - 1;
/// Planes needed to hold [`MAX_EXCESS`]; the only height at which an
/// increment can be a saturated one.
const MAX_PLANES: usize = 16;

/// A Bloom filter with per-position counters, supporting element removal.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    /// The projection: bit set exactly where the count is positive.
    bits: BloomFilter,
    /// The count − 1 of every position, bit-sliced: word `w` of plane `j` is
    /// `extra[j * words + w]`, where `words` is the projection's word count.
    extra: Vec<u64>,
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
            bits: BloomFilter::new(params),
            extra: Vec::new(),
        }
    }

    /// The filter's parameters.
    pub fn params(&self) -> BloomParams {
        self.bits.params()
    }

    /// Inserts a string element, incrementing its counters.
    pub fn insert(&mut self, element: &str) {
        self.insert_hashes(&ElementHashes::of_str(element));
    }

    /// Inserts a pre-hashed element.
    pub fn insert_hashes(&mut self, hashes: &ElementHashes) {
        let params = self.params();
        for pos in hashes.positions(params.hashes, params.bits) {
            if !self.bits.set_bit(pos) {
                self.carry(pos);
            }
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
        let params = self.params();
        for pos in hashes.positions(params.hashes, params.bits) {
            if self.bits.get_bit(pos) && !self.borrow(pos) {
                self.bits.clear_bit(pos);
            }
        }
    }

    /// Membership test (same semantics as the plain filter).
    pub fn contains(&self, element: &str) -> bool {
        self.bits.contains(element)
    }

    /// The plain filter this one projects to (count > 0 ⇒ bit set): the
    /// representation sent to neighbours.
    pub fn bloom(&self) -> &BloomFilter {
        &self.bits
    }

    /// Number of positions with non-zero counters.
    pub fn count_nonzero(&self) -> usize {
        self.bits.count_ones()
    }

    /// True if every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Resets every counter to zero, dropping the planes.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.extra = Vec::new();
    }

    /// Where `pos` lives in the planes: `(stride, word, mask)`, plane `j`'s
    /// word being `extra[j * stride + word]`.
    fn locate(&self, pos: usize) -> (usize, usize, u64) {
        (self.bits.words().len(), pos / 64, 1 << (pos % 64))
    }

    /// Adds one to the excess of `pos`, whose count is already positive:
    /// ripple-carries up the planes and allocates the next plane when the
    /// carry leaves the top one. A saturated count stays put.
    fn carry(&mut self, pos: usize) {
        let (stride, word, mask) = self.locate(pos);
        let top = self.extra.len();
        if top == MAX_PLANES * stride && self.excess(pos) == MAX_EXCESS {
            return;
        }
        let mut at = word;
        while at < top {
            self.extra[at] ^= mask;
            if self.extra[at] & mask != 0 {
                return;
            }
            at += stride;
        }
        self.extra.resize(top + stride, 0);
        self.extra[at] |= mask;
    }

    /// Subtracts one from the excess of `pos` if it has any — the lowest set
    /// plane bit clears and every one below it sets — and says whether it did.
    fn borrow(&mut self, pos: usize) -> bool {
        let (stride, word, mask) = self.locate(pos);
        let mut lowest = word;
        while self
            .extra
            .get(lowest)
            .is_some_and(|plane| plane & mask == 0)
        {
            lowest += stride;
        }
        if lowest >= self.extra.len() {
            return false;
        }
        let mut at = word;
        while at <= lowest {
            self.extra[at] ^= mask;
            at += stride;
        }
        true
    }

    /// The excess (count − 1) of a set position.
    fn excess(&self, pos: usize) -> u32 {
        let (stride, word, mask) = self.locate(pos);
        let planes = self.extra.iter().skip(word).step_by(stride);
        planes.enumerate().fold(0, |excess, (j, plane)| {
            excess | u32::from(plane & mask != 0) << j
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense representation the filter replaced, kept as its model: one
    /// saturating `u16` counter per position.
    struct DenseCounter {
        params: BloomParams,
        dense: Vec<u16>,
    }

    impl DenseCounter {
        fn new(params: BloomParams) -> Self {
            DenseCounter {
                params,
                dense: vec![0; params.bits],
            }
        }

        fn insert_hashes(&mut self, hashes: &ElementHashes) {
            for pos in hashes.positions(self.params.hashes, self.params.bits) {
                self.dense[pos] = self.dense[pos].saturating_add(1);
            }
        }

        fn remove_hashes(&mut self, hashes: &ElementHashes) {
            for pos in hashes.positions(self.params.hashes, self.params.bits) {
                self.dense[pos] = self.dense[pos].saturating_sub(1);
            }
        }

        fn clear(&mut self) {
            self.dense.iter_mut().for_each(|c| *c = 0);
        }

        /// Counter > 0 ⇒ bit set.
        fn projection(&self) -> BloomFilter {
            let mut f = BloomFilter::new(self.params);
            for (pos, &c) in self.dense.iter().enumerate() {
                if c > 0 {
                    f.set_bit(pos);
                }
            }
            f
        }

        fn count_nonzero(&self) -> usize {
            self.dense.iter().filter(|&&c| c > 0).count()
        }
    }

    /// Asserts `filter` and `model` agree bit for bit, and on every excess.
    fn assert_matches(filter: &CountingBloomFilter, model: &DenseCounter) {
        assert_eq!(filter.bloom(), &model.projection());
        assert_eq!(filter.count_nonzero(), model.count_nonzero());
        for (pos, &count) in model.dense.iter().enumerate() {
            if count > 0 {
                assert_eq!(filter.excess(pos), u32::from(count) - 1, "excess at {pos}");
            }
        }
    }

    proptest! {
        /// Random inserts, removes, removes of never-inserted elements and
        /// clears over filters of 1–299 bits and 1–6 hashes: after every step
        /// the projection equals the dense model's bit for bit and the
        /// non-zero counts agree.
        #[test]
        fn counting_filter_matches_the_dense_counter_model(
            bits in 1usize..300,
            k in 1usize..7,
            ops in proptest::collection::vec((0u32..20, 0u32..12), 1..200),
        ) {
            let params = BloomParams::new(bits, k);
            let mut filter = CountingBloomFilter::new(params);
            let mut model = DenseCounter::new(params);
            for (kind, element) in ops {
                match kind {
                    0..=10 => {
                        let hashes = ElementHashes::of_str(&format!("e{element}"));
                        filter.insert_hashes(&hashes);
                        model.insert_hashes(&hashes);
                    }
                    11..=17 => {
                        let hashes = ElementHashes::of_str(&format!("e{element}"));
                        filter.remove_hashes(&hashes);
                        model.remove_hashes(&hashes);
                    }
                    18 => {
                        let hashes = ElementHashes::of_str(&format!("absent{element}"));
                        filter.remove_hashes(&hashes);
                        model.remove_hashes(&hashes);
                    }
                    _ => {
                        filter.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(filter.bloom(), &model.projection());
                prop_assert_eq!(filter.count_nonzero(), model.count_nonzero());
            }
        }
    }

    #[test]
    fn counts_saturate_at_u16_max_and_drain_back_to_zero() {
        let params = BloomParams::new(100, 3);
        let hashes = ElementHashes::of_str("hot");
        let mut filter = CountingBloomFilter::new(params);
        let mut model = DenseCounter::new(params);
        for _ in 0..70_000 {
            filter.insert_hashes(&hashes);
            model.insert_hashes(&hashes);
            assert_matches(&filter, &model);
        }
        assert!(filter.extra.len() <= MAX_PLANES * filter.bits.words().len());
        for _ in 0..70_000 {
            filter.remove_hashes(&hashes);
            model.remove_hashes(&hashes);
            assert_matches(&filter, &model);
        }
        assert!(filter.is_empty());
    }

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
        let plain = c.bloom();
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
        assert!(f.extra.is_empty(), "clear drops the planes");
    }

    #[test]
    fn projection_of_empty_filter_is_empty() {
        let c = CountingBloomFilter::default();
        assert!(c.bloom().is_empty());
    }
}
