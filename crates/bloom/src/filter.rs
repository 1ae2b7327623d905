//! The plain Bloom filter exchanged between neighbours.

use crate::hashing::ElementHashes;
use crate::{DEFAULT_HASHES, PAPER_FILTER_BITS};

/// Size/shape parameters of a Bloom filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomParams {
    /// Number of bits in the filter (`m`).
    pub bits: usize,
    /// Number of hash probes per element (`k`).
    pub hashes: usize,
}

impl Default for BloomParams {
    fn default() -> Self {
        BloomParams {
            bits: PAPER_FILTER_BITS,
            hashes: DEFAULT_HASHES,
        }
    }
}

impl BloomParams {
    /// Creates parameters after validating them.
    ///
    /// # Panics
    /// Panics if `bits` or `hashes` is zero.
    pub fn new(bits: usize, hashes: usize) -> Self {
        assert!(bits > 0, "Bloom filter must have at least one bit");
        assert!(hashes > 0, "Bloom filter must use at least one hash");
        BloomParams { bits, hashes }
    }

    /// The theoretically optimal number of hashes for an expected population of
    /// `n` elements: `k = (m / n) · ln 2`, clamped to at least 1.
    pub fn optimal_hashes(bits: usize, expected_elements: usize) -> usize {
        if expected_elements == 0 {
            return 1;
        }
        let k = (bits as f64 / expected_elements as f64) * std::f64::consts::LN_2;
        (k.round() as usize).max(1)
    }

    /// Expected false-positive probability with `n` inserted elements.
    pub fn false_positive_rate(&self, n: usize) -> f64 {
        let m = self.bits as f64;
        let k = self.hashes as f64;
        let exponent = -k * n as f64 / m;
        (1.0 - exponent.exp()).powf(k)
    }
}

/// A fixed-size Bloom filter over string elements (keywords).
#[derive(Debug)]
pub struct BloomFilter {
    params: BloomParams,
    words: Vec<u64>,
    /// Number of `insert` calls (not distinct elements); diagnostic only.
    insertions: u64,
}

impl Clone for BloomFilter {
    fn clone(&self) -> Self {
        BloomFilter { params: self.params, words: self.words.clone(), insertions: self.insertions }
    }

    /// Copies into the words already allocated, so re-exporting a filter
    /// nobody else holds allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.params = source.params;
        self.words.clone_from(&source.words);
        self.insertions = source.insertions;
    }
}

/// Two filters are equal when they have the same parameters and the same bit
/// pattern; the diagnostic insertion counter is deliberately ignored so that a
/// filter reconstructed from deltas compares equal to the original.
impl PartialEq for BloomFilter {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.words == other.words
    }
}

impl Eq for BloomFilter {}

impl Default for BloomFilter {
    fn default() -> Self {
        Self::new(BloomParams::default())
    }
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> Self {
        let words = vec![0u64; params.bits.div_ceil(64)];
        BloomFilter {
            params,
            words,
            insertions: 0,
        }
    }

    /// Creates an empty filter with the paper's 1200-bit configuration.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The filter's parameters.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of bits in the filter.
    pub fn bits(&self) -> usize {
        self.params.bits
    }

    /// Inserts a string element.
    pub fn insert(&mut self, element: &str) {
        self.insert_hashes(&ElementHashes::of_str(element));
    }

    /// Inserts a pre-hashed element.
    pub fn insert_hashes(&mut self, hashes: &ElementHashes) {
        for pos in hashes.positions(self.params.hashes, self.params.bits) {
            self.set_bit(pos);
        }
        self.insertions += 1;
    }

    /// Membership test for a string element. May return false positives but
    /// never false negatives.
    pub fn contains(&self, element: &str) -> bool {
        self.contains_hashes(&ElementHashes::of_str(element))
    }

    /// Membership test for a pre-hashed element.
    pub fn contains_hashes(&self, hashes: &ElementHashes) -> bool {
        hashes
            .positions(self.params.hashes, self.params.bits)
            .all(|pos| self.get_bit(pos))
    }

    /// True if **all** of `elements` are (apparently) members.
    ///
    /// This is the neighbour-selection test of §4.2: a neighbour's filter
    /// "matches q" iff every keyword of `q` is a member.
    pub fn contains_all<'a, I>(&self, elements: I) -> bool
    where
        I: IntoIterator<Item = &'a str>,
    {
        elements.into_iter().all(|e| self.contains(e))
    }

    /// [`BloomFilter::contains_all`] over pre-hashed elements: semantically
    /// identical to hashing each element on the fly,
    /// `contains_all(es) == contains_all_hashes(es.map(hash))`.
    ///
    /// The routing hot path tests every query keyword against the filter of
    /// every neighbour at every hop, and almost every test fails. Its cost is
    /// memory, not arithmetic: a filter held behind an `Arc` is two dependent
    /// loads (the header, then the words) before the first probe. A caller
    /// that tests the same keywords against many filters first compares each
    /// filter's [`BloomFilter::fold`], kept beside its pointer, with the
    /// keywords' [`ElementHashes::fold_mask`], and calls this only for the
    /// filters that pass.
    pub fn contains_all_hashes(&self, hashes: &[ElementHashes]) -> bool {
        hashes.iter().all(|h| self.contains_hashes(h))
    }

    /// Sets bit `pos`; returns whether the bit changed.
    pub fn set_bit(&mut self, pos: usize) -> bool {
        assert!(pos < self.params.bits, "bit index out of range");
        let word = pos / 64;
        let mask = 1u64 << (pos % 64);
        let changed = self.words[word] & mask == 0;
        self.words[word] |= mask;
        changed
    }

    /// Clears bit `pos`; returns whether the bit changed.
    pub fn clear_bit(&mut self, pos: usize) -> bool {
        assert!(pos < self.params.bits, "bit index out of range");
        let word = pos / 64;
        let mask = 1u64 << (pos % 64);
        let changed = self.words[word] & mask != 0;
        self.words[word] &= !mask;
        changed
    }

    /// Reads bit `pos`.
    pub fn get_bit(&self, pos: usize) -> bool {
        assert!(pos < self.params.bits, "bit index out of range");
        self.words[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits (the filter's load factor).
    pub fn fill_ratio(&self) -> f64 {
        self.count_ones() as f64 / self.params.bits as f64
    }

    /// Number of `insert` calls so far.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Resets the filter to empty.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.insertions = 0;
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Positions of bits that differ from `other`.
    ///
    /// # Panics
    /// Panics if the two filters have different parameters.
    pub fn changed_bits(&self, other: &BloomFilter) -> Vec<usize> {
        assert_eq!(
            self.params, other.params,
            "cannot diff filters with different parameters"
        );
        let mut out = Vec::new();
        for (w, (a, b)) in self.words.iter().zip(other.words.iter()).enumerate() {
            let mut diff = a ^ b;
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                let pos = w * 64 + bit;
                if pos < self.params.bits {
                    out.push(pos);
                }
                diff &= diff - 1;
            }
        }
        out
    }

    /// The OR of the filter's words: bit `b` is set exactly when some set
    /// position is ≡ `b` (mod 64). A member's probe positions all fold into
    /// it, so `contains_hashes(h)` implies
    /// `fold() & mask == mask` for `h`'s [`ElementHashes::fold_mask`] — a
    /// one-word test that rejects most non-members without reading the words.
    pub fn fold(&self) -> u64 {
        self.words.iter().fold(0, |fold, &w| fold | w)
    }

    /// Raw words backing the filter (read-only; for serialisation and tests).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::paper_default();
        let elements: Vec<String> = (0..150).map(|i| format!("keyword-{i}")).collect();
        for e in &elements {
            f.insert(e);
        }
        for e in &elements {
            assert!(f.contains(e), "inserted element {e} must be found");
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::paper_default();
        assert!(!f.contains("anything"));
        assert!(f.is_empty());
        assert_eq!(f.count_ones(), 0);
    }

    #[test]
    fn false_positive_rate_is_low_at_paper_load() {
        // Paper load: 50 filenames × 3 keywords = 150 elements in 1200 bits.
        let mut f = BloomFilter::paper_default();
        for i in 0..150 {
            f.insert(&format!("present-{i}"));
        }
        let trials = 10_000;
        let false_positives = (0..trials)
            .filter(|i| f.contains(&format!("absent-{i}")))
            .count();
        let rate = false_positives as f64 / trials as f64;
        assert!(rate < 0.10, "false positive rate too high: {rate}");
        // And the analytic estimate should be in the same ballpark.
        let predicted = f.params().false_positive_rate(150);
        assert!(predicted < 0.10, "analytic rate unexpectedly high: {predicted}");
    }

    #[test]
    fn contains_all_requires_every_keyword() {
        let mut f = BloomFilter::paper_default();
        f.insert("madonna");
        f.insert("like");
        f.insert("prayer");
        assert!(f.contains_all(["madonna", "prayer"]));
        assert!(!f.contains_all(["madonna", "zzz-not-there-zzz"]));
        assert!(f.contains_all::<[&str; 0]>([]), "vacuous truth on empty query");
    }

    #[test]
    fn contains_all_hashes_agrees_with_the_string_path() {
        let mut f = BloomFilter::paper_default();
        for i in 0..150 {
            f.insert(&format!("kw{i}"));
        }
        for query in [vec!["kw0"], vec!["kw1", "kw2"], vec!["kw3", "nope"], vec![]] {
            let hashes: Vec<ElementHashes> =
                query.iter().map(|e| ElementHashes::of_str(e)).collect();
            assert_eq!(
                f.contains_all(query.iter().copied()),
                f.contains_all_hashes(&hashes),
                "query {query:?} must agree between the string and pre-hashed paths"
            );
        }
    }

    #[test]
    fn fold_keeps_each_set_position_modulo_64() {
        let mut f = BloomFilter::new(BloomParams::new(200, 3));
        assert_eq!(f.fold(), 0);
        f.set_bit(3);
        f.set_bit(67);
        f.set_bit(199);
        assert_eq!(f.fold(), 1 << 3 | 1 << (199 % 64));
        f.clear_bit(3);
        assert_eq!(f.fold(), 1 << 3 | 1 << (199 % 64), "67 still folds onto bit 3");
        f.clear_bit(67);
        assert_eq!(f.fold(), 1 << (199 % 64));
    }

    proptest! {
        /// Over filters of 1–4096 bits (a third of them under one word, most
        /// of the rest not a whole number of words) and 1–8 hashes, holding
        /// 0–39 elements: every element the filter contains, inserted or a
        /// false positive, passes the fold test, so the test can only ever
        /// skip a filter that does not contain it.
        #[test]
        fn members_pass_the_fold_test(
            bits in prop_oneof![1usize..64, 1usize..=4096, 1usize..=4096],
            k in 1usize..=8,
            inserted in 0u32..40,
        ) {
            let mut filter = BloomFilter::new(BloomParams::new(bits, k));
            for e in 0..inserted {
                filter.insert(&format!("e{e}"));
            }
            let fold = filter.fold();
            for e in 0..200 {
                let hashes = ElementHashes::of_str(&format!("e{e}"));
                let mask = hashes.fold_mask(k, bits);
                if filter.contains_hashes(&hashes) {
                    prop_assert!(fold & mask == mask, "e{e} is a member but fails the fold test");
                }
            }
        }
    }

    #[test]
    fn bit_operations_round_trip() {
        let mut f = BloomFilter::new(BloomParams::new(128, 3));
        assert!(f.set_bit(5));
        assert!(!f.set_bit(5), "setting an already-set bit reports no change");
        assert!(f.get_bit(5));
        assert!(f.clear_bit(5));
        assert!(!f.clear_bit(5));
        assert!(!f.get_bit(5));
    }

    #[test]
    fn changed_bits_lists_exact_difference() {
        let mut a = BloomFilter::new(BloomParams::new(200, 3));
        let mut b = BloomFilter::new(BloomParams::new(200, 3));
        a.set_bit(3);
        a.set_bit(64);
        b.set_bit(64);
        b.set_bit(199);
        let mut diff = a.changed_bits(&b);
        diff.sort_unstable();
        assert_eq!(diff, vec![3, 199]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut f = BloomFilter::paper_default();
        f.insert("x");
        assert!(!f.is_empty());
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.insertions(), 0);
        assert!(!f.contains("x"));
    }

    #[test]
    fn optimal_hashes_formula() {
        // m=1200, n=150 → (8)·ln2 ≈ 5.5 → 6 after rounding; but never 0.
        let k = BloomParams::optimal_hashes(1200, 150);
        assert!((5..=6).contains(&k));
        assert_eq!(BloomParams::optimal_hashes(1200, 0), 1);
        assert_eq!(BloomParams::optimal_hashes(8, 10_000), 1);
    }

    #[test]
    fn fill_ratio_grows_with_insertions() {
        let mut f = BloomFilter::paper_default();
        let before = f.fill_ratio();
        for i in 0..50 {
            f.insert(&format!("kw{i}"));
        }
        assert!(f.fill_ratio() > before);
        assert!(f.fill_ratio() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bit_panics() {
        let f = BloomFilter::new(BloomParams::new(10, 1));
        let _ = f.get_bit(10);
    }

    #[test]
    #[should_panic(expected = "different parameters")]
    fn diffing_mismatched_filters_panics() {
        let a = BloomFilter::new(BloomParams::new(100, 3));
        let b = BloomFilter::new(BloomParams::new(200, 3));
        let _ = a.changed_bits(&b);
    }
}
