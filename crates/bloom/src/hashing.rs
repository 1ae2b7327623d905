//! Double hashing for Bloom filters.
//!
//! Kirsch & Mitzenmacher showed that deriving the `k` probe positions as
//! `h1 + i·h2 (mod m)` from two independent base hashes is asymptotically as
//! good as `k` independent hash functions. We derive the two base hashes from a
//! single 128-bit FNV-1a-style digest of the element, so hashing stays
//! dependency-free, fast and — crucially for the reproduction — fully
//! deterministic across runs and platforms.

/// The two base hashes of an element, from which all probe positions derive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementHashes {
    h1: u64,
    h2: u64,
}

impl ElementHashes {
    /// Hashes an arbitrary byte string.
    pub fn of_bytes(data: &[u8]) -> Self {
        // 128-bit FNV-1a split into two 64-bit lanes with different offsets,
        // then finalised with a SplitMix64-style avalanche so short keywords
        // still spread over the whole range.
        let mut a: u64 = 0xcbf2_9ce4_8422_2325;
        let mut b: u64 = 0x6c62_272e_07bb_0142;
        for &byte in data {
            a ^= u64::from(byte);
            a = a.wrapping_mul(0x0000_0100_0000_01B3);
            b ^= u64::from(byte).rotate_left(17);
            b = b.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ElementHashes {
            h1: avalanche(a),
            h2: avalanche(b) | 1, // force h2 odd so it is coprime with power-of-two m
        }
    }

    /// Hashes a string element (the common case: a keyword).
    pub fn of_str(s: &str) -> Self {
        Self::of_bytes(s.as_bytes())
    }

    /// The `i`-th probe position for a filter of `m` bits.
    pub fn position(&self, i: usize, m: usize) -> usize {
        debug_assert!(m > 0, "filter must have at least one bit");
        let combined = self.h1.wrapping_add(self.h2.wrapping_mul(i as u64));
        (combined % m as u64) as usize
    }

    /// All `k` probe positions for a filter of `m` bits.
    pub fn positions(&self, k: usize, m: usize) -> impl Iterator<Item = usize> + '_ {
        (0..k).map(move |i| self.position(i, m))
    }

    /// The `k` probe positions for a filter of `m` bits folded onto one
    /// word: bit `pos % 64` for each. A filter holding the element has every
    /// mask bit set in its [`crate::BloomFilter::fold`].
    pub fn fold_mask(&self, k: usize, m: usize) -> u64 {
        self.positions(k, m).fold(0, |mask, pos| mask | 1 << (pos % 64))
    }
}

fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hashing_is_deterministic() {
        let a = ElementHashes::of_str("gnutella");
        let b = ElementHashes::of_str("gnutella");
        assert_eq!(a, b);
    }

    #[test]
    fn different_elements_hash_differently() {
        let a = ElementHashes::of_str("keyword-a");
        let b = ElementHashes::of_str("keyword-b");
        assert_ne!(a, b);
    }

    #[test]
    fn positions_are_in_range() {
        let h = ElementHashes::of_str("some-keyword");
        for m in [7usize, 64, 1200, 4093] {
            for p in h.positions(16, m) {
                assert!(p < m);
            }
        }
    }

    #[test]
    fn positions_spread_over_the_filter() {
        // Hash 1000 distinct keywords into a 1200-bit filter with one probe each;
        // the occupied positions should cover a substantial fraction of the range.
        let m = 1200;
        let occupied: HashSet<usize> = (0..1000)
            .map(|i| ElementHashes::of_str(&format!("kw{i}")).position(0, m))
            .collect();
        assert!(
            occupied.len() > 600,
            "expected wide spread, got {} distinct positions",
            occupied.len()
        );
    }

    #[test]
    fn probe_sequences_differ_between_elements() {
        let m = 1200;
        let k = 5;
        let a: Vec<usize> = ElementHashes::of_str("alpha").positions(k, m).collect();
        let b: Vec<usize> = ElementHashes::of_str("beta").positions(k, m).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn empty_element_is_valid() {
        let h = ElementHashes::of_str("");
        assert!(h.position(0, 1200) < 1200);
    }
}
