//! Incremental Bloom-filter updates ("changed-bit" deltas).
//!
//! §4.2, footnote 1: *"when a filename is added or deleted, a small number of
//! bits may change in the bit vector of the BF. Thus, n only needs to transmit
//! the location of the changed bits. The number of changed bits in a 1200-bit
//! vector of the BF is limited by 12 at most and the location of each bit by 11
//! bits. Thus, the information to be sent is limited by I = 12 · 11 bits =
//! 0.132 Kb."*
//!
//! [`BloomDelta`] captures exactly that: the positions whose bit value flipped
//! between two filter snapshots.

use crate::filter::BloomFilter;

/// The set of bit positions that flipped between two snapshots of a filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomDelta {
    /// Flipped bit positions, in increasing order.
    positions: Vec<u32>,
    /// Number of bits in the underlying filter ([`BloomDelta::apply`] checks it).
    filter_bits: u32,
}

impl BloomDelta {
    /// Computes the delta that transforms `old` into `new`.
    ///
    /// # Panics
    /// Panics if the two filters have different parameters.
    pub fn between(old: &BloomFilter, new: &BloomFilter) -> Self {
        let positions = old.changed_bits(new).into_iter().map(|p| p as u32).collect();
        BloomDelta {
            positions,
            filter_bits: old.bits() as u32,
        }
    }

    /// Builds a delta from raw positions (used by tests and by the overlay's
    /// message decoding).
    pub fn from_positions(positions: Vec<u32>, filter_bits: u32) -> Self {
        let mut positions = positions;
        positions.sort_unstable();
        positions.dedup();
        BloomDelta {
            positions,
            filter_bits,
        }
    }

    /// The flipped positions.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Number of flipped bits.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Applies the delta to `filter`, flipping each listed bit.
    ///
    /// Applying the same delta twice is an involution (it undoes itself), which
    /// is exactly the XOR semantics of "changed bits".
    ///
    /// # Panics
    /// Panics if the filter's size differs from the delta's.
    pub fn apply(&self, filter: &mut BloomFilter) {
        assert_eq!(
            filter.bits() as u32,
            self.filter_bits,
            "delta was computed for a filter of different size"
        );
        for &pos in &self.positions {
            let pos = pos as usize;
            if filter.get_bit(pos) {
                filter.clear_bit(pos);
            } else {
                filter.set_bit(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::BloomParams;

    #[test]
    fn delta_between_snapshots_reconstructs_the_new_filter() {
        let mut old = BloomFilter::paper_default();
        old.insert("madonna");
        old.insert("prayer");
        let mut new = old.clone();
        new.insert("vogue");

        let delta = BloomDelta::between(&old, &new);
        assert!(!delta.is_empty());

        let mut reconstructed = old.clone();
        delta.apply(&mut reconstructed);
        assert_eq!(reconstructed, new);
    }

    #[test]
    fn applying_twice_is_identity() {
        let mut old = BloomFilter::paper_default();
        old.insert("a");
        let mut new = old.clone();
        new.insert("b");
        let delta = BloomDelta::between(&old, &new);

        let mut f = old.clone();
        delta.apply(&mut f);
        delta.apply(&mut f);
        assert_eq!(f, old);
    }

    #[test]
    fn empty_delta_for_identical_filters() {
        let f = BloomFilter::paper_default();
        let delta = BloomDelta::between(&f, &f.clone());
        assert!(delta.is_empty());
    }

    #[test]
    fn paper_footnote_size_bound_holds() {
        // Adding one filename (3 keywords × 5 probes) flips at most 15 bits;
        // the paper's bound of 12 assumes its own k; what we verify here is
        // that a single-filename update touches a handful of the 1200 bits.
        let mut old = BloomFilter::paper_default();
        for i in 0..49 {
            old.insert(&format!("kw-a-{i}"));
            old.insert(&format!("kw-b-{i}"));
            old.insert(&format!("kw-c-{i}"));
        }
        let mut new = old.clone();
        new.insert("fresh-one");
        new.insert("fresh-two");
        new.insert("fresh-three");
        let delta = BloomDelta::between(&old, &new);
        assert!(delta.len() <= 15, "at most k × keywords bits can flip, got {}", delta.len());
    }

    #[test]
    fn from_positions_sorts_and_dedups() {
        let d = BloomDelta::from_positions(vec![9, 3, 9, 1], 100);
        assert_eq!(d.positions(), &[1, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn applying_to_wrong_size_filter_panics() {
        let small = BloomFilter::new(BloomParams::new(100, 3));
        let delta = BloomDelta::from_positions(vec![5], 1200);
        let mut target = small;
        delta.apply(&mut target);
    }
}
