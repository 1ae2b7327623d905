//! Location identifiers (`locId`).
//!
//! §4.1.1 of the paper: *"An ordering of the \[landmark\] set by increasing RTT
//! reflects the physical location of peer n. Thus, physically close peers are
//! likely to produce the same ordering. We thereby associate to each possible
//! ordering a location Id noted locId."*
//!
//! With `k` landmarks there are `k!` possible orderings; the paper uses 4
//! landmarks, i.e. 24 locIds (§5.1). We encode an ordering (a permutation of
//! `0..k`) as its **Lehmer code** index in `[0, k!)`, which gives a compact,
//! stable integer id and an exact inverse for debugging and tests.

/// A location identifier: the Lehmer index of a landmark-RTT ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub u32);

impl LocId {
    /// Encodes a permutation of `0..k` (the landmark indices sorted by
    /// increasing RTT) into its Lehmer index.
    ///
    /// # Panics
    /// Panics if `ordering` is not a permutation of `0..ordering.len()`.
    pub fn from_ordering(ordering: &[usize]) -> LocId {
        let k = ordering.len();
        assert!(is_permutation(ordering), "ordering must be a permutation of 0..k");
        let mut index: u32 = 0;
        for (i, &oi) in ordering.iter().enumerate() {
            // Count how many later elements are smaller than ordering[i].
            let smaller_later = ordering[i + 1..].iter().filter(|&&oj| oj < oi).count() as u32;
            index = index * (k - i) as u32 + smaller_later;
        }
        LocId(index)
    }

    /// Decodes the locId back into the landmark ordering it represents.
    pub fn to_ordering(self, landmarks: usize) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..landmarks).collect();
        let mut index = self.0;
        // Factorials of the suffix lengths.
        let mut result = Vec::with_capacity(landmarks);
        for i in 0..landmarks {
            let suffix = landmarks - i - 1;
            let fact = (1..=suffix as u32).product::<u32>().max(1);
            let pos = (index / fact) as usize;
            index %= fact;
            result.push(remaining.remove(pos.min(remaining.len().saturating_sub(1))));
        }
        result
    }

    /// The raw id value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for LocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

fn is_permutation(values: &[usize]) -> bool {
    let k = values.len();
    let mut seen = vec![false; k];
    for &v in values {
        if v >= k || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` landmarks give `k!` locIds: the reverse ordering is the last one.
    #[test]
    fn cardinality_matches_factorial() {
        // 4 is the paper's configuration, 5 the rejected alternative.
        for k in 1..=5usize {
            let reverse: Vec<usize> = (0..k).rev().collect();
            let factorial: u32 = (1..=k as u32).product();
            assert_eq!(LocId::from_ordering(&reverse).value(), factorial - 1, "{k} landmarks");
        }
    }

    #[test]
    fn identity_ordering_is_zero() {
        assert_eq!(LocId::from_ordering(&[0, 1, 2, 3]), LocId(0));
    }

    #[test]
    fn reverse_ordering_is_max() {
        assert_eq!(LocId::from_ordering(&[3, 2, 1, 0]), LocId(23));
    }

    #[test]
    fn all_orderings_of_four_landmarks_are_distinct_and_in_range() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..4usize {
            for b in 0..4usize {
                for c in 0..4usize {
                    for d in 0..4usize {
                        let perm = [a, b, c, d];
                        if !is_permutation(&perm) {
                            continue;
                        }
                        let id = LocId::from_ordering(&perm);
                        assert!(id.value() < 24);
                        assert!(seen.insert(id), "duplicate id for {perm:?}");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn encode_decode_round_trips() {
        for k in 1..=6usize {
            // Enumerate all permutations of 0..k via Heap's algorithm.
            let mut perm: Vec<usize> = (0..k).collect();
            let mut c = vec![0usize; k];
            let check = |p: &[usize]| {
                let id = LocId::from_ordering(p);
                assert_eq!(id.to_ordering(k), p, "round trip failed for {p:?}");
            };
            check(&perm);
            let mut i = 0;
            while i < k {
                if c[i] < i {
                    if i % 2 == 0 {
                        perm.swap(0, i);
                    } else {
                        perm.swap(c[i], i);
                    }
                    check(&perm);
                    c[i] += 1;
                    i = 0;
                } else {
                    c[i] = 0;
                    i += 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_is_rejected() {
        let _ = LocId::from_ordering(&[0, 0, 1, 2]);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(format!("{}", LocId(7)), "loc7");
    }
}
