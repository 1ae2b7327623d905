//! Group ids and the `hash(·) mod M` matching rule.
//!
//! §3.2 (inherited from Dicas): *"each peer n randomly chooses a group Id noted
//! Gid_n (Gid_n ∈ [0 .. M − 1] with M a system parameter). Gid_n matches a
//! filename f if Gid_n = hash(f) mod M."* Group ids restrict which peers along a
//! response path cache an index, avoiding redundant copies among neighbours,
//! and they double as a routing hint (forward towards peers whose Gid matches).
//!
//! Dicas-Keys applies the same rule to individual query keywords instead of the
//! whole filename, which is what produces its duplicated cache entries.

use rand::Rng;

use locaware_workload::{FileId, KeywordId};

/// A peer's group id in `[0, M)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The raw value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The group-assignment scheme: the modulus `M` plus the hash rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupScheme {
    modulus: u32,
}

impl GroupScheme {
    /// Creates a scheme with modulus `M`.
    ///
    /// # Panics
    /// Panics if `modulus` is zero.
    pub fn new(modulus: u32) -> Self {
        assert!(modulus > 0, "group modulus M must be positive");
        GroupScheme { modulus }
    }

    /// Draws a uniformly random group id for a joining peer.
    pub fn random_gid<R: Rng + ?Sized>(&self, rng: &mut R) -> GroupId {
        GroupId(rng.gen_range(0..self.modulus))
    }

    /// Assigns every peer in `0..peers` a random group id.
    pub fn assign_all<R: Rng + ?Sized>(&self, peers: usize, rng: &mut R) -> Vec<GroupId> {
        (0..peers).map(|_| self.random_gid(rng)).collect()
    }

    /// The group a filename hashes to (`hash(f) mod M`).
    pub fn group_of_file(&self, file: FileId) -> GroupId {
        GroupId((stable_hash(u64::from(file.0) ^ 0xF11E) % u64::from(self.modulus)) as u32)
    }

    /// The group a keyword hashes to (`hash(kw) mod M`, the Dicas-Keys rule).
    pub fn group_of_keyword(&self, keyword: KeywordId) -> GroupId {
        GroupId((stable_hash(u64::from(keyword.0) ^ 0x5E1D) % u64::from(self.modulus)) as u32)
    }

    /// True if `gid` matches the filename (the caching rule of §3.2).
    pub fn gid_matches_file(&self, gid: GroupId, file: FileId) -> bool {
        gid == self.group_of_file(file)
    }

    /// True if `gid` matches at least one of the keywords (the Dicas-Keys
    /// caching/routing rule, and Locaware's Gid fallback "matched Gid wrt q").
    pub fn gid_matches_any_keyword(&self, gid: GroupId, keywords: &[KeywordId]) -> bool {
        keywords.iter().any(|&kw| gid == self.group_of_keyword(kw))
    }
}

/// SplitMix64 — a stable, platform-independent 64-bit mix used for the
/// `hash(·) mod M` rule so that every peer computes identical groups.
fn stable_hash(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gids_are_within_the_modulus() {
        let scheme = GroupScheme::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        for gid in scheme.assign_all(1000, &mut rng) {
            assert!(gid.value() < 4);
        }
        for f in 0..500u32 {
            assert!(scheme.group_of_file(FileId(f)).value() < 4);
        }
        for k in 0..500u32 {
            assert!(scheme.group_of_keyword(KeywordId(k)).value() < 4);
        }
    }

    #[test]
    fn file_groups_are_deterministic_and_balanced() {
        let scheme = GroupScheme::new(4);
        assert_eq!(
            scheme.group_of_file(FileId(123)),
            scheme.group_of_file(FileId(123))
        );
        let mut counts = [0usize; 4];
        for f in 0..4000u32 {
            counts[scheme.group_of_file(FileId(f)).value() as usize] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            assert!(
                (800..=1200).contains(&c),
                "group {g} has {c} of 4000 files; expected ≈1000"
            );
        }
    }

    #[test]
    fn random_assignment_is_roughly_uniform() {
        let scheme = GroupScheme::new(8);
        let gids = scheme.assign_all(8000, &mut StdRng::seed_from_u64(2));
        let mut counts = [0usize; 8];
        for g in gids {
            counts[g.value() as usize] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "unbalanced assignment: {counts:?}");
        }
    }

    #[test]
    fn matching_rules() {
        let scheme = GroupScheme::new(4);
        let file = FileId(77);
        let gid = scheme.group_of_file(file);
        assert!(scheme.gid_matches_file(gid, file));
        let other = GroupId((gid.value() + 1) % 4);
        assert!(!scheme.gid_matches_file(other, file));

        let kws = [KeywordId(1), KeywordId(2), KeywordId(3)];
        let matching_gid = scheme.group_of_keyword(KeywordId(2));
        assert!(scheme.gid_matches_any_keyword(matching_gid, &kws));
        // A gid matching none of the three keywords (exists since M=4 > 3 used groups at most).
        let used: std::collections::HashSet<u32> =
            kws.iter().map(|&k| scheme.group_of_keyword(k).value()).collect();
        if let Some(unused) = (0..4).find(|g| !used.contains(g)) {
            assert!(!scheme.gid_matches_any_keyword(GroupId(unused), &kws));
        }
        assert!(!scheme.gid_matches_any_keyword(GroupId(0), &[]));
    }

    #[test]
    fn file_and_keyword_hashes_are_independent() {
        // The same raw id should not be forced into the same group when
        // interpreted as a file vs. as a keyword.
        let scheme = GroupScheme::new(64);
        let differing = (0..1000u32)
            .filter(|&i| scheme.group_of_file(FileId(i)) != scheme.group_of_keyword(KeywordId(i)))
            .count();
        assert!(differing > 900, "hash domains should be separated, {differing}");
    }

    #[test]
    fn modulus_one_puts_everything_in_group_zero() {
        let scheme = GroupScheme::new(1);
        assert_eq!(scheme.group_of_file(FileId(9)), GroupId(0));
        assert_eq!(scheme.random_gid(&mut StdRng::seed_from_u64(3)), GroupId(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_modulus_is_rejected() {
        let _ = GroupScheme::new(0);
    }
}
