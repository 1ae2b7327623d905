//! The keyword pool.
//!
//! Keywords are identified by dense integer ids (`KeywordId`); the protocols
//! only ever hash or compare ids. Each id also has a deterministic pseudo-word
//! spelling so that examples print something readable and the Bloom filter is
//! exercised with realistic variable-length strings rather than bare integers.

use std::fmt::Write;

use locaware_bloom::ElementHashes;

/// Identifies a keyword in the global pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The canonical string form hashed into Bloom filters.
    ///
    /// Every component (peer-side filter maintenance, query-side membership
    /// tests) must use this same spelling, otherwise membership tests would
    /// silently fail; centralising it here is what guarantees that.
    pub fn canonical(self) -> String {
        KeywordPool::spell(self)
    }
}

impl std::fmt::Display for KeywordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// The pool of all keywords in the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordPool {
    count: u32,
}

impl KeywordPool {
    /// Creates a pool of `count` keywords (the paper uses 9000).
    ///
    /// # Panics
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "keyword pool must not be empty");
        KeywordPool {
            count: count as u32,
        }
    }

    /// Number of keywords in the pool.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True if the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True if `kw` belongs to this pool.
    pub fn contains(&self, kw: KeywordId) -> bool {
        kw.0 < self.count
    }

    /// Iterator over all keyword ids.
    pub fn iter(&self) -> impl Iterator<Item = KeywordId> {
        (0..self.count).map(KeywordId)
    }

    /// Deterministic pseudo-word spelling of a keyword id.
    ///
    /// Ids map to distinct strings (the id is appended), with a
    /// syllable-generated prefix so lengths and character distributions look
    /// like real search terms.
    pub fn spell(kw: KeywordId) -> String {
        let mut word = String::new();
        Self::spell_into(kw, &mut word);
        word
    }

    /// [`KeywordPool::spell`] into a caller's buffer: clears `word`, then
    /// appends the same bytes, so one buffer serves a whole pool.
    pub fn spell_into(kw: KeywordId, word: &mut String) {
        const ONSETS: [&str; 12] = [
            "b", "d", "f", "g", "k", "l", "m", "n", "r", "s", "t", "v",
        ];
        const NUCLEI: [&str; 6] = ["a", "e", "i", "o", "u", "y"];
        const CODAS: [&str; 8] = ["", "n", "r", "s", "l", "m", "x", "t"];
        word.clear();
        let mut state = kw.0 as u64 + 1;
        let syllables = 2 + (kw.0 % 3) as usize;
        for _ in 0..syllables {
            // Simple multiplicative scrambling to vary syllables across ids.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let onset = ONSETS[(state >> 33) as usize % ONSETS.len()];
            let nucleus = NUCLEI[(state >> 21) as usize % NUCLEI.len()];
            let coda = CODAS[(state >> 11) as usize % CODAS.len()];
            word.push_str(onset);
            word.push_str(nucleus);
            word.push_str(coda);
        }
        // The numeric suffix guarantees global uniqueness of spellings;
        // writing into a `String` cannot fail.
        let _ = write!(word, "{}", kw.0);
    }
}

/// Bloom hashes interned once per keyword of a pool.
///
/// Every Bloom-filter operation on a keyword starts by hashing its canonical
/// spelling; on the routing hot path the *same* keywords are hashed over and
/// over (once per neighbour per hop). Interning the [`ElementHashes`] of every
/// pool keyword at substrate-build time turns each of those hashes into an
/// array load. Keywords outside the interned pool (only constructed by tests)
/// fall back to hashing on the fly, so lookups are total and always agree with
/// `ElementHashes::of_str(&kw.canonical())`.
#[derive(Debug, Clone, Default)]
pub struct KeywordHashes {
    hashes: Vec<ElementHashes>,
}

impl KeywordHashes {
    /// Interns the hashes of every keyword in `pool`, spelling each one into
    /// a single reused buffer.
    pub fn for_pool(pool: &KeywordPool) -> Self {
        let mut word = String::new();
        KeywordHashes {
            hashes: pool
                .iter()
                .map(|kw| {
                    KeywordPool::spell_into(kw, &mut word);
                    ElementHashes::of_str(&word)
                })
                .collect(),
        }
    }

    /// An empty table: every lookup falls back to hashing on the fly.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of interned keywords.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if nothing is interned (all lookups hash on the fly).
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The Bloom hashes of `kw`: an array load for pool keywords, a fresh
    /// hash of the canonical spelling otherwise.
    pub fn of(&self, kw: KeywordId) -> ElementHashes {
        match self.hashes.get(kw.index()) {
            Some(&h) => h,
            None => ElementHashes::of_str(&kw.canonical()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn pool_membership() {
        let pool = KeywordPool::new(100);
        assert_eq!(pool.len(), 100);
        assert!(pool.contains(KeywordId(0)));
        assert!(pool.contains(KeywordId(99)));
        assert!(!pool.contains(KeywordId(100)));
        assert_eq!(pool.iter().count(), 100);
    }

    #[test]
    fn spellings_are_unique_and_deterministic() {
        let spellings: Vec<String> = (0..9000).map(|i| KeywordId(i).canonical()).collect();
        let distinct: HashSet<&String> = spellings.iter().collect();
        assert_eq!(distinct.len(), 9000, "all spellings must be unique");
        assert_eq!(KeywordId(42).canonical(), KeywordId(42).canonical());
    }

    #[test]
    fn spellings_look_like_words() {
        for i in [0u32, 1, 17, 8999] {
            let w = KeywordId(i).canonical();
            assert!(w.len() >= 4, "keyword too short: {w}");
            assert!(w.chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn display_matches_canonical() {
        assert_eq!(format!("{}", KeywordId(7)), KeywordId(7).canonical());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_pool_is_rejected() {
        let _ = KeywordPool::new(0);
    }

    #[test]
    fn interned_hashes_match_on_the_fly_hashing() {
        // 10 001 keywords: ids of 1 to 5 digits and all three syllable
        // counts, so a reused spelling buffer is overwritten by both shorter
        // and longer words.
        let pool = KeywordPool::new(10_001);
        let interned = KeywordHashes::for_pool(&pool);
        assert_eq!(interned.len(), 10_001);
        for kw in pool.iter() {
            assert_eq!(interned.of(kw), ElementHashes::of_str(&kw.canonical()));
        }
        // Out-of-pool keywords fall back to hashing on the fly.
        let outside = KeywordId(19_999);
        assert_eq!(
            interned.of(outside),
            ElementHashes::of_str(&outside.canonical())
        );
        // The empty table is a pure fallback.
        let empty = KeywordHashes::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.of(KeywordId(3)), ElementHashes::of_str(&KeywordId(3).canonical()));
    }
}
