//! The keyword pool.
//!
//! Keywords are identified by dense integer ids (`KeywordId`); the protocols
//! only ever hash or compare ids. Each id also has a deterministic pseudo-word
//! spelling so that examples print something readable and the Bloom filter is
//! exercised with realistic variable-length strings rather than bare integers.

use std::fmt::Write;

use locaware_bloom::{ElementHasher, ElementHashes};

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
    /// like real search terms. This is the reference spelling; interning
    /// hashes the same bytes without building the `String`.
    pub fn spell(kw: KeywordId) -> String {
        let mut word = String::new();
        for_each_letter(kw, |letter| word.push(char::from(letter)));
        // The numeric suffix guarantees global uniqueness of spellings;
        // writing into a `String` cannot fail.
        let _ = write!(word, "{}", kw.0);
        word
    }
}

const ONSETS: &[u8; 12] = b"bdfgklmnrstv";
const NUCLEI: &[u8; 6] = b"aeiouy";
const CODAS: [Option<u8>; 8] = [None, Some(b'n'), Some(b'r'), Some(b's'), Some(b'l'), Some(b'm'), Some(b'x'), Some(b't')];

/// The digits of the largest id, `u32::MAX`.
const MAX_DIGITS: usize = 10;

/// Hands `emit` the letters of `kw`'s spelling in order: two to four
/// syllables, each an onset, a nucleus and an optional coda.
fn for_each_letter(kw: KeywordId, mut emit: impl FnMut(u8)) {
    let mut state = kw.0 as u64 + 1;
    for _ in 0..2 + kw.0 % 3 {
        // Simple multiplicative scrambling to vary syllables across ids.
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        emit(ONSETS[(state >> 33) as usize % ONSETS.len()]);
        emit(NUCLEI[(state >> 21) as usize % NUCLEI.len()]);
        if let Some(coda) = CODAS[(state >> 11) as usize % CODAS.len()] {
            emit(coda);
        }
    }
}

/// The Bloom hashes of `kw`'s spelling, fed to the hasher byte by byte:
/// exactly the bytes [`KeywordPool::spell`] writes, the syllables' letters
/// and then the id's decimal digits (staged in a stack buffer, as they come
/// out least significant first), with no `String` in between.
fn hash_spelling(kw: KeywordId) -> ElementHashes {
    let mut hasher = ElementHasher::default();
    for_each_letter(kw, |letter| hasher.write_byte(letter));
    let mut digits = [0u8; MAX_DIGITS];
    let mut first = MAX_DIGITS;
    let mut rest = kw.0;
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for &digit in &digits[first..] {
        hasher.write_byte(digit);
    }
    hasher.finish()
}

/// Bloom hashes interned once per keyword a catalog's filenames hold.
///
/// Every Bloom-filter operation on a keyword starts by hashing its canonical
/// spelling; on the routing hot path the *same* keywords are hashed over and
/// over (once per neighbour per hop). Interning the [`ElementHashes`] of every
/// filename keyword at substrate-build time turns each of those hashes into
/// an array load. A query's keywords come from its target's filename, so a
/// run only looks up interned keywords; any other (a pool keyword no filename
/// holds, or one outside the pool) falls back to hashing on the fly, so
/// lookups are total and always agree with
/// `ElementHashes::of_str(&kw.canonical())`.
#[derive(Debug, Clone, Default)]
pub struct KeywordHashes {
    /// Indexed by keyword id over the pool; `None` where nothing was interned.
    hashes: Vec<Option<ElementHashes>>,
}

impl KeywordHashes {
    /// Interns the hashes of every distinct keyword of `held` that lies in
    /// `pool`, each hashed once.
    pub fn for_keywords(pool: &KeywordPool, held: &[KeywordId]) -> Self {
        // Mark the held ids first, then hash them in id order, so the table
        // is written front to back instead of at random.
        let mut marked = vec![0u64; pool.len().div_ceil(64)];
        for kw in held.iter().filter(|kw| pool.contains(**kw)) {
            marked[kw.index() / 64] |= 1 << (kw.index() % 64);
        }
        let hashes = pool
            .iter()
            .map(|kw| (marked[kw.index() / 64] >> (kw.index() % 64) & 1 == 1).then(|| hash_spelling(kw)))
            .collect();
        KeywordHashes { hashes }
    }

    /// An empty table: every lookup falls back to hashing on the fly.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of interned keywords.
    pub fn len(&self) -> usize {
        self.hashes.iter().flatten().count()
    }

    /// True if nothing is interned (all lookups hash on the fly).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Bloom hashes of `kw`: an array load for interned keywords, a
    /// fresh hash of the spelling otherwise.
    pub fn of(&self, kw: KeywordId) -> ElementHashes {
        match self.hashes.get(kw.index()) {
            Some(&Some(h)) => h,
            _ => hash_spelling(kw),
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
        use crate::catalog::{Catalog, CatalogConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // The 10⁴-peer tier's catalog: ids of 1 to 5 digits and all three
        // syllable counts, about a third of the pool held by no filename.
        let catalog = Catalog::generate(
            CatalogConfig {
                files: 30_000,
                keywords: 90_000,
                keywords_per_file: 3,
            },
            &mut StdRng::seed_from_u64(42),
        );
        let pool = catalog.keyword_pool();
        let interned = catalog.keyword_hashes();
        let held = interned.len();
        assert!(held > 50_000 && held < pool.len(), "{held} of {} interned", pool.len());
        for kw in pool.iter() {
            assert_eq!(interned.of(kw), ElementHashes::of_str(&kw.canonical()), "{kw:?}");
        }
        // Past the pool: six digits, seven digits, and the longest spelling
        // (four syllables, ten digits).
        for id in [99_999, 100_000, u32::MAX - 1] {
            let kw = KeywordId(id);
            assert_eq!(interned.of(kw), ElementHashes::of_str(&kw.canonical()), "{kw:?}");
        }
        // The empty table is a pure fallback.
        let empty = KeywordHashes::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.of(KeywordId(3)), ElementHashes::of_str(&KeywordId(3).canonical()));
    }
}
