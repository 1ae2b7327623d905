//! Kademlia-style DHT primitives: a 160-bit XOR key space, k-bucket routing
//! tables, and size-capped keyword→provider record stores.
//!
//! This module is pure data structure — no I/O, no clocks, no randomness of
//! its own. Identifiers are *derived* deterministically from caller-provided
//! salts (the simulation draws the salts from its seeded RNG streams), every
//! tie is broken by a total order, and record truncation is a pure function of
//! a record's contents, never of insertion order. That is what lets the
//! sharded engine run DHT maintenance under its bit-identical-for-every-
//! shard-count contract.
//!
//! The record design follows the BitTorrent-DHT keyword-indexing lineage:
//! one record per keyword (`idx:{keyword}`), holding `(file, provider)`
//! entries, updated read-modify-write, with a per-record byte cap that forces
//! deterministic truncation of the stalest entries once popular keywords
//! overflow it.

use std::ops::Range;

use locaware_net::LocId;
use locaware_sim::SimTime;

use crate::message::ProviderEntry;
use crate::PeerId;

/// Width of a DHT identifier in bytes (160 bits, as in Kademlia/BitTorrent).
pub const DHT_ID_BYTES: usize = 20;
/// Width of a DHT identifier in bits.
pub const DHT_ID_BITS: usize = 8 * DHT_ID_BYTES;

/// Wire bytes of one stored record entry: file id (4) + provider id (4) +
/// locId (1) + expiry (8). Used for the per-record size cap.
pub const RECORD_ENTRY_BYTES: usize = 17;
/// Wire bytes of a record's fixed overhead (the 160-bit key).
pub const RECORD_KEY_BYTES: usize = DHT_ID_BYTES;

/// A 160-bit identifier in the DHT key space (a node id or a record key).
///
/// Byte 0 is the most significant: the derived `Ord` is the numeric order,
/// and XOR distances compare the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtId(pub [u8; DHT_ID_BYTES]);

impl DhtId {
    /// Derives an id from `(salt, value)` by iterating a SplitMix64-style
    /// mixer: three mixed 64-bit words, truncated to 160 bits. Same inputs ⇒
    /// same id, and distinct values virtually never collide.
    pub fn derive(salt: u64, value: u64) -> Self {
        let mut bytes = [0u8; DHT_ID_BYTES];
        let mut state = salt ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for chunk in bytes.chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_be_bytes()[..chunk.len()]);
        }
        DhtId(bytes)
    }

    /// `self.distance(a).cmp(&self.distance(b))`, read off the first byte where they differ.
    fn cmp_distance(self, a: DhtId, b: DhtId) -> std::cmp::Ordering {
        let i = (0..DHT_ID_BYTES).find(|&i| a.0[i] != b.0[i]).unwrap_or(0);
        (a.0[i] ^ self.0[i]).cmp(&(b.0[i] ^ self.0[i]))
    }

    /// The XOR distance between two ids.
    pub fn distance(self, other: DhtId) -> DhtDistance {
        let mut out = [0u8; DHT_ID_BYTES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        DhtDistance(out)
    }
}

/// An XOR distance between two [`DhtId`]s. Compares numerically (byte 0 most
/// significant), which is the order Kademlia's "closest" is defined in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtDistance(pub [u8; DHT_ID_BYTES]);

impl DhtDistance {
    /// True for the distance of an id to itself.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// The k-bucket index of this distance: the bit position of its highest
    /// set bit (`0` = distances in `[1, 2)`, `159` = the far half of the key
    /// space). `None` for the zero distance.
    pub fn bucket_index(&self) -> Option<usize> {
        for (byte_index, &byte) in self.0.iter().enumerate() {
            if byte != 0 {
                let bit = 7 - byte.leading_zeros() as usize;
                return Some((DHT_ID_BYTES - 1 - byte_index) * 8 + bit);
            }
        }
        None
    }

    /// Bit `index` of the distance, counted like [`DhtDistance::bucket_index`]
    /// (`0` = least significant).
    fn bit(&self, index: u8) -> bool {
        let index = usize::from(index);
        self.0[DHT_ID_BYTES - 1 - index / 8] >> (index % 8) & 1 == 1
    }
}

/// A Kademlia k-bucket routing table.
///
/// Each of the 160 buckets holds at most `k` contacts whose distance to the
/// local id has its highest set bit at the bucket's index. A full bucket
/// rejects new contacts (Kademlia's "prefer the oldest live contact" rule —
/// with the arrival order fixed by the caller, the table contents are a
/// deterministic function of the insertion sequence).
///
/// Buckets are stored sparsely, sorted by bucket index. A converged table
/// occupies only the ~`log₂ n` buckets its population actually reaches
/// (bucket `i` requires a contact whose distance has its highest bit at `i`),
/// so the dense 160-`Vec` spine would be ~95% empty headers — at 10⁵ peers
/// that is several hundred megabytes of dead capacity across the fleet.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    local: DhtId,
    k: usize,
    /// `(bucket index, contacts)`, sorted by index; emptied buckets are
    /// removed so iteration touches only populated buckets.
    buckets: Vec<(u8, Vec<(DhtId, PeerId)>)>,
    len: usize,
}

impl RoutingTable {
    /// Creates an empty table for the node with id `local`.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(local: DhtId, k: usize) -> Self {
        assert!(k >= 1, "bucket capacity must be at least 1");
        RoutingTable {
            local,
            k,
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// The bucket capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of contacts currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no contacts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of contacts in bucket `index`.
    ///
    /// # Panics
    /// Panics if `index` is not a valid bucket index.
    pub fn bucket_len(&self, index: usize) -> usize {
        assert!(index < DHT_ID_BITS, "bucket index out of range");
        match self.buckets.binary_search_by_key(&(index as u8), |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1.len(),
            Err(_) => 0,
        }
    }

    /// Inserts a contact. Returns `false` (and changes nothing) if the
    /// contact is the local node, already present, or its bucket is full.
    pub fn insert(&mut self, id: DhtId, peer: PeerId) -> bool {
        let Some(index) = self.local.distance(id).bucket_index() else {
            return false; // the local node itself
        };
        let pos = match self.buckets.binary_search_by_key(&(index as u8), |&(i, _)| i) {
            Ok(pos) => pos,
            Err(pos) => {
                self.buckets.insert(pos, (index as u8, Vec::new()));
                pos
            }
        };
        let bucket = &mut self.buckets[pos].1;
        if bucket.iter().any(|&(_, p)| p == peer) {
            return false;
        }
        if bucket.len() >= self.k {
            return false;
        }
        bucket.push((id, peer));
        self.len += 1;
        true
    }

    /// Removes a contact (a departed peer). Returns `true` if it was present.
    pub fn remove(&mut self, peer: PeerId) -> bool {
        for pos in 0..self.buckets.len() {
            let bucket = &mut self.buckets[pos].1;
            if let Some(entry) = bucket.iter().position(|&(_, p)| p == peer) {
                bucket.remove(entry);
                if bucket.is_empty() {
                    self.buckets.remove(pos);
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// True if `peer` is a contact.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.buckets
            .iter()
            .any(|(_, bucket)| bucket.iter().any(|&(_, p)| p == peer))
    }

    /// Drops every contact (used when a peer's volatile state resets on
    /// rejoin; the maintenance process repopulates the table).
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.len = 0;
    }

    /// Appends the `count` contacts closest to `target` (by XOR distance,
    /// ties broken by peer id) to `out`, nearest first. The buffer is
    /// appended to, not cleared.
    ///
    /// Buckets are already a coarse ranking. A contact of bucket `i` differs
    /// from `local` first at bit `i`, so its distance to `target` equals
    /// `D = local ⊕ target` above bit `i` and has bit `i` flipped — while every
    /// contact of a lower bucket keeps `D`'s bit `i`. Where `D` has the bit
    /// set, bucket `i` is therefore strictly closer than all lower buckets;
    /// where it is clear, strictly farther. Visiting the set-bit buckets high
    /// to low and then the clear-bit buckets low to high walks the contacts
    /// in distance order bucket by bucket; only the contacts inside one
    /// bucket (at most `k`) are ranked against each other, and the walk stops
    /// once `count` are out.
    ///
    /// A bucket is ranked in `out`'s tail, so nothing else is allocated: the
    /// tail holds bucket positions, sorted and cut, then their peers.
    pub fn closest_into(&self, target: DhtId, count: usize, out: &mut Vec<PeerId>) {
        let toward = self.local.distance(target);
        let nearer = self.buckets.iter().rev().filter(|(i, _)| toward.bit(*i));
        let farther = self.buckets.iter().filter(|(i, _)| !toward.bit(*i));
        let end = out.len() + count;
        for (_, bucket) in nearer.chain(farther) {
            if out.len() == end {
                break;
            }
            let start = out.len();
            out.extend((0..bucket.len() as u32).map(PeerId));
            out[start..].sort_unstable_by(|a, b| {
                let ((a_id, a_peer), (b_id, b_peer)) = (bucket[a.index()], bucket[b.index()]);
                target.cmp_distance(a_id, b_id).then(a_peer.cmp(&b_peer))
            });
            out.truncate(end);
            out[start..].iter_mut().for_each(|slot| *slot = bucket[slot.index()].1);
        }
    }

    /// Allocating convenience wrapper around [`RoutingTable::closest_into`].
    pub fn closest(&self, target: DhtId, count: usize) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.closest_into(target, count, &mut out);
        out
    }
}

/// One stored entry: its expiry, `(keyword, file, provider)` key and locId.
/// Keys are unique, so inside a record the derived order is the eviction
/// order, stalest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StoredEntry {
    expires_at: SimTime,
    key: (u32, u32, u32),
    loc_id: LocId,
}

// Three ids, a locId and an expiry, unpadded: a store is 24 B per entry.
const _: () = assert!(std::mem::size_of::<StoredEntry>() == 24);

/// Bytes of a record holding `entries` entries.
fn record_bytes(entries: usize) -> usize {
    RECORD_KEY_BYTES + entries * RECORD_ENTRY_BYTES
}

/// A peer's slice of the keyword→providers index: one size-capped record per
/// keyword, with TTL-based expiry.
///
/// The layout is flat: one vector of 24-byte entries sorted by key, so a
/// keyword's record is the run of its entries (two binary searches), an
/// upsert is one binary search, and a record exists while it has entries.
///
/// All mutation is order-independent where it must be: an upsert keeps the
/// *freshest* `(expiry, locId)` for an entry regardless of arrival order, and
/// truncation always evicts the entry with the smallest
/// `(expiry, file, provider)` — so a record's contents are a pure function of
/// the set of inserts applied, which the property tests pin.
#[derive(Debug, Clone)]
pub struct DhtRecordStore {
    max_record_bytes: usize,
    entries: Vec<StoredEntry>,
    truncated_entries: u64,
    expired_entries: u64,
}

impl DhtRecordStore {
    /// Creates an empty store with the given per-record byte cap.
    ///
    /// # Panics
    /// Panics if the cap cannot hold even one entry.
    pub fn new(max_record_bytes: usize) -> Self {
        assert!(
            max_record_bytes >= record_bytes(1),
            "record cap must hold at least one entry"
        );
        DhtRecordStore {
            max_record_bytes,
            entries: Vec::new(),
            truncated_entries: 0,
            expired_entries: 0,
        }
    }

    /// The index range of `keyword`'s record in `entries`.
    fn record(&self, keyword: u32) -> Range<usize> {
        let start = self.entries.partition_point(|e| e.key.0 < keyword);
        start..start + self.entries[start..].partition_point(|e| e.key.0 == keyword)
    }

    /// Upserts an entry into `keyword`'s record (read-modify-write). An
    /// existing `(file, provider)` entry keeps the freshest
    /// `(expiry, locId)`; if a new entry takes the record past the cap, the
    /// stalest entry is evicted (smallest `(expiry, file, provider)`) and
    /// counted as truncated.
    pub fn insert(
        &mut self,
        keyword: u32,
        file: u32,
        provider: ProviderEntry,
        expires_at: SimTime,
    ) {
        let incoming = StoredEntry {
            key: (keyword, file, provider.provider.0),
            loc_id: provider.loc_id,
            expires_at,
        };
        match self.entries.binary_search_by_key(&incoming.key, |e| e.key) {
            // A refresh leaves the record's size alone.
            Ok(slot) => {
                let stored = &mut self.entries[slot];
                if (stored.expires_at, stored.loc_id) < (expires_at, provider.loc_id) {
                    *stored = incoming;
                }
            }
            Err(slot) => {
                let record = self.record(keyword);
                if record_bytes(record.len() + 1) <= self.max_record_bytes {
                    self.entries.insert(slot, incoming);
                } else {
                    // A full record sheds its stalest entry, the newcomer
                    // included; only the entries between the two move.
                    self.truncated_entries += 1;
                    let stalest = record.min_by_key(|&i| self.entries[i]);
                    if let Some(stalest) = stalest.filter(|&i| self.entries[i] < incoming) {
                        self.entries[stalest] = incoming;
                        if stalest < slot {
                            self.entries[stalest..slot].rotate_left(1);
                        } else {
                            self.entries[slot..=stalest].rotate_right(1);
                        }
                    }
                }
            }
        }
        debug_assert!(
            record_bytes(self.record(keyword).len()) <= self.max_record_bytes,
            "keyword {keyword}'s record outgrew the cap"
        );
    }

    /// Appends every unexpired entry of `keyword`'s record to `out`, in
    /// `(file, provider)` order. The buffer is appended to, not cleared.
    pub fn lookup_into(&self, keyword: u32, now: SimTime, out: &mut Vec<(u32, ProviderEntry)>) {
        out.extend(
            self.entries[self.record(keyword)]
                .iter()
                .filter(|stored| stored.expires_at > now)
                .map(|&StoredEntry { key: (_, file, peer), loc_id, .. }| {
                    (file, ProviderEntry { provider: PeerId(peer), loc_id })
                }),
        );
    }

    /// Physically removes every entry expired at `now` (counting them);
    /// a record whose entries all expired is gone with them.
    pub fn expire(&mut self, now: SimTime) {
        let before = self.entries.len();
        self.entries.retain(|stored| stored.expires_at > now);
        self.expired_entries += (before - self.entries.len()) as u64;
    }

    /// Drops all records (volatile reset on rejoin). Lifetime counters are
    /// kept: they price the work already done.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of non-empty records held: the keyword runs of the entries.
    pub fn records(&self) -> usize {
        self.entries.chunk_by(|a, b| a.key.0 == b.key.0).count()
    }

    /// Total entries across all records.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Total bytes across all records (key overhead + entries).
    pub fn bytes(&self) -> usize {
        self.records() * RECORD_KEY_BYTES + self.entries() * RECORD_ENTRY_BYTES
    }

    /// Lifetime count of entries evicted by the record cap.
    pub fn truncated_entries(&self) -> u64 {
        self.truncated_entries
    }

    /// Lifetime count of entries removed by TTL expiry sweeps.
    pub fn expired_entries(&self) -> u64 {
        self.expired_entries
    }
}

/// A peer's complete DHT-side state: its routing table, which holds the
/// node's id, and its record store.
#[derive(Debug, Clone)]
pub struct DhtNode {
    /// The k-bucket routing table.
    pub table: RoutingTable,
    /// The keyword→providers records this node stores.
    pub store: DhtRecordStore,
}

impl DhtNode {
    /// Creates a node with an empty table and store.
    pub fn new(id: DhtId, k: usize, max_record_bytes: usize) -> Self {
        DhtNode {
            table: RoutingTable::new(id, k),
            store: DhtRecordStore::new(max_record_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_sim::Duration;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One stored `(file, provider)` entry's payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct StoredProvider {
        loc_id: LocId,
        expires_at: SimTime,
    }

    /// The nested-map layout [`DhtRecordStore`] replaced, kept as its model:
    /// one `BTreeMap` record per keyword, each `(file, provider) → payload`,
    /// truncation by a full min-scan of the record.
    #[derive(Debug, Default)]
    struct NaiveRecordStore {
        max_record_bytes: usize,
        records: BTreeMap<u32, BTreeMap<(u32, u32), StoredProvider>>,
        truncated_entries: u64,
        expired_entries: u64,
    }

    impl NaiveRecordStore {
        fn new(max_record_bytes: usize) -> Self {
            NaiveRecordStore { max_record_bytes, ..Default::default() }
        }

        fn record_bytes(record: &BTreeMap<(u32, u32), StoredProvider>) -> usize {
            RECORD_KEY_BYTES + record.len() * RECORD_ENTRY_BYTES
        }

        fn insert(&mut self, keyword: u32, file: u32, provider: ProviderEntry, expires_at: SimTime) {
            let record = self.records.entry(keyword).or_default();
            let incoming = StoredProvider { loc_id: provider.loc_id, expires_at };
            let slot = record.entry((file, provider.provider.0)).or_insert(incoming);
            if (slot.expires_at, slot.loc_id.value()) < (expires_at, provider.loc_id.value()) {
                *slot = incoming;
            }
            while Self::record_bytes(record) > self.max_record_bytes {
                let stalest = record.iter().map(|(&key, stored)| (stored.expires_at, key)).min();
                let Some((_, stalest)) = stalest else { break };
                record.remove(&stalest);
                self.truncated_entries += 1;
            }
        }

        fn lookup_into(&self, keyword: u32, now: SimTime, out: &mut Vec<(u32, ProviderEntry)>) {
            if let Some(record) = self.records.get(&keyword) {
                out.extend(record.iter().filter(|(_, stored)| stored.expires_at > now).map(
                    |(&(file, provider), stored)| {
                        (file, ProviderEntry { provider: PeerId(provider), loc_id: stored.loc_id })
                    },
                ));
            }
        }

        fn expire(&mut self, now: SimTime) {
            let mut removed = 0u64;
            self.records.retain(|_, record| {
                let before = record.len();
                record.retain(|_, stored| stored.expires_at > now);
                removed += (before - record.len()) as u64;
                !record.is_empty()
            });
            self.expired_entries += removed;
        }

        fn clear(&mut self) {
            self.records.clear();
        }

        fn entries(&self) -> usize {
            self.records.values().map(BTreeMap::len).sum()
        }

        fn bytes(&self) -> usize {
            self.records.values().map(Self::record_bytes).sum()
        }
    }

    proptest! {
        /// Random upserts (refreshes of live keys and ties on expiry among
        /// them: 4 keywords × 6 files × 4 providers, expiries in 0–24 s),
        /// expiry sweeps and clears at caps of 1–6 entries: after every
        /// operation the flat store and the nested-map model agree on every
        /// keyword's lookup (at the operation's time and at zero), on
        /// `records`, `entries` and `bytes`, and on both lifetime counters.
        #[test]
        fn record_store_matches_the_nested_map_model(
            capacity_entries in 1usize..7,
            ops in proptest::collection::vec((0u32..24, 0u32..24, 0u32..16, 0u64..25), 1..200),
        ) {
            let cap = RECORD_KEY_BYTES + capacity_entries * RECORD_ENTRY_BYTES;
            let mut store = DhtRecordStore::new(cap);
            let mut model = NaiveRecordStore::new(cap);
            for (kind, keyword_file, provider_loc, secs) in ops {
                let (keyword, file) = (keyword_file / 6, keyword_file % 6);
                let provider = entry(provider_loc / 4, provider_loc % 4);
                match kind {
                    0..=19 => {
                        store.insert(keyword, file, provider, t(secs));
                        model.insert(keyword, file, provider, t(secs));
                    }
                    20..=22 => {
                        store.expire(t(secs));
                        model.expire(t(secs));
                    }
                    _ => {
                        store.clear();
                        model.clear();
                    }
                }
                for now in [t(secs), SimTime::ZERO] {
                    for keyword in 0..5 {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        store.lookup_into(keyword, now, &mut got);
                        model.lookup_into(keyword, now, &mut want);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(store.records(), model.records.len());
                prop_assert_eq!(store.entries(), model.entries());
                prop_assert_eq!(store.bytes(), model.bytes());
                prop_assert_eq!(store.truncated_entries(), model.truncated_entries);
                prop_assert_eq!(store.expired_entries(), model.expired_entries);
            }
        }
    }

    fn id(value: u64) -> DhtId {
        DhtId::derive(0xD417, value)
    }

    fn entry(provider: u32, loc: u32) -> ProviderEntry {
        ProviderEntry {
            provider: PeerId(provider),
            loc_id: LocId(loc),
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    #[test]
    fn derivation_is_deterministic_and_salted() {
        assert_eq!(DhtId::derive(1, 2), DhtId::derive(1, 2));
        assert_ne!(DhtId::derive(1, 2), DhtId::derive(1, 3));
        assert_ne!(DhtId::derive(1, 2), DhtId::derive(2, 2));
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let (a, b) = (id(1), id(2));
        assert_eq!(a.distance(b), b.distance(a));
        assert!(a.distance(a).is_zero());
        assert_eq!(a.distance(a).bucket_index(), None);
    }

    #[test]
    fn bucket_index_is_the_highest_set_bit() {
        let mut d = [0u8; DHT_ID_BYTES];
        d[DHT_ID_BYTES - 1] = 1;
        assert_eq!(DhtDistance(d).bucket_index(), Some(0));
        d[DHT_ID_BYTES - 1] = 0b1000_0000;
        assert_eq!(DhtDistance(d).bucket_index(), Some(7));
        d[0] = 0b1000_0000;
        assert_eq!(DhtDistance(d).bucket_index(), Some(159));
    }

    #[test]
    fn routing_table_rejects_self_duplicates_and_overflow() {
        let local = id(0);
        let mut table = RoutingTable::new(local, 2);
        assert!(!table.insert(local, PeerId(0)), "self is never a contact");
        assert!(table.insert(id(1), PeerId(1)));
        assert!(!table.insert(id(1), PeerId(1)), "duplicate peer");
        assert_eq!(table.len(), 1);
        // Fill one specific bucket of a fresh table to capacity.
        let mut table = RoutingTable::new(local, 2);
        let mut raw = local.0;
        raw[0] ^= 0x80; // far half of the key space → bucket 159
        let far_bucket = local.distance(DhtId(raw)).bucket_index().unwrap();
        assert_eq!(far_bucket, DHT_ID_BITS - 1);
        let mut inserted = 0;
        for v in 0..100u8 {
            let mut far = raw;
            far[DHT_ID_BYTES - 1] = v;
            if table.insert(DhtId(far), PeerId(1000 + u32::from(v))) {
                inserted += 1;
            }
        }
        assert_eq!(inserted, 2, "bucket capacity k=2 must bound the bucket");
        assert_eq!(table.bucket_len(far_bucket), 2);
    }

    #[test]
    fn sparse_buckets_report_zero_when_untouched_and_drop_when_emptied() {
        let mut table = RoutingTable::new(id(0), 4);
        for index in 0..DHT_ID_BITS {
            assert_eq!(table.bucket_len(index), 0);
        }
        table.insert(id(1), PeerId(1));
        let occupied = id(0).distance(id(1)).bucket_index().unwrap();
        assert_eq!(table.bucket_len(occupied), 1);
        assert!(table.remove(PeerId(1)));
        // The emptied bucket leaves the sparse spine but still reports 0.
        assert_eq!(table.bucket_len(occupied), 0);
        assert!(table.is_empty());
    }

    #[test]
    fn routing_table_remove_and_clear() {
        let mut table = RoutingTable::new(id(0), 4);
        for v in 1..6u64 {
            table.insert(id(v), PeerId(v as u32));
        }
        let len = table.len();
        assert!(table.contains(PeerId(3)));
        assert!(table.remove(PeerId(3)));
        assert!(!table.remove(PeerId(3)));
        assert_eq!(table.len(), len - 1);
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    fn closest_agrees_with_exhaustive_sort() {
        let local = id(99);
        let mut table = RoutingTable::new(local, 8);
        let contacts: Vec<(DhtId, PeerId)> =
            (0..40u64).map(|v| (id(v), PeerId(v as u32))).collect();
        for &(cid, peer) in &contacts {
            table.insert(cid, peer);
        }
        // Far and near keys, a contact's own id and the local id itself.
        let targets = [id(7777), id(7778), id(123_456), id(3), local];
        for target in targets {
            let mut ranked: Vec<(DhtDistance, PeerId)> = contacts
                .iter()
                .filter(|&&(_, p)| table.contains(p))
                .map(|&(cid, p)| (target.distance(cid), p))
                .collect();
            ranked.sort_unstable();
            for count in [0, 1, 5, table.k(), table.len(), table.len() + 7] {
                let expected: Vec<PeerId> = ranked.iter().take(count).map(|&(_, p)| p).collect();
                assert_eq!(table.closest(target, count), expected, "count {count}");
                // `closest_into` appends after what the buffer already holds.
                let mut out = vec![PeerId(u32::MAX)];
                table.closest_into(target, count, &mut out);
                assert_eq!(out[0], PeerId(u32::MAX));
                assert_eq!(out[1..], expected[..]);
            }
        }
    }

    #[test]
    fn store_upsert_keeps_the_freshest_entry() {
        let mut store = DhtRecordStore::new(2048);
        store.insert(7, 3, entry(5, 1), t(100));
        store.insert(7, 3, entry(5, 2), t(200));
        store.insert(7, 3, entry(5, 9), t(150)); // staler: ignored
        let mut out = Vec::new();
        store.lookup_into(7, t(0), &mut out);
        assert_eq!(out, vec![(3, entry(5, 2))]);
        assert_eq!(store.entries(), 1);
    }

    #[test]
    fn lookup_filters_expired_entries() {
        let mut store = DhtRecordStore::new(2048);
        store.insert(7, 1, entry(1, 0), t(100));
        store.insert(7, 2, entry(2, 0), t(300));
        let mut out = Vec::new();
        store.lookup_into(7, t(200), &mut out);
        assert_eq!(out, vec![(2, entry(2, 0))]);
        // The stale entry is still physically present until a sweep.
        assert_eq!(store.entries(), 2);
        store.expire(t(200));
        assert_eq!(store.entries(), 1);
        assert_eq!(store.expired_entries(), 1);
    }

    #[test]
    fn record_cap_truncates_the_stalest_entries() {
        // Cap sized for exactly 3 entries.
        let cap = RECORD_KEY_BYTES + 3 * RECORD_ENTRY_BYTES;
        let mut store = DhtRecordStore::new(cap);
        store.insert(1, 10, entry(1, 0), t(500));
        store.insert(1, 11, entry(2, 0), t(100)); // stalest — must go
        store.insert(1, 12, entry(3, 0), t(400));
        store.insert(1, 13, entry(4, 0), t(300));
        let mut out = Vec::new();
        store.lookup_into(1, t(0), &mut out);
        let files: Vec<u32> = out.iter().map(|&(f, _)| f).collect();
        assert_eq!(files, vec![10, 12, 13]);
        assert_eq!(store.truncated_entries(), 1);
        assert_eq!(store.bytes(), cap);
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cap = RECORD_KEY_BYTES + RECORD_ENTRY_BYTES;
        let mut store = DhtRecordStore::new(cap);
        store.insert(1, 10, entry(1, 0), t(100));
        store.insert(1, 11, entry(2, 0), t(200));
        assert_eq!(store.truncated_entries(), 1);
        store.clear();
        assert_eq!(store.records(), 0);
        assert_eq!(store.truncated_entries(), 1);
    }
}
