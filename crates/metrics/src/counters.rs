//! Generic named counters.
//!
//! The simulation counts messages by kind (query forwards, responses, Bloom
//! updates, …) and events by category. [`CounterSet`] is a small generic
//! counter map that stays deterministic in its reporting order (keys are sorted
//! on export) and cheap to merge across repetitions.

use std::collections::BTreeMap;
use std::fmt::Debug;

/// A set of named `u64` counters keyed by an ordered key type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet<K: Ord> {
    counts: BTreeMap<K, u64>,
}

impl<K: Ord> Default for CounterSet<K> {
    fn default() -> Self {
        CounterSet {
            counts: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone + Debug> CounterSet<K> {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the counter for `key`.
    pub fn add(&mut self, key: K, amount: u64) {
        *self.counts.entry(key).or_insert(0) += amount;
    }

    /// Increments the counter for `key` by one.
    pub fn increment(&mut self, key: K) {
        self.add(key, 1);
    }

    /// The current value for `key` (0 if never touched).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterator over `(key, count)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CounterSet<K>) {
        for (k, v) in other.iter() {
            self.add(k.clone(), v);
        }
    }

    /// Resets every counter.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut c: CounterSet<&'static str> = CounterSet::new();
        assert!(c.is_empty());
        c.increment("query");
        c.increment("query");
        c.add("response", 5);
        assert_eq!(c.get(&"query"), 2);
        assert_eq!(c.get(&"response"), 5);
        assert_eq!(c.get(&"never"), 0);
        assert_eq!(c.total(), 7);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut c: CounterSet<String> = CounterSet::new();
        c.increment("zeta".to_string());
        c.increment("alpha".to_string());
        c.increment("mid".to_string());
        let keys: Vec<&String> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: CounterSet<u32> = CounterSet::new();
        a.add(1, 10);
        a.add(2, 1);
        let mut b: CounterSet<u32> = CounterSet::new();
        b.add(1, 5);
        b.add(3, 7);
        a.merge(&b);
        assert_eq!(a.get(&1), 15);
        assert_eq!(a.get(&2), 1);
        assert_eq!(a.get(&3), 7);
        assert_eq!(a.total(), 23);
    }

    #[test]
    fn clear_resets() {
        let mut c: CounterSet<u8> = CounterSet::new();
        c.increment(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
    }
}
