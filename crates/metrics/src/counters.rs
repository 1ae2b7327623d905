//! Generic named counters.
//!
//! The simulation counts messages by kind (query forwards, responses, Bloom
//! updates, …) and events by category. [`CounterSet`] is a small generic
//! counter map that stays deterministic in its reporting order (keys are sorted
//! on export).

use std::collections::BTreeMap;

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

impl<K: Ord> CounterSet<K> {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the counter for `key`.
    pub fn add(&mut self, key: K, amount: u64) {
        *self.counts.entry(key).or_insert(0) += amount;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut c: CounterSet<&'static str> = CounterSet::new();
        assert!(c.is_empty());
        c.add("query", 1);
        c.add("query", 1);
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
        c.add("zeta".to_string(), 1);
        c.add("alpha".to_string(), 1);
        c.add("mid".to_string(), 1);
        let keys: Vec<&String> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }
}
