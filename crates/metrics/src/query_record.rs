//! Per-query measurement records and their aggregation over a run.

/// How a query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// At least one response reached the requestor (the file was located).
    Satisfied,
    /// No response reached the requestor before the run ended.
    Unsatisfied,
}

/// Everything measured about one issued query.
///
/// Durations are stored as milliseconds so this crate stays independent of the
/// simulation-time type; the engine converts when it records.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Ordinal of the query within the run (0-based issue order).
    pub index: u64,
    /// The issuing peer.
    pub requestor: u32,
    /// Whether the query was satisfied.
    pub outcome: QueryOutcome,
    /// Total number of overlay messages this query caused (forwarded query
    /// copies plus response hops) — the paper's "search traffic" unit.
    pub messages: u64,
    /// One-way latency in milliseconds from the requestor to the provider it
    /// selected for download (the paper's "download distance"), if satisfied.
    pub download_distance_ms: Option<f64>,
    /// True if the selected provider shares the requestor's locId.
    pub locality_match: bool,
    /// Number of distinct providers offered to the requestor across responses.
    pub providers_offered: usize,
    /// Overlay hops from the requestor to the peer that produced the first hit.
    pub hops_to_hit: Option<u32>,
    /// True if the first hit came from a response index (cache) rather than a
    /// peer's own file store.
    pub answered_from_cache: bool,
    /// Milliseconds from issue until the query's *last* in-flight message was
    /// consumed — the exact end of its lifecycle, not an upper bound. The
    /// engine always fills it (every run drains); it stays an `Option` because
    /// the report's canonical encoding carries its tag byte, which every
    /// golden fingerprint covers.
    pub completion_time_ms: Option<f64>,
}

impl QueryRecord {
    /// True if the query was satisfied.
    pub fn is_success(&self) -> bool {
        self.outcome == QueryOutcome::Satisfied
    }
}

/// Aggregated metrics over a run (or a prefix of one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    records: Vec<QueryRecord>,
}

impl RunMetrics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one record.
    pub fn push(&mut self, record: QueryRecord) {
        self.records.push(record);
    }

    /// All records, in issue order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of queries recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no queries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Figure 4 metric: satisfied queries / all queries, in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.is_success()).count() as f64 / self.records.len() as f64
    }

    /// Figure 3 metric: average number of messages per query.
    pub fn avg_messages_per_query(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.messages as f64).sum::<f64>() / self.records.len() as f64
    }

    /// Figure 2 metric: average download distance in milliseconds over
    /// *satisfied* queries (unsatisfied queries download nothing).
    pub fn avg_download_distance_ms(&self) -> f64 {
        let distances: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.download_distance_ms)
            .collect();
        crate::aggregate::mean(&distances)
    }

    /// Fraction of satisfied queries whose chosen provider shares the
    /// requestor's locId.
    pub fn locality_match_rate(&self) -> f64 {
        let satisfied: Vec<&QueryRecord> =
            self.records.iter().filter(|r| r.is_success()).collect();
        if satisfied.is_empty() {
            return 0.0;
        }
        satisfied.iter().filter(|r| r.locality_match).count() as f64 / satisfied.len() as f64
    }

    /// Fraction of satisfied queries answered from a response index rather than
    /// a file store.
    pub fn cache_hit_share(&self) -> f64 {
        let satisfied: Vec<&QueryRecord> =
            self.records.iter().filter(|r| r.is_success()).collect();
        if satisfied.is_empty() {
            return 0.0;
        }
        satisfied.iter().filter(|r| r.answered_from_cache).count() as f64 / satisfied.len() as f64
    }

    /// Metrics restricted to the first `n` queries (used to trace how metrics
    /// evolve "with the number of queries", the x-axis of every figure).
    pub fn prefix(&self, n: usize) -> RunMetrics {
        RunMetrics {
            records: self.records.iter().take(n).cloned().collect(),
        }
    }

    /// Metrics over the trailing window of `n` queries (used for the
    /// "improvement over time" analysis of Figure 2).
    pub fn tail_window(&self, n: usize) -> RunMetrics {
        let start = self.records.len().saturating_sub(n);
        RunMetrics {
            records: self.records[start..].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64, success: bool, messages: u64, dist: Option<f64>) -> QueryRecord {
        QueryRecord {
            index,
            requestor: 0,
            outcome: if success {
                QueryOutcome::Satisfied
            } else {
                QueryOutcome::Unsatisfied
            },
            messages,
            download_distance_ms: dist,
            locality_match: dist.map(|d| d < 100.0).unwrap_or(false),
            providers_offered: if success { 2 } else { 0 },
            hops_to_hit: if success { Some(3) } else { None },
            answered_from_cache: success && index.is_multiple_of(2),
            completion_time_ms: Some(40.0 + index as f64),
        }
    }

    fn metrics(records: impl IntoIterator<Item = QueryRecord>) -> RunMetrics {
        let mut m = RunMetrics::new();
        records.into_iter().for_each(|r| m.push(r));
        m
    }

    #[test]
    fn success_rate_counts_satisfied_fraction() {
        let m = metrics([
            record(0, true, 10, Some(50.0)),
            record(1, false, 20, None),
            record(2, true, 10, Some(150.0)),
            record(3, true, 10, Some(250.0)),
        ]);
        assert!((m.success_rate() - 0.75).abs() < 1e-12);
        assert!((m.avg_messages_per_query() - 12.5).abs() < 1e-12);
        assert!((m.avg_download_distance_ms() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::new();
        assert_eq!(m.success_rate(), 0.0);
        assert_eq!(m.avg_messages_per_query(), 0.0);
        assert_eq!(m.avg_download_distance_ms(), 0.0);
        assert_eq!(m.locality_match_rate(), 0.0);
        assert_eq!(m.cache_hit_share(), 0.0);
        assert!(m.is_empty());
    }

    #[test]
    fn download_distance_ignores_unsatisfied_queries() {
        let m = metrics([
            record(0, true, 5, Some(100.0)),
            record(1, false, 50, None),
        ]);
        assert_eq!(m.avg_download_distance_ms(), 100.0);
    }

    #[test]
    fn locality_and_cache_rates_are_over_satisfied_queries_only() {
        let m = metrics([
            record(0, true, 5, Some(50.0)),   // locality match, cache (idx 0 even)
            record(1, true, 5, Some(400.0)),  // no locality match, no cache
            record(2, false, 5, None),
        ]);
        assert!((m.locality_match_rate() - 0.5).abs() < 1e-12);
        assert!((m.cache_hit_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_and_tail_windows() {
        let m = metrics((0..10).map(|i| record(i, i >= 5, 1, None)));
        assert_eq!(m.prefix(5).success_rate(), 0.0);
        assert_eq!(m.tail_window(5).success_rate(), 1.0);
        assert_eq!(m.prefix(100).len(), 10);
        assert_eq!(m.tail_window(100).len(), 10);
    }
}
