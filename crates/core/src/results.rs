//! Results of one simulation run: one [`QueryRecord`] per issued query, the
//! five aggregations Figures 2–4 and the diagnostics read from them, and the
//! [`SimulationReport`] that carries both.

use std::collections::BTreeMap;

use locaware_metrics::{mean, Table};

use crate::config::ProtocolKind;

/// How a query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// At least one response reached the requestor (the file was located).
    Satisfied,
    /// No response reached the requestor before the run ended.
    Unsatisfied,
}

/// Everything measured about one issued query. The origin's tracking entry
/// owns it while the query lives and fills it in place; the run's report
/// holds them in issue order, so a record's position is its query's ordinal.
///
/// Durations are in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
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
    /// consumed — the exact end of its lifecycle, not an upper bound. `None`
    /// while the query lives; every run drains, so every reported record has
    /// it. It stays an `Option` because the report's canonical encoding
    /// carries its tag byte, which every golden fingerprint covers.
    pub completion_time_ms: Option<f64>,
}

impl QueryRecord {
    /// True if the query was satisfied.
    pub fn is_success(&self) -> bool {
        self.outcome == QueryOutcome::Satisfied
    }
}

/// Figure 4 metric: satisfied queries / all queries, in `[0, 1]` (0.0 for
/// no records).
pub fn success_rate(records: &[QueryRecord]) -> f64 {
    share(records.iter(), QueryRecord::is_success)
}

/// Figure 3 metric: average number of messages per query.
pub fn avg_messages_per_query(records: &[QueryRecord]) -> f64 {
    mean(&records.iter().map(|r| r.messages as f64).collect::<Vec<_>>())
}

/// Figure 2 metric: average download distance in milliseconds over
/// *satisfied* queries (unsatisfied queries download nothing).
pub fn avg_download_distance_ms(records: &[QueryRecord]) -> f64 {
    mean(&records.iter().filter_map(|r| r.download_distance_ms).collect::<Vec<_>>())
}

/// Fraction of satisfied queries whose chosen provider shares the
/// requestor's locId.
pub fn locality_match_rate(records: &[QueryRecord]) -> f64 {
    share(records.iter().filter(|r| r.is_success()), |r| r.locality_match)
}

/// Fraction of satisfied queries answered from a response index rather than
/// a file store.
pub fn cache_hit_share(records: &[QueryRecord]) -> f64 {
    share(records.iter().filter(|r| r.is_success()), |r| r.answered_from_cache)
}

/// The fraction of `records` that `holds`; 0.0 for none.
fn share<'a>(
    records: impl Iterator<Item = &'a QueryRecord>,
    holds: impl Fn(&QueryRecord) -> bool,
) -> f64 {
    let (mut total, mut hits) = (0usize, 0usize);
    for record in records {
        total += 1;
        hits += usize::from(holds(record));
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Named `u64` counters, reported in key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet<K: Ord> {
    counts: BTreeMap<K, u64>,
}

impl<K: Ord> Default for CounterSet<K> {
    fn default() -> Self {
        CounterSet { counts: BTreeMap::new() }
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

    /// Iterator over `(key, count)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &v)| (k, v))
    }
}

/// End-of-run statistics of the DHT subsystem (structured protocols only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhtRunStats {
    /// Queries that resolved through the DHT (for the hybrid, only the
    /// tail-rank share of the workload).
    pub lookups: u64,
    /// Sum over those queries of the deepest lookup hop whose reply reached
    /// the origin; divide by `lookups` for the mean — the `O(log n)` number.
    pub lookup_depth_total: u64,
    /// Store transfers sent over the wire (publishes and republish rounds),
    /// the subsystem's maintenance-traffic price.
    pub store_messages: u64,
    /// Keyword records held across all stores at the end of the run.
    pub records: usize,
    /// Provider entries across all records at the end of the run.
    pub provider_entries: usize,
    /// Serialized bytes across all stores at the end of the run.
    pub record_bytes: usize,
    /// Lifetime count of entries evicted by the per-record byte cap.
    pub truncated_entries: u64,
    /// Lifetime count of entries dropped by TTL expiry sweeps.
    pub expired_entries: u64,
}

impl DhtRunStats {
    /// Mean lookup depth over DHT-resolved queries (0.0 if there were none).
    pub fn mean_lookup_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.lookup_depth_total as f64 / self.lookups as f64
        }
    }
}

/// End-of-run statistics of the fault plan (runs with any fault axis armed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRunStats {
    /// Messages dropped at send time by the loss coin or an outage window.
    pub messages_lost: u64,
    /// DHT store transfers among the lost — index maintenance the next
    /// republish round has to repair.
    pub dht_stores_lost: u64,
    /// Query retransmit deadlines that fired with the query still unanswered
    /// (including the final, retries-exhausted one).
    pub query_timeouts: u64,
    /// Query re-floods actually issued (bounded by the policy's max retries).
    pub query_retransmits: u64,
    /// DHT lookup step deadlines that released a stalled in-flight slot.
    pub dht_step_timeouts: u64,
    /// Churn departures executed as crash-stops (no goodbyes to neighbours,
    /// routing tables or indexes).
    pub crash_departures: u64,
}

/// How one run was scheduled: its windows, its critical path, and what its
/// event queues, route tables and storage signatures did. Never part of the
/// report — every field but `parallel_windows` is a deterministic function
/// of configuration, seed and shard count, and `parallel_windows` counts the
/// windows this host's executor fanned out over scoped threads. Its
/// `Display` is the one `shard-stats: …` line `locaware-bench inspect`
/// prints on stderr.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunProfile {
    /// Shards the run used (after the clamp and the zero-lookahead fallback).
    pub shards: usize,
    /// Per-shard incoming-channel lookahead in microseconds; 0 is unbounded.
    pub lookahead_us: Vec<u64>,
    /// Windows drained.
    pub windows: u64,
    /// Windows in which two or more shards had work.
    pub engaged_windows: u64,
    /// Windows drained on scoped threads.
    pub parallel_windows: u64,
    /// Windows shortened by a lifecycle cap.
    pub capped_windows: u64,
    /// Events dispatched, controls included (the report's `dispatched_events`).
    pub events: u64,
    /// Events on the critical path: per window its busiest shard, plus every
    /// control — what an ideal machine with one core per shard could not go
    /// below.
    pub critical_path_events: u64,
    /// Event-queue pushes taken by the calendar ring, summed over shards.
    pub queue_ring: u64,
    /// Event-queue pushes taken by the fallback heap, summed over shards.
    pub queue_fallback: u64,
    /// The deepest any one shard's event queue got.
    pub queue_peak: u64,
    /// The most per-query route tables any one shard held at once.
    pub routes_peak: usize,
    /// Route tables still held at the end (always 0: every run drains).
    pub routes_live: usize,
    /// First sightings whose storage signature let the shared-file walk run.
    pub storage_walks: u64,
    /// First sightings whose storage signature skipped the walk.
    pub storage_skips: u64,
}

impl std::fmt::Display for RunProfile {
    /// The one line, with `ideal_speedup = events / critical_path_events`:
    /// how much an ideal machine with one core per shard could compress the
    /// run.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lookahead: Vec<String> = self.lookahead_us.iter().map(u64::to_string).collect();
        let ideal_speedup = self.events as f64 / self.critical_path_events.max(1) as f64;
        write!(
            f,
            "shard-stats: shards={} lookahead_us={} windows={} engaged_windows={} \
             parallel_windows={} capped_windows={} events={} critical_path_events={} \
             ideal_speedup={:.2} queue_ring={} queue_fallback={} queue_peak={} \
             routes_peak={} routes_live={} storage_walks={} storage_skips={}",
            self.shards,
            lookahead.join(","),
            self.windows,
            self.engaged_windows,
            self.parallel_windows,
            self.capped_windows,
            self.events,
            self.critical_path_events,
            ideal_speedup,
            self.queue_ring,
            self.queue_fallback,
            self.queue_peak,
            self.routes_peak,
            self.routes_live,
            self.storage_walks,
            self.storage_skips,
        )
    }
}

/// Everything measured during one run of one protocol.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The protocol evaluated.
    pub protocol: ProtocolKind,
    /// Number of queries issued.
    pub queries_issued: u64,
    /// One record per issued query, in issue order (Figures 2–4 aggregate
    /// them; slice it for a window of the run).
    pub metrics: Vec<QueryRecord>,
    /// Message counts by kind (query, query-response, bloom-delta, …).
    pub message_counters: CounterSet<String>,
    /// Routing-decision counts (flood, bloom-match, gid-match, high-degree).
    pub routing_decisions: CounterSet<String>,
    /// Messages not attributable to a query (Bloom synchronisation traffic).
    pub background_messages: u64,
    /// Total (peer, file) replicas at the end of the run — shows natural
    /// replication at work.
    pub total_file_replicas: usize,
    /// Total response-index entries across all peers at the end of the run.
    pub total_cached_index_entries: usize,
    /// Simulated time at which the run finished, in seconds.
    pub simulated_end_time_secs: f64,
    /// Number of simulation events dispatched.
    pub dispatched_events: u64,
    /// DHT subsystem statistics — `Some` exactly for structured protocols
    /// (`dht-index`, `hybrid`), `None` for the unstructured six, whose
    /// reports are byte-for-byte unchanged by the subsystem's existence.
    pub dht: Option<DhtRunStats>,
    /// Fault-plan statistics — `Some` exactly when the run's configuration
    /// armed any fault axis, `None` otherwise, so fault-free reports (and
    /// their pinned fingerprints) are byte-for-byte unchanged by the fault
    /// subsystem's existence.
    pub faults: Option<FaultRunStats>,
}

impl SimulationReport {
    /// The canonical byte encoding of the report: every field, floats as
    /// their IEEE-754 bit patterns, so equality of encodings is exact
    /// bit-for-bit equality of reports and a mismatch cannot hide behind
    /// display rounding. This is the one encoding the determinism suite
    /// compares and [`SimulationReport::fingerprint`] digests.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn push_optional<const N: usize>(bytes: &mut Vec<u8>, value: Option<[u8; N]>) {
            match value {
                Some(encoded) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&encoded);
                }
                None => bytes.push(0),
            }
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(self.protocol.label().as_bytes());
        bytes.extend_from_slice(&self.queries_issued.to_le_bytes());
        for (index, record) in self.metrics.iter().enumerate() {
            bytes.extend_from_slice(&(index as u64).to_le_bytes());
            bytes.extend_from_slice(&record.requestor.to_le_bytes());
            bytes.push(record.is_success() as u8);
            bytes.extend_from_slice(&record.messages.to_le_bytes());
            let distance = record.download_distance_ms.map(|d| d.to_bits().to_le_bytes());
            push_optional(&mut bytes, distance);
            bytes.push(record.locality_match as u8);
            bytes.extend_from_slice(&(record.providers_offered as u64).to_le_bytes());
            push_optional(&mut bytes, record.hops_to_hit.map(u32::to_le_bytes));
            bytes.push(record.answered_from_cache as u8);
            let completion = record.completion_time_ms.map(|t| t.to_bits().to_le_bytes());
            push_optional(&mut bytes, completion);
        }
        for counters in [&self.message_counters, &self.routing_decisions] {
            for (key, count) in counters.iter() {
                bytes.extend_from_slice(key.as_bytes());
                bytes.extend_from_slice(&count.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&self.background_messages.to_le_bytes());
        bytes.extend_from_slice(&(self.total_file_replicas as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.total_cached_index_entries as u64).to_le_bytes());
        bytes.extend_from_slice(&self.simulated_end_time_secs.to_bits().to_le_bytes());
        bytes.extend_from_slice(&self.dispatched_events.to_le_bytes());
        // DHT statistics participate only when present — absent runs append
        // *nothing*, so the unstructured protocols' encodings (and their
        // pinned fingerprints) are byte-for-byte what they were before the
        // subsystem existed. No ambiguity: the protocol label at the head of
        // the encoding already determines whether the block follows.
        if let Some(dht) = &self.dht {
            bytes.push(1);
            for value in [
                dht.lookups,
                dht.lookup_depth_total,
                dht.store_messages,
                dht.records as u64,
                dht.provider_entries as u64,
                dht.record_bytes as u64,
                dht.truncated_entries,
                dht.expired_entries,
            ] {
                bytes.extend_from_slice(&value.to_le_bytes());
            }
        }
        // Fault statistics likewise participate only when a fault axis is
        // armed, so fault-free encodings stay byte-for-byte what they were
        // before the fault subsystem existed.
        if let Some(faults) = &self.faults {
            bytes.push(2);
            for value in [
                faults.messages_lost,
                faults.dht_stores_lost,
                faults.query_timeouts,
                faults.query_retransmits,
                faults.dht_step_timeouts,
                faults.crash_departures,
            ] {
                bytes.extend_from_slice(&value.to_le_bytes());
            }
        }
        bytes
    }

    /// FNV-1a over [`SimulationReport::canonical_bytes`]: a compact pin for
    /// "this exact run". Two runs with equal fingerprints produced the same
    /// report, so repeats and shard counts can be checked for bit-identity
    /// without hauling whole reports around; the golden constants in
    /// `tests/determinism.rs` pin it across refactors.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.canonical_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Figure 4 metric: fraction of satisfied queries.
    pub fn success_rate(&self) -> f64 {
        success_rate(&self.metrics)
    }

    /// Figure 3 metric: average messages per query.
    pub fn avg_messages_per_query(&self) -> f64 {
        avg_messages_per_query(&self.metrics)
    }

    /// Every message the run sent — search, Bloom synchronisation and DHT
    /// maintenance — per issued query (0.0 for none): what the protocol
    /// costs the network, beside Figure 3's search-only count.
    pub fn total_messages_per_query(&self) -> f64 {
        if self.queries_issued == 0 {
            return 0.0;
        }
        self.message_counters.total() as f64 / self.queries_issued as f64
    }

    /// Figure 2 metric: average download distance (ms) over satisfied queries.
    pub fn avg_download_distance_ms(&self) -> f64 {
        avg_download_distance_ms(&self.metrics)
    }

    /// Fraction of satisfied queries served by a provider in the requestor's
    /// locality.
    pub fn locality_match_rate(&self) -> f64 {
        locality_match_rate(&self.metrics)
    }

    /// Fraction of satisfied queries answered from a response index.
    pub fn cache_hit_share(&self) -> f64 {
        cache_hit_share(&self.metrics)
    }

    /// A one-row-per-metric summary table for reports and examples.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(["metric", "value"]);
        table.push_row(["protocol".to_string(), self.protocol.label().to_string()]);
        table.push_row(["queries issued".to_string(), self.queries_issued.to_string()]);
        table.push_row([
            "success rate".to_string(),
            format!("{:.4}", self.success_rate()),
        ]);
        table.push_row([
            "avg messages / query".to_string(),
            format!("{:.2}", self.avg_messages_per_query()),
        ]);
        table.push_row([
            "total messages / query".to_string(),
            format!("{:.2}", self.total_messages_per_query()),
        ]);
        table.push_row([
            "avg download distance (ms)".to_string(),
            format!("{:.2}", self.avg_download_distance_ms()),
        ]);
        table.push_row([
            "locality match rate".to_string(),
            format!("{:.4}", self.locality_match_rate()),
        ]);
        table.push_row([
            "cache hit share".to_string(),
            format!("{:.4}", self.cache_hit_share()),
        ]);
        table.push_row([
            "background messages".to_string(),
            self.background_messages.to_string(),
        ]);
        table.push_row([
            "file replicas at end".to_string(),
            self.total_file_replicas.to_string(),
        ]);
        table.push_row([
            "cached index entries at end".to_string(),
            self.total_cached_index_entries.to_string(),
        ]);
        if let Some(dht) = &self.dht {
            table.push_row(["dht lookups".to_string(), dht.lookups.to_string()]);
            table.push_row([
                "dht mean lookup hops".to_string(),
                format!("{:.2}", dht.mean_lookup_hops()),
            ]);
            table.push_row([
                "dht store messages".to_string(),
                dht.store_messages.to_string(),
            ]);
            table.push_row([
                "dht records at end".to_string(),
                format!("{} ({} entries)", dht.records, dht.provider_entries),
            ]);
            table.push_row([
                "dht index bytes at end".to_string(),
                dht.record_bytes.to_string(),
            ]);
            table.push_row([
                "dht truncated / expired entries".to_string(),
                format!("{} / {}", dht.truncated_entries, dht.expired_entries),
            ]);
        }
        if let Some(faults) = &self.faults {
            table.push_row(["messages lost".to_string(), faults.messages_lost.to_string()]);
            table.push_row([
                "dht stores lost".to_string(),
                faults.dht_stores_lost.to_string(),
            ]);
            table.push_row([
                "query timeouts / retransmits".to_string(),
                format!("{} / {}", faults.query_timeouts, faults.query_retransmits),
            ]);
            table.push_row([
                "dht step timeouts".to_string(),
                faults.dht_step_timeouts.to_string(),
            ]);
            table.push_row([
                "crash departures".to_string(),
                faults.crash_departures.to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose locality match and cache answer are set by `dist`
    /// under 100 ms and by an even `index`.
    fn record(index: u64, success: bool, messages: u64, dist: Option<f64>) -> QueryRecord {
        QueryRecord {
            requestor: 0,
            outcome: if success { QueryOutcome::Satisfied } else { QueryOutcome::Unsatisfied },
            messages,
            download_distance_ms: dist,
            locality_match: dist.is_some_and(|d| d < 100.0),
            providers_offered: if success { 2 } else { 0 },
            hops_to_hit: success.then_some(3),
            answered_from_cache: success && index.is_multiple_of(2),
            completion_time_ms: Some(40.0 + index as f64),
        }
    }

    fn report() -> SimulationReport {
        let metrics = vec![
            QueryRecord {
                requestor: 1,
                outcome: QueryOutcome::Satisfied,
                messages: 10,
                download_distance_ms: Some(120.0),
                locality_match: true,
                providers_offered: 3,
                hops_to_hit: Some(2),
                answered_from_cache: true,
                completion_time_ms: Some(310.0),
            },
            QueryRecord {
                requestor: 2,
                outcome: QueryOutcome::Unsatisfied,
                messages: 14,
                download_distance_ms: None,
                locality_match: false,
                providers_offered: 0,
                hops_to_hit: None,
                answered_from_cache: false,
                completion_time_ms: Some(480.0),
            },
        ];
        let mut message_counters = CounterSet::new();
        message_counters.add("query".to_string(), 24);
        message_counters.add("bloom-delta".to_string(), 5);
        SimulationReport {
            protocol: ProtocolKind::Locaware,
            queries_issued: 2,
            metrics,
            message_counters,
            routing_decisions: CounterSet::new(),
            background_messages: 5,
            total_file_replicas: 3001,
            total_cached_index_entries: 40,
            simulated_end_time_secs: 100.0,
            dispatched_events: 123,
            dht: None,
            faults: None,
        }
    }

    #[test]
    fn success_rate_counts_satisfied_fraction() {
        let records = [
            record(0, true, 10, Some(50.0)),
            record(1, false, 20, None),
            record(2, true, 10, Some(150.0)),
            record(3, true, 10, Some(250.0)),
        ];
        assert!((success_rate(&records) - 0.75).abs() < 1e-12);
        assert!((avg_messages_per_query(&records) - 12.5).abs() < 1e-12);
        assert!((avg_download_distance_ms(&records) - 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        assert_eq!(success_rate(&[]), 0.0);
        assert_eq!(avg_messages_per_query(&[]), 0.0);
        assert_eq!(avg_download_distance_ms(&[]), 0.0);
        assert_eq!(locality_match_rate(&[]), 0.0);
        assert_eq!(cache_hit_share(&[]), 0.0);
        let idle = SimulationReport { queries_issued: 0, ..report() };
        assert_eq!(idle.total_messages_per_query(), 0.0);
    }

    #[test]
    fn download_distance_ignores_unsatisfied_queries() {
        let records = [record(0, true, 5, Some(100.0)), record(1, false, 50, None)];
        assert_eq!(avg_download_distance_ms(&records), 100.0);
    }

    #[test]
    fn locality_and_cache_rates_are_over_satisfied_queries_only() {
        let records = [
            record(0, true, 5, Some(50.0)),  // locality match, cache (index 0 even)
            record(1, true, 5, Some(400.0)), // no locality match, no cache
            record(2, false, 5, None),
        ];
        assert!((locality_match_rate(&records) - 0.5).abs() < 1e-12);
        assert!((cache_hit_share(&records) - 0.5).abs() < 1e-12);
    }

    /// A window of the run is a slice of its records.
    #[test]
    fn prefix_and_tail_windows() {
        let records: Vec<QueryRecord> = (0..10).map(|i| record(i, i >= 5, 1, None)).collect();
        assert_eq!(success_rate(&records[..5]), 0.0);
        assert_eq!(success_rate(&records[5..]), 1.0);
    }

    #[test]
    fn counting_and_totals() {
        let mut c: CounterSet<&'static str> = CounterSet::new();
        assert_eq!(c.iter().count(), 0);
        c.add("query", 1);
        c.add("query", 1);
        c.add("response", 5);
        assert_eq!(c.get(&"query"), 2);
        assert_eq!(c.get(&"response"), 5);
        assert_eq!(c.get(&"never"), 0);
        assert_eq!(c.total(), 7);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut c: CounterSet<String> = CounterSet::new();
        for key in ["zeta", "alpha", "mid"] {
            c.add(key.to_string(), 1);
        }
        let keys: Vec<&String> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn convenience_accessors_delegate_to_metrics() {
        let r = report();
        assert!((r.success_rate() - 0.5).abs() < 1e-12);
        assert!((r.avg_messages_per_query() - 12.0).abs() < 1e-12);
        assert!((r.avg_download_distance_ms() - 120.0).abs() < 1e-12);
        assert!((r.locality_match_rate() - 1.0).abs() < 1e-12);
        assert!((r.cache_hit_share() - 1.0).abs() < 1e-12);
        assert!((r.total_messages_per_query() - 14.5).abs() < 1e-12);
    }

    #[test]
    fn summary_table_contains_the_headline_numbers() {
        let rendered = report().summary_table().render();
        assert!(rendered.contains("locaware"));
        assert!(rendered.contains("0.5000"));
        assert!(rendered.contains("12.00"));
        assert!(rendered.contains("120.00"));
        let total = rendered.lines().find(|l| l.starts_with("total messages / query"));
        assert!(total.is_some_and(|l| l.ends_with(" 14.50")), "{rendered}");
    }

    /// The fingerprint digests the whole canonical encoding, so it sees the
    /// fields that live outside the per-query records too.
    #[test]
    fn fingerprint_sees_the_counters_and_the_protocol() {
        let base = report();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let mut bumped = base.clone();
        bumped.message_counters.add("query".to_string(), 1);
        assert_ne!(bumped.canonical_bytes(), base.canonical_bytes());
        assert_ne!(bumped.fingerprint(), base.fingerprint());
        let relabelled = SimulationReport { protocol: ProtocolKind::Flooding, ..base.clone() };
        assert_ne!(relabelled.fingerprint(), base.fingerprint());
    }
}
