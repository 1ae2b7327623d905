//! Results of one simulation run.

use locaware_metrics::{CounterSet, RunMetrics, Table};

use crate::config::ProtocolKind;

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

/// Everything measured during one run of one protocol.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The protocol evaluated.
    pub protocol: ProtocolKind,
    /// Number of queries issued.
    pub queries_issued: u64,
    /// Per-query records and their aggregations (Figures 2–4 read from here).
    pub metrics: RunMetrics,
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
    /// A cheap, stable FNV-1a digest over the run's observable outcome: the
    /// headline totals plus every per-query record field. Two runs with equal
    /// fingerprints went through the same observable history; bench binaries
    /// (`shard_scaling`, `workload_regimes`) and the churn tests use it to
    /// assert bit-identity of repeats and shard counts without hauling whole
    /// reports around.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut mix = |value: u64| {
            hash ^= value;
            hash = hash.wrapping_mul(0x100000001b3);
        };
        mix(self.queries_issued);
        mix(self.dispatched_events);
        mix(self.background_messages);
        mix(self.total_file_replicas as u64);
        mix(self.total_cached_index_entries as u64);
        mix(self.simulated_end_time_secs.to_bits());
        for record in self.metrics.records() {
            mix(record.index);
            mix(u64::from(record.requestor));
            mix(u64::from(record.is_success()));
            mix(record.messages);
            mix(record.download_distance_ms.map_or(1, f64::to_bits));
            mix(u64::from(record.locality_match));
            mix(record.providers_offered as u64);
            mix(u64::from(record.hops_to_hit.unwrap_or(u32::MAX)));
            mix(u64::from(record.answered_from_cache));
            mix(record.completion_time_ms.map_or(1, f64::to_bits));
        }
        // DHT fields mix only when present, so the unstructured protocols'
        // pinned fingerprints are untouched by the subsystem's existence.
        if let Some(dht) = &self.dht {
            mix(dht.lookups);
            mix(dht.lookup_depth_total);
            mix(dht.store_messages);
            mix(dht.records as u64);
            mix(dht.provider_entries as u64);
            mix(dht.record_bytes as u64);
            mix(dht.truncated_entries);
            mix(dht.expired_entries);
        }
        // Fault fields likewise mix only when a fault axis is armed.
        if let Some(faults) = &self.faults {
            mix(faults.messages_lost);
            mix(faults.dht_stores_lost);
            mix(faults.query_timeouts);
            mix(faults.query_retransmits);
            mix(faults.dht_step_timeouts);
            mix(faults.crash_departures);
        }
        hash
    }

    /// Figure 4 metric: fraction of satisfied queries.
    pub fn success_rate(&self) -> f64 {
        self.metrics.success_rate()
    }

    /// Figure 3 metric: average messages per query.
    pub fn avg_messages_per_query(&self) -> f64 {
        self.metrics.avg_messages_per_query()
    }

    /// Figure 2 metric: average download distance (ms) over satisfied queries.
    pub fn avg_download_distance_ms(&self) -> f64 {
        self.metrics.avg_download_distance_ms()
    }

    /// Fraction of satisfied queries served by a provider in the requestor's
    /// locality.
    pub fn locality_match_rate(&self) -> f64 {
        self.metrics.locality_match_rate()
    }

    /// Fraction of satisfied queries answered from a response index.
    pub fn cache_hit_share(&self) -> f64 {
        self.metrics.cache_hit_share()
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
    use locaware_metrics::{QueryOutcome, QueryRecord};

    fn report() -> SimulationReport {
        let mut metrics = RunMetrics::new();
        metrics.push(QueryRecord {
            index: 0,
            requestor: 1,
            outcome: QueryOutcome::Satisfied,
            messages: 10,
            download_distance_ms: Some(120.0),
            locality_match: true,
            providers_offered: 3,
            hops_to_hit: Some(2),
            answered_from_cache: true,
            completion_time_ms: Some(310.0),
        });
        metrics.push(QueryRecord {
            index: 1,
            requestor: 2,
            outcome: QueryOutcome::Unsatisfied,
            messages: 14,
            download_distance_ms: None,
            locality_match: false,
            providers_offered: 0,
            hops_to_hit: None,
            answered_from_cache: false,
            completion_time_ms: Some(480.0),
        });
        SimulationReport {
            protocol: ProtocolKind::Locaware,
            queries_issued: 2,
            metrics,
            message_counters: CounterSet::new(),
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
    fn convenience_accessors_delegate_to_metrics() {
        let r = report();
        assert!((r.success_rate() - 0.5).abs() < 1e-12);
        assert!((r.avg_messages_per_query() - 12.0).abs() < 1e-12);
        assert!((r.avg_download_distance_ms() - 120.0).abs() < 1e-12);
        assert!((r.locality_match_rate() - 1.0).abs() < 1e-12);
        assert!((r.cache_hit_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_table_contains_the_headline_numbers() {
        let rendered = report().summary_table().render();
        assert!(rendered.contains("locaware"));
        assert!(rendered.contains("0.5000"));
        assert!(rendered.contains("12.00"));
        assert!(rendered.contains("120.00"));
    }
}
