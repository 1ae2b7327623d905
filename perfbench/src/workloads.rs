//! The six benchmark workloads.
//!
//! Each row names a scenario preset, a population, a protocol, a query count
//! and a shard count; together they decide which layers do the work and
//! which are bypassed (see `README.md` for the full map). The table is the
//! only place a workload is defined: the driver-facing `BENCHMARK.json`
//! repeats the names and the one-line reasons, and a unit test keeps the two
//! in step.

use locaware::{ProtocolKind, Scenario, SimulationReport};

/// One benchmark workload: a validated scenario plus how to run it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name the driver passes as `--workload`.
    pub name: &'static str,
    /// The `Scenario::preset` the substrate comes from.
    pub preset: &'static str,
    /// Population at full size.
    pub peers: usize,
    /// The protocol every run drives.
    pub protocol: ProtocolKind,
    /// Queries per run at full size.
    pub queries: usize,
    /// Engine shards, always set explicitly so an ambient `LOCAWARE_SHARDS`
    /// cannot leak into a measurement.
    pub shards: usize,
    /// A workload whose runs must produce the identical report (the same
    /// events through a different executor); the fingerprints are compared.
    pub same_events_as: Option<&'static str>,
    /// Why the workload exists: what it exercises and what it bypasses.
    pub why: &'static str,
}

/// Every workload, in the order they are run and reported.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cache-warm-1k",
        preset: "paper-defaults",
        peers: 1000,
        protocol: ProtocolKind::Locaware,
        queries: 8000,
        shards: 1,
        same_events_as: None,
        why: "The paper's own regime: Bloom-match routing, response-index hits and locality-aware provider selection do the work; queue pressure is low.",
    },
    Workload {
        name: "cache-cold-10k",
        preset: "large-10k",
        peers: 10_000,
        protocol: ProtocolKind::Locaware,
        queries: 2000,
        shards: 1,
        same_events_as: None,
        why: "The 10k scale tier: cold caches, gid-match routing, per-run peer-state set-up and a working set past the CPU cache; the workload where setup_s and peak_rss_mb carry weight.",
    },
    Workload {
        name: "cache-churn-1k",
        preset: "churn-storm",
        peers: 1000,
        protocol: ProtocolKind::Locaware,
        queries: 2000,
        shards: 1,
        same_events_as: None,
        why: "The index, Bloom and overlay layers used for writes: provider invalidation, evictions, counting-filter removals, Bloom deltas, copy-on-write overlay rows.",
    },
    Workload {
        name: "flood-burst-1k",
        preset: "flash-crowd",
        peers: 1000,
        protocol: ProtocolKind::Flooding,
        queries: 400,
        shards: 1,
        same_events_as: None,
        why: "About 1000 messages per query: event queue, duplicate suppression, link-latency lookups and tally do all the work; index and Bloom do none, so it bypasses every cache-side optimisation.",
    },
    Workload {
        name: "flood-burst-4shard",
        preset: "flash-crowd",
        peers: 1000,
        protocol: ProtocolKind::Flooding,
        queries: 400,
        shards: 4,
        same_events_as: Some("flood-burst-1k"),
        why: "The same events as flood-burst-1k pushed through windows, outboxes and barrier merges on the inline executor; the ratio of the two is the windowing overhead.",
    },
    Workload {
        name: "dht-faulty-1k",
        preset: "faulty-network",
        peers: 1000,
        protocol: ProtocolKind::DhtIndex,
        queries: 2000,
        shards: 1,
        same_events_as: None,
        why: "The structured family and the fault paths: k-bucket closest, record stores, loss, an outage window and DHT step timeouts; flooding, Bloom and the response index do nothing.",
    },
];

#[cfg(test)]
/// The population the unit tests and nothing else run: every workload scaled
/// down so its checks finish in milliseconds.
pub const MINIATURE_PEERS: usize = 60;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    #[cfg(test)]
    /// The same workload at [`MINIATURE_PEERS`] peers with the query count
    /// scaled by the same factor (at least 20, so every protocol still sees
    /// repeated keywords).
    pub fn miniature(&self) -> Workload {
        let queries = (self.queries * MINIATURE_PEERS / self.peers).max(20);
        // `paper-defaults` is the published 1000-peer setup by definition and
        // ignores the population; `small` is the same configuration scaled.
        let preset = if self.preset == "paper-defaults" {
            "small"
        } else {
            self.preset
        };
        Workload {
            preset,
            peers: MINIATURE_PEERS,
            queries,
            ..*self
        }
    }

    /// The validated scenario this workload runs under `seed`.
    pub fn scenario(&self, seed: u64) -> Result<Scenario, String> {
        let preset = Scenario::preset(self.preset, self.peers)
            .ok_or_else(|| format!("{}: unknown preset {}", self.name, self.preset))?;
        let mut config = preset.with_seed(seed).config().clone();
        config.shards = self.shards;
        Scenario::from_config(self.name, config).map_err(|e| format!("{}: {e}", self.name))
    }

    /// The scenario of the workload this one must replay event for event.
    pub fn reference_scenario(&self, seed: u64) -> Result<Option<Scenario>, String> {
        let Some(name) = self.same_events_as else {
            return Ok(None);
        };
        let reference = Workload::by_name(name)
            .ok_or_else(|| format!("{}: unknown reference workload {name}", self.name))?;
        // Same population as `self`, so a miniature compares with a miniature.
        let scaled = Workload {
            peers: self.peers,
            queries: self.queries,
            ..*reference
        };
        scaled.scenario(seed).map(Some)
    }

    /// What every run of this workload must satisfy besides matching the
    /// reference fingerprint: one record per issued query, and every
    /// requested query issued. Under churn (`arrivals_may_be_skipped`) an
    /// arrival at an offline peer is skipped by design, so only the upper
    /// limit holds there.
    pub fn check_report(
        &self,
        report: &SimulationReport,
        arrivals_may_be_skipped: bool,
    ) -> Result<(), String> {
        let requested = self.queries as u64;
        let issued = report.queries_issued;
        if issued > requested || (issued < requested && !arrivals_may_be_skipped) {
            return Err(format!(
                "{}: {issued} queries issued, {requested} requested",
                self.name
            ));
        }
        if report.metrics.len() as u64 != issued {
            return Err(format!(
                "{}: {} query records for {issued} queries issued",
                self.name,
                report.metrics.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_with_explicit_shards() {
        for workload in &WORKLOADS {
            let scenario = workload.scenario(42).unwrap();
            assert_eq!(scenario.config().shards, workload.shards);
            assert_eq!(scenario.config().peers, workload.peers);
            assert_eq!(scenario.seed(), 42);
            assert!(
                scenario.config().shards >= 1,
                "shards = 0 would read the environment"
            );
        }
    }

    #[test]
    fn reference_scenarios_differ_only_in_shards() {
        let sharded = Workload::by_name("flood-burst-4shard").unwrap();
        let reference = sharded.reference_scenario(7).unwrap().unwrap();
        let mut expected = sharded.scenario(7).unwrap().config().clone();
        expected.shards = 1;
        assert_eq!(reference.config(), &expected);
        assert!(WORKLOADS[0].reference_scenario(7).unwrap().is_none());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            assert!(
                crate::report::is_valid_name(workload.name),
                "{}",
                workload.name
            );
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|w| w.name != workload.name));
        }
    }
}
