//! Building and running simulations.
//!
//! [`Simulation`] prepares the *substrate* once — physical topology, landmark
//! locIds, overlay graph, catalog, initial file placement, group ids and the
//! query arrival schedule — and then runs any number of protocols over that
//! identical substrate. Keeping the substrate fixed across protocols is what
//! makes the curves of Figures 2–4 comparable: every protocol sees the same
//! peers, the same files, the same queries at the same times.

use locaware_net::{
    BriteConfig, BriteGenerator, LandmarkSet, LinkLatencyCache, LocId, PhysicalTopology,
};
use locaware_overlay::churn::{self, ChurnEvent};
use locaware_overlay::{GeneratorConfig, OverlayGraph};
use locaware_sim::{Duration, RngFactory, SimTime, StreamId};
use locaware_workload::{
    Arrival, ArrivalProcess, Catalog, CatalogConfig, FileId, InitialPlacement, PlacementConfig,
};

use crate::config::{ConfigError, ProtocolKind, SimulationConfig, HORIZON_LIMIT};
use crate::experiment::Scenario;
use crate::group::{GroupId, GroupScheme};
use crate::results::{RunProfile, SimulationReport};

/// A prepared simulation substrate, ready to run protocols.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimulationConfig,
    rng_factory: RngFactory,
    topology: PhysicalTopology,
    landmarks: LandmarkSet,
    loc_ids: Vec<LocId>,
    graph: OverlayGraph,
    catalog: Catalog,
    initial_shares: Vec<Vec<FileId>>,
    gids: Vec<GroupId>,
    /// The query arrival process.
    arrivals: ArrivalProcess,
    /// Latency of every overlay link, computed once here and reused by every
    /// protocol run over this substrate (message deliveries dominate the
    /// engine's latency lookups and travel along overlay links).
    link_latencies: LinkLatencyCache,
    /// Only under weighted-cluster workloads: `origin_order[slot]` maps a
    /// workload cluster slot onto the peer with locality rank `slot` (the
    /// engine's own [`crate::engine::locality_rank_order`], so "the hot
    /// cluster" is a physically co-located region aligned with the shard
    /// partition, not an arbitrary id range).
    origin_order: Option<Vec<u32>>,
}

impl Simulation {
    /// Builds the substrate described by `config`, validating it first.
    ///
    /// This is the fallible entry point underneath the experiment layer:
    /// [`Scenario::substrate`] calls it with an already-validated
    /// configuration, and [`crate::experiment::Runner`] calls it exactly once
    /// per grid substrate.
    pub fn try_build(config: SimulationConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self::build_validated(config))
    }

    /// Builds the substrate of `scenario` (already validated by construction).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        Self::build_validated(scenario.config().clone())
    }

    /// The actual builder; `config` must already have passed validation.
    fn build_validated(config: SimulationConfig) -> Self {
        let rng_factory = RngFactory::new(config.seed);

        let topology = BriteGenerator::new(BriteConfig {
            nodes: config.peers,
            placement: config.placement,
            min_latency_ms: config.min_latency_ms,
            max_latency_ms: config.max_latency_ms,
            jitter_fraction: 0.05,
        })
        .generate(&mut rng_factory.stream(StreamId::PhysicalTopology));

        let landmarks = LandmarkSet::spread(config.landmarks);
        let loc_ids = landmarks.assign_all(&topology);

        let graph = GeneratorConfig {
            peers: config.peers,
            average_degree: config.average_degree,
            model: config.graph_model,
        }
        .generate(&mut rng_factory.stream(StreamId::OverlayGraph));

        let catalog = Catalog::generate(
            CatalogConfig {
                files: config.file_pool,
                keywords: config.keyword_pool,
                keywords_per_file: config.keywords_per_file,
            },
            &mut rng_factory.stream(StreamId::Catalog),
        );

        let placement = InitialPlacement::generate(
            PlacementConfig {
                peers: config.peers,
                files_per_peer: config.files_per_peer,
                file_pool: config.file_pool,
                cluster_weights: config.cluster_weights.clone(),
            },
            &mut rng_factory.stream(StreamId::FilePlacement),
        );
        let origin_order = config
            .cluster_weights
            .as_ref()
            .map(|_| crate::engine::locality_rank_order(&loc_ids));
        let initial_shares: Vec<Vec<FileId>> = match &origin_order {
            // Uniform workload: slot s *is* peer s, exactly the legacy path.
            None => (0..config.peers)
                .map(|p| placement.files_of(p).to_vec())
                .collect(),
            // Weighted clusters: slot s (a contiguous-cluster position) lands
            // on the peer with locality rank s, so weighted mass concentrates
            // in physical regions.
            Some(order) => {
                let mut shares = vec![Vec::new(); config.peers];
                for (slot, &peer) in order.iter().enumerate() {
                    shares[peer as usize] = placement.files_of(slot).to_vec();
                }
                shares
            }
        };

        let gids = GroupScheme::new(config.group_count)
            .assign_all(config.peers, &mut rng_factory.stream(StreamId::GroupAssignment));

        let link_latencies = LinkLatencyCache::build(&topology, graph.edges());
        let arrivals = ArrivalProcess::new(config.arrival_config());

        Simulation {
            config,
            rng_factory,
            topology,
            landmarks,
            loc_ids,
            graph,
            catalog,
            initial_shares,
            gids,
            arrivals,
            link_latencies,
            origin_order,
        }
    }

    /// The configuration this substrate was built from.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The physical topology.
    pub fn topology(&self) -> &PhysicalTopology {
        &self.topology
    }

    /// The landmark set.
    pub fn landmarks(&self) -> &LandmarkSet {
        &self.landmarks
    }

    /// Each peer's location id.
    pub fn loc_ids(&self) -> &[LocId] {
        &self.loc_ids
    }

    /// The overlay graph.
    pub fn overlay(&self) -> &OverlayGraph {
        &self.graph
    }

    /// The file catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Each peer's group id.
    pub fn group_ids(&self) -> &[GroupId] {
        &self.gids
    }

    /// Each peer's initially shared files.
    pub fn initial_shares(&self) -> &[Vec<FileId>] {
        &self.initial_shares
    }

    /// The per-link latency cache shared by every run over this substrate.
    pub fn link_latencies(&self) -> &LinkLatencyCache {
        &self.link_latencies
    }

    /// The seeded stream factory every run over this substrate derives its
    /// randomness from.
    pub(crate) fn rng_factory(&self) -> &RngFactory {
        &self.rng_factory
    }

    /// Generates the arrival schedule for `num_queries` queries. Every protocol
    /// run with the same substrate and query count sees the same schedule.
    /// Arrivals come from the `StreamId::Arrivals` stream, thinned/time-scaled
    /// by [`SimulationConfig::arrival_schedule`] ([`ArrivalSchedule::Steady`]
    /// reproduces legacy runs bit-for-bit); under weighted clusters, each
    /// sampled cluster slot is mapped onto the peer of that locality rank.
    ///
    ///
    /// # Panics
    /// Panics, naming the rate and `num_queries`, when the last arrival falls
    /// past the arrivals' half of the clock (`HORIZON_LIMIT`): a query
    /// count `validate` never sees that the rate cannot fit.
    ///
    /// [`ArrivalSchedule::Steady`]: locaware_workload::ArrivalSchedule::Steady
    pub fn arrivals(&self, num_queries: usize) -> Vec<Arrival> {
        let mut arrivals = (self.arrivals)
            .generate_count(num_queries, &mut self.rng_factory.stream(StreamId::Arrivals));
        let fits = arrivals.last().is_none_or(|last| last.at <= SimTime::ZERO + HORIZON_LIMIT);
        assert!(
            fits,
            "{num_queries} queries at {} queries/s per peer do not fit the simulation clock",
            self.config.query_rate_per_peer
        );
        if let Some(order) = &self.origin_order {
            for arrival in &mut arrivals {
                arrival.peer = order[arrival.peer] as usize;
            }
        }
        arrivals
    }

    /// Generates the churn schedule over the run's span (empty when churn is
    /// disabled, which is the paper's setup).
    ///
    /// The horizon covers both the last *arrival* and the arrival schedule's
    /// intrinsic span: under a burst the final query can land long before the
    /// schedule ends, and churn must keep churning through the rest of it. With no arrivals and
    /// a steady schedule the horizon stays `SimTime::ZERO` (no churn).
    pub fn churn_schedule(&self, arrivals: &[Arrival]) -> Vec<ChurnEvent> {
        if self.config.churn.is_disabled() {
            return Vec::new();
        }
        let last_arrival = arrivals.last().map(|a| a.at).unwrap_or(SimTime::ZERO);
        let schedule_span = self
            .config
            .arrival_schedule
            .span_secs()
            .map(|secs| SimTime::ZERO + Duration::from_secs_f64(secs))
            .unwrap_or(SimTime::ZERO);
        let horizon = last_arrival.max(schedule_span);
        churn::schedule(
            &self.config.churn,
            self.config.peers,
            horizon,
            &mut self.rng_factory.stream(StreamId::Churn),
        )
    }

    /// Runs `protocol` over this substrate with `num_queries` queries.
    pub fn run(&self, protocol: ProtocolKind, num_queries: usize) -> SimulationReport {
        self.run_profiled(protocol, num_queries).0
    }

    /// [`Simulation::run`], also returning how the run was scheduled.
    pub fn run_profiled(
        &self,
        protocol: ProtocolKind,
        num_queries: usize,
    ) -> (SimulationReport, RunProfile) {
        let arrivals = self.arrivals(num_queries);
        let churn = self.churn_schedule(&arrivals);
        crate::engine::run(self, protocol, arrivals, &churn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sim() -> Simulation {
        let mut config = SimulationConfig::small(60);
        config.seed = 7;
        Simulation::try_build(config).expect("small config validates")
    }

    #[test]
    fn substrate_dimensions_match_the_config() {
        let sim = small_sim();
        assert_eq!(sim.topology().len(), 60);
        assert_eq!(sim.loc_ids().len(), 60);
        assert_eq!(sim.overlay().len(), 60);
        assert!(sim.overlay().is_connected());
        assert_eq!(sim.catalog().len(), sim.config().file_pool);
        assert_eq!(sim.group_ids().len(), 60);
        assert_eq!(sim.initial_shares().len(), 60);
        for shares in sim.initial_shares() {
            assert_eq!(shares.len(), sim.config().files_per_peer);
        }
    }

    #[test]
    fn substrate_is_deterministic_for_a_seed() {
        let a = small_sim();
        let b = small_sim();
        assert_eq!(a.loc_ids(), b.loc_ids());
        assert_eq!(a.group_ids(), b.group_ids());
        assert_eq!(a.initial_shares(), b.initial_shares());
        let arr_a = a.arrivals(50);
        let arr_b = b.arrivals(50);
        assert_eq!(arr_a, arr_b);
    }

    #[test]
    fn runs_produce_one_record_per_query() {
        let sim = small_sim();
        let report = sim.run(ProtocolKind::Flooding, 40);
        assert_eq!(report.queries_issued, 40);
        assert_eq!(report.metrics.len(), 40);
        assert!(report.dispatched_events > 0);
    }

    #[test]
    fn identical_runs_are_bit_for_bit_reproducible() {
        let sim = small_sim();
        let a = sim.run(ProtocolKind::Locaware, 30);
        let b = sim.run(ProtocolKind::Locaware, 30);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.success_rate(), b.success_rate());
        assert_eq!(a.avg_messages_per_query(), b.avg_messages_per_query());
    }

    #[test]
    fn flooding_produces_more_traffic_than_locaware() {
        let sim = small_sim();
        let flooding = sim.run(ProtocolKind::Flooding, 60);
        let locaware = sim.run(ProtocolKind::Locaware, 60);
        assert!(
            flooding.avg_messages_per_query() > locaware.avg_messages_per_query(),
            "flooding {} vs locaware {}",
            flooding.avg_messages_per_query(),
            locaware.avg_messages_per_query()
        );
    }

    #[test]
    fn churn_schedule_is_empty_when_disabled() {
        let sim = small_sim();
        let arrivals = sim.arrivals(10);
        assert!(sim.churn_schedule(&arrivals).is_empty());
    }

    /// A rate this sparse validates, but 20 of its arrivals run past the
    /// clock: `arrivals` refuses them in every build, naming the rate and
    /// the count, instead of wrapping (release) or overflowing (debug).
    #[test]
    #[should_panic(expected = "20 queries at 0.000000000000001 queries/s per peer do not fit the simulation clock")]
    fn arrivals_past_the_clock_panic_naming_rate_and_count() {
        let config = SimulationConfig { query_rate_per_peer: 1e-15, ..SimulationConfig::small(40) };
        let sim = Simulation::try_build(config).unwrap();
        sim.arrivals(20);
    }

    /// At 1e-12 queries/s per peer the 20th arrival lands near 5.8·10¹¹ s,
    /// inside the clock: the arrivals are time-sorted and a run reports.
    #[test]
    fn sparse_arrivals_inside_the_clock_stay_sorted_and_run() {
        let config = SimulationConfig { query_rate_per_peer: 1e-12, ..SimulationConfig::small(40) };
        let sim = Simulation::try_build(config).unwrap();
        let arrivals = sim.arrivals(20);
        assert!(arrivals.windows(2).all(|pair| pair[0].at <= pair[1].at));
        assert!(arrivals[19].at.as_secs_f64() > 1e11, "{:?}", arrivals[19].at);
        assert_eq!(sim.run(ProtocolKind::Flooding, 20).metrics.len(), 20);
    }

    #[test]
    fn invalid_configs_are_rejected_by_try_build() {
        let mut config = SimulationConfig::small(10);
        config.ttl = 0;
        let error = Simulation::try_build(config).unwrap_err();
        assert!(matches!(error, ConfigError::OutOfRange { knob: "ttl", .. }), "{error:?}");
    }

    #[test]
    fn link_latency_cache_covers_the_overlay_and_agrees_with_the_topology() {
        let sim = small_sim();
        assert_eq!(
            sim.link_latencies().len(),
            2 * sim.overlay().edge_count(),
            "every overlay link must be cached (in both directions)"
        );
        for (a, b) in sim.overlay().edges().take(50) {
            assert_eq!(
                sim.link_latencies().latency(sim.topology(), a, b),
                sim.topology().latency(a, b),
                "cached latency must equal the direct computation"
            );
        }
    }

    #[test]
    fn scenario_and_try_build_produce_the_same_substrate() {
        let scenario = Scenario::small(60).with_seed(7);
        let from_scenario = Simulation::from_scenario(&scenario);
        let direct = small_sim();
        assert_eq!(from_scenario.loc_ids(), direct.loc_ids());
        assert_eq!(from_scenario.initial_shares(), direct.initial_shares());
        assert_eq!(from_scenario.group_ids(), direct.group_ids());
    }
}
