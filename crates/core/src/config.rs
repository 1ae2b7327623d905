//! Simulation configuration.
//!
//! [`SimulationConfig`] gathers every parameter of the paper's experimental
//! methodology (§5.1) with the paper's values as defaults, so
//! `SimulationConfig::paper_defaults()` is exactly the published setup and the
//! experiment binaries only override the number of queries and the protocol
//! under test.

use locaware_net::brite::PlacementModel;
use locaware_overlay::{ChurnConfig, GraphModel};
use locaware_sim::{Duration, SimTime};
use locaware_workload::{
    ArrivalSchedule, ClusterWeights, FaultConfig, FaultConfigError, ScheduleError,
    TimeoutPolicyError,
};

/// A structured description of why a [`SimulationConfig`] is inconsistent.
///
/// Returned by [`SimulationConfig::validate`] and
/// [`crate::Simulation::try_build`], and surfaced by
/// [`crate::experiment::Scenario::from_config`]. Each variant carries the
/// offending values so callers can report or repair the configuration
/// programmatically instead of parsing an error string.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `peers == 0`.
    ZeroPeers,
    /// The average overlay degree is not in `(0, peers)`.
    DegreeOutOfRange {
        /// The configured average degree.
        average_degree: f64,
        /// The configured peer count.
        peers: usize,
    },
    /// `ttl == 0`: queries could never leave their origin.
    ZeroTtl,
    /// The latency range does not satisfy `0 < min <= max`.
    LatencyRange {
        /// Configured minimum one-way latency in milliseconds.
        min_ms: f64,
        /// Configured maximum one-way latency in milliseconds.
        max_ms: f64,
    },
    /// A clustered placement asks for zero clusters.
    ZeroClusters,
    /// A clustered placement's spread is negative or not finite, which would
    /// place peers at non-finite coordinates.
    PlacementSigmaOutOfRange {
        /// The configured standard deviation around a cluster centre.
        sigma: f64,
    },
    /// The landmark count is outside the supported `1..=8` range.
    LandmarksOutOfRange {
        /// The configured landmark count.
        landmarks: usize,
    },
    /// The file or keyword pool is empty.
    EmptyPools {
        /// Configured file pool size.
        file_pool: usize,
        /// Configured keyword pool size.
        keyword_pool: usize,
    },
    /// `keywords_per_file` is not in `1..=keyword_pool`.
    KeywordsPerFileOutOfRange {
        /// Configured keywords per filename.
        keywords_per_file: usize,
        /// Configured keyword pool size.
        keyword_pool: usize,
    },
    /// Peers are asked to share more distinct files than the pool contains.
    PlacementUnsatisfiable {
        /// Configured files initially shared per peer.
        files_per_peer: usize,
        /// Configured file pool size.
        file_pool: usize,
    },
    /// Query keyword bounds do not satisfy `1 <= min <= max <= keywords_per_file`.
    QueryKeywordBounds {
        /// Configured minimum query keywords.
        min: usize,
        /// Configured maximum query keywords.
        max: usize,
        /// Configured keywords per filename.
        keywords_per_file: usize,
    },
    /// The Zipf exponent of query popularity is negative or not finite.
    ZipfExponentOutOfRange {
        /// The configured exponent.
        exponent: f64,
    },
    /// The arrival configuration is degenerate: a rate that is not positive
    /// and finite, a bad burst window, or cluster weights this population
    /// cannot hold.
    ArrivalSchedule(ScheduleError),
    /// Under weighted-cluster placement, the heaviest cluster would ask a
    /// peer to share more distinct files than the pool contains.
    WeightedPlacementUnsatisfiable {
        /// The largest per-peer share count the weights produce.
        max_files_on_a_peer: usize,
        /// Configured file pool size.
        file_pool: usize,
    },
    /// The caching/routing group count `M` is zero.
    ZeroGroupCount,
    /// A cache capacity (response index, providers per file, providers per
    /// response) is zero.
    ZeroCacheCapacity,
    /// A Bloom filter parameter (bits or hash count) is zero.
    ZeroBloomParameters,
    /// The Bloom filter has more bits than a delta's 32-bit positions can
    /// name, so changed-bit updates would flip the wrong bits.
    BloomBitsOutOfRange {
        /// The configured filter size in bits.
        bits: usize,
    },
    /// The neighbour Bloom-filter synchronisation period is not finite or is
    /// under one tick of the microsecond simulation clock.
    NonPositiveBloomSyncPeriod {
        /// The configured period in simulated seconds.
        period_secs: f64,
    },
    /// A structural DHT parameter (replication factor `k`, lookup parallelism
    /// `alpha`, or the lookup hop budget) is zero.
    ZeroDhtParameters,
    /// The DHT record byte cap cannot hold even a single provider entry, so
    /// every store would truncate to nothing.
    DhtRecordBytesTooSmall {
        /// The configured per-record byte cap.
        max_record_bytes: usize,
        /// The smallest cap that holds one entry.
        minimum: usize,
    },
    /// A DHT period (record TTL or republish interval) is not finite or is
    /// under one tick of the microsecond simulation clock.
    NonPositiveDhtPeriod {
        /// The offending period in simulated seconds.
        period_secs: f64,
    },
    /// The hybrid protocol's head fraction is outside `[0, 1]`.
    DhtHeadFractionOutOfRange {
        /// The configured fraction.
        head_fraction: f64,
    },
    /// The churn model is unusable: the churning fraction is not finite or
    /// outside `[0, 1]`, or peers churn and a mean dwell is not positive and
    /// finite.
    ChurnOutOfRange {
        /// Configured mean online session in seconds.
        mean_session_secs: f64,
        /// Configured mean offline gap in seconds.
        mean_offline_secs: f64,
        /// Configured fraction of churning peers.
        churning_fraction: f64,
    },
    /// The fault plan is inconsistent (loss probability outside `[0, 1]`,
    /// degenerate outage window, negative or infinite step timeout).
    FaultConfig(FaultConfigError),
    /// The query retransmit policy is inconsistent (negative initial timeout,
    /// non-finite or sub-unit backoff).
    TimeoutPolicy(TimeoutPolicyError),
    /// The run horizon — the latest burst or outage end plus everything the
    /// engine can add to the clock after it: the control drain margin, the
    /// longest periodic round, the DHT record TTL and the worst-case query
    /// lifetime — does not fit half the microsecond simulation clock.
    HorizonBeyondClock {
        /// The horizon in simulated seconds.
        horizon_secs: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPeers => write!(f, "peers must be positive"),
            ConfigError::DegreeOutOfRange { average_degree, peers } => write!(
                f,
                "average degree must be in (0, peers): got {average_degree} with {peers} peers"
            ),
            ConfigError::ZeroTtl => write!(f, "ttl must be at least 1"),
            ConfigError::LatencyRange { min_ms, max_ms } => write!(
                f,
                "latency range must satisfy 0 < min <= max: got [{min_ms}, {max_ms}] ms"
            ),
            ConfigError::ZeroClusters => {
                write!(f, "clustered placement needs at least one cluster")
            }
            ConfigError::PlacementSigmaOutOfRange { sigma } => {
                write!(f, "cluster spread sigma must be finite and non-negative: got {sigma}")
            }
            ConfigError::LandmarksOutOfRange { landmarks } => {
                write!(f, "landmarks must be in 1..=8: got {landmarks}")
            }
            ConfigError::EmptyPools { file_pool, keyword_pool } => write!(
                f,
                "file and keyword pools must be non-empty: got {file_pool} files, {keyword_pool} keywords"
            ),
            ConfigError::KeywordsPerFileOutOfRange { keywords_per_file, keyword_pool } => write!(
                f,
                "keywords per file must be in 1..=keyword_pool: got {keywords_per_file} of {keyword_pool}"
            ),
            ConfigError::PlacementUnsatisfiable { files_per_peer, file_pool } => write!(
                f,
                "files per peer cannot exceed the file pool: got {files_per_peer} of {file_pool}"
            ),
            ConfigError::QueryKeywordBounds { min, max, keywords_per_file } => write!(
                f,
                "query keyword bounds must satisfy 1 <= min <= max <= keywords_per_file: \
                 got {min}..={max} with {keywords_per_file} keywords per file"
            ),
            ConfigError::ZipfExponentOutOfRange { exponent } => {
                write!(f, "Zipf exponent must be finite and non-negative: got {exponent}")
            }
            ConfigError::ArrivalSchedule(error) => write!(f, "arrival schedule: {error}"),
            ConfigError::WeightedPlacementUnsatisfiable { max_files_on_a_peer, file_pool } => {
                write!(
                    f,
                    "weighted placement asks one peer for {max_files_on_a_peer} distinct files \
                     of a {file_pool}-file pool"
                )
            }
            ConfigError::ZeroGroupCount => write!(f, "group count M must be positive"),
            ConfigError::ZeroCacheCapacity => write!(f, "cache capacities must be positive"),
            ConfigError::ZeroBloomParameters => {
                write!(f, "Bloom filter parameters must be positive")
            }
            ConfigError::BloomBitsOutOfRange { bits } => {
                write!(f, "Bloom filter bits must fit a 32-bit delta position: got {bits}")
            }
            ConfigError::NonPositiveBloomSyncPeriod { period_secs } => write!(
                f,
                "Bloom sync period must be finite and at least one microsecond: got {period_secs}s"
            ),
            ConfigError::ZeroDhtParameters => {
                write!(f, "DHT k, alpha and max lookup hops must be positive")
            }
            ConfigError::DhtRecordBytesTooSmall { max_record_bytes, minimum } => write!(
                f,
                "DHT record byte cap must hold at least one entry: got {max_record_bytes}, \
                 need at least {minimum}"
            ),
            ConfigError::NonPositiveDhtPeriod { period_secs } => write!(
                f,
                "DHT periods must be finite and at least one microsecond: got {period_secs}s"
            ),
            ConfigError::DhtHeadFractionOutOfRange { head_fraction } => write!(
                f,
                "hybrid head fraction must be in [0, 1]: got {head_fraction}"
            ),
            ConfigError::ChurnOutOfRange {
                mean_session_secs,
                mean_offline_secs,
                churning_fraction,
            } => write!(
                f,
                "churning fraction must be in [0, 1], and when positive both mean dwells \
                 positive and finite: got {churning_fraction} with {mean_session_secs}s \
                 sessions and {mean_offline_secs}s gaps"
            ),
            ConfigError::FaultConfig(error) => write!(f, "fault plan: {error}"),
            ConfigError::TimeoutPolicy(error) => write!(f, "timeout policy: {error}"),
            ConfigError::HorizonBeyondClock { horizon_secs } => write!(
                f,
                "run horizon {horizon_secs}s does not fit half the microsecond simulation clock"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which protocol a run evaluates (the four curves of Figures 2–4, plus
/// ablation variants of Locaware used by the ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Gnutella-style blind flooding, no index caching (baseline of Figure 3/4).
    Flooding,
    /// Dicas: group-based index caching and routing keyed on the full filename.
    Dicas,
    /// Dicas-Keys: the Dicas variant hashing query keywords instead of the
    /// filename (the paper's keyword-search comparator).
    DicasKeys,
    /// Locaware: location-aware index caching with Bloom-filter keyword routing
    /// (the paper's contribution).
    Locaware,
    /// Ablation: Locaware without location-aware provider selection (providers
    /// are chosen uniformly at random among those offered).
    LocawareNoLocality,
    /// Ablation: Locaware without Bloom-filter routing (falls back to Gid-based
    /// routing only, like Dicas-Keys, but keeps the richer response index).
    LocawareNoBloom,
    /// Structured baseline: a Kademlia-style keyword→providers DHT. Queries
    /// resolve by iterative XOR-metric lookup instead of overlay forwarding;
    /// file keywords are published on placement and download and republished
    /// on a TTL.
    DhtIndex,
    /// Hybrid: the paper's own Zipf head/tail split — popular (head) targets
    /// use Locaware's caching overlay, rare (tail) targets resolve through
    /// the DHT index.
    Hybrid,
}

impl ProtocolKind {
    /// The four protocols compared in the paper's figures, in the order the
    /// paper lists them.
    pub const PAPER_SET: [ProtocolKind; 4] = [
        ProtocolKind::Locaware,
        ProtocolKind::Flooding,
        ProtocolKind::Dicas,
        ProtocolKind::DicasKeys,
    ];

    /// Every implemented protocol, in a stable order: the single source of
    /// truth for tests, benches and examples that enumerate protocols, so a
    /// new kind is a one-line addition here rather than a hunt across the
    /// repository.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::Flooding,
        ProtocolKind::Dicas,
        ProtocolKind::DicasKeys,
        ProtocolKind::Locaware,
        ProtocolKind::LocawareNoLocality,
        ProtocolKind::LocawareNoBloom,
        ProtocolKind::DhtIndex,
        ProtocolKind::Hybrid,
    ];

    /// [`ProtocolKind::ALL`] as a slice (convenient for iteration).
    pub fn all() -> &'static [ProtocolKind] {
        &Self::ALL
    }

    /// Parses a [`ProtocolKind::label`] back into its kind.
    pub fn from_label(label: &str) -> Option<ProtocolKind> {
        Self::ALL.into_iter().find(|kind| kind.label() == label)
    }

    /// True for the structured protocols that run the DHT subsystem.
    pub fn uses_dht(self) -> bool {
        matches!(self, ProtocolKind::DhtIndex | ProtocolKind::Hybrid)
    }

    /// A short label used in figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Flooding => "flooding",
            ProtocolKind::Dicas => "dicas",
            ProtocolKind::DicasKeys => "dicas-keys",
            ProtocolKind::Locaware => "locaware",
            ProtocolKind::LocawareNoLocality => "locaware-no-locality",
            ProtocolKind::LocawareNoBloom => "locaware-no-bloom",
            ProtocolKind::DhtIndex => "dht-index",
            ProtocolKind::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of the Kademlia-style keyword-index DHT (the structured
/// protocols' subsystem). Defaults follow the original Kademlia paper where
/// it gives values (`alpha = 3`) and common deployments elsewhere, scaled to
/// the simulated population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhtConfig {
    /// Replication factor and bucket size `k`: each record lives on the `k`
    /// nodes closest to its key, and each routing-table bucket keeps up to
    /// `k` contacts. Kademlia deployments use 20 at million-node scale; 8 is
    /// proportionate for a 1000-peer population.
    pub k: usize,
    /// Lookup parallelism `alpha`: how many closest contacts an iterative
    /// lookup keeps in flight (Kademlia's tuned value is 3).
    pub alpha: usize,
    /// Byte cap per keyword record; stores beyond it deterministically evict
    /// the stalest provider entries (the paper's index-size pressure, moved
    /// into the DHT).
    pub max_record_bytes: usize,
    /// Lifetime of a stored provider entry in simulated seconds. Entries
    /// older than this are filtered from lookups and garbage-collected at
    /// republish rounds. Should exceed the republish period so live entries
    /// never lapse between rounds.
    pub record_ttl_secs: f64,
    /// Period of the publisher-driven republish process in simulated seconds
    /// (Kademlia republishes hourly; 900 s keeps a few rounds inside the
    /// default experiment horizon).
    pub republish_period_secs: f64,
    /// Upper bound on iterative lookup depth, in hops. A safety valve only:
    /// converged lookups terminate well below it (`O(log n)`).
    pub max_lookup_hops: u32,
    /// The hybrid protocol's head/tail split: targets in the most popular
    /// `head_fraction` of the catalog resolve through the Locaware caching
    /// overlay, the rest through the DHT. `0.0` makes hybrid pure DHT,
    /// `1.0` pure overlay.
    pub hybrid_head_fraction: f64,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            k: 8,
            alpha: 3,
            max_record_bytes: 2048,
            record_ttl_secs: 1800.0,
            republish_period_secs: 900.0,
            max_lookup_hops: 15,
            hybrid_head_fraction: 0.1,
        }
    }
}

/// Every knob of the simulated system, defaulting to the paper's §5.1 values.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Master seed from which every random stream is derived.
    pub seed: u64,

    // --- population & overlay -------------------------------------------------
    /// Number of peers (paper: 1000).
    pub peers: usize,
    /// Average overlay degree (paper: 3).
    pub average_degree: f64,
    /// Overlay wiring model (paper: random).
    pub graph_model: GraphModel,
    /// Query TTL (paper: 7).
    pub ttl: u32,

    // --- physical underlay -----------------------------------------------------
    /// Minimum one-way link latency in milliseconds (paper: 10).
    pub min_latency_ms: f64,
    /// Maximum one-way link latency in milliseconds (paper: 500).
    pub max_latency_ms: f64,
    /// Physical placement model (clustered placement gives the regional
    /// structure that makes landmark binning meaningful).
    pub placement: PlacementModel,
    /// Number of landmarks (paper: 4, giving 24 locIds).
    pub landmarks: usize,

    // --- content & workload ----------------------------------------------------
    /// Size of the file pool (paper: 3000).
    pub file_pool: usize,
    /// Size of the keyword pool (paper: 9000).
    pub keyword_pool: usize,
    /// Keywords per filename (paper: 3).
    pub keywords_per_file: usize,
    /// Files initially shared per peer (paper: 3).
    pub files_per_peer: usize,
    /// Zipf exponent of query popularity (paper: "Zipf distribution"; Gnutella
    /// traces suggest ≈1).
    pub zipf_exponent: f64,
    /// Minimum query keywords (paper: 1).
    pub min_query_keywords: usize,
    /// Maximum query keywords (paper: 3).
    pub max_query_keywords: usize,
    /// Base per-peer query rate in queries/second (paper: 0.00083).
    pub query_rate_per_peer: f64,
    /// Rate profile modulating the base rate over time (default:
    /// [`ArrivalSchedule::Steady`], the paper's homogeneous process — which
    /// reproduces legacy runs bit-for-bit).
    pub arrival_schedule: ArrivalSchedule,
    /// Optional weighted-cluster concentration of the workload: the same
    /// weights redistribute the initial share budget across contiguous
    /// locality-sorted peer clusters *and* bias query-origin attribution, so
    /// hotspot regimes concentrate storage and load on the same region.
    /// `None` is the paper's uniform workload, reproduced draw-for-draw.
    pub cluster_weights: Option<ClusterWeights>,

    // --- caching ---------------------------------------------------------------
    /// Group count `M` for the `hash(f) mod M` caching/routing rule. The paper
    /// inherits the parameter from Dicas without stating its evaluated value;
    /// 4 keeps roughly a quarter of the peers eligible per file, matching the
    /// Dicas paper's small-M regime.
    pub group_count: u32,
    /// Response-index capacity in distinct filenames (paper sizes the Bloom
    /// filter for 50).
    pub response_index_capacity: usize,
    /// Maximum provider entries kept per cached filename (Locaware caches
    /// "several indexes per file"; Dicas keeps 1 by construction).
    pub max_providers_per_file: usize,
    /// Maximum provider entries returned in one query response.
    pub max_providers_per_response: usize,

    // --- Bloom filters ---------------------------------------------------------
    /// Bloom filter size in bits (paper: 1200).
    pub bloom_bits: usize,
    /// Bloom hash probes per keyword.
    pub bloom_hashes: usize,
    /// Period of the neighbour Bloom-filter synchronisation process, in
    /// seconds of simulated time.
    pub bloom_sync_period_secs: f64,

    // --- structured index (only read by the DHT-backed protocols) ---------------
    /// Parameters of the Kademlia-style keyword-index DHT that the
    /// [`ProtocolKind::DhtIndex`] and [`ProtocolKind::Hybrid`] protocols run.
    /// Ignored entirely by the six unstructured protocols, so legacy runs and
    /// their fingerprints are untouched.
    pub dht: DhtConfig,

    // --- churn (off by default; the paper's evaluation is static) ---------------
    /// Churn model parameters.
    pub churn: ChurnConfig,

    // --- faults (off by default; the paper's network is perfectly reliable) -----
    /// The fault plan: deterministic per-message loss, transient link
    /// outages, crash-stop departures, and the timeout/retry policies
    /// protocols use to survive them. [`FaultConfig::disabled`] (the
    /// default) injects nothing and schedules nothing, so fault-free runs
    /// stay byte-identical to every prior fingerprint.
    pub faults: FaultConfig,

    // --- execution -------------------------------------------------------------
    /// Number of engine shards (deterministic intra-run parallelism).
    ///
    /// Peers are deterministically partitioned into this many shards; each
    /// shard drains its local events in parallel over bounded time windows and
    /// cross-shard messages are merged at window barriers in a canonical
    /// order, so **any** shard count produces bit-identical reports for the
    /// same seed. Defaults to 1; values are clamped to `1..=peers` at run
    /// time.
    pub shards: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl SimulationConfig {
    /// The configuration of §5.1 of the paper.
    pub fn paper_defaults() -> Self {
        SimulationConfig {
            seed: 0x10ca_aa2e,
            peers: 1000,
            average_degree: 3.0,
            graph_model: GraphModel::Random,
            ttl: 7,
            min_latency_ms: 10.0,
            max_latency_ms: 500.0,
            placement: PlacementModel {
                clusters: 24,
                sigma: 0.03,
            },
            landmarks: 4,
            file_pool: 3000,
            keyword_pool: 9000,
            keywords_per_file: 3,
            files_per_peer: 3,
            zipf_exponent: 1.0,
            min_query_keywords: 1,
            max_query_keywords: 3,
            query_rate_per_peer: 0.00083,
            arrival_schedule: ArrivalSchedule::Steady,
            cluster_weights: None,
            group_count: 4,
            response_index_capacity: 50,
            max_providers_per_file: 5,
            max_providers_per_response: 5,
            bloom_bits: 1200,
            bloom_hashes: 5,
            bloom_sync_period_secs: 60.0,
            dht: DhtConfig::default(),
            shards: 1,
            churn: ChurnConfig::disabled(),
            faults: FaultConfig::disabled(),
        }
    }

    /// A scaled-down configuration (fewer peers and files) that keeps every
    /// ratio of the paper's setup; used by unit/integration tests and the
    /// quickstart example so they run in milliseconds.
    pub fn small(peers: usize) -> Self {
        let scale = peers as f64 / 1000.0;
        let file_pool = ((3000.0 * scale).round() as usize).max(30);
        SimulationConfig {
            peers,
            file_pool,
            keyword_pool: (file_pool * 3).max(60),
            ..Self::paper_defaults()
        }
    }

    /// The shard count a run of this configuration actually uses:
    /// [`SimulationConfig::shards`] clamped to `1..=peers`.
    pub fn effective_shards(&self) -> usize {
        self.shards.clamp(1, self.peers.max(1))
    }

    /// The workload-layer arrival configuration this simulation runs:
    /// population, base rate, schedule and origin weights in one place, so
    /// the substrate builder and the validation logic cannot drift apart.
    pub fn arrival_config(&self) -> locaware_workload::ArrivalConfig {
        locaware_workload::ArrivalConfig {
            peers: self.peers,
            rate_per_peer: self.query_rate_per_peer,
            schedule: self.arrival_schedule.clone(),
            origin_weights: self.cluster_weights.clone(),
        }
    }

    /// Validates internal consistency; returns a structured [`ConfigError`]
    /// for the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.peers == 0 {
            return Err(ConfigError::ZeroPeers);
        }
        // Each range test is the negation of what it admits, so NaN fails it.
        if !(self.average_degree > 0.0 && (self.average_degree as usize) < self.peers) {
            return Err(ConfigError::DegreeOutOfRange {
                average_degree: self.average_degree,
                peers: self.peers,
            });
        }
        if self.ttl == 0 {
            return Err(ConfigError::ZeroTtl);
        }
        if !(self.min_latency_ms > 0.0 && self.max_latency_ms >= self.min_latency_ms) {
            return Err(ConfigError::LatencyRange {
                min_ms: self.min_latency_ms,
                max_ms: self.max_latency_ms,
            });
        }
        let PlacementModel { clusters, sigma } = self.placement;
        if clusters == 0 {
            return Err(ConfigError::ZeroClusters);
        }
        if !(sigma >= 0.0 && sigma.is_finite()) {
            return Err(ConfigError::PlacementSigmaOutOfRange { sigma });
        }
        if self.landmarks == 0 || self.landmarks > 8 {
            return Err(ConfigError::LandmarksOutOfRange { landmarks: self.landmarks });
        }
        if self.file_pool == 0 || self.keyword_pool == 0 {
            return Err(ConfigError::EmptyPools {
                file_pool: self.file_pool,
                keyword_pool: self.keyword_pool,
            });
        }
        if self.keywords_per_file == 0 || self.keywords_per_file > self.keyword_pool {
            return Err(ConfigError::KeywordsPerFileOutOfRange {
                keywords_per_file: self.keywords_per_file,
                keyword_pool: self.keyword_pool,
            });
        }
        if self.files_per_peer > self.file_pool {
            return Err(ConfigError::PlacementUnsatisfiable {
                files_per_peer: self.files_per_peer,
                file_pool: self.file_pool,
            });
        }
        if self.min_query_keywords == 0
            || self.min_query_keywords > self.max_query_keywords
            || self.max_query_keywords > self.keywords_per_file
        {
            return Err(ConfigError::QueryKeywordBounds {
                min: self.min_query_keywords,
                max: self.max_query_keywords,
                keywords_per_file: self.keywords_per_file,
            });
        }
        if !(self.zipf_exponent >= 0.0 && self.zipf_exponent.is_finite()) {
            return Err(ConfigError::ZipfExponentOutOfRange { exponent: self.zipf_exponent });
        }
        self.arrival_config()
            .validate()
            .map_err(ConfigError::ArrivalSchedule)?;
        if let Some(weights) = &self.cluster_weights {
            let max_share = weights.max_share_count(self.peers, self.files_per_peer);
            if max_share > self.file_pool {
                return Err(ConfigError::WeightedPlacementUnsatisfiable {
                    max_files_on_a_peer: max_share,
                    file_pool: self.file_pool,
                });
            }
        }
        if self.group_count == 0 {
            return Err(ConfigError::ZeroGroupCount);
        }
        if self.response_index_capacity == 0
            || self.max_providers_per_file == 0
            || self.max_providers_per_response == 0
        {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        if self.bloom_bits == 0 || self.bloom_hashes == 0 {
            return Err(ConfigError::ZeroBloomParameters);
        }
        if u32::try_from(self.bloom_bits).is_err() {
            return Err(ConfigError::BloomBitsOutOfRange { bits: self.bloom_bits });
        }
        if !is_schedulable_period(self.bloom_sync_period_secs) {
            return Err(ConfigError::NonPositiveBloomSyncPeriod {
                period_secs: self.bloom_sync_period_secs,
            });
        }
        if self.dht.k == 0 || self.dht.alpha == 0 || self.dht.max_lookup_hops == 0 {
            return Err(ConfigError::ZeroDhtParameters);
        }
        let min_record_bytes =
            locaware_overlay::dht::RECORD_KEY_BYTES + locaware_overlay::dht::RECORD_ENTRY_BYTES;
        if self.dht.max_record_bytes < min_record_bytes {
            return Err(ConfigError::DhtRecordBytesTooSmall {
                max_record_bytes: self.dht.max_record_bytes,
                minimum: min_record_bytes,
            });
        }
        for period in [self.dht.record_ttl_secs, self.dht.republish_period_secs] {
            if !is_schedulable_period(period) {
                return Err(ConfigError::NonPositiveDhtPeriod { period_secs: period });
            }
        }
        if !(0.0..=1.0).contains(&self.dht.hybrid_head_fraction) {
            return Err(ConfigError::DhtHeadFractionOutOfRange {
                head_fraction: self.dht.hybrid_head_fraction,
            });
        }
        if !self.churn.is_valid() {
            let ChurnConfig { mean_session_secs, mean_offline_secs, churning_fraction } = self.churn;
            return Err(ConfigError::ChurnOutOfRange {
                mean_session_secs,
                mean_offline_secs,
                churning_fraction,
            });
        }
        self.faults.validate().map_err(ConfigError::FaultConfig)?;
        self.faults
            .query_timeout
            .validate()
            .map_err(ConfigError::TimeoutPolicy)?;
        // Every check above is shape; this is the one clock check.
        let horizon_secs = self.horizon().secs();
        match Duration::try_from_millis_f64(horizon_secs * 1000.0) {
            Some(horizon) if horizon <= HORIZON_LIMIT => Ok(()),
            _ => Err(ConfigError::HorizonBeyondClock { horizon_secs }),
        }
    }

    /// The run horizon: `start`, the latest burst or outage end, and `tail`,
    /// everything the engine can add to the clock after `start` or after the
    /// last arrival, whichever is later. [`SimulationConfig::validate`]
    /// requires `start + tail` to fit [`HORIZON_LIMIT`].
    ///
    /// The tail is the sum of:
    /// - the control drain margin [`CONTROL_DRAIN`];
    /// - one period of the longest periodic round (Bloom sync or DHT
    ///   republish), which the round schedule steps past its last round;
    /// - `dht.record_ttl_secs`, a stored record's expiry;
    /// - the query lifetime: `2 · ttl · max_latency` for a flood out and
    ///   back, plus the retransmit span ([`TimeoutPolicy::span_secs`]), plus
    ///   `peers × max(step timeout, 2 · max_latency)` for a DHT walk. A walk
    ///   asks each candidate at most once, and a timed-out step re-issues at
    ///   the same hop, so the hop budget alone does not bound it.
    ///
    /// Every site in the engine that adds a span to the clock, with the term
    /// that covers it (a term may be loose, and the slack of the others
    /// absorbs the engine's rounding of each span to the microsecond):
    /// - `engine/mod.rs`, `periodic_controls`: `ZERO + period` and
    ///   `t += period` — the drain margin plus the longest period;
    /// - `engine/mod.rs`, `Coordinator::new`: `last_arrival + CONTROL_DRAIN`
    ///   — the drain margin;
    /// - `engine/mod.rs`, `Coordinator::drive`: `event.time + lookahead`, a
    ///   window bound rather than an event, saturating — the lookahead is at
    ///   most `max_latency`, inside the query lifetime;
    /// - `engine/shard.rs`, `route`: `now + latency` for every send — at most
    ///   `max_latency` per hop, inside the query lifetime (periodic rounds
    ///   and churn transitions send at times the other terms already cover);
    /// - `engine/unstructured.rs`, `flood_attempt`: `now + delay(attempt)` —
    ///   the retransmit span;
    /// - `engine/dht.rs`, `refill`: `now + step timeout` — the DHT walk;
    /// - `engine/dht.rs`, `store_record`: `at + record TTL` — the record TTL;
    /// - `engine/faults.rs`, `FaultPlan::new`: `ZERO + outage start/end` —
    ///   `start`.
    ///
    /// Outside the engine, `Simulation::churn_schedule` adds the burst end
    /// (`start`) to `ZERO`, and `ChurnModel::schedule` adds each dwell with
    /// `checked_add`, ending a peer's schedule at the churn horizon, which is
    /// at most the later of `start` and the last arrival.
    ///
    /// [`TimeoutPolicy::span_secs`]: locaware_workload::TimeoutPolicy::span_secs
    pub(crate) fn horizon(&self) -> RunHorizon {
        let burst_end = self.arrival_schedule.span_secs().unwrap_or(0.0);
        let outage_ends = self.faults.outages.iter().map(|window| window.end_secs());
        let max_latency_secs = self.max_latency_ms / 1000.0;
        let flood = 2.0 * f64::from(self.ttl) * max_latency_secs;
        let walk_step = self.faults.dht_step_timeout_secs.max(2.0 * max_latency_secs);
        let lifetime = flood + self.faults.query_timeout.span_secs() + self.peers as f64 * walk_step;
        let period = self.bloom_sync_period_secs.max(self.dht.republish_period_secs);
        RunHorizon {
            start_secs: outage_ends.fold(burst_end, f64::max),
            tail_secs: CONTROL_DRAIN.as_secs_f64() + period + self.dht.record_ttl_secs + lifetime,
        }
    }
}

/// Half the microsecond simulation clock (≈2.9·10⁵ years): the most a run
/// horizon may span. The other half belongs to the arrivals, whose last time
/// depends on the query count `validate` never sees, so every run whose last
/// arrival falls within it fits the clock.
pub(crate) const HORIZON_LIMIT: Duration = Duration::from_micros(u64::MAX / 2);

/// How long periodic rounds keep running after the last arrival, so late
/// responses still see fresh filters.
pub(crate) const CONTROL_DRAIN: Duration = Duration::from_secs(60);

/// A configuration's run horizon ([`SimulationConfig::horizon`]), in
/// simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RunHorizon {
    start_secs: f64,
    tail_secs: f64,
}

impl RunHorizon {
    /// `start + tail`, the span `validate` holds against [`HORIZON_LIMIT`].
    fn secs(self) -> f64 {
        self.start_secs + self.tail_secs
    }

    /// The latest time a run of a validated configuration whose last arrival
    /// is at `last_arrival` can put anything on the clock:
    /// `max(start, last_arrival) + tail`. Saturates only when the last
    /// arrival is itself past [`HORIZON_LIMIT`], which nothing checks yet.
    pub(crate) fn event_bound(self, last_arrival: SimTime) -> SimTime {
        let start = SimTime::ZERO + Duration::from_secs_f64(self.start_secs);
        start.max(last_arrival).saturating_add(Duration::from_secs_f64(self.tail_secs))
    }
}

/// Whether a period in simulated seconds can drive a periodic schedule: it
/// must be finite and round to at least one tick of the microsecond clock. A
/// period that is `NaN` or rounds to zero would never advance the schedule,
/// and the run would hang generating control events.
fn is_schedulable_period(period_secs: f64) -> bool {
    period_secs.is_finite() && Duration::from_secs_f64(period_secs) > Duration::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = SimulationConfig::paper_defaults();
        assert_eq!(c.peers, 1000);
        assert_eq!(c.average_degree, 3.0);
        assert_eq!(c.ttl, 7);
        assert_eq!(c.min_latency_ms, 10.0);
        assert_eq!(c.max_latency_ms, 500.0);
        assert_eq!(c.landmarks, 4);
        assert_eq!(c.file_pool, 3000);
        assert_eq!(c.keyword_pool, 9000);
        assert_eq!(c.keywords_per_file, 3);
        assert_eq!(c.files_per_peer, 3);
        assert_eq!(c.min_query_keywords, 1);
        assert_eq!(c.max_query_keywords, 3);
        assert!((c.query_rate_per_peer - 0.00083).abs() < 1e-12);
        assert_eq!(c.response_index_capacity, 50);
        assert_eq!(c.bloom_bits, 1200);
        assert!(c.churn.is_disabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn small_config_keeps_ratios_and_validates() {
        let c = SimulationConfig::small(100);
        assert_eq!(c.peers, 100);
        assert_eq!(c.file_pool, 300);
        assert_eq!(c.keyword_pool, 900);
        assert!(c.validate().is_ok());
        let tiny = SimulationConfig::small(10);
        assert!(tiny.validate().is_ok());
        assert!(tiny.file_pool >= 30);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = SimulationConfig::paper_defaults();
        c.peers = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeers));

        let mut c = SimulationConfig::paper_defaults();
        c.ttl = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroTtl));

        let mut c = SimulationConfig::paper_defaults();
        c.max_latency_ms = 1.0;
        assert!(matches!(c.validate(), Err(ConfigError::LatencyRange { .. })));

        let mut c = SimulationConfig::paper_defaults();
        c.min_query_keywords = 5;
        assert!(matches!(c.validate(), Err(ConfigError::QueryKeywordBounds { .. })));

        let mut c = SimulationConfig::paper_defaults();
        c.group_count = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroGroupCount));

        let mut c = SimulationConfig::paper_defaults();
        c.landmarks = 9;
        assert_eq!(c.validate(), Err(ConfigError::LandmarksOutOfRange { landmarks: 9 }));

        // NaN used to slip past `<=` range tests and panic in the builders.
        let mut c = SimulationConfig::paper_defaults();
        c.average_degree = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::DegreeOutOfRange { .. })));

        let mut c = SimulationConfig::paper_defaults();
        c.min_latency_ms = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::LatencyRange { .. })));

        for exponent in [f64::NAN, -1.0, f64::INFINITY] {
            let mut c = SimulationConfig::paper_defaults();
            c.zipf_exponent = exponent;
            assert!(matches!(c.validate(), Err(ConfigError::ZipfExponentOutOfRange { .. })));
        }

        let mut c = SimulationConfig::paper_defaults();
        c.placement = PlacementModel { clusters: 0, sigma: 0.03 };
        assert_eq!(c.validate(), Err(ConfigError::ZeroClusters));

        // NaN or infinite coordinates used to clamp every latency to zero.
        for sigma in [f64::NAN, -1.0, f64::INFINITY] {
            let mut c = SimulationConfig::paper_defaults();
            c.placement = PlacementModel { clusters: 24, sigma };
            assert!(matches!(c.validate(), Err(ConfigError::PlacementSigmaOutOfRange { .. })));
        }
    }

    fn burst(multiplier: f64, start_secs: f64, duration_secs: f64) -> ArrivalSchedule {
        ArrivalSchedule::Burst { multiplier, start_secs, duration_secs }
    }

    /// Churn-storm's churn block, at 40 peers.
    fn storm() -> ChurnConfig {
        crate::Scenario::churn_storm(40).config().churn
    }

    /// Every span that cannot fit the microsecond clock is rejected up front:
    /// as `HorizonBeyondClock` once it is added to the run horizon, or by its
    /// knob's own shape check. Each used to be a per-knob clock error, a
    /// saturating conversion, or an overflow panic inside a run.
    #[test]
    fn spans_past_the_clock_are_rejected_up_front() {
        use locaware_workload::{OutageWindow, TimeoutPolicy};
        type Case = (&'static str, fn(&mut SimulationConfig), fn(&ConfigError) -> bool);
        let beyond: fn(&ConfigError) -> bool =
            |e| matches!(e, ConfigError::HorizonBeyondClock { .. });
        let cases: [Case; 12] = [
            // With churn-storm churn it used to hang the churn schedule.
            ("burst ending at 1e18 s", |c| (c.churn, c.arrival_schedule) = (storm(), burst(2.0, 1e18, 60.0)), beyond),
            ("burst at a 1e-300 rate for 1e18 s", |c| c.arrival_schedule = burst(1e-300, 0.0, 1e18), beyond),
            (
                "outage at 1e300 s",
                |c| c.faults.outages.push(OutageWindow { start_secs: 1e300, duration_secs: 1e300, fraction: 0.5 }),
                beyond,
            ),
            ("ttl u32::MAX at f64::MAX/2 ms", |c| (c.ttl, c.max_latency_ms) = (u32::MAX, f64::MAX / 2.0), beyond),
            ("Bloom sync period 1e18 s", |c| c.bloom_sync_period_secs = 1e18, beyond),
            ("DHT republish period 1e18 s", |c| c.dht.republish_period_secs = 1e18, beyond),
            ("DHT record TTL 1e18 s", |c| c.dht.record_ttl_secs = 1e18, beyond),
            ("DHT step timeout 1e18 s", |c| c.faults.dht_step_timeout_secs = 1e18, beyond),
            (
                // It fits the clock on its own; 40 walk steps of it do not.
                "DHT step timeout 1.8e13 s under 20% loss",
                |c| (c.faults.message_loss, c.faults.dht_step_timeout_secs) = (0.2, 1.8e13),
                beyond,
            ),
            (
                "infinite DHT step timeout",
                |c| c.faults.dht_step_timeout_secs = f64::INFINITY,
                |e| matches!(e, ConfigError::FaultConfig(FaultConfigError::InvalidStepTimeout { .. })),
            ),
            (
                "retransmit span past the clock",
                |c| c.faults.query_timeout = TimeoutPolicy { initial_secs: 1e300, backoff: 10.0, max_retries: 100 },
                beyond,
            ),
            (
                "churn offline gaps of infinite mean",
                |c| c.churn = ChurnConfig { mean_offline_secs: f64::INFINITY, ..storm() },
                |e| matches!(e, ConfigError::ChurnOutOfRange { .. }),
            ),
        ];
        for (name, set, expected) in cases {
            let mut c = SimulationConfig::small(40);
            set(&mut c);
            match crate::Simulation::try_build(c) {
                Err(error) => assert!(expected(&error), "{name}: got {error:?}"),
                Ok(_) => panic!("{name}: accepted"),
            }
        }

        // Large but representable spans still validate: a 2e9 s flood and
        // 1000 walk steps of 2e6 s each.
        let mut c = SimulationConfig::paper_defaults();
        c.ttl = 1_000;
        c.max_latency_ms = 1.0e9;
        assert!(c.validate().is_ok());
        // And the horizon holds up to the limit, not one second past it.
        let limit_secs = HORIZON_LIMIT.as_secs_f64();
        let tail_secs = c.horizon().secs();
        c.faults.outages.push(OutageWindow {
            start_secs: 0.0,
            duration_secs: limit_secs - tail_secs - 1.0,
            fraction: 0.5,
        });
        assert!(c.validate().is_ok());
        c.faults.outages[0].duration_secs += 2.0;
        assert!(matches!(c.validate(), Err(ConfigError::HorizonBeyondClock { .. })));
    }

    #[test]
    fn arrival_validation_is_hoisted_into_the_typed_config_error() {
        // A non-finite rate used to slip past validation and panic inside
        // `ArrivalProcess::new`; now it fails fallibly up front.
        let mut c = SimulationConfig::paper_defaults();
        c.query_rate_per_peer = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ArrivalSchedule(ScheduleError::InvalidRate { .. }))
        ));

        let mut c = SimulationConfig::paper_defaults();
        c.arrival_schedule = ArrivalSchedule::Burst {
            multiplier: 25.0,
            start_secs: 60.0,
            duration_secs: 0.0,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ArrivalSchedule(ScheduleError::InvalidDuration { .. }))
        ));

        let mut c = SimulationConfig::paper_defaults();
        c.cluster_weights = Some(ClusterWeights::new(vec![1.0; 2000]).unwrap());
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ArrivalSchedule(ScheduleError::OriginWeights(
                locaware_workload::ClusterWeightsError::MoreClustersThanPeers { .. }
            )))
        ));

        // A 1000:1 weight skew over a small pool cannot give every
        // hot-cluster peer enough distinct files: a 2000-copy budget lands
        // almost entirely on 50 peers (~40 each) against a 30-file pool.
        let mut c = SimulationConfig::small(100);
        c.file_pool = 30;
        c.keyword_pool = 90;
        c.files_per_peer = 20;
        c.cluster_weights = Some(ClusterWeights::new(vec![1000.0, 1.0]).unwrap());
        assert!(matches!(
            c.validate(),
            Err(ConfigError::WeightedPlacementUnsatisfiable { .. })
        ));
    }

    #[test]
    fn arrival_config_mirrors_the_simulation_config() {
        let mut c = SimulationConfig::small(80);
        c.arrival_schedule = ArrivalSchedule::Burst {
            multiplier: 10.0,
            start_secs: 30.0,
            duration_secs: 60.0,
        };
        c.cluster_weights = Some(ClusterWeights::new(vec![3.0, 1.0]).unwrap());
        let arrival = c.arrival_config();
        assert_eq!(arrival.peers, 80);
        assert_eq!(arrival.rate_per_peer, c.query_rate_per_peer);
        assert_eq!(arrival.schedule, c.arrival_schedule);
        assert_eq!(arrival.origin_weights, c.cluster_weights);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_errors_display_their_constraint_and_values() {
        let mut c = SimulationConfig::paper_defaults();
        c.average_degree = 2000.0;
        let err = c.validate().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("degree"), "{message}");
        assert!(message.contains("2000"), "{message}");

        // ConfigError is a real std error, usable with `?` and `Box<dyn Error>`.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("peers"));
    }

    #[test]
    fn effective_shards_clamps_to_the_population() {
        let mut c = SimulationConfig::small(10);
        c.shards = 4;
        assert_eq!(c.effective_shards(), 4);
        c.shards = 64;
        assert_eq!(c.effective_shards(), 10, "more shards than peers is clamped");
        c.peers = 2;
        assert_eq!(c.effective_shards(), 2);
        c.shards = 0;
        assert_eq!(c.effective_shards(), 1, "no shards is one shard");
    }

    #[test]
    fn protocol_labels_are_stable() {
        assert_eq!(ProtocolKind::Locaware.label(), "locaware");
        assert_eq!(ProtocolKind::Flooding.to_string(), "flooding");
        assert_eq!(ProtocolKind::DhtIndex.label(), "dht-index");
        assert_eq!(ProtocolKind::Hybrid.label(), "hybrid");
        assert_eq!(ProtocolKind::PAPER_SET.len(), 4);
    }

    #[test]
    fn protocol_all_enumerates_every_kind_with_unique_labels() {
        let labels: std::collections::BTreeSet<&str> =
            ProtocolKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ProtocolKind::ALL.len(), "duplicate labels");
        for kind in ProtocolKind::PAPER_SET {
            assert!(ProtocolKind::ALL.contains(&kind), "PAPER_SET ⊄ ALL");
        }
        for &kind in ProtocolKind::all() {
            assert_eq!(ProtocolKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_label("no-such-protocol"), None);
        assert!(ProtocolKind::DhtIndex.uses_dht());
        assert!(ProtocolKind::Hybrid.uses_dht());
        assert!(!ProtocolKind::Locaware.uses_dht());
    }

    #[test]
    fn fault_validation_catches_inconsistencies() {
        use locaware_workload::{OutageWindow, TimeoutPolicy};

        // The default plan is disabled and valid.
        let c = SimulationConfig::paper_defaults();
        assert!(c.faults.is_disabled());
        assert!(c.validate().is_ok());

        let mut c = SimulationConfig::paper_defaults();
        c.faults.message_loss = -0.1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FaultConfig(FaultConfigError::InvalidLossProbability { .. }))
        ));

        let mut c = SimulationConfig::paper_defaults();
        c.faults.message_loss = 1.01;
        assert!(matches!(c.validate(), Err(ConfigError::FaultConfig(_))));

        let mut c = SimulationConfig::paper_defaults();
        c.faults.outages.push(OutageWindow {
            start_secs: 100.0,
            duration_secs: -5.0,
            fraction: 0.5,
        });
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FaultConfig(FaultConfigError::InvalidOutageDuration { .. }))
        ));

        let mut c = SimulationConfig::paper_defaults();
        c.faults.query_timeout = TimeoutPolicy {
            initial_secs: 10.0,
            backoff: f64::NAN,
            max_retries: 2,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::TimeoutPolicy(TimeoutPolicyError::InvalidBackoff { .. }))
        ));

        // A sane faulty plan passes validation.
        let mut c = SimulationConfig::paper_defaults();
        c.faults.message_loss = 0.05;
        c.faults.crash_stop = true;
        c.faults.query_timeout = TimeoutPolicy {
            initial_secs: 8.0,
            backoff: 2.0,
            max_retries: 2,
        };
        c.faults.dht_step_timeout_secs = 3.0;
        assert!(!c.faults.is_disabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn periods_that_cannot_advance_a_schedule_are_rejected() {
        // NaN slips past a `<= 0.0` test and a sub-microsecond period rounds
        // to a zero `Duration`; either would hang the engine's schedule loop.
        let rejected = |set: fn(&mut SimulationConfig, f64), bad: f64| {
            let mut c = SimulationConfig::paper_defaults();
            set(&mut c, bad);
            c.validate()
        };
        for bad in [1e-7, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    rejected(|c, bad| c.bloom_sync_period_secs = bad, bad),
                    Err(ConfigError::NonPositiveBloomSyncPeriod { .. })
                ),
                "bloom sync period {bad} accepted"
            );
            for set in [
                (|c, bad| c.dht.republish_period_secs = bad) as fn(&mut SimulationConfig, f64),
                |c, bad| c.dht.record_ttl_secs = bad,
            ] {
                assert!(
                    matches!(rejected(set, bad), Err(ConfigError::NonPositiveDhtPeriod { .. })),
                    "DHT period {bad} accepted"
                );
            }
        }
        let mut c = SimulationConfig::paper_defaults();
        c.bloom_sync_period_secs = 1e-6;
        c.dht.republish_period_secs = 1e-6;
        assert_eq!(c.validate(), Ok(()), "one tick is the smallest schedulable period");
    }

    #[test]
    fn bloom_bits_past_a_delta_position_are_rejected() {
        // A delta names positions as `u32`: one bit more would wrap them.
        let mut c = SimulationConfig::paper_defaults();
        c.bloom_bits = u32::MAX as usize + 1;
        assert_eq!(c.validate(), Err(ConfigError::BloomBitsOutOfRange { bits: c.bloom_bits }));
        c.bloom_bits = u32::MAX as usize;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn dht_validation_catches_inconsistencies() {
        let mut c = SimulationConfig::paper_defaults();
        c.dht.k = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroDhtParameters));

        let mut c = SimulationConfig::paper_defaults();
        c.dht.alpha = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroDhtParameters));

        let mut c = SimulationConfig::paper_defaults();
        c.dht.max_record_bytes = 10;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DhtRecordBytesTooSmall { max_record_bytes: 10, .. })
        ));

        let mut c = SimulationConfig::paper_defaults();
        c.dht.republish_period_secs = 0.0;
        assert!(matches!(c.validate(), Err(ConfigError::NonPositiveDhtPeriod { .. })));

        let mut c = SimulationConfig::paper_defaults();
        c.dht.record_ttl_secs = f64::INFINITY;
        assert!(matches!(c.validate(), Err(ConfigError::NonPositiveDhtPeriod { .. })));

        let mut c = SimulationConfig::paper_defaults();
        c.dht.hybrid_head_fraction = 1.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DhtHeadFractionOutOfRange { .. })
        ));
    }

    /// Whether `config` fails validation with a typed error or, validated,
    /// builds its substrate and carries `queries` queries of `hybrid` and of
    /// `flooding` to a report without a panic.
    fn fails_validation_or_runs(config: SimulationConfig, queries: usize) -> bool {
        if config.validate().is_err() {
            return true;
        }
        let ran = std::panic::catch_unwind(|| {
            let simulation = crate::Simulation::try_build(config)?;
            for protocol in [ProtocolKind::Hybrid, ProtocolKind::Flooding] {
                simulation.run(protocol, queries);
            }
            Ok::<_, ConfigError>(())
        });
        matches!(ran, Ok(Ok(())))
    }

    /// Every float knob at NaN, −1, ∞, 0, 10¹⁸ and 1.8·10¹³ (which fits the
    /// clock on its own) either fails validation or runs: a config
    /// `validate()` accepts builds a 40-peer substrate and carries 20 queries
    /// of `hybrid` and of `flooding` without a panic.
    #[test]
    fn every_float_knob_fails_validation_or_runs() {
        type Knob = fn(&mut SimulationConfig, f64);
        let knobs: [(&str, Knob); 20] = [
            ("average_degree", |c, v| c.average_degree = v),
            ("min_latency_ms", |c, v| c.min_latency_ms = v),
            ("max_latency_ms", |c, v| c.max_latency_ms = v),
            ("placement.sigma", |c, v| c.placement.sigma = v),
            ("zipf_exponent", |c, v| c.zipf_exponent = v),
            ("query_rate_per_peer", |c, v| c.query_rate_per_peer = v),
            ("arrival_schedule.multiplier", |c, v| c.arrival_schedule = burst(v, 60.0, 600.0)),
            ("arrival_schedule.start_secs", |c, v| c.arrival_schedule = burst(5.0, v, 600.0)),
            ("arrival_schedule.duration_secs", |c, v| c.arrival_schedule = burst(5.0, 60.0, v)),
            ("bloom_sync_period_secs", |c, v| c.bloom_sync_period_secs = v),
            ("dht.record_ttl_secs", |c, v| c.dht.record_ttl_secs = v),
            ("dht.republish_period_secs", |c, v| c.dht.republish_period_secs = v),
            ("dht.hybrid_head_fraction", |c, v| c.dht.hybrid_head_fraction = v),
            // The churn knobs start from a churning block, so each decides.
            ("churn.mean_session_secs", |c, v| c.churn = ChurnConfig { mean_session_secs: v, ..storm() }),
            ("churn.mean_offline_secs", |c, v| c.churn = ChurnConfig { mean_offline_secs: v, ..storm() }),
            ("churn.churning_fraction", |c, v| c.churn = ChurnConfig { churning_fraction: v, ..storm() }),
            ("faults.message_loss", |c, v| c.faults.message_loss = v),
            // Each with the rest of its fault axis armed, so the value under
            // test is the one that decides: lost steps time out, and an
            // unanswered flood is retransmitted.
            ("faults.dht_step_timeout_secs", |c, v| {
                c.faults.message_loss = 0.2;
                c.faults.dht_step_timeout_secs = v;
            }),
            ("faults.query_timeout.initial_secs", |c, v| {
                c.faults.query_timeout.max_retries = 2;
                c.faults.query_timeout.initial_secs = v;
            }),
            ("faults.query_timeout.backoff", |c, v| {
                c.faults.query_timeout.initial_secs = 5.0;
                c.faults.query_timeout.max_retries = 2;
                c.faults.query_timeout.backoff = v;
            }),
        ];
        let mut panicked = Vec::new();
        for (name, knob) in knobs {
            for value in [f64::NAN, -1.0, f64::INFINITY, 0.0, 1e18, 1.8e13] {
                let mut config = SimulationConfig::small(40);
                knob(&mut config, value);
                if !fails_validation_or_runs(config, 20) {
                    panicked.push(format!("{name} = {value}"));
                }
            }
        }
        assert!(panicked.is_empty(), "validated configs panicked: {panicked:?}");
    }

    /// The integer and degenerate edges — a lone peer, no queries, more
    /// shards than peers, every message lost, every peer crashed, TTL 0, a
    /// zero cache and a filter too wide for a delta's 32-bit positions — each
    /// fail validation or run to a report.
    #[test]
    fn every_integer_edge_fails_validation_or_runs() {
        type Edge = fn(&mut SimulationConfig);
        let edges: [(&str, Edge, usize); 8] = [
            ("1 peer", |c| (c.peers, c.average_degree) = (1, 0.5), 20),
            ("0 queries", |_| {}, 0),
            ("shards > peers", |c| c.shards = 64, 20),
            ("100% loss", |c| c.faults.message_loss = 1.0, 20),
            (
                "every peer crashed",
                |c| {
                    c.faults.crash_stop = true;
                    c.churn = ChurnConfig {
                        mean_session_secs: 1.0,
                        mean_offline_secs: 1.0e9,
                        churning_fraction: 1.0,
                    };
                },
                20,
            ),
            ("TTL 0", |c| c.ttl = 0, 20),
            ("capacity 0", |c| c.response_index_capacity = 0, 20),
            ("bloom bits past u32", |c| c.bloom_bits = u32::MAX as usize + 1, 20),
        ];
        let mut panicked = Vec::new();
        for (name, edge, queries) in edges {
            let mut config = SimulationConfig::small(40);
            edge(&mut config);
            if !fails_validation_or_runs(config, queries) {
                panicked.push(name);
            }
        }
        assert!(panicked.is_empty(), "validated configs panicked: {panicked:?}");
    }
}
