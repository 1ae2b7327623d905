//! Simulation configuration.
//!
//! [`SimulationConfig`] gathers every parameter of the paper's experimental
//! methodology (§5.1) with the paper's values as defaults, so
//! `SimulationConfig::paper_defaults()` is exactly the published setup and the
//! experiment binaries only override the number of queries and the protocol
//! under test.
//!
//! [`SimulationConfig::validate`] checks one table of knobs first, each by
//! its dotted path and the values it admits ([`Admits`]), into
//! [`ConfigError::OutOfRange`]; then the checks that span several knobs,
//! each with its own variant; then the run horizon.

use locaware_net::brite::PlacementModel;
use locaware_overlay::{ChurnConfig, GraphModel};
use locaware_sim::{Duration, SimTime};
use locaware_workload::{ArrivalSchedule, ClusterWeights, FaultConfig, OutageWindow};

use crate::provider::SelectionPolicy;

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
    /// One knob holds a value outside the values it admits on its own.
    OutOfRange {
        /// The knob's dotted path in [`SimulationConfig`], e.g.
        /// `"dht.record_ttl_secs"`; an outage window's knob is
        /// `"faults.outages[].<field>"`, a burst's `"arrival_schedule.<field>"`.
        knob: &'static str,
        /// The offending value (a count converted to `f64`).
        value: f64,
        /// The values the knob admits.
        admits: Admits,
    },
    /// The average overlay degree, rounded down, is not below the peer count.
    DegreeOutOfRange {
        /// The configured average degree.
        average_degree: f64,
        /// The configured peer count.
        peers: usize,
    },
    /// The minimum one-way latency exceeds the maximum.
    LatencyRange {
        /// Configured minimum one-way latency in milliseconds.
        min_ms: f64,
        /// Configured maximum one-way latency in milliseconds.
        max_ms: f64,
    },
    /// A filename asks for more keywords than the pool holds.
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
    /// More workload clusters than peers: some cluster would own no peers.
    MoreClustersThanPeers {
        /// Configured number of clusters ([`SimulationConfig::cluster_weights`]).
        clusters: usize,
        /// Configured peer count.
        peers: usize,
    },
    /// Under weighted-cluster placement, the heaviest cluster would ask a
    /// peer to share more distinct files than the pool contains.
    WeightedPlacementUnsatisfiable {
        /// The largest per-peer share count the weights produce, saturated
        /// at `usize::MAX`.
        max_files_on_a_peer: usize,
        /// Configured file pool size.
        file_pool: usize,
    },
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
            ConfigError::OutOfRange { knob, value, admits } => write!(f, "{knob} must be {admits}: got {value}"),
            ConfigError::DegreeOutOfRange { average_degree, peers } => write!(
                f,
                "average degree must be below the peer count: got {average_degree} with {peers} peers"
            ),
            ConfigError::LatencyRange { min_ms, max_ms } => write!(
                f,
                "latency range must satisfy min <= max: got [{min_ms}, {max_ms}] ms"
            ),
            ConfigError::KeywordsPerFileOutOfRange { keywords_per_file, keyword_pool } => write!(
                f,
                "keywords per file cannot exceed the keyword pool: got {keywords_per_file} of {keyword_pool}"
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
            ConfigError::MoreClustersThanPeers { clusters, peers } => write!(
                f,
                "workload clusters cannot outnumber the peers: got {clusters} clusters over {peers} peers"
            ),
            ConfigError::WeightedPlacementUnsatisfiable { max_files_on_a_peer, file_pool } => write!(
                f,
                "weighted placement asks one peer for {max_files_on_a_peer} distinct files \
                 of a {file_pool}-file pool"
            ),
            ConfigError::HorizonBeyondClock { horizon_secs } => write!(
                f,
                "run horizon {horizon_secs}s does not fit half the microsecond simulation clock"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The values one knob admits on its own ([`ConfigError::OutOfRange`]).
///
/// Each float shape is written as what it admits, so `NaN` fails every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admits {
    /// Positive and finite.
    PositiveFinite,
    /// Finite and non-negative.
    FiniteNonNegative,
    /// The closed unit interval `[0, 1]`.
    UnitInterval,
    /// Finite, and at least one tick once rounded to the microsecond clock:
    /// a shorter or `NaN` period would never advance its schedule.
    SchedulablePeriod,
    /// Any finite value.
    Finite,
    /// Finite and at least 1.
    AtLeastOne,
    /// A count in `lo..=hi`.
    Count {
        /// The smallest admitted count.
        lo: u64,
        /// The largest admitted count.
        hi: u64,
    },
}

impl Admits {
    /// Whether the shape admits `value`.
    pub(crate) fn contains(self, value: f64) -> bool {
        match self {
            Admits::PositiveFinite => value > 0.0 && value.is_finite(),
            Admits::FiniteNonNegative => value >= 0.0 && value.is_finite(),
            Admits::UnitInterval => (0.0..=1.0).contains(&value),
            Admits::SchedulablePeriod => {
                value.is_finite() && Duration::from_secs_f64(value) > Duration::ZERO
            }
            Admits::Finite => value.is_finite(),
            Admits::AtLeastOne => value >= 1.0 && value.is_finite(),
            Admits::Count { lo, hi } => lo as f64 <= value && value <= hi as f64,
        }
    }
}

impl std::fmt::Display for Admits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admits::PositiveFinite => f.write_str("positive and finite"),
            Admits::FiniteNonNegative => f.write_str("finite and non-negative"),
            Admits::UnitInterval => f.write_str("in [0, 1]"),
            Admits::SchedulablePeriod => f.write_str("finite and at least one microsecond"),
            Admits::Finite => f.write_str("finite"),
            Admits::AtLeastOne => f.write_str("finite and at least 1"),
            Admits::Count { lo: 1, hi: u64::MAX } => f.write_str("positive"),
            Admits::Count { lo, hi: u64::MAX } => write!(f, "at least {lo}"),
            Admits::Count { lo, hi } => write!(f, "in {lo}..={hi}"),
        }
    }
}

/// One row of [`KNOBS`]: a knob, where to read it, and what it admits.
struct Knob {
    /// The knob's dotted path in [`SimulationConfig`].
    name: &'static str,
    admits: Admits,
    read: Read,
    /// Sets the knob (every outage window's, for an outage row).
    #[cfg(test)]
    write: fn(&mut SimulationConfig, f64),
}

/// Where a [`Knob`] reads its value.
enum Read {
    /// A field of the config, or `None` where its check does not apply.
    Config(fn(&SimulationConfig) -> Option<f64>),
    /// A field of each outage window, checked per window.
    Outage(fn(&OutageWindow) -> f64),
}

impl Knob {
    /// `OutOfRange` for the first value of this knob it does not admit.
    fn check(&self, config: &SimulationConfig) -> Result<(), ConfigError> {
        let check = |value: f64| match self.admits.contains(value) {
            true => Ok(()),
            false => Err(ConfigError::OutOfRange { knob: self.name, value, admits: self.admits }),
        };
        match self.read {
            Read::Config(read) => read(config).map_or(Ok(()), check),
            Read::Outage(read) => config.faults.outages.iter().try_for_each(|w| check(read(w))),
        }
    }
}

/// A [`Knob`] named after the field it reads: `knob!(admits, path.to.field)`,
/// with `if condition` (read on the config) when the check applies only
/// where the condition holds, `knob!(admits, faults.outages[].field)`, or
/// `knob!(admits, arrival_schedule.field)` for a field of a burst, checked
/// only when the schedule is one.
macro_rules! knob {
    ($admits:expr, faults.outages[].$field:ident) => {
        Knob {
            name: concat!("faults.outages[].", stringify!($field)),
            admits: $admits,
            read: Read::Outage(|window| window.$field),
            #[cfg(test)]
            write: |c, v| c.faults.outages.iter_mut().for_each(|window| window.$field = v),
        }
    };
    ($admits:expr, arrival_schedule.$field:ident) => {
        Knob {
            name: concat!("arrival_schedule.", stringify!($field)),
            admits: $admits,
            read: Read::Config(|c| match c.arrival_schedule {
                ArrivalSchedule::Burst { $field, .. } => Some($field),
                ArrivalSchedule::Steady => None,
            }),
            #[cfg(test)]
            write: |c, v| {
                if let ArrivalSchedule::Burst { $field, .. } = &mut c.arrival_schedule {
                    *$field = v;
                }
            },
        }
    };
    ($admits:expr, $($path:ident).+ $(if $($when:tt)+)?) => {
        Knob {
            name: stringify!($($path).+),
            admits: $admits,
            read: Read::Config(|c| (true $(&& c.$($when)+)?).then_some(c.$($path).+ as f64)),
            #[cfg(test)]
            write: |c, v| c.$($path).+ = v as _,
        }
    };
}

/// Every range check on one knob alone, in the order `validate` runs them.
const KNOBS: &[Knob] = {
    use Admits::*;
    const COUNT: Admits = Count { lo: 1, hi: u64::MAX };
    use locaware_overlay::dht::{RECORD_ENTRY_BYTES, RECORD_KEY_BYTES};
    &[
        knob!(COUNT, peers),
        knob!(PositiveFinite, average_degree),
        knob!(COUNT, ttl),
        knob!(PositiveFinite, min_latency_ms),
        knob!(PositiveFinite, max_latency_ms),
        knob!(COUNT, placement.clusters),
        knob!(FiniteNonNegative, placement.sigma),
        knob!(Count { lo: 1, hi: 8 }, landmarks),
        knob!(COUNT, file_pool),
        knob!(COUNT, keyword_pool),
        knob!(COUNT, keywords_per_file),
        knob!(FiniteNonNegative, zipf_exponent),
        knob!(PositiveFinite, query_rate_per_peer),
        knob!(PositiveFinite, arrival_schedule.multiplier),
        knob!(FiniteNonNegative, arrival_schedule.start_secs),
        knob!(PositiveFinite, arrival_schedule.duration_secs),
        knob!(COUNT, group_count),
        knob!(COUNT, response_index_capacity),
        knob!(COUNT, max_providers_per_file),
        knob!(COUNT, max_providers_per_response),
        // A delta names bit positions as `u32`.
        knob!(Count { lo: 1, hi: u32::MAX as u64 }, bloom_bits),
        knob!(COUNT, bloom_hashes),
        knob!(SchedulablePeriod, bloom_sync_period_secs),
        knob!(COUNT, dht.k),
        knob!(COUNT, dht.alpha),
        knob!(COUNT, dht.max_lookup_hops),
        // A record must hold its key and at least one entry.
        knob!(Count { lo: (RECORD_KEY_BYTES + RECORD_ENTRY_BYTES) as u64, hi: u64::MAX }, dht.max_record_bytes),
        knob!(SchedulablePeriod, dht.record_ttl_secs),
        knob!(SchedulablePeriod, dht.republish_period_secs),
        knob!(UnitInterval, dht.hybrid_head_fraction),
        knob!(UnitInterval, churn.churning_fraction),
        knob!(PositiveFinite, churn.mean_session_secs if churn.churning_fraction > 0.0),
        knob!(PositiveFinite, churn.mean_offline_secs if churn.churning_fraction > 0.0),
        knob!(UnitInterval, faults.message_loss),
        knob!(FiniteNonNegative, faults.outages[].start_secs),
        knob!(PositiveFinite, faults.outages[].duration_secs),
        knob!(UnitInterval, faults.outages[].fraction),
        knob!(FiniteNonNegative, faults.dht_step_timeout_secs),
        knob!(FiniteNonNegative, faults.query_timeout.initial_secs),
        knob!(Finite, faults.query_timeout.backoff),
        knob!(AtLeastOne, faults.query_timeout.backoff if faults.query_timeout.is_enabled()),
    ]
};

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
    /// the DHT index ([`ProtocolKind::dht_resolves_rank`]). The rank is the
    /// workload's ground-truth popularity, standing in for the estimate a
    /// deployed peer would keep from observed query frequencies.
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

    /// How the requestor chooses among offered providers: Locaware's
    /// same-locality-then-RTT rule (§5.1) wherever its selection is on.
    pub fn selection_policy(self) -> SelectionPolicy {
        match self {
            ProtocolKind::Locaware | ProtocolKind::LocawareNoBloom | ProtocolKind::Hybrid => {
                SelectionPolicy::LocalityThenRtt
            }
            _ => SelectionPolicy::Random,
        }
    }

    /// Whether queries are routed by neighbour Bloom filters (§4.2), which
    /// the engine then exchanges and keeps in sync.
    pub fn routes_by_bloom(self) -> bool {
        matches!(self, ProtocolKind::Locaware | ProtocolKind::LocawareNoLocality | ProtocolKind::Hybrid)
    }

    /// Whether a query names the exact file it searches (Dicas' filename
    /// search) rather than its keywords alone.
    pub fn searches_by_filename(self) -> bool {
        matches!(self, ProtocolKind::Dicas)
    }

    /// Provider entries a peer keeps per cached filename: `config`'s list
    /// for the Locaware family (§4.1.1), a single index otherwise.
    pub fn max_providers_per_file(self, config: &SimulationConfig) -> usize {
        match self {
            ProtocolKind::Locaware
            | ProtocolKind::LocawareNoLocality
            | ProtocolKind::LocawareNoBloom
            | ProtocolKind::Hybrid => config.max_providers_per_file,
            _ => 1,
        }
    }

    /// Whether a file at popularity `rank` (0 = most popular of `catalog_len`
    /// files) is indexed in — and resolved through — the DHT. `DhtIndex`
    /// resolves every rank; `Hybrid` keeps the most popular `head_fraction`
    /// of the catalog on Locaware's overlay and hands the tail to the DHT
    /// (fraction 0: everything structured, 1: nothing); the unstructured
    /// kinds resolve none.
    pub fn dht_resolves_rank(self, rank: usize, catalog_len: usize, head_fraction: f64) -> bool {
        match self {
            ProtocolKind::DhtIndex => true,
            ProtocolKind::Hybrid => rank as f64 >= head_fraction * catalog_len as f64,
            _ => false,
        }
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
    /// population, base rate, schedule and origin weights in one place.
    pub fn arrival_config(&self) -> locaware_workload::ArrivalConfig {
        locaware_workload::ArrivalConfig {
            peers: self.peers,
            rate_per_peer: self.query_rate_per_peer,
            schedule: self.arrival_schedule.clone(),
            origin_weights: self.cluster_weights.clone(),
        }
    }

    /// Validates internal consistency; returns a structured [`ConfigError`]
    /// for the first violated constraint: each knob on its own, then the
    /// checks that span several knobs, then the run horizon.
    pub fn validate(&self) -> Result<(), ConfigError> {
        KNOBS.iter().try_for_each(|knob| knob.check(self))?;
        let &SimulationConfig {
            peers,
            average_degree,
            min_latency_ms: min_ms,
            max_latency_ms: max_ms,
            file_pool,
            keyword_pool,
            keywords_per_file,
            files_per_peer,
            min_query_keywords: min,
            max_query_keywords: max,
            ..
        } = self;
        if average_degree as usize >= peers {
            return Err(ConfigError::DegreeOutOfRange { average_degree, peers });
        }
        if min_ms > max_ms {
            return Err(ConfigError::LatencyRange { min_ms, max_ms });
        }
        if keywords_per_file > keyword_pool {
            return Err(ConfigError::KeywordsPerFileOutOfRange { keywords_per_file, keyword_pool });
        }
        if files_per_peer > file_pool {
            return Err(ConfigError::PlacementUnsatisfiable { files_per_peer, file_pool });
        }
        if min == 0 || min > max || max > keywords_per_file {
            return Err(ConfigError::QueryKeywordBounds { min, max, keywords_per_file });
        }
        if let Some(weights) = &self.cluster_weights {
            let clusters = weights.clusters();
            if clusters > peers {
                return Err(ConfigError::MoreClustersThanPeers { clusters, peers });
            }
            let max = weights.max_share_count(peers, files_per_peer);
            if max > file_pool as u128 {
                let max_files_on_a_peer = usize::try_from(max).unwrap_or(usize::MAX);
                return Err(ConfigError::WeightedPlacementUnsatisfiable { max_files_on_a_peer, file_pool });
            }
        }
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
    /// - `engine/mod.rs`, `ControlSchedule::new` and `advance`:
    ///   `ZERO + period` and `key.time + period` — the drain margin plus the
    ///   longest period;
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
    /// (`start`) to `ZERO`, and `churn::schedule` adds each dwell with
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
    /// `max(start, last_arrival) + tail`. Both terms fit [`HORIZON_LIMIT`]
    /// (`validate` holds `start + tail` to it, `Simulation::arrivals` the
    /// last arrival), so the sum fits the clock and never saturates.
    pub(crate) fn event_bound(self, last_arrival: SimTime) -> SimTime {
        let start = SimTime::ZERO + Duration::from_secs_f64(self.start_secs);
        start.max(last_arrival).saturating_add(Duration::from_secs_f64(self.tail_secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_overlay::dht::{RECORD_ENTRY_BYTES, RECORD_KEY_BYTES};
    use locaware_workload::TimeoutPolicy;

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

    /// A change to a config.
    type Edit = fn(&mut SimulationConfig);

    /// The knob `config` breaks first, which must be one knob's range.
    fn out_of_range(config: &SimulationConfig) -> &'static str {
        match config.validate() {
            Err(ConfigError::OutOfRange { knob, .. }) => knob,
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    /// Each case sets a knob of the paper defaults out of its range, and
    /// `validate` must name that knob.
    fn assert_rejections(cases: &[(Edit, &str)]) {
        for (set, knob) in cases {
            let mut c = SimulationConfig::paper_defaults();
            set(&mut c);
            assert_eq!(out_of_range(&c), *knob);
        }
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert_rejections(&[
            (|c| c.peers = 0, "peers"),
            (|c| c.ttl = 0, "ttl"),
            (|c| c.group_count = 0, "group_count"),
            // NaN used to slip past `<=` range tests and panic in the builders.
            (|c| c.average_degree = f64::NAN, "average_degree"),
            (|c| c.min_latency_ms = f64::NAN, "min_latency_ms"),
            (|c| c.zipf_exponent = f64::NAN, "zipf_exponent"),
            (|c| c.zipf_exponent = -1.0, "zipf_exponent"),
            (|c| c.zipf_exponent = f64::INFINITY, "zipf_exponent"),
            (|c| c.placement.clusters = 0, "placement.clusters"),
            // NaN or infinite coordinates used to clamp every latency to zero.
            (|c| c.placement.sigma = f64::NAN, "placement.sigma"),
            (|c| c.placement.sigma = -1.0, "placement.sigma"),
            (|c| c.placement.sigma = f64::INFINITY, "placement.sigma"),
            // Just outside the unit interval, on either side.
            (|c| c.churn.churning_fraction = -0.1, "churn.churning_fraction"),
            (|c| c.churn.churning_fraction = 1.5, "churn.churning_fraction"),
            // A rate that is not positive and finite used to panic inside the
            // arrival generator.
            (|c| c.query_rate_per_peer = 0.0, "query_rate_per_peer"),
            (|c| c.query_rate_per_peer = -1.0, "query_rate_per_peer"),
            (|c| c.query_rate_per_peer = f64::NAN, "query_rate_per_peer"),
            (|c| c.query_rate_per_peer = f64::INFINITY, "query_rate_per_peer"),
            // A degenerate burst: an empty or negative window, a negative
            // start, a multiplier that is zero or NaN.
            (|c| c.arrival_schedule = burst(10.0, 60.0, 0.0), "arrival_schedule.duration_secs"),
            (|c| c.arrival_schedule = burst(10.0, 60.0, -5.0), "arrival_schedule.duration_secs"),
            (|c| c.arrival_schedule = burst(10.0, -1.0, 60.0), "arrival_schedule.start_secs"),
            (|c| c.arrival_schedule = burst(0.0, 60.0, 5.0), "arrival_schedule.multiplier"),
            (|c| c.arrival_schedule = burst(f64::NAN, 60.0, 5.0), "arrival_schedule.multiplier"),
        ]);
        // A burst's rows check shape only: a window past the clock is the run
        // horizon's to reject.
        let c = SimulationConfig { arrival_schedule: burst(2.0, 0.0, 1e18), ..SimulationConfig::paper_defaults() };
        assert!(matches!(c.validate(), Err(ConfigError::HorizonBeyondClock { .. })));

        // Each workload cluster needs a peer of its own.
        let mut c = SimulationConfig::small(10);
        c.cluster_weights = Some(ClusterWeights::new(vec![1.0; 11]).unwrap());
        assert_eq!(c.validate(), Err(ConfigError::MoreClustersThanPeers { clusters: 11, peers: 10 }));
        c.cluster_weights = Some(ClusterWeights::new(vec![1.0; 10]).unwrap());
        assert_eq!(c.validate(), Ok(()));

        let mut c = SimulationConfig::paper_defaults();
        c.landmarks = 9;
        let admits = Admits::Count { lo: 1, hi: 8 };
        assert_eq!(c.validate(), Err(ConfigError::OutOfRange { knob: "landmarks", value: 9.0, admits }));

        let mut c = SimulationConfig::paper_defaults();
        c.max_latency_ms = 1.0;
        assert!(matches!(c.validate(), Err(ConfigError::LatencyRange { .. })));

        let mut c = SimulationConfig::paper_defaults();
        c.min_query_keywords = 5;
        assert!(matches!(c.validate(), Err(ConfigError::QueryKeywordBounds { .. })));
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
                |e| matches!(e, ConfigError::OutOfRange { knob: "faults.dht_step_timeout_secs", .. }),
            ),
            (
                "retransmit span past the clock",
                |c| c.faults.query_timeout = TimeoutPolicy { initial_secs: 1e300, backoff: 10.0, max_retries: 100 },
                beyond,
            ),
            (
                "churn offline gaps of infinite mean",
                |c| c.churn = ChurnConfig { mean_offline_secs: f64::INFINITY, ..storm() },
                |e| matches!(e, ConfigError::OutOfRange { knob: "churn.mean_offline_secs", .. }),
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
        // The arrival knobs fail as the config's own typed errors, which
        // name the knob, what it admits and the value.
        let c = SimulationConfig { query_rate_per_peer: -1.0, ..SimulationConfig::paper_defaults() };
        assert_eq!(c.validate().unwrap_err().to_string(), "query_rate_per_peer must be positive and finite: got -1");
        let c = SimulationConfig { arrival_schedule: burst(25.0, 60.0, 0.0), ..SimulationConfig::paper_defaults() };
        let admits = Admits::PositiveFinite;
        let error = ConfigError::OutOfRange { knob: "arrival_schedule.duration_secs", value: 0.0, admits };
        assert_eq!(c.validate(), Err(error));
        let c = SimulationConfig {
            cluster_weights: Some(ClusterWeights::new(vec![1.0; 2000]).unwrap()),
            ..SimulationConfig::paper_defaults()
        };
        let message = c.validate().unwrap_err().to_string();
        assert_eq!(message, "workload clusters cannot outnumber the peers: got 2000 clusters over 1000 peers");

        // A 1000:1 weight skew over a small pool cannot give every
        // hot-cluster peer enough distinct files: a 2000-copy budget lands
        // almost entirely on 50 peers (~40 each) against a 30-file pool.
        let mut c = SimulationConfig::small(100);
        c.file_pool = 30;
        c.keyword_pool = 90;
        c.files_per_peer = 20;
        c.cluster_weights = Some(ClusterWeights::new(vec![1000.0, 1.0]).unwrap());
        assert!(matches!(c.validate(), Err(ConfigError::WeightedPlacementUnsatisfiable { .. })));
    }

    /// The weighted check costs O(clusters), not a count per peer: at 2⁴⁰
    /// peers (8 TiB of per-peer counts) it answers at once on both sides of
    /// the pool bound, and at `usize::MAX` peers nothing overflows. The hot
    /// third holds 3/4 of 3·2⁴⁰ copies over ⌊2⁴⁰/3⌋ peers: 6.75, so 7 each.
    #[test]
    fn weighted_validation_needs_no_per_peer_memory() {
        let mut c = SimulationConfig::small(60);
        c.peers = 1 << 40;
        c.cluster_weights = Some(ClusterWeights::new(vec![6.0, 1.0, 1.0]).unwrap());
        c.file_pool = 6;
        assert_eq!(
            c.validate(),
            Err(ConfigError::WeightedPlacementUnsatisfiable { max_files_on_a_peer: 7, file_pool: 6 })
        );
        c.file_pool = 7;
        assert_eq!(c.validate(), Ok(()));
        // At `usize::MAX` peers the weights pass too; a DHT walk over that
        // many peers is what the clock cannot hold.
        c.peers = usize::MAX;
        assert!(matches!(c.validate(), Err(ConfigError::HorizonBeyondClock { .. })));
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

        // One knob's range names the knob, its admitted values and the value.
        let c = SimulationConfig { ttl: 0, ..SimulationConfig::paper_defaults() };
        assert_eq!(c.validate().unwrap_err().to_string(), "ttl must be positive: got 0");
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

    /// Appends an outage window to `c`'s fault plan.
    fn outage(c: &mut SimulationConfig, start_secs: f64, duration_secs: f64, fraction: f64) {
        c.faults.outages.push(OutageWindow { start_secs, duration_secs, fraction });
    }

    /// Arms `c`'s retransmit policy with the given backoff.
    fn retransmit(c: &mut SimulationConfig, backoff: f64) {
        c.faults.query_timeout = TimeoutPolicy { initial_secs: 10.0, backoff, max_retries: 2 };
    }

    #[test]
    fn fault_validation_catches_inconsistencies() {
        // The default plan is disabled and valid.
        let c = SimulationConfig::paper_defaults();
        assert!(c.faults.is_disabled());
        assert!(c.validate().is_ok());

        assert_rejections(&[
            (|c| c.faults.message_loss = -0.1, "faults.message_loss"),
            (|c| c.faults.message_loss = 1.01, "faults.message_loss"),
            (|c| outage(c, 100.0, -5.0, 0.5), "faults.outages[].duration_secs"),
            // Every window is checked, not only the first.
            (
                |c| {
                    outage(c, 0.0, 5.0, 0.5);
                    outage(c, 0.0, 5.0, -0.5);
                },
                "faults.outages[].fraction",
            ),
            (|c| retransmit(c, f64::NAN), "faults.query_timeout.backoff"),
            // A disabled policy's backoff must still be finite.
            (|c| c.faults.query_timeout.backoff = f64::INFINITY, "faults.query_timeout.backoff"),
        ]);

        // The conditional rules: a disabled policy admits a backoff below 1,
        // and the mean dwells are checked only when some peer churns.
        let mut c = SimulationConfig::paper_defaults();
        c.faults.query_timeout.backoff = 0.5;
        c.churn = ChurnConfig { mean_session_secs: f64::NAN, mean_offline_secs: -1.0, churning_fraction: 0.0 };
        assert_eq!(c.validate(), Ok(()));
        c.churn.churning_fraction = 0.5;
        assert_eq!(out_of_range(&c), "churn.mean_session_secs");

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
    fn fault_config_rejections_are_typed() {
        let mut c = SimulationConfig::paper_defaults();
        c.faults.message_loss = 1.5;
        let admits = Admits::UnitInterval;
        assert_eq!(c.validate(), Err(ConfigError::OutOfRange { knob: "faults.message_loss", value: 1.5, admits }));

        assert_rejections(&[
            (|c| c.faults.message_loss = f64::NAN, "faults.message_loss"),
            (|c| outage(c, -1.0, 5.0, 0.5), "faults.outages[].start_secs"),
            (|c| outage(c, 0.0, 0.0, 0.5), "faults.outages[].duration_secs"),
            (|c| outage(c, 0.0, 5.0, 2.0), "faults.outages[].fraction"),
            (|c| c.faults.dht_step_timeout_secs = f64::NEG_INFINITY, "faults.dht_step_timeout_secs"),
            (|c| c.faults.dht_step_timeout_secs = f64::NAN, "faults.dht_step_timeout_secs"),
            (|c| c.faults.dht_step_timeout_secs = -1.0, "faults.dht_step_timeout_secs"),
        ]);
    }

    #[test]
    fn timeout_policy_rejections_are_typed() {
        assert_rejections(&[
            (|c| c.faults.query_timeout.initial_secs = -1.0, "faults.query_timeout.initial_secs"),
            (|c| retransmit(c, 0.5), "faults.query_timeout.backoff"),
            (|c| retransmit(c, f64::INFINITY), "faults.query_timeout.backoff"),
        ]);
    }

    #[test]
    fn fault_errors_display_their_values_and_box_as_std_errors() {
        let mut c = SimulationConfig::paper_defaults();
        c.faults.message_loss = 2.0;
        let err = c.validate().unwrap_err();
        assert_eq!(err.to_string(), "faults.message_loss must be in [0, 1]: got 2");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("loss"));

        let mut c = SimulationConfig::paper_defaults();
        retransmit(&mut c, 0.25);
        assert!(c.validate().unwrap_err().to_string().contains("0.25"));
    }

    #[test]
    fn periods_that_cannot_advance_a_schedule_are_rejected() {
        // NaN slips past a `<= 0.0` test and a sub-microsecond period rounds
        // to a zero `Duration`; either would hang the engine's schedule loop.
        type Set = fn(&mut SimulationConfig, f64);
        let periods: [(Set, &str); 3] = [
            (|c, bad| c.bloom_sync_period_secs = bad, "bloom_sync_period_secs"),
            (|c, bad| c.dht.republish_period_secs = bad, "dht.republish_period_secs"),
            (|c, bad| c.dht.record_ttl_secs = bad, "dht.record_ttl_secs"),
        ];
        for bad in [1e-7, f64::NAN, f64::INFINITY] {
            for (set, knob) in periods {
                let mut c = SimulationConfig::paper_defaults();
                set(&mut c, bad);
                assert_eq!(out_of_range(&c), knob, "{knob} = {bad}");
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
        let admits = Admits::Count { lo: 1, hi: u32::MAX.into() };
        let value = c.bloom_bits as f64;
        assert_eq!(c.validate(), Err(ConfigError::OutOfRange { knob: "bloom_bits", value, admits }));
        c.bloom_bits = u32::MAX as usize;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn dht_validation_catches_inconsistencies() {
        assert_rejections(&[
            (|c| c.dht.k = 0, "dht.k"),
            (|c| c.dht.alpha = 0, "dht.alpha"),
            (|c| c.dht.max_lookup_hops = 0, "dht.max_lookup_hops"),
            (|c| c.dht.max_record_bytes = 10, "dht.max_record_bytes"),
            (|c| c.dht.max_record_bytes = RECORD_KEY_BYTES + RECORD_ENTRY_BYTES - 1, "dht.max_record_bytes"),
            (|c| c.dht.republish_period_secs = 0.0, "dht.republish_period_secs"),
            (|c| c.dht.record_ttl_secs = f64::INFINITY, "dht.record_ttl_secs"),
            (|c| c.dht.hybrid_head_fraction = 1.5, "dht.hybrid_head_fraction"),
        ]);
        // The smallest cap holds a record's key and one entry.
        let mut c = SimulationConfig::paper_defaults();
        c.dht.max_record_bytes = RECORD_KEY_BYTES + RECORD_ENTRY_BYTES;
        assert_eq!(c.validate(), Ok(()));
    }

    /// Every field is classified: a [`KNOBS`] row, a check that spans several
    /// knobs, or not range-checked, with the reason. The destructuring names
    /// every field with no `..`, and each binding must be listed, so a new
    /// field does not compile (or, under clippy, does not pass) until it is
    /// classified here.
    #[test]
    fn every_field_is_classified() {
        #[derive(Debug, PartialEq)]
        enum Class {
            Row,
            Cross,
            Unchecked(&'static str),
        }
        use Class::*;
        let SimulationConfig {
            seed,
            peers,
            average_degree,
            graph_model,
            ttl,
            min_latency_ms,
            max_latency_ms,
            placement: PlacementModel { clusters, sigma },
            landmarks,
            file_pool,
            keyword_pool,
            keywords_per_file,
            files_per_peer,
            zipf_exponent,
            min_query_keywords,
            max_query_keywords,
            query_rate_per_peer,
            arrival_schedule,
            cluster_weights,
            group_count,
            response_index_capacity,
            max_providers_per_file,
            max_providers_per_response,
            bloom_bits,
            bloom_hashes,
            bloom_sync_period_secs,
            dht:
                DhtConfig {
                    k,
                    alpha,
                    max_record_bytes,
                    record_ttl_secs,
                    republish_period_secs,
                    max_lookup_hops,
                    hybrid_head_fraction,
                },
            churn: ChurnConfig { mean_session_secs, mean_offline_secs, churning_fraction },
            faults:
                FaultConfig {
                    message_loss,
                    outages,
                    crash_stop,
                    query_timeout: TimeoutPolicy { initial_secs, backoff, max_retries },
                    dht_step_timeout_secs,
                },
            shards,
        } = armed();
        let OutageWindow { start_secs, duration_secs, fraction } = outages[0];
        // A burst's fields are bound with a `burst_` prefix, beside the outage's.
        let ArrivalSchedule::Burst {
            multiplier: burst_multiplier,
            start_secs: burst_start_secs,
            duration_secs: burst_duration_secs,
        } = arrival_schedule
        else {
            panic!("the armed base bursts");
        };
        macro_rules! classes {
            ($($field:ident: $class:expr),* $(,)?) => {
                [$({
                    let _ = &$field;
                    (stringify!($field), $class)
                }),*]
            };
        }
        let classes = classes![
            seed: Unchecked("every seed names a run"),
            peers: Row,
            average_degree: Row,
            graph_model: Unchecked("one model, no parameters"),
            ttl: Row,
            min_latency_ms: Row,
            max_latency_ms: Row,
            clusters: Row,
            sigma: Row,
            landmarks: Row,
            file_pool: Row,
            keyword_pool: Row,
            keywords_per_file: Row,
            files_per_peer: Cross,
            zipf_exponent: Row,
            min_query_keywords: Cross,
            max_query_keywords: Cross,
            query_rate_per_peer: Row,
            arrival_schedule: Unchecked("either schedule runs; a burst's fields are rows"),
            burst_multiplier: Row,
            burst_start_secs: Row,
            burst_duration_secs: Row,
            cluster_weights: Cross,
            group_count: Row,
            response_index_capacity: Row,
            max_providers_per_file: Row,
            max_providers_per_response: Row,
            bloom_bits: Row,
            bloom_hashes: Row,
            bloom_sync_period_secs: Row,
            k: Row,
            alpha: Row,
            max_record_bytes: Row,
            record_ttl_secs: Row,
            republish_period_secs: Row,
            max_lookup_hops: Row,
            hybrid_head_fraction: Row,
            mean_session_secs: Row,
            mean_offline_secs: Row,
            churning_fraction: Row,
            message_loss: Row,
            outages: Unchecked("any number of windows; each window's fields are rows"),
            start_secs: Row,
            duration_secs: Row,
            fraction: Row,
            crash_stop: Unchecked("either departure mode runs"),
            initial_secs: Row,
            backoff: Row,
            max_retries: Cross,
            dht_step_timeout_secs: Row,
            shards: Unchecked("clamped to 1..=peers at run time"),
        ];
        let leaf = |name: &'static str| match name.strip_prefix("arrival_schedule.") {
            Some(field) => format!("burst_{field}"),
            None => name.rsplit('.').next().unwrap_or(name).to_string(),
        };
        let rows: std::collections::BTreeSet<_> = KNOBS.iter().map(|row| leaf(row.name)).collect();
        let classified: std::collections::BTreeSet<_> =
            classes.iter().filter(|(_, class)| *class == Row).map(|(name, _)| name.to_string()).collect();
        assert_eq!(rows, classified, "KNOBS rows and the fields classified as rows differ");
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

    /// `small(40)` with every axis armed — a burst, churn-storm churn, loss
    /// with one outage, retransmits and a DHT step timeout — so every
    /// [`KNOBS`] row applies and the knob under test is the one that decides.
    fn armed() -> SimulationConfig {
        SimulationConfig {
            arrival_schedule: burst(5.0, 60.0, 600.0),
            churn: storm(),
            faults: FaultConfig {
                message_loss: 0.2,
                outages: vec![OutageWindow { start_secs: 30.0, duration_secs: 60.0, fraction: 0.5 }],
                crash_stop: false,
                query_timeout: TimeoutPolicy { initial_secs: 5.0, backoff: 2.0, max_retries: 2 },
                dht_step_timeout_secs: 2.0,
            },
            ..SimulationConfig::small(40)
        }
    }

    /// The armed base with `row` set to `value`. A value the row does not
    /// admit must fail validation as `OutOfRange` naming the row, which also
    /// catches a row that writes one field and reads another.
    fn swept(row: &Knob, value: f64) -> SimulationConfig {
        let mut config = armed();
        (row.write)(&mut config, value);
        if !row.admits.contains(value) {
            let error = config.validate();
            let named = matches!(error, Err(ConfigError::OutOfRange { knob, .. }) if knob == row.name);
            assert!(named, "{} = {value}: {error:?}", row.name);
        }
        config
    }

    /// Every float row of [`KNOBS`] at NaN, −1, ∞, 0, 10¹⁸ and 1.8·10¹³
    /// (which fits the clock on its own) either fails validation or runs: a
    /// config `validate()` accepts builds a 40-peer substrate and carries 20
    /// queries of `hybrid` and of `flooding` without a panic.
    #[test]
    fn every_float_knob_fails_validation_or_runs() {
        let base = armed();
        assert_eq!(base.validate(), Ok(()));
        for row in KNOBS {
            if let Read::Config(read) = row.read {
                assert!(read(&base).is_some(), "{} does not apply to the armed base", row.name);
            }
        }
        let mut panicked = Vec::new();
        for value in [f64::NAN, -1.0, f64::INFINITY, 0.0, 1e18, 1.8e13] {
            for row in KNOBS.iter().filter(|row| !matches!(row.admits, Admits::Count { .. })) {
                if !fails_validation_or_runs(swept(row, value), 20) {
                    panicked.push(format!("{} = {value}", row.name));
                }
            }
        }
        assert!(panicked.is_empty(), "validated configs panicked: {panicked:?}");
    }

    /// Every count row of [`KNOBS`] at 0, 1, its lower bound and the count
    /// below it, and one past its upper bound, and the integer and degenerate
    /// edges no row covers — a lone peer, no queries, more shards than peers,
    /// every message lost, every peer crashed — each fail validation or run
    /// to a report.
    #[test]
    fn every_integer_edge_fails_validation_or_runs() {
        let mut panicked = Vec::new();
        for row in KNOBS {
            let Admits::Count { lo, hi } = row.admits else { continue };
            let mut values = vec![0, 1, lo - 1, lo];
            values.extend(hi.checked_add(1));
            values.sort_unstable();
            values.dedup();
            for value in values {
                if !fails_validation_or_runs(swept(row, value as f64), 20) {
                    panicked.push(format!("{} = {value}", row.name));
                }
            }
            // The largest admitted count is only validated: `u32::MAX` Bloom
            // bits are admitted but do not fit in memory.
            if hi < u64::MAX {
                let mut config = armed();
                (row.write)(&mut config, hi as f64);
                assert_eq!(config.validate(), Ok(()), "{} = {hi}", row.name);
            }
        }
        type Edge = fn(&mut SimulationConfig);
        let edges: [(&str, Edge, usize); 5] = [
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
        ];
        for (name, edge, queries) in edges {
            let mut config = SimulationConfig::small(40);
            edge(&mut config);
            if !fails_validation_or_runs(config, queries) {
                panicked.push(name.to_string());
            }
        }
        assert!(panicked.is_empty(), "validated configs panicked: {panicked:?}");
    }
}
