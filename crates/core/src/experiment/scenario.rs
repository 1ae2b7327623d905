//! Named, validated simulation scenarios.
//!
//! A [`Scenario`] is a [`SimulationConfig`] that has already passed
//! validation, plus a stable name used to label experiment output. Scenarios
//! are the only inputs the [`Runner`](crate::experiment::Runner) accepts, so
//! every substrate an experiment builds is known-consistent *by type*: the
//! fallible step is [`Scenario::from_config`], which returns a
//! [`ConfigError`] instead of panicking deep inside substrate construction.
//! A custom scenario is a [`SimulationConfig`] literal over a preset's
//! configuration — `SimulationConfig { seed, churn, ..SimulationConfig::small(peers) }`
//! — so there is one spelling of every knob, the config's own field.
//!
//! Beyond the paper's own setup ([`Scenario::paper_defaults`]) and its scaled
//! miniature ([`Scenario::small`]), three extension regimes stress the cases
//! the search-and-replication literature flags for unstructured overlays:
//! [`Scenario::flash_crowd`], [`Scenario::churn_storm`] and
//! [`Scenario::regional_hotspot`]. Each is seeded, documented and
//! deterministic: the same preset always describes the same system.

use locaware_net::brite::PlacementModel;
use locaware_overlay::ChurnConfig;
use locaware_workload::{ArrivalSchedule, ClusterWeights, FaultConfig, OutageWindow, TimeoutPolicy};

use crate::config::{ConfigError, SimulationConfig};
use crate::simulation::Simulation;

/// How far above the paper's steady per-peer query rate the
/// [`Scenario::flash_crowd`] regime bursts while its burst window is open.
pub const FLASH_CROWD_RATE_MULTIPLIER: f64 = 25.0;

/// When the [`Scenario::flash_crowd`] burst opens, in simulated seconds: a
/// steady lead-in long enough for caches to hold a pre-crowd population.
pub const FLASH_CROWD_BURST_START_SECS: f64 = 600.0;

/// How long the [`Scenario::flash_crowd`] burst window stays open. At the
/// paper's base rate this window absorbs the overwhelming majority of any
/// count-bounded run that outlasts the lead-in.
pub const FLASH_CROWD_BURST_DURATION_SECS: f64 = 3600.0;

/// The per-cluster origin/storage weights of [`Scenario::regional_hotspot`]:
/// the first (locality-sorted) third of the population carries 6× the mass of
/// each other third — 75% of initial replicas and query origins.
pub const REGIONAL_HOTSPOT_WEIGHTS: [f64; 3] = [6.0, 1.0, 1.0];

/// The independent per-message loss rate of [`Scenario::faulty_network`]:
/// 5% — lossy enough that multi-hop query trees shed branches, mild enough
/// that retransmits recover most of them.
const FAULTY_NETWORK_LOSS: f64 = 0.05;

/// When the [`Scenario::faulty_network`] outage window opens (simulated
/// seconds): deep inside the workload, after caches and indexes have formed.
const FAULTY_NETWORK_OUTAGE_START_SECS: f64 = 300.0;

/// How long the [`Scenario::faulty_network`] outage lasts.
const FAULTY_NETWORK_OUTAGE_DURATION_SECS: f64 = 120.0;

/// The fraction of links the [`Scenario::faulty_network`] outage silences
/// while the window is open.
const FAULTY_NETWORK_OUTAGE_FRACTION: f64 = 0.3;

/// A named, validated simulation configuration.
///
/// Construction always goes through validation — via the presets or via
/// [`Scenario::from_config`] — so holding a
/// `Scenario` is proof the configuration is internally consistent and
/// [`Scenario::substrate`] cannot fail. (Deliberately not deserializable:
/// decoding a scenario from bytes would bypass that validation; deserialize a
/// [`SimulationConfig`] and go through [`Scenario::from_config`] instead.)
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    config: SimulationConfig,
}

impl Scenario {
    /// The names of the built-in presets, in the order they are documented:
    /// `paper-defaults`, `small`, `flash-crowd`, `churn-storm`,
    /// `regional-hotspot`, `faulty-network`, `large-10k`.
    pub const PRESET_NAMES: [&'static str; 7] = [
        "paper-defaults",
        "small",
        "flash-crowd",
        "churn-storm",
        "regional-hotspot",
        "faulty-network",
        "large-10k",
    ];

    /// Wraps an explicit configuration, validating it first:
    ///
    /// ```
    /// use locaware::{ConfigError, Scenario, SimulationConfig};
    ///
    /// let config = SimulationConfig { seed: 7, ttl: 5, ..SimulationConfig::small(60) };
    /// let scenario = Scenario::from_config("demo", config).expect("consistent configuration");
    /// assert_eq!(scenario.config().ttl, 5);
    ///
    /// // Inconsistencies come back as typed errors instead of panics:
    /// let broken = SimulationConfig { ttl: 0, ..SimulationConfig::small(60) };
    /// let error = Scenario::from_config("broken", broken).unwrap_err();
    /// assert!(matches!(error, ConfigError::OutOfRange { knob: "ttl", .. }));
    /// ```
    pub fn from_config(
        name: impl Into<String>,
        config: SimulationConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Scenario { name: name.into(), config })
    }

    /// The paper's §5.1 setup: 1000 peers, static overlay, Zipf(1) workload.
    pub fn paper_defaults() -> Self {
        validated_preset("paper-defaults", SimulationConfig::paper_defaults())
    }

    /// The paper's setup scaled down to `peers` peers with every ratio kept;
    /// what tests and examples run so they finish in milliseconds.
    ///
    /// # Panics
    /// Panics unless `peers` exceeds the paper's average overlay degree of 3
    /// ([`SimulationConfig::small`] keeps that degree, and the population must
    /// be larger than the degree for the overlay to be wireable). Use
    /// [`Scenario::from_config`] for fallible construction.
    pub fn small(peers: usize) -> Self {
        validated_preset("small", SimulationConfig::small(peers))
    }

    /// Flash crowd: a hot keyword set absorbs most queries while arrivals
    /// burst far above the paper's steady rate — as a real
    /// [`ArrivalSchedule::Burst`], not a constant-rate approximation.
    ///
    /// The Zipf exponent is sharpened to 1.5 so the head of the popularity
    /// distribution behaves like a sudden hit (the paper's own motivation:
    /// "most queries request a few popular files"). The base rate stays at
    /// the paper's 0.00083 q/s/peer; after a
    /// [`FLASH_CROWD_BURST_START_SECS`]-second steady lead-in the rate
    /// multiplies by [`FLASH_CROWD_RATE_MULTIPLIER`] for
    /// [`FLASH_CROWD_BURST_DURATION_SECS`] seconds, compressing the bulk of
    /// the query volume into the window — the onset/offset structure the
    /// PR-2 constant-multiplier approximation could not express. Locaware's
    /// natural-replication tracking is exactly what this regime stresses:
    /// every satisfied download adds a replica the index can point later
    /// requestors at.
    pub fn flash_crowd(peers: usize) -> Self {
        let mut config = SimulationConfig::small(peers);
        config.seed = 0xF1A5_11C0;
        config.zipf_exponent = 1.5;
        config.arrival_schedule = ArrivalSchedule::Burst {
            multiplier: FLASH_CROWD_RATE_MULTIPLIER,
            start_secs: FLASH_CROWD_BURST_START_SECS,
            duration_secs: FLASH_CROWD_BURST_DURATION_SECS,
        };
        validated_preset("flash-crowd", config)
    }

    /// Churn storm: an aggressively dynamic population.
    ///
    /// Three quarters of the peers cycle through 5-minute sessions with
    /// 5-minute offline gaps — far harsher than measured Gnutella medians —
    /// so cached index entries go stale while queries are still in flight.
    /// This is the regime §4.1.2 worries about when it argues cached objects
    /// "should be kept for a small amount of time". Invalidation stays the
    /// paper's lazy filtering: departed providers are skipped at selection
    /// time.
    pub fn churn_storm(peers: usize) -> Self {
        let mut config = SimulationConfig::small(peers);
        config.seed = 0xC4A2_2222;
        config.churn = ChurnConfig {
            mean_session_secs: 300.0,
            mean_offline_secs: 300.0,
            churning_fraction: 0.75,
        };
        validated_preset("churn-storm", config)
    }

    /// Regional hotspot: physical placement collapsed into a few tight
    /// regions, with one region carrying most of the storage *and* most of
    /// the query load via weighted-cluster placement.
    ///
    /// Instead of the default 24 clusters, peers are packed into 3 very tight
    /// clusters (σ = 0.015), so landmark binning yields only a handful of
    /// distinct locIds and most peers share a locality. On top of that,
    /// [`REGIONAL_HOTSPOT_WEIGHTS`] concentrates 75% of the initial file
    /// copies and 75% of the query origins on the first locality-sorted third
    /// of the population — the hotspot is a physical region, not an id range.
    /// This is the best case for Locaware's location-aware provider selection
    /// — and the stress case for the locId cardinality assumptions of the
    /// routing tables.
    pub fn regional_hotspot(peers: usize) -> Self {
        let mut config = SimulationConfig::small(peers);
        config.seed = 0x4E61_0750;
        config.placement = PlacementModel {
            clusters: 3,
            sigma: 0.015,
        };
        config.cluster_weights = match ClusterWeights::new(REGIONAL_HOTSPOT_WEIGHTS.to_vec()) {
            Ok(weights) => Some(weights),
            // Unreachable: REGIONAL_HOTSPOT_WEIGHTS is a positive, finite
            // compile-time constant, and the preset test exercises this path.
            Err(err) => panic!("regional-hotspot weights must validate: {err:?}"),
        };
        validated_preset("regional-hotspot", config)
    }

    /// Faulty network: the static `small` substrate with every fault axis
    /// armed except crash-stop churn (there is no churn to crash).
    ///
    /// Messages drop independently at `FAULTY_NETWORK_LOSS`; a window of
    /// `FAULTY_NETWORK_OUTAGE_DURATION_SECS` seconds starting at
    /// `FAULTY_NETWORK_OUTAGE_START_SECS` silences
    /// `FAULTY_NETWORK_OUTAGE_FRACTION` of the links entirely. The
    /// protocols fight back with the resilience machinery this preset
    /// exists to exercise: unstructured queries retransmit on a 3 s deadline
    /// doubling per attempt (two retries), and iterative DHT lookup steps
    /// re-issue against the next shortlist candidate after 2 s. Every loss,
    /// deadline and retry is drawn from the seeded fault stream, so the
    /// preset is as deterministic — and as shard-invariant — as the clean
    /// ones.
    pub fn faulty_network(peers: usize) -> Self {
        let mut config = SimulationConfig::small(peers);
        config.seed = 0xFA_017_E47;
        config.faults = FaultConfig {
            message_loss: FAULTY_NETWORK_LOSS,
            outages: vec![OutageWindow {
                start_secs: FAULTY_NETWORK_OUTAGE_START_SECS,
                duration_secs: FAULTY_NETWORK_OUTAGE_DURATION_SECS,
                fraction: FAULTY_NETWORK_OUTAGE_FRACTION,
            }],
            crash_stop: false,
            query_timeout: TimeoutPolicy {
                initial_secs: 3.0,
                backoff: 2.0,
                max_retries: 2,
            },
            dht_step_timeout_secs: 2.0,
        };
        validated_preset("faulty-network", config)
    }

    /// Large scale: the paper's setup at frontier population (nominally 10⁴
    /// peers — the `peers` argument still scales it, so tests can validate
    /// the preset cheaply), steady arrivals, no churn, no faults. Carries
    /// its own regime seed so frontier runs never alias the paper-scale
    /// fingerprints. This is the preset `locaware-bench scale` and the
    /// weekly paper-scale workflow drive.
    pub fn large_10k(peers: usize) -> Self {
        let mut config = SimulationConfig::small(peers);
        config.seed = 0x5CA1_E4ED;
        validated_preset("large-10k", config)
    }

    /// Looks a preset up by its [`Scenario::PRESET_NAMES`] name, scaled to
    /// `peers` peers (`paper-defaults` ignores `peers`: it is the published
    /// 1000-peer setup by definition).
    pub fn preset(name: &str, peers: usize) -> Option<Self> {
        Some(match name {
            "paper-defaults" => Scenario::paper_defaults(),
            "small" => Scenario::small(peers),
            "flash-crowd" => Scenario::flash_crowd(peers),
            "churn-storm" => Scenario::churn_storm(peers),
            "regional-hotspot" => Scenario::regional_hotspot(peers),
            "faulty-network" => Scenario::faulty_network(peers),
            "large-10k" => Scenario::large_10k(peers),
            _ => return None,
        })
    }

    /// The scenario's name, used to label experiment output.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The validated configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The master seed of this scenario.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Returns the scenario with a different master seed (seeds never affect
    /// validity, so this cannot fail).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Returns the scenario renamed to `name`.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds the substrate. Infallible: the configuration was validated when
    /// the scenario was constructed.
    pub fn substrate(&self) -> Simulation {
        Simulation::from_scenario(self)
    }
}

/// Wraps a preset configuration, panicking if it fails validation.
///
/// Every preset is a compile-time-authored configuration, and
/// `every_preset_validates_and_has_a_distinct_seed` exercises each one, so
/// the panic is unreachable in a released tree. Concentrating the
/// deliberate panic here — instead of a per-preset `.expect(...)` — keeps
/// the constructors readable and the crate's `clippy::expect_used` lint
/// honest about how many independent panic decisions this module makes: one.
fn validated_preset(name: &'static str, config: SimulationConfig) -> Scenario {
    match Scenario::from_config(name, config) {
        Ok(scenario) => scenario,
        Err(err) => panic!("preset `{name}` must validate: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_and_has_a_distinct_seed() {
        let presets = [
            Scenario::paper_defaults(),
            Scenario::small(60),
            Scenario::flash_crowd(60),
            Scenario::churn_storm(60),
            Scenario::regional_hotspot(60),
            Scenario::faulty_network(60),
            Scenario::large_10k(60),
        ];
        // `small` intentionally keeps the paper seed (it is the paper's setup
        // scaled down); the five extension regimes each carry their own seed.
        let mut regime_seeds: Vec<u64> = presets[1..].iter().map(|s| s.seed()).collect();
        regime_seeds.sort_unstable();
        regime_seeds.dedup();
        assert_eq!(regime_seeds.len(), 6, "regime seeds must be distinct");
        for (scenario, expected_name) in presets.iter().zip(Scenario::PRESET_NAMES) {
            assert_eq!(scenario.name(), expected_name);
            assert!(scenario.config().validate().is_ok(), "{expected_name} must validate");
        }
    }

    #[test]
    fn preset_lookup_matches_the_name_table() {
        for name in Scenario::PRESET_NAMES {
            let scenario = Scenario::preset(name, 50).unwrap();
            assert_eq!(scenario.name(), name);
        }
        assert!(Scenario::preset("no-such-preset", 50).is_none());
    }

    #[test]
    fn preset_regimes_differ_from_the_paper_setup() {
        let small = Scenario::small(100);
        let flash = Scenario::flash_crowd(100);
        let storm = Scenario::churn_storm(100);
        let hotspot = Scenario::regional_hotspot(100);

        assert!(flash.config().zipf_exponent > small.config().zipf_exponent);
        // The flash crowd is a real burst primitive at the paper's base rate,
        // not a constant-rate multiplier.
        assert_eq!(
            flash.config().query_rate_per_peer,
            small.config().query_rate_per_peer
        );
        assert!(matches!(
            flash.config().arrival_schedule,
            ArrivalSchedule::Burst { multiplier, .. } if multiplier == FLASH_CROWD_RATE_MULTIPLIER
        ));
        assert!(small.config().arrival_schedule.is_steady());
        assert!(small.config().churn.is_disabled());
        assert!(!storm.config().churn.is_disabled());
        assert!(storm.config().arrival_schedule.is_steady());
        assert_eq!(hotspot.config().placement.clusters, 3);
        // The hotspot concentrates both storage and query origins.
        let weights = hotspot.config().cluster_weights.as_ref().expect("weighted clusters");
        assert_eq!(weights.weights(), &REGIONAL_HOTSPOT_WEIGHTS);
        assert!(small.config().cluster_weights.is_none());

        let faulty = Scenario::faulty_network(100);
        assert!(small.config().faults.is_disabled());
        assert!(!faulty.config().faults.is_disabled());
        assert_eq!(faulty.config().faults.message_loss, FAULTY_NETWORK_LOSS);
        assert_eq!(faulty.config().faults.outages.len(), 1);
        assert!(faulty.config().faults.query_timeout.is_enabled());
        assert!(faulty.config().faults.dht_step_timeout_secs > 0.0);
        assert!(!faulty.config().faults.crash_stop, "no churn to crash in this preset");
    }

    #[test]
    fn with_seed_and_with_name_override_without_revalidation() {
        let scenario = Scenario::small(40).with_seed(99).with_name("renamed");
        assert_eq!(scenario.seed(), 99);
        assert_eq!(scenario.name(), "renamed");
    }
}
