//! Query arrival process.
//!
//! §5.1 fixes the arrival rate at *0.00083 queries per second per peer*. The
//! aggregate process over `N` peers is Poisson with rate `N × 0.00083`; each
//! arrival is attributed to a uniformly random peer. [`ArrivalProcess`]
//! generates the `(time, peer)` sequence up to a fixed number of queries (the
//! figures sweep the *number of queries*).
//!
//! ## Bursts
//!
//! The paper's evaluation is steady-state; the flash-crowd preset adds one
//! non-stationary regime. [`ArrivalSchedule`] is therefore either
//! [`Steady`](ArrivalSchedule::Steady), the paper's constant rate, or
//! [`Burst`](ArrivalSchedule::Burst), which multiplies the rate inside one
//! window. A burst compiles to at most two constant-rate segments (a unit
//! lead-in, then the window) followed by the unit tail, and generation uses
//! the time-scaling (inverse-cumulative-hazard) construction of a
//! non-homogeneous Poisson process: each arrival consumes exactly one
//! unit-exponential draw, mapped through the inverse of
//! `Λ(t) = ∫₀ᵗ λ(u) du`, which on a constant segment is one division. For
//! `Steady` the mapping degenerates to the paper's constant-rate loop and is
//! executed **bit-for-bit identically** to the original implementation (same
//! RNG draws, same floating-point operations), so an omitted schedule
//! reproduces historical runs exactly.
//!
//! Validation is the simulation layer's: `SimulationConfig::validate` checks
//! the rate and each burst field as a knob of its own, the origin clusters
//! against the population, and whether a burst's end fits the microsecond
//! clock, so [`ArrivalProcess::new`] only `debug_assert!`s its precondition.
//!
//! ## Weighted origins
//!
//! Arrival *attribution* (which peer issues the query) is uniform by default;
//! with [`ArrivalConfig::origin_weights`] set, origins are drawn from the
//! weighted contiguous peer clusters of a [`ClusterWeights`], so hotspot
//! regimes can concentrate query load on the same peer ranges in which
//! [`InitialPlacement`](crate::placement::InitialPlacement) concentrates
//! storage.

use locaware_sim::{Duration, SimTime};
use rand::Rng;

use crate::placement::ClusterWeights;

/// One query arrival: when and at which peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The time the query is issued.
    pub at: SimTime,
    /// The peer issuing it (index into the peer population).
    pub peer: usize,
}

/// A rate profile modulating the base arrival rate over time.
///
/// Every variant multiplies [`ArrivalConfig::aggregate_rate`]; after the
/// profile's span the rate returns to the base rate, so count-bounded
/// generation always terminates.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArrivalSchedule {
    /// The paper's homogeneous process: the base rate at all times. Omitting
    /// a schedule means `Steady`, and `Steady` reproduces the legacy
    /// constant-rate generator bit-for-bit.
    #[default]
    Steady,
    /// The rate is the base rate except in the window
    /// `[start_secs, start_secs + duration_secs)`, where it is multiplied by
    /// `multiplier` (a flash crowd for `multiplier > 1`, an outage for
    /// `multiplier < 1`).
    Burst {
        /// Rate multiplier inside the burst window.
        multiplier: f64,
        /// Burst start in seconds (0 starts the run bursting).
        start_secs: f64,
        /// Burst length in seconds.
        duration_secs: f64,
    },
}

impl ArrivalSchedule {
    /// True for the homogeneous (legacy) profile.
    pub fn is_steady(&self) -> bool {
        matches!(self, ArrivalSchedule::Steady)
    }

    /// The intrinsic span of the non-steady part of the profile, in seconds:
    /// the time after which the rate is constant forever. `None` for
    /// [`ArrivalSchedule::Steady`], which has no intrinsic span.
    ///
    /// Horizon computations (e.g. the churn schedule) must cover at least
    /// this span — under a burst followed by a quiet tail, the last *arrival*
    /// can fall well before the end of the schedule.
    pub fn span_secs(&self) -> Option<f64> {
        match self {
            ArrivalSchedule::Steady => None,
            ArrivalSchedule::Burst { start_secs, duration_secs, .. } => {
                Some(start_secs + duration_secs)
            }
        }
    }

    /// Compiles the profile into back-to-back constant-rate segments from
    /// time zero; the base rate holds after the last. Empty for `Steady`.
    fn segments(&self) -> Vec<Segment> {
        let ArrivalSchedule::Burst { multiplier, start_secs, duration_secs } = *self else {
            return Vec::new();
        };
        let mut segments = Vec::with_capacity(2);
        if start_secs > 0.0 {
            segments.push(Segment { end_secs: start_secs, multiplier: 1.0 });
        }
        segments.push(Segment { end_secs: start_secs + duration_secs, multiplier });
        segments
    }
}

/// One compiled schedule segment: a constant multiplier up to `end_secs`,
/// starting where the previous segment (or time zero) ends.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    end_secs: f64,
    multiplier: f64,
}

/// Configuration of the arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Number of peers in the population.
    pub peers: usize,
    /// Base per-peer query rate in queries per second (paper: 0.00083).
    pub rate_per_peer: f64,
    /// Rate profile over time (default: the paper's homogeneous process).
    pub schedule: ArrivalSchedule,
    /// Optional per-cluster weighting of which peers issue queries; `None`
    /// attributes arrivals uniformly, exactly like the paper.
    pub origin_weights: Option<ClusterWeights>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            peers: 1000,
            rate_per_peer: crate::PAPER_QUERY_RATE_PER_PEER,
            schedule: ArrivalSchedule::Steady,
            origin_weights: None,
        }
    }
}

impl ArrivalConfig {
    /// The aggregate base Poisson rate over the whole population
    /// (queries/second), before schedule modulation.
    pub fn aggregate_rate(&self) -> f64 {
        self.peers as f64 * self.rate_per_peer
    }
}

/// Generates (possibly bursty) Poisson query arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    config: ArrivalConfig,
    segments: Vec<Segment>,
}

impl ArrivalProcess {
    /// Creates an arrival process over a validated configuration: at least
    /// one peer, a positive finite rate, a burst with a positive finite
    /// multiplier and length and a finite non-negative start, and no more
    /// origin clusters than peers.
    pub fn new(config: ArrivalConfig) -> Self {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        debug_assert!(
            config.peers > 0
                && positive(config.rate_per_peer)
                && config.origin_weights.as_ref().is_none_or(|w| w.clusters() <= config.peers)
                && match config.schedule {
                    ArrivalSchedule::Steady => true,
                    ArrivalSchedule::Burst { multiplier, start_secs, duration_secs } => {
                        positive(multiplier) && positive(duration_secs) && start_secs >= 0.0 && start_secs.is_finite()
                    }
                },
            "arrival configuration out of range (validate the config first): {config:?}"
        );
        let segments = config.schedule.segments();
        ArrivalProcess { config, segments }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// Generates exactly `count` arrivals starting from time zero. Per
    /// arrival: draw the inter-arrival time, then the origin. The `Steady`
    /// path is the original constant-rate loop preserved
    /// operation-for-operation so legacy schedules replay bit-identically;
    /// a burst maps the identical unit exponential draws through the inverse
    /// cumulative hazard of its compiled segments.
    ///
    /// # Panics
    /// Panics, naming the rate and `count`, when the arrivals run past the
    /// end of the microsecond clock.
    pub fn generate_count<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Arrival> {
        let rate = self.config.aggregate_rate();
        let mut out = Vec::with_capacity(count);
        if self.config.schedule.is_steady() {
            let mut now = SimTime::ZERO;
            for _ in 0..count {
                let gap = Duration::try_from_secs_f64(exponential(rng, 1.0 / rate));
                let Some(next) = gap.and_then(|gap| now.checked_add(gap)) else {
                    self.past_the_clock(count)
                };
                now = next;
                let peer = self.sample_origin(rng);
                out.push(Arrival { at: now, peer });
            }
            return out;
        }
        let mut t_secs = 0.0f64;
        let mut segment_index = 0usize;
        for _ in 0..count {
            let hazard = exponential(rng, 1.0);
            t_secs = self.invert_hazard(t_secs, hazard, rate, &mut segment_index);
            let Some(since_start) = Duration::try_from_secs_f64(t_secs) else {
                self.past_the_clock(count)
            };
            let peer = self.sample_origin(rng);
            out.push(Arrival { at: SimTime::ZERO + since_start, peer });
        }
        out
    }

    /// The panic of a `count`-arrival schedule past the end of the clock.
    fn past_the_clock(&self, count: usize) -> ! {
        panic!(
            "{count} queries at {} queries/s per peer do not fit the simulation clock",
            self.config.rate_per_peer
        )
    }

    /// Advances from `t_secs` until `hazard` units of cumulative hazard have
    /// accrued under the piecewise-constant rate `base_rate × multiplier(t)`.
    fn invert_hazard(
        &self,
        mut t_secs: f64,
        mut hazard: f64,
        base_rate: f64,
        segment_index: &mut usize,
    ) -> f64 {
        while let Some(segment) = self.segments.get(*segment_index) {
            if t_secs < segment.end_secs {
                let rate = base_rate * segment.multiplier;
                let remaining = segment.end_secs - t_secs;
                let hazard_to_end = rate * remaining;
                if hazard <= hazard_to_end {
                    let step = hazard / rate;
                    return t_secs + step.min(remaining);
                }
                hazard -= hazard_to_end;
                t_secs = segment.end_secs;
            }
            *segment_index += 1;
        }
        // Past every segment: the base rate.
        t_secs + hazard / base_rate
    }

    /// Draws the issuing peer: uniform (one `gen_range` draw, exactly the
    /// legacy attribution) or cluster-weighted (one uniform draw to pick the
    /// cluster, one `gen_range` within it).
    fn sample_origin<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match &self.config.origin_weights {
            None => rng.gen_range(0..self.config.peers),
            Some(weights) => {
                let cluster = weights.sample_cluster(rng);
                let range = weights.peer_range(cluster, self.config.peers);
                rng.gen_range(range)
            }
        }
    }
}

/// Exponential sample with the given mean via inverse-CDF.
fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn steady_config(peers: usize, rate: f64) -> ArrivalConfig {
        ArrivalConfig {
            peers,
            rate_per_peer: rate,
            ..ArrivalConfig::default()
        }
    }

    #[test]
    fn count_bounded_generation_is_monotone_and_sized() {
        let p = ArrivalProcess::new(ArrivalConfig::default());
        let arrivals = p.generate_count(500, &mut StdRng::seed_from_u64(1));
        assert_eq!(arrivals.len(), 500);
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at, "arrival times must be non-decreasing");
        }
        for a in &arrivals {
            assert!(a.peer < 1000);
        }
        assert!(p.generate_count(0, &mut StdRng::seed_from_u64(1)).is_empty());
    }

    #[test]
    fn aggregate_rate_matches_paper_numbers() {
        let cfg = ArrivalConfig::default();
        // 1000 peers × 0.00083 q/s = 0.83 q/s for the whole system.
        assert!((cfg.aggregate_rate() - 0.83).abs() < 1e-9);
    }

    #[test]
    fn inter_arrival_mean_matches_rate() {
        let p = ArrivalProcess::new(ArrivalConfig::default());
        let arrivals = p.generate_count(20_000, &mut StdRng::seed_from_u64(3));
        let total = arrivals.last().unwrap().at.as_secs_f64();
        let mean_gap = total / arrivals.len() as f64;
        let expected_gap = 1.0 / p.config().aggregate_rate();
        assert!(
            (mean_gap - expected_gap).abs() < expected_gap * 0.05,
            "mean gap {mean_gap}, expected {expected_gap}"
        );
    }

    #[test]
    fn peers_are_hit_roughly_uniformly() {
        let p = ArrivalProcess::new(steady_config(10, 0.01));
        let arrivals = p.generate_count(10_000, &mut StdRng::seed_from_u64(4));
        let mut counts = [0usize; 10];
        for a in &arrivals {
            counts[a.peer] += 1;
        }
        for (peer, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "peer {peer} issued {c} of 10000 queries; expected ≈1000"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ArrivalProcess::new(ArrivalConfig::default());
        let a = p.generate_count(100, &mut StdRng::seed_from_u64(5));
        let b = p.generate_count(100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn steady_schedule_is_bit_identical_to_the_legacy_generator() {
        // The legacy constant-rate loop, reproduced verbatim: any divergence
        // in RNG consumption or floating-point evaluation order would change
        // historical fingerprints.
        fn legacy(peers: usize, rate_per_peer: f64, count: usize, seed: u64) -> Vec<Arrival> {
            let mut rng = StdRng::seed_from_u64(seed);
            let rate = peers as f64 * rate_per_peer;
            let mut now = SimTime::ZERO;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                now += Duration::from_secs_f64(exponential(&mut rng, 1.0 / rate));
                out.push(Arrival {
                    at: now,
                    peer: rng.gen_range(0..peers),
                });
            }
            out
        }
        for (peers, rate, seed) in [(1000, 0.00083, 7u64), (60, 0.013, 11), (3, 2.0, 99)] {
            let p = ArrivalProcess::new(steady_config(peers, rate));
            let modern = p.generate_count(400, &mut StdRng::seed_from_u64(seed));
            assert_eq!(modern, legacy(peers, rate, 400, seed));
        }
    }

    #[test]
    fn burst_concentrates_arrivals_inside_the_window() {
        let config = ArrivalConfig {
            peers: 100,
            rate_per_peer: 0.001,
            schedule: ArrivalSchedule::Burst {
                multiplier: 50.0,
                start_secs: 1000.0,
                duration_secs: 2000.0,
            },
            origin_weights: None,
        };
        let p = ArrivalProcess::new(config);
        let arrivals = p.generate_count(2000, &mut StdRng::seed_from_u64(6));
        let inside = arrivals
            .iter()
            .filter(|a| {
                let t = a.at.as_secs_f64();
                (1000.0..3000.0).contains(&t)
            })
            .count();
        // Base rate 0.1 q/s: the 1000 s lead-in yields ~100 arrivals, the
        // 2000 s burst at 5 q/s yields ~10 000, so the 2000-query run sits
        // almost entirely inside the window.
        assert!(
            inside as f64 > arrivals.len() as f64 * 0.9,
            "only {inside} of {} arrivals fell inside the burst window",
            arrivals.len()
        );
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at, "burst arrivals must stay time-sorted");
        }
    }

    #[test]
    fn phases_hit_their_expected_per_phase_counts() {
        // A burst has three phases: the unit lead-in, the window and the
        // unit tail after it.
        let config = ArrivalConfig {
            peers: 100,
            rate_per_peer: 0.01, // base 1 q/s
            schedule: ArrivalSchedule::Burst {
                multiplier: 10.0,
                start_secs: 1000.0,
                duration_secs: 1000.0,
            },
            origin_weights: None,
        };
        let p = ArrivalProcess::new(config);
        // ~12 000 arrivals are due by 3000 s; 14 000 carry the run past it.
        let arrivals = p.generate_count(14_000, &mut StdRng::seed_from_u64(8));
        assert!(arrivals.last().unwrap().at.as_secs_f64() > 3000.0);
        let mut counts = [0usize; 3];
        for a in arrivals.iter().filter(|a| a.at.as_secs_f64() < 3000.0) {
            counts[(a.at.as_secs_f64() / 1000.0) as usize] += 1;
        }
        // Expected 1000 / 10000 / 1000 per phase; allow generous Poisson noise.
        assert!((800..1200).contains(&counts[0]), "lead-in: {}", counts[0]);
        assert!((9300..10700).contains(&counts[1]), "window: {}", counts[1]);
        assert!((800..1200).contains(&counts[2]), "tail: {}", counts[2]);
    }

    #[test]
    fn schedule_spans_cover_trailing_quiet_phases() {
        assert_eq!(ArrivalSchedule::Steady.span_secs(), None);
        assert_eq!(
            ArrivalSchedule::Burst {
                multiplier: 25.0,
                start_secs: 600.0,
                duration_secs: 1800.0
            }
            .span_secs(),
            Some(2400.0)
        );
        assert_eq!(
            ArrivalSchedule::Burst {
                multiplier: 1e-9,
                start_secs: 300.0,
                duration_secs: 3600.0
            }
            .span_secs(),
            Some(3900.0)
        );
    }

    #[test]
    fn weighted_origins_concentrate_attribution() {
        let weights = ClusterWeights::new(vec![8.0, 1.0, 1.0]).unwrap();
        let config = ArrivalConfig {
            peers: 90,
            rate_per_peer: 0.01,
            schedule: ArrivalSchedule::Steady,
            origin_weights: Some(weights),
        };
        let p = ArrivalProcess::new(config);
        let arrivals = p.generate_count(10_000, &mut StdRng::seed_from_u64(10));
        let hot = arrivals.iter().filter(|a| a.peer < 30).count();
        let share = hot as f64 / arrivals.len() as f64;
        assert!(
            (0.75..0.85).contains(&share),
            "hot cluster should issue ~80% of queries, got {share}"
        );
        for a in &arrivals {
            assert!(a.peer < 90);
        }
        // Weighted attribution stays deterministic per seed.
        let again = p.generate_count(10_000, &mut StdRng::seed_from_u64(10));
        assert_eq!(arrivals, again);
    }

    /// At 1e-15 queries/s per peer on 40 peers the mean gap (2.5·10¹³ s)
    /// is past the microsecond clock: both the steady and the burst path
    /// refuse 20 arrivals with one message naming the rate and the count.
    #[test]
    fn both_paths_refuse_arrivals_past_the_clock() {
        let burst = ArrivalSchedule::Burst { multiplier: 2.0, start_secs: 0.0, duration_secs: 60.0 };
        for schedule in [ArrivalSchedule::Steady, burst] {
            let p = ArrivalProcess::new(ArrivalConfig { schedule, ..steady_config(40, 1e-15) });
            let refused = std::panic::catch_unwind(|| p.generate_count(20, &mut StdRng::seed_from_u64(1)));
            let message = refused.unwrap_err().downcast::<String>().unwrap();
            assert_eq!(
                *message,
                "20 queries at 0.000000000000001 queries/s per peer do not fit the simulation clock"
            );
        }
    }
}
