//! Query arrival process.
//!
//! §5.1 fixes the arrival rate at *0.00083 queries per second per peer*. The
//! aggregate process over `N` peers is Poisson with rate `N × 0.00083`; each
//! arrival is attributed to a uniformly random peer. [`ArrivalProcess`]
//! generates the `(time, peer)` sequence either up to a horizon or up to a
//! fixed number of queries (the figures sweep the *number of queries*, so the
//! count-bounded form is what the experiment harness uses).
//!
//! ## Non-homogeneous schedules
//!
//! The paper's evaluation is steady-state, but the regimes the
//! search-and-replication literature stresses — flash crowds, diurnal ramps —
//! are *bursty*. [`ArrivalSchedule`] makes the rate a first-class, validated
//! piecewise function of time: [`Steady`](ArrivalSchedule::Steady) is the
//! paper's constant rate, [`Ramp`](ArrivalSchedule::Ramp) interpolates the
//! rate linearly over a window, [`Burst`](ArrivalSchedule::Burst) multiplies
//! it inside a window, and [`Phases`](ArrivalSchedule::Phases) composes
//! arbitrary constant-rate segments. Generation uses the time-scaling
//! (inverse-cumulative-hazard) construction of a non-homogeneous Poisson
//! process: each arrival consumes exactly one unit-exponential draw which is
//! mapped through the inverse of `Λ(t) = ∫₀ᵗ λ(u) du`. For `Steady` the
//! mapping degenerates to the paper's constant-rate loop and is executed
//! **bit-for-bit identically** to the original implementation (same RNG
//! draws, same floating-point operations), so an omitted schedule reproduces
//! historical runs exactly.
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

/// One constant-rate segment of an [`ArrivalSchedule::Phases`] schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePhase {
    /// Rate multiplier applied to the base rate during this phase.
    pub multiplier: f64,
    /// Phase length in seconds of simulated time.
    pub duration_secs: f64,
}

/// A piecewise rate profile modulating the base arrival rate over time.
///
/// Every variant multiplies [`ArrivalConfig::aggregate_rate`]; after the
/// profile's span the rate returns to (or stays at) a steady value, so
/// count-bounded generation always terminates. Validation
/// ([`ArrivalSchedule::validate`]) rejects degenerate profiles — empty phase
/// lists, non-positive multipliers, zero-length or negative durations — with
/// a typed [`ScheduleError`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArrivalSchedule {
    /// The paper's homogeneous process: the base rate at all times. Omitting
    /// a schedule means `Steady`, and `Steady` reproduces the legacy
    /// constant-rate generator bit-for-bit.
    #[default]
    Steady,
    /// The rate multiplier ramps linearly from `from` to `to` over
    /// `duration_secs`, then stays at `to`.
    Ramp {
        /// Multiplier at time zero.
        from: f64,
        /// Multiplier at the end of the ramp (and afterwards).
        to: f64,
        /// Ramp length in seconds.
        duration_secs: f64,
    },
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
    /// Arbitrary composition: the listed constant-rate phases run back to
    /// back from time zero; after the last phase the multiplier returns to 1.
    Phases(Vec<RatePhase>),
}

/// Why an [`ArrivalSchedule`] (or the arrival configuration around it) is
/// invalid. Carried by
/// [`ArrivalProcess::new`] and surfaced through the simulation layer's
/// configuration validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The arrival population is empty.
    NoPeers,
    /// The base per-peer rate is not positive and finite.
    InvalidRate {
        /// The offending rate in queries per second per peer.
        rate_per_peer: f64,
    },
    /// A `Phases` schedule with no phases.
    EmptyPhases,
    /// A multiplier (phase, ramp endpoint or burst) is not positive and finite.
    InvalidMultiplier {
        /// The offending multiplier.
        multiplier: f64,
    },
    /// A segment duration (phase, ramp or burst length) is not positive and
    /// finite.
    InvalidDuration {
        /// The offending duration in seconds.
        duration_secs: f64,
    },
    /// A burst start time is negative or not finite.
    InvalidBurstStart {
        /// The offending start time in seconds.
        start_secs: f64,
    },
    /// The origin weights do not fit the population.
    OriginWeights(crate::placement::ClusterWeightsError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoPeers => write!(f, "arrival process needs at least one peer"),
            ScheduleError::InvalidRate { rate_per_peer } => write!(
                f,
                "per-peer rate must be positive and finite: got {rate_per_peer}"
            ),
            ScheduleError::EmptyPhases => {
                write!(f, "a Phases schedule needs at least one phase")
            }
            ScheduleError::InvalidMultiplier { multiplier } => write!(
                f,
                "schedule multipliers must be positive and finite: got {multiplier}"
            ),
            ScheduleError::InvalidDuration { duration_secs } => write!(
                f,
                "schedule durations must be positive and finite: got {duration_secs}s"
            ),
            ScheduleError::InvalidBurstStart { start_secs } => write!(
                f,
                "burst start must be non-negative and finite: got {start_secs}s"
            ),
            ScheduleError::OriginWeights(error) => write!(f, "origin weights: {error}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// True when `x` is a usable multiplier or duration.
fn positive_finite(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

impl ArrivalSchedule {
    /// Checks the profile for degenerate parameters.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        match self {
            ArrivalSchedule::Steady => Ok(()),
            ArrivalSchedule::Ramp { from, to, duration_secs } => {
                for &m in [*from, *to].iter() {
                    if !positive_finite(m) {
                        return Err(ScheduleError::InvalidMultiplier { multiplier: m });
                    }
                }
                if !positive_finite(*duration_secs) {
                    return Err(ScheduleError::InvalidDuration {
                        duration_secs: *duration_secs,
                    });
                }
                Ok(())
            }
            ArrivalSchedule::Burst { multiplier, start_secs, duration_secs } => {
                if !positive_finite(*multiplier) {
                    return Err(ScheduleError::InvalidMultiplier { multiplier: *multiplier });
                }
                if !start_secs.is_finite() || *start_secs < 0.0 {
                    return Err(ScheduleError::InvalidBurstStart { start_secs: *start_secs });
                }
                if !positive_finite(*duration_secs) {
                    return Err(ScheduleError::InvalidDuration {
                        duration_secs: *duration_secs,
                    });
                }
                Ok(())
            }
            ArrivalSchedule::Phases(phases) => {
                if phases.is_empty() {
                    return Err(ScheduleError::EmptyPhases);
                }
                for phase in phases {
                    if !positive_finite(phase.multiplier) {
                        return Err(ScheduleError::InvalidMultiplier {
                            multiplier: phase.multiplier,
                        });
                    }
                    if !positive_finite(phase.duration_secs) {
                        return Err(ScheduleError::InvalidDuration {
                            duration_secs: phase.duration_secs,
                        });
                    }
                }
                Ok(())
            }
        }
    }

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
            ArrivalSchedule::Ramp { duration_secs, .. } => Some(*duration_secs),
            ArrivalSchedule::Burst { start_secs, duration_secs, .. } => {
                Some(start_secs + duration_secs)
            }
            ArrivalSchedule::Phases(phases) => {
                Some(phases.iter().map(|p| p.duration_secs).sum())
            }
        }
    }

    /// The rate multiplier in force at `t_secs` (right-continuous at segment
    /// boundaries). Validated schedules return positive, finite values.
    pub fn multiplier_at(&self, t_secs: f64) -> f64 {
        match self {
            ArrivalSchedule::Steady => 1.0,
            ArrivalSchedule::Ramp { from, to, duration_secs } => {
                if t_secs >= *duration_secs {
                    *to
                } else {
                    from + (to - from) * (t_secs / duration_secs).max(0.0)
                }
            }
            ArrivalSchedule::Burst { multiplier, start_secs, duration_secs } => {
                if t_secs >= *start_secs && t_secs < start_secs + duration_secs {
                    *multiplier
                } else {
                    1.0
                }
            }
            ArrivalSchedule::Phases(phases) => {
                let mut start = 0.0;
                for phase in phases {
                    if t_secs < start + phase.duration_secs {
                        return phase.multiplier;
                    }
                    start += phase.duration_secs;
                }
                1.0
            }
        }
    }

    /// Compiles the profile into linear-rate segments plus the tail
    /// multiplier in force after the last segment. Empty for `Steady`.
    fn segments(&self) -> (Vec<Segment>, f64) {
        match self {
            ArrivalSchedule::Steady => (Vec::new(), 1.0),
            ArrivalSchedule::Ramp { from, to, duration_secs } => (
                vec![Segment {
                    start_secs: 0.0,
                    end_secs: *duration_secs,
                    multiplier_start: *from,
                    multiplier_end: *to,
                }],
                *to,
            ),
            ArrivalSchedule::Burst { multiplier, start_secs, duration_secs } => {
                let mut segments = Vec::new();
                if *start_secs > 0.0 {
                    segments.push(Segment {
                        start_secs: 0.0,
                        end_secs: *start_secs,
                        multiplier_start: 1.0,
                        multiplier_end: 1.0,
                    });
                }
                segments.push(Segment {
                    start_secs: *start_secs,
                    end_secs: start_secs + duration_secs,
                    multiplier_start: *multiplier,
                    multiplier_end: *multiplier,
                });
                (segments, 1.0)
            }
            ArrivalSchedule::Phases(phases) => {
                let mut segments = Vec::with_capacity(phases.len());
                let mut start = 0.0;
                for phase in phases {
                    segments.push(Segment {
                        start_secs: start,
                        end_secs: start + phase.duration_secs,
                        multiplier_start: phase.multiplier,
                        multiplier_end: phase.multiplier,
                    });
                    start += phase.duration_secs;
                }
                (segments, 1.0)
            }
        }
    }
}

/// One compiled schedule segment with a linearly interpolated multiplier.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start_secs: f64,
    end_secs: f64,
    multiplier_start: f64,
    multiplier_end: f64,
}

impl Segment {
    /// The multiplier at `t` (which must lie inside the segment).
    fn multiplier_at(&self, t: f64) -> f64 {
        if self.multiplier_start == self.multiplier_end {
            self.multiplier_start
        } else {
            let progress = (t - self.start_secs) / (self.end_secs - self.start_secs);
            self.multiplier_start + (self.multiplier_end - self.multiplier_start) * progress
        }
    }

    /// The multiplier's slope per second.
    fn slope(&self) -> f64 {
        (self.multiplier_end - self.multiplier_start) / (self.end_secs - self.start_secs)
    }
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

    /// Checks population, rate, schedule and origin weights; the first
    /// violated constraint comes back as a typed error.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.peers == 0 {
            return Err(ScheduleError::NoPeers);
        }
        if !positive_finite(self.rate_per_peer) {
            return Err(ScheduleError::InvalidRate {
                rate_per_peer: self.rate_per_peer,
            });
        }
        self.schedule.validate()?;
        if let Some(weights) = &self.origin_weights {
            // A constructed ClusterWeights is well-formed by type; only the
            // population bound (clusters <= peers) is config-dependent.
            weights
                .validate_for(self.peers)
                .map_err(ScheduleError::OriginWeights)?;
        }
        Ok(())
    }
}

/// Generates (possibly non-homogeneous) Poisson query arrivals.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    config: ArrivalConfig,
    segments: Vec<Segment>,
    tail_multiplier: f64,
}

impl ArrivalProcess {
    /// Creates an arrival process, validating the configuration.
    ///
    /// Malformed configurations — no peers, a non-positive or non-finite
    /// rate, a degenerate schedule — come back as a typed [`ScheduleError`]
    /// instead of a panic, so presets and builders can surface them fallibly.
    pub fn new(config: ArrivalConfig) -> Result<Self, ScheduleError> {
        config.validate()?;
        let (segments, tail_multiplier) = config.schedule.segments();
        Ok(ArrivalProcess {
            config,
            segments,
            tail_multiplier,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// Generates exactly `count` arrivals starting from time zero.
    pub fn generate_count<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Arrival> {
        if count == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(count);
        self.generate(
            rng,
            |_| true,
            |arrival| {
                out.push(arrival);
                out.len() < count
            },
        );
        out
    }

    /// Generates every arrival up to `horizon`.
    pub fn generate_until<R: Rng + ?Sized>(&self, horizon: SimTime, rng: &mut R) -> Vec<Arrival> {
        let mut out = Vec::new();
        self.generate(
            rng,
            |now| now <= horizon,
            |arrival| {
                out.push(arrival);
                true
            },
        );
        out
    }

    /// The generation loop. Per arrival: draw the inter-arrival time, let
    /// `accept_time` veto it (the horizon check — **before** any origin draw,
    /// exactly like the legacy generator, which never drew a peer for the
    /// over-horizon arrival), then draw the origin and hand the arrival to
    /// `push`, which returns whether to continue. The `Steady` path is the
    /// original constant-rate loop preserved operation-for-operation so
    /// legacy schedules replay bit-identically — including the state the
    /// shared RNG stream is left in; non-steady schedules map the identical
    /// unit exponential draws through the inverse cumulative hazard of the
    /// compiled piecewise-linear rate.
    fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut accept_time: impl FnMut(SimTime) -> bool,
        mut push: impl FnMut(Arrival) -> bool,
    ) {
        let rate = self.config.aggregate_rate();
        if self.config.schedule.is_steady() {
            let mut now = SimTime::ZERO;
            loop {
                now += Duration::from_secs_f64(exponential(rng, 1.0 / rate));
                if !accept_time(now) {
                    return;
                }
                let peer = self.sample_origin(rng);
                if !push(Arrival { at: now, peer }) {
                    return;
                }
            }
        }
        let mut t_secs = 0.0f64;
        let mut segment_index = 0usize;
        loop {
            let hazard = exponential(rng, 1.0);
            t_secs = self.invert_hazard(t_secs, hazard, rate, &mut segment_index);
            let now = SimTime::ZERO + Duration::from_secs_f64(t_secs);
            if !accept_time(now) {
                return;
            }
            let peer = self.sample_origin(rng);
            if !push(Arrival { at: now, peer }) {
                return;
            }
        }
    }

    /// Advances from `t_secs` until `hazard` units of cumulative hazard have
    /// accrued under the piecewise-linear rate `rate × multiplier(t)`.
    fn invert_hazard(
        &self,
        mut t_secs: f64,
        mut hazard: f64,
        base_rate: f64,
        segment_index: &mut usize,
    ) -> f64 {
        while *segment_index < self.segments.len() {
            let segment = self.segments[*segment_index];
            if t_secs >= segment.end_secs {
                *segment_index += 1;
                continue;
            }
            let start = t_secs.max(segment.start_secs);
            let rate_here = base_rate * segment.multiplier_at(start);
            let rate_end = base_rate * segment.multiplier_end;
            let remaining = segment.end_secs - start;
            let hazard_to_end = 0.5 * (rate_here + rate_end) * remaining;
            if hazard <= hazard_to_end {
                let slope = base_rate * segment.slope();
                let step = if slope == 0.0 {
                    hazard / rate_here
                } else {
                    // Solve rate_here·δ + slope·δ²/2 = hazard for δ ≥ 0.
                    ((rate_here * rate_here + 2.0 * slope * hazard).sqrt() - rate_here) / slope
                };
                return start + step.min(remaining);
            }
            hazard -= hazard_to_end;
            t_secs = segment.end_secs;
            *segment_index += 1;
        }
        // Past every segment: constant tail rate.
        let tail_rate = base_rate * self.tail_multiplier;
        t_secs + hazard / tail_rate
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

    /// Expected number of arrivals within `window` starting at time zero,
    /// accounting for the schedule.
    pub fn expected_count(&self, window: Duration) -> f64 {
        let base = self.config.aggregate_rate();
        let end = window.as_secs_f64();
        let mut expected = 0.0;
        let mut covered = 0.0f64;
        for segment in &self.segments {
            if covered >= end {
                return expected;
            }
            let upto = segment.end_secs.min(end);
            if upto > segment.start_secs {
                let m_start = segment.multiplier_at(segment.start_secs);
                let m_upto = segment.multiplier_at(upto);
                expected += base * 0.5 * (m_start + m_upto) * (upto - segment.start_secs);
            }
            covered = segment.end_secs;
        }
        if end > covered {
            expected += base * self.tail_multiplier * (end - covered);
        }
        expected
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
        let p = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
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
        let p = ArrivalProcess::new(cfg).unwrap();
        assert!((p.expected_count(Duration::from_secs(1000)) - 830.0).abs() < 1e-6);
    }

    #[test]
    fn horizon_bounded_generation_respects_the_horizon() {
        let p = ArrivalProcess::new(steady_config(100, 0.01)).unwrap();
        let horizon = SimTime::from_secs(10_000);
        let arrivals = p.generate_until(horizon, &mut StdRng::seed_from_u64(2));
        assert!(!arrivals.is_empty());
        for a in &arrivals {
            assert!(a.at <= horizon);
        }
        // Expected about rate × horizon = 1 q/s × 10_000 s = 10_000 arrivals.
        let expected = p.expected_count(Duration::from_secs(10_000));
        let got = arrivals.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "got {got}, expected about {expected}"
        );
    }

    #[test]
    fn inter_arrival_mean_matches_rate() {
        let p = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
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
        let p = ArrivalProcess::new(steady_config(10, 0.01)).unwrap();
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
        let p = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
        let a = p.generate_count(100, &mut StdRng::seed_from_u64(5));
        let b = p.generate_count(100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn non_positive_rate_is_a_typed_error_not_a_panic() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ArrivalProcess::new(steady_config(10, rate)).unwrap_err();
            assert!(
                matches!(err, ScheduleError::InvalidRate { .. }),
                "rate {rate}: got {err:?}"
            );
        }
        assert_eq!(
            ArrivalProcess::new(steady_config(0, 0.01)).unwrap_err(),
            ScheduleError::NoPeers
        );
    }

    #[test]
    fn degenerate_schedules_are_rejected() {
        let cases: Vec<(ArrivalSchedule, ScheduleError)> = vec![
            (
                ArrivalSchedule::Phases(Vec::new()),
                ScheduleError::EmptyPhases,
            ),
            (
                ArrivalSchedule::Phases(vec![RatePhase {
                    multiplier: 2.0,
                    duration_secs: -5.0,
                }]),
                ScheduleError::InvalidDuration { duration_secs: -5.0 },
            ),
            (
                ArrivalSchedule::Phases(vec![RatePhase {
                    multiplier: 0.0,
                    duration_secs: 5.0,
                }]),
                ScheduleError::InvalidMultiplier { multiplier: 0.0 },
            ),
            (
                ArrivalSchedule::Burst {
                    multiplier: 10.0,
                    start_secs: 60.0,
                    duration_secs: 0.0,
                },
                ScheduleError::InvalidDuration { duration_secs: 0.0 },
            ),
            (
                ArrivalSchedule::Burst {
                    multiplier: 10.0,
                    start_secs: -1.0,
                    duration_secs: 60.0,
                },
                ScheduleError::InvalidBurstStart { start_secs: -1.0 },
            ),
            (
                ArrivalSchedule::Ramp {
                    from: 1.0,
                    to: f64::NAN,
                    duration_secs: 60.0,
                },
                ScheduleError::InvalidMultiplier { multiplier: f64::NAN },
            ),
        ];
        for (schedule, expected) in cases {
            let got = schedule.validate().unwrap_err();
            // NaN payloads never compare equal; compare discriminants there.
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&expected),
                "{schedule:?}: got {got:?}"
            );
            let config = ArrivalConfig {
                schedule,
                ..ArrivalConfig::default()
            };
            assert!(ArrivalProcess::new(config).is_err());
        }
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
            let p = ArrivalProcess::new(steady_config(peers, rate)).unwrap();
            let modern = p.generate_count(400, &mut StdRng::seed_from_u64(seed));
            assert_eq!(modern, legacy(peers, rate, 400, seed));
        }
    }

    #[test]
    fn steady_generate_until_leaves_the_rng_stream_where_legacy_did() {
        // Legacy generate_until never drew an origin for the arrival that
        // overshot the horizon; the modern loop must not either, so a caller
        // reusing the stream afterwards sees identical subsequent draws.
        fn legacy_until(peers: usize, rate_per_peer: f64, horizon: SimTime, seed: u64) -> (Vec<Arrival>, u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rate = peers as f64 * rate_per_peer;
            let mut now = SimTime::ZERO;
            let mut out = Vec::new();
            loop {
                now += Duration::from_secs_f64(exponential(&mut rng, 1.0 / rate));
                if now > horizon {
                    break;
                }
                out.push(Arrival {
                    at: now,
                    peer: rng.gen_range(0..peers),
                });
            }
            (out, rng.gen::<u64>())
        }
        let p = ArrivalProcess::new(steady_config(50, 0.02)).unwrap();
        let horizon = SimTime::from_secs(500);
        let mut rng = StdRng::seed_from_u64(31);
        let modern = p.generate_until(horizon, &mut rng);
        let modern_next = rng.gen::<u64>();
        let (expected, expected_next) = legacy_until(50, 0.02, horizon, 31);
        assert_eq!(modern, expected);
        assert_eq!(modern_next, expected_next, "the stream must not shift");
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
        let p = ArrivalProcess::new(config).unwrap();
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
        let config = ArrivalConfig {
            peers: 100,
            rate_per_peer: 0.01, // base 1 q/s
            schedule: ArrivalSchedule::Phases(vec![
                RatePhase { multiplier: 1.0, duration_secs: 1000.0 },
                RatePhase { multiplier: 10.0, duration_secs: 1000.0 },
                RatePhase { multiplier: 0.5, duration_secs: 1000.0 },
            ]),
            origin_weights: None,
        };
        let p = ArrivalProcess::new(config).unwrap();
        let horizon = SimTime::from_secs(3000);
        let arrivals = p.generate_until(horizon, &mut StdRng::seed_from_u64(8));
        let mut counts = [0usize; 3];
        for a in &arrivals {
            counts[(a.at.as_secs_f64() / 1000.0).min(2.0) as usize] += 1;
        }
        // Expected 1000 / 10000 / 500 per phase; allow generous Poisson noise.
        assert!((800..1200).contains(&counts[0]), "phase 0: {}", counts[0]);
        assert!((9300..10700).contains(&counts[1]), "phase 1: {}", counts[1]);
        assert!((350..650).contains(&counts[2]), "phase 2: {}", counts[2]);
        let expected = p.expected_count(Duration::from_secs(3000));
        assert!((expected - 11_500.0).abs() < 1e-6, "expected_count: {expected}");
    }

    #[test]
    fn ramp_rate_rises_over_the_ramp() {
        let schedule = ArrivalSchedule::Ramp {
            from: 1.0,
            to: 9.0,
            duration_secs: 1000.0,
        };
        assert_eq!(schedule.multiplier_at(0.0), 1.0);
        assert!((schedule.multiplier_at(500.0) - 5.0).abs() < 1e-12);
        assert_eq!(schedule.multiplier_at(2000.0), 9.0);

        let config = ArrivalConfig {
            peers: 100,
            rate_per_peer: 0.01,
            schedule,
            origin_weights: None,
        };
        let p = ArrivalProcess::new(config).unwrap();
        let arrivals = p.generate_until(SimTime::from_secs(1000), &mut StdRng::seed_from_u64(9));
        let (first_half, second_half): (Vec<&Arrival>, Vec<&Arrival>) = arrivals
            .iter()
            .partition(|a| a.at.as_secs_f64() < 500.0);
        assert!(
            second_half.len() > first_half.len() * 2,
            "the back half of the ramp must be denser: {} vs {}",
            second_half.len(),
            first_half.len()
        );
        // ∫ from 0 to 1000 of (1 + 8t/1000) dt = 5000 expected arrivals.
        let expected = p.expected_count(Duration::from_secs(1000));
        assert!((expected - 5000.0).abs() < 1e-6, "{expected}");
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
            ArrivalSchedule::Ramp { from: 1.0, to: 2.0, duration_secs: 300.0 }.span_secs(),
            Some(300.0)
        );
        assert_eq!(
            ArrivalSchedule::Phases(vec![
                RatePhase { multiplier: 5.0, duration_secs: 100.0 },
                RatePhase { multiplier: 0.1, duration_secs: 900.0 },
            ])
            .span_secs(),
            Some(1000.0)
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
        let p = ArrivalProcess::new(config).unwrap();
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
}
