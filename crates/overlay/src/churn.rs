//! Peer churn: session-based join/leave dynamics.
//!
//! §3.1 notes that peers "are highly dynamic and autonomous, failing or leaving
//! the network at any moment", and §4.1.2 cites Gnutella measurements arguing
//! that cached indexes must be short-lived because providers disappear. The
//! paper's evaluation itself runs on a static 1000-peer overlay, so churn is
//! **off by default** in the reproduction; the churn model here powers the
//! robustness example (`churn_resilience`) and the stale-index tests.
//!
//! The model is the standard exponential on/off session model: each peer stays
//! online for an exponentially distributed session, goes offline for an
//! exponentially distributed gap, then rejoins (re-wiring to random peers).

use locaware_sim::{Duration, SimTime};
use rand::Rng;

use crate::PeerId;

/// Whether a churn event takes the peer offline or brings it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// The peer leaves the overlay (its edges disappear, its cache is lost).
    Leave,
    /// The peer rejoins the overlay and re-wires to `degree` random peers.
    Join,
}

/// A single scheduled churn transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which peer transitions.
    pub peer: PeerId,
    /// Leave or join.
    pub kind: ChurnEventKind,
}

/// Parameters of the exponential on/off churn model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Mean online session length.
    pub mean_session_secs: f64,
    /// Mean offline gap length.
    pub mean_offline_secs: f64,
    /// Fraction of peers that participate in churn (the rest are stable).
    pub churning_fraction: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        // Median Gnutella session times reported around tens of minutes; the
        // defaults keep sessions long relative to query latency but short
        // relative to a full experiment.
        ChurnConfig {
            mean_session_secs: 3600.0,
            mean_offline_secs: 600.0,
            churning_fraction: 0.2,
        }
    }
}

impl ChurnConfig {
    /// A configuration with churn disabled entirely.
    pub fn disabled() -> Self {
        ChurnConfig {
            mean_session_secs: f64::INFINITY,
            mean_offline_secs: f64::INFINITY,
            churning_fraction: 0.0,
        }
    }

    /// True if this configuration produces no churn events: no peer churns.
    pub fn is_disabled(&self) -> bool {
        self.churning_fraction == 0.0
    }

    /// Whether the configuration describes a schedule: `churning_fraction` is
    /// finite and in `[0, 1]`, and when it is positive both means are
    /// positive and finite (a zero, negative or NaN mean is a zero-length
    /// dwell, an infinite one a dwell past the clock).
    pub fn is_valid(&self) -> bool {
        let usable = |mean: f64| mean > 0.0 && mean.is_finite();
        (0.0..=1.0).contains(&self.churning_fraction)
            && (self.is_disabled() || usable(self.mean_session_secs) && usable(self.mean_offline_secs))
    }
}

/// Generates the full churn schedule for a population of peers over a horizon.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    config: ChurnConfig,
}

impl ChurnModel {
    /// Creates a model with the given configuration.
    pub fn new(config: ChurnConfig) -> Self {
        ChurnModel { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Generates every leave/join transition for `peers` peers up to `horizon`.
    /// Events come back sorted by time. A configuration that is disabled or
    /// not [valid](ChurnConfig::is_valid) schedules nothing.
    pub fn schedule<R: Rng + ?Sized>(
        &self,
        peers: usize,
        horizon: SimTime,
        rng: &mut R,
    ) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        if self.config.is_disabled() || !self.config.is_valid() {
            return events;
        }
        for p in 0..peers {
            if rng.gen::<f64>() >= self.config.churning_fraction {
                continue;
            }
            let peer = PeerId(p as u32);
            let mut now = SimTime::ZERO;
            let mut online = true;
            loop {
                let mean = if online {
                    self.config.mean_session_secs
                } else {
                    self.config.mean_offline_secs
                };
                // A dwell past the clock ends the peer's schedule just like
                // one past the horizon.
                let dwell = Duration::from_secs_f64(exponential(rng, mean));
                match now.checked_add(dwell) {
                    Some(next) if next <= horizon => now = next,
                    _ => break,
                }
                events.push(ChurnEvent {
                    at: now,
                    peer,
                    kind: if online {
                        ChurnEventKind::Leave
                    } else {
                        ChurnEventKind::Join
                    },
                });
                online = !online;
            }
        }
        events.sort_by_key(|e| (e.at, e.peer));
        events
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

    #[test]
    fn disabled_config_produces_no_events() {
        let model = ChurnModel::new(ChurnConfig::disabled());
        let events = model.schedule(100, SimTime::from_secs(10_000), &mut StdRng::seed_from_u64(1));
        assert!(events.is_empty());
        assert!(ChurnConfig::disabled().is_disabled());
        assert!(ChurnConfig::disabled().is_valid());
        assert!(!ChurnConfig::default().is_disabled());
    }

    #[test]
    fn only_finite_fractions_and_usable_means_are_valid() {
        let churn = |mean_session_secs, mean_offline_secs, churning_fraction| ChurnConfig {
            mean_session_secs,
            mean_offline_secs,
            churning_fraction,
        };
        assert!(ChurnConfig::default().is_valid());
        // Nobody churns: the means are never drawn from.
        assert!(churn(f64::NAN, -1.0, 0.0).is_valid());
        for fraction in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            assert!(!churn(60.0, 60.0, fraction).is_valid(), "fraction {fraction}");
        }
        for mean in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            assert!(!churn(mean, 60.0, 0.5).is_valid(), "session {mean}");
            assert!(!churn(60.0, mean, 0.5).is_valid(), "offline {mean}");
        }
    }

    #[test]
    fn a_dwell_past_the_clock_ends_the_schedule() {
        // Every offline gap saturates the duration conversion: each churning
        // peer leaves once and never comes back, instead of overflowing.
        let model = ChurnModel::new(ChurnConfig {
            mean_session_secs: 10.0,
            mean_offline_secs: 1e18,
            churning_fraction: 1.0,
        });
        let events = model.schedule(20, SimTime::MAX, &mut StdRng::seed_from_u64(5));
        assert_eq!(events.len(), 20);
        assert!(events.iter().all(|e| e.kind == ChurnEventKind::Leave));
    }

    #[test]
    fn events_are_sorted_and_alternate_per_peer() {
        let model = ChurnModel::new(ChurnConfig {
            mean_session_secs: 100.0,
            mean_offline_secs: 50.0,
            churning_fraction: 1.0,
        });
        let horizon = SimTime::from_secs(2000);
        let events = model.schedule(20, horizon, &mut StdRng::seed_from_u64(2));
        assert!(!events.is_empty());
        // Sorted by time.
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Per peer, transitions alternate starting with Leave.
        for p in 0..20u32 {
            let seq: Vec<_> = events.iter().filter(|e| e.peer == PeerId(p)).collect();
            for (i, e) in seq.iter().enumerate() {
                let expected = if i % 2 == 0 {
                    ChurnEventKind::Leave
                } else {
                    ChurnEventKind::Join
                };
                assert_eq!(e.kind, expected, "peer {p} event {i}");
                assert!(e.at <= horizon);
            }
        }
    }

    #[test]
    fn churning_fraction_limits_participation() {
        let model = ChurnModel::new(ChurnConfig {
            mean_session_secs: 100.0,
            mean_offline_secs: 100.0,
            churning_fraction: 0.3,
        });
        let events = model.schedule(500, SimTime::from_secs(1000), &mut StdRng::seed_from_u64(3));
        let participants: std::collections::HashSet<_> = events.iter().map(|e| e.peer).collect();
        let fraction = participants.len() as f64 / 500.0;
        assert!(
            (0.15..=0.45).contains(&fraction),
            "about 30% of peers should churn, got {fraction}"
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let model = ChurnModel::new(ChurnConfig::default());
        let a = model.schedule(50, SimTime::from_secs(50_000), &mut StdRng::seed_from_u64(9));
        let b = model.schedule(50, SimTime::from_secs(50_000), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let mean_target = 42.0;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, mean_target)).sum::<f64>() / n as f64;
        assert!((mean - mean_target).abs() < 1.0, "sample mean {mean}");
    }
}
