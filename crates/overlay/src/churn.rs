//! Peer churn: session-based join/leave dynamics.
//!
//! §3.1 notes that peers "are highly dynamic and autonomous, failing or leaving
//! the network at any moment", and §4.1.2 cites Gnutella measurements arguing
//! that cached indexes must be short-lived because providers disappear. The
//! paper's evaluation itself runs on a static 1000-peer overlay, so churn is
//! **off by default** in the reproduction; the churn model here powers the
//! `churn-storm` preset and the stale-index tests.
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
}

/// Generates every leave/join transition of `config` for `peers` peers up to
/// `horizon`, sorted by `(at, peer)`. A disabled configuration schedules
/// nothing.
///
/// `config` must come from a validated `SimulationConfig`, whose three churn
/// rows are the one statement of the churn range: in particular a churning
/// configuration's mean dwells are positive, so every schedule ends (an
/// infinite or past-the-clock dwell ends a peer's schedule like one past the
/// horizon).
pub fn schedule<R: Rng + ?Sized>(
    config: &ChurnConfig,
    peers: usize,
    horizon: SimTime,
    rng: &mut R,
) -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    if config.is_disabled() {
        return events;
    }
    debug_assert!(
        config.mean_session_secs > 0.0 && config.mean_offline_secs > 0.0,
        "churn means must be positive (validate the config first): {config:?}"
    );
    for p in 0..peers {
        if rng.gen::<f64>() >= config.churning_fraction {
            continue;
        }
        let peer = PeerId(p as u32);
        let mut now = SimTime::ZERO;
        let mut online = true;
        loop {
            let mean = if online { config.mean_session_secs } else { config.mean_offline_secs };
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
                kind: if online { ChurnEventKind::Leave } else { ChurnEventKind::Join },
            });
            online = !online;
        }
    }
    events.sort_by_key(|e| (e.at, e.peer));
    events
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
        let events = schedule(
            &ChurnConfig::disabled(),
            100,
            SimTime::from_secs(10_000),
            &mut StdRng::seed_from_u64(1),
        );
        assert!(events.is_empty());
        assert!(ChurnConfig::disabled().is_disabled());
        assert!(!ChurnConfig::default().is_disabled());
    }

    #[test]
    fn a_dwell_past_the_clock_ends_the_schedule() {
        // Every offline gap saturates the duration conversion: each churning
        // peer leaves once and never comes back, instead of overflowing.
        let config = ChurnConfig {
            mean_session_secs: 10.0,
            mean_offline_secs: 1e18,
            churning_fraction: 1.0,
        };
        let events = schedule(&config, 20, SimTime::MAX, &mut StdRng::seed_from_u64(5));
        assert_eq!(events.len(), 20);
        assert!(events.iter().all(|e| e.kind == ChurnEventKind::Leave));
    }

    #[test]
    fn events_are_sorted_and_alternate_per_peer() {
        let config = ChurnConfig {
            mean_session_secs: 100.0,
            mean_offline_secs: 50.0,
            churning_fraction: 1.0,
        };
        let horizon = SimTime::from_secs(2000);
        let events = schedule(&config, 20, horizon, &mut StdRng::seed_from_u64(2));
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
        let config = ChurnConfig {
            mean_session_secs: 100.0,
            mean_offline_secs: 100.0,
            churning_fraction: 0.3,
        };
        let events = schedule(&config, 500, SimTime::from_secs(1000), &mut StdRng::seed_from_u64(3));
        let participants: std::collections::HashSet<_> = events.iter().map(|e| e.peer).collect();
        let fraction = participants.len() as f64 / 500.0;
        assert!(
            (0.15..=0.45).contains(&fraction),
            "about 30% of peers should churn, got {fraction}"
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let config = ChurnConfig::default();
        let a = schedule(&config, 50, SimTime::from_secs(50_000), &mut StdRng::seed_from_u64(9));
        let b = schedule(&config, 50, SimTime::from_secs(50_000), &mut StdRng::seed_from_u64(9));
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
