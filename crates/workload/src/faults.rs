//! Fault-injection specification: message loss, link outages, crash-stop
//! departures, and the timeout/retry policies protocols use to survive them.
//!
//! The paper's evaluation (and every prior run of this reproduction) assumes
//! a perfectly reliable network: no message is ever dropped and peers only
//! leave gracefully at churn barriers. [`FaultConfig`] makes failure a
//! *workload dimension*: a validated, serialisable plan the engine threads
//! from configuration to tallies, with the same determinism contract as every
//! other knob — the same seed and plan produce bit-identical reports for
//! every shard count, and the disabled plan reproduces fault-free runs
//! byte-for-byte.
//!
//! The types here are pure *specification*; the engine derives the actual
//! per-message loss coins and outage membership from the
//! `StreamId::Faults` stream so fault patterns are independent of topology,
//! workload and protocol randomness. Their ranges are checked with every
//! other knob's, by the core crate's `SimulationConfig::validate`.

/// A typed retransmit policy: how long to wait for a query to produce a
/// response, how the wait grows, and how many times to retry.
///
/// `initial_secs == 0` disables the policy (no timeout events are ever
/// scheduled, which is the default and keeps fault-free runs byte-identical).
/// When enabled, attempt `n` (0-based) times out after
/// `initial_secs * backoff.powi(n)` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutPolicy {
    /// Timeout of the first attempt, in seconds of simulated time.
    /// `0` disables timeouts entirely.
    pub initial_secs: f64,
    /// Multiplicative backoff factor applied per retry (`>= 1`).
    pub backoff: f64,
    /// Maximum number of retransmits after the initial attempt.
    pub max_retries: u32,
}

impl TimeoutPolicy {
    /// The disabled policy: no timeouts, no retries.
    pub fn disabled() -> Self {
        TimeoutPolicy {
            initial_secs: 0.0,
            backoff: 1.0,
            max_retries: 0,
        }
    }

    /// True when the policy schedules timeout events at all.
    pub fn is_enabled(&self) -> bool {
        self.initial_secs > 0.0
    }

    /// The timeout of 0-based attempt `attempt`, in seconds.
    pub fn delay_secs(&self, attempt: u32) -> f64 {
        self.initial_secs * self.backoff.powi(attempt.min(i32::MAX as u32) as i32)
    }

    /// The longest an enabled policy can keep a query waiting, in seconds:
    /// every attempt's deadline back to back, each bounded by the last
    /// (`backoff >= 1`). `0` for the disabled policy.
    pub fn span_secs(&self) -> f64 {
        if !self.is_enabled() {
            return 0.0;
        }
        self.delay_secs(self.max_retries) * (self.max_retries as f64 + 1.0)
    }
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A transient link-degradation window: between `start_secs` and
/// `start_secs + duration_secs`, a deterministic `fraction` of overlay links
/// drop every message sent across them (a partial partition).
///
/// Which links participate is a pure hash of the fault seed and the link's
/// endpoint pair, so the affected set is fixed per run and identical for
/// every shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Window start, in seconds of simulated time.
    pub start_secs: f64,
    /// Window length in seconds (must be positive).
    pub duration_secs: f64,
    /// Fraction of links affected, in `[0, 1]` (`1` is a full blackout).
    pub fraction: f64,
}

impl OutageWindow {
    /// Window end in seconds.
    pub fn end_secs(&self) -> f64 {
        self.start_secs + self.duration_secs
    }
}

/// The complete fault plan of a run: what breaks, and how protocols are
/// allowed to cope.
///
/// [`FaultConfig::disabled`] (the default) injects nothing and schedules
/// nothing — runs under it are byte-identical to runs that predate fault
/// injection, which is what pins the golden fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Independent per-message loss probability in `[0, 1]`. Applies to every
    /// overlay message (queries, responses, DHT traffic, Bloom sync alike):
    /// the coin is a pure hash of the fault seed and the message identity.
    pub message_loss: f64,
    /// Transient link-outage windows (may overlap; a message is lost if any
    /// active window covers its link).
    pub outages: Vec<OutageWindow>,
    /// When true, churn departures are *crash-stop*: the peer vanishes
    /// without telling neighbours or the DHT, and its in-flight messages are
    /// consumed as lost. The default (false) keeps the graceful departure
    /// every prior run used.
    pub crash_stop: bool,
    /// Retransmit policy for unstructured queries: when an origin's query
    /// has produced no response by the deadline, the query is re-flooded
    /// (with full TTL) as a new attempt, up to `max_retries` times.
    pub query_timeout: TimeoutPolicy,
    /// Per-step timeout for iterative DHT lookups, in seconds. When a lookup
    /// step gets no reply by the deadline, the stalled slot is released and
    /// the lookup re-issues against the next shortlist candidate. `0`
    /// disables step timeouts (lost steps then simply conclude the lookup
    /// early, as before).
    pub dht_step_timeout_secs: f64,
}

impl FaultConfig {
    /// The fault-free plan: no loss, no outages, graceful churn, no timeouts.
    pub fn disabled() -> Self {
        FaultConfig {
            message_loss: 0.0,
            outages: Vec::new(),
            crash_stop: false,
            query_timeout: TimeoutPolicy::disabled(),
            dht_step_timeout_secs: 0.0,
        }
    }

    /// True when the plan injects nothing and arms nothing — the engine then
    /// skips fault bookkeeping entirely and reproduces fault-free runs
    /// byte-for-byte.
    pub fn is_disabled(&self) -> bool {
        self.message_loss == 0.0
            && self.outages.is_empty()
            && !self.crash_stop
            && !self.query_timeout.is_enabled()
            && self.dht_step_timeout_secs == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_disabled_and_valid() {
        let plan = FaultConfig::disabled();
        assert!(plan.is_disabled());
        assert_eq!(plan, FaultConfig::default());
    }

    #[test]
    fn any_armed_axis_enables_the_plan() {
        let mut plan = FaultConfig::disabled();
        plan.message_loss = 0.05;
        assert!(!plan.is_disabled());

        let mut plan = FaultConfig::disabled();
        plan.outages.push(OutageWindow {
            start_secs: 10.0,
            duration_secs: 5.0,
            fraction: 0.5,
        });
        assert!(!plan.is_disabled());

        let mut plan = FaultConfig::disabled();
        plan.crash_stop = true;
        assert!(!plan.is_disabled());

        let mut plan = FaultConfig::disabled();
        plan.query_timeout = TimeoutPolicy {
            initial_secs: 5.0,
            backoff: 2.0,
            max_retries: 2,
        };
        assert!(!plan.is_disabled());

        let mut plan = FaultConfig::disabled();
        plan.dht_step_timeout_secs = 2.0;
        assert!(!plan.is_disabled());
    }

    #[test]
    fn timeout_policy_delays_follow_the_backoff() {
        let policy = TimeoutPolicy {
            initial_secs: 4.0,
            backoff: 2.0,
            max_retries: 3,
        };
        assert!(policy.is_enabled());
        assert_eq!(policy.delay_secs(0), 4.0);
        assert_eq!(policy.delay_secs(1), 8.0);
        assert_eq!(policy.delay_secs(2), 16.0);
        // Four deadlines, none longer than the last (32 s).
        assert_eq!(policy.span_secs(), 128.0);
        assert!(!TimeoutPolicy::disabled().is_enabled());
        assert_eq!(TimeoutPolicy::disabled().span_secs(), 0.0);
    }
}
