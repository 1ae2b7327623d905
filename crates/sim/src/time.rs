//! Simulated time.
//!
//! Time is represented as an integer number of **microseconds** since the start
//! of the simulation. Integer time keeps the event queue ordering exact (no
//! floating-point ties) and microsecond resolution is far finer than the paper's
//! millisecond-scale link latencies (10–500 ms), so no rounding artefacts can
//! influence results.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in microseconds from simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in milliseconds (floating point, for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds (floating point, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Checked addition of a duration: `None` past the end of the clock.
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Builds a duration from fractional milliseconds (rounded to the nearest
    /// microsecond). Negative inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            Duration(0)
        } else {
            Duration((ms * 1_000.0).round() as u64)
        }
    }

    /// Checked variant of [`Duration::from_millis_f64`]: returns `None` when
    /// the value cannot be represented exactly-enough as microseconds — NaN,
    /// infinite, or so large that the `f64 → u64` cast would saturate (the
    /// unchecked constructor silently clamps such inputs to `u64::MAX`
    /// microseconds, i.e. ~584 000 years). Validation paths should use this
    /// and reject the configuration instead of simulating with a saturated
    /// span. Negative inputs still clamp to zero: "no time" is representable.
    pub fn try_from_millis_f64(ms: f64) -> Option<Self> {
        Self::try_from_micros_f64(ms * 1_000.0)
    }

    /// Checked variant of [`Duration::from_secs_f64`], `None` on the same
    /// inputs as [`Duration::try_from_millis_f64`]; where it is `Some`, it
    /// holds exactly what the unchecked constructor returns.
    pub fn try_from_secs_f64(s: f64) -> Option<Self> {
        Self::try_from_micros_f64(s * 1_000_000.0)
    }

    /// Fractional microseconds rounded to the nearest, `None` for NaN and
    /// for anything the `f64 → u64` cast would saturate; negative clamps to
    /// zero.
    fn try_from_micros_f64(us: f64) -> Option<Self> {
        if us.is_nan() {
            return None;
        }
        if us <= 0.0 {
            return Some(Duration(0));
        }
        let us = us.round();
        // 2^64 exactly; any finite f64 strictly below it casts without
        // saturating. `is_finite` rejects +inf before the comparison.
        if !us.is_finite() || us >= 18_446_744_073_709_551_616.0 {
            return None;
        }
        Some(Duration(us as u64))
    }

    /// Builds a duration from fractional seconds (rounded to the nearest
    /// microsecond). Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            Duration(0)
        } else {
            Duration((s * 1_000_000.0).round() as u64)
        }
    }

    /// Raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in milliseconds (floating point).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds (floating point).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, factor: u64) -> Option<Duration> {
        self.0.checked_mul(factor).map(Duration)
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(10).as_micros(), 10_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Duration::from_millis(500).as_micros(), 500_000);
        assert_eq!(Duration::from_secs(1).as_millis_f64(), 1000.0);
    }

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime::from_millis(100) + Duration::from_millis(50);
        assert_eq!(t, SimTime::from_millis(150));
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_millis(100);
        let b = SimTime::from_millis(175);
        assert_eq!(b - a, Duration::from_millis(75));
        // Saturating: earlier minus later is zero, not a panic.
        assert_eq!(a - b, Duration::ZERO);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert_eq!(b.duration_since(a), Duration::from_millis(10));
        assert_eq!(a.duration_since(b), Duration::ZERO);
    }

    #[test]
    fn fractional_constructors_round() {
        assert_eq!(Duration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(Duration::from_millis_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(0.25).as_micros(), 250_000);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn try_from_millis_rejects_unrepresentable_spans() {
        assert_eq!(
            Duration::try_from_millis_f64(1.5),
            Some(Duration::from_micros(1_500))
        );
        assert_eq!(Duration::try_from_millis_f64(-3.0), Some(Duration::ZERO));
        assert_eq!(Duration::try_from_millis_f64(f64::NAN), None);
        assert_eq!(Duration::try_from_millis_f64(f64::INFINITY), None);
        // 2^64 microseconds is not representable; the unchecked constructor
        // would silently saturate here.
        let overflow_ms = 18_446_744_073_709_551_616.0 / 1_000.0;
        assert_eq!(Duration::try_from_millis_f64(overflow_ms), None);
        assert_eq!(
            Duration::from_millis_f64(overflow_ms),
            Duration::from_micros(u64::MAX),
            "documented saturation of the unchecked constructor"
        );
        // Just below the limit stays representable (1e15 ms = 1e18 us).
        assert!(Duration::try_from_millis_f64(1.0e15).is_some());
    }

    #[test]
    fn ordering_is_chronological() {
        let mut times = vec![
            SimTime::from_millis(5),
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimTime::from_micros(1),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_micros(1),
                SimTime::from_millis(5),
                SimTime::from_secs(1),
            ]
        );
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(Duration::from_secs(1)), SimTime::MAX);
        assert_eq!(SimTime::MAX.checked_add(Duration::from_micros(1)), None);
        assert_eq!(
            SimTime::ZERO.checked_add(Duration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(
            Duration::from_secs(1).saturating_mul(u64::MAX),
            Duration::from_micros(u64::MAX)
        );
        assert_eq!(Duration::from_millis(2).checked_mul(3), Some(Duration::from_millis(6)));
        assert_eq!(Duration::from_micros(u64::MAX).checked_mul(2), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_millis(250)), "250.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
        assert_eq!(format!("{:?}", SimTime::from_micros(42)), "t=42us");
    }
}
