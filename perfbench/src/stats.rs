//! Sample summaries and the regression rule.
//!
//! A timing is reported as its median with the quartiles, the extremes and
//! the sample count: at the 20–40 samples a run collects, the highest
//! percentile with ten samples beyond it lies between p50 and p75, so the
//! quartiles are the spread.

use locaware_metrics::aggregate::percentile;

/// Median, quartiles, minimum and count of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The 50th percentile.
    pub median: f64,
    /// The 25th percentile.
    pub q1: f64,
    /// The 75th percentile.
    pub q3: f64,
    /// The smallest observation.
    pub min: f64,
    /// The largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (all zero for an empty sample).
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: percentile(values, 50.0),
            q1: percentile(values, 25.0),
            q3: percentile(values, 75.0),
            min: percentile(values, 0.0),
            max: percentile(values, 100.0),
            n: values.len(),
        }
    }

    /// A value that was computed, not sampled: every quantile is the value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Every observation multiplied by a positive `factor`.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            min: self.min * factor,
            max: self.max * factor,
            n: self.n,
        }
    }

    /// The interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, traffic).
    Lower,
    /// Larger is better (throughput, success).
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a median may worsen before it counts as a regression: a share of
/// the baseline median, with an absolute floor for metrics whose baseline is
/// too small for a share to mean anything (a 3 ms set-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the baseline median.
    pub relative: f64,
    /// Allowed worsening in the metric's own unit, whatever the share says.
    pub absolute_floor: f64,
}

impl Bound {
    /// A purely relative bound.
    pub const fn relative(share: f64) -> Bound {
        Bound {
            relative: share,
            absolute_floor: 0.0,
        }
    }

    /// The metric must not worsen at all (simulated statistics repeat exactly
    /// for a seed).
    pub const EXACT: Bound = Bound::relative(0.0);

    fn allowed(&self, baseline: f64) -> f64 {
        (self.relative * baseline.abs()).max(self.absolute_floor)
    }
}

/// The outcome of comparing a candidate against a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is within the bound (or better).
    Ok,
    /// Worse by more than the bound, and the quartile ranges are disjoint.
    Worse,
    /// Worse by more than the bound, but the quartile ranges overlap: the
    /// spread is wider than the difference, so the runs do not decide it.
    Unresolved,
}

impl Verdict {
    /// The word `--compare` prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `candidate` is worse than `baseline` in the metric's unit
/// (negative when it is better).
pub fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    }
}

/// Applies the regression rule to one metric of one workload.
pub fn verdict(better: Better, bound: Bound, baseline: &Summary, candidate: &Summary) -> Verdict {
    if worsening(better, baseline.median, candidate.median) <= bound.allowed(baseline.median) {
        return Verdict::Ok;
    }
    let overlap = baseline.q1 <= candidate.q3 && candidate.q1 <= baseline.q3;
    if overlap {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let values: Vec<f64> = (1..=9).map(f64::from).collect();
        let summary = Summary::of(&values);
        assert_eq!((summary.q1, summary.median, summary.q3), (3.0, 5.0, 7.0));
        assert_eq!((summary.min, summary.max, summary.n), (1.0, 9.0, 9));
        assert!((summary.spread() - 0.8).abs() < 1e-12);

        // Order must not matter, and one outlier must not move the quartiles.
        let shuffled = [7.0, 2.0, 9000.0, 4.0, 1.0, 6.0, 3.0, 8.0, 5.0];
        let summary = Summary::of(&shuffled);
        assert_eq!((summary.q1, summary.median, summary.q3), (3.0, 5.0, 7.0));

        let single = Summary::of(&[2.5]);
        assert_eq!(single, Summary::exact(2.5));
        assert_eq!(single.spread(), 0.0);

        let empty = Summary::of(&[]);
        assert_eq!((empty.median, empty.min, empty.n), (0.0, 0.0, 0));
    }

    fn around(median: f64, half_range: f64) -> Summary {
        Summary {
            median,
            q1: median - half_range,
            q3: median + half_range,
            min: median - half_range,
            max: median + half_range,
            n: 30,
        }
    }

    #[test]
    fn relative_bounds_follow_the_direction() {
        let bound = Bound::relative(0.10);
        let base = around(100.0, 1.0);
        assert_eq!(
            verdict(Better::Lower, bound, &base, &around(109.0, 1.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, bound, &base, &around(112.0, 1.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, bound, &base, &around(50.0, 1.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, bound, &base, &around(91.0, 1.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, bound, &base, &around(88.0, 1.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, bound, &base, &around(150.0, 1.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn overlapping_quartiles_leave_a_regression_unresolved() {
        let bound = Bound::relative(0.10);
        let base = around(100.0, 10.0);
        assert_eq!(
            verdict(Better::Lower, bound, &base, &around(115.0, 10.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, bound, &base, &around(140.0, 10.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn setup_floor_absorbs_millisecond_jitter() {
        let setup = Bound {
            relative: 0.25,
            absolute_floor: 0.005,
        };
        // 3 ms -> 7 ms is +133% but inside the 5 ms floor.
        assert_eq!(
            verdict(
                Better::Lower,
                setup,
                &around(0.003, 0.0),
                &around(0.007, 0.0)
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                Better::Lower,
                setup,
                &around(0.003, 0.0),
                &around(0.009, 0.0)
            ),
            Verdict::Worse
        );
        // At 10k peers the share is the wider limit: 40 ms may grow to 50 ms.
        assert_eq!(
            verdict(
                Better::Lower,
                setup,
                &around(0.040, 0.0),
                &around(0.049, 0.0)
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                Better::Lower,
                setup,
                &around(0.040, 0.0),
                &around(0.051, 0.0)
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_bounds_reject_any_worsening() {
        let base = Summary::exact(0.2675);
        assert_eq!(
            verdict(Better::Higher, Bound::EXACT, &base, &Summary::exact(0.2675)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, Bound::EXACT, &base, &Summary::exact(0.2674)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                Better::Lower,
                Bound::EXACT,
                &Summary::exact(0.0),
                &Summary::exact(0.0)
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                Better::Lower,
                Bound::EXACT,
                &Summary::exact(0.0),
                &Summary::exact(0.025)
            ),
            Verdict::Worse
        );
    }
}
