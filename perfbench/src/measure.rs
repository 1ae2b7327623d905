//! The untraced run: end-to-end metrics of one workload.
//!
//! Closed loop, one client: a single process runs one `Simulation::run` at a
//! time. The order of the steps is what scopes each number:
//!
//! 1. build the substrate once and take one untimed warm-up run, whose
//!    fingerprint is the reference every timed run is checked against;
//! 2. timed runs until the measuring budget is spent, each preceded by one
//!    batch of the host-speed yardstick (see `yardstick.rs`);
//! 3. read the RSS high-water mark — nothing but the yardstick, one
//!    substrate and its runs has happened in the process so far, so the peak
//!    less the yardstick's own footprint is theirs;
//! 4. only then the work that must not count towards the peak: the
//!    same-events reference (a second substrate) and the repeated set-ups,
//!    each of those preceded by a yardstick batch too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use locaware::{Simulation, SimulationReport};

use crate::stats::Summary;
use crate::workloads::Workload;
use crate::yardstick::Yardstick;

/// How much work one measurement does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effort {
    /// Timed runs continue until this many seconds have been measured…
    pub seconds: f64,
    /// …but never fewer than this many runs…
    pub min_runs: usize,
    /// …nor more than this many.
    pub max_runs: usize,
    /// Fewest repetitions of a repeated step (set-up, run phases, kernels).
    pub reps: usize,
    /// Operations per layer-kernel batch.
    pub kernel_ops: usize,
}

impl Effort {
    /// The driver's shape: measure for `seconds`, report medians.
    pub fn seconds(seconds: f64) -> Effort {
        Effort {
            seconds,
            min_runs: 5,
            max_runs: 10_000,
            reps: 9,
            kernel_ops: 100_000,
        }
    }

    /// One timed run, one repetition, 10³-operation kernels: every check on,
    /// no statistics.
    pub const SMOKE: Effort = Effort {
        seconds: 0.0,
        min_runs: 1,
        max_runs: 1,
        reps: 1,
        kernel_ops: 1_000,
    };
}

/// What the untraced run of one workload measured.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Substrate build + arrival schedule + churn schedule, seconds.
    pub setup_s: Summary,
    /// Wall time of one yardstick batch, milliseconds; one per set-up.
    pub setup_yardstick_ms: Summary,
    /// Wall time of one `Simulation::run`, milliseconds.
    pub run_ms: Summary,
    /// Wall time of one yardstick batch, milliseconds; one per timed run.
    pub yardstick_ms: Summary,
    /// `VmHWM` after the timed runs less the yardstick's footprint, MiB.
    pub peak_rss_mb: f64,
    /// Timed runs attempted.
    pub attempted: u64,
    /// Timed runs that panicked or failed a check.
    pub failed: u64,
    /// What failed, one line each (also covers the same-events check).
    pub failures: Vec<String>,
    /// The warm-up run's report: the simulated statistics and work counts.
    pub report: SimulationReport,
}

impl EndToEnd {
    /// True when every timed run and every cross-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Runs the workload once, times the run alone, and checks the result; a
/// panic is a failed operation, not the end of the benchmark. Returns the
/// report with the run's wall time in milliseconds.
pub fn checked_run(
    workload: &Workload,
    substrate: &Simulation,
    reference: Option<u64>,
) -> Result<(SimulationReport, f64), String> {
    let timer = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        substrate.run(workload.protocol, workload.queries)
    }));
    let ms = timer.elapsed().as_secs_f64() * 1e3;
    let report = outcome.map_err(|_| format!("{}: run panicked", workload.name))?;
    workload.check_report(&report, !substrate.config().churn.is_disabled())?;
    match reference {
        Some(expected) if report.fingerprint() != expected => Err(format!(
            "{}: fingerprint {:016x} differs from the reference {expected:016x}",
            workload.name,
            report.fingerprint()
        )),
        _ => Ok((report, ms)),
    }
}

/// One set-up as a user pays it: the substrate plus the two schedules every
/// run derives from it. Returns the substrate so the caller decides when it
/// is dropped.
pub fn set_up(workload: &Workload, seed: u64) -> Result<Simulation, String> {
    let substrate = workload.scenario(seed)?.substrate();
    let arrivals = substrate.arrivals(workload.queries);
    std::hint::black_box(substrate.churn_schedule(&arrivals));
    Ok(substrate)
}

/// Repeats `step` at least `effort.reps` times, and on while it stays under
/// a total of `fill_s` seconds (capped at 99 repetitions), so a
/// millisecond-sized step still yields a steady median. A step times the
/// part of itself that counts and returns that as its sample.
pub fn repeat<E>(
    effort: &Effort,
    fill_s: f64,
    mut step: impl FnMut() -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < effort.reps
        || (effort.reps > 1 && samples.len() < 99 && started.elapsed().as_secs_f64() < fill_s)
    {
        samples.push(step()?);
    }
    Ok(samples)
}

/// A resident-set figure of this process in MiB: `VmRSS` (now) or `VmHWM`
/// (high-water mark) of `/proc/self/status`.
fn rss_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Measures the end-to-end metrics of `workload` under `seed`.
pub fn run_untraced(workload: &Workload, seed: u64, effort: &Effort) -> Result<EndToEnd, String> {
    let rss_before = rss_mb("VmRSS")?;
    let mut yardstick = Yardstick::new();
    let yardstick_mb = rss_mb("VmRSS")? - rss_before;

    let substrate = set_up(workload, seed)?;
    let (report, _) = checked_run(workload, &substrate, None)?;
    let reference = report.fingerprint();

    let (mut run_ms, mut yardstick_ms) = (Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    let measuring = Instant::now();
    while attempted < effort.max_runs
        && (attempted < effort.min_runs || measuring.elapsed().as_secs_f64() < effort.seconds)
    {
        attempted += 1;
        yardstick_ms.push(yardstick.batch());
        match checked_run(workload, &substrate, Some(reference)) {
            Ok((_, ms)) => run_ms.push(ms),
            Err(message) => failures.push(message),
        }
    }
    if run_ms.is_empty() {
        return Err(format!(
            "{}: no timed run passed: {}",
            workload.name,
            failures.join("; ")
        ));
    }
    let failed = failures.len() as u64;
    let peak_rss_mb = rss_mb("VmHWM")? - yardstick_mb;
    drop(substrate);

    if let Some(scenario) = workload.reference_scenario(seed)? {
        let same_events = scenario
            .substrate()
            .run(workload.protocol, workload.queries);
        if same_events.fingerprint() != reference {
            failures.push(format!(
                "{}: fingerprint {reference:016x} differs from {} ({:016x}), which dispatches the same events",
                workload.name,
                workload.same_events_as.unwrap_or("its reference"),
                same_events.fingerprint()
            ));
        }
    }

    let mut setup_yardstick_ms = Vec::new();
    let setup_s = repeat(effort, 1.5, || {
        setup_yardstick_ms.push(yardstick.batch());
        let timer = Instant::now();
        let substrate = set_up(workload, seed)?;
        let seconds = timer.elapsed().as_secs_f64();
        drop(substrate);
        Ok::<f64, String>(seconds)
    })?;

    Ok(EndToEnd {
        setup_s: Summary::of(&setup_s),
        setup_yardstick_ms: Summary::of(&setup_yardstick_ms),
        run_ms: Summary::of(&run_ms),
        yardstick_ms: Summary::of(&yardstick_ms),
        peak_rss_mb,
        attempted: attempted as u64,
        failed,
        failures,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn a_miniature_of_every_workload_passes_its_checks() {
        let effort = Effort {
            min_runs: 2,
            max_runs: 2,
            ..Effort::SMOKE
        };
        for workload in &WORKLOADS {
            let miniature = workload.miniature();
            let measured = run_untraced(&miniature, 42, &effort).unwrap();
            assert!(measured.correct(), "{:?}", measured.failures);
            assert_eq!((measured.attempted, measured.failed), (2, 0));
            assert_eq!((measured.run_ms.n, measured.yardstick_ms.n), (2, 2));
            assert_eq!((measured.setup_s.n, measured.setup_yardstick_ms.n), (1, 1));
            assert!(measured.setup_s.median > 0.0 && measured.run_ms.median > 0.0);
            assert!(measured.report.dispatched_events > 0 && measured.peak_rss_mb > 0.0);
            assert!(measured.report.queries_issued <= miniature.queries as u64);
        }
    }

    #[test]
    fn a_wrong_fingerprint_is_a_failed_operation() {
        let workload = WORKLOADS[3].miniature();
        let substrate = set_up(&workload, 42).unwrap();
        let (report, _) = checked_run(&workload, &substrate, None).unwrap();
        assert!(checked_run(&workload, &substrate, Some(report.fingerprint())).is_ok());
        let error = checked_run(&workload, &substrate, Some(!report.fingerprint())).unwrap_err();
        assert!(error.contains("differs from the reference"), "{error}");
    }

    #[test]
    fn a_wrong_query_count_is_a_failed_operation() {
        let workload = WORKLOADS[0].miniature();
        let report = set_up(&workload, 42)
            .unwrap()
            .run(workload.protocol, workload.queries - 1);
        assert!(workload
            .check_report(&report, false)
            .unwrap_err()
            .contains("queries issued"));
        assert!(workload.check_report(&report, true).is_ok());
        let report = set_up(&workload, 42)
            .unwrap()
            .run(workload.protocol, workload.queries + 1);
        assert!(workload
            .check_report(&report, true)
            .unwrap_err()
            .contains("queries issued"));
    }

    #[test]
    fn repeats_fill_the_time_but_keep_the_minimum() {
        let effort = Effort::seconds(1.0);
        let samples = repeat(&effort, 0.0, || Ok::<f64, String>(1.5)).unwrap();
        assert_eq!(samples, vec![1.5; effort.reps]);
        let samples = repeat(&effort, 60.0, || Ok::<f64, String>(0.0)).unwrap();
        assert_eq!(samples.len(), 99);
        let samples = repeat(&Effort::SMOKE, 60.0, || Ok::<f64, String>(0.0)).unwrap();
        assert_eq!(samples.len(), 1);
        assert!(repeat(&effort, 0.0, || Err::<f64, _>("boom")).is_err());
    }
}
