//! `scale [--peers N,N,..] [--queries N] [--run-max-peers N] [--protocol NAME]`:
//! substrate build wall clock, run wall clock and peak RSS of the `large-10k`
//! preset at peers ∈ {1k, 10k, 100k} — the one tier `perfbench` has no
//! workload for (its largest is 10k), and so the one subcommand that reads
//! the wall clock itself.
//!
//! Build timings cover the substrate end to end (BRITE topology, landmark
//! locIds, overlay generation, catalog, placement, link-latency cache); run
//! timings cover `Simulation::run` for a fixed small query count so the
//! number reflects per-event cost at scale rather than workload size.
//!
//! Peak RSS comes from `VmHWM` in `/proc/self/status`. Between scales the
//! peak is reset via `/proc/self/clear_refs` (writing `5` resets the
//! high-water mark on Linux) so each row reports that scale's own peak, not
//! a cumulative maximum; if the reset is unavailable the row is marked
//! cumulative.

use std::time::Instant;

use locaware::ProtocolKind;
use locaware_metrics::Table;

use crate::{flags, preset, render};

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`), or
/// `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the RSS high-water mark so the next [`peak_rss_kb`] reading is
/// scoped to work done after this call. Returns false when the kernel
/// interface is unavailable (the reading is then cumulative).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[expect(
    clippy::disallowed_methods,
    reason = "the one wall-clock exemption: this subcommand times builds and runs"
)]
pub(crate) fn run(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let (mut peer_counts, mut queries) = (vec![1_000, 10_000, 100_000], 200);
    // Scales above this only build the substrate (a 10⁵-peer *run* is a
    // weekly-workflow job, not a smoke test).
    let mut run_max_peers = 10_000;
    let mut protocol = ProtocolKind::Locaware;
    let known = ["--peers", "--queries", "--run-max-peers", "--protocol"];
    for (flag, value) in flags::pairs(args, &known, &[])? {
        match flag.as_str() {
            "--peers" => peer_counts = flags::list(&value)?,
            "--queries" => queries = flags::number(&value)?,
            "--run-max-peers" => run_max_peers = flags::number(&value)?,
            "--protocol" => {
                protocol = ProtocolKind::from_label(&value)
                    .ok_or_else(|| format!("unknown protocol {value}"))?;
            }
            other => unreachable!("flags::pairs passed unlisted flag {other}"),
        }
    }
    let scenarios = peer_counts
        .iter()
        .map(|&peers| preset("large-10k", peers))
        .collect::<Result<Vec<_>, _>>()?;

    let title = format!(
        "scale_frontier: peers={peer_counts:?} queries={queries} \
         run_max_peers={run_max_peers} protocol={protocol}"
    );
    let mut table = Table::new(["peers", "build_ms", "run_ms", "events", "peak_rss_mb", "per_peer_bytes"]);
    for (peers, scenario) in peer_counts.into_iter().zip(scenarios) {
        let scoped = reset_peak_rss();
        let started = Instant::now();
        let substrate = scenario.substrate();
        let build_ms = started.elapsed().as_secs_f64() * 1000.0;

        let (run_ms, events) = if peers <= run_max_peers {
            let started = Instant::now();
            let report = substrate.run(protocol, queries);
            let run_ms = started.elapsed().as_secs_f64() * 1000.0;
            (format!("{run_ms:.1}"), report.dispatched_events.to_string())
        } else {
            ("skipped".to_string(), "-".to_string())
        };

        let rss_kb = peak_rss_kb().unwrap_or(0);
        let per_peer_bytes = rss_kb.saturating_mul(1024) / peers as u64;
        let rss_note = if scoped { "" } else { " (cumulative)" };
        table.push_row([
            peers.to_string(),
            format!("{build_ms:.1}"),
            run_ms,
            events,
            format!("{:.1}{rss_note}", rss_kb as f64 / 1024.0),
            per_peer_bytes.to_string(),
        ]);
    }
    Ok(render(&[(title, table)], false))
}
