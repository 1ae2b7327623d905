//! Scale-frontier measurement: substrate build wall clock, run wall clock,
//! and peak RSS at peers ∈ {1k, 10k, 100k}.
//!
//! This is the measurement behind the README's "Scale frontier" table and
//! `BENCH_prN.json`'s build-time trajectory keys. Build timings cover
//! `Simulation::try_build` end to end (BRITE topology, landmark locIds,
//! overlay generation, catalog, placement, link-latency cache); run timings
//! cover `Simulation::run` for a fixed small query count so the number
//! reflects per-event cost at scale rather than workload size.
//!
//! ```text
//! cargo run --release -p locaware-bench --bin scale_frontier -- \
//!     [--peers N,N,..] [--queries N] [--run-max-peers N] [--protocol NAME]
//! ```
//!
//! Peak RSS comes from `VmHWM` in `/proc/self/status`. Between scales the
//! peak is reset via `/proc/self/clear_refs` (writing `5` resets the
//! high-water mark on Linux) so each row reports that scale's own peak, not
//! a cumulative maximum; if the reset is unavailable the row is marked
//! cumulative.

// Timing is this binary's job: the wall-clock ban (clippy.toml disallowed-methods,
// mirroring lint rule D002) exempts crates/bench explicitly.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use locaware::{ProtocolKind, Scenario};
use locaware_bench::flags;

struct Options {
    peers: Vec<usize>,
    queries: usize,
    /// Scales above this only build the substrate (a 10⁵-peer *run* is a
    /// weekly-workflow job, not a smoke test).
    run_max_peers: usize,
    protocol: ProtocolKind,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            peers: vec![1_000, 10_000, 100_000],
            queries: 200,
            run_max_peers: 10_000,
            protocol: ProtocolKind::Locaware,
        };
        let known = ["--peers", "--queries", "--run-max-peers", "--protocol"];
        for (flag, value) in flags::pairs(std::env::args().skip(1), &known)? {
            match flag.as_str() {
                "--peers" => options.peers = flags::list(&value)?,
                "--queries" => options.queries = flags::number(&value)?,
                "--run-max-peers" => options.run_max_peers = flags::number(&value)?,
                "--protocol" => {
                    options.protocol = ProtocolKind::from_label(&value)
                        .ok_or_else(|| format!("unknown protocol {value}"))?;
                }
                other => unreachable!("flags::pairs passed unlisted flag {other}"),
            }
        }
        if options.peers.is_empty() {
            return Err("--peers needs at least one value".to_string());
        }
        Ok(options)
    }
}

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

fn main() {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("scale_frontier: {message}");
            std::process::exit(2);
        }
    };

    println!(
        "# scale_frontier: peers={:?} queries={} run_max_peers={} protocol={}",
        options.peers, options.queries, options.run_max_peers, options.protocol
    );

    for &peers in &options.peers {
        let scoped = reset_peak_rss();
        let started = Instant::now();
        let scenario = Scenario::large_10k(peers);
        let substrate = scenario.substrate();
        let build_ms = started.elapsed().as_secs_f64() * 1000.0;

        let run = if peers <= options.run_max_peers {
            let started = Instant::now();
            let report = substrate.run(options.protocol, options.queries);
            let run_ms = started.elapsed().as_secs_f64() * 1000.0;
            Some((run_ms, report.dispatched_events))
        } else {
            None
        };

        let rss_kb = peak_rss_kb().unwrap_or(0);
        let per_peer_bytes = rss_kb.saturating_mul(1024) / peers.max(1) as u64;
        let rss_note = if scoped { "" } else { " (cumulative)" };
        match run {
            Some((run_ms, events)) => println!(
                "peers={peers} build_ms={build_ms:.1} run_ms={run_ms:.1} events={events} \
                 peak_rss_mb={:.1}{rss_note} per_peer_bytes={per_peer_bytes}",
                rss_kb as f64 / 1024.0
            ),
            None => println!(
                "peers={peers} build_ms={build_ms:.1} run_ms=skipped \
                 peak_rss_mb={:.1}{rss_note} per_peer_bytes={per_peer_bytes}",
                rss_kb as f64 / 1024.0
            ),
        }
    }
}
