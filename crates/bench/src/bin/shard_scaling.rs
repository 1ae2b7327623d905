//! Shard-scaling benchmark: wall-clock per protocol run at shard counts
//! {1, 2, 4, 8}, with bit-identity of the reports verified along the way.
//!
//! This is the measurement behind `BENCH_prN.json`'s `shard_scaling` section
//! and the README's "Sharded engine" table. Substrate construction is
//! excluded (it is built once per shard count and shared across protocols,
//! exactly like the experiment layer does); timings cover `Simulation::run`
//! end to end.
//!
//! ```text
//! cargo run --release -p locaware-bench --bin shard_scaling -- \
//!     [--peers N] [--queries N] [--scenario NAME] [--repeats N]
//! ```
//!
//! The default workload is `flash-crowd` (a 25× arrival-rate burst window):
//! dense event regions are where intra-run parallelism matters — and where
//! the paper's beyond-10³-peer ambitions live. Sparse workloads (the paper's
//! 0.83 q/s default) fit in one window per query burst and gain little,
//! which the numbers show honestly.

// Timing is this binary's job: the wall-clock ban (clippy.toml disallowed-methods,
// mirroring lint rule D002) exempts crates/bench explicitly.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use locaware::{ProtocolKind, Scenario, SimulationReport};
use locaware_bench::flags;

struct Options {
    peers: usize,
    queries: usize,
    scenario: String,
    repeats: usize,
    shard_counts: Vec<usize>,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            peers: 1000,
            queries: 2000,
            scenario: "flash-crowd".to_string(),
            repeats: 1,
            shard_counts: vec![1, 2, 4, 8],
        };
        let known = ["--peers", "--queries", "--repeats", "--scenario", "--shards"];
        for (flag, value) in flags::pairs(std::env::args().skip(1), &known)? {
            match flag.as_str() {
                "--peers" => options.peers = flags::number(&value)?,
                "--queries" => options.queries = flags::number(&value)?,
                "--repeats" => options.repeats = flags::number(&value)?.max(1),
                "--scenario" => options.scenario = value,
                "--shards" => options.shard_counts = flags::list(&value)?,
                other => unreachable!("flags::pairs passed unlisted flag {other}"),
            }
        }
        Ok(options)
    }
}

/// The determinism fingerprint ([`SimulationReport::fingerprint`]): a cheap
/// stable digest over the fields the determinism suite compares
/// byte-for-byte.
fn fingerprint(report: &SimulationReport) -> u64 {
    report.fingerprint()
}

fn main() {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("shard_scaling: {message}");
            std::process::exit(2);
        }
    };

    let protocols = [ProtocolKind::Locaware, ProtocolKind::Flooding];
    println!(
        "# shard_scaling: scenario={} peers={} queries={} repeats={}",
        options.scenario, options.peers, options.queries, options.repeats
    );

    for protocol in protocols {
        let mut baseline_ms = None;
        let mut baseline_print = None;
        for &shards in &options.shard_counts {
            let Some(scenario) = Scenario::preset(&options.scenario, options.peers) else {
                eprintln!("shard_scaling: unknown scenario {}", options.scenario);
                std::process::exit(2);
            };
            let mut config = scenario.config().clone();
            config.shards = shards;
            let scenario = Scenario::from_config(format!("{}-s{shards}", options.scenario), config)
                .expect("shard count does not affect validity");
            let substrate = scenario.substrate();

            // One untimed warm-up run, then the timed repeats.
            let report = substrate.run(protocol, options.queries);
            let print = fingerprint(&report);
            match baseline_print {
                None => baseline_print = Some(print),
                Some(expected) => assert_eq!(
                    print, expected,
                    "{protocol}: {shards} shards diverged from the baseline report"
                ),
            }
            let started = Instant::now();
            for _ in 0..options.repeats {
                let repeat = substrate.run(protocol, options.queries);
                assert_eq!(fingerprint(&repeat), print, "{protocol}: unstable repeat");
            }
            let ms = started.elapsed().as_secs_f64() * 1000.0 / options.repeats as f64;
            let speedup = match baseline_ms {
                None => {
                    baseline_ms = Some(ms);
                    1.0
                }
                Some(base) => base / ms,
            };
            println!(
                "{protocol} shards={shards} wall_ms={ms:.1} speedup_vs_1={speedup:.2} events={} fingerprint={print:#018x}",
                report.dispatched_events
            );
        }
    }
}
