//! Regime-workload benchmark: wall-clock and headline metrics for the
//! non-homogeneous workload presets, with bit-identity of every run verified
//! along the way.
//!
//! This is the measurement behind `BENCH_prN.json`'s `workload_regimes`
//! section: each preset (the steady `small` baseline plus the rebuilt
//! `flash-crowd`, `churn-storm` and `regional-hotspot` regimes) runs
//! Locaware and Flooding over one shared substrate per preset, so the table
//! shows what each regime costs to simulate and how the protocols behave
//! under it (burst windows stress the event queue, weighted clusters skew
//! per-shard load, churn adds barrier transitions).
//!
//! ```text
//! cargo run --release -p locaware-bench --bin workload_regimes -- \
//!     [--peers N] [--queries N] [--repeats N] [--scenarios a,b,c]
//! ```

// Timing is this binary's job: the wall-clock ban (clippy.toml disallowed-methods,
// mirroring lint rule D002) exempts crates/bench explicitly.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use locaware::{ProtocolKind, Scenario};
use locaware_bench::flags;

struct Options {
    peers: usize,
    queries: usize,
    repeats: usize,
    scenarios: Vec<String>,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            peers: 300,
            queries: 500,
            repeats: 1,
            scenarios: vec![
                "small".to_string(),
                "flash-crowd".to_string(),
                "churn-storm".to_string(),
                "regional-hotspot".to_string(),
            ],
        };
        let known = ["--peers", "--queries", "--repeats", "--scenarios"];
        for (flag, value) in flags::pairs(std::env::args().skip(1), &known)? {
            match flag.as_str() {
                "--peers" => options.peers = flags::number(&value)?,
                "--queries" => options.queries = flags::number(&value)?,
                "--repeats" => options.repeats = flags::number(&value)?.max(1),
                "--scenarios" => {
                    options.scenarios = value.split(',').map(|s| s.trim().to_string()).collect();
                }
                other => unreachable!("flags::pairs passed unlisted flag {other}"),
            }
        }
        Ok(options)
    }
}

fn main() {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("workload_regimes: {message}");
            std::process::exit(2);
        }
    };

    println!(
        "# workload_regimes: peers={} queries={} repeats={}",
        options.peers, options.queries, options.repeats
    );

    for name in &options.scenarios {
        let Some(scenario) = Scenario::preset(name, options.peers) else {
            eprintln!(
                "workload_regimes: unknown scenario {name}; presets: {}",
                Scenario::PRESET_NAMES.join(", ")
            );
            std::process::exit(2);
        };
        let substrate = scenario.substrate();
        for protocol in [ProtocolKind::Locaware, ProtocolKind::Flooding] {
            // One untimed warm-up run that also sets the reference print
            // ([`SimulationReport::fingerprint`], the determinism digest).
            let report = substrate.run(protocol, options.queries);
            let print = report.fingerprint();
            let started = Instant::now();
            for _ in 0..options.repeats {
                let repeat = substrate.run(protocol, options.queries);
                assert_eq!(
                    repeat.fingerprint(),
                    print,
                    "{name}/{protocol}: unstable repeat"
                );
            }
            let ms = started.elapsed().as_secs_f64() * 1000.0 / options.repeats as f64;
            println!(
                "{name} {protocol} wall_ms={ms:.1} events={} success={:.3} msgs_per_query={:.1} \
                 locality_match={:.3} sim_span_s={:.0} fingerprint={print:#018x}",
                report.dispatched_events,
                report.success_rate(),
                report.avg_messages_per_query(),
                report.locality_match_rate(),
                report.simulated_end_time_secs,
            );
        }
    }
}
