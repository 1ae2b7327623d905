//! Degradation sweep: how each protocol family's success rate and traffic
//! hold up as the network gets lossier, plus the crash-stop vs graceful
//! churn comparison. This is the measurement behind EXPERIMENTS.md's
//! robustness section.
//!
//! For every loss rate the resilience machinery stays armed with the same
//! policies (query retransmit 3 s × 2.0 backoff × 2 retries, DHT step
//! timeout 2 s), so the curves isolate the loss axis instead of conflating
//! it with "did the protocol fight back". Every point runs at shard counts
//! 1 and 4 and asserts fingerprint equality — the sweep doubles as a
//! fault-plan shard-invariance check on sizes CI does not cover.
//!
//! ```text
//! cargo run --release -p locaware-bench --bin degradation -- \
//!     [--peers N] [--queries N] [--losses 0,1,5,10]
//! ```

use locaware::{ProtocolKind, Scenario, SimulationReport};
use locaware_bench::flags;
use locaware_metrics::{Figure, SeriesPoint};
use locaware_workload::{FaultConfig, TimeoutPolicy};

/// The four families EXPERIMENTS.md compares under degradation.
const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Flooding,
    ProtocolKind::Locaware,
    ProtocolKind::DhtIndex,
    ProtocolKind::Hybrid,
];

struct Options {
    peers: usize,
    queries: usize,
    losses_pct: Vec<u64>,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            peers: 120,
            queries: 300,
            losses_pct: vec![0, 1, 5, 10],
        };
        let known = ["--peers", "--queries", "--losses"];
        for (flag, value) in flags::pairs(std::env::args().skip(1), &known)? {
            match flag.as_str() {
                "--peers" => options.peers = flags::number(&value)?,
                "--queries" => options.queries = flags::number(&value)?,
                "--losses" => {
                    options.losses_pct =
                        flags::list(&value)?.into_iter().map(|n| n as u64).collect();
                }
                other => unreachable!("flags::pairs passed unlisted flag {other}"),
            }
        }
        Ok(options)
    }
}

/// The armed-resilience fault plan at a given loss rate.
fn faults_at(loss: f64) -> FaultConfig {
    let mut faults = FaultConfig::disabled();
    faults.message_loss = loss;
    faults.query_timeout = TimeoutPolicy {
        initial_secs: 3.0,
        backoff: 2.0,
        max_retries: 2,
    };
    faults.dht_step_timeout_secs = 2.0;
    faults
}

/// Runs one configured scenario at 1 and 4 shards, asserts bit-identity and
/// returns the single-shard report.
fn run_both_shardings(
    label: &str,
    scenario: &Scenario,
    protocol: ProtocolKind,
    queries: usize,
) -> SimulationReport {
    let shard = |shards: usize| {
        let mut config = scenario.config().clone();
        config.shards = shards;
        Scenario::from_config(scenario.name().to_string(), config)
            .expect("shard count does not affect validity")
            .substrate()
            .run(protocol, queries)
    };
    let single = shard(1);
    let sharded = shard(4);
    assert_eq!(
        single.fingerprint(),
        sharded.fingerprint(),
        "{label}/{protocol}: 4 shards must reproduce the single-shard run"
    );
    single
}

fn main() {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("degradation: {message}");
            std::process::exit(2);
        }
    };

    println!(
        "# degradation: peers={} queries={} losses(%)={:?}",
        options.peers, options.queries, options.losses_pct
    );

    // ---- success / traffic vs loss rate --------------------------------
    let mut success = Figure::degradation("message loss", "success rate");
    let mut traffic = Figure::degradation("message loss", "messages per query");
    for &loss_pct in &options.losses_pct {
        let scenario = Scenario::builder("degradation")
            .peers(options.peers)
            .seed(0xDE_64AD)
            .faults(faults_at(loss_pct as f64 / 100.0))
            .build()
            .expect("loss rates up to 100% validate");
        for protocol in PROTOCOLS {
            let report =
                run_both_shardings("degradation", &scenario, protocol, options.queries);
            let stats = report.faults.expect("armed plan reports statistics");
            println!(
                "loss={loss_pct}% {protocol} success={:.3} msgs_per_query={:.1} lost={} \
                 timeouts={} retransmits={} step_timeouts={}",
                report.success_rate(),
                report.avg_messages_per_query(),
                stats.messages_lost,
                stats.query_timeouts,
                stats.query_retransmits,
                stats.dht_step_timeouts,
            );
            success.push(
                protocol.label(),
                SeriesPoint { queries: loss_pct, value: report.success_rate() },
            );
            traffic.push(
                protocol.label(),
                SeriesPoint { queries: loss_pct, value: report.avg_messages_per_query() },
            );
        }
    }
    println!("\n{}", success.to_table());
    println!("{}", traffic.to_table());

    // ---- crash-stop vs graceful churn ----------------------------------
    println!("# churn-storm: graceful vs crash-stop departures");
    let storm = Scenario::churn_storm(options.peers);
    let crashy = {
        let mut faults = FaultConfig::disabled();
        faults.crash_stop = true;
        faults.dht_step_timeout_secs = 2.0;
        let mut config = storm.config().clone();
        config.faults = faults;
        Scenario::from_config("churn-storm-crash", config)
            .expect("crash-stop does not affect validity")
    };
    assert!(!storm.config().churn.is_disabled(), "the storm must churn");
    for protocol in PROTOCOLS {
        let graceful = run_both_shardings("graceful", &storm, protocol, options.queries);
        let crashed = run_both_shardings("crash-stop", &crashy, protocol, options.queries);
        let stats = crashed.faults.expect("crash-stop arms the plan");
        println!(
            "{protocol} graceful_success={:.3} crash_success={:.3} \
             graceful_msgs={:.1} crash_msgs={:.1} crash_departures={} step_timeouts={}",
            graceful.success_rate(),
            crashed.success_rate(),
            graceful.avg_messages_per_query(),
            crashed.avg_messages_per_query(),
            stats.crash_departures,
            stats.dht_step_timeouts,
        );
    }
}
