//! Flash crowd: what Locaware's location-aware caching does when one file
//! suddenly becomes wildly popular.
//!
//! ```text
//! cargo run --example flash_crowd --release
//! ```
//!
//! The paper motivates Locaware with exactly this workload: "most queries
//! request a few popular files", the popular file becomes naturally
//! well-replicated as requestors finish their downloads, and Locaware's
//! response indexes record those new replicas *with their locIds* so later
//! requestors are pointed at a copy in their own locality.
//!
//! The `Scenario::flash_crowd` preset captures the regime with a first-class
//! burst schedule: the Zipf head behaves like a sudden hit (α = 1.5) and,
//! after a steady lead-in at the paper's base rate, arrivals burst at 25×
//! inside a bounded window. Locaware and Flooding run over the same substrate
//! via one `ExperimentPlan`, and the tables below show how the download
//! distance and the provider pool evolve quarter by quarter as replication
//! kicks in.

use locaware_suite::locaware_workload::ArrivalSchedule;
use locaware_suite::locaware::results::{
    avg_download_distance_ms, locality_match_rate, success_rate, QueryRecord,
};
use locaware_suite::prelude::*;

fn main() {
    let scenario = Scenario::flash_crowd(300);
    let queries = 1200usize;
    let ArrivalSchedule::Burst {
        multiplier,
        start_secs,
        duration_secs,
    } = scenario.config().arrival_schedule
    else {
        unreachable!("the flash-crowd preset carries a burst schedule");
    };
    println!(
        "Flash-crowd workload ('{}'): Zipf exponent {}, {multiplier}x arrival burst \
         from t={start_secs}s for {duration_secs}s, {} queries over {} peers\n",
        scenario.name(),
        scenario.config().zipf_exponent,
        queries,
        scenario.config().peers
    );

    let plan = ExperimentPlan::new()
        .scenario(scenario.clone())
        .protocols([ProtocolKind::Locaware, ProtocolKind::Flooding])
        .query_count(queries);
    let outcome = Runner::new().run(&plan).expect("plan lists every dimension");
    let locaware = outcome
        .report(scenario.name(), ProtocolKind::Locaware, queries, 0)
        .expect("locaware ran");
    let flooding = outcome
        .report(scenario.name(), ProtocolKind::Flooding, queries, 0)
        .expect("flooding ran");

    let mut table = Table::new([
        "quarter",
        "locaware distance (ms)",
        "flooding distance (ms)",
        "locaware locality matches",
        "locaware success",
    ]);
    let quarter = queries / 4;
    for q in 0..4 {
        let lo = quarter_of(&locaware.metrics, q, quarter);
        let fl = quarter_of(&flooding.metrics, q, quarter);
        table.push_row([
            format!("Q{}", q + 1),
            format!("{:.1}", avg_download_distance_ms(lo)),
            format!("{:.1}", avg_download_distance_ms(fl)),
            format!("{:.1}%", locality_match_rate(lo) * 100.0),
            format!("{:.1}%", success_rate(lo) * 100.0),
        ]);
    }
    println!("{}", table.render());

    let initial_replicas = scenario.config().peers * scenario.config().files_per_peer;
    println!(
        "Natural replication: the system started with {} file copies and ended the Locaware \
         run with {} ({} downloads served).",
        initial_replicas,
        locaware.total_file_replicas,
        locaware.total_file_replicas - initial_replicas
    );
    println!(
        "Locaware's average download distance over the whole run: {:.1} ms vs {:.1} ms for flooding \
         ({:.1}% closer).",
        locaware.avg_download_distance_ms(),
        flooding.avg_download_distance_ms(),
        100.0 * (1.0 - locaware.avg_download_distance_ms() / flooding.avg_download_distance_ms())
    );
    println!(
        "Share of Locaware downloads served from a provider in the requestor's own locality: {:.1}%.",
        locaware.locality_match_rate() * 100.0
    );
}

/// The records of quarter `q` of the run: `quarter` of them, ending at the
/// quarter's last query (earlier if the run recorded fewer queries).
fn quarter_of(records: &[QueryRecord], q: usize, quarter: usize) -> &[QueryRecord] {
    let end = ((q + 1) * quarter).min(records.len());
    &records[end.saturating_sub(quarter)..end]
}
