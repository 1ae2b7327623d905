//! Quickstart: describe a scenario, run an experiment, read the results.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! This walks through the library's experiment API in three steps:
//!
//!  1. **Scenario** — describe the system with a [`Scenario`]. The named
//!     presets ([`Scenario::paper_defaults`], [`Scenario::small`],
//!     [`Scenario::flash_crowd`], [`Scenario::churn_storm`],
//!     [`Scenario::regional_hotspot`]) are validated, seeded configurations;
//!     custom ones are a [`SimulationConfig`] handed to the fallible
//!     [`Scenario::from_config`], which returns a typed [`ConfigError`]
//!     instead of panicking on inconsistent inputs.
//!  2. **Plan** — declare what to measure with an [`ExperimentPlan`]:
//!     scenarios × protocols × query counts × repetitions.
//!  3. **Run** — hand the plan to a [`Runner`]. It builds the substrate of
//!     each (scenario, repetition) point exactly once, shares it immutably
//!     across every protocol and query count (that identical-substrate rule
//!     is what makes the paper's Figures 2–4 comparable), and fans the grid
//!     out over worker threads. Each [`SimulationReport`] in the outcome
//!     carries the per-query records behind the figures.
//!
//! The scale here is ~200 peers so the example finishes in a couple of
//! seconds; swap in `Scenario::paper_defaults()` for the 1000-peer setup.

use locaware_suite::prelude::*;

fn main() {
    // 1. Scenario: the paper's setup scaled to 200 peers, with an explicit
    //    seed so reruns are bit-for-bit identical. Validation errors are real
    //    errors — an invalid knob would surface here, not as a panic later.
    let config = SimulationConfig { seed: 2024, ..SimulationConfig::small(200) };
    let scenario = match Scenario::from_config("quickstart", config) {
        Ok(scenario) => scenario,
        Err(problem) => {
            eprintln!("invalid scenario: {problem}");
            std::process::exit(1);
        }
    };
    let config = scenario.config();
    println!(
        "Scenario '{}': {} peers, {} files, {} keywords, TTL {}, {} landmarks\n",
        scenario.name(),
        config.peers,
        config.file_pool,
        config.keyword_pool,
        config.ttl,
        config.landmarks
    );

    // The substrate is inspectable on its own: peers, overlay wiring,
    // localities. Every protocol run over this scenario sees exactly this
    // system.
    let substrate = scenario.substrate();
    println!(
        "Overlay: {} peers, average degree {:.2}, connected: {}",
        substrate.overlay().len(),
        substrate.overlay().average_degree(),
        substrate.overlay().is_connected()
    );
    let distinct_localities = {
        let mut locs: Vec<_> = substrate.loc_ids().to_vec();
        locs.sort_unstable();
        locs.dedup();
        locs.len()
    };
    println!(
        "Localities: {} landmarks partition the peers into {} distinct locIds\n",
        substrate.landmarks().len(),
        distinct_localities
    );

    // 2. Plan: Locaware vs the flooding baseline, 800 queries each.
    let queries = 800usize;
    let plan = ExperimentPlan::new()
        .scenario(scenario.clone())
        .protocols([ProtocolKind::Locaware, ProtocolKind::Flooding])
        .query_count(queries);

    // 3. Run. The runner builds the substrate once and runs both protocols
    //    over it; the outcome records how many builds actually happened.
    let outcome = Runner::new().run(&plan).expect("the plan lists every dimension");
    assert_eq!(outcome.substrates_built, 1, "both protocols share one substrate");

    let report = outcome
        .report(scenario.name(), ProtocolKind::Locaware, queries, 0)
        .expect("locaware ran");
    let flooding = outcome
        .report(scenario.name(), ProtocolKind::Flooding, queries, 0)
        .expect("flooding ran");

    println!("{}", report.summary_table().render());
    println!(
        "Locaware used {:.1} messages/query where flooding used {:.1} ({:.1}% less traffic).",
        report.avg_messages_per_query(),
        flooding.avg_messages_per_query(),
        100.0 * (1.0 - report.avg_messages_per_query() / flooding.avg_messages_per_query())
    );
    println!(
        "Locaware's average download distance was {:.1} ms vs {:.1} ms under flooding.",
        report.avg_download_distance_ms(),
        flooding.avg_download_distance_ms()
    );
}
