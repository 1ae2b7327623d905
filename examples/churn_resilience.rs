//! Churn resilience: what happens to index caching when peers come and go.
//!
//! ```text
//! cargo run --example churn_resilience --release
//! ```
//!
//! The paper's evaluation runs on a static overlay, but §4.1.2 explicitly
//! worries about dynamics: "Given the high dynamicity of peers, studies in
//! Gnutella showed that cached objects should be kept for a small amount of
//! time to avoid sending stale responses". This example compares Locaware and
//! Dicas across three scenarios of increasing churn intensity — a static
//! overlay, a mild session-churn regime spelled as a `SimulationConfig`, and the
//! `Scenario::churn_storm` preset — all in a single `ExperimentPlan`, and
//! shows why Locaware's multiple-providers-per-index design degrades more
//! gracefully than a single-provider cache: when the cached provider of a
//! Dicas entry has left, the response is stale and the download fails,
//! whereas a Locaware response still lists other (possibly online) replicas.

use locaware_suite::prelude::*;

fn main() {
    let peers = 300usize;
    let queries = 800usize;

    let static_overlay = Scenario::small(peers).with_seed(31).with_name("no-churn");
    let mild_churn = SimulationConfig {
        seed: 31,
        churn: ChurnConfig {
            mean_session_secs: 1800.0,
            mean_offline_secs: 600.0,
            churning_fraction: 0.3,
        },
        ..SimulationConfig::small(peers)
    };
    let mild =
        Scenario::from_config("mild-churn", mild_churn).expect("mild churn scenario validates");
    // The preset keeps its own seed: churn-storm is a named regime, and its
    // numbers should be reproducible independently of this example.
    let storm = Scenario::churn_storm(peers);

    let scenarios = [static_overlay, mild, storm];
    let plan = ExperimentPlan::new()
        .scenarios(scenarios.iter().cloned())
        .protocols([ProtocolKind::Locaware, ProtocolKind::Dicas])
        .query_count(queries);
    let outcome = Runner::new().run(&plan).expect("plan lists every dimension");
    assert_eq!(
        outcome.substrates_built,
        scenarios.len(),
        "one substrate per scenario, shared by both protocols"
    );

    let mut table = Table::new([
        "scenario",
        "locaware success",
        "dicas success",
        "locaware distance (ms)",
        "dicas distance (ms)",
    ]);

    for scenario in &scenarios {
        let locaware = outcome
            .report(scenario.name(), ProtocolKind::Locaware, queries, 0)
            .expect("locaware ran");
        let dicas = outcome
            .report(scenario.name(), ProtocolKind::Dicas, queries, 0)
            .expect("dicas ran");
        table.push_row([
            scenario.name().to_string(),
            format!("{:.1}%", locaware.success_rate() * 100.0),
            format!("{:.1}%", dicas.success_rate() * 100.0),
            format!("{:.1}", locaware.avg_download_distance_ms()),
            format!("{:.1}", dicas.avg_download_distance_ms()),
        ]);
    }

    println!("Effect of churn on index caching ({queries} queries, {peers} peers)\n");
    println!("{}", table.render());
    println!(
        "Locaware keeps several provider entries per cached filename, so a response assembled \
         from its index can still point at an online replica after the original provider left; \
         a single-provider cache has nothing to fall back on."
    );
}
