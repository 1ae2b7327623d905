//! Protocol comparison: the paper's four approaches side by side on one
//! substrate — a miniature of Figures 2–4.
//!
//! ```text
//! cargo run --example protocol_comparison --release
//! ```
//!
//! Declares the whole grid — one scenario, four protocols, three query
//! counts — as an `ExperimentPlan` and lets the `Runner` schedule it: the
//! substrate is built once and shared by all twelve runs, so every curve is
//! measured over the identical system. Prints the three metric tables plus
//! the headline comparisons the paper quotes in §5.2.

use locaware_suite::prelude::*;

fn main() {
    let scenario = Scenario::small(300).with_seed(7).with_name("comparison");
    let query_counts = [300usize, 600, 900];
    let protocols = ProtocolKind::PAPER_SET;

    let plan = ExperimentPlan::new()
        .scenario(scenario.clone())
        .protocols(protocols)
        .query_counts(query_counts);
    let outcome = Runner::new().run(&plan).expect("grid lists every dimension");
    assert_eq!(
        outcome.substrates_built, 1,
        "all {} runs share one substrate",
        outcome.len()
    );

    let mut fig2 = Figure::new("queries");
    let mut fig3 = Figure::new("queries");
    let mut fig4 = Figure::new("queries");

    for point in &outcome.points {
        let x = point.queries as u64;
        fig2.push(
            point.protocol.label(),
            SeriesPoint { x, value: point.report.avg_download_distance_ms() },
        );
        fig3.push(point.protocol.label(), SeriesPoint { x, value: point.report.avg_messages_per_query() });
        fig4.push(point.protocol.label(), SeriesPoint { x, value: point.report.success_rate() });
    }

    println!("# Download distance vs queries (ms)\n{}", fig2.table().render());
    println!("# Search traffic vs queries (messages per query)\n{}", fig3.table().render());
    println!("# Success rate vs queries\n{}", fig4.table().render());

    // Headline comparisons at the largest query count.
    let x = *query_counts.last().unwrap() as u64;
    let locaware_traffic = fig3.value_at("locaware", x).unwrap();
    let flooding_traffic = fig3.value_at("flooding", x).unwrap();
    let locaware_success = fig4.value_at("locaware", x).unwrap();
    let dicas_success = fig4.value_at("dicas", x).unwrap();
    let dicas_keys_success = fig4.value_at("dicas-keys", x).unwrap();

    println!("At {x} queries:");
    println!(
        "  - Locaware cuts search traffic by {:.1}% vs flooding (paper: ~98%).",
        100.0 * (1.0 - locaware_traffic / flooding_traffic)
    );
    println!(
        "  - Locaware's success rate is {:+.1}% vs Dicas (paper: +23%) and {:+.1}% vs Dicas-Keys (paper: +33%).",
        100.0 * (locaware_success / dicas_success - 1.0),
        100.0 * (locaware_success / dicas_keys_success - 1.0)
    );
}
