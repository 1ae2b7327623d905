//! # locaware-suite — top-level examples and integration tests
//!
//! This crate is the workspace's umbrella package: it hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`) and
//! re-exports the individual crates under one roof so examples can write
//! `use locaware_suite::prelude::*;`.
//!
//! The actual library code lives in the member crates:
//!
//! * [`locaware`] — the paper's contribution (protocols, response index,
//!   the experiment API and the simulation runner),
//! * [`locaware_sim`] — the discrete-event engine,
//! * [`locaware_net`] — the physical underlay and locIds,
//! * [`locaware_overlay`] — the unstructured overlay,
//! * [`locaware_bloom`] — Bloom filters and deltas,
//! * [`locaware_workload`] — catalog, Zipf queries, placement and arrivals,
//! * [`locaware_metrics`] — records, figures and tables.

#![warn(missing_docs)]

pub use locaware;
pub use locaware_bloom;
pub use locaware_metrics;
pub use locaware_net;
pub use locaware_overlay;
pub use locaware_sim;
pub use locaware_workload;

/// The most commonly used types, re-exported for examples and tests.
pub mod prelude {
    pub use locaware::{
        ConfigError, ExperimentOutcome, ExperimentPlan, ExperimentPoint, PlanError, ProtocolKind,
        Runner, Scenario, Simulation, SimulationConfig, SimulationReport,
    };
    pub use locaware_metrics::{Figure, SeriesPoint, Table};
    pub use locaware_overlay::ChurnConfig;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_runnable_simulation() {
        let report = Scenario::small(40)
            .with_seed(1)
            .substrate()
            .run(ProtocolKind::Flooding, 10);
        assert_eq!(report.queries_issued, 10);
    }

    #[test]
    fn prelude_exposes_the_experiment_api() {
        let plan = ExperimentPlan::new()
            .scenario(Scenario::small(40).with_seed(1))
            .protocol(ProtocolKind::Flooding)
            .query_count(10);
        let outcome = Runner::new().with_threads(2).run(&plan).expect("valid plan");
        assert_eq!(outcome.substrates_built, 1);
        assert_eq!(outcome.len(), 1);
    }
}
