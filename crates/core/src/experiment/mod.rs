//! The experiment layer: scenarios, plans and the parallel runner.
//!
//! The paper's evaluation methodology has one load-bearing rule: *every
//! protocol is measured over an identical substrate* — same underlay, same
//! overlay, same catalog, placement and query schedule, with only the policy
//! swapped. This module makes that rule a property of the types instead of a
//! convention of the call sites:
//!
//! 1. [`Scenario`] — a named, **validated** configuration. Construction is
//!    fallible ([`Scenario::from_config`] returns [`ConfigError`]);
//!    holding a `Scenario` is proof the
//!    configuration is consistent. Named presets cover the paper's setup
//!    ([`Scenario::paper_defaults`], [`Scenario::small`]) and three extension
//!    regimes ([`Scenario::flash_crowd`], [`Scenario::churn_storm`],
//!    [`Scenario::regional_hotspot`]).
//! 2. [`ExperimentPlan`] — the grid: scenarios × protocols × query counts ×
//!    repetitions.
//! 3. [`Runner`] — executes the grid on scoped worker threads stealing tasks
//!    from a shared queue, building each (scenario, repetition) substrate
//!    **exactly once** and sharing it immutably (`Arc`) across every protocol
//!    and query count at that point.
//!
//! ```
//! use locaware::experiment::{ExperimentPlan, Runner, Scenario};
//! use locaware::ProtocolKind;
//!
//! let plan = ExperimentPlan::new()
//!     .scenario(Scenario::small(60).with_seed(1))
//!     .protocols([ProtocolKind::Locaware, ProtocolKind::Flooding])
//!     .query_count(40);
//! let outcome = Runner::new().run(&plan).expect("plan is complete");
//!
//! // Both protocols ran over one substrate, built once:
//! assert_eq!(outcome.substrates_built, 1);
//! let locaware = outcome.report("small", ProtocolKind::Locaware, 40, 0).unwrap();
//! let flooding = outcome.report("small", ProtocolKind::Flooding, 40, 0).unwrap();
//! assert!(locaware.avg_messages_per_query() < flooding.avg_messages_per_query());
//! ```

mod plan;
mod runner;
mod scenario;

pub use plan::{ExperimentPlan, PlanError};
pub use runner::{ExperimentOutcome, ExperimentPoint, Runner};
pub use scenario::{
    Scenario, FLASH_CROWD_BURST_DURATION_SECS, FLASH_CROWD_BURST_START_SECS,
    FLASH_CROWD_RATE_MULTIPLIER, REGIONAL_HOTSPOT_WEIGHTS,
};

// The error type of scenario construction lives next to the validation rules
// in `config`; re-export it here so `experiment::*` is self-contained.
pub use crate::config::ConfigError;
