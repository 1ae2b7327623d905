//! Experiment plans: the grid an experiment runs over.
//!
//! An [`ExperimentPlan`] is the declarative description of a whole
//! experiment: which [`Scenario`]s, which [`ProtocolKind`]s, which query
//! counts (the x-axis of the paper's figures) and how many seed-independent
//! repetitions. The plan itself does no work — [`Runner`](super::Runner)
//! executes it — which keeps "what to measure" and "how to schedule it"
//! separate, and makes the comparability contract visible in the types: all
//! protocols and query counts at one (scenario, repetition) grid point share
//! one substrate.

use crate::config::ProtocolKind;

use super::scenario::Scenario;

/// Why an [`ExperimentPlan`] cannot be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The plan lists no scenarios.
    NoScenarios,
    /// The plan lists no protocols.
    NoProtocols,
    /// The plan lists no query counts.
    NoQueryCounts,
    /// The plan asks for zero repetitions.
    ZeroRepetitions,
    /// Two scenarios share a name. Names label every outcome lookup
    /// ([`crate::ExperimentOutcome::report`] keys on them), so duplicates
    /// would make the results of the two scenarios indistinguishable; rename
    /// one with [`Scenario::with_name`].
    DuplicateScenarioName(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoScenarios => write!(f, "experiment plan needs at least one scenario"),
            PlanError::NoProtocols => write!(f, "experiment plan needs at least one protocol"),
            PlanError::NoQueryCounts => {
                write!(f, "experiment plan needs at least one query count")
            }
            PlanError::ZeroRepetitions => {
                write!(f, "experiment plan needs at least one repetition")
            }
            PlanError::DuplicateScenarioName(name) => write!(
                f,
                "experiment plan lists two scenarios named {name:?}; rename one with with_name"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The grid of scenarios × protocols × query counts × repetitions an
/// experiment covers.
///
/// ```
/// use locaware::experiment::{ExperimentPlan, Scenario};
/// use locaware::ProtocolKind;
///
/// let plan = ExperimentPlan::new()
///     .scenario(Scenario::small(60).with_seed(11))
///     .protocols(ProtocolKind::PAPER_SET)
///     .query_counts([30, 60])
///     .repetitions(2);
/// assert_eq!(plan.substrate_count(), 2); // 1 scenario × 2 repetitions
/// assert_eq!(plan.point_count(), 16);    // × 4 protocols × 2 query counts
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExperimentPlan {
    scenarios: Vec<Scenario>,
    protocols: Vec<ProtocolKind>,
    query_counts: Vec<usize>,
    repetitions: usize,
}

impl ExperimentPlan {
    /// An empty plan with one repetition; add scenarios, protocols and query
    /// counts before handing it to a runner.
    pub fn new() -> Self {
        ExperimentPlan {
            scenarios: Vec::new(),
            protocols: Vec::new(),
            query_counts: Vec::new(),
            repetitions: 1,
        }
    }

    /// Adds one scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds several scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Adds one protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocols.push(protocol);
        self
    }

    /// Adds several protocols.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = ProtocolKind>) -> Self {
        self.protocols.extend(protocols);
        self
    }

    /// Adds one query count.
    pub fn query_count(mut self, queries: usize) -> Self {
        self.query_counts.push(queries);
        self
    }

    /// Adds several query counts (the x-axis of the figures).
    pub fn query_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.query_counts.extend(counts);
        self
    }

    /// Sets the number of seed-independent repetitions per grid point.
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.repetitions = repetitions;
        self
    }

    /// Checks the plan is executable.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.scenarios.is_empty() {
            return Err(PlanError::NoScenarios);
        }
        if self.protocols.is_empty() {
            return Err(PlanError::NoProtocols);
        }
        if self.query_counts.is_empty() {
            return Err(PlanError::NoQueryCounts);
        }
        if self.repetitions == 0 {
            return Err(PlanError::ZeroRepetitions);
        }
        let mut names: Vec<&str> = self.scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        if let Some(duplicate) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(PlanError::DuplicateScenarioName(duplicate[0].to_string()));
        }
        Ok(())
    }

    /// The scenarios in the plan.
    pub fn scenario_list(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The protocols in the plan.
    pub fn protocol_list(&self) -> &[ProtocolKind] {
        &self.protocols
    }

    /// The query counts in the plan.
    pub fn query_count_list(&self) -> &[usize] {
        &self.query_counts
    }

    /// The number of repetitions per grid point.
    pub fn repetition_count(&self) -> usize {
        self.repetitions
    }

    /// How many substrates a runner will build for this plan: one per
    /// (scenario, repetition), shared by every protocol and query count.
    pub fn substrate_count(&self) -> usize {
        self.scenarios.len() * self.repetitions
    }

    /// Total number of measurements the plan produces.
    pub fn point_count(&self) -> usize {
        self.substrate_count() * self.protocols.len() * self.query_counts.len()
    }

    /// The seed a given repetition of `scenario` runs under: repetition 0 is
    /// the scenario's own seed, later repetitions derive independent seeds by
    /// a Weyl-style step (the one the published EXPERIMENTS.md numbers were
    /// produced under).
    pub fn repetition_seed(scenario: &Scenario, repetition: usize) -> u64 {
        scenario.seed().wrapping_add(0x9E37_79B9u64.wrapping_mul(repetition as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plans_are_rejected_with_the_missing_dimension() {
        assert_eq!(ExperimentPlan::new().validate(), Err(PlanError::NoScenarios));
        assert_eq!(
            ExperimentPlan::new().scenario(Scenario::small(30)).validate(),
            Err(PlanError::NoProtocols)
        );
        assert_eq!(
            ExperimentPlan::new()
                .scenario(Scenario::small(30))
                .protocol(ProtocolKind::Flooding)
                .validate(),
            Err(PlanError::NoQueryCounts)
        );
        assert_eq!(
            ExperimentPlan::new()
                .scenario(Scenario::small(30))
                .protocol(ProtocolKind::Flooding)
                .query_count(10)
                .repetitions(0)
                .validate(),
            Err(PlanError::ZeroRepetitions)
        );
    }

    #[test]
    fn grid_arithmetic_matches_the_dimensions() {
        let plan = ExperimentPlan::new()
            .scenarios([Scenario::small(30), Scenario::flash_crowd(30)])
            .protocols(ProtocolKind::PAPER_SET)
            .query_counts([10, 20, 30])
            .repetitions(2);
        assert!(plan.validate().is_ok());
        assert_eq!(plan.substrate_count(), 4);
        assert_eq!(plan.point_count(), 4 * 4 * 3);
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let plan = ExperimentPlan::new()
            .scenarios([Scenario::small(30), Scenario::small(60)])
            .protocol(ProtocolKind::Flooding)
            .query_count(10);
        assert_eq!(
            plan.validate(),
            Err(PlanError::DuplicateScenarioName("small".into())),
            "two scenarios named 'small' would be indistinguishable in the outcome"
        );
        let renamed = ExperimentPlan::new()
            .scenarios([Scenario::small(30), Scenario::small(60).with_name("small-60")])
            .protocol(ProtocolKind::Flooding)
            .query_count(10);
        assert!(renamed.validate().is_ok());
    }

    #[test]
    fn repetition_zero_keeps_the_scenario_seed() {
        let scenario = Scenario::small(30).with_seed(42);
        assert_eq!(ExperimentPlan::repetition_seed(&scenario, 0), 42);
        assert_ne!(ExperimentPlan::repetition_seed(&scenario, 1), 42);
        assert_ne!(
            ExperimentPlan::repetition_seed(&scenario, 1),
            ExperimentPlan::repetition_seed(&scenario, 2)
        );
    }

    #[test]
    fn plan_errors_display_and_box() {
        let err: Box<dyn std::error::Error> = Box::new(PlanError::NoProtocols);
        assert!(err.to_string().contains("protocol"));
    }
}
