//! Executing experiment plans.
//!
//! [`Runner`] turns an [`ExperimentPlan`] into an [`ExperimentOutcome`]. The
//! scheduling contract it enforces is the architectural point of the
//! experiment layer:
//!
//! * **One substrate per (scenario, repetition).** Every protocol and query
//!   count at a grid point runs over the *identical* substrate object, so the
//!   comparability the paper's Figures 2–4 rely on is structural rather than
//!   conventional — and the substrate build (the dominant fixed cost at scale)
//!   happens exactly once per point instead of once per protocol.
//! * **Immutable sharing.** Substrates are built into `Arc<Simulation>` cells
//!   and only ever read afterwards; [`Simulation::run`] takes `&self`.
//! * **Work stealing.** All (substrate, protocol, query count) tasks go into
//!   one shared queue drained by scoped worker threads; whichever worker is
//!   free takes the next task, so stragglers (flooding at large query counts)
//!   do not idle the rest of the pool. The first worker to need a substrate
//!   builds it; others needing the same one block on that single build.
//!
//! Results are deterministic: the outcome's point order and every report are
//! independent of thread count and scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::config::ProtocolKind;
use crate::results::SimulationReport;
use crate::simulation::Simulation;

use super::plan::{ExperimentPlan, PlanError};

/// One measurement of the grid: a protocol run over a shared substrate.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Name of the scenario the substrate was built from.
    pub scenario: String,
    /// Index of the scenario in the plan (stable tie-breaker for ordering).
    pub scenario_index: usize,
    /// The protocol evaluated.
    pub protocol: ProtocolKind,
    /// Number of queries issued.
    pub queries: usize,
    /// Repetition index (0-based; repetition 0 uses the scenario's own seed).
    pub repetition: usize,
    /// The derived master seed this point actually ran under.
    pub seed: u64,
    /// The full per-run report.
    pub report: SimulationReport,
}

/// Everything a runner measured, in deterministic order.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// All grid points, sorted by (scenario, repetition, queries, protocol
    /// position in the plan).
    pub points: Vec<ExperimentPoint>,
    /// How many substrates were actually built — `plan.substrate_count()`
    /// when every grid point was reached, and never more: the runner's
    /// build-once guarantee is observable here.
    pub substrates_built: usize,
}

impl ExperimentOutcome {
    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the outcome holds no measurements.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The report for one exact grid point, if it exists. Scenario names are
    /// unique within a plan ([`ExperimentPlan::validate`] rejects
    /// duplicates), so the lookup is unambiguous.
    pub fn report(
        &self,
        scenario: &str,
        protocol: ProtocolKind,
        queries: usize,
        repetition: usize,
    ) -> Option<&SimulationReport> {
        self.points
            .iter()
            .find(|p| {
                p.scenario == scenario
                    && p.protocol == protocol
                    && p.queries == queries
                    && p.repetition == repetition
            })
            .map(|p| &p.report)
    }
}

/// Executes [`ExperimentPlan`]s over a pool of scoped worker threads.
#[derive(Debug, Clone, Default)]
pub struct Runner {
    threads: Option<usize>,
}

impl Runner {
    /// A runner sized to the machine (one worker per available core, capped
    /// at 16).
    pub fn new() -> Self {
        Runner { threads: None }
    }

    /// The machine-sized worker count [`Runner::new`] uses: one worker per
    /// available core, capped at 16 (grid points are memory-bandwidth-hungry;
    /// more threads than that stop helping).
    pub fn default_thread_count() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16)
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The plan-level worker count after budgeting for nested parallelism:
    /// each run may itself fan out over up to `config.shards` engine threads,
    /// so a machine-sized runner divides its cores by the plan's largest
    /// effective shard count — `shards × workers` never oversubscribes the
    /// machine. An
    /// explicit [`Runner::with_threads`] override is taken literally (the
    /// caller asked for that many plan-level workers).
    pub fn planned_workers(&self, plan: &ExperimentPlan) -> usize {
        if let Some(threads) = self.threads {
            return threads.max(1);
        }
        let max_shards = plan
            .scenario_list()
            .iter()
            .map(|s| s.config().effective_shards())
            .max()
            .unwrap_or(1);
        (Self::default_thread_count() / max_shards.max(1)).max(1)
    }

    /// Runs the whole plan and returns every measurement.
    pub fn run(&self, plan: &ExperimentPlan) -> Result<ExperimentOutcome, PlanError> {
        plan.validate()?;

        let scenarios = plan.scenario_list();
        let protocols = plan.protocol_list();
        let query_counts = plan.query_count_list();

        // One substrate unit per (scenario, repetition)...
        let mut units: Vec<(usize, usize)> = Vec::with_capacity(plan.substrate_count());
        for (scenario_index, _) in scenarios.iter().enumerate() {
            for repetition in 0..plan.repetition_count() {
                units.push((scenario_index, repetition));
            }
        }
        let substrates: Vec<OnceLock<Arc<Simulation>>> =
            units.iter().map(|_| OnceLock::new()).collect();

        // ...and one task per (unit, protocol, query count). Tasks are
        // interleaved unit-major so concurrent workers start on *different*
        // substrates instead of piling onto one OnceLock build.
        let mut tasks: Vec<(usize, usize, usize)> = Vec::with_capacity(plan.point_count());
        for protocol_index in 0..protocols.len() {
            for query_index in 0..query_counts.len() {
                for unit_index in 0..units.len() {
                    tasks.push((unit_index, protocol_index, query_index));
                }
            }
        }

        let next_task = AtomicUsize::new(0);
        let workers = self.planned_workers(plan).min(tasks.len()).max(1);

        // Each worker returns the points it measured through its join handle.
        let work = || {
            let mut measured = Vec::new();
            loop {
                let task_index = next_task.fetch_add(1, Ordering::Relaxed);
                let Some(&(unit_index, protocol_index, query_index)) = tasks.get(task_index)
                else {
                    break measured;
                };
                let (scenario_index, repetition) = units[unit_index];
                let scenario = &scenarios[scenario_index];
                let seed = ExperimentPlan::repetition_seed(scenario, repetition);
                let simulation = substrates[unit_index]
                    .get_or_init(|| Arc::new(scenario.clone().with_seed(seed).substrate()));
                let protocol = protocols[protocol_index];
                let queries = query_counts[query_index];
                let report = simulation.run(protocol, queries);
                measured.push(ExperimentPoint {
                    scenario: scenario.name().to_string(),
                    scenario_index,
                    protocol,
                    queries,
                    repetition,
                    seed,
                    report,
                });
            }
        };
        let mut points: Vec<ExperimentPoint> = Vec::with_capacity(tasks.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            for handle in handles {
                match handle.join() {
                    Ok(measured) => points.extend(measured),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let substrates_built = substrates.iter().filter(|cell| cell.get().is_some()).count();
        // Scheduling is nondeterministic; the outcome must not be. Protocol
        // ties are broken by position in the plan so duplicate entries keep a
        // stable order too.
        let protocol_position = |p: ProtocolKind| {
            protocols.iter().position(|&candidate| candidate == p).unwrap_or(usize::MAX)
        };
        points.sort_by_key(|p| {
            (p.scenario_index, p.repetition, p.queries, protocol_position(p.protocol))
        });
        Ok(ExperimentOutcome { points, substrates_built })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use crate::experiment::Scenario;

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::new()
            .scenario(Scenario::small(50).with_seed(5))
            .protocols([ProtocolKind::Flooding, ProtocolKind::Locaware])
            .query_counts([20, 40])
    }

    #[test]
    fn a_grid_point_builds_its_substrate_exactly_once() {
        let plan = tiny_plan();
        let outcome = Runner::new().with_threads(4).run(&plan).unwrap();
        // 2 protocols × 2 query counts share one substrate.
        assert_eq!(outcome.substrates_built, 1);
        assert_eq!(outcome.len(), 4);
    }

    #[test]
    fn outcome_order_is_independent_of_thread_count() {
        let plan = tiny_plan().repetitions(2);
        let serial = Runner::new().with_threads(1).run(&plan).unwrap();
        let parallel = Runner::new().with_threads(8).run(&plan).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!((&a.scenario, a.protocol, a.queries, a.repetition, a.seed), (
                &b.scenario,
                b.protocol,
                b.queries,
                b.repetition,
                b.seed
            ));
            assert_eq!(a.report.success_rate(), b.report.success_rate());
            assert_eq!(
                a.report.avg_messages_per_query(),
                b.report.avg_messages_per_query()
            );
        }
    }

    #[test]
    fn repetitions_get_independent_seeds_and_substrates() {
        let plan = tiny_plan().repetitions(3);
        let outcome = Runner::new().run(&plan).unwrap();
        assert_eq!(outcome.substrates_built, 3);
        let seeds: std::collections::HashSet<u64> =
            outcome.points.iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), 3, "each repetition runs under its own seed");
    }

    #[test]
    fn shared_substrate_reports_match_standalone_runs() {
        let scenario = Scenario::small(50).with_seed(5);
        let plan = ExperimentPlan::new()
            .scenario(scenario.clone())
            .protocol(ProtocolKind::Locaware)
            .query_count(30);
        let outcome = Runner::new().run(&plan).unwrap();
        let standalone = scenario.substrate().run(ProtocolKind::Locaware, 30);
        let via_runner = outcome.report("small", ProtocolKind::Locaware, 30, 0).unwrap();
        assert_eq!(via_runner.success_rate(), standalone.success_rate());
        assert_eq!(
            via_runner.avg_messages_per_query(),
            standalone.avg_messages_per_query()
        );
        assert_eq!(via_runner.dispatched_events, standalone.dispatched_events);
    }

    #[test]
    fn machine_sized_runners_budget_for_engine_shards() {
        // A plan whose scenarios run 4-sharded engines must divide the
        // machine-sized worker pool by 4 so shards × workers stays within
        // the core budget; an explicit override is taken literally.
        let wide = SimulationConfig { shards: 4, ..SimulationConfig::small(50) };
        let sharded = ExperimentPlan::new()
            .scenario(Scenario::small(50).with_seed(1))
            .scenario(Scenario::from_config("wide", wide).expect("valid scenario"))
            .protocol(ProtocolKind::Flooding)
            .query_count(10);
        let runner = Runner::new();
        let budgeted = runner.planned_workers(&sharded);
        let max_shards = 4;
        let expected = (Runner::default_thread_count() / max_shards).max(1);
        assert_eq!(budgeted, expected);
        assert_eq!(Runner::new().with_threads(7).planned_workers(&sharded), 7);

        // Unsharded plans keep the full pool.
        let flat = ExperimentPlan::new()
            .scenario(Scenario::small(50).with_seed(1))
            .protocol(ProtocolKind::Flooding)
            .query_count(10);
        assert_eq!(runner.planned_workers(&flat), Runner::default_thread_count());
        // The budgeted runner still produces the full outcome.
        let outcome = runner.run(&sharded).expect("valid plan");
        assert_eq!(outcome.len(), 2);
    }

    #[test]
    fn invalid_plans_are_refused() {
        assert_eq!(
            Runner::new().run(&ExperimentPlan::new()).unwrap_err(),
            PlanError::NoScenarios
        );
    }
}
