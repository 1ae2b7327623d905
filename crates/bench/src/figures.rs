//! Figures 2–4, the headline table and the paper's claims, all read from an
//! [`ExperimentOutcome`], plus the `fig2` / `fig3` / `fig4` / `run_all`
//! subcommands that run the grid and print them.

use std::collections::BTreeMap;

use locaware::{
    ExperimentOutcome, ExperimentPlan, ExperimentPoint, ProtocolKind, Scenario, SimulationConfig,
    SimulationReport,
};
use locaware_metrics::{mean, Figure, SeriesPoint, Table};

use crate::{execute, flags, preset, render};

/// Which metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Figure 2: average download distance in milliseconds.
    DownloadDistance,
    /// Figure 3: average messages per query.
    SearchTraffic,
    /// Figure 4: fraction of satisfied queries.
    SuccessRate,
}

impl MetricKind {
    pub(crate) const ALL: [MetricKind; 3] =
        [MetricKind::DownloadDistance, MetricKind::SearchTraffic, MetricKind::SuccessRate];

    /// Human-readable axis label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MetricKind::DownloadDistance => "avg download distance (ms)",
            MetricKind::SearchTraffic => "messages per query",
            MetricKind::SuccessRate => "success rate",
        }
    }

    /// The figure number in the paper.
    pub(crate) fn figure_number(self) -> u32 {
        match self {
            MetricKind::DownloadDistance => 2,
            MetricKind::SearchTraffic => 3,
            MetricKind::SuccessRate => 4,
        }
    }

    /// The per-run metric the figure plots.
    pub(crate) fn of(self) -> fn(&SimulationReport) -> f64 {
        match self {
            MetricKind::DownloadDistance => SimulationReport::avg_download_distance_ms,
            MetricKind::SearchTraffic => SimulationReport::avg_messages_per_query,
            MetricKind::SuccessRate => SimulationReport::success_rate,
        }
    }

    /// Figure title, e.g. `"Figure 2: comparison of download distance"`.
    pub(crate) fn title(self) -> String {
        let name = match self {
            MetricKind::DownloadDistance => "download distance",
            MetricKind::SearchTraffic => "search traffic",
            MetricKind::SuccessRate => "success rate",
        };
        format!("Figure {}: comparison of {}", self.figure_number(), name)
    }
}

/// The outcome's reports grouped by `key`, groups in key order and each
/// group's reports in plan order.
fn grouped<K: Ord>(
    outcome: &ExperimentOutcome,
    key: impl Fn(&ExperimentPoint) -> K,
) -> BTreeMap<K, Vec<&SimulationReport>> {
    let mut groups: BTreeMap<K, Vec<&SimulationReport>> = BTreeMap::new();
    for point in &outcome.points {
        groups.entry(key(point)).or_default().push(&point.report);
    }
    groups
}

/// The mean of `metric` over `reports`.
fn mean_of(reports: &[&SimulationReport], metric: fn(&SimulationReport) -> f64) -> f64 {
    mean(&reports.iter().map(|report| metric(report)).collect::<Vec<_>>())
}

/// Builds the figure for `metric`: one curve per protocol, repetitions
/// averaged per (protocol, query count).
pub(crate) fn figure(outcome: &ExperimentOutcome, metric: MetricKind) -> Figure {
    let mut figure = Figure::new("queries");
    for ((label, x), reports) in grouped(outcome, |point| (point.protocol.label(), point.queries as u64)) {
        figure.push(label, SeriesPoint { x, value: mean_of(&reports, metric.of()) });
    }
    figure
}

/// A paper-style headline comparison: the mean of each metric per protocol
/// over the whole grid.
pub(crate) fn headline_table(outcome: &ExperimentOutcome) -> Table {
    let mut table = Table::new([
        "protocol",
        "avg download distance (ms)",
        "messages / query",
        "total messages / query",
        "success rate",
        "locality match",
        "cache hit share",
    ]);
    for (label, reports) in grouped(outcome, |point| point.protocol.label()) {
        let mean_of = |metric| mean_of(&reports, metric);
        table.push_row([
            label.to_string(),
            format!("{:.2}", mean_of(SimulationReport::avg_download_distance_ms)),
            format!("{:.2}", mean_of(SimulationReport::avg_messages_per_query)),
            format!("{:.2}", mean_of(SimulationReport::total_messages_per_query)),
            format!("{:.4}", mean_of(SimulationReport::success_rate)),
            format!("{:.4}", mean_of(SimulationReport::locality_match_rate)),
            format!("{:.4}", mean_of(SimulationReport::cache_hit_share)),
        ]);
    }
    table
}

/// The headline quantities §5.2 quotes, recomputed from a run of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PaperClaims {
    /// Paper: "decreased by about 14% compared to the other approaches"
    /// (computed against the mean of the three baselines).
    pub(crate) distance_reduction_vs_baselines: f64,
    /// Paper: "outperforms flooding by 98% in terms of search traffic reduction".
    pub(crate) traffic_reduction_vs_flooding: f64,
    /// Paper: "increases hit ratio by 23% wrt. Dicas".
    pub(crate) success_gain_vs_dicas: f64,
    /// Paper: "and 33% wrt. Dicas-keys".
    pub(crate) success_gain_vs_dicas_keys: f64,
}

/// The paper's headline claims, computed from `outcome`.
pub(crate) fn paper_claims(outcome: &ExperimentOutcome) -> PaperClaims {
    let fig2 = figure(outcome, MetricKind::DownloadDistance);
    let fig3 = figure(outcome, MetricKind::SearchTraffic);
    let fig4 = figure(outcome, MetricKind::SuccessRate);

    // The paper compares Locaware's download distance against "the other
    // approaches" collectively; average the three baselines at each x
    // before computing the reduction so a single baseline's early-run
    // artefacts (e.g. Dicas' few, nearby-only successes) do not dominate.
    let baselines = ["flooding", "dicas", "dicas-keys"];
    let mut reductions = Vec::new();
    for x in fig2.x_values() {
        let baseline_values: Vec<f64> =
            baselines.iter().filter_map(|b| fig2.value_at(b, x)).collect();
        if baseline_values.is_empty() {
            continue;
        }
        let baseline_mean = mean(&baseline_values);
        if let Some(locaware) = fig2.value_at("locaware", x) {
            if baseline_mean > 0.0 {
                reductions.push((baseline_mean - locaware) / baseline_mean);
            }
        }
    }
    // Locaware's mean relative success gain over `baseline`,
    // `mean((locaware - baseline) / baseline)`: the negated reduction, as
    // `0 - reduction` so that an exact tie stays +0.
    let gain_over = |baseline| {
        fig4.relative_reduction("locaware", baseline).map_or(f64::NAN, |reduction| 0.0 - reduction)
    };
    PaperClaims {
        distance_reduction_vs_baselines: mean_or_nan(reductions),
        traffic_reduction_vs_flooding: fig3
            .relative_reduction("locaware", "flooding")
            .unwrap_or(f64::NAN),
        success_gain_vs_dicas: gain_over("dicas"),
        success_gain_vs_dicas_keys: gain_over("dicas-keys"),
    }
}

fn mean_or_nan(values: Vec<f64>) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        mean(&values)
    }
}

impl PaperClaims {
    /// Renders the claims next to the paper's numbers.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(["claim", "paper", "this reproduction"]);
        t.push_row([
            "download distance reduction (Locaware vs other approaches)".to_string(),
            "~14%".to_string(),
            format!("{:.1}%", self.distance_reduction_vs_baselines * 100.0),
        ]);
        t.push_row([
            "search traffic reduction vs flooding".to_string(),
            "~98%".to_string(),
            format!("{:.1}%", self.traffic_reduction_vs_flooding * 100.0),
        ]);
        t.push_row([
            "success rate gain vs Dicas".to_string(),
            "+23%".to_string(),
            format!("{:+.1}%", self.success_gain_vs_dicas * 100.0),
        ]);
        t.push_row([
            "success rate gain vs Dicas-Keys".to_string(),
            "+33%".to_string(),
            format!("{:+.1}%", self.success_gain_vs_dicas_keys * 100.0),
        ]);
        t
    }
}

/// What the figure subcommands run: the grid, the pool size, the output form.
#[derive(Debug)]
pub(crate) struct FiguresRun {
    pub(crate) plan: ExperimentPlan,
    pub(crate) threads: Option<usize>,
    pub(crate) csv: bool,
}

/// Parses the figure subcommands' flags into the plan they describe:
/// `--quick` (scaled-down grid), `--scenario NAME` (a preset, at `--peers` or
/// the grid's own scale), `--peers N`, `--queries a,b,c`, `--reps N`,
/// `--seed N`, `--threads N`, `--csv`.
pub(crate) fn parse(args: impl IntoIterator<Item = String>) -> Result<FiguresRun, String> {
    let (mut quick, mut csv) = (false, false);
    let (mut scenario, mut peers, mut queries) = (None, None, None);
    let (mut reps, mut seed, mut threads) = (1, None, None);
    let valued = ["--scenario", "--peers", "--queries", "--reps", "--seed", "--threads"];
    for (flag, value) in flags::pairs(args, &valued, &["--quick", "--csv"])? {
        match flag.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--scenario" => scenario = Some(value),
            "--peers" => peers = Some(flags::number(&value)?),
            "--queries" => queries = Some(flags::list(&value)?),
            "--reps" => reps = flags::number(&value)?,
            "--seed" => seed = Some(flags::number(&value)? as u64),
            "--threads" => threads = Some(flags::number(&value)?),
            other => unreachable!("flags::pairs passed unlisted flag {other}"),
        }
    }

    let (base, default_queries) = if quick {
        (SimulationConfig::small(200), vec![200, 400, 600, 800])
    } else {
        (SimulationConfig::paper_defaults(), (1..=10).map(|step| step * 500).collect())
    };
    let mut config = match (scenario, peers) {
        (Some(name), _) => preset(&name, peers.unwrap_or(base.peers))?.config().clone(),
        (None, Some(peers)) => SimulationConfig::small(peers),
        (None, None) => base,
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }
    let scenario = Scenario::from_config("sweep", config).map_err(|e| e.to_string())?;
    let plan = ExperimentPlan::new()
        .scenario(scenario)
        .protocols(ProtocolKind::PAPER_SET)
        .query_counts(queries.unwrap_or(default_queries))
        .repetitions(reps);
    plan.validate().map_err(|e| e.to_string())?;
    Ok(FiguresRun { plan, threads, csv })
}

/// `fig2` / `fig3` / `fig4` (`only` = that figure, then the claims) and
/// `run_all` (`only` = `None`: all three, the headline table, the claims).
pub(crate) fn run(
    only: Option<MetricKind>,
    args: impl IntoIterator<Item = String>,
) -> Result<String, String> {
    let FiguresRun { plan, threads, csv } = parse(args)?;
    eprintln!(
        "# running sweep: {} peers, query counts {:?}, {} repetition(s)",
        plan.scenario_list()[0].config().peers,
        plan.query_count_list(),
        plan.repetition_count(),
    );
    let outcome = execute(&plan, threads)?;
    let metrics = only.as_ref().map_or(&MetricKind::ALL[..], std::slice::from_ref);
    let figure_section = |&metric: &MetricKind| {
        let title = format!("{}\nmetric: {}", metric.title(), metric.label());
        (title, figure(&outcome, metric).table())
    };
    let mut sections: Vec<(String, Table)> = metrics.iter().map(figure_section).collect();
    if only.is_none() {
        sections.push(("Per-protocol averages over the whole sweep".into(), headline_table(&outcome)));
    }
    sections.push(("Paper headline claims vs. this reproduction".into(), paper_claims(&outcome).table()));
    Ok(render(&sections, csv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::mechanism_plan;

    /// `run_all --quick` at `seed`.
    fn quick_run(seed: u64) -> ExperimentOutcome {
        let run = parse(["--quick".to_string(), "--seed".to_string(), seed.to_string()]).unwrap();
        execute(&run.plan, run.threads).unwrap()
    }

    /// The mean of `label`'s curve in `metric`'s figure of `outcome`.
    fn mean_of_curve(outcome: &ExperimentOutcome, metric: MetricKind, label: &str) -> f64 {
        let figure = figure(outcome, metric);
        let curve = figure.curve(label).unwrap_or_else(|| panic!("no {label} curve"));
        mean(&curve.iter().map(|point| point.value).collect::<Vec<_>>())
    }

    /// Below the lowest seed's measured reduction by about 3 points: 86.2% of
    /// the search traffic, 86.1% of the total.
    const TRAFFIC_REDUCTION_FLOOR: f64 = 0.83;

    /// The paper's §5.2 claims as orderings over seeds 1–5 of `run_all
    /// --quick` (200 peers; 200, 400, 600 and 800 queries). A protocol's
    /// value is the mean over the seeds of its curve's mean. Measured when the
    /// test was written, with each bound's margin:
    ///
    /// - Locaware has the lowest download distance: 152.0 ms against 167.9
    ///   for Dicas-Keys, 168.9 for flooding and 172.9 for Dicas, a 15.9 ms
    ///   (9.5%) margin to the nearest;
    /// - success orders Locaware > Dicas-Keys > Dicas: 0.362 > 0.244 >
    ///   0.069, an ordering that held in every seed (0.30–0.43 > 0.20–0.28 >
    ///   0.06–0.08);
    /// - Locaware sends fewer search messages per query than Dicas-Keys:
    ///   44.0 against 47.2, a 7% margin;
    /// - in every seed Locaware cuts flooding's search traffic by more than
    ///   [`TRAFFIC_REDUCTION_FLOOR`]: 86.2–88.3% measured (the paper: 98%);
    /// - in every seed it also cuts flooding's *total* traffic (search plus
    ///   Bloom sync, [`SimulationReport::total_messages_per_query`]) at 800
    ///   queries by more than the same floor: 40.3–48.3 messages per query
    ///   against 332.6–348.0, an 86.1–88.1% cut.
    ///
    /// Locaware's total is not asserted below Dicas-Keys': the Bloom sync
    /// it pays for eats its search-traffic lead. At 800 queries the two
    /// average 44.5 and 45.4 over the seeds, and seed 4 reverses the order
    /// (40.28 against 39.00).
    ///
    /// Absolute values are not asserted: they are the figures' business.
    #[test]
    fn paper_claims_hold_over_five_quick_seeds() {
        let outcomes: Vec<ExperimentOutcome> = (1..=5).map(quick_run).collect();
        let five_seed_mean = |metric: MetricKind, label: &str| {
            let per_seed: Vec<f64> =
                outcomes.iter().map(|outcome| mean_of_curve(outcome, metric, label)).collect();
            mean(&per_seed)
        };
        let distance = |label: &str| five_seed_mean(MetricKind::DownloadDistance, label);
        let traffic = |label: &str| five_seed_mean(MetricKind::SearchTraffic, label);
        let success = |label: &str| five_seed_mean(MetricKind::SuccessRate, label);
        for baseline in ["dicas-keys", "flooding", "dicas"] {
            let (ours, theirs) = (distance("locaware"), distance(baseline));
            assert!(ours < theirs, "locaware's distance {ours:.1} ms, {baseline}'s {theirs:.1} ms");
        }
        let (ours, keys, dicas) = (success("locaware"), success("dicas-keys"), success("dicas"));
        assert!(
            ours > keys && keys > dicas,
            "success must order locaware {ours:.4} > dicas-keys {keys:.4} > dicas {dicas:.4}"
        );
        let (ours, keys) = (traffic("locaware"), traffic("dicas-keys"));
        assert!(ours < keys, "messages per query: locaware {ours:.2}, dicas-keys {keys:.2}");
        for (seed, outcome) in (1..).zip(&outcomes) {
            let reduction = paper_claims(outcome).traffic_reduction_vs_flooding;
            assert!(reduction > TRAFFIC_REDUCTION_FLOOR, "seed {seed}: reduction {reduction:.3}");
            let total = |kind: ProtocolKind| {
                let last = outcome.points.iter().filter(|point| point.protocol == kind).max_by_key(|point| point.queries);
                last.unwrap_or_else(|| panic!("no {kind} point")).report.total_messages_per_query()
            };
            let (ours, flooding) = (total(ProtocolKind::Locaware), total(ProtocolKind::Flooding));
            let cut = 1.0 - ours / flooding;
            assert!(cut > TRAFFIC_REDUCTION_FLOOR, "seed {seed}: total {ours:.2} against flooding's {flooding:.2}");
        }
    }

    /// The `ablation --quick` mechanism claims (200 peers, 600 queries, one
    /// seed), measured when the test was written. Without locality-aware
    /// selection success stays equal (0.4900 both: a locId changes which
    /// provider is picked, never whether one is), fewer downloads come from
    /// the requestor's locality (0.238 against 0.320) and download distance
    /// rises (164.7 against 146.0 ms, a 12.8% margin). Without the Bloom
    /// routing rule success falls (0.2617 against 0.4900).
    #[test]
    fn ablation_claims_separate_the_mechanisms() {
        let outcome = execute(&mechanism_plan(true).2, None).unwrap();
        let report = |kind: ProtocolKind| {
            let point = outcome.points.iter().find(|point| point.protocol == kind);
            &point.unwrap_or_else(|| panic!("no {kind} point")).report
        };
        let full = report(ProtocolKind::Locaware);
        let no_locality = report(ProtocolKind::LocawareNoLocality);
        let no_bloom = report(ProtocolKind::LocawareNoBloom);
        let (success, distance) = (full.success_rate(), full.avg_download_distance_ms());
        assert_eq!(no_locality.success_rate(), success, "locality must not change success");
        let (local, fewer) = (full.locality_match_rate(), no_locality.locality_match_rate());
        assert!(fewer < local, "locality matches: {fewer:.3} without locality, {local:.3} with");
        let farther = no_locality.avg_download_distance_ms();
        assert!(farther > distance, "no locality: {farther:.1} ms, full: {distance:.1} ms");
        let fewer = no_bloom.success_rate();
        assert!(fewer < success, "no Bloom routing: success {fewer:.4}, full: {success:.4}");
    }
}
