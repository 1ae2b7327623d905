//! The studies behind EXPERIMENTS.md beyond Figures 2–4: `ablation`,
//! `inspect`, `degradation` and `regimes`. Each one but `inspect` builds an
//! [`ExperimentPlan`], runs it through the shared runner and prints the
//! outcome's points in plan order; `inspect` is one run on one substrate,
//! printed as tables like the rest.

use locaware::results::{
    avg_download_distance_ms, cache_hit_share, locality_match_rate, success_rate,
};
use locaware::{
    CounterSet, ExperimentPlan, ExperimentPoint, ProtocolKind, Scenario, Simulation,
    SimulationConfig, SimulationReport,
};
use locaware_metrics::{Figure, SeriesPoint, Table};
use locaware_workload::{FaultConfig, TimeoutPolicy};

use crate::{execute, flags, preset, render};

/// `ablation [--quick]`: which Locaware mechanism buys which share of the
/// gains — the full protocol, its two ablated variants and the two Dicas
/// baselines over one substrate, then a response-index capacity sweep (one
/// scenario per capacity, same seed) for the full protocol.
pub(crate) fn ablation(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let quick = !flags::pairs(args, &[], &["--quick"])?.is_empty();
    let (base, queries, plan) = mechanism_plan(quick);
    eprintln!("# ablation: {} peers, {queries} queries", base.config().peers);
    let mut table = Table::new([
        "variant",
        "success rate",
        "messages / query",
        "download distance (ms)",
        "locality match",
        "cache hit share",
    ]);
    for ExperimentPoint { protocol, report, .. } in &execute(&plan, None)?.points {
        table.push_row([
            protocol.label().to_string(),
            format!("{:.4}", report.success_rate()),
            format!("{:.2}", report.avg_messages_per_query()),
            format!("{:.2}", report.avg_download_distance_ms()),
            format!("{:.4}", report.locality_match_rate()),
            format!("{:.4}", report.cache_hit_share()),
        ]);
    }

    let capacities = [5usize, 10, 25, 50, 100];
    let mut capacity_plan =
        ExperimentPlan::new().protocol(ProtocolKind::Locaware).query_count(queries);
    for capacity in capacities {
        let config = SimulationConfig { response_index_capacity: capacity, ..base.config().clone() };
        let scenario = Scenario::from_config(format!("ri-{capacity}"), config);
        capacity_plan = capacity_plan.scenario(scenario.map_err(|e| e.to_string())?);
    }
    let mut capacity_table = Table::new([
        "RI capacity (filenames)",
        "success rate",
        "download distance (ms)",
        "cache hit share",
    ]);
    for (capacity, point) in capacities.iter().zip(&execute(&capacity_plan, None)?.points) {
        capacity_table.push_row([
            capacity.to_string(),
            format!("{:.4}", point.report.success_rate()),
            format!("{:.2}", point.report.avg_download_distance_ms()),
            format!("{:.4}", point.report.cache_hit_share()),
        ]);
    }
    let sections =
        [("Mechanism ablation", table), ("Response-index capacity sweep (Locaware)", capacity_table)];
    Ok(render(&sections, false))
}

/// The ablation's base scenario (`quick`: 200 peers, else the paper's
/// setup), its query count, and its mechanism grid: the full protocol, its
/// two ablated variants and the two Dicas baselines over that one substrate.
pub(crate) fn mechanism_plan(quick: bool) -> (Scenario, usize, ExperimentPlan) {
    let (base, queries) =
        if quick { (Scenario::small(200), 600) } else { (Scenario::paper_defaults(), 3000) };
    let base = base.with_seed(0x10ca_aa2e).with_name("ablation");
    let variants = [
        ProtocolKind::Locaware,
        ProtocolKind::LocawareNoLocality,
        ProtocolKind::LocawareNoBloom,
        ProtocolKind::DicasKeys,
        ProtocolKind::Dicas,
    ];
    let plan = ExperimentPlan::new().scenario(base.clone()).protocols(variants).query_count(queries);
    (base, queries, plan)
}

/// `inspect <protocol> [scenario] [peers] [queries] [seed] [--shards N]`:
/// one protocol, one run, the full report as tables — summary metrics,
/// message counters by kind, routing-decision counts and the per-quarter
/// warm-up — on stdout, and the run's [`RunProfile`](locaware::RunProfile)
/// line on stderr. `scenario` is any preset name and defaults to the paper's setup
/// (`paper-defaults` at 1000 peers, `small` otherwise); `peers` and
/// `queries` default to 1000, `--shards` to 1. The report does not depend
/// on the shard count; the profile does.
pub(crate) fn inspect(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let mut args = args.into_iter().peekable();
    let protocol = args.next().ok_or("inspect needs a protocol")?;
    let protocol = ProtocolKind::from_label(&protocol)
        .ok_or_else(|| format!("unknown protocol {protocol}"))?;
    // Positional arguments stop at the first flag. An optional scenario name
    // comes second; every positional after it is numeric.
    let positional = |arg: &String| !arg.starts_with("--");
    let scenario_name = args.next_if(|arg| positional(arg) && arg.parse::<u64>().is_err());
    let mut numbers = [None; 3];
    for slot in &mut numbers {
        *slot = args.next_if(positional).map(|arg| flags::number(&arg)).transpose()?;
    }
    if let Some(extra) = args.next_if(positional) {
        return Err(format!("unexpected argument {extra}"));
    }
    let mut shards = 1;
    for (flag, value) in flags::pairs(args, &["--shards"], &[])? {
        match flag.as_str() {
            "--shards" => shards = flags::number(&value)?,
            other => unreachable!("flags::pairs passed unlisted flag {other}"),
        }
    }
    if shards == 0 {
        return Err("shards must be positive".to_string());
    }
    let [peers, queries, seed] = numbers;
    let (peers, queries) = (peers.unwrap_or(1000), queries.unwrap_or(1000));

    let scenario = match scenario_name {
        Some(name) => preset(&name, peers)?,
        None if peers == 1000 => Scenario::paper_defaults(),
        None => preset("small", peers)?,
    };
    let scenario = match seed {
        Some(seed) => scenario.with_seed(seed as u64),
        None => scenario,
    };
    eprintln!(
        "# scenario {}: {} peers, seed {}",
        scenario.name(),
        scenario.config().peers,
        scenario.seed()
    );
    eprintln!("# running {} with {queries} queries", protocol.label());
    let config = SimulationConfig { shards, ..scenario.config().clone() };
    let substrate = Simulation::try_build(config).map_err(|e| e.to_string())?;
    let (report, profile) = substrate.run_profiled(protocol, queries);
    eprintln!("{profile}");

    let summary = format!(
        "summary: simulated time {:.1}s, events {}",
        report.simulated_end_time_secs, report.dispatched_events
    );
    let mut sections = vec![
        (summary, report.summary_table()),
        ("message counters".to_string(), counter_table("kind", &report.message_counters)),
        ("routing decisions".to_string(), counter_table("decision", &report.routing_decisions)),
    ];
    // Four quarters of ⌊n/4⌋ queries, Q1 and Q2 from the first, Q3 and Q4 up
    // to the last: Q1 against Q4 is the warm-up effect the paper's Figure 2
    // discussion highlights.
    let (records, n) = (&report.metrics, report.metrics.len());
    let q = n / 4;
    if n >= 8 {
        let mut warm_up = Table::new([
            "quarter", "success", "download distance (ms)", "locality match", "cache hit share",
        ]);
        for (i, range) in [0..q, q..2 * q, n - 2 * q..n - q, n - q..n].into_iter().enumerate() {
            let slice = &records[range];
            warm_up.push_row([
                format!("Q{}", i + 1),
                format!("{:.3}", success_rate(slice)),
                format!("{:.1}", avg_download_distance_ms(slice)),
                format!("{:.3}", locality_match_rate(slice)),
                format!("{:.3}", cache_hit_share(slice)),
            ]);
        }
        sections.push((format!("warm-up: {n} queries in quarters of {q}"), warm_up));
    }
    Ok(render(&sections, false))
}

/// One row per counter key, in key order.
fn counter_table<K: Ord + std::fmt::Display>(key: &str, counters: &CounterSet<K>) -> Table {
    let mut table = Table::new([key, "count"]);
    for (k, count) in counters.iter() {
        table.push_row([k.to_string(), count.to_string()]);
    }
    table
}

/// The four families EXPERIMENTS.md compares under degradation.
const FAMILIES: [ProtocolKind; 4] = [
    ProtocolKind::Flooding,
    ProtocolKind::Locaware,
    ProtocolKind::DhtIndex,
    ProtocolKind::Hybrid,
];

/// `config` as two scenarios, at 1 and at 4 engine shards.
fn at_both_shardings(name: &str, config: &SimulationConfig) -> Result<[Scenario; 2], String> {
    let at = |shards: usize| {
        Scenario::from_config(format!("{name}/s{shards}"), SimulationConfig { shards, ..config.clone() })
            .map_err(|e| e.to_string())
    };
    Ok([at(1)?, at(4)?])
}

/// The single-shard reports of one [`at_both_shardings`] pair's points, one
/// per family, each checked bit-identical to its 4-shard twin.
fn shard_checked(points: &[ExperimentPoint]) -> Result<Vec<&SimulationReport>, String> {
    let (single, sharded) = points.split_at(FAMILIES.len());
    let mut reports = Vec::new();
    for (one, four) in single.iter().zip(sharded) {
        if one.report.fingerprint() != four.report.fingerprint() {
            return Err(format!(
                "{}/{}: 4 shards must reproduce the single-shard run",
                four.scenario, four.protocol
            ));
        }
        reports.push(&one.report);
    }
    Ok(reports)
}

/// `degradation [--peers N] [--queries N] [--losses 0,1,5,10]`: how each
/// protocol family's success rate and traffic hold up as the network gets
/// lossier, then crash-stop vs graceful churn.
///
/// For every loss rate the resilience machinery stays armed with the same
/// policies (query retransmit 3 s × 2.0 backoff × 2 retries, DHT step
/// timeout 2 s), so the curves isolate the loss axis instead of conflating
/// it with "did the protocol fight back". Every point runs at shard counts
/// 1 and 4 and must fingerprint-equal — the sweep doubles as a fault-plan
/// shard-invariance check on sizes CI does not cover.
pub(crate) fn degradation(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let (mut peers, mut queries, mut losses_pct) = (120, 300, vec![0, 1, 5, 10]);
    for (flag, value) in flags::pairs(args, &["--peers", "--queries", "--losses"], &[])? {
        match flag.as_str() {
            "--peers" => peers = flags::number(&value)?,
            "--queries" => queries = flags::number(&value)?,
            "--losses" => losses_pct = flags::list(&value)?,
            other => unreachable!("flags::pairs passed unlisted flag {other}"),
        }
    }

    let mut scenarios = Vec::new();
    for &loss_pct in &losses_pct {
        let lossy = SimulationConfig {
            seed: 0xDE_64AD,
            faults: FaultConfig {
                message_loss: loss_pct as f64 / 100.0,
                query_timeout: TimeoutPolicy { initial_secs: 3.0, backoff: 2.0, max_retries: 2 },
                dht_step_timeout_secs: 2.0,
                ..FaultConfig::disabled()
            },
            ..SimulationConfig::small(peers)
        };
        scenarios.extend(at_both_shardings(&format!("loss-{loss_pct}"), &lossy)?);
    }
    let storm = preset("churn-storm", peers)?;
    let crash_stop = FaultConfig {
        crash_stop: true,
        dht_step_timeout_secs: 2.0,
        ..FaultConfig::disabled()
    };
    scenarios.extend(at_both_shardings("graceful", storm.config())?);
    scenarios.extend(at_both_shardings(
        "crash-stop",
        &SimulationConfig { faults: crash_stop, ..storm.config().clone() },
    )?);
    let plan = ExperimentPlan::new().scenarios(scenarios).protocols(FAMILIES).query_count(queries);
    let outcome = execute(&plan, None)?;
    let mut pairs = outcome.points.chunks(2 * FAMILIES.len()).map(shard_checked);
    let mut next_pair = || pairs.next().ok_or("the plan ran fewer scenarios than it listed")?;
    let unarmed = "a run with a fault axis armed must report fault statistics";

    let title = format!("degradation: peers={peers} queries={queries} losses(%)={losses_pct:?}");
    let mut runs = Table::new([
        "loss (%)", "protocol", "success", "msgs_per_query", "lost", "timeouts", "retransmits",
        "step_timeouts",
    ]);
    let (mut success, mut traffic) = (Figure::new("loss (%)"), Figure::new("loss (%)"));
    for &loss_pct in &losses_pct {
        for (protocol, report) in FAMILIES.iter().zip(next_pair()?) {
            let stats = report.faults.ok_or(unarmed)?;
            let (rate, per_query) = (report.success_rate(), report.avg_messages_per_query());
            runs.push_row([
                loss_pct.to_string(),
                protocol.to_string(),
                format!("{rate:.3}"),
                format!("{per_query:.1}"),
                stats.messages_lost.to_string(),
                stats.query_timeouts.to_string(),
                stats.query_retransmits.to_string(),
                stats.dht_step_timeouts.to_string(),
            ]);
            let x = loss_pct as u64;
            success.push(protocol.label(), SeriesPoint { x, value: rate });
            traffic.push(protocol.label(), SeriesPoint { x, value: per_query });
        }
    }

    let mut churn = Table::new([
        "protocol", "graceful_success", "crash_success", "graceful_msgs", "crash_msgs",
        "crash_departures", "step_timeouts",
    ]);
    let (graceful, crashed) = (next_pair()?, next_pair()?);
    for ((protocol, graceful), crashed) in FAMILIES.iter().zip(graceful).zip(crashed) {
        let stats = crashed.faults.ok_or(unarmed)?;
        churn.push_row([
            protocol.to_string(),
            format!("{:.3}", graceful.success_rate()),
            format!("{:.3}", crashed.success_rate()),
            format!("{:.1}", graceful.avg_messages_per_query()),
            format!("{:.1}", crashed.avg_messages_per_query()),
            stats.crash_departures.to_string(),
            stats.dht_step_timeouts.to_string(),
        ]);
    }
    let curve = |metric: &str| format!("Degradation: {metric} vs message loss (%)\nmetric: {metric}");
    let sections = [
        (title, runs),
        (curve("success rate"), success.table()),
        (curve("messages per query"), traffic.table()),
        ("churn-storm: graceful vs crash-stop departures".to_string(), churn),
    ];
    Ok(render(&sections, false))
}

/// `regimes [--peers N] [--queries N] [--scenarios a,b,c]`: the headline
/// metrics of Locaware and Flooding under each workload preset (the steady
/// `small` baseline plus the flash-crowd, churn-storm and regional-hotspot
/// regimes by default), one shared substrate per preset. Wall clock per
/// regime is the benchmark's job (`perfbench`, `BENCHMARK.json`).
pub(crate) fn regimes(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let (mut peers, mut queries) = (300, 500);
    let mut scenarios = "small,flash-crowd,churn-storm,regional-hotspot".to_string();
    for (flag, value) in flags::pairs(args, &["--peers", "--queries", "--scenarios"], &[])? {
        match flag.as_str() {
            "--peers" => peers = flags::number(&value)?,
            "--queries" => queries = flags::number(&value)?,
            "--scenarios" => scenarios = value,
            other => unreachable!("flags::pairs passed unlisted flag {other}"),
        }
    }
    let mut plan = ExperimentPlan::new()
        .protocols([ProtocolKind::Locaware, ProtocolKind::Flooding])
        .query_count(queries);
    for name in scenarios.split(',') {
        plan = plan.scenario(preset(name.trim(), peers)?);
    }
    let title = format!("workload_regimes: peers={peers} queries={queries}");
    Ok(render(&[(title, regimes_table(&execute(&plan, None)?.points))], false))
}

/// One row per point: its scenario, protocol, headline metrics and report
/// fingerprint.
fn regimes_table(points: &[ExperimentPoint]) -> Table {
    let mut table = Table::new([
        "scenario", "protocol", "events", "success", "msgs_per_query", "locality_match", "sim_span_s",
        "fingerprint",
    ]);
    for ExperimentPoint { scenario, protocol, report, .. } in points {
        table.push_row([
            scenario.clone(),
            protocol.to_string(),
            report.dispatched_events.to_string(),
            format!("{:.3}", report.success_rate()),
            format!("{:.1}", report.avg_messages_per_query()),
            format!("{:.3}", report.locality_match_rate()),
            format!("{:.0}", report.simulated_end_time_secs),
            format!("{:#018x}", report.fingerprint()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    /// `inspect locaware small 60 <queries>`'s stdout, and the report of the
    /// same run, built without the front end.
    fn inspected(queries: usize) -> (String, SimulationReport) {
        let args = ["inspect", "locaware", "small", "60", &queries.to_string()].map(String::from);
        let out = run(args).unwrap();
        let report = preset("small", 60).unwrap().substrate().run(ProtocolKind::Locaware, queries);
        (out, report)
    }

    /// The body rows, split at whitespace, of the section whose title line
    /// starts with `# {title}`.
    fn section_rows(out: &str, title: &str) -> Option<Vec<Vec<String>>> {
        let block = out.split("\n\n").find(|b| b.starts_with(&format!("# {title}")))?;
        let body = block.lines().skip_while(|line| line.starts_with('#')).skip(2);
        Some(body.map(|row| row.split_whitespace().map(String::from).collect()).collect())
    }

    /// Every warm-up cell is its metric over that quarter's slice of the
    /// records, at the printed precision: ⌊n/4⌋ records from the start for
    /// Q1 and Q2, up to the end for Q3 and Q4, here with n = 4·⌊n/4⌋ + 2.
    #[test]
    fn warm_up_cells_are_their_quarters_metrics() {
        let (out, report) = inspected(90);
        let (records, q) = (&report.metrics, 22);
        assert_eq!(records.len(), 90);
        let rows = section_rows(&out, "warm-up: 90 queries in quarters of 22").expect(&out);
        let quarters =
            [&records[..q], &records[q..2 * q], &records[90 - 2 * q..90 - q], &records[90 - q..]];
        assert_eq!(rows.len(), quarters.len(), "{out}");
        for (i, (row, slice)) in rows.iter().zip(quarters).enumerate() {
            let expected = [
                format!("Q{}", i + 1),
                format!("{:.3}", success_rate(slice)),
                format!("{:.1}", avg_download_distance_ms(slice)),
                format!("{:.3}", locality_match_rate(slice)),
                format!("{:.3}", cache_hit_share(slice)),
            ];
            assert_eq!(row[..], expected, "{out}");
        }
        assert!(section_rows(&inspected(7).0, "warm-up").is_none(), "under 8 queries there is none");
    }

    /// The counter tables and the summary title parse back to the report's
    /// counters, end time and event count.
    #[test]
    fn inspect_counters_and_title_carry_the_reports_values() {
        let (out, report) = inspected(90);
        let parsed = |title| -> Vec<(String, u64)> {
            let rows = section_rows(&out, title).expect(&out);
            rows.iter().map(|row| (row[0].clone(), row[1].parse().unwrap())).collect()
        };
        let messages: Vec<_> =
            report.message_counters.iter().map(|(k, n)| (k.to_string(), n)).collect();
        let decisions: Vec<_> =
            report.routing_decisions.iter().map(|(k, n)| (k.to_string(), n)).collect();
        assert!(!messages.is_empty() && !decisions.is_empty());
        assert_eq!(parsed("message counters"), messages);
        assert_eq!(parsed("routing decisions"), decisions);
        let title = out.lines().next().unwrap();
        let rest = title.strip_prefix("# summary: simulated time ").expect(title);
        let (secs, events) = rest.split_once("s, events ").expect(title);
        assert_eq!(secs, format!("{:.1}", report.simulated_end_time_secs));
        assert_eq!(events.parse(), Ok(report.dispatched_events));
    }

    /// Every `regimes` row names its point and carries that point's report
    /// fingerprint, read back from the cell.
    #[test]
    fn regimes_rows_carry_their_points_fingerprints() {
        let plan = ExperimentPlan::new()
            .protocols([ProtocolKind::Locaware, ProtocolKind::Flooding])
            .query_count(40)
            .scenario(preset("small", 40).unwrap())
            .scenario(preset("churn-storm", 40).unwrap());
        let points = execute(&plan, Some(2)).unwrap().points;
        let table = regimes_table(&points);
        assert_eq!(table.len(), 4);
        let column = table.headers().iter().position(|h| h == "fingerprint").unwrap();
        for (row, point) in table.rows().iter().zip(&points) {
            assert_eq!(row[..2], [point.scenario.clone(), point.protocol.label().to_string()]);
            let hex = row[column].strip_prefix("0x").unwrap();
            assert_eq!(u64::from_str_radix(hex, 16), Ok(point.report.fingerprint()), "{row:?}");
        }
    }
}
