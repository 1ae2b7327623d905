//! The end-to-end metric table, the JSON the benchmark prints, and
//! `--compare`.
//!
//! Two JSON shapes leave this module. The *result line* is what the driver
//! reads: `correct`, `attempted`, `failed` and one `{value, unit}` per
//! metric. The *document* is what `--out` writes for `--compare`: every
//! workload's end-to-end metrics with their quartiles. Both are read back
//! with `locaware_bench::trajectory::parse`, the repository's JSON reader.

use std::collections::BTreeMap;

use locaware_bench::trajectory::{parse, Value};
use locaware_metrics::Table;

use crate::measure::EndToEnd;
use crate::stats::{verdict, worsening, Better, Bound, Summary, Verdict};
use crate::workloads::WORKLOADS;
use crate::yardstick::NOMINAL_BATCH_MS;

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndMetric {
    /// The metric's name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// How far the median may worsen before it counts as a regression.
    pub bound: Bound,
    /// `Some` for the metrics of the driver's result line (`BENCHMARK.json`
    /// `end_to_end`), with the bound listed there. The driver compares runs
    /// under *different* seeds, minutes apart, and admits only metrics that
    /// are steady across them and never zero, so this bound has to cover the
    /// spread over seeds as well (a run's memory follows its event count,
    /// which moves ±10% with the seed). The other metrics are functions of
    /// the seed (`run_ms_p50`, `sim.*`), move with the host's speed
    /// (`events_per_s`) or are zero (`failed_ops_share`); all are printed,
    /// written by `--out` and judged against `bound` by `--compare`, which
    /// compares equal seeds.
    pub result_line_bound: Option<f64>,
}

/// A quarter of a 3 ms set-up is host jitter, so set-up times also get an
/// absolute floor.
const SETUP_BOUND: Bound = Bound {
    relative: 0.25,
    absolute_floor: 0.005,
};

/// Every end-to-end metric, in reporting order.
pub const END_TO_END: [EndToEndMetric; 10] = [
    EndToEndMetric {
        name: "setup_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: SETUP_BOUND,
        result_line_bound: None,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: SETUP_BOUND,
        result_line_bound: Some(0.25),
    },
    EndToEndMetric {
        name: "run_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::relative(0.10),
        result_line_bound: None,
    },
    EndToEndMetric {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: Bound::relative(0.10),
        result_line_bound: None,
    },
    EndToEndMetric {
        name: "events_per_s_norm",
        unit: "events/s",
        better: Better::Higher,
        bound: Bound::relative(0.10),
        result_line_bound: Some(0.25),
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::relative(0.05),
        result_line_bound: Some(0.25),
    },
    EndToEndMetric {
        name: "sim.success_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::EXACT,
        result_line_bound: None,
    },
    EndToEndMetric {
        name: "sim.msgs_per_query",
        unit: "msgs",
        better: Better::Lower,
        bound: Bound::EXACT,
        result_line_bound: None,
    },
    EndToEndMetric {
        name: "sim.download_distance_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::EXACT,
        result_line_bound: None,
    },
    EndToEndMetric {
        name: "failed_ops_share",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::EXACT,
        result_line_bound: None,
    },
];

/// The value of every [`END_TO_END`] metric, in that order.
pub fn end_to_end_values(measured: &EndToEnd) -> [Summary; 10] {
    let events = measured.report.dispatched_events as f64;
    let per_s = |ms: f64| events / (ms / 1e3);
    let run = &measured.run_ms;
    // A slow run is a low rate: the quartiles swap sides.
    let rate = Summary {
        median: per_s(run.median),
        q1: per_s(run.q3),
        q3: per_s(run.q1),
        min: per_s(run.max),
        max: per_s(run.min),
        n: run.n,
    };
    // Events per second, and set-up seconds, of a host on which the
    // yardstick runs at its nominal speed: the measured value scaled by how
    // slow the host was while it was measured. Medians of the two
    // interleaved series, not per-sample ratios — a single 60 ms batch is
    // too short to say how fast the host is.
    let slowdown = measured.yardstick_ms.median / NOMINAL_BATCH_MS;
    let setup_slowdown = measured.setup_yardstick_ms.median / NOMINAL_BATCH_MS;
    [
        measured.setup_s,
        measured.setup_s.scaled(1.0 / setup_slowdown),
        *run,
        rate,
        rate.scaled(slowdown),
        Summary::exact(measured.peak_rss_mb),
        Summary::exact(measured.report.success_rate()),
        Summary::exact(measured.report.avg_messages_per_query()),
        Summary::exact(measured.report.avg_download_distance_ms()),
        Summary::exact(measured.failed as f64 / measured.attempted.max(1) as f64),
    ]
}

#[cfg(test)]
/// Names: a letter or digit first, then at most 63 more of letters, digits,
/// `_`, `.` and `-`.
pub fn is_valid_name(name: &str) -> bool {
    let tail_ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    name.len() <= 64
        && tail_ok
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn is_valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON, all its digits; JSON has no spelling for NaN or ∞.
fn json_number(name: &str, value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("{name} is {value}, which JSON cannot carry"))
    }
}

/// The line the driver reads: one JSON object, `metrics` holding exactly the
/// given `(name, unit, value)` triples.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Result<String, String> {
    let fields: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(name, value)?,
                json_string(unit)
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// The document `--out` writes: every measured workload's end-to-end
/// metrics, each with its quartiles, extremes and sample count.
pub fn document(seed: u64, seconds: f64, measured: &[(&str, EndToEnd)]) -> Result<String, String> {
    let mut workloads = Vec::new();
    for (name, end_to_end) in measured {
        let mut metrics = Vec::new();
        for (metric, summary) in END_TO_END.iter().zip(end_to_end_values(end_to_end)) {
            metrics.push(format!(
                "      {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                json_string(metric.name),
                json_number(metric.name, summary.median)?,
                json_string(metric.unit),
                json_number(metric.name, summary.q1)?,
                json_number(metric.name, summary.q3)?,
                json_number(metric.name, summary.min)?,
                json_number(metric.name, summary.max)?,
                summary.n
            ));
        }
        workloads.push(format!(
            "    {}: {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
            json_string(name),
            end_to_end.attempted,
            end_to_end.failed,
            metrics.join(",\n")
        ));
    }
    Ok(format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json_number("seconds", seconds)?,
        workloads.join(",\n")
    ))
}

/// Reads a [`document`] back: workload → metric → summary.
pub fn read_document(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Summary>>, String> {
    let parsed = parse(text)?;
    let Some(Value::Object(workloads)) = parsed.get("workloads") else {
        return Err("no \"workloads\" object".to_string());
    };
    let mut out = BTreeMap::new();
    for (workload, entry) in workloads {
        let Some(Value::Object(metrics)) = entry.get("metrics") else {
            return Err(format!("{workload}: no \"metrics\" object"));
        };
        let mut table = BTreeMap::new();
        for (name, fields) in metrics {
            let number = |key: &str| {
                fields
                    .get(key)
                    .and_then(Value::as_number)
                    .ok_or_else(|| format!("{workload}: {name}: no number \"{key}\""))
            };
            let summary = Summary {
                median: number("value")?,
                q1: number("q1")?,
                q3: number("q3")?,
                min: number("min")?,
                max: number("max")?,
                n: number("n")? as usize,
            };
            table.insert(name.clone(), summary);
        }
        out.insert(workload.clone(), table);
    }
    Ok(out)
}

/// `--compare`: per workload × end-to-end metric, both values, the relative
/// difference and the verdict against the metric's bound. Returns the table
/// and how many rows read `worse`.
pub fn compare(baseline: &str, candidate: &str) -> Result<(String, usize), String> {
    let baseline = read_document(baseline).map_err(|e| format!("baseline: {e}"))?;
    let candidate = read_document(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut table = Table::new([
        "workload",
        "metric",
        "unit",
        "baseline",
        "candidate",
        "diff",
        "verdict",
    ]);
    let mut worse = 0;
    for workload in &WORKLOADS {
        let (Some(a), Some(b)) = (baseline.get(workload.name), candidate.get(workload.name)) else {
            // A document may hold a subset of the workloads; compare what
            // both sides measured.
            continue;
        };
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (a.get(metric.name), b.get(metric.name)) else {
                return Err(format!(
                    "{}: {} is missing on one side",
                    workload.name, metric.name
                ));
            };
            let outcome = verdict(metric.better, metric.bound, a, b);
            worse += usize::from(outcome == Verdict::Worse);
            let diff = if a.median == 0.0 {
                format!("{:+}", -worsening(metric.better, a.median, b.median))
            } else {
                format!("{:+.2}%", (b.median - a.median) / a.median.abs() * 100.0)
            };
            table.push_row([
                workload.name.to_string(),
                metric.name.to_string(),
                metric.unit.to_string(),
                format!("{:.6}", a.median),
                format!("{:.6}", b.median),
                diff,
                outcome.label().to_string(),
            ]);
        }
    }
    if table.is_empty() {
        return Err("the two documents share no workload".to_string());
    }
    Ok((table.render(), worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{run_untraced, Effort};

    #[test]
    fn metric_names_and_units_are_well_formed() {
        for (i, metric) in END_TO_END.iter().enumerate() {
            assert!(is_valid_name(metric.name), "{}", metric.name);
            assert!(is_valid_unit(metric.unit), "{}", metric.unit);
            assert!(END_TO_END[..i].iter().all(|m| m.name != metric.name));
            assert!(metric
                .result_line_bound
                .is_none_or(|b| metric.bound.relative <= b && b <= 0.25));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s" && m.unit == "s");
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.result_line_bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.and_then(|m| m.result_line_bound), Some(widest));
        for bad in ["", ".hidden", "-x", "has space", "sl/ash", &"x".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad:?}");
        }
        assert!(is_valid_name("sim.msgs_per_query") && is_valid_name("4shard-x_y.z"));
        assert!(
            is_valid_unit("events/s")
                && is_valid_unit("%")
                && !is_valid_unit("")
                && !is_valid_unit("a b")
        );
    }

    #[test]
    fn result_line_round_trips_through_the_json_reader() {
        let line = result_line(
            true,
            1000,
            0,
            &[("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.8127)],
        )
        .unwrap();
        assert!(!line.contains('\n'));
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            parsed.get("attempted").and_then(Value::as_number),
            Some(1000.0)
        );
        assert_eq!(parsed.get("failed").and_then(Value::as_number), Some(0.0));
        let latency = parsed
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .unwrap();
        assert_eq!(
            latency.get("value").and_then(Value::as_number),
            Some(1.2034)
        );
        assert_eq!(latency.get("unit"), Some(&Value::String("ms".into())));
        assert!(result_line(true, 1, 0, &[("x", "s", f64::INFINITY)]).is_err());
        assert!(result_line(true, 1, 0, &[("x", "s", f64::NAN)]).is_err());
    }

    #[test]
    fn document_round_trips_and_compares_equal_to_itself() {
        let effort = Effort {
            min_runs: 3,
            max_runs: 3,
            ..Effort::SMOKE
        };
        let workload = WORKLOADS[3].miniature();
        let measured = run_untraced(&workload, 42, &effort).unwrap();
        let text = document(42, 0.0, &[(workload.name, measured.clone())]).unwrap();

        let read = read_document(&text).unwrap();
        let metrics = &read[workload.name];
        assert_eq!(metrics.len(), END_TO_END.len());
        for (metric, summary) in END_TO_END.iter().zip(end_to_end_values(&measured)) {
            assert_eq!(metrics[metric.name], summary, "{}", metric.name);
        }
        assert_eq!(metrics["run_ms_p50"].n, 3);
        assert!(metrics["events_per_s"].q1 <= metrics["events_per_s"].median);

        let (table, worse) = compare(&text, &text).unwrap();
        assert_eq!(worse, 0);
        assert_eq!(table.matches(" ok").count(), END_TO_END.len());
    }

    #[test]
    fn compare_flags_a_slowdown_and_a_changed_statistic() {
        let doc = |run_ms: f64, success: f64| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    let value = match m.name {
                        "run_ms_p50" => run_ms,
                        "events_per_s" | "events_per_s_norm" => 1e8 / run_ms,
                        "sim.success_rate" => success,
                        "failed_ops_share" => 0.0,
                        _ => 1.0,
                    };
                    format!(
                        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": 30}}",
                        m.name,
                        m.unit,
                        value * 0.99,
                        value * 1.01,
                        value * 0.98,
                        value * 1.02
                    )
                })
                .collect();
            format!(
                "{{\"seed\": 1, \"seconds\": 1, \"workloads\": {{\"dht-faulty-1k\": {{\"attempted\": 30, \"failed\": 0, \"metrics\": {{{}}}}}}}}}",
                metrics.join(", ")
            )
        };
        let (_, worse) = compare(&doc(100.0, 0.5), &doc(105.0, 0.5)).unwrap();
        assert_eq!(worse, 0, "+5% is inside the 10% bound");
        let (table, worse) = compare(&doc(100.0, 0.5), &doc(120.0, 0.4)).unwrap();
        assert_eq!(
            worse, 4,
            "run time, both rates and the success rate: {table}"
        );
        let (table, worse) = compare(&doc(100.0, 0.5), &doc(80.0, 0.6)).unwrap();
        assert_eq!(worse, 0, "{table}");
        assert!(compare("{}", &doc(1.0, 1.0))
            .unwrap_err()
            .starts_with("baseline"));
        assert!(compare(&doc(1.0, 1.0), "{\"workloads\": {}}").is_err());
    }
}
