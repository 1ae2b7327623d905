//! The repository's one benchmark: six workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! locaware-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!     One workload, as the driver runs it (see BENCHMARK.json). The last
//!     line of standard output is the result: one JSON object.
//! locaware-perfbench [--seed N] [--seconds S] [--trace] [--out FILE]
//!     Every workload in turn, each with its table and result line. With
//!     tracing off, --out writes the document --compare reads.
//! locaware-perfbench --smoke [--seed N]
//!     Every workload, untraced and traced, one timed run each and 10³-op
//!     kernels: all the correctness checks in about twelve seconds.
//! locaware-perfbench --compare A.json B.json
//!     Two --out documents, judged against the bounds; exits 1 on `worse`.
//! ```
//!
//! `README.md` says what each workload isolates, which end-to-end metric
//! each per-layer metric is expected to move, and how to read the span files.

// Timing is this program's job; the workspace-wide wall-clock ban
// (clippy.toml, lint rule D002) exempts the bench code.
#![allow(clippy::disallowed_methods)]

mod layers;
mod measure;
mod report;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;

use locaware_metrics::Table;

use crate::layers::{run_traced, Layers, PER_LAYER};
use crate::measure::{run_untraced, Effort, EndToEnd};
use crate::report::{compare, document, end_to_end_values, result_line, END_TO_END};
use crate::workloads::{Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise; the same
/// number as `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

/// The seed of a run without `--seed`.
const DEFAULT_SEED: u64 = 42;

#[derive(Debug, PartialEq)]
enum Mode {
    Measure {
        workload: Option<String>,
        seconds: f64,
        trace: bool,
        out: Option<PathBuf>,
    },
    Smoke,
    Compare {
        baseline: PathBuf,
        candidate: PathBuf,
    },
}

#[derive(Debug, PartialEq)]
struct Options {
    mode: Mode,
    seed: u64,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut seed = DEFAULT_SEED;
    let (mut workload, mut seconds, mut trace, mut out) = (None, RUN_SECONDS, false, None);
    let (mut smoke, mut compare) = (false, None);
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                let text = value(&mut i)?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {text}"))?;
            }
            "--seconds" => {
                let text = value(&mut i)?;
                seconds = text
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {text}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("--seconds: out of range: {text}"));
                }
            }
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (trace, i) = (false, i + 1),
                Some("1") => (trace, i) = (true, i + 1),
                _ => trace = true,
            },
            "--out" => out = Some(PathBuf::from(value(&mut i)?)),
            "--smoke" => smoke = true,
            "--compare" => {
                let baseline = PathBuf::from(value(&mut i)?);
                compare = Some((baseline, PathBuf::from(value(&mut i)?)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(name) = &workload {
        if Workload::by_name(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name} (known: {})",
                known.join(", ")
            ));
        }
    }
    if out.is_some() && trace {
        return Err("--out writes end-to-end metrics; it does not go with --trace".to_string());
    }
    let mode = match (compare, smoke) {
        (Some((baseline, candidate)), false) => Mode::Compare {
            baseline,
            candidate,
        },
        (None, true) => Mode::Smoke,
        (None, false) => Mode::Measure {
            workload,
            seconds,
            trace,
            out,
        },
        (Some(_), true) => return Err("--compare does not go with --smoke".to_string()),
    };
    Ok(Options { mode, seed })
}

fn describe(workload: &Workload, seed: u64) -> String {
    format!(
        "== {} (seed {seed}): {} @ {} peers, {}, {} queries, {} shard(s)",
        workload.name,
        workload.preset,
        workload.peers,
        workload.protocol,
        workload.queries,
        workload.shards
    )
}

/// Prints the workload's end-to-end table and its result line.
fn print_end_to_end(workload: &Workload, seed: u64, measured: &EndToEnd) -> Result<(), String> {
    println!("{}", describe(workload, seed));
    let mut table = Table::new([
        "metric", "unit", "median", "q1", "q3", "min", "max", "n", "spread", "bound", "driver",
    ]);
    let values = end_to_end_values(measured);
    for (metric, s) in END_TO_END.iter().zip(&values) {
        let bound = if metric.bound.absolute_floor > 0.0 {
            format!(
                "max({}%, {} {})",
                metric.bound.relative * 100.0,
                metric.bound.absolute_floor,
                metric.unit
            )
        } else {
            format!("{}%", metric.bound.relative * 100.0)
        };
        let cells = [s.median, s.q1, s.q3, s.min, s.max].map(|v| format!("{v:.6}"));
        let mut row = vec![metric.name.to_string(), metric.unit.to_string()];
        row.extend(cells);
        row.extend([
            s.n.to_string(),
            format!("{:.2}%", s.spread() * 100.0),
            bound,
            metric
                .result_line_bound
                .map_or(String::new(), |b| format!("{}%", b * 100.0)),
        ]);
        table.push_row(row);
    }
    println!("{}", table.render());
    let yardstick = &measured.yardstick_ms;
    println!(
        "timed runs: {} attempted, {} failed; {} events per run; yardstick batch {:.3} ms (q1 {:.3}, q3 {:.3}, nominal {})",
        measured.attempted,
        measured.failed,
        measured.report.dispatched_events,
        yardstick.median,
        yardstick.q1,
        yardstick.q3,
        yardstick::NOMINAL_BATCH_MS
    );
    for failure in &measured.failures {
        println!("FAILED: {failure}");
    }
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(&values)
        .filter(|(metric, _)| metric.result_line_bound.is_some())
        .map(|(metric, s)| (metric.name, metric.unit, s.median))
        .collect();
    println!(
        "{}",
        result_line(
            measured.correct(),
            measured.attempted,
            measured.failed,
            &metrics
        )?
    );
    Ok(())
}

/// Where the span files go: beside the build, never into the source tree.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("perfbench-trace")
}

/// Prints the workload's per-layer table and result line, and writes its
/// span file.
fn print_layers(workload: &Workload, seed: u64, layers: &Layers) -> Result<(), String> {
    println!("{} [traced]", describe(workload, seed));
    let mut table = Table::new(["metric", "unit", "value"]);
    for (listed, &(name, value)) in PER_LAYER.iter().zip(&layers.values) {
        table.push_row([
            name.to_string(),
            listed.unit.to_string(),
            format!("{value:.6}"),
        ]);
    }
    println!("{}", table.render());
    for failure in &layers.failures {
        println!("FAILED: {failure}");
    }
    let dir = trace_dir();
    let path = dir.join(format!("trace-{}.json", workload.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, layers.tracer.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} spans written to {}",
        layers.tracer.spans().len(),
        path.display()
    );
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .zip(&layers.values)
        .map(|(listed, &(name, value))| (name, listed.unit, value))
        .collect();
    println!(
        "{}",
        result_line(
            layers.failures.is_empty(),
            layers.attempted,
            layers.failed,
            &metrics
        )?
    );
    Ok(())
}

fn measure(
    only: Option<&str>,
    seed: u64,
    effort: &Effort,
    trace: bool,
    out: Option<&PathBuf>,
) -> Result<bool, String> {
    let mut correct = true;
    let mut measured = Vec::new();
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|name| name == w.name))
    {
        if trace {
            let layers = run_traced(workload, seed, effort)?;
            print_layers(workload, seed, &layers)?;
            correct &= layers.failures.is_empty();
        } else {
            let end_to_end = run_untraced(workload, seed, effort)?;
            print_end_to_end(workload, seed, &end_to_end)?;
            correct &= end_to_end.correct();
            measured.push((workload.name, end_to_end));
        }
    }
    if let Some(path) = out {
        std::fs::write(path, document(seed, effort.seconds, &measured)?)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(correct)
}

fn smoke(seed: u64) -> Result<bool, String> {
    let mut correct = true;
    for workload in &WORKLOADS {
        let end_to_end = run_untraced(workload, seed, &Effort::SMOKE)?;
        let layers = run_traced(workload, seed, &Effort::SMOKE)?;
        let failures: Vec<&String> = end_to_end.failures.iter().chain(&layers.failures).collect();
        println!(
            "{}: {} ({} events, fingerprint {:016x})",
            workload.name,
            if failures.is_empty() { "ok" } else { "FAILED" },
            end_to_end.report.dispatched_events,
            end_to_end.report.fingerprint()
        );
        for failure in &failures {
            println!("  {failure}");
        }
        correct &= failures.is_empty();
    }
    Ok(correct)
}

fn run(options: &Options) -> Result<bool, String> {
    // Sharded workloads use the inline executor: on a small shared machine
    // the threaded one measures the scheduler (README, "What is left out").
    // Set before the first run; the library reads it once per process.
    std::env::set_var("LOCAWARE_SHARD_THREADS", "0");
    match &options.mode {
        Mode::Measure {
            workload,
            seconds,
            trace,
            out,
        } => measure(
            workload.as_deref(),
            options.seed,
            &Effort::seconds(*seconds),
            *trace,
            out.as_ref(),
        ),
        Mode::Smoke => smoke(options.seed),
        Mode::Compare {
            baseline,
            candidate,
        } => {
            let read = |path: &PathBuf| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))
            };
            let (table, worse) = compare(&read(baseline)?, &read(candidate)?)?;
            println!("{table}");
            println!("{worse} worse");
            Ok(worse == 0)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("locaware-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("locaware-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_bench::trajectory::{parse, Value};

    fn options(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed = options(&[
            "--workload",
            "dht-faulty-1k",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        let expected = Mode::Measure {
            workload: Some("dht-faulty-1k".into()),
            seconds: 3.0,
            trace: true,
            out: None,
        };
        assert_eq!(
            parsed,
            Ok(Options {
                mode: expected,
                seed: 7
            })
        );
        let untraced = options(&["--trace", "0", "--seed", "9"]).unwrap();
        assert_eq!(
            untraced,
            Options {
                mode: Mode::Measure {
                    workload: None,
                    seconds: RUN_SECONDS,
                    trace: false,
                    out: None
                },
                seed: 9
            }
        );
        assert!(matches!(
            options(&["--trace", "--seed", "1"]).unwrap().mode,
            Mode::Measure { trace: true, .. }
        ));
        assert_eq!(
            options(&["--smoke"]).unwrap(),
            Options {
                mode: Mode::Smoke,
                seed: DEFAULT_SEED
            }
        );
        assert!(matches!(
            options(&["--compare", "a", "b"]).unwrap().mode,
            Mode::Compare { .. }
        ));
    }

    #[test]
    fn misuse_is_refused() {
        for bad in [
            &["--workload", "no-such"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "inf"],
            &["--compare", "a"],
            &["--compare", "a", "b", "--smoke"],
            &["--trace", "--out", "x"],
            &["--frobnicate"],
        ] {
            assert!(options(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with the
    /// tables the program reports from. Skipped where the file is absent
    /// (the package copied elsewhere on its own).
    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let manifest = parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Array(items)) = manifest.get(key) else {
                panic!("{key} must be an array")
            };
            items
                .iter()
                .map(|item| match item.get("name") {
                    Some(Value::String(name)) => name.clone(),
                    other => panic!("{key}: name must be a string, got {other:?}"),
                })
                .collect()
        };
        let field = |key: &str, name: &str, field: &str| -> Value {
            let Some(Value::Array(items)) = manifest.get(key) else {
                panic!("{key} must be an array")
            };
            let item = items
                .iter()
                .find(|i| i.get("name") == Some(&Value::String(name.into())));
            item.and_then(|i| i.get(field))
                .cloned()
                .unwrap_or(Value::Null)
        };

        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for workload in &WORKLOADS {
            assert_eq!(
                field("workloads", workload.name, "why"),
                Value::String(workload.why.into())
            );
        }
        let in_line: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.result_line_bound.is_some())
            .collect();
        assert_eq!(
            names("end_to_end"),
            in_line.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for metric in in_line {
            assert_eq!(
                field("end_to_end", metric.name, "unit"),
                Value::String(metric.unit.into())
            );
            assert_eq!(
                field("end_to_end", metric.name, "better"),
                Value::String(metric.better.label().into())
            );
            assert_eq!(
                field("end_to_end", metric.name, "bound"),
                metric.result_line_bound.map_or(Value::Null, Value::Number)
            );
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for metric in &PER_LAYER {
            assert_eq!(
                field("per_layer", metric.name, "unit"),
                Value::String(metric.unit.into())
            );
            assert_eq!(
                field("per_layer", metric.name, "better"),
                Value::String(metric.better.into())
            );
        }
        assert_eq!(
            manifest.get("run_seconds"),
            Some(&Value::Number(RUN_SECONDS))
        );
    }
}
