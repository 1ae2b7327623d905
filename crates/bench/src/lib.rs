//! # locaware-bench — the experiment front end
//!
//! The Locaware evaluation (§5.2) reports three figures, each plotting a metric
//! against the number of queries for four approaches (Locaware, Flooding,
//! Dicas, Dicas-Keys):
//!
//! * **Figure 2** — average download distance,
//! * **Figure 3** — search traffic (messages per query),
//! * **Figure 4** — success rate.
//!
//! This crate is the one command-line front end over the core experiment API
//! ([`locaware::experiment`]): `locaware-bench <subcommand>` parses its flags
//! through one loop, builds an [`ExperimentPlan`], hands it to a [`Runner`] —
//! which builds the substrate of each (scenario, repetition) point exactly
//! once, shares it immutably across all protocols and query counts, and steals
//! grid tasks from a shared queue on scoped worker threads — and prints what
//! the [`ExperimentOutcome`] holds. Every run measures all three figure
//! metrics, so `fig2` / `fig3` / `fig4` / `run_all` are one routine with a
//! filter; `ablation`, `inspect`, `degradation` and `regimes` are the studies
//! behind EXPERIMENTS.md; `scale` measures the 10⁵-peer build tier. Every
//! subcommand but `inspect` prints its results as titled [`Table`]s, as
//! aligned text or, where `--csv` is accepted, as CSV. [`run`] is the only
//! code path: the binary prints what it returns.
//!
//! Speed is measured elsewhere: `BENCHMARK.json` and `perfbench/` are the
//! repository's one benchmark (it reads its own JSON through [`trajectory`]).

#![warn(missing_docs)]

use locaware::{ExperimentOutcome, ExperimentPlan, ProtocolKind, Runner, Scenario, SimulationConfig};
use locaware_metrics::Table;

mod figures;
mod scale;
mod studies;

use figures::MetricKind;

/// Runs `locaware-bench`'s arguments (subcommand first, program name
/// excluded) and returns what the binary prints to stdout. Misuse — an
/// unknown subcommand, flag, preset or protocol, a missing or malformed
/// value, a population the substrate cannot wire — comes back as the `Err`
/// message before anything is simulated.
pub fn run(args: impl IntoIterator<Item = impl Into<String>>) -> Result<String, String> {
    let mut args = args.into_iter().map(Into::into);
    let subcommand = args.next().ok_or("missing subcommand")?;
    match subcommand.as_str() {
        "fig2" => figures::run(Some(MetricKind::DownloadDistance), args),
        "fig3" => figures::run(Some(MetricKind::SearchTraffic), args),
        "fig4" => figures::run(Some(MetricKind::SuccessRate), args),
        "run_all" => figures::run(None, args),
        "ablation" => studies::ablation(args),
        "inspect" => studies::inspect(args),
        "degradation" => studies::degradation(args),
        "regimes" => studies::regimes(args),
        "scale" => scale::run(args),
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// The usage text the binary prints after an error.
pub fn usage() -> String {
    let protocols: Vec<&str> = ProtocolKind::all().iter().map(|k| k.label()).collect();
    format!(
        "usage: locaware-bench <subcommand> [options]
  fig2 | fig3 | fig4 | run_all  [--quick] [--scenario NAME] [--peers N] [--queries a,b,c]
                                [--reps N] [--seed N] [--threads N] [--csv]
  ablation     [--quick]
  inspect      <protocol> [scenario] [peers] [queries] [seed] [--shards N]
  degradation  [--peers N] [--queries N] [--losses a,b,c]
  regimes      [--peers N] [--queries N] [--scenarios a,b,c]
  scale        [--peers a,b,c] [--queries N] [--run-max-peers N] [--protocol NAME]
protocols: {}
scenarios: {}",
        protocols.join(" "),
        Scenario::PRESET_NAMES.join(" ")
    )
}

/// The preset `name` at `peers` peers, or why there is none. Every preset is
/// [`SimulationConfig::small`] plus its regime's knobs and panics on a
/// population that base cannot wire, so the base is validated first.
fn preset(name: &str, peers: usize) -> Result<Scenario, String> {
    SimulationConfig::small(peers).validate().map_err(|e| e.to_string())?;
    Scenario::preset(name, peers).ok_or_else(|| {
        format!("unknown scenario {name}; presets: {}", Scenario::PRESET_NAMES.join(", "))
    })
}

/// What a subcommand prints: each `(title, table)` section as its title's
/// lines, each a `# ` comment, then the table as aligned text or (`csv`) as
/// CSV; sections are separated by a blank line.
fn render<S: AsRef<str>>(sections: &[(S, Table)], csv: bool) -> String {
    let section = |(title, table): &(S, Table)| {
        let comments: String = title.as_ref().lines().map(|line| format!("# {line}\n")).collect();
        comments + &if csv { table.csv() } else { table.render() }
    };
    sections.iter().map(section).collect::<Vec<_>>().join("\n")
}

/// Runs `plan` on the shared runner (`threads` workers, or one per core).
fn execute(plan: &ExperimentPlan, threads: Option<usize>) -> Result<ExperimentOutcome, String> {
    let runner = threads.map_or_else(Runner::new, |n| Runner::new().with_threads(n));
    runner.run(plan).map_err(|e| e.to_string())
}

mod flags {
    //! The one argument loop every subcommand parses through.

    /// Pairs every flag in `args` with the value that follows it; a flag in
    /// `switches` takes none and pairs with the empty string. A flag in
    /// neither list and a trailing valued flag without a value are errors.
    pub(crate) fn pairs(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Vec<(String, String)>, String> {
        let mut args = args.into_iter();
        let mut pairs = Vec::new();
        while let Some(flag) = args.next() {
            let value = if switches.contains(&flag.as_str()) {
                String::new()
            } else if valued.contains(&flag.as_str()) {
                args.next().ok_or_else(|| format!("{flag} needs a value"))?
            } else {
                return Err(format!("unknown flag {flag}"));
            };
            pairs.push((flag, value));
        }
        Ok(pairs)
    }

    /// Parses one non-negative integer value.
    pub(crate) fn number(s: &str) -> Result<usize, String> {
        s.trim().parse().map_err(|_| format!("not a number: {s}"))
    }

    /// Parses a comma-separated list of non-negative integers.
    pub(crate) fn list(s: &str) -> Result<Vec<usize>, String> {
        s.split(',').map(number).collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(words: &[&str]) -> Vec<String> {
            words.iter().map(|w| w.to_string()).collect()
        }

        #[test]
        fn pairs_values_and_rejects_misuse() {
            let known = ["--peers", "--shards"];
            let pairs = |words: &[&str]| pairs(args(words), &known, &["--quick"]);
            let parsed = pairs(&["--shards", "1,4", "--quick", "--peers", "300"]).unwrap();
            assert_eq!(parsed, vec![
                ("--shards".to_string(), "1,4".to_string()),
                ("--quick".to_string(), String::new()),
                ("--peers".to_string(), "300".to_string()),
            ]);
            assert_eq!(pairs(&[]), Ok(Vec::new()));
            assert_eq!(pairs(&["--peers"]), Err("--peers needs a value".to_string()));
            assert_eq!(pairs(&["--bogus", "1"]), Err("unknown flag --bogus".to_string()));
        }

        #[test]
        fn numbers_and_lists_reject_non_numeric_and_empty_elements() {
            assert_eq!(number(" 42 "), Ok(42));
            assert_eq!(number("abc"), Err("not a number: abc".to_string()));
            assert_eq!(number("-1"), Err("not a number: -1".to_string()));
            assert_eq!(list("1, 2,8"), Ok(vec![1, 2, 8]));
            assert_eq!(list("1,,2"), Err("not a number: ".to_string()));
            assert_eq!(list(""), Err("not a number: ".to_string()));
        }
    }
}

pub mod trajectory {
    //! A minimal JSON reader for the benchmark's own output.
    //!
    //! The build is offline and has no `serde_json`, so `perfbench` (result
    //! lines, trace files, `--compare`) reads JSON through this module:
    //! objects, arrays, strings (no escapes beyond `\"`, `\\`, `\/`, `\n`,
    //! `\t`), numbers, booleans and null — ample for files we write ourselves.

    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, as `f64`.
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, keys sorted.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The object entry at `key`, if this is an object holding it.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_number(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&bytes, &mut pos)?;
        skip_whitespace(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_whitespace(chars: &[char], pos: &mut usize) {
        while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
            *pos += 1;
        }
    }

    fn parse_value(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        skip_whitespace(chars, pos);
        match chars.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some('{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_whitespace(chars, pos);
                if chars.get(*pos) == Some(&'}') {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    skip_whitespace(chars, pos);
                    let Value::String(key) = parse_value(chars, pos)? else {
                        return Err(format!("object key must be a string at offset {pos}"));
                    };
                    skip_whitespace(chars, pos);
                    if chars.get(*pos) != Some(&':') {
                        return Err(format!("expected ':' at offset {pos}"));
                    }
                    *pos += 1;
                    let value = parse_value(chars, pos)?;
                    map.insert(key, value);
                    skip_whitespace(chars, pos);
                    match chars.get(*pos) {
                        Some(',') => *pos += 1,
                        Some('}') => {
                            *pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                    }
                }
            }
            Some('[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_whitespace(chars, pos);
                if chars.get(*pos) == Some(&']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(chars, pos)?);
                    skip_whitespace(chars, pos);
                    match chars.get(*pos) {
                        Some(',') => *pos += 1,
                        Some(']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                    }
                }
            }
            Some('"') => {
                *pos += 1;
                let mut s = String::new();
                loop {
                    match chars.get(*pos) {
                        None => return Err("unterminated string".to_string()),
                        Some('"') => {
                            *pos += 1;
                            return Ok(Value::String(s));
                        }
                        Some('\\') => {
                            *pos += 1;
                            match chars.get(*pos) {
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                Some('/') => s.push('/'),
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                other => {
                                    return Err(format!("unsupported escape {other:?}"));
                                }
                            }
                            *pos += 1;
                        }
                        Some(&c) => {
                            s.push(c);
                            *pos += 1;
                        }
                    }
                }
            }
            Some('t') if chars[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some('f') if chars[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some('n') if chars[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while chars
                    .get(*pos)
                    .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
                {
                    *pos += 1;
                }
                let literal: String = chars[start..*pos].iter().collect();
                literal
                    .parse::<f64>()
                    .map(Value::Number)
                    .map_err(|_| format!("invalid number {literal:?} at offset {start}"))
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_a_bench_file_shape() {
            let text = r#"{
                "pr": 4,
                "note": "hello \"world\"",
                "trajectory": {
                    "locaware_ms": 67.5,
                    "flooding_ms": 340.4,
                    "note": "not a number",
                    "suite_s": 0.37
                },
                "nested": {"list": [1, -2.5, 3e2, true, null]}
            }"#;
            let document = parse(text).expect("valid JSON");
            let trajectory = document.get("trajectory").expect("object entry");
            let number = |key: &str| trajectory.get(key).and_then(Value::as_number);
            assert_eq!(number("locaware_ms"), Some(67.5));
            assert_eq!(number("flooding_ms"), Some(340.4));
            assert_eq!(number("suite_s"), Some(0.37));
            assert_eq!(number("note"), None, "a string is not a number");
            assert_eq!(
                document.get("nested").and_then(|n| n.get("list")),
                Some(&Value::Array(vec![
                    Value::Number(1.0),
                    Value::Number(-2.5),
                    Value::Number(300.0),
                    Value::Bool(true),
                    Value::Null,
                ]))
            );
        }

        #[test]
        fn malformed_documents_are_rejected() {
            assert!(parse("{").is_err());
            assert!(parse(r#"{"a" 1}"#).is_err());
            assert!(parse("[1,]").is_err());
            assert!(parse("12 34").is_err());
            assert!(parse(r#"{"a": 00x}"#).is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::{figure, headline_table, paper_claims};

    /// A 60-peer, two-count grid over the paper's four protocols.
    const TINY: [&str; 10] =
        ["--peers", "60", "--queries", "30,60", "--seed", "11", "--threads", "2", "--reps", "1"];

    fn words(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn tiny_outcome() -> ExperimentOutcome {
        let parsed = figures::parse(words(&TINY)).unwrap();
        execute(&parsed.plan, parsed.threads).unwrap()
    }

    #[test]
    fn sweep_produces_every_grid_point() {
        let outcome = tiny_outcome();
        assert_eq!(outcome.points.len(), 4 * 2);
        let fig3 = figure(&outcome, MetricKind::SearchTraffic);
        assert_eq!(fig3.labels().len(), 4);
        assert_eq!(fig3.x_values(), vec![30, 60]);
        for label in fig3.labels() {
            for x in fig3.x_values() {
                assert!(fig3.value_at(label, x).is_some(), "{label} missing x={x}");
            }
        }
    }

    #[test]
    fn flooding_dominates_search_traffic() {
        let fig3 = figure(&tiny_outcome(), MetricKind::SearchTraffic);
        for x in fig3.x_values() {
            let flooding = fig3.value_at("flooding", x).unwrap();
            let locaware = fig3.value_at("locaware", x).unwrap();
            assert!(
                flooding > locaware * 2.0,
                "flooding must produce far more traffic ({flooding} vs {locaware})"
            );
        }
    }

    #[test]
    fn metric_kind_accessors() {
        assert_eq!(MetricKind::DownloadDistance.figure_number(), 2);
        assert_eq!(MetricKind::SearchTraffic.figure_number(), 3);
        assert_eq!(MetricKind::SuccessRate.figure_number(), 4);
        assert!(MetricKind::SuccessRate.title().contains("Figure 4"));
    }

    #[test]
    fn cli_parsing_round_trips() {
        let parsed = figures::parse(words(&[
            "--quick", "--queries", "10,20", "--reps", "2", "--seed", "99", "--threads", "3",
            "--csv",
        ]))
        .unwrap();
        assert!(parsed.csv);
        assert_eq!(parsed.plan.query_count_list(), [10, 20]);
        assert_eq!(parsed.plan.repetition_count(), 2);
        assert_eq!(parsed.plan.scenario_list()[0].seed(), 99);
        assert_eq!(parsed.threads, Some(3));

        assert!(figures::parse(words(&["--bogus"])).is_err());
        assert!(figures::parse(words(&["--queries"])).is_err());
        assert!(figures::parse(words(&["--queries", "abc"])).is_err());
    }

    #[test]
    fn cli_scenario_presets_apply_regardless_of_flag_order() {
        let config_of = |args: &[&str]| {
            figures::parse(words(args)).map(|run| run.plan.scenario_list()[0].config().clone())
        };
        let flash = config_of(&["--quick", "--peers", "80", "--scenario", "flash-crowd"]).unwrap();
        assert_eq!(&flash, Scenario::flash_crowd(80).config());

        // --seed still overrides the preset's own seed.
        let seeded = config_of(&["--quick", "--scenario", "churn-storm", "--seed", "7"]).unwrap();
        assert_eq!(seeded.seed, 7);
        assert!(!seeded.churn.is_disabled());

        let err = config_of(&["--scenario", "nope"]).unwrap_err();
        assert!(err.contains("presets"), "{err}");
    }

    #[test]
    fn sweeps_delegate_to_the_experiment_plan() {
        let plan = figures::parse(words(&TINY)).unwrap().plan;
        assert_eq!(plan.substrate_count(), 1);
        assert_eq!(plan.point_count(), 4 * 2);
        assert_eq!(plan.scenario_list()[0].seed(), 11);
    }

    #[test]
    fn headline_table_and_claims_render() {
        let outcome = tiny_outcome();
        assert_eq!(headline_table(&outcome).len(), 4);
        let claims = paper_claims(&outcome);
        assert!(claims.traffic_reduction_vs_flooding > 0.5);
        assert!(claims.table().render().contains("~98%"));
    }

    /// `fig3` is `run_all` with a filter: its figure block is the unfiltered
    /// run's Figure-3 block, byte for byte, as a table and as CSV.
    #[test]
    fn a_filtered_figure_is_a_block_of_the_unfiltered_run() {
        for csv in [&[][..], &["--csv"][..]] {
            let run_with = |subcommand: &str| {
                run([subcommand].iter().chain(&TINY).chain(csv).copied()).unwrap()
            };
            let (fig3, all) = (run_with("fig3"), run_with("run_all"));
            let block = fig3.split("\n\n").next().unwrap();
            assert!(block.contains("flooding") && block.lines().count() >= 3, "{block}");
            assert!(all.contains(block), "{all}\n-- lacks --\n{block}");
            for other in ["fig2", "fig4"] {
                assert!(!run_with(other).contains(block), "{other} printed Figure 3");
            }
        }
    }

    /// Both degradation curves are indexed by the loss level: their x
    /// column is headed `loss (%)` and holds the `--losses` values.
    #[test]
    fn degradation_curves_are_indexed_by_loss() {
        let out = run(["degradation", "--peers", "40", "--queries", "40", "--losses", "0,5"]).unwrap();
        let curves: Vec<&str> = out.split("\n\n").filter(|b| b.starts_with("# Degradation:")).collect();
        assert_eq!(curves.len(), 2, "{out}");
        for curve in curves {
            let mut lines = curve.lines().skip_while(|line| line.starts_with('#'));
            assert!(lines.next().unwrap().starts_with("loss (%)  "), "{curve}");
            let xs: Vec<&str> = lines.skip(1).filter_map(|row| row.split_whitespace().next()).collect();
            assert_eq!(xs, ["0", "5"], "{curve}");
        }
    }

    /// Every misuse is an `Err` naming the problem, returned before anything
    /// is simulated (the default grids would run for minutes; the whole table
    /// takes milliseconds) and never a panic.
    #[test]
    fn misuse_is_an_error_naming_the_problem() {
        let rows: [(&[&str], &str); 30] = [
            (&[], "missing subcommand"),
            (&["fig5"], "unknown subcommand fig5"),
            (&["fig2", "--bogus"], "unknown flag --bogus"),
            (&["ablation", "--quik"], "unknown flag --quik"),
            (&["ablation", "--peers", "80"], "unknown flag --peers"),
            (&["regimes", "--repeats", "2"], "unknown flag --repeats"),
            (&["run_all", "--quick", "--queries"], "--queries needs a value"),
            (&["degradation", "--losses"], "--losses needs a value"),
            (&["fig3", "--quick", "--peers", "abc"], "not a number: abc"),
            (&["fig4", "--queries", "1,x"], "not a number: x"),
            (&["fig4", "--queries", "1,,2"], "not a number: "),
            (&["degradation", "--losses", "1,two"], "not a number: two"),
            (&["scale", "--queries", "-5"], "not a number: -5"),
            (&["inspect", "locaware", "small", "abc"], "not a number: abc"),
            (&["inspect", "locaware", "small", "120", "2e3"], "not a number: 2e3"),
            (&["inspect", "locaware", "120", "200", "42", "7"], "unexpected argument 7"),
            (&["inspect", "locaware", "small", "120", "200", "--shards", "0"], "shards must be positive"),
            (&["inspect", "locaware", "small", "120", "200", "--shards", "x"], "not a number: x"),
            (&["inspect", "locaware", "small", "120", "200", "--shards"], "--shards needs a value"),
            (&["fig2", "--quick", "--reps", "0"], "at least one repetition"),
            (&["fig3", "--quick", "--peers", "0"], "peers must be positive"),
            (&["fig3", "--quick", "--peers", "3"], "degree"),
            (&["run_all", "--quick", "--scenario", "small", "--peers", "2"], "degree"),
            (&["regimes", "--peers", "3"], "degree"),
            (&["degradation", "--peers", "3"], "degree"),
            (&["degradation", "--queries", "many"], "not a number: many"),
            (&["degradation", "--losses", "150"], "loss"),
            (&["run_all", "--scenario", "nope"], "unknown scenario nope; presets: "),
            (&["inspect", "gossip"], "unknown protocol gossip"),
            (&["scale", "--protocol", "gossip"], "unknown protocol gossip"),
        ];
        for (args, problem) in rows {
            match run(args.iter().copied()) {
                Err(message) => assert!(message.contains(problem), "{args:?}: {message}"),
                Ok(output) => panic!("{args:?} ran: {output}"),
            }
        }
    }

    /// [`preset`] turns the presets' panic on an unwireable population into
    /// an error for every preset, and agrees with them everywhere else.
    #[test]
    fn every_preset_is_an_error_or_a_scenario_at_any_population() {
        for name in Scenario::PRESET_NAMES {
            for peers in 0..4 {
                assert!(preset(name, peers).is_err(), "{name} at {peers} peers");
            }
            for peers in 4..40 {
                assert_eq!(preset(name, peers), Scenario::preset(name, peers).ok_or(String::new()));
            }
        }
    }
}
