//! # locaware-bench — experiment harness for the paper's figures
//!
//! The Locaware evaluation (§5.2) reports three figures, each plotting a metric
//! against the number of queries for four approaches (Locaware, Flooding,
//! Dicas, Dicas-Keys):
//!
//! * **Figure 2** — average download distance,
//! * **Figure 3** — search traffic (messages per query),
//! * **Figure 4** — success rate.
//!
//! [`Sweep`] runs the full grid (protocol × query count × repetition) over
//! identical substrates and produces all three figures in one pass, since every
//! run measures all three metrics anyway. The experiment binaries
//! (`fig2`, `fig3`, `fig4`, `run_all`) print one figure each (or all), both as
//! an aligned table and as CSV, and the Criterion benchmarks reuse the same
//! harness at a reduced scale.
//!
//! `Sweep` is a thin figure-producing front end over the core experiment API
//! ([`locaware::experiment`]): it assembles an [`ExperimentPlan`] and hands
//! it to a [`Runner`], which builds the substrate of each
//! (scenario, repetition) point exactly once, shares it immutably across all
//! protocols and query counts, and steals grid tasks from a shared queue on
//! scoped worker threads. Repetitions use distinct derived seeds and the
//! reported value is the mean across repetitions; each grid point is fully
//! deterministic (and bit-identical for every engine shard count, so
//! `SimulationConfig::shards` is purely a performance knob here too).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;

use locaware::{
    ExperimentPlan, ExperimentPoint, Figure, ProtocolKind, Runner, Scenario, SeriesPoint,
    SimulationConfig, SimulationReport,
};
use locaware_metrics::Table;

/// Which metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Figure 2: average download distance in milliseconds.
    DownloadDistance,
    /// Figure 3: average messages per query.
    SearchTraffic,
    /// Figure 4: fraction of satisfied queries.
    SuccessRate,
}

impl MetricKind {
    /// The metric's value in a finished report.
    pub fn extract(self, report: &SimulationReport) -> f64 {
        match self {
            MetricKind::DownloadDistance => report.avg_download_distance_ms(),
            MetricKind::SearchTraffic => report.avg_messages_per_query(),
            MetricKind::SuccessRate => report.success_rate(),
        }
    }

    /// Human-readable axis label.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::DownloadDistance => "avg download distance (ms)",
            MetricKind::SearchTraffic => "messages per query",
            MetricKind::SuccessRate => "success rate",
        }
    }

    /// The figure number in the paper.
    pub fn figure_number(self) -> u32 {
        match self {
            MetricKind::DownloadDistance => 2,
            MetricKind::SearchTraffic => 3,
            MetricKind::SuccessRate => 4,
        }
    }

    /// Figure title, e.g. `"Figure 2: comparison of download distance"`.
    pub fn title(self) -> String {
        let name = match self {
            MetricKind::DownloadDistance => "download distance",
            MetricKind::SearchTraffic => "search traffic",
            MetricKind::SuccessRate => "success rate",
        };
        format!("Figure {}: comparison of {}", self.figure_number(), name)
    }
}

/// The full experiment grid.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Base configuration (the paper's defaults unless scaled down).
    pub config: SimulationConfig,
    /// Protocols to compare (defaults to the paper's four).
    pub protocols: Vec<ProtocolKind>,
    /// Query counts forming the x-axis.
    pub query_counts: Vec<usize>,
    /// Independent repetitions (distinct seeds) averaged per point.
    pub repetitions: usize,
    /// Worker threads for independent grid points.
    pub threads: usize,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::paper_scale()
    }
}

impl Sweep {
    /// The paper-scale sweep: 1000 peers, query counts from 500 to 5000.
    pub fn paper_scale() -> Self {
        Sweep {
            config: SimulationConfig::paper_defaults(),
            protocols: ProtocolKind::PAPER_SET.to_vec(),
            query_counts: vec![500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000],
            repetitions: 1,
            threads: default_threads(),
        }
    }

    /// A scaled-down sweep that finishes in seconds; used by the Criterion
    /// benchmarks, the examples and CI-style smoke runs.
    pub fn quick() -> Self {
        Sweep {
            config: SimulationConfig::small(200),
            protocols: ProtocolKind::PAPER_SET.to_vec(),
            query_counts: vec![200, 400, 600, 800],
            repetitions: 1,
            threads: default_threads(),
        }
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The sweep expressed as a core [`ExperimentPlan`]: one scenario wrapping
    /// the base configuration, the sweep's protocols, query counts and
    /// repetitions.
    ///
    /// # Panics
    /// Panics if the base configuration does not validate; sweep configs come
    /// from presets or the CLI parser, both of which produce consistent ones.
    pub fn plan(&self) -> ExperimentPlan {
        let scenario = Scenario::from_config("sweep", self.config.clone())
            .expect("sweep configuration must validate");
        ExperimentPlan::new()
            .scenario(scenario)
            .protocols(self.protocols.iter().copied())
            .query_counts(self.query_counts.iter().copied())
            .repetitions(self.repetitions)
    }

    /// Runs the whole grid and collects the three figures.
    ///
    /// Execution is delegated to the core [`Runner`]: the substrate of each
    /// repetition is built exactly once and shared across every protocol and
    /// query count, so all curves of one repetition are measured over the
    /// identical system.
    ///
    /// # Panics
    /// Panics if the sweep has no protocols, no query counts or zero
    /// repetitions (an empty grid is a programming error in the caller).
    pub fn run(&self) -> SweepOutcome {
        let outcome = Runner::new()
            .with_threads(self.threads)
            .run(&self.plan())
            .expect("sweep grid must list protocols, query counts and repetitions");
        SweepOutcome::from_points(outcome.points.iter().map(PointResult::from_point).collect())
    }
}

fn default_threads() -> usize {
    Runner::default_thread_count()
}

/// One (protocol, query count, repetition) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// The protocol evaluated.
    pub protocol: ProtocolKind,
    /// Number of queries issued.
    pub queries: usize,
    /// Repetition index.
    pub repetition: usize,
    /// Figure 2 metric.
    pub download_distance_ms: f64,
    /// Figure 3 metric.
    pub messages_per_query: f64,
    /// Figure 4 metric.
    pub success_rate: f64,
    /// Diagnostic: locality match rate.
    pub locality_match_rate: f64,
    /// Diagnostic: cache hit share.
    pub cache_hit_share: f64,
}

/// The aggregated outcome of a sweep: all three figures plus the raw points.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Raw per-point measurements (every repetition).
    pub points: Vec<PointResult>,
}

impl PointResult {
    /// Extracts the figure metrics from one experiment grid point.
    fn from_point(point: &ExperimentPoint) -> Self {
        PointResult {
            protocol: point.protocol,
            queries: point.queries,
            repetition: point.repetition,
            download_distance_ms: point.report.avg_download_distance_ms(),
            messages_per_query: point.report.avg_messages_per_query(),
            success_rate: point.report.success_rate(),
            locality_match_rate: point.report.locality_match_rate(),
            cache_hit_share: point.report.cache_hit_share(),
        }
    }
}

impl SweepOutcome {
    fn from_points(mut points: Vec<PointResult>) -> Self {
        points.sort_by_key(|p| (p.queries, p.protocol.label().to_string(), p.repetition));
        SweepOutcome { points }
    }

    /// Builds the figure for `metric`, averaging repetitions per point.
    pub fn figure(&self, metric: MetricKind) -> Figure {
        let mut grouped: BTreeMap<(String, u64), Vec<f64>> = BTreeMap::new();
        for p in &self.points {
            let value = match metric {
                MetricKind::DownloadDistance => p.download_distance_ms,
                MetricKind::SearchTraffic => p.messages_per_query,
                MetricKind::SuccessRate => p.success_rate,
            };
            grouped
                .entry((p.protocol.label().to_string(), p.queries as u64))
                .or_default()
                .push(value);
        }
        let mut figure = Figure::new(metric.title(), metric.label());
        for ((label, queries), values) in grouped {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            figure.push(label, SeriesPoint { queries, value: mean });
        }
        figure
    }

    /// All three figures.
    pub fn figures(&self) -> [Figure; 3] {
        [
            self.figure(MetricKind::DownloadDistance),
            self.figure(MetricKind::SearchTraffic),
            self.figure(MetricKind::SuccessRate),
        ]
    }

    /// A paper-style headline comparison: mean metric per protocol across the
    /// whole sweep, plus the headline ratios the paper quotes.
    pub fn headline_table(&self) -> Table {
        let mut table = Table::new([
            "protocol",
            "avg download distance (ms)",
            "messages / query",
            "success rate",
            "locality match",
            "cache hit share",
        ]);
        let mut by_protocol: BTreeMap<String, Vec<&PointResult>> = BTreeMap::new();
        for p in &self.points {
            by_protocol.entry(p.protocol.label().to_string()).or_default().push(p);
        }
        for (label, points) in by_protocol {
            let n = points.len() as f64;
            let dd = points.iter().map(|p| p.download_distance_ms).sum::<f64>() / n;
            let mq = points.iter().map(|p| p.messages_per_query).sum::<f64>() / n;
            let sr = points.iter().map(|p| p.success_rate).sum::<f64>() / n;
            let lm = points.iter().map(|p| p.locality_match_rate).sum::<f64>() / n;
            let ch = points.iter().map(|p| p.cache_hit_share).sum::<f64>() / n;
            table.push_row([
                label,
                format!("{dd:.2}"),
                format!("{mq:.2}"),
                format!("{sr:.4}"),
                format!("{lm:.4}"),
                format!("{ch:.4}"),
            ]);
        }
        table
    }

    /// The paper's headline claims, computed from this sweep:
    /// (download-distance reduction vs best baseline, traffic reduction vs
    /// flooding, success-rate gain vs Dicas, success-rate gain vs Dicas-Keys).
    pub fn paper_claims(&self) -> PaperClaims {
        let fig2 = self.figure(MetricKind::DownloadDistance);
        let fig3 = self.figure(MetricKind::SearchTraffic);
        let fig4 = self.figure(MetricKind::SuccessRate);

        // The paper compares Locaware's download distance against "the other
        // approaches" collectively; average the three baselines at each x
        // before computing the reduction so a single baseline's early-run
        // artefacts (e.g. Dicas' few, nearby-only successes) do not dominate.
        let baselines = ["flooding", "dicas", "dicas-keys"];
        let mut reductions = Vec::new();
        for x in fig2.x_values() {
            let baseline_values: Vec<f64> = baselines
                .iter()
                .filter_map(|b| fig2.value_at(b, x))
                .collect();
            if baseline_values.is_empty() {
                continue;
            }
            let baseline_mean = baseline_values.iter().sum::<f64>() / baseline_values.len() as f64;
            if let Some(locaware) = fig2.value_at("locaware", x) {
                if baseline_mean > 0.0 {
                    reductions.push((baseline_mean - locaware) / baseline_mean);
                }
            }
        }
        let distance_reduction = if reductions.is_empty() {
            f64::NAN
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        };
        let traffic_reduction = fig3.relative_reduction("locaware", "flooding").unwrap_or(f64::NAN);
        let success_gain_vs_dicas = relative_gain(&fig4, "locaware", "dicas");
        let success_gain_vs_dicas_keys = relative_gain(&fig4, "locaware", "dicas-keys");

        PaperClaims {
            distance_reduction_vs_baselines: distance_reduction,
            traffic_reduction_vs_flooding: traffic_reduction,
            success_gain_vs_dicas,
            success_gain_vs_dicas_keys,
        }
    }
}

/// Relative gain of curve `a` over curve `b` averaged over common x values:
/// `mean((a - b) / b)`. Positive means `a` is higher (better for success rate).
fn relative_gain(figure: &Figure, a: &str, b: &str) -> f64 {
    let mut gains = Vec::new();
    for x in figure.x_values() {
        if let (Some(va), Some(vb)) = (figure.value_at(a, x), figure.value_at(b, x)) {
            if vb != 0.0 {
                gains.push((va - vb) / vb);
            }
        }
    }
    if gains.is_empty() {
        f64::NAN
    } else {
        gains.iter().sum::<f64>() / gains.len() as f64
    }
}

/// The headline quantities §5.2 quotes, recomputed from a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperClaims {
    /// Paper: "decreased by about 14% compared to the other approaches"
    /// (computed against the mean of the three baselines).
    pub distance_reduction_vs_baselines: f64,
    /// Paper: "outperforms flooding by 98% in terms of search traffic reduction".
    pub traffic_reduction_vs_flooding: f64,
    /// Paper: "increases hit ratio by 23% wrt. Dicas".
    pub success_gain_vs_dicas: f64,
    /// Paper: "and 33% wrt. Dicas-keys".
    pub success_gain_vs_dicas_keys: f64,
}

impl PaperClaims {
    /// Renders the claims next to the paper's numbers.
    pub fn table(&self) -> Table {
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

/// Parses the common command-line options of the experiment binaries.
///
/// Supported flags: `--quick` (scaled-down run), `--scenario NAME` (a named
/// preset: `paper-defaults`, `small`, `flash-crowd`, `churn-storm`,
/// `regional-hotspot`), `--peers N`, `--queries a,b,c`, `--reps N`,
/// `--seed N`, `--threads N`, `--csv` (print CSV instead of a table).
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The sweep to run.
    pub sweep: Sweep,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

/// The usage line shared by the experiment binaries.
pub const CLI_USAGE: &str = "[--quick] [--scenario NAME] [--peers N] [--queries a,b,c] \
                             [--reps N] [--seed N] [--threads N] [--csv]";

impl CliOptions {
    /// Parses `std::env::args`-style arguments (excluding the program name).
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
        let mut quick = false;
        let mut csv = false;
        let mut scenario: Option<String> = None;
        let mut peers: Option<usize> = None;
        let mut queries: Option<Vec<usize>> = None;
        let mut reps: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut threads: Option<usize> = None;

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => quick = true,
                "--csv" => csv = true,
                "--scenario" => {
                    scenario = Some(next_value(&args, &mut i)?);
                }
                "--peers" => {
                    let value = next_value(&args, &mut i)?;
                    peers = Some(value.parse().map_err(|_| format!("bad --peers {value}"))?);
                }
                "--queries" => {
                    let value = next_value(&args, &mut i)?;
                    let counts: Result<Vec<usize>, _> =
                        value.split(',').map(|s| s.trim().parse::<usize>()).collect();
                    queries = Some(counts.map_err(|_| format!("bad --queries {value}"))?);
                }
                "--reps" => {
                    let value = next_value(&args, &mut i)?;
                    reps = Some(value.parse().map_err(|_| format!("bad --reps {value}"))?);
                }
                "--seed" => {
                    let value = next_value(&args, &mut i)?;
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
                }
                "--threads" => {
                    let value = next_value(&args, &mut i)?;
                    threads = Some(value.parse().map_err(|_| format!("bad --threads {value}"))?);
                }
                other => return Err(format!("unknown option {other}")),
            }
            i += 1;
        }

        let mut sweep = if quick { Sweep::quick() } else { Sweep::paper_scale() };
        if let Some(name) = scenario {
            let scale = peers.unwrap_or(sweep.config.peers);
            let preset = Scenario::preset(&name, scale).ok_or_else(|| {
                format!(
                    "unknown scenario {name}; presets: {}",
                    Scenario::PRESET_NAMES.join(", ")
                )
            })?;
            sweep.config = preset.config().clone();
        } else if let Some(peers) = peers {
            sweep.config = SimulationConfig {
                seed: sweep.config.seed,
                ..SimulationConfig::small(peers)
            };
        }
        if let Some(counts) = queries {
            sweep.query_counts = counts;
        }
        if let Some(reps) = reps {
            sweep.repetitions = reps;
        }
        if let Some(seed) = seed {
            sweep.config.seed = seed;
        }
        if let Some(threads) = threads {
            sweep.threads = threads;
        }
        if sweep.query_counts.is_empty() || sweep.repetitions == 0 {
            return Err("sweep must have at least one query count and one repetition".into());
        }
        Ok(CliOptions { sweep, csv })
    }
}

fn next_value(args: &[String], i: &mut usize) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
}

pub mod flags {
    //! The argument loop of the bench binaries whose flags all take exactly
    //! one value (`degradation`, `scale_frontier`, `shard_scaling`,
    //! `workload_regimes`).

    /// Pairs every flag in `args` with the value that follows it. A flag
    /// outside `known` and a trailing flag without a value are errors.
    pub fn pairs(
        args: impl IntoIterator<Item = String>,
        known: &[&str],
    ) -> Result<Vec<(String, String)>, String> {
        let mut args = args.into_iter();
        let mut pairs = Vec::new();
        while let Some(flag) = args.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag}"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag, value));
        }
        Ok(pairs)
    }

    /// Parses one non-negative integer value.
    pub fn number(s: &str) -> Result<usize, String> {
        s.trim().parse().map_err(|_| format!("not a number: {s}"))
    }

    /// Parses a comma-separated list of non-negative integers.
    pub fn list(s: &str) -> Result<Vec<usize>, String> {
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
            let parsed = pairs(args(&["--shards", "1,4", "--peers", "300"]), &known).unwrap();
            assert_eq!(parsed, vec![
                ("--shards".to_string(), "1,4".to_string()),
                ("--peers".to_string(), "300".to_string()),
            ]);
            assert_eq!(pairs(args(&[]), &known), Ok(Vec::new()));
            assert_eq!(
                pairs(args(&["--peers"]), &known),
                Err("--peers needs a value".to_string())
            );
            assert_eq!(
                pairs(args(&["--bogus", "1"]), &known),
                Err("unknown flag --bogus".to_string())
            );
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

/// Runs a sweep and prints one figure (used by the `fig2`/`fig3`/`fig4` binaries).
pub fn run_figure_binary(metric: MetricKind, args: impl IntoIterator<Item = String>) -> String {
    let options = match CliOptions::parse(args) {
        Ok(o) => o,
        Err(problem) => {
            return format!("error: {problem}\nusage: {CLI_USAGE}\n");
        }
    };
    let outcome = options.sweep.run();
    let figure = outcome.figure(metric);
    let mut out = String::new();
    if options.csv {
        out.push_str(&figure.to_csv());
    } else {
        out.push_str(&figure.to_table());
        out.push('\n');
        out.push_str(&outcome.paper_claims().table().render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Sweep {
        Sweep {
            config: SimulationConfig::small(60),
            protocols: ProtocolKind::PAPER_SET.to_vec(),
            query_counts: vec![30, 60],
            repetitions: 1,
            threads: 2,
        }
        .with_seed(11)
    }

    #[test]
    fn sweep_produces_every_grid_point() {
        let outcome = tiny_sweep().run();
        assert_eq!(outcome.points.len(), 4 * 2);
        let fig3 = outcome.figure(MetricKind::SearchTraffic);
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
        let outcome = tiny_sweep().run();
        let fig3 = outcome.figure(MetricKind::SearchTraffic);
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
        let options = CliOptions::parse([
            "--quick", "--queries", "10,20", "--reps", "2", "--seed", "99", "--threads", "3",
            "--csv",
        ])
        .unwrap();
        assert!(options.csv);
        assert_eq!(options.sweep.query_counts, vec![10, 20]);
        assert_eq!(options.sweep.repetitions, 2);
        assert_eq!(options.sweep.config.seed, 99);
        assert_eq!(options.sweep.threads, 3);

        assert!(CliOptions::parse(["--bogus"]).is_err());
        assert!(CliOptions::parse(["--queries"]).is_err());
        assert!(CliOptions::parse(["--queries", "abc"]).is_err());
    }

    #[test]
    fn cli_scenario_presets_apply_regardless_of_flag_order() {
        let options =
            CliOptions::parse(["--quick", "--peers", "80", "--scenario", "flash-crowd"]).unwrap();
        let expected = Scenario::flash_crowd(80);
        assert_eq!(&options.sweep.config, expected.config());

        // --seed still overrides the preset's own seed.
        let seeded =
            CliOptions::parse(["--quick", "--scenario", "churn-storm", "--seed", "7"]).unwrap();
        assert_eq!(seeded.sweep.config.seed, 7);
        assert!(!seeded.sweep.config.churn.is_disabled());

        let err = CliOptions::parse(["--scenario", "nope"]).unwrap_err();
        assert!(err.contains("presets"), "{err}");
    }

    #[test]
    fn sweeps_delegate_to_the_experiment_plan() {
        let sweep = tiny_sweep();
        let plan = sweep.plan();
        assert_eq!(plan.substrate_count(), 1);
        assert_eq!(plan.point_count(), 4 * 2);
        assert_eq!(plan.scenario_list()[0].seed(), 11);
    }

    #[test]
    fn headline_table_and_claims_render() {
        let outcome = tiny_sweep().run();
        let table = outcome.headline_table();
        assert_eq!(table.len(), 4);
        let claims = outcome.paper_claims();
        assert!(claims.traffic_reduction_vs_flooding > 0.5);
        let rendered = claims.table().render();
        assert!(rendered.contains("~98%"));
    }
}
