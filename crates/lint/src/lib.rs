//! `locaware-lint`: the workspace determinism lint.
//!
//! Every result this reproduction reports rests on one contract: same seed ⇒
//! byte-identical [`SimulationReport`], across shard counts. The golden fingerprints and the shard matrix enforce that contract
//! *after the fact*; this crate enforces it at the **source level**, failing
//! CI at the line that breaks a determinism rule instead of at the
//! fingerprint that notices the drift a layer later.
//!
//! The pass is a deliberately lightweight lexer, not a compiler plugin: it
//! distinguishes code from strings/comments, brace-matches `#[cfg(test)]` /
//! `mod tests` scopes, and resolves receiver/method patterns — enough to
//! machine-check the rules the codebase already follows by convention, with
//! zero dependencies so it builds and runs in seconds before anything else.
//!
//! Rules (see [`rules`] for the table): D001 `hash-iter`, D002 `wall-clock`,
//! D003 `ambient-rng`, D004 unwrap ratchet, plus D000
//! annotation hygiene. The one escape hatch is a justified annotation:
//!
//! ```text
//! // lint:allow(hash-iter): results are sorted before any order-dependent use
//! ```
//!
//! on the finding's line or the line above. An annotation without a reason is
//! itself a finding, and an annotation nothing fires on is reported as
//! unused, so stale allows cannot accumulate.
//!
//! [`SimulationReport`]: https://docs.rs/locaware

pub mod lexer;
pub mod ratchet;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{Cleaned, SourceModel};
use ratchet::Ratchet;

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Annotation hygiene: malformed, reason-less, unknown-key or unused
    /// `lint:allow`.
    D000,
    /// Iteration over `HashMap`/`HashSet` in deterministic crates.
    D001,
    /// Wall-clock reads outside `crates/bench`.
    D002,
    /// Ambient (OS-entropy) randomness anywhere.
    D003,
    /// Per-file unwrap/expect ratchet.
    D004,
}

impl Rule {
    /// The `lint:allow(<key>)` key for annotatable rules.
    pub fn allow_key(self) -> Option<&'static str> {
        match self {
            Rule::D001 => Some("hash-iter"),
            Rule::D002 => Some("wall-clock"),
            Rule::D003 => Some("ambient-rng"),
            Rule::D000 | Rule::D004 => None,
        }
    }

    /// Every valid annotation key.
    pub const ALLOW_KEYS: [&'static str; 3] = ["hash-iter", "wall-clock", "ambient-rng"];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Rule::D000 => "D000",
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
        };
        f.write_str(name)
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation with the remedy.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: Rule, file: &str, line: usize, message: String) -> Finding {
        Finding { file: file.to_string(), line, rule, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// The crates whose library sources carry the bit-identical contract.
const DETERMINISTIC_CRATES: [&str; 7] =
    ["sim", "net", "overlay", "bloom", "workload", "core", "metrics"];

/// Which rules apply to a repo-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// D001 + the D004 count: deterministic library source.
    pub deterministic: bool,
    /// D002: everything first-party except `crates/bench` (timing is its job).
    pub wall_clock: bool,
    /// D003: all first-party code, bench included.
    pub ambient_rng: bool,
}

impl FileScope {
    /// Classifies a repo-relative path (forward slashes).
    ///
    /// `crates/compat/` (vendored stand-ins for external crates) and
    /// `crates/lint/` (this tool) are outside every rule; `target/` never
    /// reaches this function.
    pub fn of(path: &str) -> FileScope {
        if path.starts_with("crates/compat/") || path.starts_with("crates/lint/") {
            return FileScope::default();
        }
        let first_party = path.starts_with("crates/")
            || path.starts_with("src/")
            || path.starts_with("tests/")
            || path.starts_with("examples/");
        if !first_party {
            return FileScope::default();
        }
        let deterministic = DETERMINISTIC_CRATES
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/")));
        let is_bench = path.starts_with("crates/bench/");
        FileScope {
            deterministic,
            wall_clock: !is_bench,
            ambient_rng: true,
        }
    }
}

/// Lints one file's source text under its path-derived scope. Returns the
/// findings (annotation-filtered, annotation hygiene included) and the
/// 1-based lines of the file's non-test unwrap/expect sites when the ratchet
/// covers it.
pub fn analyze_source(path: &str, source: &str) -> (Vec<Finding>, Option<Vec<usize>>) {
    let scope = FileScope::of(path);
    if !scope.deterministic && !scope.wall_clock && !scope.ambient_rng {
        // Out-of-scope file (vendored compat shims, this tool): no rules, and
        // no annotation policing either — its comments are not our business.
        return (Vec::new(), None);
    }
    let cleaned = Cleaned::of(source);
    let model = SourceModel::new(&cleaned);

    let mut raw: Vec<Finding> = Vec::new();
    if scope.deterministic {
        raw.extend(rules::d001_hash_iter(path, &model));
    }
    if scope.wall_clock {
        raw.extend(rules::d002_wall_clock(path, &model));
    }
    if scope.ambient_rng {
        raw.extend(rules::d003_ambient_rng(path, &model));
    }

    let mut findings: Vec<Finding> = Vec::new();
    // Annotation hygiene first: malformed comments and bad keys.
    for (line, message) in &model.bad_allows {
        findings.push(Finding::new(Rule::D000, path, *line, message.clone()));
    }
    for allow in &model.allows {
        if !Rule::ALLOW_KEYS.contains(&allow.key.as_str()) {
            findings.push(Finding::new(
                Rule::D000,
                path,
                allow.line,
                format!(
                    "unknown lint:allow key `{}` (valid: {})",
                    allow.key,
                    Rule::ALLOW_KEYS.join(", "),
                ),
            ));
        } else if allow.reason.is_empty() {
            findings.push(Finding::new(
                Rule::D000,
                path,
                allow.line,
                format!(
                    "lint:allow({}) carries no reason — every allow must argue why \
                     the site is order-insensitive / deterministic",
                    allow.key,
                ),
            ));
        }
    }

    // Filter rule findings through same-line / line-above allows, tracking use.
    let mut used = vec![false; model.allows.len()];
    for finding in raw {
        let Some(key) = finding.rule.allow_key() else {
            findings.push(finding);
            continue;
        };
        let mut allowed = false;
        for (ai, allow) in model.allows.iter().enumerate() {
            if allow.key == key
                && !allow.reason.is_empty()
                && (allow.line == finding.line || allow.line + 1 == finding.line)
            {
                used[ai] = true;
                allowed = true;
            }
        }
        if !allowed {
            findings.push(finding);
        }
    }
    for (ai, allow) in model.allows.iter().enumerate() {
        if !used[ai] && Rule::ALLOW_KEYS.contains(&allow.key.as_str()) && !allow.reason.is_empty()
        {
            findings.push(Finding::new(
                Rule::D000,
                path,
                allow.line,
                format!(
                    "unused lint:allow({}) — nothing fires here any more; delete the \
                     annotation so allows stay meaningful",
                    allow.key,
                ),
            ));
        }
    }

    let unwrap_sites = if scope.deterministic {
        Some(rules::d004_unwrap_sites(&model))
    } else {
        None
    };
    (findings, unwrap_sites)
}

/// Compares measured per-file unwrap counts against the committed ratchet.
pub fn check_ratchet(
    counts: &BTreeMap<String, usize>,
    sites: &BTreeMap<String, Vec<usize>>,
    ratchet: &Ratchet,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, &count) in counts {
        let baseline = ratchet.unwrap.get(path).copied().unwrap_or(0);
        if count > baseline {
            // Report at the first site past the baseline: with a monotone
            // ratchet that is the newest addition.
            let line = sites
                .get(path)
                .and_then(|lines| lines.get(baseline).or(lines.last()))
                .copied()
                .unwrap_or(1);
            findings.push(Finding::new(
                Rule::D004,
                path,
                line,
                format!(
                    "{count} unwrap()/expect() sites exceed the committed ratchet of \
                     {baseline} — return a typed error (e.g. ConfigError) or document \
                     the invariant and run `--update-ratchet` only with the burn-down \
                     reviewed",
                ),
            ));
        } else if count < baseline {
            findings.push(stale_ratchet_finding(path, count, baseline));
        }
    }
    for path in ratchet.unwrap.keys() {
        if !counts.contains_key(path) {
            findings.push(Finding::new(
                Rule::D004,
                path,
                1,
                "ratchet entry for a file that no longer exists — run `--update-ratchet`"
                    .to_string(),
            ));
        }
    }
    findings
}

fn stale_ratchet_finding(path: &str, count: usize, baseline: usize) -> Finding {
    Finding::new(
        Rule::D004,
        path,
        1,
        format!(
            "stale ratchet: file now has {count} unwrap()/expect() sites but the \
             committed baseline is {baseline} — counts may only go down; run \
             `cargo run -p locaware-lint -- --update-ratchet` to bank the burn-down",
        ),
    )
}

/// Recursively collects the workspace's first-party `.rs` files.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "proptest-regressions" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the whole pass over a workspace root. Returns all findings sorted by
/// (file, line, rule) and the measured per-file unwrap counts (for
/// `--update-ratchet`).
pub fn run_workspace(
    root: &Path,
) -> std::io::Result<(Vec<Finding>, BTreeMap<String, usize>)> {
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut sites: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (rel, path) in workspace_files(root)? {
        let source = std::fs::read_to_string(&path)?;
        let (file_findings, unwrap_sites) = analyze_source(&rel, &source);
        findings.extend(file_findings);
        if let Some(lines) = unwrap_sites {
            counts.insert(rel.clone(), lines.len());
            sites.insert(rel, lines);
        }
    }
    let ratchet_path = root.join("lint-ratchet.toml");
    match std::fs::read_to_string(&ratchet_path) {
        Ok(text) => match Ratchet::parse(&text) {
            Ok(ratchet) => findings.extend(check_ratchet(&counts, &sites, &ratchet)),
            Err(e) => findings.push(Finding::new(
                Rule::D004,
                "lint-ratchet.toml",
                e.line,
                e.message,
            )),
        },
        Err(_) => findings.push(Finding::new(
            Rule::D004,
            "lint-ratchet.toml",
            1,
            "missing lint-ratchet.toml — the unwrap ratchet is part of the \
             determinism contract; run `cargo run -p locaware-lint -- --update-ratchet`"
                .to_string(),
        )),
    }
    findings.sort();
    findings.dedup();
    Ok((findings, counts))
}
