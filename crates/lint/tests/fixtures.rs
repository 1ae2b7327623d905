//! Fixture self-tests for the determinism lint.
//!
//! Every rule is demonstrated twice: a known-bad snippet asserted to fire at
//! the exact line, and a known-clean sibling (annotated, test-scoped, or
//! simply not matching) asserted to stay silent. The snippets are analyzed
//! under fabricated in-scope paths — nothing here touches the real tree, so
//! these tests pin the *rules*, not the workspace's current state.

use std::collections::BTreeMap;

use locaware_lint::ratchet::Ratchet;
use locaware_lint::{analyze_source, check_ratchet, FileScope, Finding, Rule};

/// A path inside a deterministic crate: every rule applies.
const CORE: &str = "crates/core/src/fixture.rs";
/// A bench path: wall-clock is its job, ambient RNG still is not.
const BENCH: &str = "crates/bench/src/bin/fixture.rs";

fn findings(path: &str, source: &str) -> Vec<Finding> {
    analyze_source(path, source).0
}

#[track_caller]
fn assert_fires(path: &str, source: &str, rule: Rule, line: usize) {
    let found = findings(path, source);
    assert!(
        found.iter().any(|f| f.rule == rule && f.line == line),
        "expected {rule} at line {line}, got: {found:#?}"
    );
}

#[track_caller]
fn assert_silent(path: &str, source: &str) {
    let found = findings(path, source);
    assert!(found.is_empty(), "expected no findings, got: {found:#?}");
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_fires_on_tracked_receiver_iteration() {
    let source = "\
use std::collections::HashMap;

fn total(counts: &HashMap<u32, u64>) -> u64 {
    let mut sum = 0;
    for (_key, value) in counts.iter() {
        sum += value;
    }
    sum
}
";
    assert_fires(CORE, source, Rule::D001, 5);
}

#[test]
fn d001_fires_on_bare_for_loop_over_hash_set() {
    let source = "\
use std::collections::HashSet;

fn collect(set: HashSet<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for id in set {
        out.push(id);
    }
    out
}
";
    assert_fires(CORE, source, Rule::D001, 5);
}

#[test]
fn d001_fires_on_extend_from_hash_map() {
    let source = "\
use std::collections::HashMap;

fn drain_into(sink: &mut Vec<(u32, u64)>, map: HashMap<u32, u64>) {
    sink.extend(map);
}
";
    assert_fires(CORE, source, Rule::D001, 4);
}

#[test]
fn d001_fires_on_collect_bound_names() {
    let source = "\
use std::collections::HashMap;

fn round_trip(pairs: Vec<(u32, u64)>) -> Vec<u32> {
    let index = pairs.into_iter().collect::<HashMap<u32, u64>>();
    index.keys().copied().collect()
}
";
    assert_fires(CORE, source, Rule::D001, 5);
}

#[test]
fn d001_silent_on_vec_iteration() {
    let source = "\
fn total(counts: &[u64]) -> u64 {
    let mut sum = 0;
    for value in counts.iter() {
        sum += value;
    }
    sum
}
";
    assert_silent(CORE, source);
}

#[test]
fn d001_silent_in_test_module() {
    let source = "\
use std::collections::HashMap;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_free_assertion() {
        let counts: HashMap<u32, u64> = HashMap::new();
        assert_eq!(counts.iter().count(), 0);
    }
}
";
    assert_silent(CORE, source);
}

#[test]
fn d001_silent_when_annotated_with_reason() {
    let source = "\
use std::collections::HashMap;

fn smallest(counts: &HashMap<u32, u64>) -> Option<u32> {
    // lint:allow(hash-iter): min over the total (value, key) order — every visit order agrees
    counts.iter().map(|(&k, &v)| (v, k)).min().map(|(_, k)| k)
}
";
    // The allow both silences D001 and counts as used (no D000 here either).
    assert_silent(CORE, source);
}

#[test]
fn d001_out_of_scope_in_compat_and_lint() {
    let source = "\
use std::collections::HashMap;

fn leak(map: HashMap<u32, u64>) -> Vec<u32> {
    map.keys().copied().collect()
}
";
    assert_silent("crates/compat/rand/src/lib.rs", source);
    assert_silent("crates/lint/src/rules.rs", source);
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_fires_on_instant_now() {
    let source = "\
use std::time::Instant;

fn stamp() -> Instant {
    Instant::now()
}
";
    assert_fires(CORE, source, Rule::D002, 4);
}

#[test]
fn d002_fires_on_system_time() {
    let source = "\
use std::time::SystemTime;
";
    assert_fires(CORE, source, Rule::D002, 1);
}

#[test]
fn d002_silent_in_bench() {
    let source = "\
use std::time::Instant;

fn stamp() -> Instant {
    Instant::now()
}
";
    assert_silent(BENCH, source);
}

#[test]
fn d002_silent_on_instant_in_string_or_comment() {
    let source = "\
// Instant::now() would break determinism — hence SimTime.
fn label() -> &'static str {
    \"Instant::now\"
}
";
    assert_silent(CORE, source);
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_fires_on_thread_rng() {
    let source = "\
fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}
";
    assert_fires(CORE, source, Rule::D003, 2);
}

#[test]
fn d003_fires_on_rand_random_path() {
    let source = "\
fn roll() -> u64 {
    rand::random()
}
";
    assert_fires(CORE, source, Rule::D003, 2);
}

#[test]
fn d003_fires_even_in_tests_and_bench() {
    // A nondeterministic test is a broken regression net for a determinism
    // contract, and bench inputs must replay identically across runs — D003
    // deliberately has no test or bench exemption.
    let source = "\
#[cfg(test)]
mod tests {
    #[test]
    fn flaky() {
        let seed = rand::rngs::StdRng::from_entropy();
        let _ = seed;
    }
}
";
    assert_fires(CORE, source, Rule::D003, 5);
    assert_fires(BENCH, source, Rule::D003, 5);
}

#[test]
fn d003_silent_on_seeded_streams() {
    let source = "\
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stream(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
";
    assert_silent(CORE, source);
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_counts_non_test_unwrap_sites_with_lines() {
    let source = "\
fn first(values: &[u32]) -> u32 {
    *values.first().unwrap()
}

fn second(values: &[u32]) -> u32 {
    *values.get(1).expect(\"two elements\")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_unwraps_are_free() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
";
    let (found, sites) = analyze_source(CORE, source);
    assert!(found.is_empty(), "unwraps alone never fire directly: {found:#?}");
    assert_eq!(sites, Some(vec![2, 6]), "exact non-test unwrap/expect lines");
}

#[test]
fn d004_ratchet_flags_over_under_and_vanished() {
    let ratchet = Ratchet::parse(
        "[unwrap]\n\
         \"crates/core/src/a.rs\" = 1\n\
         \"crates/core/src/gone.rs\" = 2\n",
    )
    .expect("fixture ratchet parses");

    let mut counts = BTreeMap::new();
    let mut sites = BTreeMap::new();
    // a.rs grew past its baseline of 1; b.rs is new and must start at zero.
    counts.insert("crates/core/src/a.rs".to_string(), 2);
    sites.insert("crates/core/src/a.rs".to_string(), vec![10, 20]);
    counts.insert("crates/core/src/b.rs".to_string(), 1);
    sites.insert("crates/core/src/b.rs".to_string(), vec![5]);

    let found = check_ratchet(&counts, &sites, &ratchet);
    // Over-baseline reports at the first site past the baseline (the newest).
    assert!(found.iter().any(|f| f.file == "crates/core/src/a.rs"
        && f.rule == Rule::D004
        && f.line == 20));
    assert!(found.iter().any(|f| f.file == "crates/core/src/b.rs"
        && f.rule == Rule::D004
        && f.line == 5));
    // The entry for the deleted file is stale.
    assert!(found.iter().any(|f| f.file == "crates/core/src/gone.rs"
        && f.rule == Rule::D004));
    assert_eq!(found.len(), 3);
}

#[test]
fn d004_ratchet_rejects_banked_but_unclaimed_burn_down() {
    let ratchet = Ratchet::parse("[unwrap]\n\"crates/core/src/a.rs\" = 3\n")
        .expect("fixture ratchet parses");
    let mut counts = BTreeMap::new();
    let mut sites = BTreeMap::new();
    counts.insert("crates/core/src/a.rs".to_string(), 1);
    sites.insert("crates/core/src/a.rs".to_string(), vec![10]);
    let found = check_ratchet(&counts, &sites, &ratchet);
    // Counts may only go down *through* --update-ratchet, so a too-high
    // baseline is itself a finding: the burn-down must be banked.
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D004);
    assert!(found[0].message.contains("stale ratchet"), "{}", found[0].message);
}

#[test]
fn d004_ratchet_matches_clean_tree() {
    let ratchet = Ratchet::parse("[unwrap]\n\"crates/core/src/a.rs\" = 1\n")
        .expect("fixture ratchet parses");
    let mut counts = BTreeMap::new();
    let mut sites = BTreeMap::new();
    counts.insert("crates/core/src/a.rs".to_string(), 1);
    sites.insert("crates/core/src/a.rs".to_string(), vec![10]);
    counts.insert("crates/core/src/zero.rs".to_string(), 0);
    sites.insert("crates/core/src/zero.rs".to_string(), vec![]);
    assert!(check_ratchet(&counts, &sites, &ratchet).is_empty());
}

#[test]
fn d004_ratchet_round_trips_through_render() {
    let mut counts = BTreeMap::new();
    counts.insert("crates/core/src/a.rs".to_string(), 2);
    counts.insert("crates/core/src/zero.rs".to_string(), 0);
    let rendered = Ratchet::render(&counts);
    let parsed = Ratchet::parse(&rendered).expect("rendered ratchet parses");
    // Zero-count files are held at zero implicitly, not listed.
    assert_eq!(parsed.unwrap.len(), 1);
    assert_eq!(parsed.unwrap.get("crates/core/src/a.rs"), Some(&2));
}

// ---------------------------------------------------------------- D000

#[test]
fn d000_fires_on_reasonless_allow() {
    let source = "\
use std::collections::HashMap;

fn leak(map: &HashMap<u32, u64>) -> usize {
    // lint:allow(hash-iter)
    map.keys().count()
}
";
    // The reason-less allow is a finding AND does not silence the rule.
    assert_fires(CORE, source, Rule::D000, 4);
    assert_fires(CORE, source, Rule::D001, 5);
}

#[test]
fn d000_fires_on_unknown_key() {
    let source = "\
fn nothing() {
    // lint:allow(hash-itre): typo in the key
}
";
    assert_fires(CORE, source, Rule::D000, 2);
}

#[test]
fn d000_fires_on_malformed_allow() {
    let source = "\
fn nothing() {
    // lint:allow hash-iter: forgot the parentheses
}
";
    assert_fires(CORE, source, Rule::D000, 2);
}

#[test]
fn d000_fires_on_unused_allow() {
    let source = "\
fn nothing() {
    // lint:allow(hash-iter): nothing iterates here any more
    let x = 1;
    let _ = x;
}
";
    assert_fires(CORE, source, Rule::D000, 2);
}

// ---------------------------------------------------------------- scope

#[test]
fn scope_table_matches_the_documented_coverage() {
    let core = FileScope::of("crates/core/src/engine/mod.rs");
    assert!(core.deterministic && core.wall_clock && core.ambient_rng);

    let core_tests = FileScope::of("tests/determinism.rs");
    assert!(!core_tests.deterministic && core_tests.wall_clock && core_tests.ambient_rng);

    let bench = FileScope::of("crates/bench/src/scale.rs");
    assert!(!bench.deterministic && !bench.wall_clock && bench.ambient_rng);

    let compat = FileScope::of("crates/compat/proptest/src/lib.rs");
    assert!(!compat.deterministic && !compat.wall_clock && !compat.ambient_rng);

    let lint = FileScope::of("crates/lint/src/main.rs");
    assert!(!lint.deterministic && !lint.wall_clock && !lint.ambient_rng);
}
