//! The determinism rules (D001–D004) plus annotation hygiene (D000).
//!
//! Every rule is a pure function over one file's [`SourceModel`]; scoping —
//! which crates a rule covers — lives in [`crate::FileScope`]. Findings carry the
//! rule id, 1-based line and a message; the driver sorts, filters against
//! `// lint:allow(<key>): <reason>` annotations and reports.
//!
//! | Rule | Key          | Contract it guards                                          |
//! |------|--------------|-------------------------------------------------------------|
//! | D001 | `hash-iter`  | no iteration over `HashMap`/`HashSet` in deterministic code |
//! | D002 | `wall-clock` | no `Instant::now` / `SystemTime` outside `crates/bench`     |
//! | D003 | `ambient-rng`| all randomness flows from seeded `StreamId` factories       |
//! | D004 | —            | `unwrap()`/`expect()` governed by `lint-ratchet.toml`       |

use std::collections::BTreeSet;

use crate::lexer::{SourceModel, Tok, TokKind};
use crate::{Finding, Rule};

/// Hash-collection methods whose results depend on hasher state.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

fn ident_at<'a>(tokens: &'a [Tok<'a>], i: usize) -> Option<&'a Tok<'a>> {
    tokens.get(i).filter(|t| t.kind == TokKind::Ident)
}

fn is_hash_type(name: &str) -> bool {
    name == "HashMap" || name == "HashSet"
}

/// Collects every identifier the file binds to a `HashMap`/`HashSet`:
/// `name: HashMap<..>` (fields, params, lets) and
/// `name = HashMap::new()/with_capacity(..)` / `.. .collect::<HashMap<..>>()`.
fn hash_bound_names(tokens: &[Tok<'_>]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let n = tokens.len();
    for i in 0..n {
        // Pattern `name : <type>` — skip `::` paths and struct literals.
        if tokens[i].is_punct(':')
            && i >= 1
            && tokens[i - 1].kind == TokKind::Ident
            && (i < 2 || !tokens[i - 2].is_punct(':'))
            && tokens.get(i + 1).is_none_or(|t| !t.is_punct(':'))
        {
            // Walk the type head: references, `mut`, `dyn`, path segments.
            let mut j = i + 1;
            loop {
                match tokens.get(j) {
                    Some(t) if t.is_punct('&') => j += 1,
                    Some(t) if t.is_ident("mut") || t.is_ident("dyn") => j += 1,
                    Some(t)
                        if t.kind == TokKind::Ident
                            && tokens.get(j + 1).is_some_and(|a| a.is_punct(':'))
                            && tokens.get(j + 2).is_some_and(|a| a.is_punct(':')) =>
                    {
                        j += 3
                    }
                    _ => break,
                }
            }
            if ident_at(tokens, j).is_some_and(|t| is_hash_type(t.text)) {
                names.insert(tokens[i - 1].text.to_string());
            }
        }
        // Pattern `name = HashMap::..(..)` or `name = <expr>.collect::<HashMap..>()`.
        if tokens[i].is_punct('=')
            && i >= 1
            && tokens[i - 1].kind == TokKind::Ident
            // Not `==` (comparison) and not `=>` (match arm).
            && tokens.get(i + 1).is_none_or(|t| !t.is_punct('=') && !t.is_punct('>'))
        {
            let mut j = i + 1;
            // Skip a leading path to the first "interesting" ident.
            while let Some(t) = tokens.get(j) {
                if t.kind == TokKind::Ident
                    && tokens.get(j + 1).is_some_and(|a| a.is_punct(':'))
                    && tokens.get(j + 2).is_some_and(|a| a.is_punct(':'))
                    && !is_hash_type(t.text)
                {
                    j += 3;
                } else {
                    break;
                }
            }
            if ident_at(tokens, j).is_some_and(|t| is_hash_type(t.text)) {
                names.insert(tokens[i - 1].text.to_string());
            } else {
                // Scan the initializer (to `;`) for `collect::<HashMap..>`.
                let mut k = i + 1;
                while let Some(t) = tokens.get(k) {
                    if t.is_punct(';') {
                        break;
                    }
                    if t.is_ident("collect")
                        && tokens.get(k + 1).is_some_and(|a| a.is_punct(':'))
                        && tokens.get(k + 2).is_some_and(|a| a.is_punct(':'))
                        && tokens.get(k + 3).is_some_and(|a| a.is_punct('<'))
                        && ident_at(tokens, k + 4).is_some_and(|a| is_hash_type(a.text))
                    {
                        names.insert(tokens[i - 1].text.to_string());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names
}

/// D001: iteration over hash collections leaks hasher order into results.
pub fn d001_hash_iter(file: &str, model: &SourceModel<'_>) -> Vec<Finding> {
    let tokens = &model.tokens;
    let tracked = hash_bound_names(tokens);
    let mut findings = Vec::new();
    let n = tokens.len();
    for i in 0..n {
        if tokens[i].in_test {
            continue;
        }
        // `recv.iter()` and friends, where `recv` is hash-bound.
        if tokens[i].is_punct('.')
            && ident_at(tokens, i + 1).is_some_and(|t| ITER_METHODS.contains(&t.text))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(recv) = ident_at(tokens, i.wrapping_sub(1)) {
                if tracked.contains(recv.text) {
                    let method = tokens[i + 1].text;
                    findings.push(Finding::new(
                        Rule::D001,
                        file,
                        tokens[i + 1].line,
                        format!(
                            "`{recv}.{method}()` iterates a hash collection in arbitrary \
                             order; use a sorted/dense structure or justify with \
                             `// lint:allow(hash-iter): <why order cannot escape>`",
                            recv = recv.text,
                        ),
                    ));
                }
            }
        }
        // `sink.extend(map)` / `Vec::from_iter(map)` move the map through its
        // arbitrary-order iterator.
        if (tokens[i].is_ident("extend") || tokens[i].is_ident("from_iter"))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let mut j = i + 2;
            while tokens.get(j).is_some_and(|t| t.is_punct('&') || t.is_ident("mut")) {
                j += 1;
            }
            if ident_at(tokens, j).is_some_and(|t| tracked.contains(t.text))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(')'))
            {
                findings.push(Finding::new(
                    Rule::D001,
                    file,
                    tokens[i].line,
                    format!(
                        "`{}({})` consumes a hash collection through its arbitrary-order \
                         iterator; collect and sort first or justify with \
                         `// lint:allow(hash-iter): <why>`",
                        tokens[i].text, tokens[j].text,
                    ),
                ));
            }
        }
        // `for pat in <expr> {` where <expr> is (a reference to) a hash-bound
        // name. Method-call expressions are left to the receiver rule above.
        if tokens[i].is_ident("for") && tokens.get(i + 1).is_some_and(|t| !t.is_punct('<')) {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_idx = None;
            while let Some(t) = tokens.get(j) {
                match t.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('{') if depth == 0 => break,
                    TokKind::Punct(';') => break,
                    TokKind::Ident if depth == 0 && t.text == "in" => {
                        in_idx = Some(j);
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(start) = in_idx {
                let expr = &tokens[start + 1..j.min(n)];
                let has_call = expr.iter().any(|t| t.is_punct('('));
                let last_ident = expr.iter().rev().find(|t| t.kind == TokKind::Ident);
                if !has_call {
                    if let Some(name) = last_ident {
                        if tracked.contains(name.text) {
                            findings.push(Finding::new(
                                Rule::D001,
                                file,
                                tokens[i].line,
                                format!(
                                    "for-loop over hash collection `{}` visits elements in \
                                     arbitrary order; sort first or justify with \
                                     `// lint:allow(hash-iter): <why>`",
                                    name.text,
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    findings
}

/// D002: wall-clock reads make runs time-dependent.
pub fn d002_wall_clock(file: &str, model: &SourceModel<'_>) -> Vec<Finding> {
    let tokens = &model.tokens;
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("Instant")
            && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            findings.push(Finding::new(
                Rule::D002,
                file,
                t.line,
                "`Instant::now()` reads the wall clock; simulated time must come from \
                 the event engine (`SimTime`) — timing belongs in crates/bench"
                    .to_string(),
            ));
        }
        if t.is_ident("SystemTime") {
            findings.push(Finding::new(
                Rule::D002,
                file,
                t.line,
                "`SystemTime` reads the wall clock; simulated time must come from the \
                 event engine (`SimTime`) — timing belongs in crates/bench"
                    .to_string(),
            ));
        }
    }
    findings
}

/// D003: ambient RNG bypasses the seeded `StreamId` factory discipline.
pub fn d003_ambient_rng(file: &str, model: &SourceModel<'_>) -> Vec<Finding> {
    let tokens = &model.tokens;
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        // Deliberately NOT test-exempt: a nondeterministic test is a broken
        // regression net for a determinism contract.
        let flagged = if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("from_os_rng") {
            Some(t.text)
        } else if t.is_ident("random")
            && i >= 2
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && ident_at(tokens, i.wrapping_sub(3)).is_some_and(|a| a.text == "rand")
        {
            Some("rand::random")
        } else {
            None
        };
        if let Some(name) = flagged {
            findings.push(Finding::new(
                Rule::D003,
                file,
                t.line,
                format!(
                    "`{name}` draws from ambient OS entropy; every stream must derive \
                     from the master seed via a `StreamId` factory (`RngFactory`)",
                ),
            ));
        }
    }
    findings
}

/// The number of `.unwrap()` / `.expect(` call sites in non-test code, with
/// the line of each site (for D004's over-ratchet report).
pub fn d004_unwrap_sites(model: &SourceModel<'_>) -> Vec<usize> {
    let tokens = &model.tokens;
    let mut lines = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        if tokens[i].is_punct('.')
            && ident_at(tokens, i + 1)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            lines.push(tokens[i + 1].line);
        }
    }
    lines
}
