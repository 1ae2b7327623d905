//! A lightweight Rust lexer — just enough syntax awareness for the
//! determinism rules.
//!
//! The lexer does three jobs the rules depend on:
//!
//! 1. **Cleaning**: string/char literals and comments are blanked out (line
//!    structure preserved) so a `"thread_rng"` inside a log message or a
//!    `HashMap` in a doc comment can never fire a rule.
//! 2. **Tokenizing**: the cleaned text becomes a flat stream of identifier /
//!    punctuation / number tokens with 1-based line numbers, which is what
//!    the receiver-pattern matching in [`crate::rules`] walks.
//! 3. **Scope tracking**: `#[cfg(test)]` items, `mod tests { .. }` blocks and
//!    `#[test]` functions are brace-matched so every token knows whether it
//!    is test code (test code is exempt from most rules).
//!
//! Line comments are additionally scanned for `// lint:allow(<rule>): <why>`
//! annotations, the one escape hatch the rules honour.

use std::collections::BTreeMap;

/// Token kinds the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// The digits-and-letters run of a numeric literal (`1.5` is two of
    /// them around a `.`).
    Number,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// Kind of token.
    pub kind: TokKind,
    /// The token text (empty for punctuation; use the kind).
    pub text: &'a str,
    /// 1-based source line.
    pub line: usize,
    /// True when the token sits inside test-only code.
    pub in_test: bool,
}

impl Tok<'_> {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True for this punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A parsed `// lint:allow(<key>): <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule key inside the parentheses (e.g. `hash-iter`).
    pub key: String,
    /// The justification after the colon (may be empty — rules reject that).
    pub reason: String,
    /// 1-based line the annotation sits on.
    pub line: usize,
}

/// The cleaning stage's output: blanked source text plus captured line
/// comments. Owns the storage every [`SourceModel`] token borrows from.
#[derive(Debug)]
pub struct Cleaned {
    text: String,
    comments: BTreeMap<usize, Vec<String>>,
}

impl Cleaned {
    /// Blanks literals/comments out of `source`, capturing line comments.
    pub fn of(source: &str) -> Cleaned {
        let (text, comments) = clean(source);
        Cleaned { text, comments }
    }

    /// The cleaned text (test hook).
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// The lexed form of one source file; borrows the [`Cleaned`] buffer.
#[derive(Debug)]
pub struct SourceModel<'a> {
    /// Token stream over the cleaned source.
    pub tokens: Vec<Tok<'a>>,
    /// `lint:allow` annotations by line.
    pub allows: Vec<Allow>,
    /// Malformed annotation diagnostics: (line, message).
    pub bad_allows: Vec<(usize, String)>,
}

/// Blanks comments and literals, capturing line comments for annotation
/// parsing. Returns (cleaned text, line-comment map).
fn clean(source: &str) -> (String, BTreeMap<usize, Vec<String>>) {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut out = String::with_capacity(source.len());
    let mut comments: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut comment_buf = String::new();
    let mut line = 1usize;
    let mut state = State::Normal;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut prev_ident_char = false;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                comments.entry(line).or_default().push(comment_buf.clone());
                comment_buf.clear();
                state = State::Normal;
            }
            out.push('\n');
            line += 1;
            i += 1;
            if state == State::Normal {
                prev_ident_char = false;
            }
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    out.push(' ');
                    i += 1;
                    continue;
                }
                // Raw strings r"..." / r#"..."# / br"..." — only when the
                // leading r/b is not the tail of a longer identifier.
                if (c == 'r' || c == 'b') && !prev_ident_char {
                    let mut j = i;
                    if c == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    if chars[j] == 'r' || c == 'b' {
                        let mut k = j + 1;
                        let mut hashes = 0u32;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') && (chars[j] == 'r' || hashes == 0) {
                            // b"..." (k==j+1, hashes==0) or r/br raw string.
                            if chars[j] == 'r' {
                                state = State::RawStr(hashes);
                            } else {
                                state = State::Str;
                            }
                            for _ in i..=k {
                                out.push(' ');
                            }
                            i = k + 1;
                            prev_ident_char = false;
                            continue;
                        }
                    }
                }
                if c == '\'' {
                    // Lifetime ('a) vs char literal ('x', '\n').
                    let next = chars.get(i + 1).copied();
                    let after = chars.get(i + 2).copied();
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && after != Some('\'');
                    if is_lifetime {
                        // Blank the quote and the lifetime name.
                        out.push(' ');
                        i += 1;
                        while i < chars.len()
                            && (chars[i].is_alphanumeric() || chars[i] == '_')
                        {
                            out.push(' ');
                            i += 1;
                        }
                        prev_ident_char = false;
                        continue;
                    }
                    state = State::Char;
                    out.push(' ');
                    i += 1;
                    continue;
                }
                prev_ident_char = c.is_alphanumeric() || c == '_';
                out.push(c);
                i += 1;
            }
            State::LineComment => {
                comment_buf.push(c);
                out.push(' ');
                i += 1;
            }
            State::Block(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::Block(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    out.push(' ');
                    if i + 1 < chars.len() && chars[i + 1] != '\n' {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    state = State::Normal;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut k = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(k) == Some(&'#') {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        state = State::Normal;
                        for _ in i..k {
                            out.push(' ');
                        }
                        i = k;
                        continue;
                    }
                }
                out.push(' ');
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    out.push(' ');
                    if i + 1 < chars.len() && chars[i + 1] != '\n' {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    state = State::Normal;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment && !comment_buf.is_empty() {
        comments.entry(line).or_default().push(comment_buf);
    }
    (out, comments)
}

/// Tokenizes cleaned text (no strings/comments left) into idents, numbers
/// and single-character punctuation.
fn tokenize(cleaned: &str) -> Vec<(TokKind, std::ops::Range<usize>, usize)> {
    let bytes = cleaned.as_bytes();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' || !c.is_ascii() {
            let start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_alphanumeric() || ch == '_' || !ch.is_ascii() {
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push((TokKind::Ident, start..i, line));
            continue;
        }
        if c.is_ascii_digit() {
            // No rule reads a literal: a run of digits, letters and `_` is
            // one token, so `1.5` is three and `x.0.iter()` keeps its dots.
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push((TokKind::Number, start..i, line));
            continue;
        }
        toks.push((TokKind::Punct(c), i..i + 1, line));
        i += 1;
    }
    toks
}

/// Marks every token with whether it lives in test-only code.
fn mark_test_scopes(tokens: &mut [Tok<'_>]) {
    // Stack of brace regions: (depth when opened, is_test).
    let mut depth = 0usize;
    let mut test_until_depth: Option<usize> = None;
    // Pending: a `#[cfg(test)]` / `#[test]` attribute was seen and we are
    // waiting for the item's opening brace (cleared on `;` — braceless item).
    let mut pending_test = false;
    let mut i = 0usize;
    let n = tokens.len();
    while i < n {
        // Attribute recognition: #[ ... ] possibly containing cfg(test) or test.
        if tokens[i].is_punct('#') && i + 1 < n && tokens[i + 1].is_punct('[') {
            // Scan to the matching ].
            let mut j = i + 2;
            let mut bracket = 1usize;
            let mut saw_test = false;
            let mut saw_cfg = false;
            while j < n && bracket > 0 {
                if tokens[j].is_punct('[') {
                    bracket += 1;
                } else if tokens[j].is_punct(']') {
                    bracket -= 1;
                } else if tokens[j].is_ident("cfg") {
                    saw_cfg = true;
                } else if tokens[j].is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            // `#[test]` (bare) or `#[cfg(test)]` / `#[cfg(all(test, ..))]`.
            let is_test_attr = saw_test && (saw_cfg || j == i + 4);
            if is_test_attr && test_until_depth.is_none() {
                pending_test = true;
            }
            // Attribute tokens inherit the current scope.
            for t in tokens.iter_mut().take(j).skip(i) {
                t.in_test = test_until_depth.is_some();
            }
            i = j;
            continue;
        }
        // `mod tests {` — the conventional unit-test module.
        if tokens[i].is_ident("mod")
            && i + 2 < n
            && tokens[i + 1].kind == TokKind::Ident
            && (tokens[i + 1].text == "tests" || tokens[i + 1].text == "test")
            && tokens[i + 2].is_punct('{')
            && test_until_depth.is_none()
        {
            pending_test = true;
        }
        let in_test = test_until_depth.is_some();
        tokens[i].in_test = in_test || (pending_test && tokens[i].is_punct('{'));
        if tokens[i].is_punct('{') {
            depth += 1;
            if pending_test && test_until_depth.is_none() {
                test_until_depth = Some(depth);
                pending_test = false;
            }
        } else if tokens[i].is_punct('}') {
            if let Some(d) = test_until_depth {
                if depth == d {
                    test_until_depth = None;
                    tokens[i].in_test = true;
                }
            }
            depth = depth.saturating_sub(1);
        } else if tokens[i].is_punct(';') && pending_test && test_until_depth.is_none() {
            // #[cfg(test)] use ...; — attribute governed a braceless item.
            pending_test = false;
        }
        i += 1;
    }
}

/// Parses `lint:allow(<key>): <reason>` out of the line comments.
fn parse_allows(
    comments: &BTreeMap<usize, Vec<String>>,
) -> (Vec<Allow>, Vec<(usize, String)>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (&line, texts) in comments {
        for text in texts {
            let Some(pos) = text.find("lint:allow") else {
                continue;
            };
            let rest = &text[pos + "lint:allow".len()..];
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix('(') else {
                bad.push((line, "malformed lint:allow — expected `lint:allow(<rule>): <reason>`".to_string()));
                continue;
            };
            let Some(close) = rest.find(')') else {
                bad.push((line, "malformed lint:allow — missing `)`".to_string()));
                continue;
            };
            let key = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let reason = match after.strip_prefix(':') {
                Some(r) => r.trim().to_string(),
                None => String::new(),
            };
            allows.push(Allow { key, reason, line });
        }
    }
    (allows, bad)
}

impl<'a> SourceModel<'a> {
    /// Lexes a cleaned file into tokens, test scopes and annotations.
    pub fn new(cleaned: &'a Cleaned) -> SourceModel<'a> {
        let (allows, bad_allows) = parse_allows(&cleaned.comments);
        let raw = tokenize(&cleaned.text);
        let mut tokens: Vec<Tok<'a>> = raw
            .into_iter()
            .map(|(kind, range, line)| Tok {
                kind,
                text: &cleaned.text[range],
                line,
                in_test: false,
            })
            .collect();
        mark_test_scopes(&mut tokens);
        SourceModel { tokens, allows, bad_allows }
    }
}
