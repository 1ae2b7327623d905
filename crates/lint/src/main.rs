//! CLI driver: `cargo run -p locaware-lint --release [-- --github]`.
//!
//! Deny-by-default: any finding exits 1. `--github` additionally prints each
//! finding as a GitHub Actions annotation (`::error file=..,line=..`) so CI
//! failures land on the offending line in the diff view. `--update-ratchet`
//! rewrites `lint-ratchet.toml` with the measured per-file unwrap counts —
//! run it only after a reviewed burn-down (the ratchet is monotone by
//! convention; the tool cannot tell a burn-down from a regression you are
//! about to commit).

use std::path::PathBuf;
use std::process::ExitCode;

use locaware_lint::ratchet::Ratchet;
use locaware_lint::run_workspace;

fn usage() -> ! {
    eprintln!(
        "usage: locaware-lint [--root <path>] [--github] [--update-ratchet]\n\
         \n\
         Walks the workspace's Rust sources and enforces the determinism rules\n\
         D001 (hash-iter), D002 (wall-clock), D003 (ambient-rng) and D004\n\
         (unwrap ratchet, lint-ratchet.toml). Exits non-zero on any finding."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut github = false;
    let mut update_ratchet = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--github" => github = true,
            "--update-ratchet" => update_ratchet = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage(),
            },
            _ => usage(),
        }
    }
    // Default root: the workspace this binary was built from. Compile-time is
    // the right binding — the lint and the tree it checks version together.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let (findings, counts) = match run_workspace(&root) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("locaware-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if update_ratchet {
        let rendered = Ratchet::render(&counts);
        let path = root.join("lint-ratchet.toml");
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("locaware-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "locaware-lint: wrote {} ({} ratcheted files)",
            path.display(),
            counts.values().filter(|&&c| c > 0).count(),
        );
        // Re-run against the fresh ratchet so the exit code reflects the tree.
        let (findings, _) = match run_workspace(&root) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("locaware-lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        return report(&findings, github);
    }

    report(&findings, github)
}

fn report(findings: &[locaware_lint::Finding], github: bool) -> ExitCode {
    for finding in findings {
        println!("{finding}");
        if github {
            // GitHub annotation syntax; `::` sequences in messages would be
            // misparsed, so strip newlines and escape-encode what matters.
            let message = finding
                .message
                .replace('\n', " ")
                .replace("::", ": :");
            println!(
                "::error file={},line={},title={}::{}",
                finding.file, finding.line, finding.rule, message
            );
        }
    }
    if findings.is_empty() {
        println!("locaware-lint: clean — the determinism contract holds at the source level");
        ExitCode::SUCCESS
    } else {
        println!("locaware-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
