//! The binary's exit path: `Ok` goes to stdout with exit code 0; misuse puts
//! the message and the usage text on stderr, nothing on stdout, exit code 2.

use std::process::Command;

fn locaware_bench(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_locaware-bench"))
        .args(args)
        .output()
        .expect("the binary was built for this test");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (output.status.code(), text(&output.stdout), text(&output.stderr))
}

#[test]
fn misuse_exits_2_with_the_message_on_stderr_and_an_empty_stdout() {
    let rows: [(&[&str], &str); 5] = [
        (&[], "missing subcommand"),
        (&["fig2", "--bogus"], "unknown flag --bogus"),
        (&["fig3", "--quick", "--peers", "3"], "average degree"),
        (&["inspect", "locaware", "small", "abc"], "not a number: abc"),
        (&["ablation", "--quik"], "unknown flag --quik"),
    ];
    for (args, problem) in rows {
        let (code, stdout, stderr) = locaware_bench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert_eq!(stdout, "", "{args:?}");
        assert!(stderr.starts_with(&format!("locaware-bench: {problem}")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: locaware-bench <subcommand>"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_run_prints_its_report_and_exits_0() {
    let (code, stdout, _) = locaware_bench(&["inspect", "flooding", "small", "40", "20"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("# message counters"), "{stdout}");
}
