//! `locaware-bench <subcommand> [options]`: prints what [`locaware_bench::run`]
//! returns; on misuse, the message and the usage text on stderr, exit code 2.

fn main() {
    match locaware_bench::run(std::env::args().skip(1)) {
        Ok(output) => print!("{output}"),
        Err(message) => {
            eprintln!("locaware-bench: {message}\n{}", locaware_bench::usage());
            std::process::exit(2);
        }
    }
}
