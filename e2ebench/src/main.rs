//! End-to-end benchmark of the CrowdER workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch_t02|serve_t03|rounds_t02> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! program's public entry points on the clock; `--trace 1` measures the
//! per-layer metrics by replaying the same work one public call at a
//! time. Progress goes to stderr; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A failed
//! exactness gate or program error prints no result and exits 1. See
//! `README.md` for why each workload and metric exists.

mod batch;
mod inputs;
mod report;
mod rounds;
mod serve;
mod stats;

use std::time::Duration;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{flag}` wants a whole number, got `{value}`"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(Duration::from_secs(number()?.max(1))),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace` wants 0 or 1, got `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

fn main() {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let outcome = match args.workload.as_str() {
            "batch_t02" => batch::run(&args),
            "serve_t03" => serve::run(&args),
            "rounds_t02" => rounds::run(&args),
            other => Err(format!(
                "unknown workload `{other}` (batch_t02, serve_t03, rounds_t02)"
            )),
        }?;
        outcome.to_json(args.trace)
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
