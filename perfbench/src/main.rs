//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream|hunt|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds of measured work,
//! checks every output, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`, with `--trace 1`
//! the per-layer ones; the metric names and units are read from that file
//! at compile time, so the two cannot drift apart. The process exits
//! non-zero if any check failed. See `perfbench/NOTES.md` for what each
//! metric means on each workload.
//!
//! The run is hermetic: the on-disk lower-bound cache is switched off (and
//! its hit counter must stay 0), nothing is written to disk, tf-obs
//! tracing is never installed (so `TF_TRACE` has no effect), and threads
//! and connections are capped at the machine's core count.

mod hunt;
mod pins;
mod report;
mod serve;
mod spans;
mod stream;
mod wrap;

use std::process::ExitCode;

use report::Outcome;

const USAGE: &str = "usage: tf-perfbench --workload <stream|hunt|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--pin]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured-work budget in seconds.
    pub seconds: f64,
    /// `--trace 1`: the traced run, which reports per-layer metrics.
    pub trace: bool,
    /// Print the pin lines for this seed instead of a result.
    pub pin: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut pin) = (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !matches!(workload.as_str(), "stream" | "hunt" | "serve") {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        pin,
    })
}

/// Cores available to this process: the cap on worker threads, hunt
/// parallelism and client connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    tf_harness::lbcache::set_enabled(false);
    rayon::set_thread_override(nproc());
    assert!(!tf_obs::enabled(), "tf-obs tracing must stay off");

    if args.pin {
        let lines = match args.workload.as_str() {
            "stream" => stream::pin_lines(args.seed),
            "hunt" => hunt::pin_lines(),
            _ => Err("serve has no pins: its replies are checked in-process".to_string()),
        };
        return match lines {
            Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let mut out: Outcome = match args.workload.as_str() {
        "stream" => stream::run(&args),
        "hunt" => hunt::run(&args),
        _ => serve::run(&args),
    };
    let (hits, _) = tf_harness::lbcache::stats();
    out.check(hits == 0, || {
        format!("{hits} lower-bound cache hits with the cache off")
    });
    out.set("harness.lbcache_hits", hits as f64);
    match out.render(args.trace) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload hunt --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hunt", 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload stream").is_err());
        assert!(parse("--workload stream --seed 1 --trace 2").is_err());
        assert!(parse("--workload stream --seed 1 --seconds -1").is_err());
        assert!(parse("--workload stream --seed").is_err());
    }
}
