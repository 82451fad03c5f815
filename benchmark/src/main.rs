//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 2016`
//!
//! Without `--workload`: the whole suite, every workload in a fresh child
//! process (add `--repeat N` for medians and spreads, `--quick` for a
//! smoke run). With `--workload NAME --seed N --seconds S --trace 0|1`:
//! that one run, whose last line of output is the result object.

use std::process::ExitCode;

use he_benchmark::manifest::{benchmark_json, RUN_SECONDS};
use he_benchmark::run::{run, RunArgs};
use he_benchmark::suite::{self, SuiteArgs};
use he_benchmark::{fingerprint, workloads};

const USAGE: &str = "usage: he-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--repeat N] [--flip-product I] [--print-manifest]";

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("he-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parses the command line and runs; `Ok(false)` is a run that finished
/// but failed the correctness gate.
fn real_main() -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 2016u64;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut repeat = 1usize;
    let mut flip = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(&name).ok_or_else(|| bad(&name))?);
            }
            "--seed" => seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad(&v))?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other)),
                }
            }
            "--repeat" => {
                let v = value()?;
                repeat = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| bad(&v))?;
            }
            "--flip-product" => flip = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--quick" => quick = true,
            "--print-manifest" => {
                print!("{}", benchmark_json());
                return Ok(true);
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    fingerprint::profile_matches_root()?;
    // Quick mode measures a twentieth as long on small operands.
    let seconds = seconds.unwrap_or(if quick {
        RUN_SECONDS as f64 / 20.0
    } else {
        RUN_SECONDS as f64
    });
    let Some(workload) = workload else {
        return suite::run(&SuiteArgs {
            seed,
            seconds,
            quick,
            repeat,
        });
    };
    let result = run(&RunArgs {
        workload,
        seed,
        seconds,
        trace,
        quick,
        flip,
    })?;
    print!("{}", result.report);
    println!("{}", result.result_line());
    Ok(result.correct)
}
