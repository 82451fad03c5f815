//! The one command: every workload in a fresh child process each, once
//! with tracing off (end-to-end metrics) and once traced (per-layer
//! metrics), `--repeat` times, summarised by name with units.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;

/// What the suite runs.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed handed to every child.
    pub seed: u64,
    /// Seconds each child measures.
    pub seconds: f64,
    /// Smoke mode.
    pub quick: bool,
    /// Times the whole suite runs.
    pub repeat: usize,
}

/// One child's parsed result line.
#[derive(Debug)]
pub struct ChildResult {
    /// The child exited 0 and reported `correct`.
    pub ok: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name to value.
    pub metrics: Vec<(String, f64)>,
}

/// Parses the last line of a child's standard output.
///
/// # Errors
///
/// Output that does not end in the result object.
pub fn parse_result(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or(format!("result line lacks `{key}`"))
    };
    let metrics = doc
        .get("metrics")
        .ok_or("result line lacks `metrics`")?
        .members()
        .iter()
        .map(|(name, body)| {
            body.get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        ok: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Runs one workload in a child process of this executable.
fn run_child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut result = parse_result(&stdout);
    if let Ok(result) = &mut result {
        result.ok &= output.status.success();
    }
    if !matches!(&result, Ok(r) if r.ok && r.failed == 0) {
        // A failing child's whole report is the evidence.
        print!("{stdout}");
    }
    result
}

/// Runs the suite and prints the summary. Returns whether every child
/// passed the correctness gate with no failed operation.
///
/// # Errors
///
/// A child that could not be started or printed no result.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    print!(
        "suite: {} run(s) of every workload, {} s each{}\n{}",
        args.repeat,
        args.seconds,
        if args.quick { "  (quick)" } else { "" },
        crate::fingerprint::describe(args.seed)
    );
    // (workload, metric) -> one value per repeat.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for round in 0..args.repeat {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let child = run_child(args, workload.name, trace)?;
                all_ok &= child.ok && child.failed == 0;
                eprintln!(
                    "round {}/{} {} trace {}: attempted {} failed {}{}",
                    round + 1,
                    args.repeat,
                    workload.name,
                    u8::from(trace),
                    child.attempted,
                    child.failed,
                    if child.ok { "" } else { "  INCORRECT" }
                );
                for (name, value) in child.metrics {
                    values.entry((workload.name, name)).or_default().push(value);
                }
            }
        }
    }

    let mut out = String::new();
    for workload in &WORKLOADS {
        let _ = writeln!(out, "\n== {} == {}", workload.name, workload.why);
        if args.repeat > 1 {
            let _ = writeln!(
                out,
                "{:<40} {:>14} {:>14} {:>14} {:<6} {:>8} {:>13}",
                "metric", "median", "q1", "q3", "unit", "spread", "spread/bound"
            );
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let Some(samples) = values.get_mut(&(workload.name, metric.name.to_string())) else {
                return Err(format!("{} did not report {}", workload.name, metric.name));
            };
            if args.repeat == 1 {
                let _ = writeln!(
                    out,
                    "{:<40} {:>16.4} {}",
                    metric.name, samples[0], metric.unit
                );
                continue;
            }
            let [q1, q2, q3] = quartiles(samples);
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
            let versus_bound = if metric.bound > 0.0 {
                format!("{:>13.2}", spread / metric.bound)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:<40} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:<6} {:>7.2}% {versus_bound}",
                metric.name,
                metric.unit,
                spread * 100.0
            );
        }
    }
    print!("{out}");

    // The ladder is the same in every traced child; served_stream's is
    // shown because its traced throughput is what hwsim's fleet models.
    let ladder: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .filter_map(|metric| {
            let samples = values.get_mut(&("served_stream", metric.name.to_string()))?;
            Some((metric.name, crate::stats::median(samples)))
        })
        .collect();
    print!("\n{}", crate::report::budget_table(&ladder));
    Ok(all_ok)
}
