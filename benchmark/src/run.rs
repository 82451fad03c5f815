//! One run of one workload: set-up, the timed segment(s), verification,
//! and the result line the driver reads.

use std::fmt::Write as _;
use std::path::PathBuf;

use he_accel::ServeStats;

use crate::inputs::Inputs;
use crate::manifest::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{first_vs_last_decile_ratio, Front, Load, Outcome, Workload};
use crate::{fingerprint, ladder};

/// A run sets its front up at least this often, and `setup_s` is the
/// median: one set-up alone reads a cold process.
const MIN_SET_UPS: usize = 3;

/// Set-ups that take milliseconds (small operands) are repeated up to
/// this often, until a twelfth of the run length is spent on them, so
/// their median is as steady as that of three half-second ones.
const MAX_SET_UPS: usize = 64;

/// Generator lateness above this (ms, 99th percentile) is flagged.
const LATENESS_FLAG_MS: f64 = 1.0;

/// Tracing overhead above this share of throughput is flagged.
const OVERHEAD_FLAG: f64 = 0.05;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of operand pools, pair selection and the Poisson schedule.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced run
    /// with the ladder, per-layer metrics.
    pub trace: bool,
    /// Smoke mode: 4,000-bit operands everywhere, short ladder.
    pub quick: bool,
    /// Test hook: flip one bit of this product before it is verified.
    pub flip: Option<u64>,
}

/// What a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// No product was wrong (residue or bit-exact).
    pub correct: bool,
    /// Operations attempted in the measured segments.
    pub attempted: u64,
    /// Operations that errored, expired, were refused, came back late or
    /// came back wrong.
    pub failed: u64,
    /// Every metric of the run's mode, in manifest order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Human-readable lines printed before the result line.
    pub report: String,
}

impl RunResult {
    /// The last line of standard output: one JSON object.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (metric, value)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `args.workload` once.
///
/// # Errors
///
/// A front that cannot be set up (socket, warm-up).
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    he_ntt::par::set_threads(1);
    let bits = args.workload.bits(args.quick);
    let inputs = Inputs::new(args.seed, bits);
    let mut report = format!(
        "workload {}  seconds {}  trace {}  operand bits {bits}{}\n{}",
        args.workload.name,
        args.seconds,
        u8::from(args.trace),
        if args.quick { "  (quick)" } else { "" },
        fingerprint::describe(args.seed)
    );
    let (values, outcome) = if args.trace {
        traced_run(args, &inputs, bits, &mut report)?
    } else {
        end_to_end_run(args, &inputs, bits)?
    };

    let table: &'static [Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&'static Metric, f64)> = table
        .iter()
        .map(|metric| {
            let value = values
                .iter()
                .find(|(name, _)| *name == metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name))
                .1;
            (metric, value)
        })
        .collect();
    assert_eq!(
        metrics.len(),
        values.len(),
        "a measured metric is not in the manifest"
    );
    for (metric, value) in &metrics {
        let _ = writeln!(report, "{:<40} {value:>16.4} {}", metric.name, metric.unit);
    }
    let _ = writeln!(
        report,
        "attempted {}  good {}  errored {}  expired {}  refused {}  late {}  mismatched {}  ({} latency samples)",
        outcome.sent,
        outcome.good,
        outcome.errored,
        outcome.expired,
        outcome.refused,
        outcome.late,
        outcome.mismatched,
        outcome.latencies_ms.len()
    );
    Ok(RunResult {
        correct: outcome.mismatched == 0,
        attempted: outcome.sent.max(1),
        failed: outcome.failed(),
        metrics,
        report,
    })
}

type Values = Vec<(&'static str, f64)>;

/// Tracing off: set up several times, measure for the whole run length on
/// the last front.
fn end_to_end_run(
    args: &RunArgs,
    inputs: &Inputs,
    bits: usize,
) -> Result<(Values, Outcome), String> {
    let (mut front, first) = Front::set_up(args.workload, inputs, bits)?;
    let mut set_ups = vec![first];
    while set_ups.len() < MIN_SET_UPS
        || (set_ups.len() < MAX_SET_UPS && set_ups.iter().sum::<f64>() < args.seconds / 12.0)
    {
        front.shut_down();
        let (next, seconds) = Front::set_up(args.workload, inputs, bits)?;
        set_ups.push(seconds);
        front = next;
    }
    let load = Load {
        flip: args.flip,
        ..Load::new(inputs, args.workload, 0)
    };
    let mut outcome = front.run(&load, args.seconds, &mut Tracer::off());
    // Before the bit-exact comparison: he-bigint's own multiplication
    // allocates, and that memory is the benchmark's, not the system's.
    let peak_rss_mib = fingerprint::peak_rss_mib();
    front.shut_down();
    let products_per_s = outcome.products_per_s();
    outcome.verify_exact(inputs, args.workload.traffic);
    let values = vec![
        ("products_per_s", products_per_s),
        ("latency_p50_ms", median(&mut outcome.latencies_ms)),
        ("setup_s", median(&mut set_ups)),
        ("peak_rss_mib", peak_rss_mib),
    ];
    Ok((values, outcome))
}

/// The traced run: the ladder, then the workload for a quarter of the run
/// length with tracing off and a quarter with it on (their difference is
/// the tracing overhead); spans go to `out/trace-<workload>.json`.
fn traced_run(
    args: &RunArgs,
    inputs: &Inputs,
    bits: usize,
    report: &mut String,
) -> Result<(Values, Outcome), String> {
    let mut tracer = Tracer::on(1 << 20);
    let mut values = ladder::run(inputs, bits, args.quick, &mut tracer)?;
    let (front, _) = Front::set_up(args.workload, inputs, bits)?;
    let before = front.stats();
    let segment = args.seconds / 4.0;
    let load = Load {
        flip: args.flip,
        ..Load::new(inputs, args.workload, 0)
    };
    let untraced = front.run(&load, segment, &mut Tracer::off());
    let load = Load {
        first: untraced.sent,
        ..load
    };
    let traced = front.run(&load, segment, &mut tracer);
    let stats = delta(&front.stats(), &before);
    let reconnects = front.reconnects();
    front.shut_down();

    let traced_rate = traced.products_per_s();
    let overhead = if untraced.products_per_s() > 0.0 {
        1.0 - traced_rate / untraced.products_per_s()
    } else {
        0.0
    };
    // Counters, latencies and the cliff detector cover both segments.
    let mut outcome = untraced;
    outcome.absorb(traced);
    let verified_residue = outcome.good + outcome.late;
    let verified_exact = outcome.verify_exact(inputs, args.workload.traffic);
    let lateness = percentile(&mut outcome.lateness_ms, 99.0);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    values.extend([
        (
            "serve.first_vs_last_decile_ratio",
            first_vs_last_decile_ratio(&outcome.completed_at_s),
        ),
        ("serve.flushes", stats.flushes as f64),
        (
            "serve.mean_flush_size",
            ratio(stats.completed, stats.flushes),
        ),
        ("serve.largest_flush", stats.largest_flush as f64),
        ("serve.cache_hits", stats.cache_hits as f64),
        ("serve.cache_misses", stats.cache_misses as f64),
        (
            "serve.cache_hit_ratio",
            ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
        ),
        ("serve.expired_in_queue", stats.expired_in_queue as f64),
        ("serve.expired_in_flush", stats.expired_in_flush as f64),
        ("serve.shed", stats.shed as f64),
        ("serve.retried", stats.retried as f64),
        ("serve.idle_trims", stats.idle_trims as f64),
        ("net.reconnects", reconnects as f64),
        ("loadgen.sent", outcome.sent as f64),
        ("loadgen.completed", outcome.good as f64),
        ("loadgen.failed", outcome.failed() as f64),
        ("loadgen.mismatched", outcome.mismatched as f64),
        (
            "loadgen.failed_share",
            ratio(outcome.failed(), outcome.sent),
        ),
        ("loadgen.verified_residue", verified_residue as f64),
        ("loadgen.verified_exact", verified_exact as f64),
        (
            "loadgen.latency_p95_ms",
            percentile(&mut outcome.latencies_ms, 95.0),
        ),
        (
            "loadgen.latency_p99_ms",
            percentile(&mut outcome.latencies_ms, 99.0),
        ),
        ("loadgen.lateness_p99_ms", lateness),
        ("loadgen.traced_products_per_s", traced_rate),
        ("trace.overhead_share", overhead),
    ]);
    let summary = tracer.summary();
    for (metric, span) in [
        ("loadgen.gen_operand_us", "gen_operand"),
        ("loadgen.submit_call_us", "submit_call"),
        ("loadgen.await_result_us", "await_result"),
        ("loadgen.verify_us", "verify"),
    ] {
        let median_us = summary
            .iter()
            .find(|s| s.name == span)
            .map_or(0.0, |s| s.median_us);
        values.push((metric, median_us));
    }

    report.push_str(&crate::report::budget_table(&values));
    let _ = writeln!(report, "spans (traced segment and ladder):");
    for span in &summary {
        let _ = writeln!(
            report,
            "  {:<32} {:>7} calls  median {:>12.1} us  self {:>10.1} ms",
            span.name, span.count, span.median_us, span.self_ms
        );
    }
    if lateness > LATENESS_FLAG_MS {
        let _ = writeln!(
            report,
            "FLAG: the generator ran {lateness:.3} ms late at p99"
        );
    }
    if overhead > OVERHEAD_FLAG {
        let _ = writeln!(
            report,
            "FLAG: tracing cost {:.1} % of throughput",
            overhead * 100.0
        );
    }
    let path = write_trace(&tracer, args)?;
    let _ = writeln!(report, "trace: {}", path.display());
    Ok((values, outcome))
}

/// Counters of `after` that grew since `before` (the warm-up's share
/// removed); `largest_flush` is a high-water mark and stays as it is.
fn delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        flushes: after.flushes - before.flushes,
        completed: after.completed - before.completed,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        expired_in_queue: after.expired_in_queue - before.expired_in_queue,
        expired_in_flush: after.expired_in_flush - before.expired_in_flush,
        shed: after.shed - before.shed,
        retried: after.retried - before.retried,
        idle_trims: after.idle_trims - before.idle_trims,
        ..*after
    }
}

fn write_trace(tracer: &Tracer, args: &RunArgs) -> Result<PathBuf, String> {
    let dir = fingerprint::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload.name));
    std::fs::write(&path, tracer.to_json(args.workload.name, args.seed))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
