//! The benchmark's own contract: seeded inputs repeat, the correctness
//! gate trips on one flipped bit, and `BENCHMARK.json` names exactly what
//! the runs emit.

use std::path::Path;
use std::process::Command;

use he_benchmark::inputs::{poisson_schedule, residue, Inputs, Traffic};
use he_benchmark::json::Json;
use he_benchmark::manifest::{benchmark_json, END_TO_END, PER_LAYER};
use he_benchmark::suite::{parse_result, ChildResult};
use he_benchmark::workloads::WORKLOADS;

/// Runs the benchmark binary in `--quick` mode; returns whether it exited
/// 0 and its parsed result line.
fn quick_run(workload: &str, trace: bool, extra: &[&str]) -> (bool, ChildResult) {
    let output = Command::new(env!("CARGO_BIN_EXE_he-benchmark"))
        .args(["--quick", "--seed", "2016", "--seconds", "0.5"])
        .args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = parse_result(&stdout).unwrap_or_else(|e| panic!("{e}\n{stdout}"));
    (output.status.success(), result)
}

fn metric(result: &ChildResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

#[test]
fn same_seed_gives_the_same_operands_and_arrival_times() {
    let (a, b) = (Inputs::new(2016, 4_000), Inputs::new(2016, 4_000));
    let other = Inputs::new(786_432, 4_000);
    for traffic in [
        Traffic::FreshFresh,
        Traffic::FixedFresh,
        Traffic::ReusePairs,
    ] {
        for i in [0, 1, 63, 64, 1_000_003] {
            let (x, y) = (a.job(traffic, i), b.job(traffic, i));
            assert_eq!((&x.a, &x.b, x.expect), (&y.a, &y.b, y.expect));
            assert_eq!(residue(&(&x.a * &x.b)), x.expect);
            let z = other.job(traffic, i);
            assert_ne!((&x.a, &x.b), (&z.a, &z.b), "seeds must differ");
        }
    }
    let schedule = poisson_schedule(2016, 60.0, 5.0);
    assert_eq!(schedule, poisson_schedule(2016, 60.0, 5.0));
    assert_ne!(schedule, poisson_schedule(786_432, 60.0, 5.0));
    assert!(schedule.windows(2).all(|w| w[0] < w[1]));
    // About 300 arrivals in 5 s at 60/s.
    assert!((200..400).contains(&schedule.len()), "{}", schedule.len());
}

#[test]
fn counts_and_model_predictions_repeat_exactly_across_runs() {
    let (ok_a, a) = quick_run("open_deadline", true, &[]);
    let (ok_b, b) = quick_run("open_deadline", true, &[]);
    assert!(ok_a && ok_b);
    let exact = PER_LAYER.iter().map(|m| m.name).filter(|name| {
        name.starts_with("hwsim.")
            || name.ends_with("_frame_bytes")
            || ["loadgen.sent", "ntt.butterflies_per_call"].contains(name)
    });
    let mut checked = 0;
    for name in exact {
        assert_eq!(metric(&a, name), metric(&b, name), "{name} must repeat");
        checked += 1;
    }
    assert_eq!(checked, 8);
    assert!(metric(&a, "loadgen.sent") > 0.0);
}

#[test]
fn one_flipped_bit_fails_the_gate_and_the_process() {
    let inputs = Inputs::new(2016, 4_000);
    let job = inputs.job(Traffic::FixedFresh, 5);
    let mut product = &job.a * &job.b;
    assert_eq!(residue(&product), job.expect);
    product.set_bit(0, !product.bit(0));
    assert_ne!(residue(&product), job.expect);

    for workload in ["mul_fresh", "served_stream", "remote_small"] {
        let (ok, result) = quick_run(workload, false, &["--flip-product", "5"]);
        assert!(!ok, "{workload}: a wrong product must exit non-zero");
        assert_eq!(result.failed, 1, "{workload}");
        assert!(result.attempted > 5, "{workload}");
    }
    let (ok, traced) = quick_run("served_stream", true, &["--flip-product", "5"]);
    assert!(!ok);
    assert_eq!(metric(&traced, "loadgen.mismatched"), 1.0);
    assert!(metric(&traced, "loadgen.failed_share") > 0.0);
}

#[test]
fn a_clean_run_reports_what_it_verified() {
    let (ok, result) = quick_run("served_reuse", true, &[]);
    assert!(ok && result.ok);
    assert_eq!(result.failed, 0);
    assert_eq!(
        metric(&result, "loadgen.verified_residue"),
        metric(&result, "loadgen.completed")
    );
    // A seeded 1-in-64 sample of a few hundred products.
    assert!(metric(&result, "loadgen.verified_exact") >= 1.0);
    assert_eq!(metric(&result, "loadgen.failed_share"), 0.0);
    // The warm-up's 64 pairs leave a few of the 48 operands unseen; each
    // misses once, then everything hits.
    assert!(metric(&result, "serve.cache_hit_ratio") > 0.99);
    assert!(metric(&result, "serve.cache_misses") < 48.0);
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_manifest_and_within_the_contract_limits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        benchmark_json(),
        "regenerate with `he-benchmark --print-manifest > BENCHMARK.json`"
    );
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("valid JSON");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .expect("key present")
            .items()
            .iter()
            .map(|item| {
                item.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let (workloads, end_to_end, per_layer) =
        (names("workloads"), names("end_to_end"), names("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(all.iter().all(|name| valid_name(name)), "{all:?}");
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len()
    );
    for workload in doc.get("workloads").expect("workloads").items() {
        let why = workload.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for item in doc.get("end_to_end").expect("end_to_end").items() {
        let bound = item.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds));
}

#[test]
fn every_workload_emits_exactly_the_manifest_metrics() {
    for workload in &WORKLOADS {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let (ok, result) = quick_run(workload.name, trace, &[]);
            assert!(ok && result.ok, "{} trace {trace}", workload.name);
            assert_eq!(result.failed, 0, "{} trace {trace}", workload.name);
            let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(emitted, expected, "{} trace {trace}", workload.name);
            assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
            if !trace {
                assert!(
                    result.metrics.iter().all(|(_, v)| *v > 0.0),
                    "end-to-end metrics are never 0: {:?}",
                    result.metrics
                );
            }
        }
    }
}
