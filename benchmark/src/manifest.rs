//! The benchmark's contract as data: every metric's name, unit, direction
//! and bound. `BENCHMARK.json` at the repository root is this table
//! rendered by [`benchmark_json`]; a test keeps the two identical.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// Seconds one run measures (`--seconds` when the driver does not say).
pub const RUN_SECONDS: u64 = 12;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name; per-layer names start with their layer.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees, measured with tracing off.
///
/// The bounds are what the build box can resolve, not what one would
/// wish: it is a 2-vCPU virtual machine whose speed shifts by 10-15 % for
/// minutes at a time, and ten runs of one commit spread (quartile to
/// quartile) by 3-9 % of their median on every timing. A bound has to
/// stay above that, so every timing gets the widest one allowed; resident
/// memory does not follow the box's mood and gets a tighter one. Tail
/// latency is not here at all: on `open_deadline` its spread over five
/// runs was 44-77 % of its median, wider than any bound allowed, so
/// `loadgen.latency_p95_ms` and `loadgen.latency_p99_ms` are per-layer.
pub static END_TO_END: [Metric; 4] = [
    e2e("products_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
];

/// Single layers, measured in the traced run. No bounds: they explain an
/// end-to-end move, they are not judged themselves.
pub static PER_LAYER: [Metric; 70] = [
    layer("field.mul_ns", "ns", "lower"),
    layer("field.mul_by_pow2_ns", "ns", "lower"),
    layer("ntt.forward_64k_us", "us", "lower"),
    layer("ntt.inverse_64k_us", "us", "lower"),
    layer("ntt.radix2_forward_64k_us", "us", "lower"),
    layer("ntt.forward_1m_us", "us", "lower"),
    layer("ntt.butterflies_per_call", "count", "lower"),
    layer("ntt.bytes_per_call", "bytes", "lower"),
    layer("ntt.table_bytes", "bytes", "lower"),
    layer("ssa.decompose_us", "us", "lower"),
    layer("ssa.recompose_us", "us", "lower"),
    layer("ssa.transform_us", "us", "lower"),
    layer("ssa.multiply_us", "us", "lower"),
    layer("ssa.multiply_into_us", "us", "lower"),
    layer("ssa.one_cached_us", "us", "lower"),
    layer("ssa.one_cached_into_us", "us", "lower"),
    layer("ssa.both_cached_us", "us", "lower"),
    layer("ssa.multiply_vs_3ntt_ratio", "ratio", "lower"),
    layer("ssa.idle_scratch_units", "count", "lower"),
    layer("engine.prepare_us", "us", "lower"),
    layer("engine.run16_one_cached_us", "us", "lower"),
    layer("engine.run16_both_cached_us", "us", "lower"),
    layer("engine.vs_ssa_ratio", "ratio", "lower"),
    layer("serve.submit_call_us", "us", "lower"),
    layer("serve.idle_roundtrip_us", "us", "lower"),
    layer("serve.self_us", "us", "lower"),
    layer("serve.first_vs_last_decile_ratio", "ratio", "lower"),
    layer("serve.window32_vs_window1_ratio", "ratio", "higher"),
    layer("serve.flushes", "count", "lower"),
    layer("serve.mean_flush_size", "count", "higher"),
    layer("serve.largest_flush", "count", "higher"),
    layer("serve.cache_hits", "count", "higher"),
    layer("serve.cache_misses", "count", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.expired_in_queue", "count", "lower"),
    layer("serve.expired_in_flush", "count", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.retried", "count", "lower"),
    layer("serve.idle_trims", "count", "lower"),
    layer("net.encode_submit_us", "us", "lower"),
    layer("net.decode_submit_us", "us", "lower"),
    layer("net.encode_product_us", "us", "lower"),
    layer("net.decode_product_us", "us", "lower"),
    layer("net.submit_frame_bytes", "bytes", "lower"),
    layer("net.product_frame_bytes", "bytes", "lower"),
    layer("net.ping_rtt_us", "us", "lower"),
    layer("net.idle_roundtrip_us", "us", "lower"),
    layer("net.pinned_idle_roundtrip_us", "us", "lower"),
    layer("net.self_us", "us", "lower"),
    layer("net.reconnects", "count", "lower"),
    layer("hwsim.multiply_us_predicted", "us", "lower"),
    layer("hwsim.one_cached_us_predicted", "us", "lower"),
    layer("hwsim.fleet_products_per_s_predicted", "1/s", "higher"),
    layer("hwsim.host_overlap_speedup_predicted", "ratio", "higher"),
    layer("loadgen.sent", "count", "higher"),
    layer("loadgen.completed", "count", "higher"),
    layer("loadgen.failed", "count", "lower"),
    layer("loadgen.mismatched", "count", "lower"),
    layer("loadgen.failed_share", "ratio", "lower"),
    layer("loadgen.verified_residue", "count", "higher"),
    layer("loadgen.verified_exact", "count", "higher"),
    layer("loadgen.latency_p95_ms", "ms", "lower"),
    layer("loadgen.latency_p99_ms", "ms", "lower"),
    layer("loadgen.lateness_p99_ms", "ms", "lower"),
    layer("loadgen.gen_operand_us", "us", "lower"),
    layer("loadgen.submit_call_us", "us", "lower"),
    layer("loadgen.await_result_us", "us", "lower"),
    layer("loadgen.verify_us", "us", "lower"),
    layer("loadgen.traced_products_per_s", "1/s", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            workload.name,
            workload.why,
            comma(i, WORKLOADS.len())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better,
            m.bound,
            comma(i, END_TO_END.len())
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better,
            comma(i, PER_LAYER.len())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}
