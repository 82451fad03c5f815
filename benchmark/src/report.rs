//! The ladder's budget table: adjacent layers divided by each other, and
//! the hardware model's predictions beside what was measured.

use std::fmt::Write as _;

/// Renders the budget table from per-layer metrics looked up by name.
pub fn budget_table(values: &[(&str, f64)]) -> String {
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let mut out = String::new();
    let two_ntt = get("ntt.forward_64k_us") + get("ntt.inverse_64k_us");
    let three_ntt = two_ntt + get("ntt.forward_64k_us");
    let _ = writeln!(
        out,
        "ladder, one one-cached product (us); self = rung - rung below:"
    );
    let mut below = two_ntt;
    let _ = writeln!(out, "  {:<34} {below:>12.1}", "ntt: forward + inverse, 64K");
    for rung in [
        "ssa.one_cached_into_us",
        "engine.run16_one_cached_us",
        "serve.idle_roundtrip_us",
        "net.idle_roundtrip_us",
    ] {
        let value = get(rung);
        let _ = writeln!(
            out,
            "  {rung:<34} {value:>12.1}   self {:>10.1}",
            value - below
        );
        below = value;
    }
    let _ = writeln!(out, "budget, adjacent layers divided:");
    for (label, ratio) in [
        ("multiply / 3 ntt", get("ssa.multiply_us") / three_ntt),
        (
            "one_cached / multiply",
            get("ssa.one_cached_us") / get("ssa.multiply_us"),
        ),
        (
            "served / one_cached",
            get("serve.idle_roundtrip_us") / get("engine.run16_one_cached_us"),
        ),
        (
            "remote / served",
            get("net.idle_roundtrip_us") / get("serve.idle_roundtrip_us"),
        ),
    ] {
        let _ = writeln!(out, "  {label:<34} {ratio:>12.3}");
    }
    let _ = writeln!(out, "measured (host time) beside hwsim (simulated time):");
    for (measured, predicted) in [
        ("ssa.multiply_us", "hwsim.multiply_us_predicted"),
        ("ssa.one_cached_us", "hwsim.one_cached_us_predicted"),
        (
            "loadgen.traced_products_per_s",
            "hwsim.fleet_products_per_s_predicted",
        ),
        (
            "serve.window32_vs_window1_ratio",
            "hwsim.host_overlap_speedup_predicted",
        ),
    ] {
        let _ = writeln!(
            out,
            "  {measured:<34} {:>12.3}   {predicted} {:.3}",
            get(measured),
            get(predicted)
        );
    }
    out
}
