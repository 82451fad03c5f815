//! The single-threaded ladder: each layer's public entry points timed on
//! the same operands, one rung above the other, so a rung's self time is
//! its own time minus the rung below.
//!
//! `field` -> `ntt` -> `ssa` -> `engine` -> `serve` -> `net`, all at one
//! operand size, on one box, in one run. `hwsim` predictions (simulated
//! time) are taken beside the rungs they model.

use std::hint::black_box;
use std::time::Instant;

use he_accel::prelude::*;
use he_field::roots;
use he_hwsim::fleet::FleetModel;
use he_net::{Frame, WireOperand, DEFAULT_MAX_FRAME_BYTES};
use he_ntt::{Ntt64k, NttScratch, Radix2Plan, Radix2kPlan, N64K};

use crate::inputs::{residue, Inputs, Traffic, WARM_BASE};
use crate::stats::fastest;
use crate::trace::{Tracer, NO_SPAN};
use crate::workloads::{self, backend, spawn_fleet, spawn_remote, Front, Load, Stop, WINDOW};

/// Points of the rung whose working set (8 MiB) exceeds the L2 cache.
const N1M: usize = 1 << 20;

/// Products per engine batch rung.
const ENGINE_BATCH: usize = 16;

struct Ladder<'a> {
    tracer: &'a mut Tracer,
    out: Vec<(&'static str, f64)>,
    /// Iterations per rung are divided by this (`--quick`).
    cut: usize,
}

impl Ladder<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.out
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("rung measured before it is read")
    }

    /// Fastest wall time of `f` in µs over `iters` calls after one warm-up
    /// call; every call is a span named `name`. The fastest, not the
    /// median: the box's interference only adds time and comes and goes
    /// within a ladder, and a rung's self time is a difference of two
    /// rungs, which medians taken seconds apart would drown.
    fn time_us(&mut self, name: &'static str, iters: usize, mut f: impl FnMut()) -> f64 {
        f();
        let samples: Vec<f64> = (0..(iters / self.cut).max(2))
            .map(|i| {
                let start = Instant::now();
                f();
                let elapsed = start.elapsed();
                self.tracer.record(name, start, NO_SPAN, i as u64);
                elapsed.as_secs_f64() * 1e6
            })
            .collect();
        fastest(&samples)
    }

    /// [`Ladder::time_us`], reported under `name`.
    fn rung(&mut self, name: &'static str, iters: usize, f: impl FnMut()) -> f64 {
        let us = self.time_us(name, iters, f);
        self.put(name, us);
        us
    }
}

/// Runs every rung at `bits`-bit operands and returns the per-layer
/// metrics it measured, by name.
///
/// # Errors
///
/// A loopback socket that cannot be bound or dialed.
pub fn run(
    inputs: &Inputs,
    bits: usize,
    quick: bool,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut ladder = Ladder {
        tracer,
        out: Vec::new(),
        cut: if quick { 4 } else { 1 },
    };
    field_rungs(&mut ladder);
    ntt_rungs(&mut ladder);
    let backend = backend(bits);
    ssa_rungs(&mut ladder, inputs, &backend);
    engine_rungs(&mut ladder, inputs, &backend);
    serve_rungs(&mut ladder, inputs, &backend);
    net_rungs(&mut ladder, inputs, &backend)?;
    hwsim_rungs(&mut ladder);
    Ok(ladder.out)
}

fn field_rungs(ladder: &mut Ladder<'_>) {
    const CHAIN: usize = 1 << 18;
    let y = black_box(Fp::new(0x1234_5678_9abc_def1));
    let mut x = Fp::new(3);
    let us = ladder.time_us("field.mul_ns", 9, || {
        for _ in 0..CHAIN {
            x *= y;
        }
        black_box(x);
    });
    ladder.put("field.mul_ns", us * 1e3 / CHAIN as f64);
    let shift = black_box(17u32);
    let us = ladder.time_us("field.mul_by_pow2_ns", 9, || {
        for _ in 0..CHAIN {
            x = x.mul_by_pow2(shift);
        }
        black_box(x);
    });
    ladder.put("field.mul_by_pow2_ns", us * 1e3 / CHAIN as f64);
}

fn ntt_rungs(ladder: &mut Ladder<'_>) {
    let mut data: Vec<Fp> = (0..N64K as u64)
        .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let mut scratch = NttScratch::new();
    let plan = Ntt64k::new();
    ladder.rung("ntt.forward_64k_us", 15, || {
        plan.forward_into(&mut data, &mut scratch)
    });
    ladder.rung("ntt.inverse_64k_us", 15, || {
        plan.inverse_into(&mut data, &mut scratch)
    });
    // The layer-at-a-time radix-2 plan on the same root: if it ties the
    // 4-pass production plan, the pass count is not what makes it fast.
    let radix2 = Radix2Plan::with_omega(N64K, roots::omega_64k()).expect("64K radix-2 plan");
    ladder.rung("ntt.radix2_forward_64k_us", 15, || {
        radix2.forward_in_place(&mut data).expect("length matches")
    });
    let plan_1m = Radix2kPlan::new(N1M).expect("2^20 divides p - 1");
    let mut big: Vec<Fp> = (0..N1M as u64)
        .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    ladder.rung("ntt.forward_1m_us", 4, || {
        plan_1m.forward_in_place(&mut big).expect("length matches")
    });
    // Computed, not measured: a 64K transform is n/2 butterflies in each
    // of log2(n) layers, and every memory pass reads and writes all n
    // 8-byte points once (cache misses are not in this figure).
    let layers = N64K.trailing_zeros() as usize;
    let passes = Radix2kPlan::with_omega(N64K, roots::omega_64k())
        .expect("64K radix-2^k plan")
        .memory_passes();
    ladder.put("ntt.butterflies_per_call", (N64K / 2 * layers) as f64);
    ladder.put("ntt.bytes_per_call", (passes * N64K * 8 * 2) as f64);
    ladder.put("ntt.table_bytes", plan.table_bytes() as f64);
}

fn ssa_rungs(ladder: &mut Ladder<'_>, inputs: &Inputs, backend: &SsaSoftware) {
    let ssa = backend.inner();
    let params = ssa.params();
    let job = inputs.job(Traffic::FreshFresh, WARM_BASE);
    let (a, b) = (&job.a, &job.b);
    ladder.rung("ssa.decompose_us", 9, || {
        black_box(he_ssa::decompose(a, params.coeff_bits(), params.n_points()));
    });
    let product_coeffs = ssa.convolve(
        &he_ssa::decompose(a, params.coeff_bits(), params.n_points()),
        &he_ssa::decompose(b, params.coeff_bits(), params.n_points()),
    );
    ladder.rung("ssa.recompose_us", 9, || {
        black_box(he_ssa::recompose(&product_coeffs, params.coeff_bits()));
    });
    ladder.rung("ssa.transform_us", 9, || {
        black_box(ssa.transform(a).expect("operand fits"));
    });
    let multiply = ladder.rung("ssa.multiply_us", 9, || {
        black_box(ssa.multiply(a, b).expect("operands fit"));
    });
    let mut out = UBig::zero();
    ladder.rung("ssa.multiply_into_us", 9, || {
        ssa.multiply_into(a, b, &mut out).expect("operands fit")
    });
    let ta = ssa.transform(a).expect("operand fits");
    let tb = ssa.transform(b).expect("operand fits");
    ladder.rung("ssa.one_cached_us", 9, || {
        black_box(ssa.multiply_one_cached(&ta, b).expect("operands fit"));
    });
    // The same product into a reused result: what the engine's batch path
    // runs, and the rung the engine's self time is taken against. (The
    // allocating form above pays for a fresh 192 KiB result every call.)
    ladder.rung("ssa.one_cached_into_us", 9, || {
        ssa.multiply_one_cached_into(&ta, b, &mut out)
            .expect("operands fit")
    });
    ladder.rung("ssa.both_cached_us", 9, || {
        black_box(ssa.multiply_transformed(&ta, &tb).expect("same plan"));
    });
    assert_eq!(residue(&out), job.expect, "ladder product is wrong");
    // At the paper's size the plan is the 64K transform the ntt rungs
    // timed; at other sizes (--quick) the ratio mixes sizes and only
    // shows that the rung runs.
    let three_ntt = 2.0 * ladder.get("ntt.forward_64k_us") + ladder.get("ntt.inverse_64k_us");
    ladder.put("ssa.multiply_vs_3ntt_ratio", multiply / three_ntt);
    ladder.put("ssa.idle_scratch_units", ssa.idle_scratch_units() as f64);
}

fn engine_rungs(ladder: &mut Ladder<'_>, inputs: &Inputs, backend: &SsaSoftware) {
    let engine = EvalEngine::new(backend.clone()).with_threads(1);
    let fixed = inputs.fixed();
    ladder.rung("engine.prepare_us", 9, || {
        black_box(engine.prepare(fixed).expect("operand fits"));
    });
    let handle = engine.prepare(fixed).expect("operand fits");
    let stream: Vec<UBig> = (0..ENGINE_BATCH as u64)
        .map(|k| inputs.fresh(WARM_BASE + k).0)
        .collect();
    let handles: Vec<OperandHandle> = stream
        .iter()
        .map(|b| engine.prepare(b).expect("operand fits"))
        .collect();
    let mut out = vec![UBig::zero(); ENGINE_BATCH];
    let one_cached: Vec<ProductJob<'_>> = stream
        .iter()
        .map(|b| ProductJob::OnePrepared(&handle, b))
        .collect();
    let us = ladder.time_us("engine.run16_one_cached_us", 3, || {
        engine.run_into(&one_cached, &mut out).expect("batch runs")
    });
    let per_product = us / ENGINE_BATCH as f64;
    ladder.put("engine.run16_one_cached_us", per_product);
    let both_cached: Vec<ProductJob<'_>> = handles
        .iter()
        .map(|b| ProductJob::Prepared(&handle, b))
        .collect();
    let us = ladder.time_us("engine.run16_both_cached_us", 3, || {
        engine.run_into(&both_cached, &mut out).expect("batch runs")
    });
    ladder.put("engine.run16_both_cached_us", us / ENGINE_BATCH as f64);
    ladder.put(
        "engine.vs_ssa_ratio",
        per_product / ladder.get("ssa.one_cached_into_us"),
    );
}

/// One verified `fixed x fresh` product at a time through `front`,
/// `count` times on an idle fleet: fastest submit call alone and fastest
/// whole round trip, in µs.
fn idle_round_trips(
    ladder: &mut Ladder<'_>,
    inputs: &Inputs,
    name: &'static str,
    count: u64,
    mut submit: impl FnMut(UBig) -> Result<ProductTicket, SubmitError>,
) -> (f64, f64) {
    let fixed_residue = residue(inputs.fixed());
    let mut calls = Vec::new();
    let mut trips = Vec::new();
    for k in 0..(count / ladder.cut as u64).max(3) {
        let (fresh, fresh_residue) = inputs.fresh(WARM_BASE + 1_000 + k);
        let start = Instant::now();
        let ticket = submit(fresh).expect("front alive");
        let called = start.elapsed();
        let product = ticket.wait().expect("served");
        ladder.tracer.record(name, start, NO_SPAN, k);
        // The first trip pays first-touch costs; it is the warm-up.
        if k > 0 {
            calls.push(called.as_secs_f64() * 1e6);
            trips.push(start.elapsed().as_secs_f64() * 1e6);
        }
        assert_eq!(
            residue(&product),
            crate::inputs::mul_residues(fixed_residue, fresh_residue),
            "ladder product is wrong"
        );
    }
    (fastest(&calls), fastest(&trips))
}

fn serve_rungs(ladder: &mut Ladder<'_>, inputs: &Inputs, backend: &SsaSoftware) {
    let pool = spawn_fleet(backend);
    let fixed = inputs.fixed();
    let (call, trip) = idle_round_trips(ladder, inputs, "serve.idle_roundtrip_us", 16, |fresh| {
        pool.submit(ProductRequest::new(fixed.clone(), fresh))
    });
    ladder.put("serve.submit_call_us", call);
    ladder.put("serve.idle_roundtrip_us", trip);
    ladder.put(
        "serve.self_us",
        trip - ladder.get("engine.run16_one_cached_us"),
    );
    // Host overlap as measured: the same fleet with 32 products in flight
    // against one at a time (whose rate the idle round trip just gave).
    let front = Front::Fleet(pool);
    let products = (3 * WINDOW / ladder.cut).max(WINDOW) as u64;
    let served_stream = workloads::find("served_stream").expect("a workload");
    let windowed = front.run_closed(
        &Load::new(inputs, served_stream, WARM_BASE + 2_000),
        Stop::Count(products),
        &mut Tracer::off(),
    );
    assert_eq!(windowed.good, products, "ladder products failed");
    ladder.put(
        "serve.window32_vs_window1_ratio",
        windowed.products_per_s() / (1e6 / trip),
    );
    front.shut_down();
}

fn net_rungs(
    ladder: &mut Ladder<'_>,
    inputs: &Inputs,
    backend: &SsaSoftware,
) -> Result<(), String> {
    let fixed = inputs.fixed();
    let (fresh, _) = inputs.fresh(WARM_BASE);
    let product = backend.multiply(fixed, &fresh).expect("operands fit");
    let submit = Frame::Submit {
        req_id: 1,
        a: WireOperand::Inline(fixed.clone()),
        b: WireOperand::Inline(fresh),
        deadline_nanos: None,
    };
    let answer = Frame::Product {
        req_id: 1,
        value: product,
    };
    for (frame, encode, decode, bytes) in [
        (
            &submit,
            "net.encode_submit_us",
            "net.decode_submit_us",
            "net.submit_frame_bytes",
        ),
        (
            &answer,
            "net.encode_product_us",
            "net.decode_product_us",
            "net.product_frame_bytes",
        ),
    ] {
        ladder.rung(encode, 15, || {
            black_box(frame.encode());
        });
        let encoded = frame.encode();
        ladder.rung(decode, 15, || {
            black_box(Frame::decode(&encoded, DEFAULT_MAX_FRAME_BYTES).expect("own encoding"));
        });
        ladder.put(bytes, encoded.len() as f64);
    }

    let (session, server) = spawn_remote(backend)?;
    ladder.rung("net.ping_rtt_us", 25, || {
        session.ping().expect("pong on loopback")
    });
    let (_, trip) = idle_round_trips(ladder, inputs, "net.idle_roundtrip_us", 16, |fresh| {
        session.submit(ProductRequest::new(fixed.clone(), fresh))
    });
    ladder.put("net.idle_roundtrip_us", trip);
    ladder.put("net.self_us", trip - ladder.get("serve.idle_roundtrip_us"));
    // The recurring operand registered once and referenced by pin id: 8
    // bytes on the wire where the inline form ships the whole operand.
    session
        .register("fixed", fixed.clone())
        .map_err(|e| format!("register over the wire: {e}"))?;
    let (_, pinned) = idle_round_trips(
        ladder,
        inputs,
        "net.pinned_idle_roundtrip_us",
        16,
        |fresh| session.submit_with("fixed", fresh),
    );
    ladder.put("net.pinned_idle_roundtrip_us", pinned);
    Front::Remote(session, server).shut_down();
    Ok(())
}

/// Simulated time from the cycle model, not host time: what the paper's
/// card would take, printed beside the measured rung it models. A
/// deterministic model, so these repeat exactly.
fn hwsim_rungs(ladder: &mut Ladder<'_>) {
    let fleet = FleetModel::paper(1);
    let card = fleet.per_card();
    ladder.put("hwsim.multiply_us_predicted", card.multiplication_us());
    ladder.put(
        "hwsim.one_cached_us_predicted",
        card.cached_multiplication_us(1),
    );
    ladder.put(
        "hwsim.fleet_products_per_s_predicted",
        fleet.products_per_second(WINDOW, 1),
    );
    ladder.put(
        "hwsim.host_overlap_speedup_predicted",
        fleet.host_overlap_speedup(3 * WINDOW, WINDOW, 1),
    );
}
