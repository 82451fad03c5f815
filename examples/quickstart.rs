//! Quickstart: multiply two 786,432-bit integers — the paper's workload —
//! with the classical algorithms, the Schönhage–Strassen multiplier, and
//! the simulated accelerator, and check they agree. Ends with the
//! batch-first session API: prepare a recurring operand once through
//! [`EvalEngine`] and stream products against the cached spectrum (see
//! `examples/transform_caching.rs` for the deep dive).
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Instant;

use he_accel::prelude::*;
use he_accel::{Karatsuba, Toom3};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), MultiplyError> {
    let bits = he_accel::ssa::PAPER_OPERAND_BITS;
    println!("generating two random {bits}-bit operands (the paper's DGHV 'small' setting)…");
    let mut rng = StdRng::seed_from_u64(2016);
    let a = UBig::random_bits(&mut rng, bits);
    let b = UBig::random_bits(&mut rng, bits);

    let time = |name: &str, f: &dyn Fn() -> Result<UBig, MultiplyError>| {
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        println!("  {name:<18} {elapsed:>12.2?}");
        result
    };

    println!("multiplying:");
    let karatsuba = time("karatsuba", &|| Karatsuba.multiply(&a, &b))?;
    let toom = time("toom-3", &|| Toom3.multiply(&a, &b))?;
    let ssa = SsaSoftware::paper();
    let ssa_product = time("schonhage-strassen", &|| ssa.multiply(&a, &b))?;

    assert_eq!(karatsuba, toom, "toom-3 disagrees");
    assert_eq!(karatsuba, ssa_product, "SSA disagrees");
    println!(
        "all software backends agree ({} product bits)",
        karatsuba.bit_len()
    );

    println!("\nsimulating the FPGA accelerator (4 PEs @ 200 MHz)…");
    let hw = HardwareSim::paper();
    let start = Instant::now();
    let (hw_product, report) = hw.multiply_with_report(&a, &b)?;
    let wall = start.elapsed();
    assert_eq!(hw_product, karatsuba, "hardware simulation disagrees");
    println!("bit-exact against software (simulation wall time {wall:.2?})");
    println!("\n{}", report.render());
    println!(
        "the paper reports ~122 us for this multiplication; the model gives {:.1} us",
        report.total_us()
    );

    // Server-style traffic: one recurring operand times a stream. Prepare
    // `a` once — its forward transform is cached behind the handle — and
    // run the whole batch through the engine.
    println!("\nbatch engine: 4 products against a prepared operand…");
    let engine = EvalEngine::new(SsaSoftware::paper());
    let handle = engine.prepare(&a)?;
    let stream: Vec<UBig> = (0..4)
        .map(|_| UBig::random_bits(&mut rng, bits / 2))
        .collect();
    let start = Instant::now();
    let products = engine.run_stream(&handle, &stream)?;
    let elapsed = start.elapsed();
    for (product, b) in products.iter().zip(&stream) {
        assert_eq!(product, &Karatsuba.multiply(&a, b)?);
    }
    println!(
        "{} cached-operand products in {elapsed:.2?}, bit-exact against karatsuba",
        products.len()
    );
    Ok(())
}
