//! Transform caching through the batch engine: prepare an operand once,
//! stream products against the cached spectrum — the "reduce the number of
//! FFT computations" optimization of the paper's reference [25], here on
//! the batch-first evaluation engine and in the accelerator's timing and
//! batch-schedule models.
//!
//! This walkthrough manages handles and batches by hand to expose the
//! mechanism; `examples/server_stream.rs` shows the production shape,
//! where a resident [`ServerPool`] does the batching and handle caching
//! behind a submit/await queue.
//!
//! Run with: `cargo run --release --example transform_caching`

use std::time::Instant;

use he_accel::hwsim::perf::PerfModel;
use he_accel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), MultiplyError> {
    let bits = he_accel::ssa::PAPER_OPERAND_BITS / 2;
    let stream_len = 8;
    println!("one fixed {bits}-bit operand times a stream of {stream_len} operands\n");

    let mut rng = StdRng::seed_from_u64(25);
    let fixed = UBig::random_bits(&mut rng, bits);
    let stream: Vec<UBig> = (0..stream_len)
        .map(|_| UBig::random_bits(&mut rng, bits))
        .collect();

    let engine = EvalEngine::new(SsaSoftware::paper());

    // Plain: three transforms per product, no session state.
    let start = Instant::now();
    let jobs: Vec<ProductJob> = stream.iter().map(|b| ProductJob::Raw(&fixed, b)).collect();
    let plain = engine.run(&jobs)?;
    let t_plain = start.elapsed();

    // Cached: prepare the fixed operand once, then two transforms per
    // product — the engine's dominant traffic shape.
    let start = Instant::now();
    let handle = engine.prepare(&fixed)?;
    let cached = engine.run_stream(&handle, &stream)?;
    let t_cached = start.elapsed();

    assert_eq!(plain, cached, "cached products must be bit-exact");
    println!(
        "software SSA through the engine ({} products, bit-exact):",
        stream.len()
    );
    println!("  raw jobs (3 transforms each)      {t_plain:>12.2?}");
    println!("  prepared handle (1 + 2·n)         {t_cached:>12.2?}");
    println!(
        "  measured saving                   {:>11.1}%",
        100.0 * (1.0 - t_cached.as_secs_f64() / t_plain.as_secs_f64())
    );

    // Both-prepared products (e.g. squaring a transformed accumulator):
    // pointwise + one inverse transform.
    let start = Instant::now();
    let spectra: Vec<OperandHandle> = stream
        .iter()
        .map(|b| engine.prepare(b))
        .collect::<Result<_, _>>()?;
    let jobs: Vec<ProductJob> = spectra
        .iter()
        .map(|tb| ProductJob::Prepared(&handle, tb))
        .collect();
    let both = engine.run(&jobs)?;
    let t_both = start.elapsed();
    assert_eq!(both, plain);
    println!("  both prepared (n + n products)    {t_both:>12.2?}");

    // The same accounting on the accelerator model (Section V formulas).
    let model = PerfModel::new(AcceleratorConfig::paper());
    println!("\naccelerator model (per product, 4 PEs @ 200 MHz):");
    for (label, fresh) in [
        ("nothing cached (3 transforms)", 2u64),
        ("one spectrum cached", 1),
        ("both spectra cached", 0),
    ] {
        println!(
            "  {label:<31} {:>8.2} us",
            model.cached_multiplication_us(fresh)
        );
    }
    println!(
        "\neach cached spectrum saves one full T_FFT = {:.2} us of the {:.1} us product",
        model.fft_us(),
        model.multiplication_us()
    );

    // And as a pipelined batch on the simulated accelerator: the engine's
    // jobs map onto the hardware's instruction stream, where recurring
    // operands shorten the makespan below the sum of isolated latencies.
    let hw = HardwareSim::paper();
    let small: Vec<UBig> = (0..4).map(|_| UBig::random_bits(&mut rng, 4_000)).collect();
    let hw_handle = hw.prepare(&small[0])?;
    let hw_jobs: Vec<ProductJob> = small[1..]
        .iter()
        .map(|b| ProductJob::OnePrepared(&hw_handle, b))
        .collect();
    let (hw_products, schedule) = hw.multiply_batch_with_report(&hw_jobs)?;
    for (product, b) in hw_products.iter().zip(&small[1..]) {
        assert_eq!(product, &(&small[0] * b));
    }
    println!(
        "\nsimulated accelerator batch of {}: makespan {:.1} us, {:.2}x over serial, {:.0} products/s",
        hw_jobs.len(),
        schedule.makespan_us(),
        schedule.speedup_vs_serial(),
        schedule.throughput_per_second()
    );
    Ok(())
}
