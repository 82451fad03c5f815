//! Traces the Fig. 2 data-distribution schedule: the 64K-point NTT over
//! four hypercube-connected PEs, with interleaved computation and
//! communication stages.
//!
//! Run with: `cargo run --release --example distributed_fft`

use he_accel::field::Fp;
use he_accel::hwsim::distributed::{DistributedNtt, PhaseReport};
use he_accel::hwsim::network::{schedule_64k, Hypercube};
use he_accel::ntt::{Ntt64k, N64K};
use he_accel::prelude::*;

fn main() -> Result<(), he_accel::hwsim::HwSimError> {
    let config = AcceleratorConfig::paper();
    println!(
        "distributed 64K-point NTT: P = {} PEs, hypercube dimension d = {}, l = 3 stages (l > d)\n",
        config.num_pes(),
        config.hypercube_dim()
    );

    println!("planned schedule (Fig. 2):");
    for phase in schedule_64k(config.num_pes()) {
        println!("  {phase}");
    }

    let cube = Hypercube::new(config.hypercube_dim());
    println!("\nhypercube exchange partners:");
    for d in 0..config.hypercube_dim() {
        println!("  dimension {d}: {:?}", cube.exchange_pairs(d));
    }

    // Run the transform on a test vector and show the measured schedule.
    let dist = DistributedNtt::new(config)?;
    let mut input = vec![Fp::ZERO; N64K];
    for (i, x) in input.iter_mut().enumerate() {
        *x = Fp::new(i as u64 + 1);
    }
    let (out, report) = dist.forward(&input);

    println!("\nmeasured run:");
    for phase in &report.phases {
        match phase {
            PhaseReport::Compute {
                label,
                radix,
                ffts_per_pe,
                cycles,
            } => println!("  {label}: {ffts_per_pe} radix-{radix} FFTs per PE, {cycles} cycles"),
            PhaseReport::Exchange {
                label,
                dimension,
                words_per_pe,
                cycles,
                overlapped,
            } => {
                println!(
                    "  {label}: dim-{dimension} exchange, {words_per_pe} words/PE, {cycles} cycles ({})",
                    if *overlapped { "fully overlapped" } else { "EXPOSED" }
                )
            }
        }
    }
    println!(
        "  total: {} cycles = {:.2} us at 200 MHz (paper: 30.7 us)",
        report.total_cycles(),
        report.total_cycles() as f64 * 5.0 / 1000.0
    );

    // Cross-check against the single-node reference plan.
    let reference = Ntt64k::new().forward(&input);
    assert_eq!(
        out, reference,
        "distributed result must match the reference"
    );
    println!("\ndistributed result verified against the single-node 64K plan.");

    // And the threaded execution (real PEs exchanging over channels).
    let parallel = dist.forward_parallel(&input);
    assert_eq!(parallel, reference);
    println!("multi-threaded PE execution (one thread per PE, mpsc links) verified too.");
    Ok(())
}
