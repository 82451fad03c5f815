//! The one reproduction entry point: regenerates every paper table and
//! figure plus the Section V cross-checks (the paper-to-module index is
//! the "Paper crosswalk" table in `ARCHITECTURE.md`).
//!
//! Run with: `cargo run --release -p he-bench --bin repro_all [TARGET]…`
//! where each `TARGET` is one of `table1 table2 fig1 fig2 fig3 fig4 fig5
//! micro stream primitives`; no argument regenerates all of them in that
//! order.

use he_bench::{operand, section};
use he_field::Fp;
use he_hwsim::accel::AcceleratorSim;
use he_hwsim::comparators::Table2;
use he_hwsim::device::STRATIX_V_5SGSMD8;
use he_hwsim::distributed::{DistributedNtt, PhaseReport};
use he_hwsim::fft_unit::{BaselineFft64, OptimizedFft64};
use he_hwsim::memory::{
    fft_read_pattern, fft_write_pattern, m20k_blocks_for, BankingScheme, LinearBanked, TwoDBanked,
    ARRAY_POINTS,
};
use he_hwsim::network::{schedule_64k, Hypercube};
use he_hwsim::pe::ProcessingElement;
use he_hwsim::perf::PerfModel;
use he_hwsim::primitive::PrimitiveCosts;
use he_hwsim::program::{PeInterpreter, PeProgram};
use he_hwsim::resources::{
    baseline28_primitives, baseline_fft64_unit, optimized_fft64_unit, proposed_primitives, Table1,
    TechFactors,
};
use he_hwsim::stream::StreamSim;
use he_hwsim::AcceleratorConfig;
use he_ntt::kernels::{self, Direction};
use he_ntt::N64K;

/// Every reproduction target, in the order a bare `repro_all` runs them.
const TARGETS: [(&str, fn()); 10] = [
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("micro", micro),
    ("stream", stream),
    ("primitives", primitives),
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|name| TARGETS.iter().all(|(target, _)| target != name))
    {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown target `{unknown}`; expected any of: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for (name, run) in TARGETS {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            run();
        }
    }
}

/// **Table I** (resource usage comparison) from the structural resource
/// model.
fn table1() {
    let config = AcceleratorConfig::paper();

    section("Table I — resource usage");
    let table = Table1::from_model(&config);
    println!("{}", table.render());
    println!(
        "paper values: proposed 104000 ALMs (40%), 116000 regs (11%), 256 DSP (13%), 8 Mbit (20%)"
    );
    println!("              [28]     231000 ALMs (88%), 336377 regs (31%), 720 DSP (37%)");
    println!(
        "\naverage ALM/register/DSP saving: {:.0}% (paper: \"around 60% saving\")",
        table.average_saving_pct()
    );

    section("model internals");
    let tech = TechFactors::default();
    let unit = optimized_fft64_unit();
    println!(
        "optimized FFT-64 unit: {} ALMs, {} FFs (primitive counts: {} adder bits, {} CSA bits, {} mux bits)",
        tech.alms(&unit),
        unit.ff_bits,
        unit.adder_bits,
        unit.csa_bits,
        unit.mux2_bits,
    );
    let proposed = proposed_primitives(&config);
    let baseline = baseline28_primitives();
    println!(
        "proposed accelerator primitives: {proposed:?}\nbaseline [28] primitives:        {baseline:?}"
    );
    println!(
        "\ndevice: {} ({} ALMs, {} regs, {} DSP, {:.1} Mbit BRAM)",
        STRATIX_V_5SGSMD8.name,
        STRATIX_V_5SGSMD8.alms,
        STRATIX_V_5SGSMD8.registers,
        STRATIX_V_5SGSMD8.dsp_blocks,
        STRATIX_V_5SGSMD8.bram_bits() as f64 / (1024.0 * 1024.0),
    );
}

/// **Table II** (execution-time comparison): the analytic model, the
/// cycle simulation, the published comparators, and the PE scaling series.
fn table2() {
    let config = AcceleratorConfig::paper();

    section("Table II — execution time");
    let table = Table2::from_model(config.clone());
    println!("{}", table.render());
    println!("paper values: FFT 30.7 / 125 / - / 250 / - ; mult 122 / 405 / 206 / 765 / 583");
    for c in &table.comparators {
        if let Some(s) = table.multiplication_speedup(c) {
            println!("  speedup vs {} ({}): {s:.2}x", c.tag, c.platform);
        }
    }
    println!(
        "  paper claims: 3.32x vs [28]; all others at least 1.69x — min here: {:.2}x",
        table.min_multiplication_speedup()
    );

    section("cycle simulation cross-check (paper-scale operands)");
    let sim = AcceleratorSim::paper();
    let a = operand(786_432, 1);
    let b = operand(786_432, 2);
    let (product, report) = sim.multiply(&a, &b).expect("operands fit");
    println!("{}", report.render());
    println!(
        "product bits: {} (verified elsewhere); simulated FFT: {:.2} us (paper 30.7)",
        product.bit_len(),
        report.fft_us()
    );
    let perf = PerfModel::new(config);
    println!(
        "transform caching [25]: {:.2} / {:.2} / {:.2} us for 2 / 1 / 0 fresh operands",
        perf.cached_multiplication_us(2),
        perf.cached_multiplication_us(1),
        perf.cached_multiplication_us(0),
    );

    section("Series B — T_FFT(P) scaling of the analytic model");
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "P", "stage64 cyc", "FFT cyc", "FFT us"
    );
    for p in [1usize, 2, 4, 8, 16] {
        let cfg = AcceleratorConfig::paper()
            .with_num_pes(p)
            .expect("power of two");
        let m = PerfModel::new(cfg);
        println!(
            "{:>4} {:>12} {:>12} {:>12.2}",
            p,
            m.stage64_cycles(),
            m.fft_cycles(),
            m.fft_us()
        );
    }
    println!("(P > 4 is model extrapolation: the 3-stage plan itself needs l > d)");
}

/// **Fig. 1** (Processing Element architecture) as a structural inventory
/// plus a functional walk-through of one compute stage.
fn fig1() {
    section("Fig. 1 — Processing Element architecture");
    for id in 0..4 {
        println!("{}", ProcessingElement::paper(id).describe());
    }

    section("one compute step on PE0");
    let mut pe = ProcessingElement::paper(0);
    println!("active buffer: {:?}", pe.active_buffer());

    // Feed one 64-point block through the FFT unit.
    let input: Vec<Fp> = (0..64).map(|i| Fp::new(i * i + 1)).collect();
    let out = OptimizedFft64::new().transform(&input, Direction::Forward);
    println!(
        "FFT-64: {} cycles, {} shift ops, {} carry-save ops, {} reductions on {} reductors",
        out.census.cycles,
        out.census.shift_ops,
        out.census.csa_ops,
        out.census.reductor_uses,
        out.census.reductors_instantiated
    );

    // Data route: where the 64 outputs land (8 consecutive words per cycle).
    print!("data route addresses for transform 0:");
    for cycle in 0..8 {
        print!("\n  cycle {cycle}: ");
        for slot in 0..8 {
            print!("{:>5}", pe.route_address(0, cycle, slot));
        }
    }
    println!();

    // End of stage: double-buffer swap while the neighbor's data arrives.
    pe.swap_buffers();
    println!(
        "stage end: buffers swapped -> computing from {:?} ({} swaps so far)",
        pe.active_buffer(),
        pe.buffer_swaps()
    );
}

/// **Fig. 2** (data distribution and exchange pattern): the planned
/// schedule, the measured schedule of an actual distributed run, and the
/// hypercube traffic.
fn fig2() {
    let config = AcceleratorConfig::paper();

    section("Fig. 2 — planned compute/exchange interleaving (bold = sub-FFT index)");
    for phase in schedule_64k(config.num_pes()) {
        println!("  {phase}");
    }

    section("hypercube (d = 2)");
    let cube = Hypercube::new(config.hypercube_dim());
    for d in 0..config.hypercube_dim() {
        println!("  dimension {d} pairs: {:?}", cube.exchange_pairs(d));
    }

    section("measured schedule of a real 64K run");
    let dist = DistributedNtt::new(config).expect("paper config");
    let input: Vec<Fp> = (0..N64K).map(|i| Fp::new(i as u64)).collect();
    let (_, report) = dist.forward(&input);
    for phase in &report.phases {
        match phase {
            PhaseReport::Compute {
                label,
                radix,
                ffts_per_pe,
                cycles,
            } => {
                println!("  {label}: {ffts_per_pe:>4} radix-{radix:<2} FFTs/PE {cycles:>6} cycles")
            }
            PhaseReport::Exchange {
                label,
                dimension,
                words_per_pe,
                cycles,
                overlapped,
            } => {
                println!(
                    "  {label}: dim-{dimension} exchange {words_per_pe:>6} words/PE {cycles:>6} cycles  [{}]",
                    if *overlapped { "overlapped" } else { "EXPOSED" }
                )
            }
        }
    }
    println!(
        "\n  total {} cycles = {:.2} us @ 200 MHz (paper: 30.7 us); network total {} words",
        report.total_cycles(),
        report.total_cycles() as f64 * 5.0 / 1000.0,
        report.total_traffic_words() * 4, // per-PE words × 4 PEs
    );

    section("initial data distribution (who owns what)");
    for pe in 0..4 {
        let count = (0..N64K).filter(|&n| dist.owner_input(n) == pe).count();
        let first = (0..N64K).find(|&n| dist.owner_input(n) == pe).unwrap();
        println!("  PE{pe}: {count} points (first global index {first})");
    }
}

/// **Fig. 3** (the baseline radix-64 unit of \[28\]): work census and
/// resource estimate of the unoptimized microarchitecture.
fn fig3() {
    section("Fig. 3 — baseline radix-64 unit ([28])");
    println!("structure: 64 chains x (shifter bank -> 8-input carry-save adder tree ->");
    println!("           carry-save accumulator -> Normalize -> AddMod), 64 reductors\n");

    let input: Vec<Fp> = (0..64).map(|i| Fp::new(i * 31 + 7)).collect();
    let unit = BaselineFft64::new();
    let out = unit.transform(&input, Direction::Forward);

    println!("one 64-point transform:");
    println!("  cycles                 {:>8}", out.census.cycles);
    println!("  shifter activations    {:>8}", out.census.shift_ops);
    println!("  carry-save ops         {:>8}", out.census.csa_ops);
    println!("  modular reductions     {:>8}", out.census.reductor_uses);
    println!(
        "  reductors instantiated {:>8}",
        out.census.reductors_instantiated
    );
    println!(
        "  write ports needed     {:>8}",
        out.census.write_ports_required
    );

    let reference = kernels::ntt_small(&input, Direction::Forward).expect("64 points");
    println!(
        "\nbit-exact against the reference NTT: {}",
        out.values == reference
    );

    let tech = TechFactors::default();
    let prims = baseline_fft64_unit();
    println!(
        "\nresource estimate of the unit: {} ALMs, {} FFs",
        tech.alms(&prims),
        prims.ff_bits
    );
}

/// **Fig. 4** (the optimized FFT-64 unit): the Eq. 5 sharing ablation
/// against the Fig. 3 baseline.
fn fig4() {
    section("Fig. 4 — optimized FFT-64 unit vs Fig. 3 baseline");
    println!("optimizations (Section IV-b): Eq. 5 shared first stage (4 computed +");
    println!("4 derived components), 4-shift twiddle mux (0/24/48/72 + subtract),");
    println!("early carry-save merge, Eq. 4 input pre-reduction, 8 time-multiplexed");
    println!("reductors (vs 64), 8-word memory parallelism (vs 64)\n");

    let input: Vec<Fp> = (0..64).map(|i| Fp::new(i * 131 + 3)).collect();
    let base = BaselineFft64::new().transform(&input, Direction::Forward);
    let opt = OptimizedFft64::new().transform(&input, Direction::Forward);
    assert_eq!(base.values, opt.values, "units must be bit-exact");

    println!(
        "{:<24} {:>12} {:>12} {:>8}",
        "per 64-point transform", "baseline", "optimized", "ratio"
    );
    let row = |name: &str, b: u64, o: u64| {
        println!(
            "{name:<24} {b:>12} {o:>12} {:>7.2}x",
            b as f64 / o.max(1) as f64
        );
    };
    row("shift ops", base.census.shift_ops, opt.census.shift_ops);
    row("carry-save ops", base.census.csa_ops, opt.census.csa_ops);
    row(
        "reductors",
        base.census.reductors_instantiated,
        opt.census.reductors_instantiated,
    );
    row(
        "write ports",
        base.census.write_ports_required,
        opt.census.write_ports_required,
    );
    row("cycles (throughput)", base.census.cycles, opt.census.cycles);

    let tech = TechFactors::default();
    let b = baseline_fft64_unit();
    let o = optimized_fft64_unit();
    println!(
        "\nresource estimates: baseline {} ALMs / {} FFs; optimized {} ALMs / {} FFs ({:.0}% ALM saving)",
        tech.alms(&b),
        b.ff_bits,
        tech.alms(&o),
        o.ff_bits,
        (1.0 - tech.alms(&o) as f64 / tech.alms(&b) as f64) * 100.0
    );
}

/// Replays every FFT read and write cycle of one 4×4 array against a
/// banking scheme: `(conflict-free cycles, conflicting cycles, peak load)`.
fn replay(scheme: &dyn BankingScheme) -> (usize, usize, usize) {
    let mut ok = 0usize;
    let mut conflicts = 0usize;
    let mut worst = 0usize;
    for transform in 0..(ARRAY_POINTS / 64) {
        let base = transform * 64;
        for cycle in 0..8 {
            for pattern in [
                fft_read_pattern(base, cycle),
                fft_write_pattern(base, cycle),
            ] {
                match scheme.check_cycle(&pattern) {
                    Ok(load) => {
                        ok += 1;
                        worst = worst.max(load.into_iter().max().unwrap_or(0));
                    }
                    Err(_) => conflicts += 1,
                }
            }
        }
    }
    (ok, conflicts, worst)
}

/// **Fig. 5** (the 2-D banked memory buffer): replays the FFT access
/// patterns against the 2-D scheme and the 1-D baseline.
fn fig5() {
    section("Fig. 5 — 2-D banked memory buffer");
    println!("4x4 banks of 256 x 64-bit words (2 M20K each); reads column-wise,");
    println!("writes row-wise, 8 words per cycle either way\n");

    println!(
        "{:<40} {:>10} {:>10} {:>12}",
        "scheme", "ok cycles", "conflicts", "peak load"
    );
    for scheme in [&TwoDBanked as &dyn BankingScheme, &LinearBanked] {
        let (ok, conflicts, worst) = replay(scheme);
        println!("{:<40} {ok:>10} {conflicts:>10} {worst:>12}", scheme.name());
    }
    println!("\nthe 1-D scheme collides on every strided (FFT read) cycle — the");
    println!("problem the paper's 2-D organization removes.");

    section("capacity accounting");
    println!(
        "one 4x4 array: {} points = 256 Kb in {} M20K blocks",
        ARRAY_POINTS,
        m20k_blocks_for(ARRAY_POINTS)
    );
    println!(
        "one PE buffer (16K points): {} M20K; double-buffered PE: {} M20K",
        m20k_blocks_for(16_384),
        2 * m20k_blocks_for(16_384)
    );
    println!("4 PEs: {} Mbit of operand store (Table I: 8 Mbit)", 4 * 2);
}

/// Section V cross-check: the per-PE micro-program's instruction-derived
/// cycle count equals the `T_FFT` formula.
fn micro() {
    let config = AcceleratorConfig::paper();

    section("micro-program execution (instruction-derived cycle count)");
    let program = PeProgram::for_64k_schedule(&config);
    let stats = PeInterpreter::new(config.clone())
        .execute(&program)
        .expect("schedule is conflict-free");
    println!(
        "per-PE schedule: {} micro-ops -> {} cycles ({} read bursts, {} twiddle bursts, {} words sent, {} link stalls)",
        program.ops().len(),
        stats.cycles,
        stats.read_bursts,
        stats.twiddle_bursts,
        stats.words_sent,
        stats.link_stall_cycles,
    );
    assert_eq!(stats.cycles, PerfModel::new(config).fft_cycles());
}

/// Section V cross-check: back-to-back multiplications are FFT-bound.
fn stream() {
    let config = AcceleratorConfig::paper();

    section("streaming throughput (extension: back-to-back multiplications)");
    let stream = StreamSim::new(config.clone()).run(16);
    println!(
        "steady-state interval: {} cycles = {:.2} us  ({:.0} multiplications/s)",
        stream.steady_interval_cycles().expect("16 entries"),
        stream.steady_interval_cycles().expect("16 entries") as f64 * config.clock_period_ns()
            / 1000.0,
        stream.throughput_per_second(),
    );
    println!("(isolated latency stays 122.4 us; the FFT array is the bottleneck)");
}

/// The model-side price of each DGHV primitive (AND = product + two
/// Barrett products).
fn primitives() {
    section("DGHV primitive costs on the accelerator (extension)");
    println!("{}", PrimitiveCosts::paper().render());
}
