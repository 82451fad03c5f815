//! The FPGA resource model behind Table I.
//!
//! Strategy: count **architectural primitives** (adder bits, carry-save
//! compressor bits, mux bits, registers, DSP blocks, memory bits) directly
//! from the two microarchitectures — the baseline radix-64 unit of \[28\]
//! (Fig. 3) and the paper's optimized unit (Fig. 4) — then convert to ALMs
//! with one shared set of technology factors. The factors are standard
//! Stratix-V rules of thumb (an ALM implements two result bits of an adder,
//! four 2:1-mux bits, …) plus a single routing/control overhead factor; the
//! *same* factors are applied to both designs, so the headline claim
//! (≈ 60 % saving, Table I) is a prediction of the structural counts, not a
//! per-design fit.
//!
//! Where the counts come from (paper Section IV):
//!
//! * both datapaths operate on ≤ 192-bit values (`2^192 ≡ 1`), so carry-save
//!   trees and accumulators are 192 bits wide;
//! * baseline: 64 chains, each with 8 variable shifters, an 8-input
//!   carry-save adder tree, a carry-save accumulator and **its own** modular
//!   reductor; deeply pipelined (hence \[28\]'s large register count);
//! * optimized: Eq. 4 input pre-reduction, **4 computed + 4 derived**
//!   first-stage components (Eq. 5), a 4-way shift mux (0/24/48/72 bits)
//!   per accumulator block, carry-save merged right after the adder tree,
//!   and only **8 time-multiplexed reductors**;
//! * modular multipliers: proposed = four 32×32 partials at 2 DSP each
//!   (8 DSP); baseline = nine 27×27 partials (9 DSP, no splitting trick);
//! * memory: double-buffered 16K × 64-bit per PE = 2 Mbit, 8 Mbit total.

use crate::config::AcceleratorConfig;
use crate::device::{FpgaDevice, STRATIX_V_5SGSMD8};

/// Width of the end-around-carry datapath (bits).
pub const DATAPATH_BITS: u64 = 192;

/// Raw primitive counts of a hardware component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimitiveCount {
    /// Carry-propagate adder result bits.
    pub adder_bits: u64,
    /// 3:2 carry-save compressor bits.
    pub csa_bits: u64,
    /// 2:1-mux-equivalent bits (a 4:1 mux is two levels, an 8:1 three).
    pub mux2_bits: u64,
    /// XOR/negation bits (conditional subtract support).
    pub xor_bits: u64,
    /// Flip-flops.
    pub ff_bits: u64,
    /// DSP blocks.
    pub dsp_blocks: u64,
    /// Embedded memory bits.
    pub bram_bits: u64,
}

impl PrimitiveCount {
    /// The empty count.
    pub const ZERO: PrimitiveCount = PrimitiveCount {
        adder_bits: 0,
        csa_bits: 0,
        mux2_bits: 0,
        xor_bits: 0,
        ff_bits: 0,
        dsp_blocks: 0,
        bram_bits: 0,
    };

    /// Component replicated `n` times.
    pub fn scale(self, n: u64) -> PrimitiveCount {
        PrimitiveCount {
            adder_bits: self.adder_bits * n,
            csa_bits: self.csa_bits * n,
            mux2_bits: self.mux2_bits * n,
            xor_bits: self.xor_bits * n,
            ff_bits: self.ff_bits * n,
            dsp_blocks: self.dsp_blocks * n,
            bram_bits: self.bram_bits * n,
        }
    }
}

impl core::ops::Add for PrimitiveCount {
    type Output = PrimitiveCount;

    fn add(self, rhs: PrimitiveCount) -> PrimitiveCount {
        PrimitiveCount {
            adder_bits: self.adder_bits + rhs.adder_bits,
            csa_bits: self.csa_bits + rhs.csa_bits,
            mux2_bits: self.mux2_bits + rhs.mux2_bits,
            xor_bits: self.xor_bits + rhs.xor_bits,
            ff_bits: self.ff_bits + rhs.ff_bits,
            dsp_blocks: self.dsp_blocks + rhs.dsp_blocks,
            bram_bits: self.bram_bits + rhs.bram_bits,
        }
    }
}

impl core::iter::Sum for PrimitiveCount {
    fn sum<I: Iterator<Item = PrimitiveCount>>(iter: I) -> PrimitiveCount {
        iter.fold(PrimitiveCount::ZERO, core::ops::Add::add)
    }
}

/// Technology conversion factors (Stratix V rules of thumb), shared by both
/// designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechFactors {
    /// ALMs per carry-propagate adder bit (one ALM adds two bits).
    pub alm_per_adder_bit: f64,
    /// ALMs per 3:2 compressor bit.
    pub alm_per_csa_bit: f64,
    /// ALMs per 2:1-mux bit (one ALM muxes four bits).
    pub alm_per_mux2_bit: f64,
    /// ALMs per XOR bit.
    pub alm_per_xor_bit: f64,
    /// Multiplicative overhead for routing, control FSMs and glue.
    pub routing_factor: f64,
}

impl Default for TechFactors {
    fn default() -> TechFactors {
        TechFactors {
            alm_per_adder_bit: 0.5,
            alm_per_csa_bit: 0.5,
            alm_per_mux2_bit: 0.25,
            alm_per_xor_bit: 0.25,
            routing_factor: 1.25,
        }
    }
}

impl TechFactors {
    /// Converts a primitive count to ALMs.
    pub fn alms(&self, c: &PrimitiveCount) -> u64 {
        let raw = c.adder_bits as f64 * self.alm_per_adder_bit
            + c.csa_bits as f64 * self.alm_per_csa_bit
            + c.mux2_bits as f64 * self.alm_per_mux2_bit
            + c.xor_bits as f64 * self.alm_per_xor_bit;
        (raw * self.routing_factor).round() as u64
    }
}

// --- shared sub-components ---------------------------------------------------

/// Eq. 4 word-level reduction logic: `2^32(b+c) − a − b + d` plus the final
/// AddMod correction; `input_bits` is the width of the value being reduced.
pub fn modular_reductor(input_bits: u64) -> PrimitiveCount {
    // Fold 192 → 128 costs one extra 128-bit subtract when the input is the
    // full datapath.
    let fold = if input_bits > 128 { 128 } else { 0 };
    PrimitiveCount {
        // (b+c): 33 bits; +d: 65; −(a+b): 66; AddMod: 65.
        adder_bits: fold + 33 + 65 + 66 + 65,
        mux2_bits: 64, // AddMod select
        ff_bits: 2 * 64,
        ..PrimitiveCount::ZERO
    }
}

/// A 64×64→64 modular multiplier in the proposed style: four 32×32 partial
/// products (2 DSP each), two alignment adders, Eq. 4 reduction.
pub fn modmul_proposed() -> PrimitiveCount {
    PrimitiveCount {
        adder_bits: 2 * 128,
        ff_bits: 4 * 128, // pipeline registers
        dsp_blocks: 8,
        ..PrimitiveCount::ZERO
    } + modular_reductor(128)
}

/// A 64×64→64 modular multiplier in the baseline style: nine 27×27 partial
/// products (1 DSP each, 22-bit limbs), deeper alignment tree, Eq. 4
/// reduction. One more DSP and more registers than the proposed splitting.
pub fn modmul_baseline() -> PrimitiveCount {
    PrimitiveCount {
        adder_bits: 4 * 128,
        ff_bits: 8 * 128, // deeper pipeline
        dsp_blocks: 9,
        ..PrimitiveCount::ZERO
    } + modular_reductor(128)
}

// --- the two FFT-64 microarchitectures ---------------------------------------

/// One computing chain of the baseline (Fig. 3) radix-64 unit.
pub fn baseline_chain() -> PrimitiveCount {
    let w = DATAPATH_BITS;
    PrimitiveCount {
        // 8 variable shifters (8 positions → 3 mux levels) feeding the
        // tree, plus per-chain input sample routing (8:1 on 64-bit words) —
        // work the optimized unit's shared first stage removes entirely.
        mux2_bits: 8 * 3 * w + 8 * 3 * 64,
        // 8→2 carry-save adder tree (6 compressors) + carry-save accumulator
        // (2 compressors).
        csa_bits: (6 + 2) * w,
        adder_bits: 0,
        xor_bits: 0,
        // Deep pipelining: shifter staging, three tree levels (carry-save =
        // 2 vectors), accumulator (2 vectors), reductor staging.
        ff_bits: 4 * w + 3 * 2 * w + 2 * w + 2 * w,
        dsp_blocks: 0,
        bram_bits: 0,
    } + modular_reductor(DATAPATH_BITS) // one reductor per chain
}

/// The complete baseline radix-64 unit: 64 chains (each with its own
/// modular reductor) and 64-word memory parallelism.
pub fn baseline_fft64_unit() -> PrimitiveCount {
    baseline_chain().scale(64)
}

/// The paper's optimized FFT-64 unit (Fig. 4).
pub fn optimized_fft64_unit() -> PrimitiveCount {
    let w = DATAPATH_BITS;

    // Eq. 4 pre-reduction of the 8 input samples (bit-width reduction
    // "before Stage 1").
    let prereduce = PrimitiveCount {
        adder_bits: 33 + 65 + 66,
        ff_bits: 64,
        ..PrimitiveCount::ZERO
    }
    .scale(8);

    // Stage 1: 4 computed components. Shifter banks are fixed wiring; the
    // cost is the 8→2 carry-save tree, the early carry-save merge (paper:
    // "merged carry-save vectors immediately after the adder tree") and the
    // modified tree's even/odd difference output.
    let computed = PrimitiveCount {
        csa_bits: 6 * w + 2 * w, // tree + difference taps
        adder_bits: 2 * w,       // merge CPA for sum and for difference
        ff_bits: 2 * w,          // one pipeline stage hiding the merge latency
        ..PrimitiveCount::ZERO
    }
    .scale(4);

    // Per-cycle rotations: ω_64^{j·k1} on all 8 components and the extra
    // ω_16^j on the 4 derived ones (8 positions → 3 mux levels each).
    let rotations = PrimitiveCount {
        mux2_bits: 8 * 3 * w + 4 * 3 * w,
        ff_bits: 8 * w,
        ..PrimitiveCount::ZERO
    };

    // Twiddle stage: one 4:1 shift mux (0/24/48/72) per accumulator block.
    let twiddle_mux = PrimitiveCount {
        mux2_bits: 2 * w,
        ..PrimitiveCount::ZERO
    }
    .scale(8);

    // 64 add/sub accumulators on the merged (carry-propagate) datapath.
    let accumulators = PrimitiveCount {
        adder_bits: w,
        xor_bits: w, // subtract support
        ff_bits: w,
        ..PrimitiveCount::ZERO
    }
    .scale(64);

    // 8 time-multiplexed reductors with 8:1 input muxes.
    let reductors = (modular_reductor(DATAPATH_BITS)
        + PrimitiveCount {
            mux2_bits: 3 * w,
            ..PrimitiveCount::ZERO
        })
    .scale(8);

    prereduce + computed + rotations + twiddle_mux + accumulators + reductors
}

// --- whole-accelerator assemblies --------------------------------------------

/// Per-PE double-buffered banked memory: `2 × points × 64` bits.
pub fn pe_buffer_bram(points_per_pe: u64) -> PrimitiveCount {
    PrimitiveCount {
        bram_bits: 2 * points_per_pe * 64,
        // Address generators / bank decoders (data route is "just a memory
        // address generator").
        adder_bits: 4 * 16,
        ff_bits: 4 * 16,
        ..PrimitiveCount::ZERO
    }
}

/// A usage summary in Table I units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceReport {
    /// Design name.
    pub name: String,
    /// ALMs used.
    pub alms: u64,
    /// Registers used.
    pub registers: u64,
    /// DSP blocks used.
    pub dsp_blocks: u64,
    /// Embedded memory bits used.
    pub bram_bits: u64,
}

impl ResourceReport {
    /// Builds a report from primitive counts.
    pub fn from_primitives(name: &str, c: &PrimitiveCount, tech: &TechFactors) -> ResourceReport {
        ResourceReport {
            name: name.to_string(),
            alms: tech.alms(c),
            registers: (c.ff_bits as f64 * tech.routing_factor).round() as u64,
            dsp_blocks: c.dsp_blocks,
            bram_bits: c.bram_bits,
        }
    }

    /// Memory usage in Mbit (`2^20` bits), as Table I reports it.
    pub fn bram_mbit(&self) -> f64 {
        self.bram_bits as f64 / (1024.0 * 1024.0)
    }
}

/// Primitive inventory of a single PE: one optimized FFT-64 unit, 8
/// twiddle modular multipliers (reused for the dot product) and a
/// double-buffered local memory.
pub fn pe_primitives(config: &AcceleratorConfig) -> PrimitiveCount {
    let points_per_pe = 65_536 / config.num_pes() as u64;
    optimized_fft64_unit() + modmul_proposed().scale(8) + pe_buffer_bram(points_per_pe)
}

/// Primitive inventory of the proposed accelerator: `P` PEs.
pub fn proposed_primitives(config: &AcceleratorConfig) -> PrimitiveCount {
    pe_primitives(config).scale(config.num_pes() as u64)
}

/// Resource report of a single PE — used to check the multi-board
/// Cyclone V prototype, which places one PE per board.
pub fn single_pe_report(config: &AcceleratorConfig) -> ResourceReport {
    ResourceReport::from_primitives(
        "one PE (optimized FFT-64 + 8 modmuls + buffers)",
        &pe_primitives(config),
        &TechFactors::default(),
    )
}

/// Primitive inventory of the baseline design (\[28\]): one radix-64 unit
/// with 64 chains and 64 private reductors, 64 twiddle lanes plus 16
/// dot-product multipliers in the baseline modmul style (9 DSP each), no
/// banked on-chip operand store reported.
pub fn baseline28_primitives() -> PrimitiveCount {
    baseline_fft64_unit() + modmul_baseline().scale(80)
}

/// Builds the proposed design's resource report.
pub fn proposed_report(config: &AcceleratorConfig) -> ResourceReport {
    ResourceReport::from_primitives(
        "Proposed (4 PEs, optimized FFT-64)",
        &proposed_primitives(config),
        &TechFactors::default(),
    )
}

/// Builds the baseline design's resource report.
pub fn baseline28_report() -> ResourceReport {
    ResourceReport::from_primitives(
        "[28] (baseline radix-64 unit)",
        &baseline28_primitives(),
        &TechFactors::default(),
    )
}

/// The assembled Table I.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The proposed design's usage.
    pub proposed: ResourceReport,
    /// The baseline design's usage.
    pub baseline: ResourceReport,
    /// The device both are placed on.
    pub device: FpgaDevice,
}

impl Table1 {
    /// Assembles Table I for a configuration on the paper's device.
    pub fn from_model(config: &AcceleratorConfig) -> Table1 {
        Table1 {
            proposed: proposed_report(config),
            baseline: baseline28_report(),
            device: STRATIX_V_5SGSMD8,
        }
    }

    /// Average resource saving of the proposed design over the baseline
    /// across ALMs, registers and DSPs (the paper: "around 60% saving in
    /// hardware costs").
    pub fn average_saving_pct(&self) -> f64 {
        let ratios = [
            self.proposed.alms as f64 / self.baseline.alms as f64,
            self.proposed.registers as f64 / self.baseline.registers as f64,
            self.proposed.dsp_blocks as f64 / self.baseline.dsp_blocks as f64,
        ];
        (1.0 - ratios.iter().sum::<f64>() / ratios.len() as f64) * 100.0
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let d = &self.device;
        let pct = |used: u64, cap: u64| d.utilization_pct(used, cap);
        let mut out = String::new();
        out.push_str("TABLE I. COMPARISON OF RESOURCE USAGE.\n");
        out.push_str(&format!(
            "{:<12} {:>22} {:>22}\n",
            "", "Proposed here", "[28]"
        ));
        out.push_str(&format!(
            "{:<12} {:>13} ({:>3.0}%) {:>15} ({:>3.0}%)\n",
            "ALMs",
            self.proposed.alms,
            pct(self.proposed.alms, d.alms),
            self.baseline.alms,
            pct(self.baseline.alms, d.alms),
        ));
        out.push_str(&format!(
            "{:<12} {:>13} ({:>3.0}%) {:>15} ({:>3.0}%)\n",
            "Registers",
            self.proposed.registers,
            pct(self.proposed.registers, d.registers),
            self.baseline.registers,
            pct(self.baseline.registers, d.registers),
        ));
        out.push_str(&format!(
            "{:<12} {:>13} ({:>3.0}%) {:>15} ({:>3.0}%)\n",
            "DSP blocks",
            self.proposed.dsp_blocks,
            pct(self.proposed.dsp_blocks, d.dsp_blocks),
            self.baseline.dsp_blocks,
            pct(self.baseline.dsp_blocks, d.dsp_blocks),
        ));
        out.push_str(&format!(
            "{:<12} {:>11.1}Mb ({:>3.0}%) {:>21}\n",
            "M20K SRAM",
            self.proposed.bram_mbit(),
            pct(self.proposed.bram_bits, d.bram_bits()),
            "-",
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I targets.
    const PAPER_PROPOSED: (u64, u64, u64, f64) = (104_000, 116_000, 256, 8.0);
    const PAPER_BASELINE: (u64, u64, u64) = (231_000, 336_377, 720);

    fn within(actual: u64, target: u64, tol_pct: f64) -> bool {
        let diff = (actual as f64 - target as f64).abs() / target as f64 * 100.0;
        diff <= tol_pct
    }

    #[test]
    fn dsp_counts_are_exact() {
        let t = Table1::from_model(&AcceleratorConfig::paper());
        // 4 PEs × 8 modmuls × 8 DSP = 256; baseline 80 × 9 = 720.
        assert_eq!(t.proposed.dsp_blocks, PAPER_PROPOSED.2);
        assert_eq!(t.baseline.dsp_blocks, PAPER_BASELINE.2);
    }

    #[test]
    fn memory_is_8_mbit() {
        let t = Table1::from_model(&AcceleratorConfig::paper());
        assert!((t.proposed.bram_mbit() - PAPER_PROPOSED.3).abs() < 0.01);
    }

    #[test]
    fn alm_and_register_estimates_near_paper() {
        let t = Table1::from_model(&AcceleratorConfig::paper());
        assert!(
            within(t.proposed.alms, PAPER_PROPOSED.0, 15.0),
            "proposed ALMs {} vs paper {}",
            t.proposed.alms,
            PAPER_PROPOSED.0
        );
        assert!(
            within(t.proposed.registers, PAPER_PROPOSED.1, 15.0),
            "proposed registers {} vs paper {}",
            t.proposed.registers,
            PAPER_PROPOSED.1
        );
        assert!(
            within(t.baseline.alms, PAPER_BASELINE.0, 15.0),
            "baseline ALMs {} vs paper {}",
            t.baseline.alms,
            PAPER_BASELINE.0
        );
        assert!(
            within(t.baseline.registers, PAPER_BASELINE.1, 15.0),
            "baseline registers {} vs paper {}",
            t.baseline.registers,
            PAPER_BASELINE.1
        );
    }

    #[test]
    fn saving_is_around_60_pct() {
        let t = Table1::from_model(&AcceleratorConfig::paper());
        let saving = t.average_saving_pct();
        assert!(
            (50.0..=70.0).contains(&saving),
            "average saving {saving:.1}% should be around 60%"
        );
    }

    #[test]
    fn fits_on_the_device() {
        let t = Table1::from_model(&AcceleratorConfig::paper());
        assert!(t.proposed.alms < t.device.alms);
        assert!(t.proposed.registers < t.device.registers);
        assert!(t.proposed.dsp_blocks < t.device.dsp_blocks);
        assert!(t.proposed.bram_bits < t.device.bram_bits());
    }

    #[test]
    fn render_contains_all_rows() {
        let t = Table1::from_model(&AcceleratorConfig::paper());
        let s = t.render();
        for label in ["ALMs", "Registers", "DSP blocks", "M20K SRAM"] {
            assert!(s.contains(label), "missing {label}:\n{s}");
        }
    }

    #[test]
    fn one_pe_fits_a_cyclone_v_board() {
        // Section IV: the first prototype used low-end Cyclone V boards,
        // one PE each. ALM/DSP must fit; the Cyclone's M10K capacity is the
        // squeeze (the prototype used reduced buffering / off-chip RAM).
        use crate::device::CYCLONE_V_5CGXC7;
        let pe = single_pe_report(&AcceleratorConfig::paper());
        assert!(
            pe.alms < CYCLONE_V_5CGXC7.alms,
            "PE {} ALMs vs Cyclone {}",
            pe.alms,
            CYCLONE_V_5CGXC7.alms
        );
        assert!(pe.dsp_blocks < CYCLONE_V_5CGXC7.dsp_blocks);
    }

    #[test]
    fn optimized_unit_cheaper_than_baseline_unit() {
        let tech = TechFactors::default();
        let opt = tech.alms(&optimized_fft64_unit());
        let base = tech.alms(&baseline_fft64_unit());
        // The unit-level saving must exceed 50% (it is where the 60%
        // system-level saving comes from).
        assert!(
            (opt as f64) < 0.5 * base as f64,
            "optimized {opt} vs baseline {base}"
        );
    }
}
