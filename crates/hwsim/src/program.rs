//! Micro-program model of the PE control path.
//!
//! The timing formulas of Section V say *how long* the schedule takes; this
//! module shows *why*, by compiling each PE's work into the burst-level
//! micro-operations its control FSM would actually sequence —
//! read bursts, FFT issues, twiddle bursts, write bursts, posted exchange
//! transfers, buffer swaps — and interpreting them against the bank-conflict
//! and link-bandwidth models. The interpreted cycle count of the full
//! five-phase 64K schedule lands exactly on the analytic model's 6,144
//! cycles (asserted in tests), so the paper's formula is *derived* from an
//! instruction stream rather than assumed.
//!
//! Reproduces Section V's `T_FFT`; `tests/paper_numbers.rs`
//! (`instruction_stream_reproduces_fft_cycles`) holds the cross-check.

use crate::config::AcceleratorConfig;
use crate::error::HwSimError;
use crate::memory::{fft_read_pattern, fft_write_pattern, BankingScheme, TwoDBanked};

#[cfg(test)]
use crate::perf::PerfModel;

/// One micro-operation of the PE control FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Fetch 8 stride-8 samples of a transform (one cycle; occupies both
    /// read ports of one bank column of the active buffer).
    ReadBurst {
        /// Transform index within the stage (addresses derive from it).
        transform: u32,
        /// Fetch cycle 0–7 (radix-64) or 0–1 (radix-16).
        cycle: u8,
    },
    /// Write 8 consecutive reduced outputs (one cycle, overlapped with the
    /// next transform's reads — different bank array).
    WriteBurst {
        /// Transform index within the stage.
        transform: u32,
        /// Emission cycle.
        cycle: u8,
    },
    /// Issue 8 twiddle multiplications (pipelined on the DSP multipliers;
    /// rides along with a read burst, no extra cycle).
    TwiddleBurst,
    /// Post `words` outgoing words to the hypercube link; the link drains
    /// in the background at the configured width.
    PostExchange {
        /// Words handed to the link engine.
        words: u32,
    },
    /// End of stage: wait for the link to drain, then swap the double
    /// buffers.
    SwapBuffers,
}

/// A per-PE micro-program.
#[derive(Debug, Clone, Default)]
pub struct PeProgram {
    ops: Vec<MicroOp>,
}

impl PeProgram {
    /// An empty program.
    pub fn new() -> PeProgram {
        PeProgram::default()
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Appends one radix-64 compute stage of `transforms` transforms, with
    /// twiddle bursts when `twiddled` (stages C2/C3 multiply by inter-stage
    /// factors on the way in).
    pub fn push_radix64_stage(&mut self, transforms: u32, twiddled: bool) {
        for t in 0..transforms {
            for cycle in 0..8u8 {
                self.ops.push(MicroOp::ReadBurst {
                    transform: t,
                    cycle,
                });
                if twiddled {
                    self.ops.push(MicroOp::TwiddleBurst);
                }
                // The readout of transform t−1 writes while t reads.
                if t > 0 {
                    self.ops.push(MicroOp::WriteBurst {
                        transform: t - 1,
                        cycle,
                    });
                }
            }
        }
        // Drain the final transform's outputs (overlapped with the next
        // stage's first reads in steady state; counted free here exactly
        // like the paper's formula does).
        for cycle in 0..8u8 {
            self.ops.push(MicroOp::WriteBurst {
                transform: transforms - 1,
                cycle,
            });
        }
    }

    /// Appends one radix-16 compute stage (two fetch cycles per transform).
    pub fn push_radix16_stage(&mut self, transforms: u32, twiddled: bool) {
        for t in 0..transforms {
            for cycle in 0..2u8 {
                self.ops.push(MicroOp::ReadBurst {
                    transform: t,
                    cycle,
                });
                if twiddled {
                    self.ops.push(MicroOp::TwiddleBurst);
                }
                if t > 0 {
                    self.ops.push(MicroOp::WriteBurst {
                        transform: t - 1,
                        cycle,
                    });
                }
            }
        }
        for cycle in 0..2u8 {
            self.ops.push(MicroOp::WriteBurst {
                transform: transforms - 1,
                cycle,
            });
        }
    }

    /// Appends an exchange: post the words, then (at the stage boundary)
    /// wait and swap.
    pub fn push_exchange(&mut self, words: u32) {
        self.ops.push(MicroOp::PostExchange { words });
        self.ops.push(MicroOp::SwapBuffers);
    }

    /// Compiles the full per-PE program of the paper's five-phase 64K
    /// schedule for `config`.
    pub fn for_64k_schedule(config: &AcceleratorConfig) -> PeProgram {
        let pes = config.num_pes() as u32;
        let local_points = 65_536 / pes;
        let mut program = PeProgram::new();
        // C1: 1024/P radix-64 transforms (no input twiddle).
        program.push_radix64_stage(1024 / pes, false);
        if pes >= 2 {
            program.push_exchange(local_points / 2);
        }
        // C2: twiddled radix-64.
        program.push_radix64_stage(1024 / pes, true);
        if pes >= 4 {
            program.push_exchange(local_points / 2);
        }
        // C3: twiddled radix-16.
        program.push_radix16_stage(4096 / pes, true);
        program
    }
}

/// Execution statistics of one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Total cycles consumed.
    pub cycles: u64,
    /// Read bursts issued.
    pub read_bursts: u64,
    /// Write bursts issued.
    pub write_bursts: u64,
    /// Twiddle bursts issued (8 DSP multiplications each).
    pub twiddle_bursts: u64,
    /// Words posted to the link.
    pub words_sent: u64,
    /// Cycles the PE stalled waiting for the link at buffer swaps.
    pub link_stall_cycles: u64,
    /// Buffer swaps performed.
    pub buffer_swaps: u64,
}

/// Interprets micro-programs against the memory and link models.
#[derive(Debug, Clone)]
pub struct PeInterpreter {
    config: AcceleratorConfig,
    banking: TwoDBanked,
}

impl PeInterpreter {
    /// Creates an interpreter for a configuration.
    pub fn new(config: AcceleratorConfig) -> PeInterpreter {
        PeInterpreter {
            config,
            banking: TwoDBanked,
        }
    }

    /// Executes a program, checking every burst against the bank model.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::BankConflict`] if any burst over-subscribes a
    /// bank — by construction of the Fig. 5 mapping this cannot happen, so
    /// an error here means the program generator emitted an illegal access
    /// pattern.
    pub fn execute(&self, program: &PeProgram) -> Result<ExecutionStats, HwSimError> {
        let mut stats = ExecutionStats::default();
        let mut clock = 0u64;
        let mut link_busy_until = 0u64;
        // First cycle of the stage currently executing: exchange data is
        // produced throughout the stage, so the link can drain from here.
        let mut stage_start = 0u64;
        let link_rate = self.config.link_words_per_cycle() as u64;

        for op in program.ops() {
            match *op {
                MicroOp::ReadBurst { transform, cycle } => {
                    // The burst address pattern cycles within a 4096-point
                    // array; transforms wrap across the buffer's arrays.
                    let base = (transform as usize * 64) % 4096;
                    self.banking
                        .check_cycle(&fft_read_pattern(base, cycle as usize))?;
                    stats.read_bursts += 1;
                    clock += 1; // reads pace the pipeline
                }
                MicroOp::WriteBurst { transform, cycle } => {
                    let base = (transform as usize * 64) % 4096;
                    self.banking
                        .check_cycle(&fft_write_pattern(base, cycle as usize))?;
                    stats.write_bursts += 1;
                    // Overlapped with the paired read burst (different bank
                    // array): no cycle cost of its own.
                }
                MicroOp::TwiddleBurst => {
                    stats.twiddle_bursts += 1;
                    // Pipelined on the DSPs alongside the read burst.
                }
                MicroOp::PostExchange { words } => {
                    stats.words_sent += words as u64;
                    // The link drains in the background, starting no
                    // earlier than the producing stage's first cycle (data
                    // streams out as it is computed — the double-buffering
                    // overlap) and no earlier than its previous transfer.
                    let drain = (words as u64).div_ceil(link_rate);
                    link_busy_until = link_busy_until.max(stage_start) + drain;
                }
                MicroOp::SwapBuffers => {
                    if link_busy_until > clock {
                        stats.link_stall_cycles += link_busy_until - clock;
                        clock = link_busy_until;
                    }
                    stats.buffer_swaps += 1;
                    stage_start = clock;
                }
            }
        }
        stats.cycles = clock;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_program_reproduces_the_fft_cycle_count() {
        let config = AcceleratorConfig::paper();
        let program = PeProgram::for_64k_schedule(&config);
        let stats = PeInterpreter::new(config.clone())
            .execute(&program)
            .unwrap();
        let model = PerfModel::new(config);
        assert_eq!(
            stats.cycles,
            model.fft_cycles(),
            "instruction-derived count"
        );
        assert_eq!(stats.cycles, 6144);
        assert_eq!(stats.link_stall_cycles, 0, "paper links fully overlap");
        assert_eq!(stats.buffer_swaps, 2);
    }

    #[test]
    fn burst_counts_match_the_stage_structure() {
        let config = AcceleratorConfig::paper();
        let program = PeProgram::for_64k_schedule(&config);
        let stats = PeInterpreter::new(config.clone())
            .execute(&program)
            .unwrap();
        // 256 transforms × 8 bursts in C1 and C2; 1024 × 2 in C3.
        assert_eq!(stats.read_bursts, 256 * 8 + 256 * 8 + 1024 * 2);
        assert_eq!(stats.write_bursts, stats.read_bursts);
        // Twiddles only in C2 and C3: 8 multiplications per burst ×
        // (2048 + 2048) bursts = 16K points per PE per twiddled stage.
        assert_eq!(stats.twiddle_bursts, 256 * 8 + 1024 * 2);
        assert_eq!(stats.words_sent, 2 * 8192);
    }

    #[test]
    fn narrow_links_stall_the_swap() {
        let config = AcceleratorConfig::cyclone_prototype();
        let program = PeProgram::for_64k_schedule(&config);
        let stats = PeInterpreter::new(config.clone())
            .execute(&program)
            .unwrap();
        assert!(stats.link_stall_cycles > 0, "serial links must stall");
        let model = PerfModel::new(config);
        assert_eq!(stats.cycles, model.fft_cycles(), "stall accounting agrees");
    }

    #[test]
    fn single_pe_program_has_no_exchanges() {
        let config = AcceleratorConfig::paper().with_num_pes(1).unwrap();
        let program = PeProgram::for_64k_schedule(&config);
        let stats = PeInterpreter::new(config.clone())
            .execute(&program)
            .unwrap();
        assert_eq!(stats.words_sent, 0);
        assert_eq!(stats.buffer_swaps, 0);
        assert_eq!(stats.cycles, PerfModel::new(config).fft_cycles());
    }

    #[test]
    fn every_burst_is_conflict_free() {
        // execute() returns Err on any banked-memory violation; a clean run
        // over the whole schedule is the assertion.
        for pes in [1usize, 2, 4] {
            let config = AcceleratorConfig::paper().with_num_pes(pes).unwrap();
            let program = PeProgram::for_64k_schedule(&config);
            PeInterpreter::new(config).execute(&program).unwrap();
        }
    }
}
