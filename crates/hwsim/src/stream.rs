//! Streaming (back-to-back) multiplication: a resource-occupancy schedule
//! simulator.
//!
//! The paper's 122 µs figure is the *latency* of one isolated
//! multiplication. Under double buffering the FFT array, the dot-product
//! multipliers and the carry-recovery adder are distinct resources, so a
//! *stream* of multiplications pipelines: while multiplication `i` is in
//! its dot-product/carry phases, multiplication `i+1` already owns the FFT
//! array. This simulator schedules each multiplication's five jobs
//! (forward a, forward b, dot, inverse, carry) over the three resources
//! and measures the steady-state initiation interval — which must equal
//! [`PerfModel::pipelined_multiplication_cycles`]
//! (the headroom the paper leaves as future work: "the unused resources
//! might be used to achieve further performance improvements").
//!
//! Reproduces Section V's resource accounting as a throughput figure:
//! `tests/paper_numbers.rs` (`streaming_throughput_is_fft_bound`) asserts
//! it, and [`crate::batch`]'s schedule is tested to reduce to this one
//! when nothing is cached.

use crate::config::AcceleratorConfig;
use crate::perf::PerfModel;

/// Completion record of one multiplication in a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEntry {
    /// Index in the stream.
    pub index: usize,
    /// Cycle the first forward transform started.
    pub start: u64,
    /// Cycle the carry recovery finished.
    pub finish: u64,
}

/// Result of a stream simulation.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-multiplication records.
    pub entries: Vec<StreamEntry>,
    /// The configuration's clock period (ns), for time conversion.
    pub clock_period_ns: f64,
}

impl StreamReport {
    /// Total cycles until the last multiplication completes.
    pub fn makespan_cycles(&self) -> u64 {
        self.entries.last().map(|e| e.finish).unwrap_or(0)
    }

    /// Steady-state initiation interval: the finish-to-finish distance of
    /// an interior pair of multiplications (the very last one is an end
    /// effect — with no successor to fill its dot-product gap it finishes
    /// early).
    pub fn steady_interval_cycles(&self) -> Option<u64> {
        match self.entries.as_slice() {
            [.., a, b, _] => Some(b.finish - a.finish),
            [a, b] => Some(b.finish - a.finish),
            _ => None,
        }
    }

    /// Throughput in multiplications per second at the configured clock.
    pub fn throughput_per_second(&self) -> f64 {
        match self.steady_interval_cycles() {
            Some(ii) if ii > 0 => 1e9 / (ii as f64 * self.clock_period_ns),
            _ => 0.0,
        }
    }
}

/// The stream scheduler.
#[derive(Debug, Clone)]
pub struct StreamSim {
    config: AcceleratorConfig,
}

impl StreamSim {
    /// Creates the simulator.
    pub fn new(config: AcceleratorConfig) -> StreamSim {
        StreamSim { config }
    }

    /// Schedules `n` back-to-back multiplications.
    ///
    /// Resources: the FFT array (serially executes forward/inverse
    /// transforms), the dot-product multipliers, and the carry-recovery
    /// adder. The FFT array is scheduled event-driven: whenever it frees
    /// up it takes the *ready* transform job of the oldest multiplication —
    /// so while multiplication `i` waits for its dot product, the array
    /// runs the forward transforms of `i+1` (this is what double buffering
    /// buys). Dot and carry jobs start as soon as their inputs and unit
    /// are available.
    pub fn run(&self, n: usize) -> StreamReport {
        let model = PerfModel::new(self.config.clone());
        let fft = model.fft_cycles();
        let dot = model.dot_product_cycles();
        let carry = model.carry_recovery_cycles();

        // Per-multiplication progress through its three FFT-array jobs.
        #[derive(Clone, Copy, PartialEq)]
        enum Next {
            ForwardA,
            ForwardB,
            Inverse,
            Done,
        }
        let mut next = vec![Next::ForwardA; n];
        let mut fa_start = vec![0u64; n];
        let mut dot_end = vec![0u64; n];
        let mut finish = vec![0u64; n];
        let mut dot_free = 0u64;
        let mut carry_free = 0u64;
        let mut fft_time = 0u64;

        let mut remaining = n;
        while remaining > 0 {
            // Oldest multiplication with a ready FFT job at fft_time; if
            // none is ready, advance the array clock to the earliest
            // readiness.
            let mut chosen: Option<usize> = None;
            let mut earliest_ready = u64::MAX;
            for (i, state) in next.iter().enumerate() {
                let ready_at = match state {
                    Next::ForwardA | Next::ForwardB => 0,
                    Next::Inverse => dot_end[i],
                    Next::Done => continue,
                };
                if ready_at <= fft_time {
                    chosen = Some(i);
                    break; // oldest ready wins
                }
                earliest_ready = earliest_ready.min(ready_at);
            }
            let Some(i) = chosen else {
                fft_time = earliest_ready;
                continue;
            };

            match next[i] {
                Next::ForwardA => {
                    fa_start[i] = fft_time;
                    fft_time += fft;
                    next[i] = Next::ForwardB;
                }
                Next::ForwardB => {
                    fft_time += fft;
                    // Dot product launches as soon as both spectra exist.
                    let dot_start = fft_time.max(dot_free);
                    dot_end[i] = dot_start + dot;
                    dot_free = dot_end[i];
                    next[i] = Next::Inverse;
                }
                Next::Inverse => {
                    fft_time += fft;
                    let carry_start = fft_time.max(carry_free);
                    carry_free = carry_start + carry;
                    finish[i] = carry_free;
                    next[i] = Next::Done;
                    remaining -= 1;
                }
                Next::Done => unreachable!(),
            }
        }

        StreamReport {
            entries: (0..n)
                .map(|index| StreamEntry {
                    index,
                    start: fa_start[index],
                    finish: finish[index],
                })
                .collect(),
            clock_period_ns: self.config.clock_period_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_multiplication_matches_latency_model() {
        let sim = StreamSim::new(AcceleratorConfig::paper());
        let report = sim.run(1);
        let model = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(report.makespan_cycles(), model.multiplication_cycles());
    }

    #[test]
    fn steady_state_interval_matches_pipelined_model() {
        let sim = StreamSim::new(AcceleratorConfig::paper());
        let report = sim.run(16);
        let model = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(
            report.steady_interval_cycles(),
            Some(model.pipelined_multiplication_cycles())
        );
        // 92.16 µs interval → ~10.8K multiplications/s at 200 MHz.
        let per_s = report.throughput_per_second();
        assert!((per_s - 1e9 / (18_432.0 * 5.0)).abs() < 1.0, "{per_s}");
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let sim = StreamSim::new(AcceleratorConfig::paper());
        let n = 10;
        let report = sim.run(n);
        let model = PerfModel::new(AcceleratorConfig::paper());
        let serial = n as u64 * model.multiplication_cycles();
        assert!(
            report.makespan_cycles() < serial,
            "pipelined {} vs serial {serial}",
            report.makespan_cycles()
        );
        // Streaming trades a little first-result latency for throughput.
        assert!(report.entries[0].finish >= model.multiplication_cycles());
    }

    #[test]
    fn entries_are_ordered_and_disjoint_on_the_fft_array() {
        let sim = StreamSim::new(AcceleratorConfig::paper());
        let report = sim.run(5);
        for pair in report.entries.windows(2) {
            assert!(pair[0].start <= pair[1].start);
            assert!(pair[0].finish < pair[1].finish);
        }
    }

    #[test]
    fn empty_stream() {
        let sim = StreamSim::new(AcceleratorConfig::paper());
        let report = sim.run(0);
        assert_eq!(report.makespan_cycles(), 0);
        assert_eq!(report.steady_interval_cycles(), None);
        assert_eq!(report.throughput_per_second(), 0.0);
    }
}
