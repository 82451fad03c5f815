//! Batched multiplication on the simulated accelerator: cached operand
//! spectra and a pipelined instruction-stream schedule.
//!
//! The software side of transform caching lives in `he_ssa::cached`; this
//! module is the hardware-model side. A [`PreparedOperand`] is an operand
//! the accelerator has already pushed through a forward 64K transform and
//! keeps resident in PE memory (the paper's related-work optimization:
//! recurring operands drop a product from 3 transforms to 2, 1 or 0 fresh
//! forward passes). A batch of [`HwJob`]s is then scheduled like a
//! microcoded instruction stream over the three hardware resources — the
//! FFT array, the dot-product multipliers and the carry-recovery adder —
//! with per-job costs taken from
//! [`PerfModel::cached_multiplication_cycles`]: while job `i` is in its
//! dot/carry phases the FFT array already runs job `i+1`'s transforms, so
//! a batch's makespan is well below the sum of isolated latencies.
//!
//! Functional results stay bit-exact: every spectrum in a report really
//! went through the distributed PE-array datapath.
//!
//! Called by `he_accel::HardwareSim`'s batch body, which is what an
//! `EvalEngine` over the simulated card runs; with nothing cached the
//! schedule reduces exactly to [`crate::stream`] (asserted in tests).

use crate::config::AcceleratorConfig;
use crate::perf::PerfModel;
use he_bigint::UBig;
use he_field::Fp;

/// An operand held in the transform domain of the simulated accelerator
/// (its forward 64K spectrum, resident in PE memory).
///
/// Produced by [`AcceleratorSim::prepare`](crate::accel::AcceleratorSim::prepare);
/// consumed by the prepared-multiply entry points and [`HwJob`] batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedOperand {
    pub(crate) spectrum: Vec<Fp>,
    pub(crate) coeff_count: usize,
}

impl PreparedOperand {
    /// The `N`-point forward spectrum.
    pub fn spectrum(&self) -> &[Fp] {
        &self.spectrum
    }

    /// How many `m`-bit coefficients the original operand occupied
    /// (0 for the zero operand).
    pub fn coeff_count(&self) -> usize {
        self.coeff_count
    }

    /// Whether the original operand was zero.
    pub fn is_zero(&self) -> bool {
        self.coeff_count == 0
    }
}

/// One multiplication in an accelerator batch, classified by how many
/// fresh forward transforms it needs (0, 1 or 2).
#[derive(Debug, Clone, Copy)]
pub enum HwJob<'a> {
    /// Both spectra resident: dot product + inverse transform only.
    BothPrepared(&'a PreparedOperand, &'a PreparedOperand),
    /// One resident spectrum times a fresh integer: one forward transform.
    OnePrepared(&'a PreparedOperand, &'a UBig),
    /// Two fresh integers: the full three-transform product.
    Raw(&'a UBig, &'a UBig),
}

impl HwJob<'_> {
    /// Fresh forward transforms this job occupies the FFT array with.
    pub fn fresh_transforms(&self) -> u64 {
        match self {
            HwJob::BothPrepared(..) => 0,
            HwJob::OnePrepared(..) => 1,
            HwJob::Raw(..) => 2,
        }
    }
}

/// Completion record of one job in a scheduled batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEntry {
    /// Index in the batch.
    pub index: usize,
    /// Fresh forward transforms the job performed (0, 1 or 2).
    pub fresh_transforms: u64,
    /// Cycle the job's first activity (transform or dot product) started.
    pub start: u64,
    /// Cycle the job's carry recovery finished.
    pub finish: u64,
}

/// Cycle-level schedule of one batch, produced by
/// [`AcceleratorSim::multiply_batch`](crate::accel::AcceleratorSim::multiply_batch).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job records, in batch order.
    pub entries: Vec<BatchEntry>,
    /// Cycles the same jobs would take run back-to-back with no pipelining
    /// (`Σ` [`PerfModel::cached_multiplication_cycles`]).
    pub serial_cycles: u64,
    /// Clock period used for time conversion (ns).
    pub clock_period_ns: f64,
}

impl BatchReport {
    /// Total cycles until the last job completes.
    pub fn makespan_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.finish).max().unwrap_or(0)
    }

    /// Batch makespan in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.makespan_cycles() as f64 * self.clock_period_ns / 1000.0
    }

    /// Pipelining gain over running the same jobs back-to-back with the
    /// same caching (`serial_cycles` already uses the cached per-job
    /// accounting, so this ratio isolates the overlap win; the caching
    /// win shows up in `serial_cycles` itself shrinking). ≥ 1 for
    /// non-empty batches.
    pub fn speedup_vs_serial(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 1.0;
        }
        self.serial_cycles as f64 / makespan as f64
    }

    /// Steady-state products per second at the configured clock.
    pub fn throughput_per_second(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 0.0;
        }
        self.entries.len() as f64 * 1e9 / (makespan as f64 * self.clock_period_ns)
    }
}

/// Schedules a batch (given per-job fresh-transform counts) over the FFT
/// array, the dot-product multipliers and the carry-recovery adder.
///
/// The FFT array is event-driven: whenever it frees up it takes the ready
/// transform job of the oldest incomplete multiplication, exactly like the
/// uncached stream scheduler in [`crate::stream`] — to which this reduces
/// when every job is fresh. Jobs with both spectra resident skip the FFT
/// array entirely until their inverse transform and issue their dot
/// product immediately, in batch order.
pub(crate) fn schedule_batch(config: &AcceleratorConfig, fresh: &[u64]) -> BatchReport {
    let model = PerfModel::new(config.clone());
    let fft = model.fft_cycles();
    let dot = model.dot_product_cycles();
    let carry = model.carry_recovery_cycles();
    let serial_cycles = fresh
        .iter()
        .map(|&f| model.cached_multiplication_cycles(f))
        .sum();

    #[derive(Clone, Copy, PartialEq)]
    enum Next {
        Forward(u64),
        Inverse,
        Done,
    }
    let n = fresh.len();
    let mut next: Vec<Next> = fresh
        .iter()
        .map(|&f| {
            if f == 0 {
                Next::Inverse
            } else {
                Next::Forward(f)
            }
        })
        .collect();
    let mut start: Vec<Option<u64>> = vec![None; n];
    let mut dot_end = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut dot_free = 0u64;
    let mut carry_free = 0u64;
    let mut fft_time = 0u64;

    // Both-prepared jobs own their spectra from cycle 0: their dot
    // products issue immediately, in batch order.
    for i in 0..n {
        if fresh[i] == 0 {
            start[i] = Some(dot_free);
            dot_end[i] = dot_free + dot;
            dot_free = dot_end[i];
        }
    }

    let mut remaining = n;
    while remaining > 0 {
        // Oldest multiplication with a ready FFT job; if none is ready,
        // advance the array clock to the earliest readiness.
        let mut chosen: Option<usize> = None;
        let mut earliest_ready = u64::MAX;
        for (i, state) in next.iter().enumerate() {
            let ready_at = match state {
                Next::Forward(_) => 0,
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
            Next::Forward(k) => {
                start[i].get_or_insert(fft_time);
                fft_time += fft;
                if k == 1 {
                    // Last forward done: the dot product launches as soon
                    // as both spectra exist and the unit frees up.
                    let dot_start = fft_time.max(dot_free);
                    dot_end[i] = dot_start + dot;
                    dot_free = dot_end[i];
                    next[i] = Next::Inverse;
                } else {
                    next[i] = Next::Forward(k - 1);
                }
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

    BatchReport {
        entries: (0..n)
            .map(|index| BatchEntry {
                index,
                fresh_transforms: fresh[index],
                start: start[index].unwrap_or(0),
                finish: finish[index],
            })
            .collect(),
        serial_cycles,
        clock_period_ns: config.clock_period_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSim;

    #[test]
    fn all_raw_batch_reduces_to_the_stream_schedule() {
        let config = AcceleratorConfig::paper();
        let report = schedule_batch(&config, &[2, 2, 2, 2, 2]);
        let stream = StreamSim::new(config).run(5);
        assert_eq!(report.makespan_cycles(), stream.makespan_cycles());
        for (batch, plain) in report.entries.iter().zip(&stream.entries) {
            assert_eq!(batch.finish, plain.finish, "job {}", batch.index);
        }
    }

    #[test]
    fn cached_jobs_shorten_the_makespan() {
        let config = AcceleratorConfig::paper();
        let raw = schedule_batch(&config, &[2; 8]);
        let one = schedule_batch(&config, &[1; 8]);
        let both = schedule_batch(&config, &[0; 8]);
        assert!(one.makespan_cycles() < raw.makespan_cycles());
        assert!(both.makespan_cycles() < one.makespan_cycles());
        // A both-cached stream is limited by its single inverse transform
        // per product once the pipeline fills.
        let model = PerfModel::new(AcceleratorConfig::paper());
        let interior = both.entries[6].finish - both.entries[5].finish;
        assert_eq!(interior, model.fft_cycles().max(model.dot_product_cycles()));
    }

    #[test]
    fn serial_accounting_uses_cached_cycles() {
        let config = AcceleratorConfig::paper();
        let model = PerfModel::new(config.clone());
        let report = schedule_batch(&config, &[0, 1, 2]);
        assert_eq!(
            report.serial_cycles,
            model.cached_multiplication_cycles(0)
                + model.cached_multiplication_cycles(1)
                + model.cached_multiplication_cycles(2)
        );
        assert!(report.speedup_vs_serial() > 1.0);
    }

    #[test]
    fn single_raw_job_matches_isolated_latency() {
        let config = AcceleratorConfig::paper();
        let model = PerfModel::new(config.clone());
        let report = schedule_batch(&config, &[2]);
        assert_eq!(report.makespan_cycles(), model.multiplication_cycles());
        assert_eq!(report.speedup_vs_serial(), 1.0);
    }

    #[test]
    fn empty_batch() {
        let report = schedule_batch(&AcceleratorConfig::paper(), &[]);
        assert_eq!(report.makespan_cycles(), 0);
        assert_eq!(report.throughput_per_second(), 0.0);
        assert_eq!(report.speedup_vs_serial(), 1.0);
    }
}
