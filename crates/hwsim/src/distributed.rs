//! The distributed 64K-point transform over the PE array (Fig. 2), both as
//! a deterministic cycle-accounted simulation and as a real multi-threaded
//! execution (one thread per PE, `std::sync::mpsc` channels as the
//! hypercube links).
//!
//! Index conventions: input `n = 1024·n3 + 16·n2 + n1`,
//! output `k = kA + 64·kB + 4096·kC`. PE id for `P = 4` is
//! `(pa << 1) | pb` with `pa = n1[3]`, `pb = n2[5]`; exchange X1 rewrites
//! the `pb` coordinate to `kA[5]` (hypercube dimension 0) and X2 rewrites
//! `pa` to `kB[5]` (dimension 1), so every computation stage is fully local
//! and every transfer is a single hypercube hop.
//!
//! Every sub-transform runs on the bit-exact
//! [`OptimizedFft64`] hardware unit model,
//! and every inter-stage twiddle multiplication goes through the
//! [`DspModMul`] DSP datapath — the simulation
//! exercises the same arithmetic the FPGA would.

use std::sync::Mutex;

use he_field::{roots, Fp};
use he_ntt::kernels::Direction;
use he_ntt::par::lock_or_recover;
use he_ntt::{NttScratch, N64K};

use crate::config::AcceleratorConfig;
use crate::error::HwSimError;
use crate::fft_unit::OptimizedFft64;
use crate::modmul::DspModMul;
use crate::network::Hypercube;
use crate::perf::{FFT16_CYCLES, FFT64_CYCLES};

/// Report of one phase of a distributed transform run.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseReport {
    /// A computation stage.
    Compute {
        /// Stage label (C1, C2, C3).
        label: &'static str,
        /// Radix of the sub-transforms.
        radix: usize,
        /// Sub-transforms per PE (load is balanced; this is exact).
        ffts_per_pe: usize,
        /// Cycles the stage occupies.
        cycles: u64,
    },
    /// A communication stage.
    Exchange {
        /// Stage label (X1, X2).
        label: &'static str,
        /// Hypercube dimension crossed.
        dimension: u32,
        /// Words each PE sent to its neighbor.
        words_per_pe: usize,
        /// Link-limited duration.
        cycles: u64,
        /// Whether double buffering hides it behind the previous compute
        /// stage.
        overlapped: bool,
    },
}

/// Report of one distributed 64K transform.
#[derive(Debug, Clone, PartialEq)]
pub struct NttRunReport {
    /// The phases in schedule order.
    pub phases: Vec<PhaseReport>,
    /// Twiddle multiplications performed (DSP datapath activations).
    pub twiddle_muls: u64,
}

impl NttRunReport {
    /// Total cycles with the overlap semantics of Section IV: exchanges run
    /// concurrently with the preceding compute stage; only the excess is
    /// exposed.
    pub fn total_cycles(&self) -> u64 {
        let mut total = 0u64;
        let mut last_compute = 0u64;
        for phase in &self.phases {
            match phase {
                PhaseReport::Compute { cycles, .. } => {
                    total += cycles;
                    last_compute = *cycles;
                }
                PhaseReport::Exchange { cycles, .. } => {
                    total += cycles.saturating_sub(last_compute);
                }
            }
        }
        total
    }

    /// Words crossing the network in total.
    pub fn total_traffic_words(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                PhaseReport::Exchange { words_per_pe, .. } => *words_per_pe,
                _ => 0,
            })
            .sum()
    }
}

/// The distributed transform engine.
#[derive(Debug)]
pub struct DistributedNtt {
    config: AcceleratorConfig,
    unit: OptimizedFft64,
    modmul: DspModMul,
    /// `ω^e` for the aligned 65,536th root.
    table: Vec<Fp>,
    /// Pooled staging buffers: the PE-local memories, which the hardware
    /// also reuses across transforms rather than reallocating.
    pool: Mutex<NttScratch>,
}

impl Clone for DistributedNtt {
    fn clone(&self) -> DistributedNtt {
        DistributedNtt {
            config: self.config.clone(),
            unit: self.unit,
            modmul: self.modmul,
            table: self.table.clone(),
            pool: Mutex::new(NttScratch::new()),
        }
    }
}

impl DistributedNtt {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::InvalidConfig`] if the PE count is not 1, 2 or
    /// 4: the three-stage plan requires `l > d` (Section IV), limiting the
    /// hypercube to dimension 2.
    pub fn new(config: AcceleratorConfig) -> Result<DistributedNtt, HwSimError> {
        if !matches!(config.num_pes(), 1 | 2 | 4) {
            return Err(HwSimError::InvalidConfig {
                reason: format!(
                    "the 3-stage 64K plan needs l > d, so at most 4 PEs (got {})",
                    config.num_pes()
                ),
            });
        }
        Ok(DistributedNtt {
            config,
            unit: OptimizedFft64::new(),
            modmul: DspModMul::new(),
            table: roots::power_table(roots::omega_64k(), N64K),
            pool: Mutex::new(NttScratch::new()),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// PE that owns input point `n` before stage C1.
    pub fn owner_input(&self, n: usize) -> usize {
        let n1 = n & 15;
        let n2 = (n >> 4) & 63;
        self.owner_bits((n1 >> 3) & 1, (n2 >> 5) & 1)
    }

    /// PE that owns output point `k` after stage C3.
    pub fn owner_output(&self, k: usize) -> usize {
        let k2p = k % 4096; // k = kA + 64·kB + 4096·kC
        let ka = k2p % 64;
        let kb = k2p / 64;
        self.owner_bits((kb >> 5) & 1, (ka >> 5) & 1)
    }

    fn owner_bits(&self, pa: usize, pb: usize) -> usize {
        match self.config.num_pes() {
            1 => 0,
            2 => pb,
            4 => (pa << 1) | pb,
            _ => unreachable!("validated in new()"),
        }
    }

    fn tw(&self, e: usize, dir: Direction) -> Fp {
        match dir {
            Direction::Forward => self.table[e % N64K],
            Direction::Inverse => self.table[(N64K - e % N64K) % N64K],
        }
    }

    /// Forward distributed transform with a schedule report.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != 65536`.
    pub fn forward(&self, input: &[Fp]) -> (Vec<Fp>, NttRunReport) {
        self.transform(input, Direction::Forward)
    }

    /// Inverse distributed transform (including the `2^{176}` scaling
    /// shift) with a schedule report.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != 65536`.
    pub fn inverse(&self, input: &[Fp]) -> (Vec<Fp>, NttRunReport) {
        let (mut out, report) = self.transform(input, Direction::Inverse);
        for x in out.iter_mut() {
            *x = x.mul_by_pow2(176); // 1/65536 is a shift in this field
        }
        (out, report)
    }

    fn transform(&self, input: &[Fp], dir: Direction) -> (Vec<Fp>, NttRunReport) {
        assert_eq!(input.len(), N64K, "the distributed plan is 64K points");
        let pes = self.config.num_pes();
        let mut report = NttRunReport {
            phases: Vec::new(),
            twiddle_muls: 0,
        };
        let cube = Hypercube::new(self.config.hypercube_dim());
        // Stage buffers come from the engine's pool (the PE-local
        // memories); sub-transform outputs live on the stack. The pool
        // lock is held only for the take and the put-back — never across
        // a stage — so concurrent transforms through one engine contend
        // on the buffer hand-off, not on each other's compute.
        let mut s1 = lock_or_recover(&self.pool).take(N64K);
        let mut col = [Fp::ZERO; 64];
        let mut sub = [Fp::ZERO; 64];

        // --- C1: radix-64 over n3, one column per (n2, n1) pair ----------
        let mut per_pe = vec![0usize; pes];
        for m in 0..1024 {
            let owner = self.owner_input(m); // column owner = f(n1, n2) only
            for (d, c) in col.iter_mut().enumerate() {
                debug_assert_eq!(self.owner_input(1024 * d + m), owner);
                *c = input[1024 * d + m];
            }
            per_pe[owner] += 1;
            self.unit.transform_into(&col, &mut sub, dir);
            for (ka, &v) in sub.iter().enumerate() {
                s1[ka * 1024 + m] = v;
            }
        }
        self.push_compute(&mut report, "C1", 64, &per_pe, FFT64_CYCLES);

        // --- X1: rewrite pb: n2[5] -> kA[5] ------------------------------
        if pes >= 2 {
            let words = self.count_exchange(&cube, 0, |idx| {
                let ka = idx / 1024;
                let m = idx % 1024;
                let n1 = m & 15;
                let n2 = (m >> 4) & 63;
                (
                    self.owner_bits((n1 >> 3) & 1, (n2 >> 5) & 1),
                    self.owner_bits((n1 >> 3) & 1, (ka >> 5) & 1),
                )
            });
            self.push_exchange(&mut report, "X1", 0, words);
        }

        // --- C2: twiddle ω_4096^{kA·n2}, radix-64 over n2 ----------------
        let mut s2 = lock_or_recover(&self.pool).take(N64K);
        let mut per_pe = vec![0usize; pes];
        for ka in 0..64 {
            for n1 in 0..16 {
                let owner = self.owner_bits((n1 >> 3) & 1, (ka >> 5) & 1);
                per_pe[owner] += 1;
                for (n2, c) in col.iter_mut().enumerate() {
                    let v = s1[ka * 1024 + 16 * n2 + n1];
                    *c = self.modmul.multiply(v, self.tw(16 * ka * n2, dir));
                    report.twiddle_muls += 1;
                }
                self.unit.transform_into(&col, &mut sub, dir);
                for (kb, &v) in sub.iter().enumerate() {
                    s2[(ka + 64 * kb) * 16 + n1] = v;
                }
            }
        }
        self.push_compute(&mut report, "C2", 64, &per_pe, FFT64_CYCLES);

        // --- X2: rewrite pa: n1[3] -> kB[5] ------------------------------
        if pes >= 4 {
            let words = self.count_exchange(&cube, 1, |idx| {
                let k2p = idx / 16;
                let n1 = idx % 16;
                let ka = k2p % 64;
                let kb = k2p / 64;
                (
                    self.owner_bits((n1 >> 3) & 1, (ka >> 5) & 1),
                    self.owner_bits((kb >> 5) & 1, (ka >> 5) & 1),
                )
            });
            self.push_exchange(&mut report, "X2", 1, words);
        }

        // --- C3: twiddle ω^{n1·k2'}, radix-16 over n1 --------------------
        let mut out_vec = vec![Fp::ZERO; N64K];
        let mut col16 = [Fp::ZERO; 16];
        let mut sub16 = [Fp::ZERO; 16];
        let mut per_pe = vec![0usize; pes];
        for k2p in 0..4096 {
            let ka = k2p % 64;
            let kb = k2p / 64;
            let owner = self.owner_bits((kb >> 5) & 1, (ka >> 5) & 1);
            per_pe[owner] += 1;
            for (n1, c) in col16.iter_mut().enumerate() {
                let v = s2[k2p * 16 + n1];
                *c = self.modmul.multiply(v, self.tw(n1 * k2p, dir));
                report.twiddle_muls += 1;
            }
            self.unit.transform16_into(&col16, &mut sub16, dir);
            for (kc, &v) in sub16.iter().enumerate() {
                out_vec[k2p + 4096 * kc] = v;
            }
        }
        self.push_compute(&mut report, "C3", 16, &per_pe, FFT16_CYCLES);

        {
            let mut pool = lock_or_recover(&self.pool);
            pool.put(s1);
            pool.put(s2);
        }
        (out_vec, report)
    }

    /// Counts exchange traffic and asserts it only crosses hypercube
    /// dimension `dim`; returns the (balanced) per-PE word count.
    fn count_exchange<F>(&self, cube: &Hypercube, dim: u32, owners: F) -> usize
    where
        F: Fn(usize) -> (usize, usize),
    {
        let pes = self.config.num_pes();
        let mut sent = vec![0usize; pes];
        for idx in 0..N64K {
            let (before, after) = owners(idx);
            if before != after {
                assert!(
                    cube.are_neighbors(before, after) && before ^ after == (1 << dim),
                    "point {idx} moved {before} -> {after}, not a dim-{dim} hop"
                );
                sent[before] += 1;
            }
        }
        let min = *sent.iter().min().expect("at least one PE");
        let max = *sent.iter().max().expect("at least one PE");
        assert_eq!(min, max, "exchange traffic must be balanced: {sent:?}");
        max
    }

    fn push_compute(
        &self,
        report: &mut NttRunReport,
        label: &'static str,
        radix: usize,
        per_pe: &[usize],
        cycles_per_fft: u64,
    ) {
        let min = *per_pe.iter().min().expect("at least one PE");
        let max = *per_pe.iter().max().expect("at least one PE");
        assert_eq!(min, max, "{label}: load must be balanced: {per_pe:?}");
        let mut cycles = max as u64 * cycles_per_fft;
        if self.config.include_pipeline_overheads() {
            cycles += crate::perf::STAGE_PIPELINE_OVERHEAD;
        }
        report.phases.push(PhaseReport::Compute {
            label,
            radix,
            ffts_per_pe: max,
            cycles,
        });
    }

    /// Forward transform executed by real concurrent PEs: one thread per
    /// processing element, `std::sync::mpsc` channels as the hypercube
    /// links.
    ///
    /// Functionally identical to [`DistributedNtt::forward`]; exists to
    /// demonstrate that the Fig. 2 schedule needs no global coordination —
    /// each PE acts on local data and two neighbor messages.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != 65536`.
    pub fn forward_parallel(&self, input: &[Fp]) -> Vec<Fp> {
        self.transform_parallel(input, Direction::Forward)
    }

    /// Inverse counterpart of [`DistributedNtt::forward_parallel`]
    /// (including the `2^{176}` scaling).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != 65536`.
    pub fn inverse_parallel(&self, input: &[Fp]) -> Vec<Fp> {
        self.transform_parallel(input, Direction::Inverse)
    }

    fn transform_parallel(&self, input: &[Fp], dir: Direction) -> Vec<Fp> {
        assert_eq!(input.len(), N64K, "the distributed plan is 64K points");
        let pes = self.config.num_pes();
        if pes == 1 {
            return self.transform(input, dir).0;
        }

        // One channel per PE; messages are (phase, from, points). A fast PE
        // can deliver its X2 message before the slow neighbor has consumed
        // its X1 message, so receivers must match on (phase, from) and
        // stash anything that arrives early.
        type Msg = (u8, usize, Vec<(usize, Fp)>);
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..pes).map(|_| std::sync::mpsc::channel::<Msg>()).unzip();

        let results: Vec<Vec<(usize, Fp)>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (pe, rx) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                let unit = self.unit;
                let modmul = self.modmul;
                let this = &*self;
                handles.push(scope.spawn(move || {
                    // Receives the message of `phase` from `from`, stashing
                    // out-of-order deliveries.
                    let mut stash: Vec<Msg> = Vec::new();
                    let recv_exact = |stash: &mut Vec<Msg>, phase: u8, from: usize| {
                        if let Some(pos) = stash.iter().position(|m| m.0 == phase && m.1 == from) {
                            return stash.swap_remove(pos).2;
                        }
                        loop {
                            let msg = rx.recv().expect("peer alive");
                            if msg.0 == phase && msg.1 == from {
                                return msg.2;
                            }
                            stash.push(msg);
                        }
                    };

                    // C1 — columns over n3 among the points this PE owns.
                    let mut local: Vec<(usize, Fp)> = (0..N64K)
                        .filter(|&n| this.owner_input(n) == pe)
                        .map(|n| (n, input[n]))
                        .collect();

                    let mut columns: std::collections::HashMap<usize, Vec<Fp>> =
                        std::collections::HashMap::new();
                    for &(n, v) in &local {
                        let m = n % 1024;
                        let d = n / 1024;
                        columns.entry(m).or_insert_with(|| vec![Fp::ZERO; 64])[d] = v;
                    }
                    local.clear();
                    for (m, col) in columns {
                        let out = unit.transform(&col, dir);
                        for (ka, &v) in out.values.iter().enumerate() {
                            local.push((ka * 1024 + m, v));
                        }
                    }

                    // X1 — ship points whose kA[5] differs from our pb bit.
                    if pes >= 2 {
                        let pb = pe & 1;
                        let neighbor = pe ^ 1;
                        let (outgoing, kept): (Vec<_>, Vec<_>) = local
                            .into_iter()
                            .partition(|&(idx, _)| ((idx / 1024) >> 5) & 1 != pb);
                        senders[neighbor]
                            .send((1, pe, outgoing))
                            .expect("peer alive");
                        local = kept;
                        local.extend(recv_exact(&mut stash, 1, neighbor));
                    }

                    // C2 — twiddle + columns over n2.
                    let mut columns: std::collections::HashMap<usize, Vec<Fp>> =
                        std::collections::HashMap::new();
                    for &(idx, v) in &local {
                        let ka = idx / 1024;
                        let r = idx % 1024;
                        let n2 = r / 16;
                        let n1 = r % 16;
                        let tw = this.tw(16 * ka * n2, dir);
                        columns
                            .entry(ka * 16 + n1)
                            .or_insert_with(|| vec![Fp::ZERO; 64])[n2] = modmul.multiply(v, tw);
                    }
                    local = Vec::new();
                    for (key, col) in columns {
                        let ka = key / 16;
                        let n1 = key % 16;
                        let out = unit.transform(&col, dir);
                        for (kb, &v) in out.values.iter().enumerate() {
                            local.push(((ka + 64 * kb) * 16 + n1, v));
                        }
                    }

                    // X2 — ship points whose kB[5] differs from our pa bit.
                    if pes >= 4 {
                        let pa = (pe >> 1) & 1;
                        let neighbor = pe ^ 2;
                        let (outgoing, kept): (Vec<_>, Vec<_>) = local
                            .into_iter()
                            .partition(|&(idx, _)| ((idx / 16 / 64) >> 5) & 1 != pa);
                        senders[neighbor]
                            .send((2, pe, outgoing))
                            .expect("peer alive");
                        local = kept;
                        local.extend(recv_exact(&mut stash, 2, neighbor));
                    }

                    // C3 — twiddle + columns over n1.
                    let mut columns: std::collections::HashMap<usize, Vec<Fp>> =
                        std::collections::HashMap::new();
                    for &(idx, v) in &local {
                        let k2p = idx / 16;
                        let n1 = idx % 16;
                        let tw = this.tw(n1 * k2p, dir);
                        columns.entry(k2p).or_insert_with(|| vec![Fp::ZERO; 16])[n1] =
                            modmul.multiply(v, tw);
                    }
                    let mut outputs = Vec::new();
                    for (k2p, col) in columns {
                        let out = unit.transform16(&col, dir);
                        for (kc, &v) in out.values.iter().enumerate() {
                            outputs.push((k2p + 4096 * kc, v));
                        }
                    }
                    outputs
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("PE thread"))
                .collect()
        });

        let mut out = vec![Fp::ZERO; N64K];
        for pe_points in results {
            for (k, v) in pe_points {
                out[k] = v;
            }
        }
        if dir == Direction::Inverse {
            for x in out.iter_mut() {
                *x = x.mul_by_pow2(176);
            }
        }
        out
    }

    fn push_exchange(
        &self,
        report: &mut NttRunReport,
        label: &'static str,
        dimension: u32,
        words: usize,
    ) {
        let cycles = (words as u64).div_ceil(self.config.link_words_per_cycle() as u64);
        let last_compute = report
            .phases
            .iter()
            .rev()
            .find_map(|p| match p {
                PhaseReport::Compute { cycles, .. } => Some(*cycles),
                _ => None,
            })
            .unwrap_or(0);
        report.phases.push(PhaseReport::Exchange {
            label,
            dimension,
            words_per_pe: words,
            cycles,
            overlapped: cycles <= last_compute,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use he_ntt::Ntt64k;

    fn sparse_input() -> Vec<Fp> {
        let mut v = vec![Fp::ZERO; N64K];
        for (i, slot) in v.iter_mut().enumerate() {
            if i % 193 == 0 {
                *slot = Fp::new((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
            }
        }
        v
    }

    #[test]
    fn forward_matches_reference_plan() {
        let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
        let reference = Ntt64k::new();
        let input = sparse_input();
        let (out, _) = dist.forward(&input);
        assert_eq!(out, reference.forward(&input));
    }

    #[test]
    fn inverse_roundtrips() {
        let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
        let input = sparse_input();
        let (freq, _) = dist.forward(&input);
        let (back, _) = dist.inverse(&freq);
        assert_eq!(back, input);
    }

    #[test]
    fn cycle_counts_match_analytic_model() {
        for pes in [1usize, 2, 4] {
            let cfg = AcceleratorConfig::paper().with_num_pes(pes).unwrap();
            let dist = DistributedNtt::new(cfg.clone()).unwrap();
            let model = PerfModel::new(cfg);
            let (_, report) = dist.forward(&sparse_input());
            assert_eq!(report.total_cycles(), model.fft_cycles(), "P = {pes}");
        }
    }

    #[test]
    fn paper_configuration_takes_6144_cycles() {
        let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
        let (_, report) = dist.forward(&sparse_input());
        assert_eq!(report.total_cycles(), 6144);
        // 30.72 µs at 5 ns.
        let us = report.total_cycles() as f64 * 5.0 / 1000.0;
        assert!((us - 30.72).abs() < 1e-9);
    }

    #[test]
    fn exchanges_are_overlapped_and_balanced() {
        let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
        let (_, report) = dist.forward(&sparse_input());
        let exchanges: Vec<_> = report
            .phases
            .iter()
            .filter_map(|p| match p {
                PhaseReport::Exchange {
                    words_per_pe,
                    overlapped,
                    ..
                } => Some((*words_per_pe, *overlapped)),
                _ => None,
            })
            .collect();
        assert_eq!(exchanges.len(), 2);
        for (words, overlapped) in exchanges {
            assert_eq!(words, 8192, "each PE sends half its 16K points");
            assert!(overlapped, "paper design point fully hides communication");
        }
    }

    #[test]
    fn rejects_eight_pes() {
        let cfg = AcceleratorConfig::paper().with_num_pes(8).unwrap();
        assert!(matches!(
            DistributedNtt::new(cfg),
            Err(HwSimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn twiddle_mul_census() {
        let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
        let (_, report) = dist.forward(&sparse_input());
        // 64K twiddles before C2 and 64K before C3.
        assert_eq!(report.twiddle_muls, 2 * N64K as u64);
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        for pes in [1usize, 2, 4] {
            let cfg = AcceleratorConfig::paper().with_num_pes(pes).unwrap();
            let dist = DistributedNtt::new(cfg).unwrap();
            let input = sparse_input();
            let (sequential, _) = dist.forward(&input);
            let parallel = dist.forward_parallel(&input);
            assert_eq!(parallel, sequential, "P = {pes}");
        }
    }

    #[test]
    fn parallel_roundtrip() {
        let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
        let input = sparse_input();
        let freq = dist.forward_parallel(&input);
        assert_eq!(dist.inverse_parallel(&freq), input);
    }

    #[test]
    fn single_pe_has_no_traffic() {
        let cfg = AcceleratorConfig::paper().with_num_pes(1).unwrap();
        let dist = DistributedNtt::new(cfg).unwrap();
        let (out, report) = dist.forward(&sparse_input());
        assert_eq!(report.total_traffic_words(), 0);
        let reference = Ntt64k::new();
        assert_eq!(out, reference.forward(&sparse_input()));
    }
}
