//! Multi-card fleet model: several accelerator cards behind one host
//! dispatch queue.
//!
//! The paper evaluates **one** FPGA card. Its deployment story — an
//! accelerator serving homomorphic multiplications to a cloud of clients
//! — scales by adding cards behind a shared host queue, which is exactly
//! the shape `he_accel::serve::ServerPool` implements in software. This
//! module is the cycle-level counterpart:
//!
//! * [`FleetModel`] — analytic served throughput of `N` cards running
//!   micro-batches of (partially cached) products, each card governed by
//!   the Section V [`PerfModel`], plus a host dispatch overhead per
//!   flush;
//! * [`FleetModel::simulate`] — a discrete-event simulation of the
//!   shared queue: jobs arrive with optional deadlines, idle cards claim
//!   micro-batches under an [EDF or FIFO](FleetPolicy) discipline as
//!   soon as anything is pending (`he_accel::serve` claims likewise), and
//!   the report attributes every missed deadline to **queueing** (the
//!   job was already late when a card claimed it) or to **compute** (its
//!   own flush ran past the deadline) — the same split
//!   `he_accel::serve::ServeStats` records for the software fleet;
//! * [`FleetModel::simulate_with_outages`] — the same simulation over a
//!   **degraded fleet**: [`FleetOutage`] windows kill a card mid-flush
//!   (the lost flush's jobs return to the shared queue,
//!   [`FleetReport::retried`]) and repair it later — the cycle-level
//!   counterpart of the software fleet's supervised restart and
//!   retry-with-failover (`he_accel::serve`), so the EDF-vs-FIFO and
//!   expiry-attribution stories extend to fleets losing cards;
//! * **host-dispatch accounting** — the same products cost very
//!   different wall time depending on whether the *host* overlaps
//!   submission with completion: [`FleetModel::serialized_host_cycles`]
//!   models the blocking-ticket client (one product in flight, full
//!   dispatch + latency each), [`FleetModel::streaming_host_cycles`] the
//!   completion-driven client (back-to-back micro-batches, pipelined),
//!   and [`FleetModel::host_overlap_speedup`] their ratio — the gap
//!   `he_accel::serve::CompletionQueue` exists to close, measured in
//!   software by the benchmark's `serve.window32_vs_window1_ratio`.
//!
//! Called by `benchmark/src/ladder.rs`, which prints this model's
//! `hwsim.fleet_products_per_s_predicted` and
//! `hwsim.host_overlap_speedup_predicted` beside the measured fleet.
//!
//! ```
//! use he_hwsim::fleet::FleetModel;
//!
//! let one = FleetModel::paper(1);
//! let four = FleetModel::paper(4);
//! // Four cards serve four times the one-cached batch throughput (the
//! // analytic model has no shared bottleneck until the host bus is
//! // modeled explicitly).
//! let ladder = four.products_per_second(64, 1) / one.products_per_second(64, 1);
//! assert!((ladder - 4.0).abs() < 1e-9);
//! ```

use crate::config::AcceleratorConfig;
use crate::perf::PerfModel;

/// How the simulated host queue orders jobs into micro-batches (mirrors
/// `he_accel::serve::FlushPolicy`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Earliest-deadline-first: a card claims the pending jobs with the
    /// earliest deadlines (deadline-less jobs last, arrival order as the
    /// tie-breaker).
    #[default]
    Edf,
    /// Strict arrival order.
    Fifo,
}

/// One job in a fleet-queue trace: when it arrives at the host, and the
/// cycle by which it must have completed (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetJob {
    /// Host-clock cycle the job enters the shared queue.
    pub arrival_cycle: u64,
    /// Absolute deadline in host-clock cycles, or `None` for best-effort
    /// jobs.
    pub deadline_cycle: Option<u64>,
}

impl FleetJob {
    /// A best-effort job arriving at `arrival_cycle`.
    pub fn at(arrival_cycle: u64) -> FleetJob {
        FleetJob {
            arrival_cycle,
            deadline_cycle: None,
        }
    }

    /// Attaches an absolute deadline.
    pub fn with_deadline(mut self, deadline_cycle: u64) -> FleetJob {
        self.deadline_cycle = Some(deadline_cycle);
        self
    }
}

/// A card outage window for [`FleetModel::simulate_with_outages`]: the
/// card dies at `fail_cycle` (killing any flush in progress — its jobs go
/// back to the shared queue) and rejoins the fleet at `repair_cycle` —
/// the cycle-level counterpart of the software fleet's supervised
/// restart (`he_accel::serve::ServerPool::with_backend_factory`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOutage {
    /// Which card fails (index into the fleet).
    pub card: usize,
    /// Host-clock cycle the card dies.
    pub fail_cycle: u64,
    /// Host-clock cycle the card is back (exclusive end of the outage).
    pub repair_cycle: u64,
}

impl FleetOutage {
    /// An outage of `card` over `[fail_cycle, repair_cycle)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or inverted.
    pub fn new(card: usize, fail_cycle: u64, repair_cycle: u64) -> FleetOutage {
        assert!(
            fail_cycle < repair_cycle,
            "an outage spans at least a cycle"
        );
        FleetOutage {
            card,
            fail_cycle,
            repair_cycle,
        }
    }
}

/// Outcome counters of one [`FleetModel::simulate`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Jobs that completed by their deadline (or had none).
    pub completed: u64,
    /// Jobs whose deadline had already passed when a card claimed them —
    /// the miss is attributable to queueing (arrival rate vs fleet
    /// capacity).
    pub expired_in_queue: u64,
    /// Jobs claimed in time whose own flush ran past the deadline — the
    /// miss is attributable to compute.
    pub expired_in_flush: u64,
    /// Micro-batches dispatched.
    pub flushes: u64,
    /// Jobs returned to the queue because a [`FleetOutage`] killed their
    /// flush mid-run — the cycle-level counterpart of
    /// `he_accel::serve::ServeStats::retried`.
    pub retried: u64,
    /// Cycle the last flush finished.
    pub makespan_cycles: u64,
}

impl FleetReport {
    /// Total deadline misses, wherever they happened.
    pub fn expired(&self) -> u64 {
        self.expired_in_queue + self.expired_in_flush
    }
}

/// Analytic + discrete-event model of `N` accelerator cards behind one
/// host dispatch queue (see the [module docs](crate::fleet)).
#[derive(Debug, Clone)]
pub struct FleetModel {
    per_card: PerfModel,
    cards: usize,
    dispatch_cycles: u64,
}

/// Default host-side dispatch cost per micro-batch, in card cycles: queue
/// pop, descriptor setup and doorbell for one flush. Small against a
/// single transform (6144 cycles at the paper design point) — the host
/// never shows up in the throughput ladder until batches shrink to one or
/// two jobs.
pub const DEFAULT_DISPATCH_CYCLES: u64 = 256;

impl FleetModel {
    /// A fleet of `cards` instances of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `cards` is zero.
    pub fn new(config: AcceleratorConfig, cards: usize) -> FleetModel {
        assert!(cards > 0, "a fleet needs at least one card");
        FleetModel {
            per_card: PerfModel::new(config),
            cards,
            dispatch_cycles: DEFAULT_DISPATCH_CYCLES,
        }
    }

    /// A fleet of `cards` paper-configuration cards (4 PEs at 200 MHz
    /// each).
    ///
    /// # Panics
    ///
    /// Panics if `cards` is zero.
    pub fn paper(cards: usize) -> FleetModel {
        FleetModel::new(AcceleratorConfig::paper(), cards)
    }

    /// Overrides the host dispatch cost per micro-batch
    /// ([`DEFAULT_DISPATCH_CYCLES`]).
    pub fn with_dispatch_cycles(mut self, dispatch_cycles: u64) -> FleetModel {
        self.dispatch_cycles = dispatch_cycles;
        self
    }

    /// Number of cards.
    pub fn cards(&self) -> usize {
        self.cards
    }

    /// The Section V model governing each card.
    pub fn per_card(&self) -> &PerfModel {
        &self.per_card
    }

    /// Cycles one card spends on a micro-batch of `batch` products, each
    /// paying `fresh` forward transforms (2 = uncached, 1 = one operand's
    /// spectrum resident, 0 = both resident): host dispatch, the first
    /// product's full latency, then one pipelined initiation interval per
    /// further product (double buffering keeps the FFT units busy while
    /// the dot unit and carry adder finish the previous product).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `fresh > 2`.
    pub fn flush_cycles(&self, batch: usize, fresh: u64) -> u64 {
        assert!(batch > 0, "a flush holds at least one product");
        self.dispatch_cycles
            + self.per_card.cached_multiplication_cycles(fresh)
            + (batch as u64 - 1) * self.per_card.pipelined_cached_multiplication_cycles(fresh)
    }

    /// Steady-state served throughput of the whole fleet, in products per
    /// second, with every card running back-to-back flushes of `batch`
    /// products at the given cache rung.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `fresh > 2`.
    pub fn products_per_second(&self, batch: usize, fresh: u64) -> f64 {
        let flush_us = self.per_card.cycles_to_us(self.flush_cycles(batch, fresh));
        self.cards as f64 * batch as f64 / (flush_us / 1e6)
    }

    /// Cycles one card takes to serve `n` products for a **serialized
    /// host**: a client that submits one product, blocks on its
    /// completion, and only then submits the next — the blocking-ticket
    /// shape, one thread per in-flight product and exactly one product
    /// in flight. Every product pays its own dispatch and the full
    /// unpipelined latency; no batching, no overlap.
    ///
    /// # Panics
    ///
    /// Panics if `fresh > 2`.
    pub fn serialized_host_cycles(&self, n: usize, fresh: u64) -> u64 {
        n as u64 * (self.dispatch_cycles + self.per_card.cached_multiplication_cycles(fresh))
    }

    /// Cycles one card takes to serve `n` products for a **streaming
    /// host**: a client that overlaps submission with completion (the
    /// `CompletionQueue` shape), keeping the queue full so the card runs
    /// back-to-back micro-batches of `batch` products — one dispatch per
    /// flush, every product after a flush's first riding the pipelined
    /// initiation interval.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `batch` is zero, or `fresh > 2`.
    pub fn streaming_host_cycles(&self, n: usize, batch: usize, fresh: u64) -> u64 {
        assert!(n > 0, "a host trace holds at least one product");
        let batch = batch.max(1);
        let full = (n / batch) as u64 * self.flush_cycles(batch, fresh);
        let rem = n % batch;
        full + if rem > 0 {
            self.flush_cycles(rem, fresh)
        } else {
            0
        }
    }

    /// How much faster a completion-driven host serves the same `n`
    /// products than a submit-and-block host on one card — the
    /// host-interface gap the streaming client surface exists to close.
    /// `1.0` when `batch == 1` (with nothing in flight to overlap, the
    /// streaming host degenerates to the serialized one exactly);
    /// approaches `multiplication latency / initiation interval` as the
    /// batch grows.
    ///
    /// ```
    /// use he_hwsim::fleet::FleetModel;
    ///
    /// let fleet = FleetModel::paper(1);
    /// // One product in flight at a time: no gain from streaming.
    /// assert!((fleet.host_overlap_speedup(64, 1, 1) - 1.0).abs() < 1e-9);
    /// // Micro-batches of 16 one-cached products: submission/completion
    /// // overlap pays for itself immediately (≈1.47× at the paper's
    /// // design point, approaching 1.5× as batches deepen).
    /// assert!(fleet.host_overlap_speedup(64, 16, 1) > 1.4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n` or `batch` is zero, or `fresh > 2`.
    pub fn host_overlap_speedup(&self, n: usize, batch: usize, fresh: u64) -> f64 {
        self.serialized_host_cycles(n, fresh) as f64
            / self.streaming_host_cycles(n, batch, fresh) as f64
    }

    /// This fleet's throughput over a single card of the same
    /// configuration (linear in the analytic model — the simulation is
    /// where queueing effects bend the curve).
    pub fn speedup_over_single(&self, batch: usize, fresh: u64) -> f64 {
        let single = FleetModel {
            per_card: self.per_card.clone(),
            cards: 1,
            dispatch_cycles: self.dispatch_cycles,
        };
        self.products_per_second(batch, fresh) / single.products_per_second(batch, fresh)
    }

    /// Discrete-event simulation of the fleet draining a job trace
    /// through the shared queue.
    ///
    /// Jobs enter the queue at their arrival cycle; whenever a card is
    /// free and jobs are pending, it claims up to `batch` of them under
    /// `policy`, expires the ones whose deadline already passed
    /// ([`FleetReport::expired_in_queue`]), and runs the rest as one
    /// flush of [`FleetModel::flush_cycles`]. A claimed job whose
    /// deadline falls before its flush completes is attributed to
    /// compute ([`FleetReport::expired_in_flush`]). Deterministic: ties
    /// between idle cards break by card index.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `fresh > 2`.
    pub fn simulate(
        &self,
        jobs: &[FleetJob],
        batch: usize,
        fresh: u64,
        policy: FleetPolicy,
    ) -> FleetReport {
        self.simulate_with_outages(jobs, batch, fresh, policy, &[])
    }

    /// [`FleetModel::simulate`] over a **degraded fleet**: each
    /// [`FleetOutage`] kills its card at `fail_cycle` — a flush in
    /// progress there is lost, its jobs return to the shared queue
    /// ([`FleetReport::retried`]) for the survivors (or the repaired card)
    /// to re-claim — and the card rejoins at `repair_cycle`. With an empty
    /// outage list this is exactly `simulate`. Every job still resolves:
    /// `completed + expired` always totals the trace.
    ///
    /// ```
    /// use he_hwsim::fleet::{FleetJob, FleetModel, FleetOutage, FleetPolicy};
    ///
    /// let fleet = FleetModel::paper(2);
    /// let jobs: Vec<FleetJob> = (0..8).map(|_| FleetJob::at(0)).collect();
    /// // Card 0 dies mid-first-flush and stays down for a long time.
    /// let outage = FleetOutage::new(0, 1_000, 50_000_000);
    /// let report = fleet.simulate_with_outages(&jobs, 2, 1, FleetPolicy::Fifo, &[outage]);
    /// assert_eq!(report.completed, 8, "the survivor absorbs the lost flush");
    /// assert!(report.retried > 0, "the killed flush's jobs were re-queued");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, `fresh > 2`, or an outage names a card
    /// outside the fleet.
    pub fn simulate_with_outages(
        &self,
        jobs: &[FleetJob],
        batch: usize,
        fresh: u64,
        policy: FleetPolicy,
        outages: &[FleetOutage],
    ) -> FleetReport {
        assert!(batch > 0, "a flush holds at least one product");
        assert!(
            outages.iter().all(|o| o.card < self.cards),
            "outage names a card outside the fleet"
        );
        let mut report = FleetReport::default();
        // Pending job indices, kept in arrival order (stable by input
        // index for equal arrivals — the submission order of the trace).
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| (jobs[i].arrival_cycle, i));
        let mut pending: Vec<usize> = order;
        let mut cards: Vec<u64> = vec![0; self.cards];
        while !pending.is_empty() {
            // The next card to act: earliest free, lowest index on ties.
            let card = (0..cards.len())
                .min_by_key(|&c| (cards[c], c))
                .expect("fleet has at least one card");
            // It can start once it is free and at least one job has
            // arrived.
            let first_arrival = jobs[pending[0]].arrival_cycle;
            let now = cards[card].max(first_arrival);
            // A card inside an outage window cannot claim: it sits out
            // until its repair cycle.
            if let Some(outage) = outages
                .iter()
                .find(|o| o.card == card && o.fail_cycle <= now && now < o.repair_cycle)
            {
                cards[card] = outage.repair_cycle;
                continue;
            }
            let arrived: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| jobs[i].arrival_cycle <= now)
                .collect();
            let claimed: Vec<usize> = match policy {
                FleetPolicy::Fifo => arrived.iter().copied().take(batch).collect(),
                FleetPolicy::Edf => {
                    // `arrived` is already in arrival order, and the sort
                    // is stable — so equal deadlines (and the
                    // deadline-less tail) keep arrival order as the
                    // tie-breaker, matching the software fleet's
                    // seq-ranked EDF claim.
                    let mut ranked = arrived.clone();
                    ranked.sort_by_key(|&i| jobs[i].deadline_cycle.unwrap_or(u64::MAX));
                    ranked.into_iter().take(batch).collect()
                }
            };
            let claimed_set: std::collections::HashSet<usize> = claimed.iter().copied().collect();
            pending.retain(|i| !claimed_set.contains(i));
            // Queue-attributed expiry: already late at claim time.
            let live: Vec<usize> = claimed
                .into_iter()
                .filter(|&i| match jobs[i].deadline_cycle {
                    Some(deadline) if deadline < now => {
                        report.expired_in_queue += 1;
                        false
                    }
                    _ => true,
                })
                .collect();
            if live.is_empty() {
                // The card inspected and dropped dead jobs; charge only
                // the dispatch.
                cards[card] = now + self.dispatch_cycles;
                continue;
            }
            report.flushes += 1;
            let done = now + self.flush_cycles(live.len(), fresh);
            // A card that dies mid-flush loses the whole flush: its jobs
            // go back to the shared queue (arrival order restored) and
            // the card is busy until repaired. An outage never kills
            // twice — the card resumes past its own fail cycle.
            if let Some(outage) = outages
                .iter()
                .find(|o| o.card == card && now <= o.fail_cycle && o.fail_cycle < done)
            {
                report.retried += live.len() as u64;
                pending.extend(live);
                pending.sort_by_key(|&i| (jobs[i].arrival_cycle, i));
                cards[card] = outage.repair_cycle;
                continue;
            }
            for i in live {
                match jobs[i].deadline_cycle {
                    Some(deadline) if deadline < done => report.expired_in_flush += 1,
                    _ => report.completed += 1,
                }
            }
            cards[card] = done;
            report.makespan_cycles = report.makespan_cycles.max(done);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_card_one_job_reduces_to_the_section_v_latency() {
        let fleet = FleetModel::paper(1).with_dispatch_cycles(0);
        assert_eq!(
            fleet.flush_cycles(1, 2),
            fleet.per_card().multiplication_cycles()
        );
        // The cached rungs reduce to the cached latency too.
        assert_eq!(
            fleet.flush_cycles(1, 0),
            fleet.per_card().cached_multiplication_cycles(0)
        );
    }

    #[test]
    fn analytic_throughput_scales_linearly_in_cards() {
        for cards in [1usize, 2, 4, 8] {
            let fleet = FleetModel::paper(cards);
            let speedup = fleet.speedup_over_single(64, 1);
            assert!(
                (speedup - cards as f64).abs() < 1e-9,
                "{cards} cards: {speedup}"
            );
        }
    }

    #[test]
    fn batching_amortizes_the_first_product_latency() {
        let fleet = FleetModel::paper(1);
        let single = fleet.products_per_second(1, 1);
        let batched = fleet.products_per_second(64, 1);
        assert!(
            batched > single * 1.2,
            "batch 64 must clearly beat one-at-a-time ({batched:.1} vs {single:.1})"
        );
        // And the cache ladder still ranks: both-cached > one-cached >
        // uncached at the same batch size.
        assert!(fleet.products_per_second(64, 0) > fleet.products_per_second(64, 1));
        assert!(fleet.products_per_second(64, 1) > fleet.products_per_second(64, 2));
    }

    #[test]
    fn simulation_matches_the_analytic_makespan_without_deadlines() {
        let fleet = FleetModel::paper(2);
        // 8 jobs all present at cycle 0, batches of 2 → each card runs
        // two flushes back to back.
        let jobs: Vec<FleetJob> = (0..8).map(|_| FleetJob::at(0)).collect();
        let report = fleet.simulate(&jobs, 2, 1, FleetPolicy::Fifo);
        assert_eq!(report.completed, 8);
        assert_eq!(report.expired(), 0);
        assert_eq!(report.flushes, 4);
        assert_eq!(report.makespan_cycles, 2 * fleet.flush_cycles(2, 1));
    }

    #[test]
    fn more_cards_never_lengthen_the_makespan() {
        let jobs: Vec<FleetJob> = (0..16).map(|i| FleetJob::at(i * 100)).collect();
        let mut last = u64::MAX;
        for cards in [1usize, 2, 4] {
            let report = FleetModel::paper(cards).simulate(&jobs, 4, 1, FleetPolicy::Fifo);
            assert_eq!(report.completed, 16);
            assert!(
                report.makespan_cycles <= last,
                "{cards} cards lengthened the makespan"
            );
            last = report.makespan_cycles;
        }
    }

    #[test]
    fn host_overlap_collapses_at_batch_one_and_grows_with_batching() {
        let fleet = FleetModel::paper(1);
        // With one product in flight the streaming host degenerates to
        // the serialized one exactly, at every cache rung.
        for fresh in [0u64, 1, 2] {
            assert_eq!(
                fleet.streaming_host_cycles(64, 1, fresh),
                fleet.serialized_host_cycles(64, fresh)
            );
        }
        // Deeper batches only widen the overlap win.
        let mut last = 1.0;
        for batch in [2usize, 4, 16, 64] {
            let speedup = fleet.host_overlap_speedup(64, batch, 1);
            assert!(
                speedup > last,
                "batch {batch}: speedup {speedup} did not grow past {last}"
            );
            last = speedup;
        }
    }

    #[test]
    fn streaming_host_charges_partial_flushes() {
        let fleet = FleetModel::paper(1);
        // 10 products in batches of 4: two full flushes plus one of 2.
        assert_eq!(
            fleet.streaming_host_cycles(10, 4, 1),
            2 * fleet.flush_cycles(4, 1) + fleet.flush_cycles(2, 1)
        );
    }

    #[test]
    fn edf_expires_strictly_fewer_than_fifo_under_overload() {
        let fleet = FleetModel::paper(1);
        let flush = fleet.flush_cycles(4, 1);
        // 16 jobs arrive at once (4 flushes of work). The last 8 carry
        // deadlines of two flush times: FIFO reaches them too late, EDF
        // runs them first.
        let mut jobs: Vec<FleetJob> = (0..8).map(|_| FleetJob::at(0)).collect();
        jobs.extend((0..8).map(|_| FleetJob::at(0).with_deadline(2 * flush)));
        let fifo = fleet.simulate(&jobs, 4, 1, FleetPolicy::Fifo);
        let edf = fleet.simulate(&jobs, 4, 1, FleetPolicy::Edf);
        // Every job is accounted for under both policies.
        for report in [&fifo, &edf] {
            assert_eq!(report.completed + report.expired(), 16);
        }
        assert!(
            fifo.expired() > 0,
            "the scenario must actually overload FIFO"
        );
        assert_eq!(edf.expired(), 0, "EDF serves the urgent half first");
        assert!(edf.expired() < fifo.expired());
    }

    #[test]
    fn hopeless_deadlines_are_attributed_to_queueing() {
        let fleet = FleetModel::paper(1);
        // A job whose deadline passed before it could ever start.
        let jobs = [FleetJob::at(1000).with_deadline(10), FleetJob::at(0)];
        let report = fleet.simulate(&jobs, 1, 2, FleetPolicy::Edf);
        assert_eq!(report.expired_in_queue, 1);
        assert_eq!(report.expired_in_flush, 0);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn outage_free_simulation_is_unchanged() {
        let fleet = FleetModel::paper(2);
        let jobs: Vec<FleetJob> = (0..12).map(|i| FleetJob::at(i * 50)).collect();
        assert_eq!(
            fleet.simulate(&jobs, 3, 1, FleetPolicy::Edf),
            fleet.simulate_with_outages(&jobs, 3, 1, FleetPolicy::Edf, &[])
        );
    }

    #[test]
    fn killed_flush_jobs_fail_over_to_the_survivor() {
        let fleet = FleetModel::paper(2);
        let flush = fleet.flush_cycles(2, 1);
        let jobs: Vec<FleetJob> = (0..8).map(|_| FleetJob::at(0)).collect();
        // Card 0 dies one cycle into its first flush and never comes back
        // within the horizon: every job still completes on card 1.
        let outage = FleetOutage::new(0, 1, u64::MAX);
        let report = fleet.simulate_with_outages(&jobs, 2, 1, FleetPolicy::Fifo, &[outage]);
        assert_eq!(report.completed, 8);
        assert_eq!(report.expired(), 0);
        assert_eq!(report.retried, 2, "exactly the killed flush's jobs");
        // The survivor runs all four productive flushes back to back.
        assert_eq!(report.makespan_cycles, 4 * flush);
    }

    #[test]
    fn repaired_card_rejoins_the_fleet() {
        let fleet = FleetModel::paper(1);
        let flush = fleet.flush_cycles(2, 1);
        let jobs: Vec<FleetJob> = (0..6).map(|_| FleetJob::at(0)).collect();
        // The only card dies mid-first-flush and is repaired shortly
        // after: the work is lost time, not lost jobs.
        let outage = FleetOutage::new(0, flush / 2, flush);
        let report = fleet.simulate_with_outages(&jobs, 2, 1, FleetPolicy::Fifo, &[outage]);
        assert_eq!(report.completed, 6);
        assert_eq!(report.retried, 2);
        // One dead flush (repair at `flush`), then three clean ones.
        assert_eq!(report.makespan_cycles, flush + 3 * flush);
    }

    #[test]
    fn outage_delay_shows_up_as_queue_attributed_expiry() {
        let fleet = FleetModel::paper(1);
        let flush = fleet.flush_cycles(1, 1);
        // Deadline comfortably met by a healthy card…
        let jobs = [FleetJob::at(0).with_deadline(2 * flush)];
        let healthy = fleet.simulate(&jobs, 1, 1, FleetPolicy::Edf);
        assert_eq!(healthy.completed, 1);
        // …but a long outage makes the retried job hopeless by the time
        // the card is back: the miss is attributed to queueing.
        let outage = FleetOutage::new(0, 1, 10 * flush);
        let degraded = fleet.simulate_with_outages(&jobs, 1, 1, FleetPolicy::Edf, &[outage]);
        assert_eq!(degraded.completed, 0);
        assert_eq!(degraded.retried, 1);
        assert_eq!(degraded.expired_in_queue, 1);
    }

    #[test]
    fn too_tight_deadlines_are_attributed_to_compute() {
        let fleet = FleetModel::paper(1).with_dispatch_cycles(0);
        let latency = fleet.per_card().multiplication_cycles();
        // Claimed immediately (deadline still ahead at cycle 0) but
        // impossible to finish in half a multiplication.
        let jobs = [FleetJob::at(0).with_deadline(latency / 2)];
        let report = fleet.simulate(&jobs, 1, 2, FleetPolicy::Edf);
        assert_eq!(report.expired_in_queue, 0);
        assert_eq!(report.expired_in_flush, 1);
        assert_eq!(report.completed, 0);
    }
}
