//! What an operator sets ([`ServeConfig`]) and what the fleet reports
//! back ([`ServeStats`] per card, [`PoolStats`] per fleet). Two rules are
//! not knobs: a free card claims pending work at once, and the cache
//! admits an inline operand on its second sighting.

use std::time::Duration;

/// How a card picks jobs out of the shared queue when it claims a flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Earliest-deadline-first: a flush takes the pending jobs with the
    /// earliest deadlines (deadline-less jobs rank last, in arrival
    /// order). Under overload this serves urgent jobs while they can
    /// still make it, expiring strictly fewer jobs than arrival order;
    /// with no deadlines in play it degenerates to FIFO exactly.
    #[default]
    Edf,
    /// Strict arrival order, deadlines ignored for *selection* (expiry
    /// still applies).
    Fifo,
}

/// How jobs are matched to cards when a fleet's transform geometries
/// differ.
///
/// ```
/// use he_accel::prelude::*;
///
/// // A small card and a big card behind one queue: by-size routing
/// // sends each job to a card whose transform fits it.
/// let pool = ServerPool::spawn(
///     vec![
///         EvalEngine::new(SsaSoftware::for_operand_bits(2_000)?),
///         EvalEngine::new(SsaSoftware::for_operand_bits(100_000)?),
///     ],
///     ServeConfig {
///         route: RoutePolicy::BySize,
///         ..ServeConfig::default()
///     },
/// );
/// let big = UBig::pow2(50_000); // only the 100k-bit card can run this
/// let ticket = pool.submit(ProductRequest::new(big.clone(), UBig::from(3u64)))?;
/// assert_eq!(ticket.wait().expect("routed to the big card"), &big * &UBig::from(3u64));
/// assert_eq!(pool.shutdown().total().failed, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutePolicy {
    /// One shared queue, any card claims any job — the right default for
    /// homogeneous fleets (every card can run everything).
    #[default]
    Shared,
    /// A card only claims jobs whose operands fit its transform geometry
    /// ([`crate::Multiplier::operand_capacity_bits`]), so a heterogeneous
    /// fleet — small fast cards next to big ones — serves mixed-size
    /// traffic with zero capacity failures. A job too big for every
    /// *live* card stays claimable by all of them (it fails fast with
    /// the backend's own typed error instead of waiting forever — also
    /// when the one card that fitted it has died).
    BySize,
}

/// Tuning knobs of a [`ServerPool`](super::ServerPool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded submission-queue depth: a blocking submission waits and a
    /// non-blocking one sheds once this many jobs are pending (minimum
    /// 1). Claimed micro-batches no longer count against the bound.
    pub queue_capacity: usize,
    /// The most jobs one flush takes (minimum 1). A free card claims
    /// whatever it may run the moment anything is pending — it never
    /// waits for a batch to fill — so batches form only from what queued
    /// while every card was busy.
    pub max_batch: usize,
    /// How a flush selects its jobs from the shared queue.
    pub policy: FlushPolicy,
    /// How jobs are matched to cards of differing transform geometry
    /// (irrelevant on homogeneous fleets).
    pub route: RoutePolicy,
    /// Bytes of prepared handles retained **per card** between flushes,
    /// digest-keyed and pinned together (least recently used evicted
    /// first, pins last); `0` disables caching and every job runs as a
    /// raw three-transform product. An entry weighs its operand plus its
    /// cached spectrum (608 KiB at the paper's 64K-point plan, so the
    /// default keeps about a hundred paper-size operands resident). An
    /// inline operand is admitted on its **second** sighting — one-shot
    /// operands run raw and never take a slot; pins are admitted at
    /// once. Backends whose handles cache nothing (the classical
    /// algorithms) disable the cache automatically.
    pub cache_bytes: usize,
    /// After this long with no traffic a card releases its backend's idle
    /// working memory ([`crate::Multiplier::trim_resources`]) **and** its
    /// cached handles — a resident server must not pin a burst's worth
    /// of multi-MB scratch and spectra forever. The next burst
    /// re-prepares the operands it actually reuses.
    pub idle_trim_after: Duration,
    /// How many times a failed job is re-queued before the fleet gives
    /// up on it. A job in a **panicked** flush is re-queued to the
    /// surviving cards (and isolated: it runs alone until it proves
    /// innocent) until it has taken down `retry_limit + 1` flushes — then
    /// it is quarantined with [`ServeError::Poisoned`](super::ServeError).
    /// A job failing with a *transient* device fault
    /// ([`crate::MultiplyError::Device`]) is re-queued the same number of
    /// times before its error is delivered. Retries honor the job's
    /// deadline budget; `0` disables retrying.
    pub retry_limit: u32,
    /// On a factory-supervised pool
    /// ([`ServerPool::with_backend_factory`](super::ServerPool::with_backend_factory)),
    /// how many **consecutive** restarts a card may attempt without
    /// completing a single clean flush in between, before it is declared
    /// [`CardHealth::Dead`]. A clean flush refills the budget.
    pub restart_cap: u32,
    /// Backoff before the first restart attempt of a panicked card;
    /// doubles per consecutive attempt (capped at ~1 s).
    pub restart_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 64,
            policy: FlushPolicy::Edf,
            route: RoutePolicy::Shared,
            cache_bytes: 64 << 20,
            idle_trim_after: Duration::from_millis(250),
            retry_limit: 2,
            restart_cap: 3,
            restart_backoff: Duration::from_millis(10),
        }
    }
}

/// Lifetime counters of one card, returned per card by
/// [`ServerPool::shutdown`](super::ServerPool::shutdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Micro-batches flushed.
    pub flushes: u64,
    /// Jobs answered with a product.
    pub completed: u64,
    /// Jobs answered with a backend error.
    pub failed: u64,
    /// Jobs whose deadline had already passed when a card dequeued them —
    /// they expired **in the queue**, so the miss is attributable to
    /// queueing (arrival rate vs fleet capacity), not to the flush that
    /// found them.
    pub expired_in_queue: u64,
    /// Jobs that were still live when their flush was claimed but whose
    /// deadline passed during the flush's preparation phase — the miss is
    /// attributable to **compute** (the flush itself ran too long), not
    /// to queueing.
    pub expired_in_flush: u64,
    /// Jobs withdrawn (by [`ProductTicket::cancel`](super::ProductTicket::cancel)
    /// or a [`CancelHandle`](super::CancelHandle)) and dropped at claim
    /// time without running.
    pub cancelled: u64,
    /// Non-blocking submissions rejected with
    /// [`SubmitError::Full`](super::SubmitError::Full) — load the bounded
    /// queue shed instead of buffering. Counted at the pool level (no
    /// card ever saw the job) and folded into the roll-up by
    /// [`PoolStats::total`].
    pub shed: u64,
    /// Inline-operand lookups that hit the card's cache.
    pub cache_hits: u64,
    /// Inline-operand lookups that missed: run raw on a first sighting,
    /// prepared and cached once admitted.
    pub cache_misses: u64,
    /// Operand lookups resolved from the card's **pinned** entries — the
    /// operands a [`ClientSession::register`](super::ClientSession::register)
    /// call pinned by id, served without hashing the operand's data at
    /// all.
    pub pinned_hits: u64,
    /// Operand lookups answered by the pool's speculative preparer — the
    /// spectrum was ready before the flush started, off the critical
    /// path.
    pub speculative_hits: u64,
    /// Largest single flush, in jobs.
    pub largest_flush: usize,
    /// Idle-trim passes (backend scratch released after a quiet period).
    pub idle_trims: u64,
    /// Jobs re-queued after a panicked or transiently-failing flush —
    /// each re-queue counts once, on the card whose flush failed (see
    /// [`ServeConfig::retry_limit`]).
    pub retried: u64,
    /// Solo re-runs of jobs from a batch that reported an error — the
    /// per-job isolation pass that keeps one bad product from failing its
    /// batch-mates.
    pub reruns: u64,
    /// Times this card's engine was rebuilt from the backend factory
    /// after a panic.
    pub restarts: u64,
    /// Jobs quarantined with [`ServeError::Poisoned`](super::ServeError)
    /// after exhausting their retry budget on panicked flushes.
    pub poisoned: u64,
}

impl ServeStats {
    /// Total jobs answered with [`ServeError::Expired`](super::ServeError),
    /// wherever the deadline was missed.
    pub fn expired(&self) -> u64 {
        self.expired_in_queue + self.expired_in_flush
    }

    /// Folds another worker's counters into this one (counter fields add;
    /// `largest_flush` takes the maximum).
    pub fn absorb(&mut self, other: &ServeStats) {
        self.flushes += other.flushes;
        self.completed += other.completed;
        self.failed += other.failed;
        self.expired_in_queue += other.expired_in_queue;
        self.expired_in_flush += other.expired_in_flush;
        self.cancelled += other.cancelled;
        self.shed += other.shed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.pinned_hits += other.pinned_hits;
        self.speculative_hits += other.speculative_hits;
        self.largest_flush = self.largest_flush.max(other.largest_flush);
        self.idle_trims += other.idle_trims;
        self.retried += other.retried;
        self.reruns += other.reruns;
        self.restarts += other.restarts;
        self.poisoned += other.poisoned;
    }
}

/// Supervision state of one card of a fleet (see [`PoolStats::health`]
/// and the card-health state diagram in `ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CardHealth {
    /// Serving normally.
    #[default]
    Live,
    /// The card's worker caught a backend panic and is rebuilding its
    /// engine from the pool's backend factory (backoff, re-prepare,
    /// pin replay). It claims no jobs while restarting.
    Restarting,
    /// The card is gone for good: it panicked on a pool with no backend
    /// factory, or exhausted [`ServeConfig::restart_cap`] consecutive
    /// restart attempts. [`RoutePolicy::BySize`] stops routing to it;
    /// the fleet serves on with the survivors.
    Dead,
}

/// Counters of a whole fleet: one [`ServeStats`] per card plus the
/// pool-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-card lifetime counters, in card order.
    pub per_worker: Vec<ServeStats>,
    /// Operands the speculative preparer transformed off the critical
    /// path (whether or not a card ended up claiming them).
    pub speculative_prepares: u64,
    /// Non-blocking submissions the pool rejected with
    /// [`SubmitError::Full`](super::SubmitError::Full) — shed load that
    /// no card ever saw.
    pub shed: u64,
    /// Per-card supervision state, in card order. Shutdown and drain
    /// snapshot this *before* closing the queue, so a clean exit still
    /// reports the fleet's serving-time health.
    pub health: Vec<CardHealth>,
}

impl PoolStats {
    /// The fleet-wide roll-up of every card's counters, with the
    /// pool-level shed count folded into [`ServeStats::shed`].
    pub fn total(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for worker in &self.per_worker {
            total.absorb(worker);
        }
        total.shed += self.shed;
        total
    }
}

/// What [`ServerPool::drain`](super::ServerPool::drain) came back with:
/// the fleet's final counters, and whether every accepted job finished
/// inside the timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainOutcome {
    /// The fleet's lifetime counters (same shape as a shutdown's).
    pub stats: PoolStats,
    /// `true` when every accepted job was answered before the timeout;
    /// `false` when the deadline expired with jobs still queued (those
    /// resolved [`ServeError::Closed`](super::ServeError::Closed)).
    pub clean: bool,
}
