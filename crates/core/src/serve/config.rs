//! What an operator sets ([`ServeConfig`]) and what the fleet reports
//! back ([`ServeStats`] per card, [`PoolStats`] per fleet). Three rules
//! are not knobs: a free card claims one run at once — at most as many
//! jobs as its engine computes together, earliest deadlines first
//! (arrival order when no deadlines are in play) — and the cache admits
//! an inline operand on its second sighting.

use std::time::Duration;

/// Tuning knobs of a [`ServerPool`](super::ServerPool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded submission-queue depth: a blocking submission waits and a
    /// non-blocking one sheds once this many jobs are pending (minimum
    /// 1). A claimed run no longer counts against the bound.
    pub queue_capacity: usize,
    /// Bytes of prepared handles retained **per card** between runs,
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
    /// up on it. When a run **panics**, its jobs are re-queued to the
    /// surviving cards (and isolated: each runs alone until it proves
    /// innocent) until a job has taken down `retry_limit + 1` runs; then
    /// it is quarantined with
    /// [`ServeError::Poisoned`](super::ServeError).
    /// A job failing with a *transient* device fault
    /// ([`crate::MultiplyError::Device`]) is re-queued the same number of
    /// times before its error is delivered. Retries honor the job's
    /// deadline budget; `0` disables retrying.
    pub retry_limit: u32,
    /// On a factory-supervised pool
    /// ([`ServerPool::with_backend_factory`](super::ServerPool::with_backend_factory)),
    /// how many **consecutive** restarts a card may attempt without
    /// completing a single clean run in between, before it is declared
    /// [`CardHealth::Dead`]. A clean run refills the budget.
    pub restart_cap: u32,
    /// Backoff before the first restart attempt of a panicked card;
    /// doubles per consecutive attempt (capped at ~1 s).
    pub restart_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
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
    /// Runs claimed and flushed (a run is at most the engine's width).
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
    /// Largest single run, in jobs (at most the engine's width).
    pub largest_flush: usize,
    /// Idle-trim passes (backend scratch released after a quiet period).
    pub idle_trims: u64,
    /// Jobs re-queued after a panicked or transiently-failing flush —
    /// each re-queue counts once, on the card whose flush failed (see
    /// [`ServeConfig::retry_limit`]).
    pub retried: u64,
    /// Solo re-runs of jobs from a run that reported an error — the
    /// per-job isolation pass that keeps one bad product from failing its
    /// run-mates.
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
    /// restart attempts. The fleet serves on with the survivors.
    Dead,
}

/// Counters of a whole fleet: one [`ServeStats`] per card plus the
/// pool-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-card lifetime counters, in card order.
    pub per_worker: Vec<ServeStats>,
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
