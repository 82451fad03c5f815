//! One card of the fleet — claim a micro-batch, resolve its operands
//! against the card's cache, run it under panic containment, answer every
//! job — and the speculative preparer that works ahead of the cards.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use he_bigint::UBig;
use he_ntt::par::lock_or_recover;

use super::cache::{digest, Key, OperandCache};
use super::completion::{CompletionSink, ServeError};
use super::config::{CardHealth, RoutePolicy, ServeStats};
use super::queue::{flush_due, pop_batch, Operand, PoolShared, Submitted};
use crate::engine::{EvalEngine, OperandHandle, ProductJob};
use crate::multiplier::{Multiplier, MultiplyError};

/// The engine builder a supervised pool rebuilds panicked cards from.
pub(super) type CardFactory<M> = Arc<dyn Fn(usize) -> EvalEngine<M> + Send + Sync>;

/// One buffered answer: the job's sink and its outcome (flushes deliver
/// these only after publishing their stats).
type Reply = (CompletionSink, Result<UBig, ServeError>);

/// The cache keys of one job's two operands, resolved once in phase 1 of
/// its flush and carried to phase 2 (`None` = the cache is off).
type JobKeys = (Option<Key>, Option<Key>);

/// What a card found when it went back to the queue.
enum Claim {
    Batch(Vec<Submitted>),
    IdleTrim,
    Closed,
}

/// Phase-1 bookkeeping of one flush.
#[derive(Default)]
struct FlushPlan<'a> {
    /// Operands to prepare, in first-seen order.
    missing: Vec<(Key, &'a Operand)>,
    /// Keys already claimed from the staging store or put on `missing`.
    scheduled: HashSet<Key>,
    /// Repeat sightings of scheduled keys. Once the first sighting's
    /// preparation lands, every repeat is served from the cache in phase
    /// 2 — a hit, same as a cross-flush hit. Until then the repeats stay
    /// provisional (a raw or failed preparation caches nothing, so
    /// crediting them up front would invent hits).
    repeats: HashMap<Key, u64>,
    /// Digests that hit this flush, for the speculative preparer.
    hot_hits: Vec<u64>,
}

/// One card of the fleet: an engine, its private cache, and its counters.
pub(super) struct CardWorker<M> {
    index: usize,
    engine: EvalEngine<M>,
    shared: Arc<PoolShared>,
    /// Prepared handles of inline operands (digest-keyed) and of
    /// session-registered ones (pin-keyed), under one `cache_capacity`
    /// budget; emptied by an idle trim and rebuilt lazily from the jobs
    /// in hand (requests carry their pinned operands).
    cache: OperandCache,
    /// This card's transform capacity in bits (`None` = unbounded) — its
    /// side of the by-size eligibility check.
    capacity: Option<usize>,
    stats: ServeStats,
    /// Whether this card already trimmed during the current idle period
    /// (one trim per quiet stretch, then park until traffic returns).
    trimmed: bool,
    /// The engine rebuilder on a supervised pool; `None` = a panicking
    /// flush kills this card for good.
    factory: Option<CardFactory<M>>,
    /// Restart attempts since the last clean flush; bounded by
    /// `ServeConfig::restart_cap`.
    consecutive_restarts: u32,
}

/// Runs when a card exits, however it exits. Marks the card
/// [`CardHealth::Dead`] (and wakes the fleet, so by-size survivors
/// re-evaluate and claim the jobs only the dead card used to fit); the
/// **last** card to go additionally closes the queue — a fleet whose
/// every worker panicked must refuse submissions instead of blocking
/// them forever — and drops the jobs nobody is left to run, so their
/// sinks resolve `Closed` instead of hanging until the pool handle is
/// torn down.
struct AliveGuard<'a> {
    shared: &'a PoolShared,
    index: usize,
}

// lint: supervisor
// (From here to the end of the speculator, the code runs on worker
// threads that hold client reply sinks: a panic is a hung client. The
// he-lint gate keeps these paths free of unwrap/expect/panic/indexing.)
impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.shared.set_health(self.index, CardHealth::Dead);
        if self.shared.workers_alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.close();
            // `close` set the flag, so nothing can be pushed after this
            // clear: every orphaned job's sink drops here, which is what
            // resolves its caller.
            self.shared.lock_state().pending.clear();
        } else {
            // Wake parked survivors: jobs this card alone fitted are now
            // claimable by everyone.
            self.shared.wake_cards();
        }
    }
}

impl<M: Multiplier + Sync> CardWorker<M> {
    pub(super) fn new(
        index: usize,
        engine: EvalEngine<M>,
        shared: Arc<PoolShared>,
        factory: Option<CardFactory<M>>,
    ) -> CardWorker<M> {
        CardWorker {
            index,
            engine,
            cache: OperandCache::new(shared.config.cache_capacity),
            capacity: shared.capacity(index),
            shared,
            stats: ServeStats::default(),
            trimmed: false,
            factory,
            consecutive_restarts: 0,
        }
    }

    /// Whether this card may claim `job` under the pool's route policy.
    fn eligible(&self, job: &Submitted) -> bool {
        match self.shared.config.route {
            RoutePolicy::Shared => true,
            RoutePolicy::BySize => match self.capacity {
                None => true,
                // A job no live card fits stays claimable by everyone:
                // it fails fast with the backend's typed error instead
                // of waiting on a card that does not exist (or died).
                Some(cap) => {
                    job.required_bits <= cap || !self.shared.fits_any_live(job.required_bits)
                }
            },
        }
    }

    /// Queue positions of the jobs this card may claim (all of them
    /// under shared routing).
    fn eligible_indices(&self, pending: &VecDeque<Submitted>) -> Vec<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, job)| self.eligible(job))
            .map(|(i, _)| i)
            .collect()
    }

    pub(super) fn run(mut self) -> ServeStats {
        let shared = Arc::clone(&self.shared);
        let _guard = AliveGuard {
            shared: &shared,
            index: self.index,
        };
        loop {
            match self.claim() {
                Claim::Batch(batch) => {
                    if self.trimmed {
                        self.trimmed = false;
                        self.shared.trimmed_cards.fetch_sub(1, Ordering::AcqRel);
                    }
                    let survived = self.flush(batch);
                    self.publish();
                    if survived {
                        self.consecutive_restarts = 0;
                    } else if !self.recover() {
                        // Unsupervised, or the restart budget is spent:
                        // this card is done; AliveGuard marks it Dead and
                        // the survivors carry the fleet.
                        break;
                    }
                }
                Claim::IdleTrim => {
                    // Release what residency costs when traffic is quiet:
                    // this card's scratch units and cached spectra (both
                    // multi-MB at paper scale, pins included — and with
                    // them any a session has since unregistered); the
                    // next burst re-prepares what it reuses.
                    self.engine.backend().trim_resources();
                    self.cache.clear();
                    self.stats.idle_trims += 1;
                    self.trimmed = true;
                    let idle_now = self.shared.trimmed_cards.fetch_add(1, Ordering::AcqRel) + 1;
                    // The *shared* speculative state empties only once the
                    // whole fleet has gone quiet: hot statistics from a
                    // past burst must not steer speculation for the next,
                    // but wiping the staged spectra while siblings are
                    // still loaded would defeat speculation exactly under
                    // sustained load.
                    if self.shared.speculation && idle_now == self.shared.live.len() {
                        lock_or_recover(&self.shared.hot).clear();
                        lock_or_recover(&self.shared.spec_store).clear();
                    }
                    self.publish();
                }
                Claim::Closed => break,
            }
        }
        self.stats
    }

    /// Refreshes this card's live stats slot.
    fn publish(&self) {
        if let Some(slot) = self.shared.live.get(self.index) {
            *lock_or_recover(slot) = self.stats;
        }
    }

    /// Blocks until there is a micro-batch **this card may run**, the
    /// card should trim, or the fleet is shut down.
    fn claim(&self) -> Claim {
        let config = &self.shared.config;
        let max_batch = config.max_batch.max(1);
        let mut state = self.shared.lock_state();
        loop {
            // Jobs pending for *other* cards are none of this card's
            // business: an empty eligible set idles (and eventually
            // trims) this card even while its siblings are loaded.
            let eligible = self.eligible_indices(&state.pending);
            if eligible.is_empty() {
                if state.closed {
                    return Claim::Closed;
                }
                // One trim per idle period: a card that already trimmed
                // parks until traffic (or shutdown) wakes the fleet.
                let patience = (!self.trimmed).then_some(config.idle_trim_after);
                let (next, timed_out) = self.shared.wait_for_push(state, patience);
                state = next;
                if timed_out && !state.closed && self.eligible_indices(&state.pending).is_empty() {
                    return Claim::IdleTrim;
                }
                continue;
            }
            // A suspect job (it rode a panicked flush) is claimed ALONE
            // and immediately: if it is poisonous it takes down only this
            // flush, and if it is an innocent batch-mate it completes
            // without waiting out another batch window it already paid.
            let suspect_pos = eligible
                .iter()
                .copied()
                .find(|&i| state.pending.get(i).is_some_and(|job| job.suspect));
            if let Some(pos) = suspect_pos {
                if let Some(mut job) = state.pending.remove(pos) {
                    job.seen = Instant::now();
                    drop(state);
                    self.shared.not_full.notify_all();
                    return Claim::Batch(vec![job]);
                }
                continue;
            }
            let now = Instant::now();
            let due = flush_due(&state.pending, &eligible, config);
            if state.closed || eligible.len() >= max_batch || now >= due {
                let batch = pop_batch(&mut state.pending, &eligible, config);
                drop(state);
                // Capacity was freed; unblock waiting submitters.
                self.shared.not_full.notify_all();
                return Claim::Batch(batch);
            }
            // The batch is still filling: wait out the window, waking on
            // every push to re-evaluate (a new job may complete the batch
            // or pull the window earlier with its deadline).
            state = self.shared.wait_for_push(state, Some(due - now)).0;
        }
    }

    /// Runs one claimed micro-batch end to end, with every engine call
    /// supervised by `catch_unwind`. Returns `false` when the backend
    /// panicked — the jobs that were in flight have been re-queued (or
    /// quarantined) and the caller must restart or retire this card.
    fn flush(&mut self, batch: Vec<Submitted>) -> bool {
        self.stats.flushes += 1;
        self.stats.largest_flush = self.stats.largest_flush.max(batch.len());
        // Replies are buffered and sent only after this card's stats are
        // published: a caller that just saw its job answered must find
        // the completion already reflected in the pool's live stats.
        let mut replies: Vec<Reply> = Vec::with_capacity(batch.len());
        // Cancelled jobs are dropped at claim time — no work; the dropped
        // sink tells whoever still listens `Closed`. Then expire jobs
        // whose deadline had already passed when this card dequeued them
        // — they were hopeless before any flush could act, and the miss
        // belongs to queueing, not to this flush. A deadline still ahead
        // at dequeue is honored below: the claim loop pulled this flush
        // to start before it, so the decision is the ordering of two
        // recorded events, not a race against the worker's wakeup
        // latency.
        let mut live: Vec<Submitted> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.reply.is_cancelled() {
                self.stats.cancelled += 1;
                continue;
            }
            match job.request.deadline() {
                Some(deadline) if deadline < job.seen => {
                    self.stats.expired_in_queue += 1;
                    let missed_by = job.seen.saturating_duration_since(deadline);
                    replies.push((job.reply, Err(ServeError::Expired { missed_by })));
                }
                _ => live.push(job),
            }
        }
        // Phase 1 (cache writes). A *panicking* preparation (a poisonous
        // operand, a dying card) is caught: the worker thread survives
        // and the jobs go back to the queue.
        let mut survived = true;
        match catch_unwind(AssertUnwindSafe(|| self.prepare_operands(&live))) {
            Err(_) => {
                survived = false;
                for job in live {
                    self.requeue_or_quarantine(job, &mut replies);
                }
            }
            Ok(keys) => {
                // A job that was live at dequeue but whose deadline passed
                // while this flush prepared its operands has been
                // overtaken by compute, not by queueing: it cannot start
                // in time, so it is dropped here and attributed to the
                // flush.
                let now = Instant::now();
                let mut run: Vec<(Submitted, JobKeys)> = Vec::with_capacity(live.len());
                for (job, keys) in live.into_iter().zip(keys) {
                    match job.request.deadline() {
                        Some(deadline) if deadline < now => {
                            self.expire_in_flush(job, deadline, now, &mut replies);
                        }
                        _ => run.push((job, keys)),
                    }
                }
                if !run.is_empty() {
                    survived = self.execute(run, &mut replies);
                }
            }
        }
        if survived {
            // Evict only after the batch ran: every handle it borrowed
            // was live, so the cache may transiently exceed its capacity
            // within a single flush.
            self.cache.evict_to_capacity();
        } else {
            // An unwind tore through the backend mid-operation: every
            // handle it minted is suspect, so the reborn (or retired)
            // card starts clean. Pins are replayed from the session
            // registry on restart.
            self.cache.clear();
        }
        // Publish this flush's counters, then deliver — in that order,
        // so the live stats never lag a completion the caller already
        // collected.
        self.publish();
        for (reply, outcome) in replies {
            reply.complete(outcome);
        }
        survived
    }

    fn expire_in_flush(
        &mut self,
        job: Submitted,
        deadline: Instant,
        now: Instant,
        replies: &mut Vec<Reply>,
    ) {
        self.stats.expired_in_flush += 1;
        let missed_by = now.saturating_duration_since(deadline);
        replies.push((job.reply, Err(ServeError::Expired { missed_by })));
    }

    /// Phase 1 of a flush: resolve every operand to its cache key — a
    /// pin's id, or an inline operand's digest, hashed **once** here (or
    /// already at submission, on a speculative pool) — look it up, claim
    /// speculatively staged spectra, and prepare the remaining misses,
    /// pinned and inline together, **in parallel** at the product level.
    /// An operand the backend cannot prepare simply stays uncached — the
    /// job then runs raw and surfaces the backend's own error.
    fn prepare_operands(&mut self, live: &[Submitted]) -> Vec<JobKeys> {
        if self.cache.is_disabled() {
            return vec![(None, None); live.len()];
        }
        let mut plan = FlushPlan::default();
        let mut keys: Vec<JobKeys> = Vec::with_capacity(live.len());
        for job in live {
            let (stamp_a, stamp_b) = job.digests.unzip();
            let key_a = self.resolve(&job.request.a, stamp_a, &mut plan);
            let key_b = self.resolve(&job.request.b, stamp_b, &mut plan);
            keys.push((Some(key_a), Some(key_b)));
        }
        let operands: Vec<&UBig> = plan.missing.iter().map(|(_, side)| side.value()).collect();
        let prepared = self.engine.prepare_many(&operands);
        for ((key, side), prepared) in plan.missing.iter().zip(prepared) {
            match prepared {
                Ok(handle) if handle.is_cached() => {
                    self.cache.insert(*key, side.shared(), handle);
                    if matches!(key, Key::Digest(_)) {
                        self.stats.cache_misses += 1;
                    }
                }
                // A raw-fallback backend caches no spectrum, so retaining
                // handles would only clone operands into resident memory
                // for zero transform savings — turn the cache off for
                // good.
                Ok(_) => {
                    self.cache.disable();
                    return vec![(None, None); live.len()];
                }
                Err(_) => {}
            }
        }
        // The repeats of a now-cached operand are hits.
        for (key, count) in std::mem::take(&mut plan.repeats) {
            if self.cache.contains_key(key) {
                self.credit_hits(key, count, &mut plan.hot_hits);
            }
        }
        if !plan.hot_hits.is_empty() {
            let mut hot = lock_or_recover(&self.shared.hot);
            // Bound the statistics: a pathological stream of distinct
            // hot digests must not grow resident memory without limit.
            if hot.len() > 4096 {
                hot.clear();
            }
            hot.extend(plan.hot_hits);
        }
        keys
    }

    /// Resolves one operand of a flush: its key, and — unless it hit —
    /// where its handle will come from.
    fn resolve<'a>(
        &mut self,
        side: &'a Operand,
        stamped: Option<u64>,
        plan: &mut FlushPlan<'a>,
    ) -> Key {
        let key = match side {
            Operand::Pinned { id, .. } => Key::Pin(*id),
            Operand::Inline(value) => Key::Digest(stamped.unwrap_or_else(|| digest(value))),
        };
        if self.cache.touch(key, side.value()) {
            self.credit_hits(key, 1, &mut plan.hot_hits);
        } else if !plan.scheduled.insert(key) {
            *plan.repeats.entry(key).or_insert(0) += 1;
        } else if let Some((operand, handle)) = self.claim_staged(key, side.value()) {
            self.cache.insert(key, operand, handle);
            self.stats.speculative_hits += 1;
        } else {
            plan.missing.push((key, side));
        }
        key
    }

    /// Takes `operand`'s spectrum from the speculative preparer's staging
    /// store, if it is there and this card's geometry can use it.
    fn claim_staged(&self, key: Key, operand: &UBig) -> Option<(Arc<UBig>, OperandHandle)> {
        if !self.shared.speculation || matches!(key, Key::Pin(_)) {
            return None;
        }
        let provenance = self.engine.backend().provenance();
        lock_or_recover(&self.shared.spec_store).take(key, operand, provenance)
    }

    fn credit_hits(&mut self, key: Key, count: u64, hot_hits: &mut Vec<u64>) {
        match key {
            Key::Pin(_) => self.stats.pinned_hits += count,
            Key::Digest(digest) => {
                self.stats.cache_hits += count;
                if self.shared.speculation {
                    hot_hits.push(digest);
                }
            }
        }
    }

    /// Phase 2 of a flush: assemble the batch on the cached handles and
    /// run it as one unit, with panic containment and per-job error
    /// isolation. Returns `false` when the engine panicked (the
    /// unanswered jobs have been re-queued or quarantined).
    fn execute(&mut self, run: Vec<(Submitted, JobKeys)>, replies: &mut Vec<Reply>) -> bool {
        let lookup = |side: &Operand, key: Option<Key>| -> Option<&OperandHandle> {
            self.cache.get(key?, side.value())
        };
        let jobs: Vec<ProductJob<'_>> = run
            .iter()
            .map(|(job, (key_a, key_b))| {
                let (a, b) = (&job.request.a, &job.request.b);
                match (lookup(a, *key_a), lookup(b, *key_b)) {
                    (Some(ha), Some(hb)) => ProductJob::Prepared(ha, hb),
                    (Some(ha), None) => ProductJob::OnePrepared(ha, b.value()),
                    // Multiplication commutes, so a lone cached `b`
                    // still saves its forward transform.
                    (None, Some(hb)) => ProductJob::OnePrepared(hb, a.value()),
                    (None, None) => ProductJob::Raw(a.value(), b.value()),
                }
            })
            .collect();
        // Per-job outcome; `None` = the job was in flight when the card
        // died (requeue it), `Some` = the backend answered (deliver it).
        let mut reruns = 0u64;
        let outcomes: Vec<Option<Result<UBig, MultiplyError>>> = match self.contained_run(&jobs) {
            Some(Ok(products)) => products.into_iter().map(|p| Some(Ok(p))).collect(),
            // A single-job batch's error is already exact.
            Some(Err(err)) if jobs.len() == 1 => vec![Some(Err(err))],
            // A batch reports only its lowest-index error; rerun each job
            // alone so one oversized product does not fail its
            // batch-mates. Once the card dies mid-rerun, the rest of the
            // batch goes straight back to the queue.
            Some(Err(_)) => {
                let mut solo = Vec::with_capacity(jobs.len());
                let mut alive = true;
                for job in &jobs {
                    let outcome = if alive {
                        reruns += 1;
                        self.contained_run(std::slice::from_ref(job))
                    } else {
                        None
                    };
                    alive = outcome.is_some();
                    // An engine returning an empty batch for a one-job
                    // run is a device fault, not a reason to panic the
                    // supervisor.
                    solo.push(outcome.map(|run| {
                        run.and_then(|mut products| {
                            products.pop().ok_or_else(|| {
                                MultiplyError::Device("engine returned an empty batch".into())
                            })
                        })
                    }));
                }
                solo
            }
            None => jobs.iter().map(|_| None).collect(),
        };
        drop(jobs);
        self.stats.reruns += reruns;
        let mut survived = true;
        for ((job, _), outcome) in run.into_iter().zip(outcomes) {
            match outcome {
                Some(Ok(product)) => {
                    self.stats.completed += 1;
                    replies.push((job.reply, Ok(product)));
                }
                Some(Err(err)) => self.fail_or_retry(job, err, replies),
                None => {
                    survived = false;
                    self.requeue_or_quarantine(job, replies);
                }
            }
        }
        survived
    }

    /// Runs `jobs` on the engine; `None` = the backend panicked.
    fn contained_run(&self, jobs: &[ProductJob<'_>]) -> Option<Result<Vec<UBig>, MultiplyError>> {
        catch_unwind(AssertUnwindSafe(|| self.engine.run(jobs))).ok()
    }

    /// Delivers a backend error — or, for a *transient* device fault
    /// ([`MultiplyError::Device`]) with retry budget and deadline left,
    /// re-queues the job so another card (or this one, recovered) can
    /// try again. Deterministic errors (capacity, parameters) are never
    /// retried: they would fail identically everywhere.
    fn fail_or_retry(&mut self, job: Submitted, err: MultiplyError, replies: &mut Vec<Reply>) {
        let transient = matches!(err, MultiplyError::Device(_));
        if !transient || job.retries >= self.shared.config.retry_limit {
            self.stats.failed += 1;
            replies.push((job.reply, Err(ServeError::Multiply(err))));
            return;
        }
        self.retry(job, false, replies);
    }

    /// A job whose flush panicked: back to the queue as a *suspect* (it
    /// will be claimed alone, so a poisonous job cannot take batch-mates
    /// down twice) — or, once it has taken down `retry_limit + 1`
    /// flushes, quarantined with [`ServeError::Poisoned`] so it stops
    /// killing cards.
    fn requeue_or_quarantine(&mut self, job: Submitted, replies: &mut Vec<Reply>) {
        if job.reply.is_cancelled() {
            self.stats.cancelled += 1;
            return;
        }
        if job.retries >= self.shared.config.retry_limit {
            self.stats.poisoned += 1;
            let attempts = job.retries + 1;
            replies.push((job.reply, Err(ServeError::Poisoned { attempts })));
            return;
        }
        self.retry(job, true, replies);
    }

    /// Re-queues a job that has retry budget left — unless its deadline
    /// has passed meanwhile, which expires it instead.
    fn retry(&mut self, mut job: Submitted, suspect: bool, replies: &mut Vec<Reply>) {
        let now = Instant::now();
        match job.request.deadline() {
            Some(deadline) if deadline < now => self.expire_in_flush(job, deadline, now, replies),
            _ => {
                job.retries += 1;
                job.suspect |= suspect;
                self.stats.retried += 1;
                self.shared.requeue(job);
            }
        }
    }

    /// After a failed flush on a supervised pool: rebuild this card's
    /// engine from the factory — exponential backoff, at most
    /// `restart_cap` consecutive attempts without a clean flush — and
    /// replay the session pin registry into the fresh engine. Returns
    /// `false` when the card must retire instead.
    fn recover(&mut self) -> bool {
        let Some(factory) = self.factory.clone() else {
            return false;
        };
        loop {
            if self.consecutive_restarts >= self.shared.config.restart_cap {
                return false;
            }
            self.consecutive_restarts += 1;
            self.shared.set_health(self.index, CardHealth::Restarting);
            // 1×, 2×, 4×, … the configured backoff, capped at a second:
            // a flapping card must not hammer the factory, and must not
            // stall its share of the queue for long either.
            let shift = (self.consecutive_restarts - 1).min(10);
            let backoff = self
                .shared
                .config
                .restart_backoff
                .saturating_mul(1u32 << shift)
                .min(Duration::from_secs(1));
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            // The factory itself may panic (the "device" is still sick):
            // that is a failed attempt, not a dead worker.
            let index = self.index;
            match catch_unwind(AssertUnwindSafe(|| factory(index))) {
                Err(_) => continue,
                Ok(engine) => {
                    self.engine = engine;
                    self.capacity = self.engine.operand_capacity_bits();
                    self.stats.restarts += 1;
                    // A panic during replay (a poisonous pin, the device
                    // dying again) fails this attempt.
                    if catch_unwind(AssertUnwindSafe(|| self.replay_pins())).is_err() {
                        self.cache.clear();
                        continue;
                    }
                    self.shared.set_health(self.index, CardHealth::Live);
                    self.publish();
                    return true;
                }
            }
        }
    }

    /// Re-prepares every registered session operand into the (fresh)
    /// engine's cache, so the reborn card serves registered operands
    /// hash-free from its first flush.
    fn replay_pins(&mut self) {
        if self.cache.is_disabled() {
            return;
        }
        let pins = lock_or_recover(&self.shared.pin_registry).pins();
        for (id, operand) in pins {
            if let Ok(handle) = self.engine.prepare(&operand) {
                if handle.is_cached() {
                    self.cache.insert(Key::Pin(id), operand, handle);
                }
            }
        }
        self.cache.evict_to_capacity();
    }
}

/// The speculative preparer: watches the queue and the fleet's hit
/// statistics, and transforms the fresh partners of hot recurring
/// operands — *hot* meaning the operand's digest has hit a card's cache
/// since the fleet last went idle — into the shared staging store, off
/// the cards' critical path.
pub(super) fn run_speculator<M: Multiplier + Sync>(engine: EvalEngine<M>, shared: Arc<PoolShared>) {
    let config = &shared.config;
    let per_pass = config.max_batch.max(1);
    loop {
        // Snapshot speculation candidates under the queue lock: pending
        // jobs where one side's digest is hot (its spectrum is surely
        // cached on some card) and the other side — the stream side — is
        // neither hot nor already staged. Digests were stamped at
        // submission (outside this lock), so the scan is set lookups
        // plus at most `per_pass` bounded operand clones — it never
        // hashes operand data while submitters and cards contend on the
        // mutex.
        let candidates: Vec<(u64, UBig)> = {
            let mut state = shared.lock_state();
            while !state.closed && state.pending.is_empty() {
                state = shared.wait_for_push(state, None).0;
            }
            if state.closed {
                return;
            }
            let hot = lock_or_recover(&shared.hot);
            let store = lock_or_recover(&shared.spec_store);
            let mut picked: Vec<(u64, UBig)> = Vec::new();
            let mut picked_keys: HashSet<u64> = HashSet::new();
            'scan: for job in state.pending.iter() {
                let Some((key_a, key_b)) = job.digests else {
                    continue;
                };
                let (a, b) = job.request.operands();
                for (this, key, partner_key) in [(a, key_a, key_b), (b, key_b, key_a)] {
                    if hot.contains(&partner_key)
                        && !hot.contains(&key)
                        && !store.contains_key(Key::Digest(key))
                        && picked_keys.insert(key)
                    {
                        picked.push((key, this.clone()));
                        if picked.len() >= per_pass {
                            break 'scan;
                        }
                    }
                }
            }
            picked
        };
        if candidates.is_empty() {
            // Traffic is flowing but nothing is speculable right now
            // (operands cold, or already staged); re-check after one
            // batch window rather than spinning on the queue lock.
            let state = shared.lock_state();
            if state.closed {
                return;
            }
            let wait = config.max_delay.max(Duration::from_millis(1));
            drop(shared.wait_for_push(state, Some(wait)));
            continue;
        }
        for (key, operand) in candidates {
            if shared.lock_state().closed {
                return;
            }
            if let Ok(handle) = engine.prepare(&operand) {
                if handle.is_cached() {
                    let mut store = lock_or_recover(&shared.spec_store);
                    store.insert(Key::Digest(key), Arc::new(operand), handle);
                    store.evict_to_capacity();
                    drop(store);
                    shared.spec_prepares.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}
// lint: end supervisor

#[cfg(test)]
mod tests {
    use super::super::cache::tests::DIGEST_CALLS;
    use super::super::completion::{completion_channel, CompletionReceiver};
    use super::super::config::ServeConfig;
    use super::super::queue::ProductRequest;
    use super::*;
    use crate::multiplier::SsaSoftware;

    fn engine() -> EvalEngine<SsaSoftware> {
        EvalEngine::new(SsaSoftware::for_operand_bits(2_000).unwrap())
    }

    /// A one-card fleet whose card runs on the test's own thread: submit,
    /// then `flush_pending` — no worker thread, no timing.
    fn card(speculation: bool) -> CardWorker<SsaSoftware> {
        let config = ServeConfig {
            max_delay: Duration::ZERO,
            ..ServeConfig::default()
        };
        let engine = engine();
        let capacities = vec![engine.operand_capacity_bits()];
        let shared = Arc::new(PoolShared::new(config, capacities, speculation));
        CardWorker::new(0, engine, shared, None)
    }

    fn submit(card: &CardWorker<SsaSoftware>, pairs: &[(u64, u64)]) -> CompletionReceiver {
        let (mint, receiver) = completion_channel();
        for (tag, &(a, b)) in pairs.iter().enumerate() {
            let request = ProductRequest::new(UBig::from(a), UBig::from(b));
            card.shared
                .enqueue(request, mint.sink(tag as u64), true)
                .unwrap();
        }
        receiver
    }

    fn flush_pending(card: &mut CardWorker<SsaSoftware>) {
        let Claim::Batch(batch) = card.claim() else {
            panic!("jobs are pending and due");
        };
        assert!(card.flush(batch));
    }

    fn assert_products(receiver: &CompletionReceiver, pairs: &[(u64, u64)]) {
        for _ in pairs {
            let (tag, outcome) = receiver.recv().expect("one completion per job");
            let (a, b) = pairs[tag as usize];
            assert_eq!(outcome.unwrap(), UBig::from(a) * UBig::from(b));
        }
    }

    #[test]
    fn each_inline_operand_is_hashed_once_per_flush() {
        let mut card = card(false);
        // A recurring operand, a repeat inside the flush, fresh ones.
        let pairs = [(7, 11), (7, 13), (7, 11), (17, 19)];
        for round in 0..2 {
            let receiver = submit(&card, &pairs);
            let before = DIGEST_CALLS.with(|calls| calls.get());
            flush_pending(&mut card);
            let hashed = DIGEST_CALLS.with(|calls| calls.get()) - before;
            // Misses (round 0) and hits (round 1) alike: one digest per
            // operand sighting — lookup, insert and phase 2 share it.
            assert_eq!(hashed, 2 * pairs.len() as u64, "round {round}");
            assert_products(&receiver, &pairs);
        }
        // 7, 11, 13, 17, 19 missed once each; everything else hit.
        assert_eq!(card.stats.cache_misses, 5);
        assert_eq!(card.stats.cache_hits, 16 - 5);
    }

    #[test]
    fn cards_claim_staged_spectra_from_the_speculative_store() {
        let mut card = card(true);
        // What the speculator does for the fresh partner of a hot
        // operand: prepare it on a same-geometry engine and stage it.
        let fresh = UBig::from(23u64);
        let staged = engine().prepare(&fresh).unwrap();
        let key = Key::Digest(digest(&fresh));
        lock_or_recover(&card.shared.spec_store).insert(key, Arc::new(fresh), staged);
        let pairs = [(29, 23)];
        let receiver = submit(&card, &pairs);
        let before = DIGEST_CALLS.with(|calls| calls.get());
        flush_pending(&mut card);
        // Speculative pools stamp digests at submission; the flush reuses
        // them instead of hashing again.
        assert_eq!(DIGEST_CALLS.with(|calls| calls.get()), before);
        assert_products(&receiver, &pairs);
        assert_eq!(card.stats.speculative_hits, 1);
        assert_eq!(card.stats.cache_misses, 1, "only the unstaged side");
        assert!(!lock_or_recover(&card.shared.spec_store).contains_key(key));
    }
}
