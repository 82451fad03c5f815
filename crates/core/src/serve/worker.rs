//! One card of the fleet — claim whatever is pending the moment the card
//! is free, resolve its operands against the card's cache, run it under
//! panic containment, answer every job — and the speculative preparer
//! that works ahead of the cards.

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
use super::queue::{pop_batch, Operand, PoolShared, Submitted};
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

/// How long the speculative preparer waits before rescanning a queue
/// that held nothing speculable.
const SPECULATE_POLL: Duration = Duration::from_millis(5);

/// What a card found when it went back to the queue.
enum Claim {
    Batch(Vec<Submitted>),
    IdleTrim,
    Closed,
}

/// Phase-1 bookkeeping of one flush.
#[derive(Default)]
struct FlushPlan<'a> {
    /// Operands found neither cached nor staged, in first-seen order:
    /// what admission decides on.
    unresolved: Vec<(Key, &'a Operand)>,
    /// Every key that missed, with its repeat sightings after the first.
    /// Once the first sighting's preparation lands, every repeat is
    /// served from the cache in phase 2 — a hit, same as a cross-flush
    /// hit. Until then the repeats stay provisional (a raw or failed
    /// preparation caches nothing, so crediting them up front would
    /// invent hits).
    repeats: HashMap<Key, u64>,
    /// Digests that hit this flush: still recurring, so kept fresh in
    /// the fleet's recent-digest set.
    hits: Vec<u64>,
}

/// One card of the fleet: an engine, its private cache, and its counters.
pub(super) struct CardWorker<M> {
    index: usize,
    engine: EvalEngine<M>,
    shared: Arc<PoolShared>,
    /// Prepared handles of inline operands (digest-keyed) and of
    /// session-registered ones (pin-keyed), under one `cache_bytes`
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
            cache: OperandCache::of_handles(shared.config.cache_bytes),
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
                    // The *shared* staging store empties only once the
                    // whole fleet has gone quiet: wiping staged spectra
                    // while siblings are still loaded would defeat
                    // speculation exactly under sustained load.
                    if self.shared.speculation && idle_now == self.shared.live.len() {
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

    /// Blocks until **this card may run** something that is pending,
    /// the card should trim, or the fleet is shut down. A card in here
    /// is by definition free, so it never waits in front of a job it
    /// could run: whatever is eligible is claimed now ([`pop_batch`]),
    /// and batches form only from what queued while every card was
    /// busy — the rule `he_hwsim::fleet` simulates.
    fn claim(&self) -> Claim {
        let config = &self.shared.config;
        let mut state = self.shared.lock_state();
        let mut timed_out = false;
        loop {
            // Jobs pending for *other* cards are none of this card's
            // business: an empty eligible set idles (and eventually
            // trims) this card even while its siblings are loaded.
            let eligible = self.eligible_indices(&state.pending);
            if !eligible.is_empty() {
                let batch = pop_batch(&mut state.pending, &eligible, config);
                drop(state);
                // Capacity was freed; unblock waiting submitters.
                self.shared.not_full.notify_all();
                return Claim::Batch(batch);
            }
            if state.closed {
                return Claim::Closed;
            }
            if timed_out {
                return Claim::IdleTrim;
            }
            // One trim per idle period: a card that already trimmed
            // parks until traffic (or shutdown) wakes the fleet.
            let patience = (!self.trimmed).then_some(config.idle_trim_after);
            (state, timed_out) = self.shared.wait_for_push(state, patience);
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
        // belongs to queueing, not to this flush.
        let dequeued = Instant::now();
        let mut live: Vec<Submitted> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.reply.is_cancelled() {
                self.stats.cancelled += 1;
                continue;
            }
            match job.request.deadline() {
                Some(deadline) if deadline < dequeued => {
                    self.stats.expired_in_queue += 1;
                    let missed_by = dequeued.saturating_duration_since(deadline);
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
            // was live, so the cache may transiently exceed its budget
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
    /// speculatively staged spectra, put what is left through admission,
    /// and prepare the admitted misses, pinned and inline together, **in
    /// parallel** at the product level. An operand that is not admitted
    /// (a first sighting) or that the backend cannot prepare simply
    /// stays uncached — its job runs it raw.
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
        let mut recent = lock_or_recover(&self.shared.recent);
        for digest in plan.hits {
            recent.sight(digest);
        }
        // A lookup that is not admitted is still a miss.
        let misses = &mut self.stats.cache_misses;
        plan.unresolved.retain(|(key, _)| {
            let repeats = plan.repeats.get(key).is_some_and(|&repeats| repeats > 0);
            let admits = recent.admits(*key, repeats);
            *misses += u64::from(!admits);
            admits
        });
        drop(recent);
        let admitted = plan.unresolved;
        let operands: Vec<&UBig> = admitted.iter().map(|(_, side)| side.value()).collect();
        let prepared = self.engine.prepare_many(&operands);
        for ((key, side), prepared) in admitted.iter().zip(prepared) {
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
                    self.cache = OperandCache::of_handles(0);
                    return vec![(None, None); live.len()];
                }
                Err(_) => {}
            }
        }
        // The repeats of a now-cached operand are hits.
        for (key, count) in plan.repeats {
            if self.cache.contains_key(key) {
                self.credit_hits(key, count);
            }
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
            self.credit_hits(key, 1);
            if let Key::Digest(digest) = key {
                plan.hits.push(digest);
            }
        } else if let Some(repeats) = plan.repeats.get_mut(&key) {
            *repeats += 1;
        } else if let Some((operand, handle)) = self.claim_staged(key, side.value()) {
            self.cache.insert(key, operand, handle);
            self.stats.speculative_hits += 1;
        } else {
            plan.repeats.insert(key, 0);
            plan.unresolved.push((key, side));
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

    fn credit_hits(&mut self, key: Key, count: u64) {
        match key {
            Key::Pin(_) => self.stats.pinned_hits += count,
            Key::Digest(_) => self.stats.cache_hits += count,
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

/// The speculative preparer: watches the queue and the fleet's
/// recent-digest set, and transforms the fresh partners of recurring
/// operands — *recurring* meaning a card has sighted the operand's digest
/// lately — into the shared staging store, off the cards' critical
/// path.
pub(super) fn run_speculator<M: Multiplier + Sync>(engine: EvalEngine<M>, shared: Arc<PoolShared>) {
    let config = &shared.config;
    let per_pass = config.max_batch.max(1);
    loop {
        // Snapshot speculation candidates under the queue lock: pending
        // jobs where one side's digest recurs (its spectrum is cached on
        // some card, or will be at its next sighting) and the other side
        // — the stream side — is neither recurring nor already staged.
        // Digests were stamped at submission (outside this lock), so the
        // scan is set lookups plus at most `per_pass` bounded operand
        // clones — it never hashes operand data while submitters and
        // cards contend on the mutex.
        let candidates: Vec<(u64, UBig)> = {
            let mut state = shared.lock_state();
            while !state.closed && state.pending.is_empty() {
                state = shared.wait_for_push(state, None).0;
            }
            if state.closed {
                return;
            }
            let recent = lock_or_recover(&shared.recent);
            let store = lock_or_recover(&shared.spec_store);
            let mut picked: Vec<(u64, UBig)> = Vec::new();
            let mut picked_keys: HashSet<u64> = HashSet::new();
            'scan: for job in state.pending.iter() {
                let Some((key_a, key_b)) = job.digests else {
                    continue;
                };
                let (a, b) = job.request.operands();
                for (this, key, partner_key) in [(a, key_a, key_b), (b, key_b, key_a)] {
                    if recent.contains(partner_key)
                        && !recent.contains(key)
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
            // (operands cold, or already staged); re-check after a
            // pause rather than spinning on the queue lock.
            let state = shared.lock_state();
            if state.closed {
                return;
            }
            drop(shared.wait_for_push(state, Some(SPECULATE_POLL)));
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
    use super::super::completion::{completion_channel, CancelHandle, CompletionReceiver};
    use super::super::config::ServeConfig;
    use super::super::queue::ProductRequest;
    use super::*;
    use crate::multiplier::SsaSoftware;

    fn engine() -> EvalEngine<SsaSoftware> {
        EvalEngine::new(SsaSoftware::for_operand_bits(2_000).unwrap())
    }

    /// A one-card fleet whose card runs on the test's own thread: submit,
    /// then `flush_pending` — no worker thread, no timing. Whatever was
    /// submitted before a `flush_pending` is what queued while the card
    /// was busy, so it flushes together.
    fn card_with(config: ServeConfig, speculation: bool) -> CardWorker<SsaSoftware> {
        let engine = engine();
        let capacities = vec![engine.operand_capacity_bits()];
        let shared = Arc::new(PoolShared::new(config, capacities, speculation));
        CardWorker::new(0, engine, shared, None)
    }

    fn card(speculation: bool) -> CardWorker<SsaSoftware> {
        card_with(ServeConfig::default(), speculation)
    }

    /// Enqueues `requests`, tagged by position; each job's cancel handle
    /// comes back with the receiver its outcome will arrive on.
    fn submit_all(
        card: &CardWorker<SsaSoftware>,
        requests: Vec<ProductRequest>,
    ) -> (Vec<CancelHandle>, CompletionReceiver) {
        let (mint, receiver) = completion_channel();
        let cancels = requests
            .into_iter()
            .enumerate()
            .map(|(tag, request)| {
                let sink = mint.sink(tag as u64);
                let cancel = sink.cancel_handle();
                card.shared.enqueue(request, sink, true).unwrap();
                cancel
            })
            .collect();
        (cancels, receiver)
    }

    fn submit(card: &CardWorker<SsaSoftware>, pairs: &[(u64, u64)]) -> CompletionReceiver {
        let requests = pairs
            .iter()
            .map(|&(a, b)| ProductRequest::new(UBig::from(a), UBig::from(b)))
            .collect();
        submit_all(card, requests).1
    }

    fn flush_pending(card: &mut CardWorker<SsaSoftware>) {
        let Claim::Batch(batch) = card.claim() else {
            panic!("jobs are pending");
        };
        assert!(card.flush(batch));
    }

    /// Every outcome the receiver will ever see, by tag.
    fn outcomes(receiver: &CompletionReceiver) -> HashMap<u64, Result<UBig, ServeError>> {
        std::iter::from_fn(|| receiver.recv()).collect()
    }

    fn assert_products(receiver: &CompletionReceiver, pairs: &[(u64, u64)]) {
        let outcomes = outcomes(receiver);
        assert_eq!(outcomes.len(), pairs.len(), "one completion per job");
        for (tag, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(outcomes[&(tag as u64)], Ok(UBig::from(a) * UBig::from(b)));
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
        // 7 and 11 repeat inside round 0 and miss once each; 13, 17 and
        // 19 miss twice (unadmitted, then prepared); everything else hit.
        assert_eq!(card.stats.cache_misses, 8);
        assert_eq!(card.stats.cache_hits, 16 - 8);
        assert_eq!(card.stats.flushes, 2);
    }

    #[test]
    fn an_inline_operand_earns_its_slot_on_second_sight() {
        let mut card = card(false);
        let flush = |card: &mut CardWorker<SsaSoftware>, pairs: &[(u64, u64)]| {
            let receiver = submit(card, pairs);
            flush_pending(card);
            assert_products(&receiver, pairs);
            (
                card.cache.len(),
                card.stats.cache_hits,
                card.stats.cache_misses,
            )
        };
        // First sightings all round: nothing is cached, the job runs raw.
        assert_eq!(flush(&mut card, &[(7, 11)]), (0, 0, 2));
        // 7 comes round again and is admitted; 13 is another one-shot.
        assert_eq!(flush(&mut card, &[(7, 13)]), (1, 0, 4));
        assert_eq!(flush(&mut card, &[(7, 17)]), (1, 1, 5));
        // A repeat inside one flush is a second sighting too.
        assert_eq!(flush(&mut card, &[(19, 2), (19, 3)]), (2, 2, 8));
        // However long the one-shot stream, only what recurs is resident.
        let stream: Vec<(u64, u64)> = (100..164).map(|fresh| (7, fresh)).collect();
        assert_eq!(flush(&mut card, &stream), (2, 2 + 64, 8 + 64));
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
        // A staged spectrum is already paid for: it skips admission.
        assert_eq!(card.cache.len(), 1);
    }

    #[test]
    fn the_speculator_stages_the_fresh_partners_of_a_recurring_operand() {
        let mut card = card(true);
        // One flush makes 7 a recurring operand in the fleet's eyes.
        let warm = [(7, 11)];
        let receiver = submit(&card, &warm);
        flush_pending(&mut card);
        assert_products(&receiver, &warm);
        // Four jobs queue in front of a card that is not claiming: the
        // speculator has them to itself until it has staged all four.
        let pairs = [(7, 13), (7, 17), (7, 19), (7, 23)];
        let receiver = submit(&card, &pairs);
        let shared = Arc::clone(&card.shared);
        std::thread::scope(|scope| {
            scope.spawn(|| run_speculator(engine(), Arc::clone(&shared)));
            while shared.spec_prepares.load(Ordering::Relaxed) < 4 {
                std::thread::yield_now();
            }
            flush_pending(&mut card);
            shared.close();
        });
        assert_products(&receiver, &pairs);
        assert_eq!(card.stats.speculative_hits, 4);
    }

    #[test]
    fn a_zero_deadline_expires_in_the_queue_and_spares_its_batch_mate() {
        let mut card = card(false);
        let doomed = ProductRequest::new(UBig::from(3u64), UBig::from(5u64));
        let fine = ProductRequest::new(UBig::from(7u64), UBig::from(11u64));
        let requests = vec![doomed.with_deadline(Duration::ZERO), fine];
        let (_, receiver) = submit_all(&card, requests);
        flush_pending(&mut card);
        let outcomes = outcomes(&receiver);
        assert!(matches!(outcomes[&0], Err(ServeError::Expired { .. })));
        assert_eq!(outcomes[&1], Ok(UBig::from(77u64)));
        // One flush carried both; the zero deadline was already past at
        // dequeue: an in-queue expiry, not a flush-attributed one.
        let stats = card.stats;
        assert_eq!((stats.flushes, stats.completed), (1, 1));
        assert_eq!((stats.expired_in_queue, stats.expired_in_flush), (1, 0));
    }

    #[test]
    fn a_cancelled_job_is_dropped_at_claim_and_counted() {
        let mut card = card(false);
        let requests = (2..6u64)
            .map(|k| ProductRequest::new(UBig::from(k), UBig::from(k)))
            .collect();
        let (cancels, receiver) = submit_all(&card, requests);
        cancels[0].cancel();
        flush_pending(&mut card);
        let outcomes = outcomes(&receiver);
        assert_eq!(outcomes[&0], Err(ServeError::Closed));
        for tag in 1..4u64 {
            assert_eq!(outcomes[&tag], Ok(UBig::from((tag + 2) * (tag + 2))));
        }
        let stats = card.stats;
        assert_eq!((stats.cancelled, stats.completed), (1, 3));
        assert_eq!(stats.expired() + stats.failed, 0);
    }

    #[test]
    fn an_oversized_job_fails_alone_in_its_flush() {
        // Cache off so the oversized operands reach the multiply path
        // (prepare would already reject them) — exercising the per-job
        // isolation rerun.
        let config = ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        };
        let mut card = card_with(config, false);
        let too_big = UBig::pow2(100_000);
        let bad = ProductRequest::new(too_big.clone(), too_big);
        let good = ProductRequest::new(UBig::from(6u64), UBig::from(7u64));
        let (_, receiver) = submit_all(&card, vec![bad, good]);
        flush_pending(&mut card);
        let outcomes = outcomes(&receiver);
        assert!(matches!(outcomes[&0], Err(ServeError::Multiply(_))));
        assert_eq!(outcomes[&1], Ok(UBig::from(42u64)));
        let stats = card.stats;
        assert_eq!((stats.flushes, stats.failed, stats.completed), (1, 1, 1));
        assert_eq!(stats.reruns, 2);
    }
}
