//! One card of the fleet: the moment it is free, claim one run — at most
//! as many jobs as its engine computes at once — resolve and prepare that
//! run's operands against the card's cache, compute it under panic
//! containment and answer it, then claim again. A card holds one run's
//! operands and products, never a backlog's. A card hashes nothing: each
//! operand arrives keyed and judged by admission.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use he_bigint::UBig;
use he_ntt::par::lock_or_recover;

use super::cache::{holds, Key, OperandCache};
use super::completion::{CompletionSink, ServeError};
use super::config::{CardHealth, ServeStats};
use super::queue::{Operand, PoolShared, Submitted};
use crate::engine::{EvalEngine, OperandHandle, ProductJob};
use crate::multiplier::{Multiplier, MultiplyError};

/// The engine builder a supervised pool rebuilds panicked cards from.
pub(super) type CardFactory<M> = Arc<dyn Fn(usize) -> EvalEngine<M> + Send + Sync>;

/// One answer awaiting delivery: the job's sink and its outcome (a card
/// delivers these only after publishing its stats).
type Reply = (CompletionSink, Result<UBig, ServeError>);

/// What a card found when it went back to the queue.
enum Claim {
    Run(Vec<Submitted>),
    IdleTrim,
    Closed,
}

/// An operand of a run not found cached: its key, its first sighting in
/// the run, and how many times it came round again after that (a
/// squaring, or run-mates sharing a cold operand). Once the first
/// sighting's preparation lands, every repeat is served from the cache
/// when the run computes — a hit, same as a cross-run hit. Until
/// then the repeats stay provisional (a raw or failed preparation caches
/// nothing, so crediting them up front would invent hits).
struct Miss<'a> {
    key: Key,
    side: &'a Operand,
    repeats: u64,
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
/// [`CardHealth::Dead`]; the **last** card to go additionally closes the
/// queue — a fleet whose every worker panicked must refuse submissions
/// instead of blocking them forever — and drops the jobs nobody is left
/// to run, so their sinks resolve `Closed` instead of hanging until the
/// pool handle is torn down.
struct AliveGuard<'a> {
    shared: &'a PoolShared,
    index: usize,
}

// lint: supervisor
// (From here to the end marker, the code runs on worker threads that
// hold client reply sinks: a panic is a hung client. The he-lint gate
// keeps these paths free of unwrap/expect/panic/indexing.)
impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.shared.set_health(self.index, CardHealth::Dead);
        if self.shared.workers_alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.close();
            // `close` set the flag, so nothing can be pushed after this
            // clear: every orphaned job's sink drops here, which is what
            // resolves its caller.
            self.shared.lock_state().pending.clear();
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
            shared,
            stats: ServeStats::default(),
            trimmed: false,
            factory,
            consecutive_restarts: 0,
        }
    }

    pub(super) fn run(mut self) -> ServeStats {
        let shared = Arc::clone(&self.shared);
        let _guard = AliveGuard {
            shared: &shared,
            index: self.index,
        };
        loop {
            match self.claim() {
                Claim::Run(run) => {
                    self.trimmed = false;
                    let survived = self.flush(run);
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

    /// Blocks until something is pending, the card should trim, or the
    /// fleet is shut down. A card in here is by definition free, so it
    /// never waits in front of a queued job: the next run is claimed now
    /// ([`super::queue::claim_run`]), at most the engine's width.
    fn claim(&self) -> Claim {
        let config = &self.shared.config;
        let mut state = self.shared.lock_state();
        let mut timed_out = false;
        loop {
            if !state.pending.is_empty() {
                return Claim::Run(self.shared.claim(state, self.engine.width()));
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

    /// Runs one claimed run end to end — resolve and prepare its
    /// operands, compute it — with every engine call supervised by
    /// `catch_unwind`, then answers it. Returns `false` when the backend
    /// panicked: the run's unanswered jobs have been re-queued (or
    /// quarantined) and the caller must restart or retire this card.
    fn flush(&mut self, run: Vec<Submitted>) -> bool {
        self.stats.flushes += 1;
        self.stats.largest_flush = self.stats.largest_flush.max(run.len());
        // Answers wait here for the delivery at the end, which publishes
        // this card's stats first: a caller that just saw its job
        // answered must find the completion already reflected in the
        // pool's live stats.
        let mut replies: Vec<Reply> = Vec::new();
        // Cancelled jobs are dropped at claim time — no work; the dropped
        // sink tells whoever still listens `Closed`. Then expire jobs
        // whose deadline had already passed when this card dequeued them
        // — they were hopeless before any run could act, and the miss
        // belongs to queueing, not to this run.
        let dequeued = Instant::now();
        let mut live: Vec<Submitted> = Vec::with_capacity(run.len());
        for job in run {
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
        // Cache writes first. A *panicking* preparation (a poisonous
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
            Ok(()) => {
                // A job that was live at dequeue but whose deadline passed
                // while its operands were prepared has been overtaken by
                // compute, not by queueing: it cannot start in time, so
                // it is dropped here and attributed to the flush.
                let now = Instant::now();
                let mut ready: Vec<Submitted> = Vec::with_capacity(live.len());
                for job in live {
                    match job.request.deadline() {
                        Some(deadline) if deadline < now => {
                            self.expire_in_flush(job, deadline, now, &mut replies);
                        }
                        _ => ready.push(job),
                    }
                }
                if !ready.is_empty() {
                    survived = self.execute_run(ready, &mut replies);
                }
            }
        }
        if survived {
            // Evict only after the run computed: every handle it borrowed
            // was live, so the cache may transiently exceed its budget
            // within a single run.
            self.cache.evict_to_capacity();
        } else {
            // An unwind tore through the backend mid-operation: every
            // handle it minted is suspect, so the reborn (or retired)
            // card starts clean. Pins are replayed from the session
            // registry on restart.
            self.cache.clear();
        }
        self.deliver(&mut replies);
        survived
    }

    /// Publishes this card's counters, then answers every reply waiting
    /// — in that order, so the live stats never lag a completion the
    /// caller already collected.
    fn deliver(&self, replies: &mut Vec<Reply>) {
        self.publish();
        for (reply, outcome) in replies.drain(..) {
            reply.complete(outcome);
        }
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

    /// Before a run computes: look every operand up by the key it
    /// carries — a pin's id, or the digest admission took of an inline
    /// operand — put the misses through admission, and prepare the
    /// admitted ones, pinned and inline together, **in parallel** at the
    /// product level.
    /// An operand that is not admitted (a first sighting) or that the
    /// backend cannot prepare simply stays uncached — its job runs it raw.
    fn prepare_operands(&mut self, live: &[Submitted]) {
        if self.cache.is_disabled() {
            return;
        }
        let mut misses: Vec<Miss<'_>> = Vec::new();
        for job in live {
            self.resolve(&job.request.a, &mut misses);
            self.resolve(&job.request.b, &mut misses);
        }
        // Second sight: a pin, an operand the fleet sighted before, one a
        // twin queued or running elsewhere shares, or a repeat inside
        // this run. A lookup that is not admitted is still a miss.
        let not_admitted = &mut self.stats.cache_misses;
        misses.retain(|miss| {
            let admits = miss.repeats > 0 || miss.side.recurring || miss.side.has_twin();
            *not_admitted += u64::from(!admits);
            admits
        });
        let operands: Vec<&UBig> = misses.iter().map(|miss| miss.side.value()).collect();
        let prepared = self.engine.prepare_many(&operands);
        for (miss, prepared) in misses.iter().zip(prepared) {
            match prepared {
                Ok(handle) if handle.is_cached() => {
                    self.cache.insert(miss.key, miss.side.shared(), handle);
                    if matches!(miss.key, Key::Digest(_)) {
                        self.stats.cache_misses += 1;
                    }
                    // Its repeats are hits now.
                    self.credit_hits(miss.key, miss.repeats);
                }
                // A raw-fallback backend caches no spectrum, so retaining
                // handles would only clone operands into resident memory
                // for zero transform savings — turn the cache off for
                // good.
                Ok(_) => {
                    self.cache = OperandCache::of_handles(0);
                    return;
                }
                Err(_) => {}
            }
        }
    }

    /// Resolves one keyed operand of a run: a hit, a repeat of an
    /// earlier miss of the same operand (the match verified, like every
    /// cache lookup, so a digest collision is two misses), or a new miss.
    fn resolve<'a>(&mut self, side: &'a Operand, misses: &mut Vec<Miss<'a>>) {
        let Some(key) = side.key else {
            return;
        };
        if self.cache.touch(key, side.value()) {
            self.credit_hits(key, 1);
        } else if let Some(miss) = misses
            .iter_mut()
            .find(|miss| miss.key == key && holds(key, miss.side.value(), side.value()))
        {
            miss.repeats += 1;
        } else {
            misses.push(Miss {
                key,
                side,
                repeats: 0,
            });
        }
    }

    fn credit_hits(&mut self, key: Key, count: u64) {
        match key {
            Key::Pin(_) => self.stats.pinned_hits += count,
            Key::Digest(_) => self.stats.cache_hits += count,
        }
    }

    /// Computes a run on the cached handles as one unit, with panic
    /// containment and per-job error isolation. Returns `false` when the
    /// engine panicked (the run's unanswered jobs have been re-queued or
    /// quarantined).
    fn execute_run(&mut self, run: Vec<Submitted>, replies: &mut Vec<Reply>) -> bool {
        let lookup =
            |side: &Operand| -> Option<&OperandHandle> { self.cache.get(side.key?, side.value()) };
        let jobs: Vec<ProductJob<'_>> = run
            .iter()
            .map(|job| {
                let (a, b) = (&job.request.a, &job.request.b);
                match (lookup(a), lookup(b)) {
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
            // A single-job run's error is already exact.
            Some(Err(err)) if jobs.len() == 1 => vec![Some(Err(err))],
            // A run reports only its lowest-index error; rerun each job
            // alone so one oversized product does not fail its
            // run-mates. Once the card dies mid-rerun, the rest of the
            // run goes straight back to the queue.
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
        for (job, outcome) in run.into_iter().zip(outcomes) {
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

    /// A job whose run panicked: back to the queue as a *suspect* (it
    /// will be claimed alone, so a poisonous job cannot take run-mates
    /// down twice) — or, once it has taken down `retry_limit + 1` runs,
    /// quarantined with
    /// [`ServeError::Poisoned`] so it stops killing cards.
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

    /// After a panicked run on a supervised pool: rebuild this card's
    /// engine from the factory — exponential backoff, at most
    /// `restart_cap` consecutive attempts without a clean run — and
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

// lint: end supervisor

#[cfg(test)]
mod tests {
    use super::super::cache::tests::{DIGEST_CALLS, FORCED_DIGEST};
    use super::super::completion::{completion_channel, CancelHandle, CompletionReceiver};
    use super::super::config::ServeConfig;
    use super::super::queue::ProductRequest;
    use super::*;
    use crate::multiplier::SsaSoftware;
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Four wide, so up to four queued jobs ride one run.
    fn engine() -> EvalEngine<SsaSoftware> {
        EvalEngine::new(SsaSoftware::for_operand_bits(2_000).unwrap()).with_threads(4)
    }

    /// A one-card fleet whose card runs on the test's own thread: submit,
    /// then `flush_pending` — no worker thread, no timing. Whatever was
    /// submitted before a `flush_pending` is what queued while the card
    /// was busy, so it is claimed run by run, as wide as the engine.
    fn card_of<M: Multiplier + Sync>(engine: EvalEngine<M>, config: ServeConfig) -> CardWorker<M> {
        let shared = Arc::new(PoolShared::new(config, 1));
        CardWorker::new(0, engine, shared, None)
    }

    fn card() -> CardWorker<SsaSoftware> {
        card_of(engine(), ServeConfig::default())
    }

    /// Enqueues `requests`, tagged by position; each job's cancel handle
    /// comes back with the receiver its outcome will arrive on.
    fn submit_all<M>(
        card: &CardWorker<M>,
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

    fn submit<M>(card: &CardWorker<M>, pairs: &[(u64, u64)]) -> CompletionReceiver {
        let requests = pairs
            .iter()
            .map(|&(a, b)| ProductRequest::new(UBig::from(a), UBig::from(b)))
            .collect();
        submit_all(card, requests).1
    }

    /// Claims the next run and flushes it; returns whether the card
    /// survived.
    fn try_flush_run<M: Multiplier + Sync>(card: &mut CardWorker<M>) -> bool {
        let Claim::Run(run) = card.claim() else {
            panic!("jobs are pending");
        };
        card.flush(run)
    }

    /// Flushes everything pending, run by run.
    fn flush_pending<M: Multiplier + Sync>(card: &mut CardWorker<M>) {
        while !card.shared.lock_state().pending.is_empty() {
            assert!(try_flush_run(card));
        }
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

    /// The queued requests' operands, in queue order.
    fn queued<M>(card: &CardWorker<M>) -> Vec<(Arc<UBig>, Arc<UBig>)> {
        let state = card.shared.lock_state();
        let sides = |job: &Submitted| (job.request.a.shared(), job.request.b.shared());
        state.pending.iter().map(sides).collect()
    }

    #[test]
    fn each_inline_operand_is_hashed_once_at_admission() {
        let mut card = card();
        let calls = || DIGEST_CALLS.with(Cell::get);
        // A recurring operand, a repeat inside the run, fresh ones.
        let pairs = [(7, 11), (7, 13), (7, 11), (17, 19)];
        for round in 0..2 {
            let before = calls();
            let receiver = submit(&card, &pairs);
            let admitted = calls();
            // Admission interned the repeats: the three 7s are one
            // allocation, the two 11s another.
            let queued = queued(&card);
            assert!(Arc::ptr_eq(&queued[0].0, &queued[1].0));
            assert!(Arc::ptr_eq(&queued[0].0, &queued[2].0));
            assert!(Arc::ptr_eq(&queued[0].1, &queued[2].1));
            // The snapshot's clones would read as live twins.
            drop(queued);
            flush_pending(&mut card);
            // Misses (round 0) and hits (round 1) alike: one digest per
            // submitted inline operand, taken at admission — the card's
            // lookup, insert and run hash nothing.
            assert_eq!(admitted - before, 2 * pairs.len() as u64, "round {round}");
            assert_eq!(calls(), admitted, "round {round}");
            assert_products(&receiver, &pairs);
        }
        // 7 and 11 repeat inside round 0's run and miss once each; 13, 17 and
        // 19 miss twice (unadmitted, then prepared); everything else hit.
        assert_eq!(card.stats.cache_misses, 8);
        assert_eq!(card.stats.cache_hits, 16 - 8);
        assert_eq!(card.stats.flushes, 2);
    }

    #[test]
    fn colliding_operands_are_never_shared_and_each_needs_a_second_sight() {
        let mut card = card();
        FORCED_DIGEST.with(|forced| forced.set(Some(42)));
        let mut flush = |pairs: &[(u64, u64)]| {
            let receiver = submit(&card, pairs);
            for ((a, b), &(x, y)) in queued(&card).iter().zip(pairs) {
                // Every operand keeps its own value: a twin under the
                // same digest is shared only when the bytes match.
                assert_eq!((&**a, &**b), (&UBig::from(x), &UBig::from(y)));
                assert_eq!(Arc::ptr_eq(a, b), x == y);
            }
            flush_pending(&mut card);
            assert_products(&receiver, pairs);
            let stats = card.stats;
            (card.cache.len(), stats.cache_hits, stats.cache_misses)
        };
        // 7 and 11 collide: two first sightings, not one operand seen
        // twice — nothing is admitted.
        assert_eq!(flush(&[(7, 11)]), (0, 0, 2));
        // 7 comes round again once its last holder is gone and earns its
        // slot; 11 still meets a live 7 under its digest.
        assert_eq!(flush(&[(7, 11)]), (1, 0, 4));
        // 11 twice in one run: its second sighting, shared with the
        // first; cached beside 7 under the one digest.
        assert_eq!(flush(&[(11, 11)]), (2, 1, 5));
        // Each finds its own entry.
        assert_eq!(flush(&[(7, 11)]), (2, 3, 5));
        FORCED_DIGEST.with(|forced| forced.set(None));
    }

    #[test]
    fn an_inline_operand_earns_its_slot_on_second_sight() {
        let mut card = card();
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
        // A repeat inside one run is a second sighting too.
        assert_eq!(flush(&mut card, &[(19, 2), (19, 3)]), (2, 2, 8));
        // However long the one-shot stream, only what recurs is resident.
        let stream: Vec<(u64, u64)> = (100..164).map(|fresh| (7, fresh)).collect();
        assert_eq!(flush(&mut card, &stream), (2, 2 + 64, 8 + 64));
    }

    #[test]
    fn a_queued_twin_is_a_second_sight() {
        // One product wide, so the two jobs on 7 ride separate runs; the
        // first already finds 7's twin queued behind it, so 7 is prepared
        // once and the second run hits it.
        let mut card = card_of(engine().with_threads(1), ServeConfig::default());
        let pairs = [(7, 11), (7, 13)];
        let receiver = submit(&card, &pairs);
        flush_pending(&mut card);
        assert_products(&receiver, &pairs);
        let stats = card.stats;
        assert_eq!((stats.flushes, card.cache.len()), (2, 1));
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 3));
    }

    #[test]
    fn a_zero_deadline_expires_in_the_queue_and_spares_its_batch_mate() {
        let mut card = card();
        let doomed = ProductRequest::new(UBig::from(3u64), UBig::from(5u64));
        let fine = ProductRequest::new(UBig::from(7u64), UBig::from(11u64));
        let requests = vec![doomed.with_deadline(Duration::ZERO), fine];
        let (_, receiver) = submit_all(&card, requests);
        flush_pending(&mut card);
        let outcomes = outcomes(&receiver);
        assert!(matches!(outcomes[&0], Err(ServeError::Expired { .. })));
        assert_eq!(outcomes[&1], Ok(UBig::from(77u64)));
        // One run carried both; the zero deadline was already past at
        // dequeue: an in-queue expiry, not a flush-attributed one.
        let stats = card.stats;
        assert_eq!((stats.flushes, stats.completed), (1, 1));
        assert_eq!((stats.expired_in_queue, stats.expired_in_flush), (1, 0));
    }

    #[test]
    fn a_cancelled_job_is_dropped_at_claim_and_counted() {
        let mut card = card();
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
        // (prepare would already reject them); both jobs share one run,
        // exercising the per-job isolation rerun.
        let mut card = card_of(engine(), uncached());
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

    /// Every outcome `receiver` holds right now, in delivery order.
    fn delivered(receiver: &CompletionReceiver) -> Vec<(u64, Result<UBig, ServeError>)> {
        std::iter::from_fn(|| receiver.try_recv()).collect()
    }

    /// Cache off, so every job reaches the backend's job body raw.
    fn uncached() -> ServeConfig {
        ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        }
    }

    /// Watches its card's deliveries: as each product starts, it records
    /// which jobs the card has answered so far.
    struct DeliveryWatch {
        inner: SsaSoftware,
        receiver: Mutex<Option<CompletionReceiver>>,
        answered: Mutex<Vec<(u64, Result<UBig, ServeError>)>>,
        /// Per product, in start order: the tags answered before it
        /// started.
        answered_at_start: Mutex<Vec<Vec<u64>>>,
    }

    impl Multiplier for DeliveryWatch {
        fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
            self.inner.multiply(a, b)
        }

        fn name(&self) -> &'static str {
            "delivery-watch"
        }

        fn multiply_job_into(
            &self,
            job: &ProductJob<'_>,
            out: &mut UBig,
        ) -> Result<(), MultiplyError> {
            let mut answered = self.answered.lock().unwrap();
            if let Some(receiver) = &*self.receiver.lock().unwrap() {
                answered.extend(delivered(receiver));
            }
            let mut tags: Vec<u64> = answered.iter().map(|(tag, _)| *tag).collect();
            tags.sort_unstable();
            self.answered_at_start.lock().unwrap().push(tags);
            self.inner.multiply_job_into(job, out)
        }
    }

    #[test]
    fn a_width_one_card_answers_each_product_before_it_starts_the_next() {
        let watch = DeliveryWatch {
            inner: SsaSoftware::for_operand_bits(2_000).unwrap(),
            receiver: Mutex::new(None),
            answered: Mutex::new(Vec::new()),
            answered_at_start: Mutex::new(Vec::new()),
        };
        let mut card = card_of(EvalEngine::new(watch).with_threads(1), uncached());
        let pairs: Vec<(u64, u64)> = (2..8).map(|k| (k, 1_000_003)).collect();
        let receiver = submit(&card, &pairs);
        *card.engine.backend().receiver.lock().unwrap() = Some(receiver);
        flush_pending(&mut card);
        assert_eq!((card.stats.flushes, card.stats.completed), (6, 6));
        assert_eq!(card.stats.largest_flush, 1);
        let watch = card.engine.backend();
        // Six claims of one: product `i` started with exactly the `i` jobs
        // before it answered, so the card never held two unanswered
        // products.
        let expected: Vec<Vec<u64>> = (0..pairs.len() as u64).map(|i| (0..i).collect()).collect();
        assert_eq!(*watch.answered_at_start.lock().unwrap(), expected);
        let mut answered = watch.answered.lock().unwrap();
        answered.extend(delivered(watch.receiver.lock().unwrap().as_ref().unwrap()));
        assert_eq!(answered.len(), pairs.len(), "one completion per job");
        for (tag, outcome) in answered.iter() {
            let (a, b) = pairs[*tag as usize];
            assert_eq!(*outcome, Ok(UBig::from(a) * UBig::from(b)));
        }
    }

    /// Panics on the `dies_at`-th product it starts (counted from 0), and
    /// only then.
    struct DiesOnce {
        inner: SsaSoftware,
        dies_at: u64,
        started: AtomicU64,
    }

    impl Multiplier for DiesOnce {
        fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
            self.inner.multiply(a, b)
        }

        fn name(&self) -> &'static str {
            "dies-once"
        }

        fn multiply_job_into(
            &self,
            job: &ProductJob<'_>,
            out: &mut UBig,
        ) -> Result<(), MultiplyError> {
            let started = self.started.fetch_add(1, Ordering::Relaxed);
            assert_ne!(started, self.dies_at, "injected death");
            self.inner.multiply_job_into(job, out)
        }
    }

    #[test]
    fn a_panic_requeues_its_own_run_and_leaves_the_queue_alone() {
        // A card two wide whose third product panics: the first run is
        // answered, the panicking run goes back as two suspects, and the
        // jobs still queued behind it are untouched.
        let n = 6u64;
        let backend = DiesOnce {
            inner: SsaSoftware::for_operand_bits(2_000).unwrap(),
            dies_at: 2,
            started: AtomicU64::new(0),
        };
        let mut card = card_of(EvalEngine::new(backend).with_threads(2), uncached());
        let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i + 2, 1_000_003)).collect();
        let receiver = submit(&card, &pairs);
        let product = |tag: u64| {
            let (a, b) = pairs[tag as usize];
            Ok(UBig::from(a) * UBig::from(b))
        };
        let tags = |delivered: &[(u64, Result<UBig, ServeError>)]| {
            let mut tags: Vec<u64> = delivered.iter().map(|(tag, _)| *tag).collect();
            tags.sort_unstable();
            tags
        };
        assert!(try_flush_run(&mut card));
        assert!(!try_flush_run(&mut card), "the second run killed the card");
        // The first run was answered, once each, correctly…
        let early = delivered(&receiver);
        assert_eq!(tags(&early), vec![0, 1]);
        for (tag, outcome) in &early {
            assert_eq!(*outcome, product(*tag));
        }
        // …the panicking run went back to the queue as suspects, one
        // retry each, and the rest of the queue was never claimed.
        assert_eq!((card.stats.completed, card.stats.retried), (2, 2));
        {
            let state = card.shared.lock_state();
            let mut requeued: Vec<(u64, bool, u32)> = state
                .pending
                .iter()
                .map(|job| (job.seq, job.suspect, job.retries))
                .collect();
            requeued.sort_unstable();
            let expected = [(2, true, 1), (3, true, 1), (4, false, 0), (5, false, 0)];
            assert_eq!(requeued, expected);
        }
        // Suspects are claimed one at a time and first, then the rest
        // rides a run of two; the card no longer dies.
        flush_pending(&mut card);
        assert_eq!(card.stats.flushes, 2 + 3);
        let late = delivered(&receiver);
        assert_eq!(tags(&late), (2..n).collect::<Vec<_>>());
        for (tag, outcome) in &late {
            assert_eq!(*outcome, product(*tag));
        }
        // Every sink has resolved, so none can resolve again: with the
        // card gone the channel is finished and empty.
        drop(card);
        assert!(receiver.recv().is_none());
    }
}
