//! What enters the fleet — [`ProductRequest`] — and where it waits: the
//! bounded shared queue every submission funnels into, and the pure
//! claim decision ([`claim_run`]) a free card selects its next run
//! with.
//! [`PoolShared::enqueue`] also admits each inline operand: hashed once,
//! outside the queue lock, it takes the allocation of an equal operand
//! still live in the fleet's [`RecentOperands`] table (held once however
//! many requests carry it), and its digest and verdict ride to the card.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use he_bigint::UBig;
use he_ntt::par::lock_or_recover;

use super::cache::{digest, Key, KeyedLru, RecentOperands, Verdict};
use super::completion::{CompletionSink, SubmitError};
use super::config::{CardHealth, ServeConfig, ServeStats};

/// One side of a product request: an inline operand, or a reference to
/// an operand a session registered (pinned in every card's cache by id —
/// resolved without hashing the operand's data). Both sides hold their
/// operand in one shared allocation, so a card that caches it keeps the
/// request's own bytes instead of a copy.
#[derive(Debug, Clone)]
pub(super) struct Operand {
    value: Arc<UBig>,
    /// A pin's id, or the digest admission took of an inline operand
    /// (`None` before admission: such an operand runs raw).
    pub(super) key: Option<Key>,
    /// Whether it earns a cache slot without repeating in its run: a
    /// pin always, an inline operand once the fleet sighted it before.
    pub(super) recurring: bool,
}

impl Operand {
    fn inline(value: UBig) -> Operand {
        Operand {
            value: held(value),
            key: None,
            recurring: false,
        }
    }

    fn pinned(id: u64, value: Arc<UBig>) -> Operand {
        Operand {
            value,
            key: Some(Key::Pin(id)),
            recurring: true,
        }
    }

    pub(super) fn value(&self) -> &UBig {
        &self.value
    }

    /// Whether another live request holds this allocation: admission
    /// handed it to a twin sighted after this operand, so the operand
    /// has been sighted twice since its own `recurring` verdict.
    pub(super) fn has_twin(&self) -> bool {
        Arc::strong_count(&self.value) > 1
    }

    /// The operand as a cache entry holds it: the request's own
    /// allocation, never a copy.
    pub(super) fn shared(&self) -> Arc<UBig> {
        Arc::clone(&self.value)
    }
}

/// `value` in an allocation exactly as large as its limbs — the bytes a
/// cache entry is charged for. A decoded operand can carry spare
/// capacity (its trailing zero bytes trimmed off after the limbs were
/// reserved), which a cache sharing the allocation would otherwise keep
/// resident uncharged.
pub(super) fn held(value: UBig) -> Arc<UBig> {
    let mut limbs = value.into_limbs();
    limbs.shrink_to_fit();
    Arc::new(UBig::from_limbs(limbs))
}

/// One product job: two owned operands and an optional deadline.
#[derive(Debug, Clone)]
pub struct ProductRequest {
    pub(super) a: Operand,
    pub(super) b: Operand,
    deadline: Option<Instant>,
}

impl ProductRequest {
    /// A request to multiply `a · b` with no deadline. The operands are
    /// moved in, not copied (an allocation larger than its value is
    /// trimmed to fit).
    pub fn new(a: UBig, b: UBig) -> ProductRequest {
        ProductRequest {
            a: Operand::inline(a),
            b: Operand::inline(b),
            deadline: None,
        }
    }

    /// Attaches a deadline `timeout` from now: if the job has not
    /// *started executing* by then, it is answered with
    /// [`ServeError::Expired`](super::ServeError::Expired) instead of
    /// occupying a card. A free card claims pending work at once, so a
    /// deadline is only ever at risk behind a busy fleet — where the
    /// earliest deadline is claimed next.
    pub fn with_deadline(mut self, timeout: Duration) -> ProductRequest {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// The operands.
    pub fn operands(&self) -> (&UBig, &UBig) {
        (self.a.value(), self.b.value())
    }

    /// The absolute deadline, if one was attached.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The pin ids riding this request's operands (`None` for an inline
    /// side). Remote [`Submitter`](super::Submitter) implementations use
    /// this to ship a pinned operand as its id alone instead of
    /// re-serializing the operand's bytes on every submission.
    pub fn operand_pins(&self) -> (Option<u64>, Option<u64>) {
        let pin = |operand: &Operand| match operand.key {
            Some(Key::Pin(id)) => Some(id),
            _ => None,
        };
        (pin(&self.a), pin(&self.b))
    }

    /// A request multiplying a **pinned** operand (carried by `id` with
    /// its registered value) by a fresh inline operand.
    ///
    /// This is the constructor for transports that manage their own pin
    /// namespace (a network session registering operands on a far-end
    /// fleet). Local callers pin through
    /// [`ClientSession::register`](super::ClientSession::register)
    /// instead: pin ids are pool-global, and a request built here with an
    /// id from a different namespace resolves against whatever that id
    /// means on the pool it is submitted to.
    pub fn pinned_with(id: u64, value: Arc<UBig>, fresh: UBig) -> ProductRequest {
        ProductRequest {
            a: Operand::pinned(id, value),
            b: Operand::inline(fresh),
            deadline: None,
        }
    }

    /// A request multiplying two **pinned** operands; the same namespace
    /// caveat as [`ProductRequest::pinned_with`] applies.
    pub fn pinned_pair(a: (u64, Arc<UBig>), b: (u64, Arc<UBig>)) -> ProductRequest {
        ProductRequest {
            a: Operand::pinned(a.0, a.1),
            b: Operand::pinned(b.0, b.1),
            deadline: None,
        }
    }
}

/// One queued job.
pub(super) struct Submitted {
    pub(super) request: ProductRequest,
    /// Arrival order, the EDF tie-breaker.
    pub(super) seq: u64,
    /// Times this job has been re-queued after a failed run (panic or
    /// transient device fault); [`ServeConfig::retry_limit`] bounds it.
    pub(super) retries: u32,
    /// Set when the job was part of a **panicked** run: until it proves
    /// innocent, it is claimed alone — a poisonous job must not take
    /// run-mates down with it twice.
    pub(super) suspect: bool,
    /// Where the outcome goes; also carries the job's cancel flag.
    pub(super) reply: CompletionSink,
}

impl Submitted {
    /// Claim order, smallest first: suspects, then deadlines (earliest
    /// first), then deadline-less jobs, each tie broken by arrival.
    fn rank(&self) -> (bool, bool, Option<Instant>, u64) {
        let deadline = self.request.deadline;
        (!self.suspect, deadline.is_none(), deadline, self.seq)
    }
}

pub(super) struct QueueState {
    /// Unordered: [`claim_run`] picks by rank.
    pub(super) pending: Vec<Submitted>,
    pub(super) closed: bool,
}

/// The shared (backend-agnostic) half of a fleet: the bounded queue, the
/// fleet-wide admission state, and the live per-card stats slots.
pub(super) struct PoolShared {
    pub(super) config: ServeConfig,
    /// Per-card supervision state ([`CardHealth`] encoded as a `u8`), in
    /// card order; a worker that exits for good marks its slot `Dead`.
    card_health: Vec<AtomicU8>,
    state: Mutex<QueueState>,
    /// Signaled on every push and on close; parked cards wait here.
    not_empty: Condvar,
    /// Signaled when a claim frees room in a full queue, and on close;
    /// blocking submitters wait here.
    pub(super) not_full: Condvar,
    seq: AtomicU64,
    /// Cards still running; the last one to exit (panic included) closes
    /// the queue so submitters cannot block on a dead fleet.
    pub(super) workers_alive: AtomicUsize,
    /// Per-card stats snapshots, refreshed before every delivery so a
    /// live fleet can be observed.
    pub(super) live: Vec<Mutex<ServeStats>>,
    /// Inline operands sighted lately, fleet-wide: what admission
    /// shares a live twin from, and what second-sight admission asks
    /// before a card caches an operand.
    recent: Mutex<RecentOperands>,
    /// Non-blocking submissions rejected because the queue was full.
    pub(super) shed: AtomicU64,
    /// Id source for session pins — pool-global so no two sessions (or
    /// re-registrations) ever share an id. The operand itself travels
    /// with each request (an `Arc` clone), so cards prepare pins lazily
    /// from the job in hand.
    pub(super) pin_seq: AtomicU64,
    /// Every live session registration, its operands bounded by the same
    /// byte budget as a card's cache (oldest registrations age out
    /// first). A card reborn from the backend factory replays it into
    /// its fresh engine, so restarted cards keep serving pinned operands
    /// hash-free without waiting for the next sighting of each pin.
    pub(super) pin_registry: Mutex<KeyedLru<()>>,
}

// lint: supervisor
// (Card threads run everything from here to the end marker while holding
// client reply sinks: a panic is a hung client, so these paths stay free
// of unwrap/expect/panic/indexing.)
impl PoolShared {
    pub(super) fn new(config: ServeConfig, cards: usize) -> PoolShared {
        PoolShared {
            config,
            card_health: (0..cards)
                .map(|_| AtomicU8::new(CardHealth::Live as u8))
                .collect(),
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            seq: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(cards),
            live: (0..cards)
                .map(|_| Mutex::new(ServeStats::default()))
                .collect(),
            recent: Mutex::new(RecentOperands::new()),
            shed: AtomicU64::new(0),
            pin_seq: AtomicU64::new(0),
            pin_registry: Mutex::new(KeyedLru::new(config.cache_bytes, |()| 0)),
        }
    }

    pub(super) fn close(&self) {
        self.lock_state().closed = true;
        self.wake_cards();
        self.not_full.notify_all();
    }

    /// Wakes every parked card to re-evaluate the queue.
    pub(super) fn wake_cards(&self) {
        self.not_empty.notify_all();
    }

    /// Parks on the queue until a push or a close — at most `timeout`,
    /// when one is given. Returns the re-acquired queue and whether the
    /// timeout ran out.
    pub(super) fn wait_for_push<'a>(
        &self,
        state: MutexGuard<'a, QueueState>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, QueueState>, bool) {
        let Some(timeout) = timeout else {
            let state = self.not_empty.wait(state);
            return (state.unwrap_or_else(|e| e.into_inner()), false);
        };
        let (state, result) = self
            .not_empty
            .wait_timeout(state, timeout)
            .unwrap_or_else(|e| e.into_inner());
        (state, result.timed_out())
    }

    pub(super) fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        // A worker panic mid-flush never holds this lock (flushes run
        // outside it), so poisoning can only come from a panicking
        // submitter — the queue itself is still consistent.
        lock_or_recover(&self.state)
    }

    /// Takes the next run for a free card of `width` off the queue and
    /// releases the lock. Blocking submitters are woken only when the
    /// claim freed room in a full queue — the one event they wait for.
    pub(super) fn claim(
        &self,
        mut state: MutexGuard<'_, QueueState>,
        width: usize,
    ) -> Vec<Submitted> {
        let capacity = self.config.queue_capacity.max(1);
        let was_full = state.pending.len() >= capacity;
        let run = claim_run(&mut state.pending, width);
        let freed = was_full && state.pending.len() < capacity;
        drop(state);
        if freed {
            self.not_full.notify_all();
        }
        run
    }

    pub(super) fn set_health(&self, index: usize, health: CardHealth) {
        if let Some(slot) = self.card_health.get(index) {
            slot.store(health as u8, Ordering::Relaxed);
        }
    }

    fn health(slot: &AtomicU8) -> CardHealth {
        match slot.load(Ordering::Relaxed) {
            0 => CardHealth::Live,
            1 => CardHealth::Restarting,
            _ => CardHealth::Dead,
        }
    }

    pub(super) fn health_snapshot(&self) -> Vec<CardHealth> {
        self.card_health.iter().map(PoolShared::health).collect()
    }

    /// Puts a job from a failed run back on the queue for the next
    /// claim — surviving cards (or this one, once restarted) pick it up.
    /// Bypasses the capacity bound (the job was already admitted once;
    /// bouncing it against backpressure could deadlock a full queue) and
    /// the closed flag (during a shutdown drain, retried jobs must still
    /// reach a survivor; if every worker exits first, the exit path
    /// clears the queue and the job resolves `Closed`).
    pub(super) fn requeue(&self, job: Submitted) {
        self.lock_state().pending.push(job);
        self.wake_cards();
    }

    /// The one enqueue path every submission flavor funnels through, and
    /// the one place an inline operand is admitted.
    pub(super) fn enqueue(
        &self,
        mut request: ProductRequest,
        reply: CompletionSink,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        self.admit(&mut request.a);
        self.admit(&mut request.b);
        let capacity = self.config.queue_capacity.max(1);
        let mut state = self.lock_state();
        loop {
            if state.closed {
                return Err(SubmitError::Closed(request));
            }
            if state.pending.len() < capacity {
                break;
            }
            if !blocking {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Full(request));
            }
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.pending.push(Submitted {
            request,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            retries: 0,
            suspect: false,
            reply,
        });
        drop(state);
        self.wake_cards();
        Ok(())
    }

    /// Admits an inline side not yet keyed: digests it and sights it in
    /// the fleet's table, taking the allocation of a live equal operand
    /// held there (the caller's duplicate is freed here).
    fn admit(&self, side: &mut Operand) {
        if side.key.is_some() {
            return;
        }
        let digest = digest(&side.value);
        let verdict = lock_or_recover(&self.recent).sight(digest, &side.value);
        side.recurring = !matches!(verdict, Verdict::FirstSight);
        if let Verdict::Share(twin) = verdict {
            side.value = twin;
        }
        side.key = Some(Key::Digest(digest));
    }
}

/// The claim decision: the run a free card of `width` takes off
/// `pending`. A suspect — a job that rode a panicked run — goes **alone**
/// and first: if it is poisonous it takes down only its own run, and if
/// it is an innocent run-mate it completes without queueing behind
/// anyone. Otherwise the card takes up to `width` jobs, earliest
/// deadlines first (deadline-less jobs after them, arrival order as
/// tie-breaker), which with no deadlines in play is arrival order
/// exactly.
pub(super) fn claim_run(pending: &mut Vec<Submitted>, width: usize) -> Vec<Submitted> {
    let mut run: Vec<Submitted> = Vec::with_capacity(width.min(pending.len()));
    while run.len() < width.max(1) && !run.first().is_some_and(|job| job.suspect) {
        let next = pending.iter().enumerate().min_by_key(|(_, job)| job.rank());
        let Some((next, _)) = next else {
            break;
        };
        run.push(pending.swap_remove(next));
    }
    run
}
// lint: end supervisor

#[cfg(test)]
mod tests {
    use super::super::completion::completion_channel;
    use super::*;

    /// A queue entry for the claim-order tests (its sink reports to
    /// nobody).
    fn queued(seq: u64, base: Instant, deadline_ms: Option<u64>) -> Submitted {
        let mut request = ProductRequest::new(UBig::from(seq), UBig::from(seq));
        request.deadline = deadline_ms.map(|ms| base + Duration::from_millis(ms));
        Submitted {
            request,
            seq,
            retries: 0,
            suspect: false,
            reply: completion_channel().0.sink(seq),
        }
    }

    fn pending_of(base: Instant, jobs: &[(u64, Option<u64>)]) -> Vec<Submitted> {
        jobs.iter()
            .map(|&(seq, deadline_ms)| queued(seq, base, deadline_ms))
            .collect()
    }

    fn seqs(jobs: &[Submitted]) -> Vec<u64> {
        jobs.iter().map(|job| job.seq).collect()
    }

    /// What is left pending, in arrival order (the queue keeps none).
    fn left(pending: &[Submitted]) -> Vec<u64> {
        let mut left = seqs(pending);
        left.sort_unstable();
        left
    }

    /// What strict arrival order would claim — the comparator EDF is
    /// measured against: the first `width` jobs by `seq`.
    fn fifo(pending: &[Submitted], width: usize) -> Vec<u64> {
        let mut order = left(pending);
        order.truncate(width);
        order
    }

    #[test]
    fn edf_claims_earliest_deadlines_first() {
        let mut pending = pending_of(
            Instant::now(),
            &[(0, None), (1, Some(500)), (2, Some(50)), (3, Some(200))],
        );
        // Arrival order would take the two oldest regardless of
        // deadlines…
        assert_eq!(fifo(&pending, 2), vec![0, 1]);
        // …EDF seats the 50 ms and 200 ms deadlines ahead of the 500 ms
        // one and the deadline-less job.
        assert_eq!(seqs(&claim_run(&mut pending, 2)), vec![2, 3]);
        assert_eq!(left(&pending), vec![0, 1]);
    }

    #[test]
    fn edf_expires_fewer_than_fifo_under_overload() {
        // Deterministic queue-order check (no live threads): 4 pending
        // jobs, a card two wide. The last two carry the tight deadlines;
        // EDF runs them first, arrival order would leave both behind to
        // expire while the first run computes.
        let mut pending = pending_of(
            Instant::now(),
            &[(0, None), (1, None), (2, Some(1)), (3, Some(2))],
        );
        let urgent_left_behind =
            |claimed: &[u64]| [2, 3].iter().filter(|seq| !claimed.contains(seq)).count();
        assert_eq!(urgent_left_behind(&fifo(&pending, 2)), 2);
        let edf = seqs(&claim_run(&mut pending, 2));
        assert_eq!(edf, vec![2, 3]);
        assert_eq!(urgent_left_behind(&edf), 0);
    }

    #[test]
    fn a_free_card_claims_at_most_its_width() {
        // The claim decision takes the queue and the card's width and
        // nothing else — no clock, no age, no window: a lone job is a run
        // of one, a backlog is cut at the width.
        let mut pending = pending_of(Instant::now(), &[(0, Some(900))]);
        assert_eq!(seqs(&claim_run(&mut pending, 3)), vec![0]);
        assert!(pending.is_empty());
        let jobs: Vec<(u64, Option<u64>)> = (0..5).map(|seq| (seq, None)).collect();
        let mut pending = pending_of(Instant::now(), &jobs);
        assert_eq!(seqs(&claim_run(&mut pending, 3)), vec![0, 1, 2]);
        assert_eq!(seqs(&claim_run(&mut pending, 3)), vec![3, 4]);
        assert!(claim_run(&mut pending, 3).is_empty());
        // A width of zero still makes progress.
        let mut pending = pending_of(Instant::now(), &jobs);
        assert_eq!(seqs(&claim_run(&mut pending, 0)), vec![0]);
    }

    #[test]
    fn a_suspect_is_claimed_alone_and_first() {
        let mut pending = pending_of(Instant::now(), &[(0, Some(1)), (1, None), (2, None)]);
        pending[1].suspect = true;
        pending[2].suspect = true;
        // Not even an urgent deadline shares a run with a suspect…
        assert_eq!(seqs(&claim_run(&mut pending, 4)), vec![1]);
        // …and two suspects never ride together.
        assert_eq!(seqs(&claim_run(&mut pending, 4)), vec![2]);
        assert_eq!(seqs(&claim_run(&mut pending, 4)), vec![0]);
        assert!(pending.is_empty());
    }

    #[test]
    fn claims_of_every_width_follow_one_order() {
        // However wide the claiming cards, jobs leave the queue in one
        // order — deadlines earliest first, then the deadline-less, each
        // by arrival — whatever order they were queued in.
        let base = Instant::now();
        let jobs = [
            (0, None),
            (1, Some(9)),
            (2, None),
            (3, Some(5)),
            (4, Some(5)),
            (5, None),
            (6, Some(1)),
        ];
        let order = vec![6, 3, 4, 1, 0, 2, 5];
        for width in 1..=jobs.len() + 1 {
            let mut pending = pending_of(base, &jobs);
            pending.reverse();
            let mut claimed = Vec::new();
            loop {
                let run = claim_run(&mut pending, width);
                if run.is_empty() {
                    break;
                }
                assert!(run.len() <= width);
                claimed.extend(seqs(&run));
            }
            assert_eq!(claimed, order, "width {width}");
        }
    }

    #[test]
    fn pinned_request_constructors_round_trip_ids() {
        let value = Arc::new(UBig::from(5u64));
        let request = ProductRequest::pinned_with(9, Arc::clone(&value), UBig::from(7u64));
        assert_eq!(request.operand_pins(), (Some(9), None));
        assert_eq!(request.operands(), (&*value, &UBig::from(7u64)));
        let pair = ProductRequest::pinned_pair((1, Arc::clone(&value)), (2, value));
        assert_eq!(pair.operand_pins(), (Some(1), Some(2)));
        let inline = ProductRequest::new(UBig::from(1u64), UBig::from(2u64));
        assert_eq!(inline.operand_pins(), (None, None));
        // Pinned or inline, a cache entry takes the request's own
        // allocation, never a copy of it.
        for side in [&request.a, &request.b, &inline.a, &inline.b] {
            assert!(std::ptr::eq(&*side.shared(), side.value()));
        }
    }

    #[test]
    fn a_padded_operand_is_held_at_its_value_size() {
        // Eight significant bytes behind a megabyte of zero padding, as
        // a frame decoder hands them over: the limbs were reserved for
        // the padding too.
        let mut bytes = vec![0u8; 1 << 20];
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let padded = UBig::from_le_bytes(&bytes);
        assert_eq!(padded.as_limbs().len(), 1);
        let request = ProductRequest::new(padded, UBig::from(3u64));
        let shared = request.a.shared();
        drop(request);
        let limbs = Arc::try_unwrap(shared).expect("sole owner").into_limbs();
        assert_eq!(limbs.capacity(), limbs.len());
    }
}
