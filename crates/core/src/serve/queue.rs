//! What enters the fleet — [`ProductRequest`] — and where it waits: the
//! bounded shared queue every submission funnels into, and the pure
//! claim decision ([`pop_batch`]) a free card selects its next flush
//! with.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use he_bigint::UBig;
use he_ntt::par::lock_or_recover;

use super::cache::{digest, KeyedLru, OperandCache, RecentDigests};
use super::completion::{CompletionSink, SubmitError};
use super::config::{CardHealth, FlushPolicy, ServeConfig, ServeStats};

/// Bytes of speculatively prepared handles the pool-shared staging store
/// retains before cards claim them (oldest evicted first).
const SPECULATE_STORE_BYTES: usize = 16 << 20;

/// One side of a product request: an inline operand, or a reference to
/// an operand a session registered (pinned in every card's cache by id —
/// resolved without hashing the operand's data).
#[derive(Debug, Clone)]
pub(super) enum Operand {
    Inline(UBig),
    Pinned { id: u64, value: Arc<UBig> },
}

impl Operand {
    pub(super) fn value(&self) -> &UBig {
        match self {
            Operand::Inline(value) => value,
            Operand::Pinned { value, .. } => value,
        }
    }

    /// The operand as a cache entry holds it: a pin shares the
    /// registered allocation, an inline operand is copied.
    pub(super) fn shared(&self) -> Arc<UBig> {
        match self {
            Operand::Inline(value) => Arc::new(value.clone()),
            Operand::Pinned { value, .. } => Arc::clone(value),
        }
    }
}

/// One product job: two owned operands and an optional deadline.
#[derive(Debug, Clone)]
pub struct ProductRequest {
    pub(super) a: Operand,
    pub(super) b: Operand,
    deadline: Option<Instant>,
}

impl ProductRequest {
    /// A request to multiply `a · b` with no deadline.
    pub fn new(a: UBig, b: UBig) -> ProductRequest {
        ProductRequest {
            a: Operand::Inline(a),
            b: Operand::Inline(b),
            deadline: None,
        }
    }

    /// Attaches a deadline `timeout` from now: if the job has not
    /// *started executing* by then, it is answered with
    /// [`ServeError::Expired`](super::ServeError::Expired) instead of
    /// occupying a card. A free card claims pending work at once, so a
    /// deadline is only ever at risk behind a busy fleet — where, under
    /// [`FlushPolicy::Edf`], an earlier deadline wins a seat in the next
    /// flush.
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
        let pin = |operand: &Operand| match operand {
            Operand::Pinned { id, .. } => Some(*id),
            Operand::Inline(_) => None,
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
            a: Operand::Pinned { id, value },
            b: Operand::Inline(fresh),
            deadline: None,
        }
    }

    /// A request multiplying two **pinned** operands; the same namespace
    /// caveat as [`ProductRequest::pinned_with`] applies.
    pub fn pinned_pair(a: (u64, Arc<UBig>), b: (u64, Arc<UBig>)) -> ProductRequest {
        ProductRequest {
            a: Operand::Pinned {
                id: a.0,
                value: a.1,
            },
            b: Operand::Pinned {
                id: b.0,
                value: b.1,
            },
            deadline: None,
        }
    }

    /// The job's size for routing: the wider of its two operands, in
    /// bits.
    fn required_bits(&self) -> usize {
        self.a.value().bit_len().max(self.b.value().bit_len())
    }
}

/// One queued job.
pub(super) struct Submitted {
    pub(super) request: ProductRequest,
    /// Arrival order, the FIFO rank and the EDF tie-breaker.
    pub(super) seq: u64,
    /// `(digest(a), digest(b))`, stamped at submission **outside** the
    /// queue lock — only on speculative pools, and only for fully inline
    /// requests — so the speculative preparer's queue scans never hash
    /// multi-hundred-KB operands while holding the mutex every submitter
    /// and card contends on.
    pub(super) digests: Option<(u64, u64)>,
    /// The wider operand's bit length, stamped at submission so
    /// by-size eligibility checks under the queue lock are integer
    /// compares.
    pub(super) required_bits: usize,
    /// Times this job has been re-queued after a failed flush (panic or
    /// transient device fault); [`ServeConfig::retry_limit`] bounds it.
    pub(super) retries: u32,
    /// Set when the job was part of a **panicked** flush: until it proves
    /// innocent, it is claimed alone — a poisonous job must not take
    /// batch-mates down with it twice.
    pub(super) suspect: bool,
    /// Where the outcome goes; also carries the job's cancel flag.
    pub(super) reply: CompletionSink,
}

pub(super) struct QueueState {
    pub(super) pending: VecDeque<Submitted>,
    pub(super) closed: bool,
}

/// The shared (backend-agnostic) half of a fleet: the bounded queue, the
/// speculation rendezvous, and the live per-card stats slots.
pub(super) struct PoolShared {
    pub(super) config: ServeConfig,
    /// Per-card operand capacity in bits (`None` = unbounded), in card
    /// order — what by-size routing routes against.
    capacities: Vec<Option<usize>>,
    /// Per-card supervision state ([`CardHealth`] encoded as a `u8`), in
    /// card order. A worker that exits for good marks its slot `Dead` so
    /// by-size routing stops routing to a card that will never claim
    /// again. `Restarting` cards still count as routable: they come back.
    card_health: Vec<AtomicU8>,
    state: Mutex<QueueState>,
    /// Signaled on every push and on close; workers and the speculative
    /// preparer wait here.
    not_empty: Condvar,
    /// Signaled on every claim and on close; blocking submitters wait
    /// here.
    pub(super) not_full: Condvar,
    seq: AtomicU64,
    /// Cards still running; the last one to exit (panic included) closes
    /// the queue so submitters cannot block on a dead fleet.
    pub(super) workers_alive: AtomicUsize,
    /// Cards currently parked in their post-trim idle state. The
    /// pool-shared speculative state is only cleared when **every** card
    /// is idle: one starved card timing out while its siblings chew
    /// through a long burst is not fleet idleness.
    pub(super) trimmed_cards: AtomicUsize,
    /// Per-card stats snapshots, refreshed at every flush boundary so a
    /// live fleet can be observed.
    pub(super) live: Vec<Mutex<ServeStats>>,
    /// Whether a speculative preparer is running.
    pub(super) speculation: bool,
    /// Inline digests the cards sighted lately, fleet-wide: what
    /// second-sight admission asks before caching an operand, and where
    /// the speculative preparer finds the recurring side of a queued
    /// job.
    pub(super) recent: Mutex<RecentDigests>,
    /// Speculatively prepared handles staged for cards to claim.
    pub(super) spec_store: Mutex<OperandCache>,
    pub(super) spec_prepares: AtomicU64,
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
    pub(super) fn new(
        config: ServeConfig,
        capacities: Vec<Option<usize>>,
        speculation: bool,
    ) -> PoolShared {
        let cards = capacities.len();
        PoolShared {
            config,
            capacities,
            card_health: (0..cards)
                .map(|_| AtomicU8::new(CardHealth::Live as u8))
                .collect(),
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            seq: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(cards),
            trimmed_cards: AtomicUsize::new(0),
            live: (0..cards)
                .map(|_| Mutex::new(ServeStats::default()))
                .collect(),
            speculation,
            recent: Mutex::new(RecentDigests::new()),
            spec_store: Mutex::new(OperandCache::of_handles(SPECULATE_STORE_BYTES)),
            spec_prepares: AtomicU64::new(0),
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

    /// Wakes every parked card (and the speculative preparer) to
    /// re-evaluate the queue.
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

    /// Card `index`'s transform capacity in bits (`None` = unbounded).
    pub(super) fn capacity(&self, index: usize) -> Option<usize> {
        self.capacities.get(index).copied().flatten()
    }

    /// Whether any **non-dead** card's geometry fits an operand of `bits`
    /// bits (dead cards cannot claim, so they must not keep jobs routed
    /// away from the survivors; a restarting card still counts — it comes
    /// back).
    pub(super) fn fits_any_live(&self, bits: usize) -> bool {
        self.capacities
            .iter()
            .zip(&self.card_health)
            .any(|(cap, health)| {
                PoolShared::health(health) != CardHealth::Dead && cap.is_none_or(|c| bits <= c)
            })
    }

    /// Puts a job from a failed flush back on the queue for the next
    /// claim — surviving cards (or this one, once restarted) pick it up.
    /// Bypasses the capacity bound (the job was already admitted once;
    /// bouncing it against backpressure could deadlock a full queue) and
    /// the closed flag (during a shutdown drain, retried jobs must still
    /// reach a survivor; if every worker exits first, the exit path
    /// clears the queue and the job resolves `Closed`).
    pub(super) fn requeue(&self, job: Submitted) {
        self.lock_state().pending.push_back(job);
        self.wake_cards();
    }

    /// The one enqueue path every submission flavor funnels through.
    pub(super) fn enqueue(
        &self,
        request: ProductRequest,
        reply: CompletionSink,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        // On speculative pools digests are paid once per submission — on
        // the submitter's thread, before any lock. Pinned operands never
        // hash; their jobs simply opt out of speculation.
        let digests = match (&request.a, &request.b) {
            (Operand::Inline(a), Operand::Inline(b)) if self.speculation => {
                Some((digest(a), digest(b)))
            }
            _ => None,
        };
        let required_bits = request.required_bits();
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
        state.pending.push_back(Submitted {
            request,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            digests,
            required_bits,
            retries: 0,
            suspect: false,
            reply,
        });
        drop(state);
        self.wake_cards();
        Ok(())
    }
}

/// The claim decision: which of the claiming card's `eligible` jobs
/// (queue positions, ascending) leave `pending` as its next flush. A
/// suspect — a job that rode a panicked flush — goes **alone** and
/// first: if it is poisonous it takes down only that flush, and if it is
/// an innocent batch-mate it completes without queueing behind anyone.
/// Otherwise the card takes up to `max_batch` jobs under the configured
/// [`FlushPolicy`]. Batch and remainder both keep arrival order.
pub(super) fn pop_batch(
    pending: &mut VecDeque<Submitted>,
    eligible: &[usize],
    config: &ServeConfig,
) -> Vec<Submitted> {
    let job = |i: &usize| pending.get(*i);
    let suspect = eligible
        .iter()
        .find(|i| job(i).is_some_and(|job| job.suspect));
    let mut chosen: Vec<usize> = match suspect {
        Some(&suspect) => vec![suspect],
        None => eligible.to_vec(),
    };
    let take = config.max_batch.max(1);
    if chosen.len() > take && matches!(config.policy, FlushPolicy::Edf) {
        // Seats are contested: earliest deadline first, deadline-less
        // jobs after them, arrival order as tie-breaker; a stale index
        // (nothing pending there) sorts last.
        chosen.sort_by_key(|i| {
            job(i).map_or((true, true, None, 0), |job| {
                let deadline = job.request.deadline;
                (false, deadline.is_none(), deadline, job.seq)
            })
        });
    }
    chosen.truncate(take);
    chosen.sort_unstable();
    // The common case — arrival order, or every pending job taken — is
    // the head of the queue: no rebuild.
    if chosen.last().is_none_or(|&last| last + 1 == chosen.len()) {
        return pending.drain(..chosen.len().min(pending.len())).collect();
    }
    // By-size and deadline-ranked claims sit anywhere in the queue:
    // rebuild it around them.
    let mut chosen = chosen.iter().peekable();
    let mut batch = Vec::with_capacity(chosen.len());
    let mut rest = VecDeque::with_capacity(pending.len().saturating_sub(chosen.len()));
    for (i, job) in pending.drain(..).enumerate() {
        if chosen.next_if_eq(&&i).is_some() {
            batch.push(job);
        } else {
            rest.push_back(job);
        }
    }
    *pending = rest;
    batch
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
            required_bits: request.required_bits(),
            request,
            seq,
            digests: None,
            retries: 0,
            suspect: false,
            reply: completion_channel().0.sink(seq),
        }
    }

    fn pending_of(base: Instant, jobs: &[(u64, Option<u64>)]) -> VecDeque<Submitted> {
        jobs.iter()
            .map(|&(seq, deadline_ms)| queued(seq, base, deadline_ms))
            .collect()
    }

    fn seqs(batch: &[Submitted]) -> Vec<u64> {
        batch.iter().map(|job| job.seq).collect()
    }

    #[test]
    fn edf_claims_earliest_deadlines_first() {
        let config = ServeConfig {
            max_batch: 2,
            policy: FlushPolicy::Edf,
            ..ServeConfig::default()
        };
        let mut pending = pending_of(
            Instant::now(),
            &[(0, None), (1, Some(500)), (2, Some(50)), (3, Some(200))],
        );
        let all: Vec<usize> = (0..pending.len()).collect();
        // The 50 ms and 200 ms deadlines outrank the 500 ms one and the
        // deadline-less job.
        assert_eq!(seqs(&pop_batch(&mut pending, &all, &config)), vec![2, 3]);
        assert_eq!(pending.len(), 2);
        // FIFO takes arrival order regardless of deadlines.
        let fifo = ServeConfig {
            policy: FlushPolicy::Fifo,
            ..config
        };
        let all: Vec<usize> = (0..pending.len()).collect();
        assert_eq!(seqs(&pop_batch(&mut pending, &all, &fifo)), vec![0, 1]);
    }

    #[test]
    fn edf_expires_fewer_than_fifo_under_overload() {
        // Deterministic queue-order check (no live threads): 4 pending
        // jobs, capacity for 2 per flush. The last two carry the tight
        // deadlines; EDF runs them first, FIFO lets them expire.
        let base = Instant::now();
        let claim = |policy: FlushPolicy| {
            let mut pending = pending_of(base, &[(0, None), (1, None), (2, Some(1)), (3, Some(2))]);
            let config = ServeConfig {
                max_batch: 2,
                policy,
                ..ServeConfig::default()
            };
            let all: Vec<usize> = (0..pending.len()).collect();
            seqs(&pop_batch(&mut pending, &all, &config))
        };
        assert_eq!(claim(FlushPolicy::Edf), vec![2, 3]);
        assert_eq!(claim(FlushPolicy::Fifo), vec![0, 1]);
    }

    #[test]
    fn pop_batch_leaves_ineligible_jobs_queued() {
        // The by-size claim path: a card only pops its eligible subset;
        // the rest stay in arrival order for the cards that fit them.
        let config = ServeConfig {
            max_batch: 8,
            policy: FlushPolicy::Fifo,
            ..ServeConfig::default()
        };
        let jobs: Vec<(u64, Option<u64>)> = (0..5).map(|seq| (seq, None)).collect();
        let mut pending = pending_of(Instant::now(), &jobs);
        assert_eq!(seqs(&pop_batch(&mut pending, &[1, 3], &config)), vec![1, 3]);
        assert_eq!(
            pending.iter().map(|j| j.seq).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn a_free_card_claims_whatever_is_pending_up_to_max_batch() {
        // The claim decision takes the queue and the eligible set and
        // nothing else — no clock, no age, no window: a lone job is a
        // flush of one, a backlog is cut at `max_batch`.
        let config = ServeConfig {
            max_batch: 3,
            ..ServeConfig::default()
        };
        let mut pending = pending_of(Instant::now(), &[(0, Some(900))]);
        assert_eq!(seqs(&pop_batch(&mut pending, &[0], &config)), vec![0]);
        assert!(pending.is_empty());
        let jobs: Vec<(u64, Option<u64>)> = (0..5).map(|seq| (seq, None)).collect();
        let mut pending = pending_of(Instant::now(), &jobs);
        let all: Vec<usize> = (0..pending.len()).collect();
        assert_eq!(seqs(&pop_batch(&mut pending, &all, &config)), vec![0, 1, 2]);
        assert_eq!(seqs(&pop_batch(&mut pending, &[0, 1], &config)), vec![3, 4]);
        assert!(pop_batch(&mut pending, &[], &config).is_empty());
    }

    #[test]
    fn a_suspect_is_claimed_alone_and_first() {
        let config = ServeConfig::default();
        let mut pending = pending_of(Instant::now(), &[(0, Some(1)), (1, None), (2, None)]);
        pending[1].suspect = true;
        pending[2].suspect = true;
        // Not even an urgent deadline shares a flush with a suspect…
        assert_eq!(seqs(&pop_batch(&mut pending, &[0, 1, 2], &config)), vec![1]);
        // …a suspect this card may not run stays where it is…
        assert_eq!(seqs(&pop_batch(&mut pending, &[0], &config)), vec![0]);
        // …and two suspects never ride together.
        assert_eq!(seqs(&pop_batch(&mut pending, &[0], &config)), vec![2]);
        assert!(pending.is_empty());
    }

    #[test]
    fn head_of_queue_and_scattered_claims_agree() {
        // `pop_batch` drains the head of the queue when the chosen jobs
        // are its head and rebuilds the queue around them when they are
        // not. The same four jobs claimed both ways — once as the whole
        // head, once from behind a job this card may not run — must come
        // out as the same batch and leave the same remainder order.
        let base = Instant::now();
        let jobs: Vec<(u64, Option<u64>)> = (0..6).map(|seq| (seq, Some(100 + seq))).collect();
        for policy in [FlushPolicy::Edf, FlushPolicy::Fifo] {
            let config = ServeConfig {
                max_batch: 4,
                policy,
                ..ServeConfig::default()
            };
            let mut head = pending_of(base, &jobs);
            let drained = pop_batch(&mut head, &[0, 1, 2, 3, 4, 5], &config);
            let mut blocked = pending_of(base, &[(9, None)]);
            blocked.extend(pending_of(base, &jobs));
            let rebuilt = pop_batch(&mut blocked, &[1, 2, 3, 4, 5, 6], &config);
            assert_eq!(seqs(&drained), vec![0, 1, 2, 3], "{policy:?}");
            assert_eq!(seqs(&rebuilt), seqs(&drained), "{policy:?}");
            assert_eq!(seqs(head.make_contiguous()), vec![4, 5], "{policy:?}");
            assert_eq!(seqs(blocked.make_contiguous()), vec![9, 4, 5], "{policy:?}");
        }
        // A ranked claim whose winners sit mid-queue goes through the
        // rebuild and still leaves the rest in arrival order.
        let config = ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        };
        let mut pending = pending_of(base, &[(0, None), (1, Some(9)), (2, None), (3, Some(5))]);
        assert_eq!(
            seqs(&pop_batch(&mut pending, &[0, 1, 2, 3], &config)),
            vec![1, 3]
        );
        assert_eq!(seqs(pending.make_contiguous()), vec![0, 2]);
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
    }
}
