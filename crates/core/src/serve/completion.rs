//! The one reply path: every job's outcome leaves its card through a
//! [`CompletionSink`], and everything a client holds — a
//! [`ProductTicket`], a [`CompletionQueue`], a [`CompletionReceiver`] —
//! is a receiver for sinks.
//!
//! A sink delivers **exactly once**: the outcome it is completed with, or
//! [`ServeError::Closed`] from its `Drop` when it is lost unanswered
//! (worker death, shutdown with the job still queued, a dropped
//! connection). That is why no wait in this module can hang on a dead
//! fleet. A sink also carries its job's cancel flag, so withdrawal works
//! the same for every receiver kind.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use he_bigint::UBig;

use super::queue::ProductRequest;
use crate::multiplier::MultiplyError;

/// Why a served product failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The job's deadline passed before execution — either while it
    /// waited in the shared queue, or during its own flush's preparation
    /// phase (the two cases are attributed separately in
    /// [`ServeStats`](super::ServeStats)).
    Expired {
        /// How far past the deadline the job was when the server gave up
        /// on it.
        missed_by: Duration,
    },
    /// The backend rejected the product (capacity, parameters).
    Multiply(MultiplyError),
    /// The job was **quarantined**: every flush that included it took its
    /// card down (a panic in the backend), and after `attempts` such
    /// strikes the fleet answers the job with this error instead of
    /// letting it kill another card. Batch-mates of a poisonous job are
    /// re-queued and served by the surviving (or restarted) cards; only
    /// the job the failures isolate is quarantined.
    Poisoned {
        /// Flushes this job took down before the fleet gave up on it
        /// (`ServeConfig::retry_limit` + 1).
        attempts: u32,
    },
    /// The server shut down before delivering a result.
    Closed,
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Expired { missed_by } => {
                write!(f, "job deadline expired {missed_by:?} before execution")
            }
            ServeError::Multiply(e) => write!(f, "{e}"),
            ServeError::Poisoned { attempts } => write!(
                f,
                "job quarantined after taking down {attempts} consecutive flushes"
            ),
            ServeError::Closed => write!(f, "product server closed before delivering a result"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Multiply(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MultiplyError> for ServeError {
    fn from(e: MultiplyError) -> ServeError {
        ServeError::Multiply(e)
    }
}

/// Why a submission was not accepted; the request is handed back so the
/// caller can retry, reroute or shed it.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full (only non-blocking submissions report
    /// this; blocking ones wait instead).
    Full(ProductRequest),
    /// Every worker is gone (shutdown, or the last card panicked).
    Closed(ProductRequest),
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "submission queue is full"),
            SubmitError::Closed(_) => write!(f, "product server is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What travels from a sink to its receiver: the sink's tag and the
/// job's outcome.
type Delivery = (u64, Result<UBig, ServeError>);

/// The sending end of one job's completion, consumed by whoever answers
/// the job — a card of the fleet, or a [`Submitter`] that executes or
/// forwards jobs itself. Minted by a [`CompletionMint`], or behind the
/// scenes by [`Submitter::submit`] and
/// [`CompletionQueue::submit_tagged`].
#[derive(Debug)]
pub struct CompletionSink {
    tx: mpsc::Sender<Delivery>,
    tag: u64,
    cancelled: Arc<AtomicBool>,
    sent: bool,
}

impl CompletionSink {
    fn new(tx: mpsc::Sender<Delivery>, tag: u64) -> CompletionSink {
        CompletionSink {
            tx,
            tag,
            cancelled: Arc::new(AtomicBool::new(false)),
            sent: false,
        }
    }

    /// Delivers the job's outcome. A receiver that stopped listening
    /// absorbs it silently.
    pub fn complete(mut self, outcome: Result<UBig, ServeError>) {
        self.sent = true;
        let _ = self.tx.send((self.tag, outcome));
    }

    /// Whether the job was withdrawn (through its [`ProductTicket`] or a
    /// [`CancelHandle`]). The fleet drops a cancelled job at claim time;
    /// a remote transport polls this to forward the withdrawal.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// A handle that can withdraw this sink's job after the sink itself
    /// has been submitted.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            cancelled: Arc::clone(&self.cancelled),
        }
    }
}

impl Drop for CompletionSink {
    fn drop(&mut self) {
        if !self.sent {
            let _ = self.tx.send((self.tag, Err(ServeError::Closed)));
        }
    }
}

/// Best-effort withdrawal of one submitted job: if the job is still
/// queued when a card claims its flush, it is dropped without running
/// (counted in [`ServeStats::cancelled`](super::ServeStats::cancelled))
/// and its sink resolves [`ServeError::Closed`]. A job already claimed
/// runs to completion.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    cancelled: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Asks the fleet not to run the job if it has not been claimed yet.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

/// Claim on one submitted job's result: the receiver of a single
/// [`CompletionSink`].
///
/// A ticket resolves exactly once — to the product, or to a typed
/// [`ServeError`] — and never hangs. Dropping a ticket is a
/// fire-and-forget submission (the job still runs; its result is
/// discarded); [`ProductTicket::cancel`] additionally asks the fleet to
/// *not* run a still-queued job.
///
/// ```
/// use he_accel::prelude::*;
/// use std::time::Duration;
///
/// let pool = ServerPool::spawn(
///     vec![EvalEngine::new(SsaSoftware::for_operand_bits(256)?)],
///     ServeConfig::default(),
/// );
/// let mut ticket = pool.submit(ProductRequest::new(
///     UBig::from(6u64),
///     UBig::from(7u64),
/// ))?;
/// // Poll without blocking, bound the wait, or block — same ticket.
/// let product = match ticket.try_wait() {
///     Some(resolved) => resolved.expect("served"),
///     None => match ticket.wait_timeout(Duration::from_secs(30)) {
///         Some(resolved) => resolved.expect("served"),
///         None => ticket.wait().expect("served"),
///     },
/// };
/// assert_eq!(product, UBig::from(42u64));
/// pool.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ProductTicket {
    rx: mpsc::Receiver<Delivery>,
    cancel: CancelHandle,
}

impl ProductTicket {
    /// A ticket and the sink that resolves it.
    fn pair() -> (CompletionSink, ProductTicket) {
        let (tx, rx) = mpsc::channel();
        let sink = CompletionSink::new(tx, 0);
        let cancel = sink.cancel_handle();
        (sink, ProductTicket { rx, cancel })
    }

    /// Blocks until the job's run is flushed and returns the
    /// product (or the job's typed failure).
    ///
    /// # Errors
    ///
    /// [`ServeError::Expired`] when the deadline passed before execution,
    /// [`ServeError::Multiply`] when the backend rejected the product, and
    /// [`ServeError::Closed`] when the server shut down first.
    pub fn wait(self) -> Result<UBig, ServeError> {
        self.rx
            .recv()
            .map_or(Err(ServeError::Closed), |(_, outcome)| outcome)
    }

    /// Polls the ticket without blocking: `None` while the job is still
    /// queued or executing, `Some(outcome)` once it resolved. A ticket
    /// resolves once; polling again after taking the outcome reports
    /// [`ServeError::Closed`].
    pub fn try_wait(&mut self) -> Option<Result<UBig, ServeError>> {
        match self.rx.try_recv() {
            Ok((_, outcome)) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Blocks for at most `timeout`: `None` if the job has not resolved
    /// by then (the ticket stays valid — wait again, poll, or cancel),
    /// `Some(outcome)` once it has. A dead fleet resolves the ticket to
    /// [`ServeError::Closed`] rather than running out the timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<UBig, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok((_, outcome)) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Withdraws the job (see [`CancelHandle`]); its result, if it runs
    /// anyway, is discarded like any dropped ticket's.
    pub fn cancel(self) {
        self.cancel.cancel();
    }
}

/// An owned mint/receiver pair for [`CompletionSink`]s, so the two halves
/// can live on different threads: a reactor (e.g. a socket writer
/// draining one connection's completions) owns the
/// [`CompletionReceiver`], while whatever accepts jobs keeps the
/// [`CompletionMint`] (`Clone`) and attaches a sink per submission via
/// [`Submitter::submit_into`].
///
/// [`CompletionReceiver::recv`] returns `None` only once the mint and
/// every outstanding sink are gone — the receiver's loop terminates
/// naturally when the producing side shuts down.
pub fn completion_channel() -> (CompletionMint, CompletionReceiver) {
    let (tx, rx) = mpsc::channel();
    (CompletionMint { tx }, CompletionReceiver { rx })
}

/// The minting half of [`completion_channel`]: stamps
/// [`CompletionSink`]s, each tagged with a caller-chosen `u64`, all
/// delivering to the paired [`CompletionReceiver`].
#[derive(Debug, Clone)]
pub struct CompletionMint {
    tx: mpsc::Sender<Delivery>,
}

impl CompletionMint {
    /// A sink delivering `(tag, outcome)` to the paired receiver.
    pub fn sink(&self, tag: u64) -> CompletionSink {
        CompletionSink::new(self.tx.clone(), tag)
    }
}

/// The draining half of [`completion_channel`]: completions arrive in
/// completion order, each carrying the tag its sink was minted with.
#[derive(Debug)]
pub struct CompletionReceiver {
    rx: mpsc::Receiver<Delivery>,
}

impl CompletionReceiver {
    /// Blocks for the next completion. Returns `None` once the mint and
    /// every outstanding sink have been dropped — the clean-shutdown
    /// signal for a reactor draining this receiver.
    pub fn recv(&self) -> Option<(u64, Result<UBig, ServeError>)> {
        self.rx.recv().ok()
    }

    /// Non-blocking [`CompletionReceiver::recv`]: `None` when no
    /// completion is ready right now *or* the channel is finished — use
    /// the blocking form to distinguish shutdown from idleness.
    pub fn try_recv(&self) -> Option<(u64, Result<UBig, ServeError>)> {
        self.rx.try_recv().ok()
    }

    /// Bounded [`CompletionReceiver::recv`]: `None` when nothing arrives
    /// within `timeout` (or the channel is finished).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, Result<UBig, ServeError>)> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// The submission surface of a serving front — the in-process
/// [`ServerPool`](super::ServerPool), a
/// [`ClientSession`](super::ClientSession) over it, or a remote
/// transport. An implementation supplies [`Submitter::submit_sink`];
/// every other flavor is built from it.
pub trait Submitter {
    /// Accepts a job whose outcome will be delivered through `sink`.
    /// When the front's bounded queue is full, `blocking` chooses
    /// between waiting for room and shedding the job with
    /// [`SubmitError::Full`].
    ///
    /// An implementation must make sure `sink` is completed or dropped
    /// on every path (dropping resolves it [`ServeError::Closed`]), and
    /// should honor [`CompletionSink::is_cancelled`] for jobs it has not
    /// started.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] (non-blocking only) when the queue is at
    /// capacity, [`SubmitError::Closed`] if nothing is left to run the
    /// job; the request is handed back either way.
    fn submit_sink(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
        blocking: bool,
    ) -> Result<(), SubmitError>;

    /// Submits a job, **blocking** while the bounded queue is full, and
    /// returns the [`ProductTicket`] its result comes back through.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the request handed back) if every
    /// worker is gone.
    fn submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        let (sink, ticket) = ProductTicket::pair();
        self.submit_sink(request, sink, true)?;
        Ok(ticket)
    }

    /// Submits a job without blocking: a full queue returns
    /// [`SubmitError::Full`] with the request handed back — the
    /// backpressure signal for load-shedding producers (counted in
    /// [`ServeStats::shed`](super::ServeStats::shed)).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] if every worker is gone.
    fn try_submit(&self, request: ProductRequest) -> Result<ProductTicket, SubmitError> {
        let (sink, ticket) = ProductTicket::pair();
        self.submit_sink(request, sink, false)?;
        Ok(ticket)
    }

    /// Submits a job whose completion is delivered through a sink the
    /// caller minted ([`CompletionMint::sink`]); blocks while the queue
    /// is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] (with the request handed back; the sink
    /// resolves [`ServeError::Closed`]) if every worker is gone.
    fn submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.submit_sink(request, sink, true)
    }

    /// Non-blocking [`Submitter::submit_into`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] if every worker is gone.
    fn try_submit_into(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
    ) -> Result<(), SubmitError> {
        self.submit_sink(request, sink, false)
    }
}

/// One resolved job from a [`CompletionQueue`]: the caller's tag and the
/// job's outcome.
#[derive(Debug)]
pub struct Completion<T> {
    /// The tag supplied at [`CompletionQueue::submit_tagged`].
    pub tag: T,
    /// The job's outcome — same contract as [`ProductTicket::wait`].
    pub result: Result<UBig, ServeError>,
}

/// A single-receiver multiplexer over many in-flight submissions: the
/// completion-driven alternative to holding one [`ProductTicket`] (and
/// one blocked thread) per job.
///
/// Submissions carry a caller-supplied tag; completions come back **in
/// completion order** — whichever flush finishes first — each carrying
/// its tag, so one reactor thread keeps an arbitrary number of products
/// in flight: submit until the window is full,
/// [`CompletionQueue::recv`] one completion, submit the next. Works over
/// any [`Submitter`].
///
/// ```
/// use he_accel::prelude::*;
///
/// let pool = ServerPool::spawn(
///     vec![EvalEngine::new(SsaSoftware::for_operand_bits(256)?)],
///     ServeConfig::default(),
/// );
/// let mut queue = CompletionQueue::new(&pool);
/// for k in 2..6u64 {
///     queue
///         .submit_tagged(ProductRequest::new(UBig::from(k), UBig::from(k)), k)
///         .map_err(|(e, _)| e)?;
/// }
/// assert_eq!(queue.in_flight(), 4);
/// // One thread drains all four, in whatever order the fleet finished.
/// while let Some(done) = queue.recv() {
///     assert_eq!(done.result.expect("served"), UBig::from(done.tag * done.tag));
/// }
/// assert_eq!(queue.in_flight(), 0);
/// pool.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CompletionQueue<'a, S: Submitter + ?Sized, T = u64> {
    submitter: &'a S,
    mint: CompletionMint,
    receiver: CompletionReceiver,
    /// Sink tag → the caller's tag, for every job still in flight.
    tags: HashMap<u64, T>,
    next_id: u64,
}

impl<'a, S: Submitter + ?Sized, T> CompletionQueue<'a, S, T> {
    /// A completion queue feeding `submitter`.
    pub fn new(submitter: &'a S) -> CompletionQueue<'a, S, T> {
        let (mint, receiver) = completion_channel();
        CompletionQueue {
            submitter,
            mint,
            receiver,
            tags: HashMap::new(),
            next_id: 0,
        }
    }

    fn submit(
        &mut self,
        request: ProductRequest,
        tag: T,
        blocking: bool,
    ) -> Result<(), (SubmitError, T)> {
        let id = self.next_id;
        self.next_id += 1;
        match self
            .submitter
            .submit_sink(request, self.mint.sink(id), blocking)
        {
            Ok(()) => {
                self.tags.insert(id, tag);
                Ok(())
            }
            // The refused sink's `Closed` delivery is skipped on
            // receipt: its id was never registered.
            Err(error) => Err((error, tag)),
        }
    }

    /// Submits a job under `tag`, **blocking** while the bounded queue is
    /// full. The tag comes back with the job's completion.
    ///
    /// # Errors
    ///
    /// `(SubmitError::Closed, tag)` — request and tag both handed back —
    /// if every worker is gone.
    pub fn submit_tagged(
        &mut self,
        request: ProductRequest,
        tag: T,
    ) -> Result<(), (SubmitError, T)> {
        self.submit(request, tag, true)
    }

    /// Non-blocking [`CompletionQueue::submit_tagged`]: a full queue
    /// hands request and tag back instead of blocking.
    ///
    /// # Errors
    ///
    /// `(SubmitError::Full, tag)` when the queue is at capacity,
    /// `(SubmitError::Closed, tag)` if every worker is gone.
    pub fn try_submit_tagged(
        &mut self,
        request: ProductRequest,
        tag: T,
    ) -> Result<(), (SubmitError, T)> {
        self.submit(request, tag, false)
    }

    /// Jobs submitted through this queue that have not completed yet.
    pub fn in_flight(&self) -> usize {
        self.tags.len()
    }

    /// The next delivery `receive` yields that belongs to a job still in
    /// flight; `None` when nothing is in flight or `receive` gives up.
    fn next(
        &mut self,
        mut receive: impl FnMut(&CompletionReceiver) -> Option<Delivery>,
    ) -> Option<Completion<T>> {
        while !self.tags.is_empty() {
            let (id, result) = receive(&self.receiver)?;
            if let Some(tag) = self.tags.remove(&id) {
                return Some(Completion { tag, result });
            }
        }
        None
    }

    /// Blocks for the next completion, in completion order. Returns
    /// `None` when nothing is in flight. Never hangs on a dead fleet:
    /// every accepted job's sink reports [`ServeError::Closed`] when it
    /// is dropped unanswered.
    pub fn recv(&mut self) -> Option<Completion<T>> {
        self.next(CompletionReceiver::recv)
    }

    /// Non-blocking [`CompletionQueue::recv`]: `None` when no completion
    /// is ready right now (or nothing is in flight).
    pub fn try_recv(&mut self) -> Option<Completion<T>> {
        self.next(CompletionReceiver::try_recv)
    }

    /// Bounded [`CompletionQueue::recv`]: `None` if no completion arrives
    /// within `timeout` (or nothing is in flight).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Completion<T>> {
        let deadline = Instant::now() + timeout;
        self.next(|receiver| {
            receiver.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        })
    }

    /// Blocks until every in-flight job has completed and returns the
    /// completions in completion order.
    pub fn drain(&mut self) -> Vec<Completion<T>> {
        let mut done = Vec::with_capacity(self.tags.len());
        while let Some(completion) = self.recv() {
            done.push(completion);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_channel_delivers_and_closes() {
        let (mint, receiver) = completion_channel();
        mint.sink(7).complete(Ok(UBig::from(6u64)));
        // An unanswered sink reports `Closed` from its drop.
        drop(mint.sink(8));
        let mut got = [
            receiver.recv().expect("first completion"),
            receiver.recv().expect("second completion"),
        ];
        got.sort_by_key(|(tag, _)| *tag);
        assert_eq!(got[0], (7, Ok(UBig::from(6u64))));
        assert_eq!(got[1], (8, Err(ServeError::Closed)));
        drop(mint);
        assert_eq!(receiver.recv(), None, "mint gone, channel finished");
    }

    #[test]
    fn ticket_resolves_once_and_reports_closed_on_a_dropped_sink() {
        let (sink, ticket) = ProductTicket::pair();
        sink.complete(Ok(UBig::from(42u64)));
        assert_eq!(ticket.wait().unwrap(), UBig::from(42u64));

        let (sink, mut ticket) = ProductTicket::pair();
        drop(sink);
        assert_eq!(ticket.try_wait(), Some(Err(ServeError::Closed)));
        // The one outcome was taken; the ticket stays typed, not stuck.
        assert_eq!(ticket.try_wait(), Some(Err(ServeError::Closed)));
    }

    #[test]
    fn cancel_reaches_the_sink_from_ticket_and_handle() {
        let (sink, ticket) = ProductTicket::pair();
        assert!(!sink.is_cancelled());
        ticket.cancel();
        assert!(sink.is_cancelled());

        let (mint, _receiver) = completion_channel();
        let sink = mint.sink(1);
        sink.cancel_handle().cancel();
        assert!(sink.is_cancelled());
    }
}
