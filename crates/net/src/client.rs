//! [`NetSession`] — the remote [`Submitter`].
//!
//! One session is one connection to a [`crate::NetServer`], plus the
//! state to survive losing it: a pending-map of in-flight requests
//! (each holding the [`CompletionSink`] its answer goes to), the
//! session's pinned operands for re-registration, and a reconnect
//! budget. The contract mirrors the in-process fleet exactly:
//!
//! - **never hang**: any request in flight when the connection dies
//!   resolves to the typed [`ServeError::Closed`] — the reader thread's
//!   epoch teardown drops every pending sink, and dropping *is*
//!   resolution;
//! - **reconnect-and-re-register**: the next submission after a
//!   connection loss dials again and replays every pinned operand
//!   *before* any new job, so `submit_with` streams keep their
//!   hash-free, 8-bytes-on-the-wire resolution across server restarts
//!   and network faults;
//! - **cancellation propagates**: a cancelled job raises its sink's
//!   flag exactly as locally; the reader's idle ticks sweep it into a
//!   [`Frame::Cancel`] so the far fleet can drop the job unclaimed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use he_accel::{
    CompletionSink, ProductRequest, ProductTicket, ServeError, ServeStats, SubmitError, Submitter,
};
use he_bigint::UBig;

use crate::sock::{read_frame, Conn, Endpoint, ReadEvent};
use crate::wire::{Frame, WireOperand, DEFAULT_MAX_FRAME_BYTES};
use crate::NetError;

/// Tunables of one [`NetSession`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Cap on one frame's body — a hostile length prefix from the server
    /// is rejected before it sizes anything.
    pub max_frame_bytes: usize,
    /// Dial attempts per send before giving up with
    /// [`SubmitError::Closed`] / [`NetError::Closed`]. The budget is per
    /// *operation*, not per session: a later submission tries again.
    pub reconnect_attempts: u32,
    /// Pause between dial attempts.
    pub reconnect_backoff: Duration,
    /// The reader thread's tick period — how often, while idle, it
    /// sweeps cancelled jobs into [`Frame::Cancel`] messages and checks
    /// for session close.
    pub read_poll: Duration,
    /// How long [`NetSession::stats`] and [`NetSession::ping`] wait for
    /// their reply frame.
    pub reply_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            reconnect_attempts: 8,
            reconnect_backoff: Duration::from_millis(20),
            read_poll: Duration::from_millis(5),
            reply_timeout: Duration::from_secs(30),
        }
    }
}

/// Where one in-flight request's answer goes.
enum PendingReply {
    Job(CompletionSink),
    Stats(mpsc::Sender<ServeStats>),
    Pong(mpsc::Sender<()>),
}

impl PendingReply {
    fn resolve(self, outcome: Result<UBig, ServeError>) {
        match self {
            PendingReply::Job(sink) => sink.complete(outcome),
            // A stats/ping waiter answered with a job outcome is a
            // server bug; dropping the sender resolves the waiter to
            // `Closed` rather than hanging it.
            PendingReply::Stats(_) | PendingReply::Pong(_) => {}
        }
    }
}

struct PendingEntry {
    /// Which connection the request went out on: entries die with their
    /// epoch, never with a newer connection's failure.
    epoch: u64,
    /// A cancel frame was already sent for this request.
    cancel_sent: bool,
    reply: PendingReply,
}

/// The write half of the live connection, if any.
struct ConnState {
    stream: Option<Conn>,
    /// Bumped on every successful dial; tags pending entries and reader
    /// threads so stale readers cannot tear down a fresh connection.
    epoch: u64,
}

struct Shared {
    endpoint: Endpoint,
    config: NetConfig,
    conn: Mutex<ConnState>,
    pending: Mutex<HashMap<u64, PendingEntry>>,
    /// name → (pin id, operand): replayed, in pin-id order, on every
    /// reconnect before any other traffic.
    names: Mutex<HashMap<String, (u64, Arc<UBig>)>>,
    req_seq: AtomicU64,
    pin_seq: AtomicU64,
    dials: AtomicU64,
    closed: AtomicBool,
}

impl Shared {
    fn lock_conn(&self) -> MutexGuard<'_, ConnState> {
        self.conn.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pending(&self) -> MutexGuard<'_, HashMap<u64, PendingEntry>> {
        self.pending.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_names(&self) -> MutexGuard<'_, HashMap<String, (u64, Arc<UBig>)>> {
        self.names.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Dials the endpoint once, replays every pin, publishes the new
    /// write half and spawns the epoch's reader. Called under the conn
    /// lock (callers own the retry/backoff loop).
    fn dial(self: &Arc<Shared>, state: &mut ConnState) -> Result<(), NetError> {
        let conn = Conn::connect(&self.endpoint)?;
        conn.set_read_timeout(Some(self.config.read_poll))?;
        let mut write_half = conn.try_clone()?;
        // Re-register before anything else can use the connection: a
        // pinned submission racing onto a fresh connection must find its
        // pin already spoken for.
        let mut pins: Vec<(u64, Arc<UBig>)> = self.lock_names().values().cloned().collect();
        pins.sort_by_key(|(pin, _)| *pin);
        for (pin, value) in pins {
            let frame = Frame::Register {
                pin,
                operand: (*value).clone(),
            };
            write_all(&mut write_half, &frame.encode())?;
        }
        state.epoch += 1;
        let epoch = state.epoch;
        state.stream = Some(write_half);
        self.dials.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(self);
        thread::Builder::new()
            .name(format!("he-net-client-reader-{epoch}"))
            .spawn(move || run_reader(shared, conn, epoch))
            .map_err(NetError::Io)?;
        Ok(())
    }

    /// Sends one encoded frame, dialing (and re-dialing, with backoff)
    /// as needed. When `pending` is supplied, the entry is registered
    /// *before* the bytes leave — under the conn lock, so the reply
    /// cannot outrun it — and withdrawn again if the write fails.
    fn send(
        self: &Arc<Shared>,
        bytes: &[u8],
        mut pending: Option<(u64, PendingReply)>,
    ) -> Result<(), NetError> {
        let mut state = self.lock_conn();
        let mut dials_left = self.config.reconnect_attempts;
        loop {
            if self.closed.load(Ordering::Relaxed) {
                return Err(NetError::Closed);
            }
            if state.stream.is_none() {
                if dials_left == 0 {
                    return Err(NetError::Closed);
                }
                dials_left -= 1;
                if let Err(e) = self.dial(&mut state) {
                    if dials_left == 0 {
                        return Err(e);
                    }
                    thread::sleep(self.config.reconnect_backoff);
                    continue;
                }
            }
            let epoch = state.epoch;
            if let Some((req_id, reply)) = pending.take() {
                self.lock_pending().insert(
                    req_id,
                    PendingEntry {
                        epoch,
                        cancel_sent: false,
                        reply,
                    },
                );
                pending = Some((req_id, placeholder_reply()));
            }
            let stream = state.stream.as_mut().expect("dialed above");
            match write_all(stream, bytes) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    // Take the entry back for the retry; its sink must
                    // not die with this epoch. If the reader beat
                    // us to it the request was already answered — the
                    // write failure is moot, report success.
                    if let Some((req_id, _)) = &pending {
                        match self.lock_pending().remove(req_id) {
                            Some(entry) => pending = Some((*req_id, entry.reply)),
                            None => return Ok(()),
                        }
                    }
                    if let Some(dead) = state.stream.take() {
                        dead.shutdown();
                    }
                }
            }
        }
    }

    /// Sends on the live connection only — no dialing. For traffic that
    /// is meaningless on a fresh connection (cancels).
    fn send_if_connected(&self, bytes: &[u8]) {
        let mut state = self.lock_conn();
        if let Some(stream) = state.stream.as_mut() {
            if write_all(stream, bytes).is_err() {
                if let Some(dead) = state.stream.take() {
                    dead.shutdown();
                }
            }
        }
    }

    fn next_req_id(&self) -> u64 {
        self.req_seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// Stand-in used while a pending entry is parked in the map: `send`
/// swaps the real reply in and out around the write, and this value is
/// never resolved or observed.
fn placeholder_reply() -> PendingReply {
    let (tx, _rx) = mpsc::channel();
    PendingReply::Pong(tx)
}

fn write_all(stream: &mut Conn, bytes: &[u8]) -> Result<(), NetError> {
    use std::io::Write;
    stream.write_all(bytes)?;
    stream.flush()?;
    Ok(())
}

/// One connection epoch's reader: resolves pending entries from answer
/// frames, sweeps cancelled jobs on idle ticks, and on any
/// connection failure tears down **its own epoch** — closing the write
/// half and resolving the epoch's in-flight requests to
/// [`ServeError::Closed`] by dropping them.
fn run_reader(shared: Arc<Shared>, mut conn: Conn, epoch: u64) {
    loop {
        if shared.closed.load(Ordering::Relaxed) {
            break;
        }
        match read_frame(&mut conn, shared.config.max_frame_bytes) {
            Ok(ReadEvent::Frame(frame)) => dispatch(&shared, frame),
            Ok(ReadEvent::Tick) => sweep_cancels(&shared, epoch),
            Ok(ReadEvent::Eof) | Err(_) => break,
        }
    }
    conn.shutdown();
    let mut state = shared.lock_conn();
    if state.epoch == epoch {
        if let Some(dead) = state.stream.take() {
            dead.shutdown();
        }
    }
    drop(state);
    // Dropping the epoch's entries *is* the typed resolution: a sink
    // answers `Closed` from drop.
    shared
        .lock_pending()
        .retain(|_, entry| entry.epoch != epoch);
}

fn dispatch(shared: &Arc<Shared>, frame: Frame) {
    match frame {
        Frame::Product { req_id, value } => {
            if let Some(entry) = shared.lock_pending().remove(&req_id) {
                entry.reply.resolve(Ok(value));
            }
        }
        Frame::Failure { req_id, error } => {
            if let Some(entry) = shared.lock_pending().remove(&req_id) {
                entry.reply.resolve(Err(error.into_serve()));
            }
        }
        Frame::Stats { req_id, stats } => {
            if let Some(entry) = shared.lock_pending().remove(&req_id) {
                if let PendingReply::Stats(tx) = entry.reply {
                    let _ = tx.send(stats);
                }
            }
        }
        Frame::Pong { req_id } => {
            if let Some(entry) = shared.lock_pending().remove(&req_id) {
                if let PendingReply::Pong(tx) = entry.reply {
                    let _ = tx.send(());
                }
            }
        }
        // A server speaking client opcodes is broken; ignore the frame
        // (the failure mode is the server's, not ours to amplify).
        _ => {}
    }
}

/// Forwards the cancel flags raised since the last tick.
fn sweep_cancels(shared: &Arc<Shared>, epoch: u64) {
    let mut raised = Vec::new();
    {
        let mut pending = shared.lock_pending();
        for (req_id, entry) in pending.iter_mut() {
            if entry.epoch != epoch || entry.cancel_sent {
                continue;
            }
            if let PendingReply::Job(sink) = &entry.reply {
                if sink.is_cancelled() {
                    entry.cancel_sent = true;
                    raised.push(*req_id);
                }
            }
        }
    }
    for req_id in raised {
        shared.send_if_connected(&Frame::Cancel { req_id }.encode());
    }
}

/// A connection to a [`crate::NetServer`], speaking the
/// [`crate::wire`] protocol — the fleet's entire client surface, over a
/// socket.
///
/// `NetSession` implements [`Submitter`], so everything built on that
/// trait — [`he_accel::CompletionQueue`] reactors,
/// [`he_accel::ServedMultiplier`], every DGHV circuit — runs over the
/// wire unchanged. Its session surface mirrors
/// [`he_accel::ClientSession`]: [`NetSession::register`] pins an operand
/// on the far fleet (the operand's bytes cross the wire **once**;
/// subsequent [`NetSession::submit_with`] submissions reference it by
/// 8-byte id and resolve from the cards' pinned caches, visible in
/// [`ServeStats::pinned_hits`] through [`NetSession::stats`]).
///
/// Cloning shares the connection and the session (same pins, same
/// reconnect state).
#[derive(Clone)]
pub struct NetSession {
    shared: Arc<Shared>,
}

impl core::fmt::Debug for NetSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetSession")
            .field("endpoint", &self.shared.endpoint.to_string())
            .field("registered", &self.shared.lock_names().len())
            .finish()
    }
}

impl NetSession {
    /// Connects with default [`NetConfig`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the endpoint cannot be dialed.
    pub fn connect(endpoint: Endpoint) -> Result<NetSession, NetError> {
        NetSession::connect_with(endpoint, NetConfig::default())
    }

    /// Connects with explicit tunables, dialing eagerly so a bad
    /// endpoint fails here rather than on the first submission.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the endpoint cannot be dialed.
    pub fn connect_with(endpoint: Endpoint, config: NetConfig) -> Result<NetSession, NetError> {
        let shared = Arc::new(Shared {
            endpoint,
            config,
            conn: Mutex::new(ConnState {
                stream: None,
                epoch: 0,
            }),
            pending: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            req_seq: AtomicU64::new(0),
            pin_seq: AtomicU64::new(0),
            dials: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let mut state = shared.lock_conn();
        shared.dial(&mut state)?;
        drop(state);
        Ok(NetSession { shared })
    }

    /// Registers a recurring operand under a client-local name — the
    /// remote [`he_accel::ClientSession::register`]: the operand crosses
    /// the wire once, gets pinned in every far card's cache, and is
    /// **re-registered automatically** on every reconnect, before any
    /// other traffic.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the registration could not be delivered
    /// now; the registration is kept locally either way and replays on
    /// the next successful (re)connection.
    pub fn register(&self, name: impl Into<String>, operand: UBig) -> Result<(), NetError> {
        let pin = self.shared.pin_seq.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(operand);
        let previous = self
            .shared
            .lock_names()
            .insert(name.into(), (pin, Arc::clone(&value)));
        if let Some((old_pin, _)) = previous {
            self.shared
                .send_if_connected(&Frame::Unregister { pin: old_pin }.encode());
        }
        let frame = Frame::Register {
            pin,
            operand: (*value).clone(),
        };
        self.shared.send(&frame.encode(), None)
    }

    /// Releases a registration on both ends.
    pub fn unregister(&self, name: &str) {
        if let Some((pin, _)) = self.shared.lock_names().remove(name) {
            self.shared
                .send_if_connected(&Frame::Unregister { pin }.encode());
        }
    }

    /// Names currently registered on this session.
    pub fn registered(&self) -> usize {
        self.shared.lock_names().len()
    }

    fn pinned(&self, name: &str) -> (u64, Arc<UBig>) {
        let names = self.shared.lock_names();
        let (pin, value) = names
            .get(name)
            .unwrap_or_else(|| panic!("operand {name:?} is not registered on this session"));
        (*pin, Arc::clone(value))
    }

    /// A request multiplying the registered operand `name` by a fresh
    /// operand. On the wire the registered side is its 8-byte pin id.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered on this session.
    pub fn request_with(&self, name: &str, fresh: UBig) -> ProductRequest {
        let (pin, value) = self.pinned(name);
        ProductRequest::pinned_with(pin, value, fresh)
    }

    /// A request multiplying two registered operands — 16 bytes of
    /// operand traffic regardless of operand size.
    ///
    /// # Panics
    ///
    /// Panics if either name was never registered on this session.
    pub fn request_between(&self, a: &str, b: &str) -> ProductRequest {
        ProductRequest::pinned_pair(self.pinned(a), self.pinned(b))
    }

    /// Submits registered-operand × fresh (see
    /// [`he_accel::ClientSession::submit_with`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the connection is gone and could not
    /// be re-established within the reconnect budget.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered on this session.
    pub fn submit_with(&self, name: &str, fresh: UBig) -> Result<ProductTicket, SubmitError> {
        self.submit(self.request_with(name, fresh))
    }

    /// Submits the product of two registered operands.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the connection is gone and could not
    /// be re-established within the reconnect budget.
    ///
    /// # Panics
    ///
    /// Panics if either name was never registered on this session.
    pub fn submit_between(&self, a: &str, b: &str) -> Result<ProductTicket, SubmitError> {
        self.submit(self.request_between(a, b))
    }

    /// The far fleet's rolled-up [`ServeStats`] — one wire round trip.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the connection died before the answer,
    /// [`NetError::Timeout`] when the reply outran
    /// [`NetConfig::reply_timeout`].
    pub fn stats(&self) -> Result<ServeStats, NetError> {
        let req_id = self.shared.next_req_id();
        let (tx, rx) = mpsc::channel();
        let reply = PendingReply::Stats(tx);
        let frame = Frame::StatsRequest { req_id };
        self.shared.send(&frame.encode(), Some((req_id, reply)))?;
        self.await_reply(req_id, &rx)
    }

    /// Liveness probe: one round trip through the server's connection
    /// reactor.
    ///
    /// # Errors
    ///
    /// Same contract as [`NetSession::stats`].
    pub fn ping(&self) -> Result<(), NetError> {
        let req_id = self.shared.next_req_id();
        let (tx, rx) = mpsc::channel();
        let reply = PendingReply::Pong(tx);
        let frame = Frame::Ping { req_id };
        self.shared.send(&frame.encode(), Some((req_id, reply)))?;
        self.await_reply(req_id, &rx)
    }

    fn await_reply<T>(&self, req_id: u64, rx: &mpsc::Receiver<T>) -> Result<T, NetError> {
        match rx.recv_timeout(self.shared.config.reply_timeout) {
            Ok(value) => Ok(value),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.shared.lock_pending().remove(&req_id);
                Err(NetError::Timeout)
            }
        }
    }

    /// Times the connection was (re)dialed after the initial connect —
    /// the reconnect counter the chaos tests assert on.
    pub fn reconnects(&self) -> u64 {
        self.shared.dials.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Closes the session: in-flight requests resolve
    /// [`ServeError::Closed`], later submissions fail fast, and no
    /// reconnection is attempted.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        let mut state = self.shared.lock_conn();
        if let Some(stream) = state.stream.take() {
            stream.shutdown();
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Relaxed);
        let mut state = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = state.stream.take() {
            stream.shutdown();
        }
    }
}

/// The remote fleet as a [`Submitter`]. Unlike the in-process fleet
/// there is no bounded client-side queue, so `blocking` changes nothing:
/// backpressure is the socket's send buffer plus the server reactor's
/// blocking submission into its pool (the TCP window closes when the far
/// queue is full).
impl Submitter for NetSession {
    fn submit_sink(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
        _blocking: bool,
    ) -> Result<(), SubmitError> {
        let req_id = self.shared.next_req_id();
        let (pin_a, pin_b) = request.operand_pins();
        let (value_a, value_b) = request.operands();
        let wire = |pin: Option<u64>, value: &UBig| match pin {
            Some(pin) => WireOperand::Pinned(pin),
            None => WireOperand::Inline(value.clone()),
        };
        let deadline_nanos = request.deadline().map(|deadline| {
            let remaining = deadline.saturating_duration_since(Instant::now());
            remaining.as_nanos().min(u64::MAX as u128) as u64
        });
        let frame = Frame::Submit {
            req_id,
            a: wire(pin_a, value_a),
            b: wire(pin_b, value_b),
            deadline_nanos,
        };
        // A failed send drops the entry, and with it the sink — which
        // resolves `Closed`, same contract as the local pool.
        self.shared
            .send(&frame.encode(), Some((req_id, PendingReply::Job(sink))))
            .map_err(|_| SubmitError::Closed(request))
    }
}
