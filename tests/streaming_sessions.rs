//! End-to-end contract of the streaming client surface (acceptance bar
//! of the sessions PR): tickets resolve through every wait flavor and
//! never hang on a dead fleet; cancellation and dropped tickets neither
//! stall flushes nor leak queue slots; a single-threaded
//! [`CompletionQueue`] drains tagged completions bit-exactly; and
//! [`ClientSession`]-registered operands serve hash-free through the
//! pinned path, including under DGHV circuit evaluation.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use he_accel::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic operand of up to `max_bits` bits.
fn arb_operand(max_bits: usize) -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..=max_bits / 8).prop_map(|b| UBig::from_le_bytes(&b))
}

/// A one-card fleet whose card computes `width` products at once — the
/// most one claim takes.
fn small_server(width: usize, bits: usize) -> ServerPool {
    ServerPool::spawn(
        vec![EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap()).with_threads(width)],
        ServeConfig::default(),
    )
}

/// A backend that blocks inside its first product until released, then
/// panics — the worker-death regression harness. The gate makes the
/// death deterministic: the test holds the worker mid-flush, queues more
/// jobs behind it, and only then lets the card die.
#[derive(Debug)]
struct DyingBackend {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl DyingBackend {
    fn new() -> (DyingBackend, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        (
            DyingBackend {
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            },
            entered_rx,
            release_tx,
        )
    }
}

impl Multiplier for DyingBackend {
    fn multiply(&self, _a: &UBig, _b: &UBig) -> Result<UBig, MultiplyError> {
        let _ = self
            .entered
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(());
        let _ = self
            .release
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv();
        panic!("card died mid-flush");
    }

    fn name(&self) -> &'static str {
        "dying"
    }
}

/// A backend that blocks inside `multiply` until released, so tests can
/// hold the worker mid-flush deterministically.
#[derive(Debug)]
struct GatedBackend {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl GatedBackend {
    fn new() -> (GatedBackend, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        (
            GatedBackend {
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            },
            entered_rx,
            release_tx,
        )
    }
}

impl Multiplier for GatedBackend {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        let _ = self
            .entered
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(());
        let _ = self
            .release
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv();
        Ok(a.mul_schoolbook(b))
    }

    fn name(&self) -> &'static str {
        "gated-schoolbook"
    }
}

#[test]
fn dead_fleet_resolves_every_wait_flavor_to_closed() {
    // The regression this pins: a ticket whose worker panicked — or
    // whose job was still queued when the last worker died — must
    // resolve to a typed `ServeError`, never hang. The gate sequences it
    // deterministically: job 0 is mid-flush when jobs 1 and 2 enqueue,
    // then the card dies — job 0's sender drops in the unwind, jobs 1
    // and 2 are orphaned in the queue and dropped by the dying card.
    let (backend, entered_rx, release_tx) = DyingBackend::new();
    let server = ServerPool::spawn(
        vec![EvalEngine::new(backend)],
        ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let first = server
        .submit(ProductRequest::new(UBig::from(2u64), UBig::from(3u64)))
        .expect("server alive");
    entered_rx.recv().expect("worker entered multiply");
    let tickets: Vec<ProductTicket> = std::iter::once(first)
        .chain((0..2u64).map(|k| {
            server
                .submit(ProductRequest::new(UBig::from(k + 3), UBig::from(k + 4)))
                .expect("worker is held mid-flush, the queue is open")
        }))
        .collect();
    release_tx.send(()).expect("worker holds the gate");
    let mut tickets = tickets.into_iter();

    // Blocking wait: resolves (bounded by the test harness timeout, not
    // by luck — the panicking flush drops its jobs' senders and the
    // dying worker clears the rest of the queue).
    let waited = tickets.next().unwrap();
    assert!(matches!(waited.wait(), Err(ServeError::Closed)));

    // Bounded wait: resolves well inside the timeout instead of running
    // it out.
    let mut timed = tickets.next().unwrap();
    match timed.wait_timeout(Duration::from_secs(30)) {
        Some(Err(ServeError::Closed)) => {}
        other => panic!("expected Closed within the timeout, got {other:?}"),
    }

    // Polling wait: resolves within a bounded number of polls.
    let mut polled = tickets.next().unwrap();
    let mut outcome = None;
    for _ in 0..3_000 {
        if let Some(resolved) = polled.try_wait() {
            outcome = Some(resolved);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    match outcome {
        Some(Err(ServeError::Closed)) => {}
        other => panic!("expected Closed from polling, got {other:?}"),
    }

    // The dead fleet refuses new work instead of accepting jobs nobody
    // will run.
    match server.try_submit(ProductRequest::new(UBig::from(5u64), UBig::from(7u64))) {
        Err(SubmitError::Closed(_)) => {}
        other => panic!("expected Closed, got {other:?}"),
    }
    // Not `shutdown()` — that would propagate the worker panic by
    // design; dropping the handle reaps the worker quietly.
    drop(server);
}

#[test]
fn completion_queue_resolves_to_closed_on_a_dead_fleet() {
    let (backend, entered_rx, release_tx) = DyingBackend::new();
    let server = ServerPool::spawn(
        vec![EvalEngine::new(backend)],
        ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let mut queue = CompletionQueue::new(&server);
    queue
        .submit_tagged(
            ProductRequest::new(UBig::from(2u64), UBig::from(2u64)),
            0u64,
        )
        .map_err(|(e, _)| e)
        .expect("server alive");
    entered_rx.recv().expect("worker entered multiply");
    for k in 1..4u64 {
        queue
            .submit_tagged(ProductRequest::new(UBig::from(k + 2), UBig::from(k + 2)), k)
            .map_err(|(e, _)| e)
            .expect("worker is held mid-flush, the queue is open");
    }
    release_tx.send(()).expect("worker holds the gate");
    // Every tagged submission resolves — to Closed, since the fleet
    // died — and the drain terminates.
    let done = queue.drain();
    assert_eq!(done.len(), 4);
    let mut tags: Vec<u64> = done
        .iter()
        .map(|c| {
            assert!(matches!(c.result, Err(ServeError::Closed)), "{c:?}");
            c.tag
        })
        .collect();
    tags.sort_unstable();
    assert_eq!(tags, vec![0, 1, 2, 3]);
    drop(server);
}

#[test]
fn wait_timeout_returns_none_while_the_job_is_held() {
    let (backend, entered_rx, release_tx) = GatedBackend::new();
    let server = ServerPool::spawn(
        vec![EvalEngine::new(backend)],
        ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let mut ticket = server
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(9u64)))
        .unwrap();
    entered_rx.recv().expect("worker entered multiply");
    // The worker is provably mid-product: the bounded wait must time
    // out (and the poll see nothing) without consuming the ticket.
    assert!(ticket.wait_timeout(Duration::from_millis(20)).is_none());
    assert!(ticket.try_wait().is_none());
    release_tx.send(()).unwrap();
    assert_eq!(ticket.wait().unwrap(), UBig::from(54u64));
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever mix of waited, dropped and cancelled tickets flows
    /// through a card of whatever width, the waited jobs bit-equal the
    /// sequential multiply, every job is accounted for exactly once
    /// (completed or cancelled, nothing lost, nothing stalled), and
    /// dropped tickets leak no queue slot — the stream is several times
    /// the queue capacity, so a leaked slot would deadlock submission.
    #[test]
    fn cancelled_and_dropped_tickets_never_stall_or_leak(
        stream in proptest::collection::vec((arb_operand(1_200), 0u8..3), 1..24),
        width in 1usize..5,
    ) {
        let backend = SsaSoftware::for_operand_bits(1_200).unwrap();
        let server = ServerPool::spawn(
            vec![EvalEngine::new(backend.clone()).with_threads(width)],
            ServeConfig {
                queue_capacity: 4,
                cache_bytes: 8 << 10,
                ..ServeConfig::default()
            },
        );
        let mut waited: Vec<(UBig, ProductTicket)> = Vec::new();
        let mut cancel_requested = 0u64;
        for (b, action) in &stream {
            let ticket = server
                .submit(ProductRequest::new(b.clone(), b.clone()))
                .expect("server alive");
            match action {
                0 => waited.push((b.clone(), ticket)),
                1 => drop(ticket),
                _ => {
                    ticket.cancel();
                    cancel_requested += 1;
                }
            }
        }
        for (b, ticket) in waited {
            let expected = backend.multiply(&b, &b).unwrap();
            prop_assert_eq!(ticket.wait().expect("served"), expected);
        }
        let stats = server.shutdown().total();
        // A cancel either landed before its claim (cancelled) or lost
        // the race and ran (completed); nothing vanishes either way.
        prop_assert_eq!(stats.completed + stats.cancelled, stream.len() as u64);
        prop_assert!(stats.cancelled <= cancel_requested);
        prop_assert_eq!(stats.failed + stats.expired(), 0);
    }

    /// A single-threaded CompletionQueue reactor over a bounded window
    /// serves the whole stream bit-exactly, whatever the card width,
    /// with tags mapping every completion back to its request.
    #[test]
    fn completion_queue_reactor_is_bit_exact(
        stream in proptest::collection::vec(arb_operand(1_200), 1..24),
        fixed in arb_operand(1_200),
        width in 1usize..5,
        window in 1usize..6,
    ) {
        let backend = SsaSoftware::for_operand_bits(1_200).unwrap();
        let server = small_server(width, 1_200);
        let mut queue: CompletionQueue<'_, ServerPool, usize> = CompletionQueue::new(&server);
        let mut next = 0usize;
        let mut served = 0usize;
        while next < stream.len() && queue.in_flight() < window {
            queue
                .submit_tagged(
                    ProductRequest::new(fixed.clone(), stream[next].clone()),
                    next,
                )
                .map_err(|(e, _)| e)
                .expect("server alive");
            next += 1;
        }
        while let Some(done) = queue.recv() {
            let expected = backend.multiply(&fixed, &stream[done.tag]).unwrap();
            prop_assert_eq!(done.result.expect("served"), expected);
            served += 1;
            if next < stream.len() {
                queue
                    .submit_tagged(
                        ProductRequest::new(fixed.clone(), stream[next].clone()),
                        next,
                    )
                    .map_err(|(e, _)| e)
                    .expect("server alive");
                next += 1;
            }
        }
        prop_assert_eq!(served, stream.len());
        prop_assert_eq!(queue.in_flight(), 0);
        let stats = server.shutdown().total();
        prop_assert_eq!(stats.completed as usize, stream.len());
    }

    /// Streams against a session-registered operand bit-equal the
    /// sequential multiply, and the registered side resolves through the
    /// pinned path (hash-free) on every flush after its preparation.
    #[test]
    fn session_streams_are_bit_exact_and_pin_resolved(
        stream in proptest::collection::vec(arb_operand(1_200), 2..20),
        fixed in arb_operand(1_200),
        width in 1usize..5,
    ) {
        let backend = SsaSoftware::for_operand_bits(1_200).unwrap();
        let server = small_server(width, 1_200);
        let mut session = server.session();
        session.register("acc", fixed.clone());
        let tickets: Vec<ProductTicket> = stream
            .iter()
            .map(|b| session.submit_with("acc", b.clone()).expect("server alive"))
            .collect();
        for (b, ticket) in stream.iter().zip(tickets) {
            let expected = backend.multiply(&fixed, b).unwrap();
            prop_assert_eq!(ticket.wait().expect("served"), expected);
        }
        let stats = server.shutdown().total();
        prop_assert_eq!(stats.completed as usize, stream.len());
        // Every sighting after the pin's preparation is a pinned hit —
        // at least stream.len() - 1 of them, however flushes split.
        prop_assert!(stats.pinned_hits >= stream.len() as u64 - 1);
    }
}

#[test]
fn both_pinned_products_reach_the_both_cached_rung_without_hashing() {
    let server = small_server(4, 2_000);
    let mut session = server.session();
    let (a, b) = (UBig::from(999_983u64), UBig::from(1_000_003u64));
    session.register("a", a.clone());
    session.register("b", b.clone());
    let tickets: Vec<ProductTicket> = (0..6)
        .map(|_| session.submit_between("a", "b").unwrap())
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap(), &a * &b);
    }
    let stats = server.shutdown().total();
    assert_eq!(stats.completed, 6);
    // Twelve operand sightings, two lazy preparations, zero digest
    // traffic: the digest cache never saw these jobs at all.
    assert!(stats.pinned_hits >= 10, "stats: {stats:?}");
    assert_eq!(stats.cache_hits + stats.cache_misses, 0, "stats: {stats:?}");
}

#[test]
fn pin_store_eviction_stays_correct_under_register_churn() {
    // More pins than the per-card budget (cache_bytes) holds: the store
    // evicts least-recently-used pins and lazily re-prepares them on
    // their next flush — products stay bit-exact throughout, and memory
    // stays bounded by construction.
    let server = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(2_000).unwrap(),
        )],
        ServeConfig {
            // Two of the four pins: a 2 KiB spectrum and one limb each.
            cache_bytes: 2 * (2_048 + 8),
            ..ServeConfig::default()
        },
    );
    let mut session = server.session();
    let operands: Vec<UBig> = (0..4u64).map(|k| UBig::from(1_000_003 + k)).collect();
    for (k, op) in operands.iter().enumerate() {
        session.register(format!("op{k}"), op.clone());
    }
    for round in 0..3u64 {
        for (k, op) in operands.iter().enumerate() {
            let ticket = session
                .submit_with(&format!("op{k}"), UBig::from(round * 7 + 3))
                .unwrap();
            assert_eq!(ticket.wait().unwrap(), op * &UBig::from(round * 7 + 3));
        }
    }
    let stats = server.shutdown().total();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.failed + stats.expired(), 0);
}

#[test]
fn dghv_circuits_ride_a_client_session() {
    use he_dghv::circuits::encrypt_number;
    use he_dghv::{CircuitEvaluator, DghvParams, KeyPair};

    let mut rng = StdRng::seed_from_u64(5016);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    let gamma = keys.public().params().gamma;
    let server = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(gamma as usize).unwrap(),
        )],
        ServeConfig::default(),
    );
    // `Submitter` is the single abstraction: the DGHV adapter rides a
    // session exactly as it rides a server or a pool.
    let session = server.session();
    let served = ServedMultiplier::new(&session);
    let eval = CircuitEvaluator::new(keys.public(), &served);
    for value in [0b111u64, 0b101, 0b000] {
        let bits = encrypt_number(keys.public(), value, 3, &mut rng);
        let tree = eval.and_tree(&bits).unwrap();
        assert_eq!(
            keys.secret().decrypt(&tree),
            value == 0b111,
            "AND-tree of {value:#05b}"
        );
    }
    let stats = server.shutdown().total();
    assert!(stats.completed > 0);
}

#[test]
fn sessions_outlive_their_pool_gracefully() {
    let server = small_server(4, 2_000);
    let mut session = server.session();
    session.register("k", UBig::from(17u64));
    assert_eq!(
        session
            .submit_with("k", UBig::from(3u64))
            .unwrap()
            .wait()
            .unwrap(),
        UBig::from(51u64)
    );
    server.shutdown();
    // The pool is gone; the session reports it instead of panicking or
    // hanging.
    match session.submit_with("k", UBig::from(5u64)) {
        Err(SubmitError::Closed(_)) => {}
        other => panic!("expected Closed, got {other:?}"),
    }
}
