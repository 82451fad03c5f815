//! End-to-end contract of the resident serving front (acceptance bar of
//! the serving PR): served results must bit-equal sequential
//! `multiply`, deadlines expire as typed errors without poisoning
//! run-mates, `try_submit` sheds when the bounded queue is
//! full, and DGHV circuit levels scheduled through [`ServedMultiplier`]
//! decrypt identically to a classical backend.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever mix of operands (including repeats, which exercise the
    /// digest cache, and zeros) streams through a card of whatever width,
    /// every ticket's product bit-equals the sequential multiply.
    #[test]
    fn served_products_bit_equal_sequential_multiply(
        stream in proptest::collection::vec(arb_operand(1_500), 1..24),
        fixed in arb_operand(1_500),
        width in 1usize..6,
        reuse_fixed in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let backend = SsaSoftware::for_operand_bits(1_500).unwrap();
        let server = ServerPool::spawn(
            vec![EvalEngine::new(backend.clone()).with_threads(width)],
            ServeConfig {
                // A handful of ~1 KiB entries, so evictions happen.
                cache_bytes: 8 << 10,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<ProductTicket> = stream
            .iter()
            .zip(&reuse_fixed)
            .map(|(b, &reuse)| {
                let a = if reuse { fixed.clone() } else { b.clone() };
                server.submit(ProductRequest::new(a, b.clone())).expect("server alive")
            })
            .collect();
        for ((b, &reuse), ticket) in stream.iter().zip(&reuse_fixed).zip(tickets) {
            let a = if reuse { &fixed } else { b };
            let expected = backend.multiply(a, b).unwrap();
            prop_assert_eq!(ticket.wait().expect("served"), expected);
        }
        let stats = server.shutdown().total();
        prop_assert_eq!(stats.completed as usize, stream.len());
        prop_assert_eq!(stats.failed + stats.expired(), 0);
    }
}

#[test]
fn deadline_expiry_is_typed_and_batch_mates_survive() {
    let server = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(1_000).unwrap(),
        )],
        ServeConfig::default(),
    );
    let doomed = server
        .submit(
            ProductRequest::new(UBig::from(11u64), UBig::from(13u64)).with_deadline(Duration::ZERO),
        )
        .unwrap();
    let survivors: Vec<ProductTicket> = (2..6u64)
        .map(|k| {
            server
                .submit(ProductRequest::new(UBig::from(k), UBig::from(k + 1)))
                .unwrap()
        })
        .collect();
    match doomed.wait() {
        Err(ServeError::Expired { missed_by }) => assert!(missed_by > Duration::ZERO),
        other => panic!("expected Expired, got {other:?}"),
    }
    for (k, ticket) in (2..6u64).zip(survivors) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * (k + 1)));
    }
    let stats = server.shutdown().total();
    assert_eq!(
        stats.expired_in_queue, 1,
        "a zero deadline expires in the queue"
    );
    assert_eq!(stats.expired_in_flush, 0);
    assert_eq!(stats.completed, 4);
}

/// A backend that blocks inside `multiply` until released, so tests can
/// hold the worker mid-flush and observe queue backpressure
/// deterministically.
#[derive(Debug)]
struct GatedBackend {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
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
fn try_submit_sheds_when_the_bounded_queue_is_full() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let backend = GatedBackend {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    };
    let server = ServerPool::spawn(
        vec![EvalEngine::new(backend)],
        ServeConfig {
            queue_capacity: 2,
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let first = server
        .submit(ProductRequest::new(UBig::from(2u64), UBig::from(3u64)))
        .unwrap();
    // The worker is now provably inside the first flush…
    entered_rx.recv().expect("worker entered multiply");
    // …so these two fill the bounded queue…
    let queued: Vec<ProductTicket> = (4..6u64)
        .map(|k| {
            server
                .submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                .unwrap()
        })
        .collect();
    // …and the next non-blocking submission must shed, handing the
    // request back.
    let overflow = ProductRequest::new(UBig::from(9u64), UBig::from(9u64));
    let rejected = match server.try_submit(overflow) {
        Err(SubmitError::Full(request)) => request,
        other => panic!("expected Full, got {other:?}"),
    };
    assert_eq!(rejected.operands(), (&UBig::from(9u64), &UBig::from(9u64)));
    // Release the gate for every in-flight product and let it all drain.
    for _ in 0..8 {
        let _ = release_tx.send(());
    }
    assert_eq!(first.wait().unwrap(), UBig::from(6u64));
    for (k, ticket) in (4..6u64).zip(queued) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
    }
    // The shed request retries successfully once there is room again.
    let _ = release_tx.send(());
    let retried = server.try_submit(rejected).expect("queue drained");
    assert_eq!(retried.wait().unwrap(), UBig::from(81u64));
    let stats = server.shutdown().total();
    // Shed load is accounted, not silently vanished: exactly the one
    // rejected try_submit above.
    assert_eq!(stats.shed, 1, "stats: {stats:?}");
    assert_eq!(stats.completed, 4);
}

#[test]
fn backlogged_jobs_still_ride_full_micro_batches() {
    // A free card claims at once, as many jobs as its engine computes
    // together: a four-wide card finding four jobs queued behind its
    // busy run takes them as one run, not as runs of one.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let backend = GatedBackend {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    };
    let server = ServerPool::spawn(
        vec![EvalEngine::new(backend).with_threads(4)],
        ServeConfig {
            queue_capacity: 8,
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let first = server
        .submit(ProductRequest::new(UBig::from(2u64), UBig::from(3u64)))
        .unwrap();
    // Hold the worker inside the first flush while a backlog builds up.
    entered_rx.recv().expect("worker entered multiply");
    let backlog: Vec<ProductTicket> = (4..8u64)
        .map(|k| {
            server
                .submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                .unwrap()
        })
        .collect();
    for _ in 0..16 {
        let _ = release_tx.send(());
    }
    assert_eq!(first.wait().unwrap(), UBig::from(6u64));
    for (k, ticket) in (4..8u64).zip(backlog) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
    }
    let stats = server.shutdown().total();
    assert_eq!(
        (stats.flushes, stats.largest_flush),
        (2, 4),
        "the 4-job backlog must run together"
    );
}

#[test]
fn circuit_levels_through_the_server_match_a_classical_backend() {
    use he_dghv::circuits::encrypt_number;
    use he_dghv::{CircuitEvaluator, DghvParams, KeyPair};

    let mut rng = StdRng::seed_from_u64(2016);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    let gamma = keys.public().params().gamma;
    let server = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(gamma as usize).unwrap(),
        )],
        ServeConfig::default(),
    );
    let served = ServedMultiplier::new(&server);
    let eval = CircuitEvaluator::new(keys.public(), &served);
    let classical = Karatsuba;
    let reference = CircuitEvaluator::new(keys.public(), &classical);

    // AND-tree over a whole vector: each level is submitted whole, so
    // whatever of it queues behind the busy card rides its next runs.
    for value in [0b1111u64, 0b1011, 0b0000] {
        let bits = encrypt_number(keys.public(), value, 4, &mut rng);
        let served_tree = eval.and_tree(&bits).unwrap();
        let reference_tree = reference.and_tree(&bits).unwrap();
        assert_eq!(
            keys.secret().decrypt(&served_tree),
            value == 0b1111,
            "AND-tree of {value:#06b}"
        );
        assert_eq!(served_tree.value(), reference_tree.value());
    }

    // Comparator sweep: the position-independent products are submitted
    // as one level.
    for (x, y) in [(3u64, 5u64), (5, 3), (4, 4)] {
        let ex = encrypt_number(keys.public(), x, 3, &mut rng);
        let ey = encrypt_number(keys.public(), y, 3, &mut rng);
        let lt = eval.less_than(&ex, &ey, &mut rng).unwrap();
        assert_eq!(keys.secret().decrypt(&lt), x < y, "{x} < {y}");
    }
    let stats = server.shutdown().total();
    assert!(stats.completed > 0);
    assert_eq!(stats.failed + stats.expired(), 0);
}

/// A serving front written against the public surface alone: it
/// implements the one required [`Submitter`] method — answering each job
/// on the spot with the schoolbook product, shedding when told it is
/// full — and nothing else.
struct InlineFront {
    full: bool,
}

impl Submitter for InlineFront {
    fn submit_sink(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        if self.full && !blocking {
            return Err(SubmitError::Full(request));
        }
        let (a, b) = request.operands();
        sink.complete(Ok(a.mul_schoolbook(b)));
        Ok(())
    }
}

#[test]
fn one_required_method_carries_every_submission_flavor() {
    let front = InlineFront { full: false };
    let request = |a: u64, b: u64| ProductRequest::new(UBig::from(a), UBig::from(b));

    // Tickets, blocking and not.
    assert_eq!(
        front.submit(request(6, 7)).unwrap().wait().unwrap(),
        UBig::from(42u64)
    );
    let mut polled = front.try_submit(request(3, 5)).unwrap();
    assert_eq!(polled.try_wait(), Some(Ok(UBig::from(15u64))));
    // Shedding hands the request back; blocking submission does not shed.
    let full = InlineFront { full: true };
    match full.try_submit(request(9, 9)) {
        Err(SubmitError::Full(rejected)) => {
            assert_eq!(rejected.operands(), (&UBig::from(9u64), &UBig::from(9u64)));
        }
        other => panic!("expected Full, got {other:?}"),
    }
    assert_eq!(
        full.submit(request(9, 9)).unwrap().wait().unwrap(),
        UBig::from(81u64)
    );

    // A completion queue, tags and all.
    let mut queue: CompletionQueue<'_, InlineFront, u64> = CompletionQueue::new(&front);
    for k in 2..6u64 {
        queue
            .submit_tagged(request(k, k), k)
            .map_err(|(e, _)| e)
            .unwrap();
    }
    match CompletionQueue::new(&full).try_submit_tagged(request(1, 1), "tag") {
        Err((SubmitError::Full(_), "tag")) => {}
        other => panic!("expected the tag back with Full, got {other:?}"),
    }
    assert_eq!(queue.in_flight(), 4);
    let done = queue.drain();
    assert_eq!(done.len(), 4);
    for completion in done {
        assert_eq!(
            completion.result.unwrap(),
            UBig::from(completion.tag * completion.tag)
        );
    }

    // The caller's own sinks.
    let (mint, receiver) = completion_channel();
    front.submit_into(request(2, 3), mint.sink(23)).unwrap();
    assert!(matches!(
        full.try_submit_into(request(2, 3), mint.sink(24)),
        Err(SubmitError::Full(_))
    ));
    assert_eq!(receiver.recv(), Some((23, Ok(UBig::from(6u64)))));
    // The refused sink was dropped unanswered: typed, not lost.
    assert_eq!(receiver.recv(), Some((24, Err(ServeError::Closed))));

    // A multiplier, one product or a whole batch.
    let served = ServedMultiplier::new(&front);
    let (x, y) = (UBig::from(11u64), UBig::from(13u64));
    assert_eq!(served.multiply(&x, &y).unwrap(), UBig::from(143u64));
    let mut products = vec![UBig::zero(); 2];
    served
        .multiply_batch_into(
            &[ProductJob::Raw(&x, &y), ProductJob::Raw(&y, &y)],
            &mut products,
        )
        .unwrap();
    assert_eq!(products, vec![UBig::from(143u64), UBig::from(169u64)]);
}

#[test]
fn a_closed_fleet_fails_dghv_products_instead_of_panicking() {
    use he_dghv::{DghvError, DghvParams, KeyPair};

    let mut rng = StdRng::seed_from_u64(2017);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    let gamma = keys.public().params().gamma;
    let server = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(gamma as usize).unwrap(),
        )],
        ServeConfig::default(),
    );
    let session = server.session();
    let served = ServedMultiplier::new(&session);
    let (a, b) = (
        keys.public().encrypt(true, &mut rng),
        keys.public().encrypt(true, &mut rng),
    );
    let product = keys.public().mul(&served, &a, &b).unwrap();
    assert!(keys.secret().decrypt(&product));

    server.shutdown();
    for result in [
        keys.public().mul(&served, &a, &b).map(|_| ()),
        keys.public().mul_pairs(&served, &[(&a, &b)]).map(|_| ()),
        keys.public()
            .mul_many(&served, &a, std::slice::from_ref(&b))
            .map(|_| ()),
    ] {
        match result {
            Err(DghvError::Multiply(MultiplyError::Device(_))) => {}
            other => panic!("expected a device error, got {other:?}"),
        }
    }
}
