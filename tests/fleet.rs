//! End-to-end contract of the multi-card serving fleet (acceptance bar
//! of the fleet PR): an N-worker [`ServerPool`] must serve bit-identical
//! results to sequential evaluation and in submission order per
//! submitter, whatever mix of cards claims the runs; per-card
//! handle caches must stay correct under operand reuse across workers;
//! and handle provenance must pin the expected `HandleMismatch`/fallback
//! behavior when cards do **not** share a transform geometry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use he_accel::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic operand of up to `max_bits` bits.
fn arb_operand(max_bits: usize) -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..=max_bits / 8).prop_map(|b| UBig::from_le_bytes(&b))
}

/// `workers` cards, each computing `width` products at once — the most
/// one claim takes.
fn pool_of(workers: usize, bits: usize, width: usize) -> ServerPool {
    let engines: Vec<EvalEngine<SsaSoftware>> = (0..workers)
        .map(|_| EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap()).with_threads(width))
        .collect();
    ServerPool::spawn(
        engines,
        ServeConfig {
            // A handful of ~1 KiB entries, so evictions happen.
            cache_bytes: 8 << 10,
            ..ServeConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever mix of operands (repeats included — they exercise every
    /// card's digest cache — plus zeros) streams through cards of
    /// whatever width, 1, 2 or 3 of them, every ticket's product
    /// bit-equals the sequential multiply, in submission order per
    /// submitter.
    #[test]
    fn fleet_products_bit_equal_sequential_multiply(
        stream in proptest::collection::vec(arb_operand(1_200), 1..20),
        fixed in arb_operand(1_200),
        workers in 1usize..4,
        width in 1usize..5,
        reuse_fixed in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let backend = SsaSoftware::for_operand_bits(1_200).unwrap();
        let pool = pool_of(workers, 1_200, width);
        let tickets: Vec<ProductTicket> = stream
            .iter()
            .zip(&reuse_fixed)
            .map(|(b, &reuse)| {
                let a = if reuse { fixed.clone() } else { b.clone() };
                pool.submit(ProductRequest::new(a, b.clone())).expect("pool alive")
            })
            .collect();
        // Awaiting tickets in submission order is the per-submitter
        // ordering contract: each result matches its own request, no
        // matter which card ran it or how runs interleaved.
        for ((b, &reuse), ticket) in stream.iter().zip(&reuse_fixed).zip(tickets) {
            let a = if reuse { &fixed } else { b };
            let expected = backend.multiply(a, b).unwrap();
            prop_assert_eq!(ticket.wait().expect("served"), expected);
        }
        let stats = pool.shutdown();
        prop_assert_eq!(stats.per_worker.len(), workers);
        let total = stats.total();
        prop_assert_eq!(total.completed as usize, stream.len());
        prop_assert_eq!(total.failed + total.expired(), 0);
    }

    /// Same contract under EDF with deadlines generous enough that
    /// nothing expires: deadline-aware claiming must reorder *scheduling*
    /// only, never results.
    #[test]
    fn edf_claiming_never_reorders_results(
        stream in proptest::collection::vec(arb_operand(800), 1..16),
        workers in 1usize..3,
    ) {
        let backend = SsaSoftware::for_operand_bits(800).unwrap();
        let pool = pool_of(workers, 800, 2);
        let tickets: Vec<ProductTicket> = stream
            .iter()
            .map(|b| {
                pool.submit(
                    ProductRequest::new(b.clone(), b.clone())
                        .with_deadline(Duration::from_secs(60)),
                )
                .expect("pool alive")
            })
            .collect();
        for (b, ticket) in stream.iter().zip(tickets) {
            prop_assert_eq!(ticket.wait().expect("served"), backend.multiply(b, b).unwrap());
        }
        let stats = pool.shutdown().total();
        prop_assert_eq!(stats.expired(), 0);
    }
}

#[test]
fn recurring_operands_hit_every_cards_cache() {
    // A recurring operand flows through a 2-card fleet: both cards see it
    // repeatedly, so fleet-wide hits must dominate misses even though the
    // caches are private (each card pays at most one preparation for it).
    let pool = pool_of(2, 1_500, 2);
    let fixed = UBig::from(0xfeed_f00du64);
    let tickets: Vec<ProductTicket> = (0..32u64)
        .map(|k| {
            pool.submit(ProductRequest::new(fixed.clone(), UBig::from(k + 2)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (0..32u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k + 2));
    }
    let stats = pool.shutdown();
    let total = stats.total();
    assert_eq!(total.completed, 32);
    // 64 lookups fleet-wide. Every stream operand is a one-shot miss;
    // `fixed` misses at most three times however the cards split the
    // claims — its fleet-wide first sighting (not admitted), then one
    // preparation per card — and hits everywhere else.
    assert!(
        total.cache_hits >= 32 - 3,
        "recurring operand must ride the caches: {total:?}"
    );
    assert!(
        total.cache_misses <= 32 + 3,
        "each card prepares the recurring operand at most once: {total:?}"
    );
}

#[test]
fn handles_do_not_cross_cards_of_different_geometry() {
    // The provenance contract the fleet's per-card caches rely on,
    // pinned at the engine level: a handle prepared by a card of one
    // transform geometry is a typed `HandleMismatch` on a card of
    // another geometry — never a wrong product — while a same-geometry
    // twin accepts it (spectra of identical plans are interchangeable).
    let card_a = SsaSoftware::for_operand_bits(2_000).unwrap();
    let card_b = SsaSoftware::for_operand_bits(500_000).unwrap();
    let twin_a = SsaSoftware::for_operand_bits(2_000).unwrap();
    let x = UBig::from(0x1234_5678u64);
    let handle = card_a.prepare(&x).unwrap();
    let mut product = UBig::zero();
    let err = card_b
        .multiply_job_into(&ProductJob::OnePrepared(&handle, &x), &mut product)
        .unwrap_err();
    match err {
        MultiplyError::HandleMismatch { expected, found } => {
            assert_eq!(found, card_a.provenance());
            assert_eq!(expected, card_b.provenance());
            assert_eq!(found.backend(), expected.backend());
            assert_ne!(found.geometry(), expected.geometry());
        }
        other => panic!("expected HandleMismatch, got {other:?}"),
    }
    // Batch paths refuse the whole batch before running anything.
    assert!(matches!(
        EvalEngine::new(card_b).run(&[ProductJob::OnePrepared(&handle, &x)]),
        Err(MultiplyError::HandleMismatch { .. })
    ));
    // The same-geometry twin accepts the foreign handle bit-exactly.
    twin_a
        .multiply_job_into(&ProductJob::OnePrepared(&handle, &x), &mut product)
        .unwrap();
    assert_eq!(product, x.mul_schoolbook(&x));
}

#[test]
fn heterogeneous_fleet_serves_without_sharing_handles() {
    // Cards of different geometry behind one queue: jobs carry raw
    // operands (never handles), each card prepares its own spectra, so a
    // mixed fleet is correct by construction — the fallback behavior the
    // provenance stamps guarantee.
    let engines = vec![
        EvalEngine::new(SsaSoftware::for_operand_bits(1_000).unwrap()),
        EvalEngine::new(SsaSoftware::for_operand_bits(4_000).unwrap()),
    ];
    let pool = ServerPool::spawn(engines, ServeConfig::default());
    let backend = SsaSoftware::for_operand_bits(1_000).unwrap();
    let fixed = UBig::from(999_983u64);
    let tickets: Vec<ProductTicket> = (1..=24u64)
        .map(|k| {
            pool.submit(ProductRequest::new(fixed.clone(), UBig::from(k)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (1..=24u64).zip(tickets) {
        assert_eq!(
            ticket.wait().unwrap(),
            backend.multiply(&fixed, &UBig::from(k)).unwrap()
        );
    }
    let stats = pool.shutdown();
    assert_eq!(stats.total().completed, 24);
    assert_eq!(stats.total().failed, 0);
}

/// One of two sibling test cards sharing a flag. The doomed card raises
/// the flag and panics on its first product; the survivor holds its first
/// product until the flag is up. Whichever card claims first, the doomed
/// one is left a job to die on — the harness needs no claim race won.
#[derive(Debug)]
struct SiblingCard {
    doomed: bool,
    sibling_died: Arc<AtomicBool>,
}

impl he_accel::Multiplier for SiblingCard {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        if self.doomed {
            self.sibling_died.store(true, Ordering::Release);
            panic!("this card dies on its first product");
        }
        // A hang guard, not a timing assumption: the doomed card always
        // gets a job, so the flag comes up.
        let give_up = Instant::now() + Duration::from_secs(30);
        while !self.sibling_died.load(Ordering::Acquire) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(a.mul_schoolbook(b))
    }

    fn name(&self) -> &'static str {
        "sibling-card"
    }
}

#[test]
fn jobs_of_a_dead_card_fail_over_to_its_sibling() {
    // An unsupervised card dies mid-flush: retry-with-failover re-queues
    // its in-flight job, so the ticket resolves with the product on the
    // survivor instead of `Closed`, and health reports the loss.
    let sibling_died = Arc::new(AtomicBool::new(false));
    let card = |doomed| {
        EvalEngine::new(SiblingCard {
            doomed,
            sibling_died: Arc::clone(&sibling_died),
        })
    };
    let pool = ServerPool::spawn(
        vec![card(false).with_threads(1), card(true).with_threads(1)],
        ServeConfig {
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let a = UBig::from(1_000_003u64);
    let tickets: Vec<ProductTicket> = [3u64, 5]
        .iter()
        .map(|&k| {
            pool.submit(ProductRequest::new(a.clone(), UBig::from(k)))
                .unwrap()
        })
        .collect();
    for (k, mut ticket) in [3u64, 5].into_iter().zip(tickets) {
        match ticket.wait_timeout(Duration::from_secs(30)) {
            Some(Ok(product)) => assert_eq!(product, &a * &UBig::from(k)),
            other => panic!("expected the survivor to serve the job, got {other:?}"),
        }
    }
    // Later traffic runs on the survivor alone.
    let after = pool
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
        .unwrap();
    assert_eq!(after.wait().unwrap(), UBig::from(42u64));
    // A card is marked dead on its thread's way out, which may trail the
    // sibling's answers: wait for the mark (bounded) before shutting
    // down.
    let give_up = Instant::now() + Duration::from_secs(30);
    while pool.stats().health[1] != CardHealth::Dead && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    // `shutdown` collects stats without re-propagating the card's panic
    // and reports the dead card's health.
    let stats = pool.shutdown();
    assert_eq!(stats.health, vec![CardHealth::Live, CardHealth::Dead]);
    assert_eq!(stats.per_worker[0].completed, 3);
    assert_eq!(stats.per_worker[1].completed, 0);
    assert_eq!(
        stats.per_worker[1].retried, 1,
        "the dead card's job re-queued once"
    );
}

/// A card that reports each product's entry — its card index and its
/// right-hand operand as a `u64` — then holds the product until its own
/// gate hands it a permit. Dropping the gate's sender releases the card.
#[derive(Debug)]
struct GatedCard {
    index: usize,
    entered: mpsc::Sender<(usize, u64)>,
    permits: Mutex<mpsc::Receiver<()>>,
}

impl he_accel::Multiplier for GatedCard {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        let operand = b.as_limbs().first().copied().unwrap_or(0);
        let _ = self.entered.send((self.index, operand));
        let _ = self
            .permits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv();
        Ok(a.mul_schoolbook(b))
    }

    fn name(&self) -> &'static str {
        "gated-card"
    }
}

#[test]
fn a_backlog_is_shared_by_the_cards_that_free_up() {
    // Two one-wide cards are held on a job each while jobs 1–8 queue.
    // One card is let go for a single product: it claims one run and is
    // held again. The other card, once let go, must find a queued job of
    // its own rather than the whole backlog parked on its sibling.
    let (entered, entries) = mpsc::channel();
    let mut gates = Vec::new();
    let cards: Vec<EvalEngine<GatedCard>> = (0..2)
        .map(|index| {
            let (permit, gate) = mpsc::channel();
            gates.push(permit);
            let card = GatedCard {
                index,
                entered: entered.clone(),
                permits: Mutex::new(gate),
            };
            EvalEngine::new(card).with_threads(1)
        })
        .collect();
    let config = ServeConfig {
        cache_bytes: 0,
        ..ServeConfig::default()
    };
    let pool = ServerPool::spawn(cards, config);
    // Rebound after the pool so it drops first: a failing assertion
    // releases the cards before the pool's drop joins them.
    let gates = gates;
    // The bound only turns a hang into a failure; nothing is timed.
    let next_entry = || {
        entries
            .recv_timeout(Duration::from_secs(30))
            .expect("a product entered a card")
    };
    let a = UBig::from(1_000_003u64);
    let submit = |k: u64| {
        let ticket = pool.submit(ProductRequest::new(a.clone(), UBig::from(k)));
        (k, ticket.unwrap())
    };
    let mut tickets = vec![submit(100)];
    let (first, _) = next_entry();
    tickets.push(submit(101));
    let (second, _) = next_entry();
    assert_ne!(first, second, "each card holds one job");
    tickets.extend((1..=8).map(submit));
    gates[first].send(()).unwrap();
    assert_eq!(next_entry(), (first, 1));
    gates[second].send(()).unwrap();
    assert_eq!(next_entry(), (second, 2), "the backlog is not one card's");
    drop(gates);
    for (k, ticket) in tickets {
        assert_eq!(ticket.wait().unwrap(), &a * &UBig::from(k));
    }
    let stats = pool.shutdown();
    assert_eq!(stats.total().completed, 10);
    assert_eq!(stats.total().largest_flush, 1);
}

#[test]
fn fleet_splits_expiry_between_queue_and_flush() {
    // A zero deadline is hopeless before any card can act: it must be
    // counted against the queue, and its batch-mates must be unharmed.
    let pool = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(1_000).unwrap(),
        )],
        ServeConfig::default(),
    );
    let doomed = pool
        .submit(
            ProductRequest::new(UBig::from(11u64), UBig::from(13u64)).with_deadline(Duration::ZERO),
        )
        .unwrap();
    let fine = pool
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
        .unwrap();
    match doomed.wait() {
        Err(ServeError::Expired { missed_by }) => assert!(missed_by > Duration::ZERO),
        other => panic!("expected Expired, got {other:?}"),
    }
    assert_eq!(fine.wait().unwrap(), UBig::from(42u64));
    let stats = pool.shutdown().total();
    assert_eq!(stats.expired_in_queue, 1);
    assert_eq!(stats.expired_in_flush, 0);
    assert_eq!(stats.expired(), 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn dghv_circuits_ride_the_fleet() {
    use he_dghv::circuits::encrypt_number;
    use he_dghv::{CircuitEvaluator, DghvParams, KeyPair};

    let mut rng = StdRng::seed_from_u64(4016);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    let gamma = keys.public().params().gamma;
    let engines: Vec<EvalEngine<SsaSoftware>> = (0..2)
        .map(|_| EvalEngine::new(SsaSoftware::for_operand_bits(gamma as usize).unwrap()))
        .collect();
    let pool = ServerPool::spawn(engines, ServeConfig::default());
    // `ServedMultiplier` is generic over the submission surface: the same
    // adapter that wrapped a single server now fans circuit levels across
    // a fleet.
    let served = ServedMultiplier::new(&pool);
    let eval = CircuitEvaluator::new(keys.public(), &served);
    for value in [0b1111u64, 0b0111, 0b0000] {
        let bits = encrypt_number(keys.public(), value, 4, &mut rng);
        let tree = eval.and_tree(&bits).unwrap();
        assert_eq!(
            keys.secret().decrypt(&tree),
            value == 0b1111,
            "AND-tree of {value:#06b}"
        );
    }
    let stats = pool.shutdown();
    assert!(stats.total().completed > 0);
}
