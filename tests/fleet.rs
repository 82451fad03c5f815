//! End-to-end contract of the multi-card serving fleet (acceptance bar
//! of the fleet PR): an N-worker [`ServerPool`] must serve bit-identical
//! results to sequential evaluation and in submission order per
//! submitter, whatever mix of cards claims the micro-batches; per-card
//! handle caches must stay correct under operand reuse across workers;
//! and handle provenance must pin the expected `HandleMismatch`/fallback
//! behavior when cards do **not** share a transform geometry.

use std::time::Duration;

use he_accel::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic operand of up to `max_bits` bits.
fn arb_operand(max_bits: usize) -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..=max_bits / 8).prop_map(|b| UBig::from_le_bytes(&b))
}

fn pool_of(workers: usize, bits: usize, max_batch: usize) -> ServerPool {
    let engines: Vec<EvalEngine<SsaSoftware>> = (0..workers)
        .map(|_| EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap()))
        .collect();
    ServerPool::spawn(
        engines,
        ServeConfig {
            max_batch,
            // A handful of ~1 KiB entries, so evictions happen.
            cache_bytes: 8 << 10,
            ..ServeConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever mix of operands (repeats included — they exercise every
    /// card's digest cache — plus zeros) streams through whatever
    /// micro-batch shape on 1, 2 or 3 cards, every ticket's product
    /// bit-equals the sequential multiply, in submission order per
    /// submitter.
    #[test]
    fn fleet_products_bit_equal_sequential_multiply(
        stream in proptest::collection::vec(arb_operand(1_200), 1..20),
        fixed in arb_operand(1_200),
        workers in 1usize..4,
        max_batch in 1usize..5,
        reuse_fixed in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let backend = SsaSoftware::for_operand_bits(1_200).unwrap();
        let pool = pool_of(workers, 1_200, max_batch);
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
        // matter which card ran it or how flushes interleaved.
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

    /// A two-geometry fleet under [`RoutePolicy::BySize`]: whatever mix
    /// of small and oversized operands streams through, every job lands
    /// on a card whose transform fits it — zero capacity failures, zero
    /// `HandleMismatch` fallbacks, bit-exact results. (Under the Shared
    /// default the small card could claim — and fail — a job only its
    /// bigger sibling can run.)
    #[test]
    fn by_size_routing_serves_mixed_sizes_without_failures(
        jobs in proptest::collection::vec((arb_operand(6_000), any::<bool>()), 1..20),
        max_batch in 1usize..4,
    ) {
        let small = SsaSoftware::for_operand_bits(1_000).unwrap();
        let large = SsaSoftware::for_operand_bits(8_000).unwrap();
        let reference = large.clone();
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(small), EvalEngine::new(large)],
            ServeConfig {
                max_batch,
                route: RoutePolicy::BySize,
                cache_bytes: 8 << 10,
                ..ServeConfig::default()
            },
        );
        // `true` squares the (possibly multi-thousand-bit) operand;
        // `false` keeps the job small enough for either card.
        let tickets: Vec<ProductTicket> = jobs
            .iter()
            .map(|(b, big)| {
                let a = if *big { b.clone() } else { UBig::from(3u64) };
                pool.submit(ProductRequest::new(a, b.clone())).expect("pool alive")
            })
            .collect();
        for ((b, big), ticket) in jobs.iter().zip(tickets) {
            let a = if *big { b.clone() } else { UBig::from(3u64) };
            let expected = reference.multiply(&a, b).unwrap();
            prop_assert_eq!(ticket.wait().expect("routed to a fitting card"), expected);
        }
        let stats = pool.shutdown();
        let total = stats.total();
        prop_assert_eq!(total.completed as usize, jobs.len());
        // The acceptance bar: by-size routing never hands a job to a
        // card that cannot run it.
        prop_assert_eq!(total.failed, 0);
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
    // 64 lookups fleet-wide; `fixed` costs at most one miss per card.
    assert!(
        total.cache_hits >= 30,
        "recurring operand must ride the caches: {total:?}"
    );
    let fixed_misses: u64 = total.cache_misses;
    assert!(
        fixed_misses <= 32 + 2,
        "each card prepares the recurring operand at most once: {total:?}"
    );
}

#[test]
fn handles_do_not_cross_cards_of_different_geometry() {
    // The provenance contract the fleet's per-card caches rely on,
    // pinned at the engine level: a handle prepared by a card of one
    // transform geometry is a typed `HandleMismatch` on a card of
    // another geometry — never a wrong product — while a same-geometry
    // twin accepts it (spectra of identical plans are interchangeable,
    // which is also why a fleet of identical cards may share a
    // speculative store).
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
    let pool = ServerPool::spawn(
        engines,
        ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        },
    );
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

/// A test card with an advertised capacity that can be told to die on
/// its first product — the dead-card routing harness.
#[derive(Debug)]
struct SizedCard {
    cap: usize,
    dies: bool,
}

impl he_accel::Multiplier for SizedCard {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        assert!(!self.dies, "this card dies on its first product");
        Ok(a.mul_schoolbook(b))
    }

    fn name(&self) -> &'static str {
        "sized-card"
    }

    fn operand_capacity_bits(&self) -> Option<usize> {
        Some(self.cap)
    }
}

#[test]
fn by_size_jobs_for_a_dead_card_fail_over_to_survivors() {
    // Routing must track card *liveness*: once the only card that fits a
    // big job dies, survivors — too small on paper — must claim it
    // anyway so its ticket resolves (here the small card's schoolbook
    // happily runs it; a real sized backend would fail it fast with its
    // typed error). Without liveness tracking the job would sit
    // unclaimable forever behind an open queue.
    let pool = ServerPool::spawn(
        vec![
            EvalEngine::new(SizedCard {
                cap: 1_000,
                dies: false,
            }),
            EvalEngine::new(SizedCard {
                cap: 1_000_000,
                dies: true,
            }),
        ],
        ServeConfig {
            max_batch: 1,
            route: RoutePolicy::BySize,
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    let big = UBig::pow2(5_000);
    // Only the big card fits this; it dies claiming it. Retry-with-
    // failover re-queues the in-flight job, so even the flush that
    // killed its card resolves on the survivor instead of `Closed`.
    let mut doomed = pool
        .submit(ProductRequest::new(big.clone(), UBig::from(3u64)))
        .unwrap();
    match doomed.wait_timeout(Duration::from_secs(30)) {
        Some(Ok(product)) => assert_eq!(product, &big * &UBig::from(3u64)),
        other => panic!("expected failover to serve the doomed job, got {other:?}"),
    }
    // The next big job must fail over to the surviving small card and
    // resolve — bounded, not hanging.
    let mut failover = pool
        .submit(ProductRequest::new(big.clone(), UBig::from(5u64)))
        .unwrap();
    match failover.wait_timeout(Duration::from_secs(30)) {
        Some(Ok(product)) => assert_eq!(product, &big * &UBig::from(5u64)),
        other => panic!("expected the survivor to serve the job, got {other:?}"),
    }
    // Small traffic is untouched throughout.
    let small = pool
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
        .unwrap();
    assert_eq!(small.wait().unwrap(), UBig::from(42u64));
    // `shutdown` collects stats without re-propagating the card's panic
    // and reports the dead card's health.
    let stats = pool.shutdown();
    assert_eq!(stats.health[0], CardHealth::Live);
    assert_eq!(stats.health[1], CardHealth::Dead);
}

#[test]
fn speculative_fleet_stays_bit_exact() {
    // The speculative preparer races the cards for preparation work;
    // whatever it wins must change timing only, never results.
    let mut rng = StdRng::seed_from_u64(77);
    let bits = 1_500;
    let backend = SsaSoftware::for_operand_bits(bits).unwrap();
    let pool = ServerPool::spawn_speculative(
        vec![EvalEngine::new(backend.clone())],
        EvalEngine::new(backend.clone()),
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let fixed = UBig::random_bits(&mut rng, bits);
    let streams: Vec<UBig> = (0..40).map(|_| UBig::random_bits(&mut rng, bits)).collect();
    let tickets: Vec<ProductTicket> = streams
        .iter()
        .map(|b| {
            pool.submit(ProductRequest::new(fixed.clone(), b.clone()))
                .unwrap()
        })
        .collect();
    for (b, ticket) in streams.iter().zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), backend.multiply(&fixed, b).unwrap());
    }
    let stats = pool.shutdown();
    assert_eq!(stats.total().completed, 40);
    assert_eq!(stats.total().failed + stats.total().expired(), 0);
}

#[test]
fn fleet_splits_expiry_between_queue_and_flush() {
    // A zero deadline is hopeless before any card can act: it must be
    // counted against the queue, and its batch-mates must be unharmed —
    // on every policy.
    for policy in [FlushPolicy::Edf, FlushPolicy::Fifo] {
        let pool = ServerPool::spawn(
            vec![EvalEngine::new(
                SsaSoftware::for_operand_bits(1_000).unwrap(),
            )],
            ServeConfig {
                max_batch: 8,
                policy,
                ..ServeConfig::default()
            },
        );
        let doomed = pool
            .submit(
                ProductRequest::new(UBig::from(11u64), UBig::from(13u64))
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        let fine = pool
            .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
            .unwrap();
        match doomed.wait() {
            Err(ServeError::Expired { missed_by }) => assert!(missed_by > Duration::ZERO),
            other => panic!("expected Expired under {policy:?}, got {other:?}"),
        }
        assert_eq!(fine.wait().unwrap(), UBig::from(42u64));
        let stats = pool.shutdown().total();
        assert_eq!(stats.expired_in_queue, 1, "{policy:?}");
        assert_eq!(stats.expired_in_flush, 0, "{policy:?}");
        assert_eq!(stats.expired(), 1, "{policy:?}");
        assert_eq!(stats.completed, 1, "{policy:?}");
    }
}

#[test]
fn dghv_circuits_ride_the_fleet() {
    use he_accel::dghv::circuits::encrypt_number;
    use he_accel::dghv::{CircuitEvaluator, DghvParams};

    let mut rng = StdRng::seed_from_u64(4016);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    let gamma = keys.public().params().gamma;
    let engines: Vec<EvalEngine<SsaSoftware>> = (0..2)
        .map(|_| EvalEngine::new(SsaSoftware::for_operand_bits(gamma as usize).unwrap()))
        .collect();
    let pool = ServerPool::spawn(
        engines,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
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
