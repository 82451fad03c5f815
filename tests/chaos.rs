//! Chaos contract of the self-healing fleet (acceptance bar of the
//! supervision PR): under seeded random fault plans — injected card
//! deaths, transient device errors, stalls, poison operands — every
//! ticket and every [`CompletionQueue`] sink resolves (no hangs), every
//! completed product stays bit-exact against the fault-free ground
//! truth, the stats ledger accounts for every job exactly once, and a
//! dead-then-restarted card serves its session-pinned operands again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use he_accel::fault::{FaultPlan, FaultyMultiplier};
use he_accel::prelude::*;
use proptest::prelude::*;

/// A deterministic operand of up to `max_bits` bits.
fn arb_operand(max_bits: usize) -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..=max_bits / 8).prop_map(|b| UBig::from_le_bytes(&b))
}

/// A supervised 2-card pool where card 0 runs `plan` and card 1 is
/// healthy — the restart factory rebuilds whichever dies.
fn chaotic_pool(plan: FaultPlan, config: ServeConfig) -> ServerPool {
    ServerPool::with_backend_factory(
        2,
        move |card| {
            let plan = if card == 0 {
                plan.clone()
            } else {
                FaultPlan::new(plan.seed())
            };
            EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(1_000).unwrap(),
                plan,
            ))
        },
        config,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever seeded fault schedule card 0 runs — panics, transient
    /// errors, stalls, any mix — every ticket resolves within a bounded
    /// wait, completed products bit-equal the fault-free multiply, and
    /// the stats ledger conserves jobs.
    #[test]
    fn every_ticket_resolves_bit_exact_under_seeded_faults(
        stream in proptest::collection::vec(arb_operand(1_000), 1..14),
        seed in any::<u64>(),
        panic_every in 0u64..5,
        error_every in 0u64..4,
        stall_every in 0u64..3,
        max_batch in 1usize..4,
    ) {
        let plan = FaultPlan::new(seed)
            .panic_every(panic_every)
            .error_every(error_every)
            .stall_every(stall_every, Duration::from_millis(1));
        let pool = chaotic_pool(plan, ServeConfig {
            max_batch,
            retry_limit: 3,
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let tickets: Vec<(UBig, ProductTicket)> = stream
            .iter()
            .map(|b| {
                let ticket = pool
                    .submit(ProductRequest::new(b.clone(), b.clone()))
                    .expect("supervised intake stays open");
                (b.clone(), ticket)
            })
            .collect();
        for (b, mut ticket) in tickets {
            // Bounded, not `wait()`: a hang fails the test instead of
            // stalling the suite.
            match ticket.wait_timeout(Duration::from_secs(60)) {
                Some(Ok(product)) => prop_assert_eq!(product, &b * &b),
                // A job may exhaust its retry budget against the faulty
                // card — a typed answer, never a hang, never `Closed`
                // (the supervised fleet does not die).
                Some(Err(ServeError::Multiply(MultiplyError::Device(_))))
                | Some(Err(ServeError::Poisoned { .. })) => {}
                other => panic!("unexpected resolution {other:?}"),
            }
        }
        let stats = pool.shutdown();
        let total = stats.total();
        prop_assert_eq!(
            total.completed + total.failed + total.poisoned,
            stream.len() as u64,
            "ledger must conserve jobs: {:?}",
            total
        );
        // The healthy card, at least, must finish Live.
        prop_assert!(stats.health.contains(&CardHealth::Live), "{:?}", stats.health);
    }

    /// A single-threaded CompletionQueue reactor over the same chaotic
    /// fleet: the drain terminates with every tag accounted for and
    /// every successful completion bit-exact.
    #[test]
    fn completion_queue_drains_fully_under_seeded_faults(
        stream in proptest::collection::vec(arb_operand(1_000), 1..10),
        seed in any::<u64>(),
        panic_every in 0u64..4,
        error_every in 0u64..4,
    ) {
        let plan = FaultPlan::new(seed)
            .panic_every(panic_every)
            .error_every(error_every);
        let pool = chaotic_pool(plan, ServeConfig {
            max_batch: 2,
            retry_limit: 3,
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        });
        let mut queue: CompletionQueue<'_, ServerPool, usize> = CompletionQueue::new(&pool);
        for (k, b) in stream.iter().enumerate() {
            queue
                .submit_tagged(ProductRequest::new(b.clone(), b.clone()), k)
                .map_err(|(e, _)| e)
                .expect("supervised intake stays open");
        }
        let done = queue.drain();
        prop_assert_eq!(done.len(), stream.len(), "every sink resolves");
        let mut tags: Vec<usize> = done
            .iter()
            .map(|c| {
                if let Ok(product) = &c.result {
                    let b = &stream[c.tag];
                    prop_assert_eq!(product, &(b * b));
                }
                Ok(c.tag)
            })
            .collect::<Result<_, _>>()?;
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..stream.len()).collect::<Vec<_>>());
        pool.shutdown();
    }
}

#[test]
fn restarted_card_serves_pinned_operands_again() {
    // One supervised card; a poison job kills it mid-stream. The reborn
    // engine must replay the session pin registry: the pinned operand
    // keeps resolving hash-free after the restart, bit-exactly.
    let poison = UBig::from(0xdead_beefu64);
    let plan_poison = poison.clone();
    let pool = ServerPool::with_backend_factory(
        1,
        move |_card| {
            EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(2_000).unwrap(),
                FaultPlan::new(40).poison(plan_poison.clone()),
            ))
        },
        ServeConfig {
            max_batch: 2,
            retry_limit: 1,
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let mut session = pool.session();
    let fixed = UBig::from(1_000_003u64);
    session.register("acc", fixed.clone());
    let k = 4u64;
    // Warm half: the pin prepares lazily on its first sighting, then
    // serves hash-free.
    for i in 1..=k {
        let ticket = session.submit_with("acc", UBig::from(i)).unwrap();
        assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(i));
    }
    // The poison job takes the card down (twice — its retry budget),
    // then is quarantined.
    let doomed = pool
        .submit(ProductRequest::new(poison, UBig::from(3u64)))
        .unwrap();
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::Poisoned { attempts: 2 })
    ));
    // Post-restart half: the replayed pin serves immediately — no lazy
    // re-preparation, so *every* sighting here is a pinned hit.
    for i in 1..=k {
        let ticket = session.submit_with("acc", UBig::from(i)).unwrap();
        assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(i));
    }
    let stats = pool.shutdown();
    assert_eq!(stats.health, vec![CardHealth::Live]);
    let total = stats.total();
    assert!(total.restarts >= 1, "the poison panic forced a rebuild");
    assert_eq!(total.poisoned, 1);
    assert_eq!(total.completed, 2 * k);
    // First half: k - 1 hits after the lazy prepare. Second half: k hits
    // straight off the replayed pin store.
    assert!(
        total.pinned_hits >= 2 * k - 1,
        "pin must survive the restart: {total:?}"
    );
}

#[test]
fn fleet_outlives_a_permanently_faulty_card() {
    // Card 0 dies on every flush it claims; its sibling is healthy. The
    // supervisor retries card 0 up to the restart cap, retires it, and
    // the fleet keeps serving — intake never closes, nothing resolves to
    // `Closed`. Which card wins any one claim is a race, so the test
    // asserts what holds however the races go: every ticket resolves
    // right, and card 0's ledger adds up.
    let restart_cap = 2;
    let builds = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&builds);
    let pool = ServerPool::with_backend_factory(
        2,
        move |card| {
            let plan = if card == 0 {
                counter.fetch_add(1, Ordering::Relaxed);
                FaultPlan::new(3).panic_every(1)
            } else {
                FaultPlan::new(3)
            };
            EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(1_000).unwrap(),
                plan,
            ))
        },
        ServeConfig {
            max_batch: 1,
            retry_limit: 4,
            restart_cap,
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    for round in 0..20u64 {
        let ticket = pool
            .submit(ProductRequest::new(UBig::from(round + 2), UBig::from(7u64)))
            .expect("intake stays open throughout");
        match ticket.wait() {
            Ok(product) => assert_eq!(product, UBig::from((round + 2) * 7)),
            Err(ServeError::Poisoned { .. }) => {} // lost its whole retry budget to card 0
            other => panic!("unexpected resolution {other:?}"),
        }
    }
    let stats = pool.shutdown();
    assert_eq!(stats.health[1], CardHealth::Live, "{:?}", stats.health);
    let faulty = stats.per_worker[0];
    assert_eq!(faulty.completed, 0, "every flush card 0 claimed died");
    // Each death is answered by a rebuild until the cap retires the
    // card, and each rebuild is one factory call after the first.
    assert_eq!(faulty.restarts, faulty.flushes.min(u64::from(restart_cap)));
    assert_eq!(builds.load(Ordering::Relaxed), 1 + faulty.restarts);
    assert!(faulty.flushes <= u64::from(restart_cap) + 1, "{faulty:?}");
}

/// The seeded storm of a periodically faulty card, on the only card of
/// the fleet so the schedule is certain to fire: under this seed every
/// life of the card (the counter restarts with each rebuild) returns a
/// transient device error on its second flush and dies on its fifth.
fn storm_card(_card: usize) -> EvalEngine<FaultyMultiplier<SsaSoftware>> {
    EvalEngine::new(FaultyMultiplier::new(
        SsaSoftware::for_operand_bits(1_000).unwrap(),
        FaultPlan::new(20_160_314).panic_every(5).error_every(7),
    ))
}

/// Rides the recurring-operand × fresh-stream traffic shape through
/// `pool`. Returns (products answered bit-exactly, `Closed` answers,
/// whether intake still works afterwards, final stats); every ticket
/// resolves one way or another, or this hangs.
fn ride_out_the_storm(pool: ServerPool) -> (usize, usize, bool, PoolStats) {
    let fixed = UBig::from(0x5eed_2016u64);
    let stream: Vec<UBig> = (0..16u64).map(|k| UBig::from(1 + k * 7919)).collect();
    let tickets: Vec<ProductTicket> = stream
        .iter()
        .filter_map(|b| {
            pool.submit(ProductRequest::new(fixed.clone(), b.clone()))
                .ok()
        })
        .collect();
    let (mut exact, mut closed) = (0, 0);
    for (b, ticket) in stream.iter().zip(tickets) {
        match ticket.wait() {
            Ok(product) => {
                assert_eq!(product, &fixed * b, "completions must stay bit-exact");
                exact += 1;
            }
            Err(ServeError::Closed) => closed += 1,
            Err(_) => {}
        }
    }
    let intake_open = pool
        .submit(ProductRequest::new(UBig::from(3u64), UBig::from(4u64)))
        .is_ok_and(|ticket| ticket.wait().is_ok());
    (exact, closed, intake_open, pool.shutdown())
}

#[test]
fn supervision_rides_out_a_seeded_storm_that_kills_a_bare_fleet() {
    let config = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        retry_limit: 6,
        // The card is *periodically* faulty by design: supervision keeps
        // rebuilding it rather than retiring it.
        restart_cap: 64,
        restart_backoff: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let supervised = ServerPool::with_backend_factory(1, storm_card, config);
    let (exact, closed, intake_open, stats) = ride_out_the_storm(supervised);
    assert_eq!(exact, 16, "a supervised fleet resolves 100% of tickets");
    assert_eq!(closed, 0, "zero Closed errors under supervision");
    assert!(intake_open, "intake must stay open after the storm");
    let total = stats.total();
    assert!(
        total.restarts >= 1 && total.retried >= 1,
        "the fault plan must actually have hit the card: {total:?}"
    );
    assert_eq!(stats.health, vec![CardHealth::Live]);

    // The same storm with nothing to rebuild from: the first death is
    // permanent, and the fleet answers `Closed` instead of serving on.
    let bare = ServerPool::spawn(vec![storm_card(0)], config);
    let (exact, closed, intake_open, stats) = ride_out_the_storm(bare);
    assert!(exact < 16 && closed > 0, "{exact} exact, {closed} closed");
    assert!(!intake_open);
    assert_eq!(stats.total().restarts, 0);
    assert_eq!(stats.health, vec![CardHealth::Dead]);
}
