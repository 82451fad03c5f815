#![cfg(test)]
//! Behaviour of the assembled fleet — pool, cards, sessions, completion
//! paths — driven through its public surface on small operands.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use he_bigint::UBig;

use super::*;
use crate::engine::{EvalEngine, ProductJob};
use crate::fault::{FaultPlan, FaultyMultiplier};
use crate::multiplier::{Karatsuba, Multiplier, MultiplyError, SsaSoftware};

fn small_engine(bits: usize) -> EvalEngine<SsaSoftware> {
    EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap())
}

/// A one-card fleet; its stats are the fleet's roll-up.
fn small_server(config: ServeConfig) -> ServerPool {
    ServerPool::spawn(vec![small_engine(2_000)], config)
}

/// Cache off, so every job reaches its card raw.
fn uncached() -> ServeConfig {
    ServeConfig {
        cache_bytes: 0,
        ..ServeConfig::default()
    }
}

/// A card that reports each product's entry — its right-hand operand,
/// as a `u64` — then holds the product until the test sends a permit.
/// Dropping the permit sender releases every product.
#[derive(Debug)]
struct PermitCard {
    entered: mpsc::Sender<u64>,
    permits: Mutex<mpsc::Receiver<()>>,
}

impl Multiplier for PermitCard {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        let _ = self
            .entered
            .send(b.as_limbs().first().copied().unwrap_or(0));
        let _ = self
            .permits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv();
        Ok(a.mul_schoolbook(b))
    }

    fn name(&self) -> &'static str {
        "permit-card"
    }
}

/// A one-product-wide [`PermitCard`], its entry reports and its permits.
fn permit_card() -> (
    EvalEngine<PermitCard>,
    mpsc::Receiver<u64>,
    mpsc::Sender<()>,
) {
    let (entered, entries) = mpsc::channel();
    let (permits, gate) = mpsc::channel();
    let card = PermitCard {
        entered,
        permits: Mutex::new(gate),
    };
    (EvalEngine::new(card).with_threads(1), entries, permits)
}

/// The next product to enter its card. The bound only turns a hang into
/// a failure; nothing is timed.
fn next_entry(entries: &mpsc::Receiver<u64>) -> u64 {
    entries
        .recv_timeout(Duration::from_secs(30))
        .expect("a product entered its card")
}

#[test]
fn serves_products_in_submission_order() {
    let server = small_server(ServeConfig::default());
    let tickets: Vec<ProductTicket> = (1..=10u64)
        .map(|k| {
            server
                .submit(ProductRequest::new(UBig::from(k), UBig::from(1_000_003u64)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (1..=10u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * 1_000_003));
    }
    let stats = server.shutdown().total();
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.failed + stats.expired(), 0);
    // The recurring right-hand operand misses at most twice — its
    // unadmitted first sighting, then its preparation — and hits after.
    assert!(stats.cache_hits >= 8, "stats: {stats:?}");
}

#[test]
fn recurring_operands_hit_the_handle_cache() {
    let server = small_server(ServeConfig::default());
    let fixed = UBig::from(0xdead_beefu64);
    let tickets: Vec<ProductTicket> = (0..8u64)
        .map(|k| {
            server
                .submit(ProductRequest::new(fixed.clone(), UBig::from(k + 2)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (0..8u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k + 2));
    }
    let stats = server.shutdown().total();
    // 16 operand lookups; `fixed` misses at most twice (first sighting,
    // then its preparation), each stream element misses once → at least
    // 6 hits from the recurring operand.
    assert!(stats.cache_hits >= 6, "stats: {stats:?}");
    assert!(stats.cache_misses <= 10, "stats: {stats:?}");
}

#[test]
fn a_lone_job_on_an_idle_pool_is_its_own_flush() {
    // The card is free and the job is pending: it is claimed at once,
    // alone — there is no window to wait out and no timer in the path.
    let server = small_server(ServeConfig::default());
    let ticket = server
        .submit(ProductRequest::new(UBig::from(21u64), UBig::from(2u64)))
        .unwrap();
    assert_eq!(ticket.wait().unwrap(), UBig::from(42u64));
    let stats = server.shutdown().total();
    assert_eq!(stats.flushes, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn an_urgent_job_enters_next_behind_a_deadline_less_backlog() {
    // Job 0 holds the card while jobs 1–8, none with a deadline, queue
    // behind it. Once job 1 has entered, an urgent job arrives: the card
    // claims one run at a time, so the urgent job is the next to enter —
    // not the last, behind a backlog claimed all at once.
    let (card, entries, permits) = permit_card();
    let pool = ServerPool::spawn(vec![card], uncached());
    // Rebound after the pool so it drops first: a failing assertion
    // releases the card before the pool's drop joins it.
    let permits = permits;
    let a = UBig::from(1_000_003u64);
    let submit = |request: ProductRequest| pool.submit(request).unwrap();
    let mut tickets = vec![(0, submit(ProductRequest::new(a.clone(), UBig::zero())))];
    assert_eq!(next_entry(&entries), 0);
    for k in 1..=8u64 {
        tickets.push((k, submit(ProductRequest::new(a.clone(), UBig::from(k)))));
    }
    permits.send(()).unwrap();
    assert_eq!(next_entry(&entries), 1);
    let urgent = ProductRequest::new(a.clone(), UBig::from(99u64));
    tickets.push((99, submit(urgent.with_deadline(Duration::from_secs(60)))));
    permits.send(()).unwrap();
    assert_eq!(next_entry(&entries), 99, "the urgent job enters next");
    drop(permits);
    for (k, ticket) in tickets {
        assert_eq!(ticket.wait().unwrap(), &a * &UBig::from(k));
    }
    let stats = pool.shutdown().total();
    assert_eq!((stats.completed, stats.expired()), (10, 0));
    assert_eq!((stats.flushes, stats.largest_flush), (10, 1));
}

#[test]
fn shutdown_drains_accepted_jobs() {
    let server = small_server(ServeConfig::default());
    let tickets: Vec<ProductTicket> = (2..7u64)
        .map(|k| {
            server
                .submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                .unwrap()
        })
        .collect();
    // Shutdown closes the queue; whatever was accepted still runs.
    let stats = server.shutdown().total();
    assert_eq!(stats.completed, 5);
    for (k, ticket) in (2..7u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
    }
}

#[test]
fn idle_trim_releases_the_handle_cache() {
    let server = small_server(ServeConfig {
        idle_trim_after: Duration::from_millis(20),
        ..ServeConfig::default()
    });
    let fixed = UBig::from(0xfeedu64);
    // Three sightings, one flush each: unadmitted, prepared, hit.
    for k in [3u64, 4, 6] {
        let warm = server
            .submit(ProductRequest::new(fixed.clone(), UBig::from(k)))
            .unwrap();
        assert_eq!(warm.wait().unwrap(), &fixed * &UBig::from(k));
    }
    // Let the worker go quiet long enough to trim scratch AND spectra.
    std::thread::sleep(Duration::from_millis(200));
    let second = server
        .submit(ProductRequest::new(fixed.clone(), UBig::from(5u64)))
        .unwrap();
    assert_eq!(second.wait().unwrap(), &fixed * &UBig::from(5u64));
    let stats = server.shutdown().total();
    assert!(stats.idle_trims >= 1, "stats: {stats:?}");
    // The recurring operand was re-prepared after the trim: its one
    // hit is the warm-up's, nothing survived the idle pass.
    assert_eq!(stats.cache_hits, 1, "stats: {stats:?}");
    assert_eq!(stats.cache_misses, 7, "stats: {stats:?}");
}

#[test]
fn raw_backends_serve_with_the_cache_auto_disabled() {
    let server = ServerPool::spawn(vec![EvalEngine::new(Karatsuba)], ServeConfig::default());
    let tickets: Vec<ProductTicket> = (0..3)
        .map(|_| {
            server
                .submit(ProductRequest::new(UBig::from(9u64), UBig::from(9u64)))
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap(), UBig::from(81u64));
    }
    let stats = server.shutdown().total();
    // Raw handles cache no spectrum, so the server stops digesting
    // and cloning operands after the first sighting.
    assert_eq!(stats.cache_hits, 0, "stats: {stats:?}");
    assert_eq!(stats.cache_misses, 0, "stats: {stats:?}");
}

#[test]
fn pool_serves_across_all_cards() {
    let pool = ServerPool::spawn(
        vec![small_engine(2_000), small_engine(2_000)],
        ServeConfig::default(),
    );
    assert_eq!(pool.workers(), 2);
    let tickets: Vec<ProductTicket> = (1..=24u64)
        .map(|k| {
            pool.submit(ProductRequest::new(UBig::from(k), UBig::from(999_983u64)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (1..=24u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * 999_983));
    }
    let stats = pool.shutdown();
    assert_eq!(stats.per_worker.len(), 2);
    assert_eq!(stats.total().completed, 24);
    assert_eq!(stats.total().failed + stats.total().expired(), 0);
}

#[test]
fn heterogeneous_cards_each_prepare_their_own_operands() {
    // Cards of different transform geometry share a queue: handles
    // are provenance-stamped per instance, so each card caches its
    // own spectra and every product stays bit-exact regardless of
    // which card claims it.
    let pool = ServerPool::spawn(
        vec![small_engine(2_000), small_engine(4_000)],
        ServeConfig::default(),
    );
    let fixed = UBig::from(0xabcdu64);
    let tickets: Vec<ProductTicket> = (1..=16u64)
        .map(|k| {
            pool.submit(ProductRequest::new(fixed.clone(), UBig::from(k)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (1..=16u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k));
    }
    let stats = pool.shutdown();
    assert_eq!(stats.total().completed, 16);
}

#[test]
fn session_pins_survive_lru_pressure() {
    // A budget of exactly one entry evicts every digest-cached operand
    // at the end of its flush; the pinned operand is exempt.
    let fixed = UBig::from(0xabcd_ef01u64);
    let spectrum = small_engine(2_000).prepare(&fixed).unwrap();
    let server = small_server(ServeConfig {
        cache_bytes: size_of_val(fixed.as_limbs()) + spectrum.resident_bytes(),
        ..ServeConfig::default()
    });
    let mut session = server.session();
    session.register("acc", fixed.clone());
    assert_eq!(session.registered(), 1);
    // Every stream operand comes round twice, so each is admitted and
    // presses on the budget.
    let stream = || (2..10u64).chain(2..10u64);
    let tickets: Vec<ProductTicket> = stream()
        .map(|k| session.submit_with("acc", UBig::from(k)).unwrap())
        .collect();
    for (k, ticket) in stream().zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), &fixed * &UBig::from(k));
    }
    let stats = server.shutdown().total();
    assert_eq!(stats.completed, 16);
    // One lazy preparation, then every later sighting resolved from
    // the pin map — hash-free, eviction-proof.
    assert!(stats.pinned_hits >= 15, "stats: {stats:?}");
}

#[test]
fn sessions_clone_and_unregister_independently() {
    let server = small_server(ServeConfig::default());
    let mut session = server.session();
    session.register("a", UBig::from(11u64));
    let mut sibling = session.clone();
    sibling.register("b", UBig::from(13u64));
    // The clone carries "a" and its own "b"; the original only "a".
    assert_eq!(
        sibling.submit_between("a", "b").unwrap().wait().unwrap(),
        UBig::from(143u64)
    );
    assert_eq!(session.registered(), 1);
    sibling.unregister("a");
    assert_eq!(sibling.registered(), 1);
    // The original's registration is untouched by the clone's
    // unregister of the shared name.
    assert_eq!(
        session
            .submit_with("a", UBig::from(2u64))
            .unwrap()
            .wait()
            .unwrap(),
        UBig::from(22u64)
    );
    server.shutdown();
}

#[test]
fn completion_queue_over_a_session_carries_tags() {
    let server = small_server(ServeConfig::default());
    let mut session = server.session();
    session.register("acc", UBig::from(1_000_003u64));
    let requests: Vec<(ProductRequest, u64)> = (2..8u64)
        .map(|k| (session.request_with("acc", UBig::from(k)), k))
        .collect();
    let mut queue: CompletionQueue<'_, ClientSession, u64> = CompletionQueue::new(&session);
    for (request, tag) in requests {
        queue
            .submit_tagged(request, tag)
            .map_err(|(e, _)| e)
            .unwrap();
    }
    let mut seen = 0u64;
    while let Some(done) = queue.recv() {
        assert_eq!(
            done.result.unwrap(),
            UBig::from(done.tag) * UBig::from(1_000_003u64)
        );
        seen += 1;
    }
    assert_eq!(seen, 6);
    assert_eq!(queue.in_flight(), 0);
    let stats = server.shutdown().total();
    assert_eq!(stats.completed, 6);
    assert!(stats.pinned_hits > 0, "stats: {stats:?}");
}

#[test]
fn live_stats_observe_a_running_pool() {
    let pool = ServerPool::spawn(vec![small_engine(2_000)], ServeConfig::default());
    let tickets: Vec<ProductTicket> = (1..=6u64)
        .map(|k| {
            pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (1..=6u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
    }
    // All tickets answered, so the snapshots published before each
    // delivery must have caught up with every completion.
    let live = pool.stats();
    assert_eq!(live.total().completed, 6);
    let stats = pool.shutdown();
    assert_eq!(stats.total().completed, 6);
}

#[test]
fn unpreparable_operands_leave_no_cache_residue() {
    // Oversized operands fail preparation; the flush must not leak
    // digest chains for them (preparation only inserts successes).
    let server = small_server(ServeConfig::default());
    let oversized = UBig::pow2(100_000);
    let bad = server
        .submit(ProductRequest::new(oversized.clone(), oversized))
        .unwrap();
    assert!(matches!(bad.wait(), Err(ServeError::Multiply(_))));
    let good = server
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(9u64)))
        .unwrap();
    assert_eq!(good.wait().unwrap(), UBig::from(54u64));
    let stats = server.shutdown().total();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    // The oversized operand never counted as a miss (it was never
    // cached), the good pair paid two.
    assert_eq!(stats.cache_misses, 2, "stats: {stats:?}");
}

/// A card whose first `fails` batch calls return a transient device
/// error, then heal — the deterministic retry harness.
#[derive(Debug)]
struct FlakyCard {
    fails: AtomicU64,
}

impl Multiplier for FlakyCard {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        Ok(a.mul_schoolbook(b))
    }

    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        if self.fails.load(Ordering::Relaxed) > 0 {
            self.fails.fetch_sub(1, Ordering::Relaxed);
            return Err(MultiplyError::Device("transient DMA glitch".into()));
        }
        for (job, slot) in jobs.iter().zip(out) {
            let (a, b) = match job {
                ProductJob::Raw(a, b) => (*a, *b),
                _ => unreachable!("cache disabled in this test"),
            };
            *slot = self.multiply(a, b)?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "flaky-card"
    }
}

#[test]
fn transient_device_errors_retry_to_success() {
    // Two transient faults, retry_limit 2: the job survives exactly at
    // its retry budget and completes on the third attempt.
    let pool = ServerPool::spawn(
        vec![EvalEngine::new(FlakyCard {
            fails: AtomicU64::new(2),
        })],
        ServeConfig {
            cache_bytes: 0,
            retry_limit: 2,
            ..ServeConfig::default()
        },
    );
    let ticket = pool
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
        .unwrap();
    assert_eq!(ticket.wait().unwrap(), UBig::from(42u64));
    let stats = pool.shutdown().total();
    assert_eq!(stats.retried, 2, "stats: {stats:?}");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.restarts, 0, "errors retry without a card rebuild");
}

#[test]
fn exhausted_retry_budget_surfaces_the_device_error() {
    let pool = ServerPool::spawn(
        vec![EvalEngine::new(FlakyCard {
            fails: AtomicU64::new(100),
        })],
        ServeConfig {
            cache_bytes: 0,
            retry_limit: 2,
            ..ServeConfig::default()
        },
    );
    let ticket = pool
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
        .unwrap();
    assert!(matches!(
        ticket.wait(),
        Err(ServeError::Multiply(MultiplyError::Device(_)))
    ));
    let stats = pool.shutdown().total();
    assert_eq!(stats.retried, 2, "stats: {stats:?}");
    assert_eq!(stats.failed, 1);
}

#[test]
fn supervised_card_restarts_after_a_panic() {
    // The factory's first build dies on every batch call; rebuilds are
    // clean — so the in-flight jobs must come back via retry and the
    // card must finish Live.
    let builds = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&builds);
    let pool = ServerPool::with_backend_factory(
        1,
        move |_card| {
            let plan = if counter.fetch_add(1, Ordering::Relaxed) == 0 {
                FaultPlan::new(11).panic_every(1)
            } else {
                FaultPlan::new(11)
            };
            EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(2_000).unwrap(),
                plan,
            ))
        },
        ServeConfig {
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<ProductTicket> = (1..=3u64)
        .map(|k| {
            pool.submit(ProductRequest::new(UBig::from(k), UBig::from(10u64)))
                .unwrap()
        })
        .collect();
    for (k, ticket) in (1..=3u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(10 * k));
    }
    let stats = pool.shutdown();
    assert_eq!(stats.health, vec![CardHealth::Live]);
    let total = stats.total();
    assert_eq!(total.completed, 3);
    assert!(total.restarts >= 1, "stats: {total:?}");
    assert!(total.retried >= 1, "stats: {total:?}");
    assert!(builds.load(Ordering::Relaxed) >= 2, "factory rebuilt");
}

#[test]
fn poison_job_is_quarantined_and_innocents_survive() {
    // One poison operand panics every flush it joins (even solo); the
    // fleet must isolate it, answer it `Poisoned`, and keep serving.
    let poison = UBig::from(0xbad_f00du64);
    let plan_poison = poison.clone();
    let pool = ServerPool::with_backend_factory(
        1,
        move |_card| {
            EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(2_000).unwrap(),
                FaultPlan::new(5).poison(plan_poison.clone()),
            ))
        },
        ServeConfig {
            retry_limit: 2,
            restart_backoff: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let innocent_a = pool
        .submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))
        .unwrap();
    let doomed = pool
        .submit(ProductRequest::new(poison.clone(), UBig::from(3u64)))
        .unwrap();
    let innocent_b = pool
        .submit(ProductRequest::new(UBig::from(8u64), UBig::from(9u64)))
        .unwrap();
    assert_eq!(innocent_a.wait().unwrap(), UBig::from(42u64));
    assert_eq!(innocent_b.wait().unwrap(), UBig::from(72u64));
    // retry_limit 2 → the poison job takes down 3 runs (its first plus
    // two solo retries), then is quarantined.
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::Poisoned { attempts: 3 })
    ));
    // The card itself survives the poison job's three panics.
    let after = pool
        .submit(ProductRequest::new(UBig::from(11u64), UBig::from(11u64)))
        .unwrap();
    assert_eq!(after.wait().unwrap(), UBig::from(121u64));
    let stats = pool.shutdown();
    assert_eq!(stats.health, vec![CardHealth::Live]);
    let total = stats.total();
    assert_eq!(total.poisoned, 1, "stats: {total:?}");
    assert_eq!(total.completed, 3);
    assert!(total.restarts >= 3, "one rebuild per poison panic");
}

#[test]
fn unsupervised_panic_still_kills_the_card() {
    // Without a factory there is nothing to rebuild from: the panic
    // retires the card, and (as the last card) closes the pool.
    let pool = ServerPool::spawn(
        vec![EvalEngine::new(FaultyMultiplier::new(
            SsaSoftware::for_operand_bits(2_000).unwrap(),
            FaultPlan::new(17).panic_every(1),
        ))],
        ServeConfig::default(),
    );
    let ticket = pool
        .submit(ProductRequest::new(UBig::from(2u64), UBig::from(3u64)))
        .unwrap();
    // The job retries until its budget quarantines it — or the card
    // dies first and the sink resolves Closed; either way it resolves.
    assert!(ticket.wait().is_err());
    let stats = pool.shutdown();
    assert_eq!(stats.health, vec![CardHealth::Dead]);
}

#[test]
fn drain_completes_queued_work_before_joining() {
    let pool = ServerPool::spawn(vec![small_engine(2_000)], ServeConfig::default());
    let tickets: Vec<ProductTicket> = (1..=5u64)
        .map(|k| {
            pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                .unwrap()
        })
        .collect();
    let outcome = pool.drain(Duration::from_secs(30));
    assert!(outcome.clean, "drain finished inside its budget");
    assert_eq!(outcome.stats.total().completed, 5);
    for (k, ticket) in (1..=5u64).zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), UBig::from(k * k));
    }
}

#[test]
fn drain_timeout_fails_pending_jobs_closed() {
    // The card holds job 1 while jobs 2–4 queue; a 1 ms drain budget
    // must give up on the queued three, resolve them `Closed`, and still
    // join once the in-flight run finishes.
    let (card, entries, permits) = permit_card();
    let pool = ServerPool::spawn(vec![card], uncached());
    // Rebound after the pool so it drops first: a failing assertion
    // releases the card before the pool's drop joins it.
    let permits = permits;
    let submit = |k: u64| {
        pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
            .unwrap()
    };
    let first = submit(1);
    assert_eq!(next_entry(&entries), 1);
    let queued: Vec<ProductTicket> = (2..=4u64).map(submit).collect();
    let drain = std::thread::spawn(move || pool.drain(Duration::from_millis(1)));
    // A queued job resolves only once the drain has given up on it.
    for ticket in queued {
        assert_eq!(ticket.wait(), Err(ServeError::Closed));
    }
    drop(permits);
    let outcome = drain.join().unwrap();
    assert!(!outcome.clean, "a held card cannot drain in 1 ms");
    assert_eq!(first.wait().unwrap(), UBig::from(1u64));
    assert_eq!(outcome.stats.total().completed, 1);
}

#[test]
fn a_sinks_cancel_handle_cancels_its_queued_job() {
    // The first job holds the card; the second is cancelled while still
    // queued and resolves `Closed`.
    let (card, entries, permits) = permit_card();
    let pool = ServerPool::spawn(vec![card], uncached());
    // Rebound after the pool so it drops first: a failing assertion
    // releases the card before the pool's drop joins it.
    let permits = permits;
    let session = pool.session();
    let (mint, receiver) = completion_channel();
    session
        .submit_into(
            ProductRequest::new(UBig::from(3u64), UBig::from(3u64)),
            mint.sink(1),
        )
        .unwrap();
    assert_eq!(next_entry(&entries), 3);
    let sink = mint.sink(2);
    let second = sink.cancel_handle();
    session
        .submit_into(
            ProductRequest::new(UBig::from(4u64), UBig::from(4u64)),
            sink,
        )
        .unwrap();
    second.cancel();
    drop((mint, permits));
    let mut outcomes = HashMap::new();
    while let Some((tag, outcome)) = receiver.recv() {
        outcomes.insert(tag, outcome);
    }
    assert_eq!(outcomes[&1], Ok(UBig::from(9u64)));
    assert_eq!(outcomes[&2], Err(ServeError::Closed));
    let stats = pool.shutdown().total();
    assert_eq!(stats.cancelled, 1);
}
