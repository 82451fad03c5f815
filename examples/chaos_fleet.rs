//! A self-healing fleet under fault injection: a 2-card supervised
//! [`ServerPool`] where card 0 periodically dies mid-flush — and traffic
//! keeps flowing.
//!
//! [`FaultyMultiplier`] injects deterministic, seeded card deaths and
//! transient device errors; the pool's backend factory
//! ([`ServerPool::with_backend_factory`]) rebuilds each dead card with
//! exponential backoff, replays its session pins, and the in-flight jobs
//! of every killed flush are re-queued to the survivors — so every
//! ticket resolves and results stay bit-exact through the chaos.
//!
//! Run with: `cargo run --release --example chaos_fleet`

use std::time::{Duration, Instant};

use he_accel::fault::{FaultPlan, FaultyMultiplier};
use he_accel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = 20_000;
    let stream_len = 48u64;
    let seed = 2016;
    let mut rng = StdRng::seed_from_u64(seed);
    let accumulator = UBig::random_bits(&mut rng, bits);
    let stream: Vec<UBig> = (0..stream_len)
        .map(|_| UBig::random_bits(&mut rng, bits))
        .collect();

    // Card 0 dies every 5th flush and glitches (transient device error)
    // every 7th; card 1 is healthy. The schedule is derived from the
    // seed alone, so a failing run replays exactly.
    println!("spawning a supervised 2-card fleet (card 0: dies every 5th flush, seed {seed})…");
    let pool = ServerPool::with_backend_factory(
        2,
        move |card| {
            let plan = if card == 0 {
                FaultPlan::new(seed).panic_every(5).error_every(7)
            } else {
                FaultPlan::new(seed)
            };
            EvalEngine::new(FaultyMultiplier::new(
                SsaSoftware::for_operand_bits(bits).expect("geometry fits"),
                plan,
            ))
        },
        ServeConfig {
            queue_capacity: 64,
            retry_limit: 4,
            restart_backoff: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );

    println!("(panic traces below are the injected card deaths — the supervisor catches them)");

    // Full traffic through the failing fleet: intake stays open across
    // the injected deaths, and every single ticket resolves bit-exactly
    // — the killed flushes' jobs fail over to the healthy card while the
    // supervisor rebuilds the dead one.
    let start = Instant::now();
    let tickets: Vec<ProductTicket> = stream
        .iter()
        .map(|b| {
            pool.submit(ProductRequest::new(accumulator.clone(), b.clone()))
                .expect("supervised intake stays open through card deaths")
        })
        .collect();
    for (b, ticket) in stream.iter().zip(tickets) {
        assert_eq!(
            ticket.wait()?,
            &accumulator * b,
            "served products stay bit-exact through the chaos"
        );
    }
    let elapsed = start.elapsed();
    println!(
        "served {stream_len}/{stream_len} products in {elapsed:.2?} \
         ({:.1} products/s) — zero tickets lost",
        stream_len as f64 / elapsed.as_secs_f64()
    );

    // Live health while traffic has stopped: both cards should be back.
    let live = pool.stats();
    println!("card health after the storm: {:?}", live.health);

    let stats = pool.shutdown();
    let total = stats.total();
    println!(
        "\nfleet lifetime: {} flushes, {} completed, {} retried after faults, \
         {} card restarts, {} quarantined",
        total.flushes, total.completed, total.retried, total.restarts, total.poisoned,
    );
    for (card, worker) in stats.per_worker.iter().enumerate() {
        println!(
            "  card {card} [{:?}]: {} flushes, {} completed, {} restarts",
            stats.health[card], worker.flushes, worker.completed, worker.restarts
        );
    }
    assert_eq!(total.completed, stream_len);
    assert!(
        total.restarts >= 1,
        "the fault plan must actually have killed card 0"
    );
    Ok(())
}
