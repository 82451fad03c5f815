//! A multi-card serving fleet: several resident engines — each modeling
//! one accelerator card — pull deadline-aware runs from one shared
//! queue. A free card claims one run at once (as many jobs as its engine
//! computes together), and each card keeps a byte-budgeted cache that
//! admits an operand on its second sighting.
//!
//! Where `server_stream.rs` runs a [`ServerPool`] of one card, this
//! walkthrough spawns several: the same submit/await surface, but
//! runs are claimed by whichever card frees up first, and urgent
//! deadlines are claimed earliest-deadline-first (so an overload expires
//! the fewest possible jobs). The serving layer uses another core by
//! adding a card.
//!
//! Run with: `cargo run --release --example fleet_serving`

use std::time::{Duration, Instant};

use he_accel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = he_accel::ssa::PAPER_OPERAND_BITS / 8;
    let stream_len = 32;
    let cards = 2;
    let mut rng = StdRng::seed_from_u64(41);
    let accumulator = UBig::random_bits(&mut rng, bits);
    let stream: Vec<UBig> = (0..stream_len)
        .map(|_| UBig::random_bits(&mut rng, bits))
        .collect();

    println!("spawning a {cards}-card fleet ({bits}-bit operands, one run per free card)…");
    let engines: Vec<EvalEngine<SsaSoftware>> = (0..cards)
        .map(|_| Ok(EvalEngine::new(SsaSoftware::for_operand_bits(bits)?)))
        .collect::<Result<_, MultiplyError>>()?;
    let pool = ServerPool::spawn(
        engines,
        ServeConfig {
            queue_capacity: 64,
            cache_bytes: 8 << 20,
            ..ServeConfig::default()
        },
    );

    // Submit the whole stream, then await the tickets — results arrive in
    // submission order per submitter no matter which card ran each run,
    // and the recurring accumulator rides every card's digest cache.
    let start = Instant::now();
    let tickets: Vec<ProductTicket> = stream
        .iter()
        .map(|b| {
            pool.submit(ProductRequest::new(accumulator.clone(), b.clone()))
                .expect("fleet alive")
        })
        .collect();
    for (b, ticket) in stream.iter().zip(tickets) {
        assert_eq!(
            ticket.wait()?,
            &accumulator * b,
            "served products are bit-exact"
        );
    }
    let elapsed = start.elapsed();
    println!(
        "served {stream_len} products across {cards} cards in {elapsed:.2?} \
         ({:.1} products/s)",
        stream_len as f64 / elapsed.as_secs_f64()
    );

    // Deadlines under load: EDF claiming means an urgent job leapfrogs
    // the queue instead of expiring behind best-effort traffic.
    let best_effort: Vec<ProductTicket> = stream
        .iter()
        .map(|b| {
            pool.submit(ProductRequest::new(accumulator.clone(), b.clone()))
                .expect("fleet alive")
        })
        .collect();
    let urgent = pool
        .submit(
            ProductRequest::new(accumulator.clone(), stream[0].clone())
                .with_deadline(Duration::from_millis(250)),
        )
        .expect("fleet alive");
    match urgent.wait() {
        Ok(product) => {
            assert_eq!(product, &accumulator * &stream[0]);
            println!("urgent job met its 250 ms deadline by claiming the next run");
        }
        Err(ServeError::Expired { missed_by }) => {
            println!("urgent job expired {missed_by:.2?} late (host too loaded)");
        }
        Err(other) => return Err(other.into()),
    }
    for ticket in best_effort {
        let _ = ticket.wait()?;
    }

    let stats = pool.shutdown();
    let total = stats.total();
    println!(
        "\nfleet lifetime: {} flushes (largest {}), {} completed, {} expired \
         ({} in queue / {} in flush)",
        total.flushes,
        total.largest_flush,
        total.completed,
        total.expired(),
        total.expired_in_queue,
        total.expired_in_flush,
    );
    println!(
        "caches: {} hits / {} misses",
        total.cache_hits, total.cache_misses
    );
    for (card, worker) in stats.per_worker.iter().enumerate() {
        println!(
            "  card {card}: {} flushes, {} completed",
            worker.flushes, worker.completed
        );
    }
    Ok(())
}
