//! A resident product server: the deployment shape the paper's
//! accelerator targets — one long-lived engine fed a stream of product
//! jobs through a bounded queue.
//!
//! Where `transform_caching.rs` hand-rolls its batches (build a
//! `ProductJob` slice, call `EvalEngine::run`, manage handles yourself),
//! the server does all of that behind a submit/await API: the card
//! claims pending jobs the moment it is free (one run at a time, as many
//! jobs as its engine computes together), operands seen twice are recognized by
//! digest and served from a cached forward spectrum under a byte
//! budget, late jobs expire as typed errors, and a full queue pushes
//! back instead of buffering without bound.
//!
//! This is the *blocking* client shape — one awaited ticket per in-flight
//! product. For the completion-driven alternative (one reactor thread,
//! tagged completions, session-pinned operands) see
//! `streaming_client.rs`.
//!
//! Run with: `cargo run --release --example server_stream`

use std::time::{Duration, Instant};

use he_accel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = he_accel::ssa::PAPER_OPERAND_BITS / 4;
    let stream_len = 24;
    let mut rng = StdRng::seed_from_u64(31);
    // The serving traffic shape: one recurring accumulator times a stream
    // of fresh operands.
    let accumulator = UBig::random_bits(&mut rng, bits);
    let stream: Vec<UBig> = (0..stream_len)
        .map(|_| UBig::random_bits(&mut rng, bits))
        .collect();

    println!("spawning a resident server ({bits}-bit operands, one run at a time)…");
    let server = ServerPool::spawn(
        vec![EvalEngine::new(SsaSoftware::for_operand_bits(bits)?)],
        ServeConfig {
            queue_capacity: 16,
            cache_bytes: 8 << 20,
            ..ServeConfig::default()
        },
    );

    // Submit the whole stream, then await the tickets — the card claims
    // it run by run from behind the queue and recognizes the recurring
    // accumulator by digest at its second sighting, so from then on every
    // product rides a cached forward spectrum.
    let start = Instant::now();
    let tickets: Vec<ProductTicket> = stream
        .iter()
        .map(|b| {
            server
                .submit(ProductRequest::new(accumulator.clone(), b.clone()))
                .expect("server alive")
        })
        .collect();
    for (b, ticket) in stream.iter().zip(tickets) {
        let product = ticket.wait()?;
        assert_eq!(product, &accumulator * b, "served products are bit-exact");
    }
    let elapsed = start.elapsed();
    println!(
        "served {stream_len} products in {elapsed:.2?} \
         ({:.1} products/s, results in submission order)",
        stream_len as f64 / elapsed.as_secs_f64()
    );

    // Deadlines: a job that cannot start in time is answered with a typed
    // error instead of occupying the engine.
    let late = server
        .submit(
            ProductRequest::new(accumulator.clone(), stream[0].clone())
                .with_deadline(Duration::ZERO),
        )
        .expect("server alive");
    match late.wait() {
        Err(ServeError::Expired { missed_by }) => {
            println!("deadline demo: job expired {missed_by:.2?} past its deadline, as requested");
        }
        other => println!("deadline demo: job raced the flush and {other:?}"),
    }

    // Backpressure: `try_submit` never blocks — a full queue hands the
    // request back so the producer can shed or reroute it.
    let mut accepted = 0usize;
    let mut shed = 0usize;
    for b in &stream {
        match server.try_submit(ProductRequest::new(accumulator.clone(), b.clone())) {
            Ok(ticket) => {
                accepted += 1;
                drop(ticket); // fire-and-forget: results may be discarded
            }
            Err(SubmitError::Full(_)) => shed += 1,
            Err(err) => return Err(err.into()),
        }
    }
    println!("backpressure demo: {accepted} accepted, {shed} shed without blocking");

    let stats = server.shutdown().total();
    assert_eq!(
        stats.shed, shed as u64,
        "every rejected try_submit is accounted in the stats"
    );
    println!(
        "\nserver lifetime: {} flushes (largest {}), {} completed, {} expired, \
         {} shed, cache {} hits / {} misses",
        stats.flushes,
        stats.largest_flush,
        stats.completed,
        stats.expired(),
        stats.shed,
        stats.cache_hits,
        stats.cache_misses
    );
    Ok(())
}
