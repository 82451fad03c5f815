//! The streaming client surface: one reactor thread, many in-flight
//! products, recurring operands registered once.
//!
//! Where `server_stream.rs` holds one blocking [`ProductTicket`] per
//! in-flight product (a thread per product at scale), this walkthrough
//! drives the same resident server the completion-driven way:
//!
//! * a [`ClientSession`] registers the recurring accumulator **once** —
//!   every card pins its prepared spectrum by id, so no submission ever
//!   hashes the multi-KB operand again and no LRU pressure can evict it;
//! * a [`CompletionQueue`] keeps a bounded window of tagged products in
//!   flight from a single thread, draining completions in completion
//!   order and refilling as slots free up;
//! * tickets are still there when useful: polling (`try_wait`), bounded
//!   waits (`wait_timeout`) and withdrawal (`cancel`) round out the
//!   non-blocking surface.
//!
//! Run with: `cargo run --release --example streaming_client`

use std::time::{Duration, Instant};

use he_accel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = he_accel::ssa::PAPER_OPERAND_BITS / 8;
    let stream_len = 32;
    let window = 8;
    let mut rng = StdRng::seed_from_u64(51);
    let accumulator = UBig::random_bits(&mut rng, bits);
    let stream: Vec<UBig> = (0..stream_len)
        .map(|_| UBig::random_bits(&mut rng, bits))
        .collect();

    println!("spawning a resident server ({bits}-bit operands, one run at a time)…");
    let server = ServerPool::spawn(
        vec![EvalEngine::new(SsaSoftware::for_operand_bits(bits)?)],
        ServeConfig {
            queue_capacity: 32,
            cache_bytes: 8 << 20,
            ..ServeConfig::default()
        },
    );

    // Register the recurring operand once; submissions reference it by
    // name from here on.
    let mut session = server.session();
    session.register("acc", accumulator.clone());

    // The reactor loop: a single thread keeps `window` products in
    // flight, tagged with their stream index.
    let start = Instant::now();
    let mut queue: CompletionQueue<'_, ClientSession, usize> = CompletionQueue::new(&session);
    let mut next = 0usize;
    let mut served = 0usize;
    while next < stream.len() && queue.in_flight() < window {
        queue
            .submit_tagged(session.request_with("acc", stream[next].clone()), next)
            .map_err(|(e, _)| e)?;
        next += 1;
    }
    while let Some(done) = queue.recv() {
        let product = done.result?;
        assert_eq!(
            product,
            &accumulator * &stream[done.tag],
            "completion {} is bit-exact",
            done.tag
        );
        served += 1;
        if next < stream.len() {
            queue
                .submit_tagged(session.request_with("acc", stream[next].clone()), next)
                .map_err(|(e, _)| e)?;
            next += 1;
        }
    }
    let elapsed = start.elapsed();
    println!(
        "served {served} products from one reactor thread ({window} in flight) in {elapsed:.2?} \
         ({:.1} products/s)",
        served as f64 / elapsed.as_secs_f64()
    );

    // The non-blocking ticket surface: poll, bound the wait, withdraw.
    let mut pending = session.submit_with("acc", stream[0].clone())?;
    let polled = match pending.try_wait() {
        Some(resolved) => resolved?,
        None => match pending.wait_timeout(Duration::from_secs(30)) {
            Some(resolved) => resolved?,
            None => pending.wait()?,
        },
    };
    assert_eq!(polled, &accumulator * &stream[0]);
    println!("ticket demo: polled + bounded waits resolved the product without a dedicated thread");

    let withdrawn = session.submit_with("acc", stream[1].clone())?;
    withdrawn.cancel();
    println!("cancel demo: a queued job was withdrawn (dropped at claim time if not yet running)");

    let stats = server.shutdown().total();
    println!(
        "\nserver lifetime: {} flushes (largest {}), {} completed, {} cancelled, \
         {} pinned hits (hash-free), digest cache {} hits / {} misses",
        stats.flushes,
        stats.largest_flush,
        stats.completed,
        stats.cancelled,
        stats.pinned_hits,
        stats.cache_hits,
        stats.cache_misses
    );
    Ok(())
}
