//! The serving fleet on the network: a [`ServerPool`] behind a TCP
//! socket, driven by a remote [`NetSession`].
//!
//! Where `fleet_serving.rs` submits into the pool in process, this
//! walkthrough speaks the `he-net` wire protocol over loopback: every
//! product job is length-prefix framed, crosses a real socket, runs on
//! the resident fleet, and the answer frames come back through the
//! server's per-connection completion reactor. The session surface is
//! the same — pinned recurring operands (8 bytes on the wire per job
//! instead of the full operand), typed failures, fleet stats — so
//! everything built on [`Submitter`] runs remotely unchanged.
//!
//! Run with: `cargo run --release --example net_serving`

use std::time::Instant;

use he_accel::prelude::*;
use he_net::{NetServer, NetSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = 16_384;
    let stream_len = 32;
    let mut rng = StdRng::seed_from_u64(41);
    let accumulator = UBig::random_bits(&mut rng, bits);
    let stream: Vec<UBig> = (0..stream_len)
        .map(|_| UBig::random_bits(&mut rng, bits))
        .collect();

    // The fleet: two resident cards. `NetServer` takes ownership and
    // serves it until `shutdown`.
    println!("binding a 2-card fleet to a loopback TCP socket…");
    let pool = ServerPool::with_backend_factory(
        2,
        move |_card| EvalEngine::new(SsaSoftware::for_operand_bits(bits).expect("plan fits")),
        ServeConfig::default(),
    );
    let server = NetServer::bind_tcp(pool, "127.0.0.1:0")?;
    let endpoint = server.local_endpoint();
    println!("fleet listening on {endpoint}");

    // The client: dial, then submit exactly as if the pool were local —
    // `NetSession` is a `Submitter`.
    let session = NetSession::connect(endpoint)?;
    let ticket = session.submit(ProductRequest::new(
        UBig::from(6u64) << 1000,
        UBig::from(7u64),
    ))?;
    println!(
        "first remote product served: {} bits",
        ticket.wait()?.bit_len()
    );

    // The pinned path: the recurring accumulator crosses the wire ONCE;
    // every job after that references it by 8-byte pin id, and the far
    // cards resolve it hash-free from their pinned caches.
    session.register("acc", accumulator.clone())?;
    let start = Instant::now();
    let tickets: Vec<ProductTicket> = stream
        .iter()
        .map(|b| session.submit_with("acc", b.clone()).expect("fleet alive"))
        .collect();
    for (b, ticket) in stream.iter().zip(tickets) {
        assert_eq!(ticket.wait()?, &accumulator * b, "bit-exact over the wire");
    }
    let elapsed = start.elapsed();
    println!(
        "served {stream_len} pinned products over TCP in {elapsed:.2?} \
         ({:.1} products/s)",
        stream_len as f64 / elapsed.as_secs_f64()
    );

    // Fleet observability crosses the wire too.
    let stats = session.stats()?;
    println!(
        "far fleet: {} completed, {} pinned-cache hits, {} flushes",
        stats.completed, stats.pinned_hits, stats.flushes
    );

    session.close();
    let final_stats = server.shutdown().total();
    println!(
        "server shut down cleanly ({} products served in total)",
        final_stats.completed
    );
    Ok(())
}
