//! Wire chaos: seeded mid-flight disconnects, in the `he_accel::fault`
//! harness style — deterministic fault schedules, invariants asserted
//! after every round.
//!
//! The contract under test is the client's three-part promise:
//!
//! 1. **never hang** — every ticket outstanding across a connection
//!    loss resolves to a typed [`ServeError`] (observed with bounded
//!    `wait_timeout`, so a hang is a test failure, not a CI stall);
//! 2. **reconnect-and-re-register** — after a kill (including one that
//!    tears a frame in half), the next submission dials again and the
//!    session's pins work on the new connection without re-uploading;
//! 3. **cancellation propagates** — a ticket cancelled client-side is
//!    swept over the wire and dropped unclaimed by the far fleet.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use he_accel::prelude::*;
use he_net::wire::Frame;
use he_net::{Endpoint, NetConfig, NetServer, NetSession};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A healthy little fleet.
fn fleet(cards: usize) -> ServerPool {
    ServerPool::with_backend_factory(
        cards,
        |_card| EvalEngine::new(SsaSoftware::for_operand_bits(2048).expect("fits")),
        ServeConfig::default(),
    )
}

/// A single stalling card: every flush sleeps, so submitted jobs are
/// reliably still in flight when the chaos lands.
fn stalling_fleet(stall: Duration) -> ServerPool {
    ServerPool::spawn(
        vec![EvalEngine::new(FaultyMultiplier::new(
            SsaSoftware::for_operand_bits(2048).expect("fits"),
            FaultPlan::new(42).stall_every(1, stall),
        ))],
        ServeConfig::default(),
    )
}

/// Tight reconnect budget so failed rounds surface fast.
fn chaos_config() -> NetConfig {
    NetConfig {
        reconnect_attempts: 40,
        reconnect_backoff: Duration::from_millis(10),
        ..NetConfig::default()
    }
}

/// Server drop with jobs in flight: every outstanding ticket resolves to
/// a typed error — bounded waits prove "never a hang".
#[test]
fn server_drop_resolves_every_outstanding_ticket() {
    let server = NetServer::bind_tcp(stalling_fleet(Duration::from_millis(200)), "127.0.0.1:0")
        .expect("bind");
    let session =
        NetSession::connect_with(server.local_endpoint(), chaos_config()).expect("connect");

    let mut tickets: Vec<ProductTicket> = (1..=6u64)
        .map(|k| {
            session
                .submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
                .expect("submit")
        })
        .collect();
    // Let the first flush start stalling, then yank the server.
    thread::sleep(Duration::from_millis(50));
    drop(server);

    let mut failures = 0;
    for (k, ticket) in tickets.iter_mut().enumerate() {
        match ticket.wait_timeout(Duration::from_secs(20)) {
            Some(Ok(value)) => {
                let k = k as u64 + 1;
                assert_eq!(value, UBig::from(k * k), "job {k} answered wrongly");
            }
            Some(Err(_typed)) => failures += 1,
            None => panic!("ticket {} hung across server drop", k + 1),
        }
    }
    // With one card stalling 200 ms per single-job flush and the server
    // dropped at 50 ms, the tail of the queue cannot have completed.
    assert!(failures >= 1, "expected at least one typed failure");
    session.close();
}

/// Forwards `client → upstream` and `upstream → client`; the first
/// accepted connection dies after `budget` client bytes — mid-frame by
/// construction — and later connections pass through untouched.
struct KillProxy {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl KillProxy {
    fn spawn(upstream: String, budget: usize) -> KillProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let endpoint = Endpoint::tcp(listener.local_addr().expect("addr").to_string());
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut first = true;
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let cap = if first { Some(budget) } else { None };
                            first = false;
                            if pipe_pair(client, &upstream, cap).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        KillProxy {
            endpoint,
            stop,
            accept: Some(accept),
        }
    }
}

impl Drop for KillProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Wires one proxied connection: two copy threads, the client→upstream
/// one enforcing the byte budget and killing **both** sockets when it
/// runs out (the upstream has seen only a prefix of a frame).
fn pipe_pair(client: TcpStream, upstream: &str, budget: Option<usize>) -> std::io::Result<()> {
    let upstream = TcpStream::connect(upstream)?;
    client.set_nodelay(true)?;
    upstream.set_nodelay(true)?;
    let c2s = (client.try_clone()?, upstream.try_clone()?);
    let s2c = (upstream, client);
    thread::spawn(move || copy_until(c2s.0, c2s.1, budget));
    thread::spawn(move || copy_until(s2c.0, s2c.1, None));
    Ok(())
}

fn copy_until(mut from: TcpStream, mut to: TcpStream, mut budget: Option<usize>) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let forward = match &mut budget {
            Some(left) if *left < n => {
                // Forward the allowed prefix, then tear the connection
                // down with a frame in flight on the upstream side.
                let allowed = *left;
                let _ = to.write_all(&buf[..allowed]);
                let _ = to.flush();
                break;
            }
            Some(left) => {
                *left -= n;
                n
            }
            None => n,
        };
        if to
            .write_all(&buf[..forward])
            .and_then(|()| to.flush())
            .is_err()
        {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Half-written frames, three seeded cut points: the client must
/// reconnect through the proxy, replay its pin, and serve correct pinned
/// products on the new connection; the torn submission itself must
/// resolve — correctly or typed, never silently.
#[test]
fn half_written_frame_reconnects_and_repins() {
    let server = NetServer::bind_tcp(fleet(2), "127.0.0.1:0").expect("bind");
    let upstream = match server.local_endpoint() {
        Endpoint::Tcp(addr) => addr,
        #[cfg(unix)]
        other => panic!("expected tcp endpoint, got {other}"),
    };
    let mask = 1_000_003u64;

    let mut seed = 0xdead_beef_0badu64;
    for round in 0..3 {
        // The register frame must arrive whole; the cut lands a few
        // bytes into the submit frame that follows it.
        let register_len = Frame::Register {
            pin: 0,
            operand: UBig::from(mask),
        }
        .encode()
        .len();
        let cut_into_submit = 5 + (splitmix64(&mut seed) % 8) as usize;
        let proxy = KillProxy::spawn(upstream.clone(), register_len + cut_into_submit);

        let session =
            NetSession::connect_with(proxy.endpoint.clone(), chaos_config()).expect("connect");
        session
            .register("mask", UBig::from(mask))
            .expect("register");

        // This submission's frame is torn mid-flight. The send itself
        // may succeed locally (the bytes died in the proxy), so the
        // *ticket* carries the contract: it resolves, one way or the
        // other, within the bound.
        let torn = session.submit_with("mask", UBig::from(7u64));
        match torn {
            Ok(mut ticket) => match ticket.wait_timeout(Duration::from_secs(20)) {
                Some(Ok(value)) => assert_eq!(value, UBig::from(7 * mask), "round {round}"),
                Some(Err(_typed)) => {}
                None => panic!("torn submission hung (round {round})"),
            },
            Err(SubmitError::Closed(_)) => {}
            Err(other) => panic!("unexpected submit error {other:?} (round {round})"),
        }

        // The session must come back through the (now transparent)
        // proxy: pinned products on the new connection, correct values.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut served = None;
        for k in 2u64.. {
            assert!(
                Instant::now() < deadline,
                "reconnect starved (round {round})"
            );
            let Ok(mut ticket) = session.submit_with("mask", UBig::from(k)) else {
                thread::sleep(Duration::from_millis(20));
                continue;
            };
            match ticket.wait_timeout(Duration::from_secs(20)) {
                Some(Ok(value)) => {
                    assert_eq!(value, UBig::from(k * mask), "round {round}");
                    served = Some(k);
                    break;
                }
                Some(Err(_closed_mid_reconnect)) => continue,
                None => panic!("post-kill submission hung (round {round})"),
            }
        }
        assert!(served.is_some());
        assert!(
            session.reconnects() >= 1,
            "round {round}: the kill must have forced a reconnect"
        );
        // The pin survived the reconnect without a client-side
        // re-register call — replay is the session's job.
        assert_eq!(session.registered(), 1);
        session.close();
    }
    server.shutdown();
}

/// A cancelled ticket's flag crosses the wire: the far fleet drops the
/// job unclaimed and counts it, observable through wire stats.
#[test]
fn cancellation_propagates_to_the_far_fleet() {
    let server = NetServer::bind_tcp(stalling_fleet(Duration::from_millis(150)), "127.0.0.1:0")
        .expect("bind");
    let session =
        NetSession::connect_with(server.local_endpoint(), chaos_config()).expect("connect");

    // Job 1 occupies the single stalling card; job 2 sits queued.
    let first = session
        .submit(ProductRequest::new(UBig::from(3u64), UBig::from(3u64)))
        .expect("submit");
    thread::sleep(Duration::from_millis(30));
    let second = session
        .submit(ProductRequest::new(UBig::from(5u64), UBig::from(5u64)))
        .expect("submit");
    second.cancel();

    assert_eq!(first.wait().expect("first job served"), UBig::from(9u64));

    // The cancel is swept on a reader tick, crosses the wire, and the
    // far pool drops the queued job at claim time.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = session.stats().expect("stats");
        if stats.cancelled >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancellation never reached the far fleet: {stats:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
    session.close();
    server.shutdown();
}
