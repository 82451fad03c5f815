//! Loopback integration: real DGHV circuits over a real socket.
//!
//! The acceptance bar is *bit-exactness*: an `and_tree` / `mux_many`
//! evaluated through a [`NetSession`] over TCP (and a Unix socket) must
//! produce byte-identical ciphertexts to the same circuit run against an
//! in-process [`ServerPool`] — the wire must be invisible to the
//! algebra. Pinned-operand sessions are exercised across the wire too:
//! the far fleet's `pinned_hits` must be observable through
//! [`NetSession::stats`].

use he_accel::prelude::*;
use he_dghv::{Ciphertext, CircuitEvaluator, DghvParams, KeyPair};
use he_net::{NetServer, NetSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet(cards: usize) -> ServerPool {
    ServerPool::with_backend_factory(
        cards,
        |_card| EvalEngine::new(SsaSoftware::for_operand_bits(2048).expect("fits")),
        ServeConfig::default(),
    )
}

struct Fixture {
    keys: KeyPair,
    bits: Vec<bool>,
    cts: Vec<Ciphertext>,
    sel: bool,
    sel_ct: Ciphertext,
    a_bits: Vec<bool>,
    a_cts: Vec<Ciphertext>,
    b_bits: Vec<bool>,
    b_cts: Vec<Ciphertext>,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).expect("tiny params generate");
    let bits = vec![true, true, false, true, true, true];
    let cts = bits
        .iter()
        .map(|&b| keys.public().encrypt(b, &mut rng))
        .collect();
    let sel = true;
    let sel_ct = keys.public().encrypt(sel, &mut rng);
    let a_bits = vec![true, false, true, false];
    let a_cts = a_bits
        .iter()
        .map(|&b| keys.public().encrypt(b, &mut rng))
        .collect();
    let b_bits = vec![false, false, true, true];
    let b_cts = b_bits
        .iter()
        .map(|&b| keys.public().encrypt(b, &mut rng))
        .collect();
    Fixture {
        keys,
        bits,
        cts,
        sel,
        sel_ct,
        a_bits,
        a_cts,
        b_bits,
        b_cts,
    }
}

/// Runs both circuits through `backend`, returning the AND-tree root and
/// the mux output vector.
fn run_circuits<M: Multiplier>(fx: &Fixture, backend: &M) -> (Ciphertext, Vec<Ciphertext>) {
    let eval = CircuitEvaluator::new(fx.keys.public(), backend);
    let root = eval.and_tree(&fx.cts).expect("and_tree within budget");
    let muxed = eval
        .mux_many(&fx.sel_ct, &fx.a_cts, &fx.b_cts)
        .expect("mux within budget");
    (root, muxed)
}

#[test]
fn dghv_circuits_over_tcp_are_bit_exact() {
    let fx = fixture(0x10_0b_ac_c5);

    // Ground truth: the same fleet shape, in process.
    let local_pool = fleet(2);
    let (local_root, local_mux) = {
        let backend = ServedMultiplier::new(&local_pool);
        run_circuits(&fx, &backend)
    };
    local_pool.shutdown();

    // Same circuits, but every product crosses a TCP socket.
    let server = NetServer::bind_tcp(fleet(2), "127.0.0.1:0").expect("bind");
    let session = NetSession::connect(server.local_endpoint()).expect("connect");
    let (net_root, net_mux) = {
        let backend = ServedMultiplier::new(&session);
        run_circuits(&fx, &backend)
    };

    // Bit-exact: the wire is invisible to the ciphertext algebra.
    assert_eq!(net_root, local_root);
    assert_eq!(net_mux, local_mux);

    // And semantically correct end to end.
    let expected_root = fx.bits.iter().fold(true, |acc, &b| acc & b);
    assert_eq!(fx.keys.secret().decrypt(&net_root), expected_root);
    for (i, ct) in net_mux.iter().enumerate() {
        let expected = if fx.sel { fx.a_bits[i] } else { fx.b_bits[i] };
        assert_eq!(fx.keys.secret().decrypt(ct), expected, "mux bit {i}");
    }

    let stats = server.shutdown().total();
    assert!(stats.completed > 0, "products must have crossed the wire");
    session.close();
}

#[cfg(unix)]
#[test]
fn dghv_and_tree_over_unix_socket_is_bit_exact() {
    let fx = fixture(0x5e_ed_02);

    let local_pool = fleet(1);
    let local_root = {
        let backend = ServedMultiplier::new(&local_pool);
        let eval = CircuitEvaluator::new(fx.keys.public(), &backend);
        eval.and_tree(&fx.cts).expect("and_tree within budget")
    };
    local_pool.shutdown();

    let path = std::env::temp_dir().join(format!("he-net-loopback-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = NetServer::bind_unix(fleet(1), &path).expect("bind unix");
    let session = NetSession::connect(server.local_endpoint()).expect("connect unix");
    let net_root = {
        let backend = ServedMultiplier::new(&session);
        let eval = CircuitEvaluator::new(fx.keys.public(), &backend);
        eval.and_tree(&fx.cts).expect("and_tree within budget")
    };
    assert_eq!(net_root, local_root);
    assert_eq!(
        fx.keys.secret().decrypt(&net_root),
        fx.bits.iter().fold(true, |acc, &b| acc & b)
    );
    server.shutdown();
    // The socket file is unlinked by shutdown.
    assert!(!path.exists(), "unix socket path must be cleaned up");
}

#[test]
fn pinned_sessions_hit_across_the_wire() {
    let server = NetServer::bind_tcp(fleet(2), "127.0.0.1:0").expect("bind");
    let session = NetSession::connect(server.local_endpoint()).expect("connect");

    // The recurring operand crosses the wire once…
    let mask = UBig::from(1_000_003u64);
    session.register("mask", mask).expect("register");
    assert_eq!(session.registered(), 1);

    // …and a stream of fresh operands multiplies against it by pin id.
    let streak = 24u64;
    let tickets: Vec<ProductTicket> = (2..2 + streak)
        .map(|k| session.submit_with("mask", UBig::from(k)).expect("submit"))
        .collect();
    for (k, ticket) in (2..2 + streak).zip(tickets) {
        assert_eq!(
            ticket.wait().expect("served"),
            UBig::from(k * 1_000_003),
            "pinned product {k}"
        );
    }

    // Both-pinned products too (submit_between over the wire).
    let other = UBig::from(999_983u64);
    session.register("other", other).expect("register");
    let between = session.submit_between("mask", "other").expect("submit");
    assert_eq!(
        between.wait().expect("served"),
        UBig::from(1_000_003u64) * UBig::from(999_983u64)
    );

    // The far fleet's pinned-cache hits are visible through the wire
    // stats round trip.
    // Each of the 2 cards prepares the pin on first touch (a miss);
    // everything after resolves hash-free from the pinned cache.
    let stats = session.stats().expect("stats over the wire");
    assert!(
        stats.pinned_hits >= streak - 2,
        "expected ≥{} pinned hits, saw {}",
        streak - 2,
        stats.pinned_hits
    );

    // Unregister releases the pin server-side; a later stats call still
    // answers (the connection is healthy after session traffic).
    session.unregister("mask");
    session.ping().expect("ping after unregister");
    server.shutdown();
}
