//! Property tests for the wire codec: every frame type round-trips
//! bit-identically, every damaged frame is a *typed* rejection, and the
//! decoder is panic-proof on arbitrary and adversarially mutated bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use he_accel::ServeStats;
use he_bigint::UBig;
use he_net::wire::{Frame, WireError, WireFailure, WireOperand, DEFAULT_MAX_FRAME_BYTES};
use proptest::prelude::*;

fn ubig() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u8>(), 0..200).prop_map(|b| UBig::from_le_bytes(&b))
}

fn operand() -> impl Strategy<Value = WireOperand> {
    (any::<bool>(), ubig(), any::<u64>()).prop_map(|(inline, value, pin)| {
        if inline {
            WireOperand::Inline(value)
        } else {
            WireOperand::Pinned(pin)
        }
    })
}

fn text() -> impl Strategy<Value = String> {
    // Printable ASCII plus an occasional multi-byte suffix to exercise
    // the byte-length (not char-count) accounting of strings.
    (proptest::collection::vec(32u8..127, 0..24), any::<bool>()).prop_map(|(bytes, wide)| {
        let mut s = String::from_utf8(bytes).expect("printable ascii");
        if wide {
            s.push('γ');
        }
        s
    })
}

fn failure() -> impl Strategy<Value = WireFailure> {
    (0u8..4, any::<u64>(), text(), text(), any::<u32>()).prop_map(
        |(sel, nanos, kind, detail, attempts)| match sel {
            0 => WireFailure::Expired {
                missed_by_nanos: nanos,
            },
            1 => WireFailure::Backend { kind, detail },
            2 => WireFailure::Poisoned { attempts },
            _ => WireFailure::Closed,
        },
    )
}

/// The [`ServeStats`] whose 16 wire fields are `f`, in wire order.
fn stats_of(f: &[u64]) -> ServeStats {
    ServeStats {
        flushes: f[0],
        completed: f[1],
        failed: f[2],
        expired_in_queue: f[3],
        expired_in_flush: f[4],
        cancelled: f[5],
        shed: f[6],
        cache_hits: f[7],
        cache_misses: f[8],
        pinned_hits: f[9],
        largest_flush: f[10] as usize,
        idle_trims: f[11],
        retried: f[12],
        reruns: f[13],
        restarts: f[14],
        poisoned: f[15],
    }
}

fn stats() -> impl Strategy<Value = ServeStats> {
    proptest::collection::vec(any::<u64>(), 16).prop_map(|f| stats_of(&f))
}

/// Every frame variant the protocol speaks, with arbitrary payloads:
/// a selector picks the variant, the rest of the tuple supplies parts.
fn frame() -> impl Strategy<Value = Frame> {
    (
        (0u8..10, any::<u64>()),
        (operand(), operand(), any::<bool>(), any::<u64>()),
        (ubig(), failure(), stats()),
    )
        .prop_map(
            |((sel, id), (a, b, with_deadline, nanos), (value, error, stats))| match sel {
                0 => Frame::Submit {
                    req_id: id,
                    a,
                    b,
                    deadline_nanos: with_deadline.then_some(nanos),
                },
                1 => Frame::Register {
                    pin: id,
                    operand: value,
                },
                2 => Frame::Unregister { pin: id },
                3 => Frame::Cancel { req_id: id },
                4 => Frame::StatsRequest { req_id: id },
                5 => Frame::Ping { req_id: id },
                6 => Frame::Product { req_id: id, value },
                7 => Frame::Failure { req_id: id, error },
                8 => Frame::Stats { req_id: id, stats },
                _ => Frame::Pong { req_id: id },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, for every frame type, and the
    /// decoder consumes exactly the encoded length.
    #[test]
    fn every_frame_round_trips(frame in frame()) {
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES)
            .expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, frame);
        // Bit-identity the other way: re-encoding the decodate is the
        // same byte string (the format has exactly one encoding per
        // frame).
        let (decoded, _) = Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Any truncation of a valid frame is rejected as `Truncated` —
    /// typed, no panic, no allocation sized from the missing bytes.
    #[test]
    fn truncations_are_typed(frame in frame(), cut in any::<usize>()) {
        let bytes = frame.encode();
        let cut = cut % bytes.len();
        let result = Frame::decode(&bytes[..cut], DEFAULT_MAX_FRAME_BYTES);
        prop_assert_eq!(result.unwrap_err(), WireError::Truncated);
    }

    /// A single flipped bit anywhere in a frame either still decodes (the
    /// bit was payload) or is a typed rejection — never a panic.
    #[test]
    fn bit_flips_never_panic(
        frame in frame(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = frame.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            Ok(_) | Err(_) => {}
        }
    }

    /// The decoder is total on arbitrary byte strings.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            Ok(_) | Err(_) => {}
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The issue's acceptance gate, as a deterministic sweep: ≥256 mutated
/// frames through the decoder under `catch_unwind`, zero panics. Each
/// round takes a valid frame from a corpus covering every opcode and
/// applies a seeded mutation — byte flips, truncation, extension, or a
/// splice into the length prefix (the attack the frame cap exists for).
#[test]
fn byte_mutation_sweep_zero_panics() {
    let corpus: Vec<Frame> = vec![
        Frame::Submit {
            req_id: 7,
            a: WireOperand::Inline(UBig::from_le_bytes(&[0xff; 96])),
            b: WireOperand::Pinned(3),
            deadline_nanos: Some(1_000_000),
        },
        Frame::Register {
            pin: 1,
            operand: UBig::from_le_bytes(&[0xab; 64]),
        },
        Frame::Unregister { pin: 1 },
        Frame::Cancel { req_id: 7 },
        Frame::StatsRequest { req_id: 8 },
        Frame::Ping { req_id: 9 },
        Frame::Product {
            req_id: 7,
            value: UBig::from_le_bytes(&[0x5a; 192]),
        },
        Frame::Failure {
            req_id: 7,
            error: WireFailure::Backend {
                kind: "device".into(),
                detail: "device fault: dma glitch".into(),
            },
        },
        Frame::Stats {
            req_id: 8,
            // Every field non-zero and distinct, so a mutation in any of
            // the 16 is a real change.
            stats: stats_of(&(1..=16).collect::<Vec<u64>>()),
        },
        Frame::Pong { req_id: 9 },
    ];
    let mut seed = 0x00c1_1a2d_0a16_u64; // fixed: the sweep is reproducible
    let mut mutated = 0u32;
    let mut panics = 0u32;
    for round in 0..512 {
        let frame = &corpus[round % corpus.len()];
        let mut bytes = frame.encode();
        match splitmix64(&mut seed) % 4 {
            0 => {
                // Flip 1–4 bytes anywhere, including the prefix.
                for _ in 0..=(splitmix64(&mut seed) % 4) {
                    let pos = (splitmix64(&mut seed) % bytes.len() as u64) as usize;
                    bytes[pos] ^= splitmix64(&mut seed) as u8;
                }
            }
            1 => {
                let cut = (splitmix64(&mut seed) % bytes.len() as u64) as usize;
                bytes.truncate(cut);
            }
            2 => {
                // Trailing garbage after a complete frame.
                let extra = 1 + (splitmix64(&mut seed) % 32) as usize;
                for _ in 0..extra {
                    bytes.push(splitmix64(&mut seed) as u8);
                }
            }
            _ => {
                // Hostile length prefix: claim up to u32::MAX of body.
                let claim = splitmix64(&mut seed) as u32;
                bytes[..4].copy_from_slice(&claim.to_le_bytes());
            }
        }
        mutated += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES)
        }));
        if outcome.is_err() {
            panics += 1;
        }
    }
    assert!(
        mutated >= 256,
        "sweep must cover at least 256 mutated frames"
    );
    assert_eq!(panics, 0, "decoder panicked on mutated input");
}

/// A length prefix claiming more than the cap is rejected before any
/// allocation is sized from it — even when the claim is `u32::MAX`.
#[test]
fn hostile_prefix_rejected_before_allocation() {
    let mut bytes = Frame::Ping { req_id: 1 }.encode();
    bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    match Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
        Err(WireError::Oversized { claimed, cap }) => {
            assert_eq!(claimed, u32::MAX as u64);
            assert_eq!(cap, DEFAULT_MAX_FRAME_BYTES);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    // A tighter cap applies to well-formed frames too: the same valid
    // frame decodes under the default cap but not under an 8-byte one.
    let bytes = Frame::Ping { req_id: 1 }.encode();
    assert!(Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES).is_ok());
    assert!(matches!(
        Frame::decode(&bytes, 8),
        Err(WireError::Oversized { .. })
    ));
}
