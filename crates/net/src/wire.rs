//! The versioned, length-prefixed binary framing.
//!
//! This extends `he-dghv::serialize`'s conventions — little-endian
//! fixed-width integers, length-prefixed byte strings, a version byte,
//! typed errors on anything malformed — from ciphertexts at rest to the
//! serving fleet's live traffic: product jobs, results, typed
//! [`ServeError`]s, and session state (register/pin, cancel, stats).
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌────────────┬─────────┬────────────┬───────────────┬──────────────┐
//! │ len: u32   │ ver: u8 │ opcode: u8 │ req_id: u64   │ payload      │
//! │ (of body)  │  (= 2)  │            │               │ (per opcode) │
//! └────────────┴─────────┴────────────┴───────────────┴──────────────┘
//! ```
//!
//! with all integers little-endian. `len` counts the body (everything
//! after the prefix itself) and is validated against a caller-supplied
//! cap **before** any allocation is sized by it — a hostile length
//! prefix yields [`WireError::Oversized`], never an allocator call. The
//! codec sits on a trust boundary: [`Frame::decode`] must return a typed
//! [`WireError`] (never panic, never allocate unboundedly) on *any* byte
//! string, a property the proptest suite enforces with a seeded
//! byte-mutation sweep.

use std::time::Duration;

use he_accel::{MultiplyError, ServeError, ServeStats};
use he_bigint::UBig;

/// Protocol version carried by every frame.
pub const WIRE_VERSION: u8 = 2;

/// Bytes of the length prefix, the only part of a frame read blind.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Bytes of the body header (version, opcode, request id).
pub const BODY_HEADER_BYTES: usize = 1 + 1 + 8;

/// Default cap on one frame's body, in bytes: comfortably above two
/// paper-scale 786,432-bit operands per submission (~200 KB), far below
/// anything that could pressure the allocator on a malicious prefix.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 26;

/// Why a byte string failed to decode as a frame. Every variant is a
/// **typed rejection** — the decoder never panics on hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does (short prefix, short body,
    /// or an inner length field pointing past the body's end).
    Truncated,
    /// The length prefix claims a body above the frame cap — rejected
    /// before the length sizes anything.
    Oversized {
        /// The body length the prefix claimed.
        claimed: u64,
        /// The cap it exceeded.
        cap: usize,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The opcode byte names no known frame type.
    UnknownOpcode(u8),
    /// A structurally invalid body (bad enum tag, non-UTF-8 string, …).
    Malformed(&'static str),
    /// The body parsed but left unconsumed bytes — a framing bug or a
    /// tampered frame, not tolerated silently.
    Trailing {
        /// Unconsumed bytes after the body parsed.
        extra: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { claimed, cap } => {
                write!(f, "frame length {claimed} exceeds the {cap}-byte cap")
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One side of a submitted product on the wire: the operand's bytes, or
/// the id of an operand previously pinned with [`Frame::Register`] — the
/// pinned form is the whole host-interface win, shipping 8 bytes where
/// the inline form ships ~100 KB at paper scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOperand {
    /// The operand travels with the job.
    Inline(UBig),
    /// The operand was registered earlier under this id.
    Pinned(u64),
}

/// A [`ServeError`] in transit. The error *family* and rendered detail
/// cross the wire; in-process payloads (backend error enums) do not —
/// they decode to [`MultiplyError::Remote`] with the family preserved in
/// `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFailure {
    /// [`ServeError::Expired`], with the miss encoded in nanoseconds.
    Expired {
        /// How far past its deadline the job was.
        missed_by_nanos: u64,
    },
    /// [`ServeError::Multiply`]: the backend error's family and message.
    Backend {
        /// Error family: `"ssa"`, `"hwsim"`, `"handle-mismatch"`,
        /// `"device"`, `"protocol"`, or a forwarded remote kind.
        kind: String,
        /// The rendered error message.
        detail: String,
    },
    /// [`ServeError::Poisoned`] after `attempts` flush strikes.
    Poisoned {
        /// Flushes the job took down before quarantine.
        attempts: u32,
    },
    /// [`ServeError::Closed`].
    Closed,
}

impl WireFailure {
    /// Encodes a [`ServeError`] for transit.
    pub fn from_serve(error: &ServeError) -> WireFailure {
        match error {
            ServeError::Expired { missed_by } => WireFailure::Expired {
                missed_by_nanos: missed_by.as_nanos().min(u64::MAX as u128) as u64,
            },
            ServeError::Multiply(e) => WireFailure::Backend {
                kind: match e {
                    MultiplyError::Ssa(_) => "ssa".to_string(),
                    MultiplyError::HwSim(_) => "hwsim".to_string(),
                    MultiplyError::HandleMismatch { .. } => "handle-mismatch".to_string(),
                    MultiplyError::Device(_) => "device".to_string(),
                    MultiplyError::Remote { kind, .. } => kind.clone(),
                },
                detail: match e {
                    // A relayed remote error keeps its original detail;
                    // re-wrapping its Display form would stack a
                    // "remote … error:" prefix per hop.
                    MultiplyError::Remote { detail, .. } => detail.clone(),
                    other => other.to_string(),
                },
            },
            ServeError::Poisoned { attempts } => WireFailure::Poisoned {
                attempts: *attempts,
            },
            ServeError::Closed => WireFailure::Closed,
        }
    }

    /// Reconstitutes the typed [`ServeError`] on the receiving side.
    pub fn into_serve(self) -> ServeError {
        match self {
            WireFailure::Expired { missed_by_nanos } => ServeError::Expired {
                missed_by: Duration::from_nanos(missed_by_nanos),
            },
            WireFailure::Backend { kind, detail } => {
                // Device faults keep their local type (they are defined
                // by message alone); everything else becomes a typed
                // remote error with the family preserved.
                ServeError::Multiply(if kind == "device" {
                    let msg = detail
                        .strip_prefix("device fault: ")
                        .unwrap_or(&detail)
                        .to_string();
                    MultiplyError::Device(msg)
                } else {
                    MultiplyError::Remote { kind, detail }
                })
            }
            WireFailure::Poisoned { attempts } => ServeError::Poisoned { attempts },
            WireFailure::Closed => ServeError::Closed,
        }
    }
}

/// Every message the protocol speaks, client→server and server→client.
///
/// `req_id` correlates a client's request with the server's answer;
/// frames that need no correlation (session ops) still carry the slot so
/// every frame shares one header shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client→server: one product job.
    Submit {
        /// Correlates with the answering [`Frame::Product`]/[`Frame::Failure`].
        req_id: u64,
        /// Left operand.
        a: WireOperand,
        /// Right operand.
        b: WireOperand,
        /// Deadline as *remaining* nanoseconds (absolute instants do not
        /// cross machines); the server re-anchors it on arrival.
        deadline_nanos: Option<u64>,
    },
    /// Client→server: pin `operand` under `pin` on this connection's
    /// session — subsequent [`WireOperand::Pinned`] submissions resolve
    /// it hash-free, and the operand's bytes never travel again.
    Register {
        /// The client-chosen pin id.
        pin: u64,
        /// The operand to pin.
        operand: UBig,
    },
    /// Client→server: release a pin.
    Unregister {
        /// The pin id to release.
        pin: u64,
    },
    /// Client→server: withdraw the job submitted under `req_id`
    /// (best-effort, like [`he_accel::ProductTicket::cancel`]).
    Cancel {
        /// The submission to withdraw.
        req_id: u64,
    },
    /// Client→server: request the fleet's rolled-up [`ServeStats`].
    StatsRequest {
        /// Correlates with the answering [`Frame::Stats`].
        req_id: u64,
    },
    /// Client→server: liveness probe.
    Ping {
        /// Correlates with the answering [`Frame::Pong`].
        req_id: u64,
    },
    /// Server→client: the product for `req_id`.
    Product {
        /// The submission this answers.
        req_id: u64,
        /// The product.
        value: UBig,
    },
    /// Server→client: the typed failure for `req_id`.
    Failure {
        /// The submission this answers.
        req_id: u64,
        /// The typed failure.
        error: WireFailure,
    },
    /// Server→client: the fleet's rolled-up counters.
    Stats {
        /// The stats request this answers.
        req_id: u64,
        /// The fleet-wide [`ServeStats`] roll-up.
        stats: ServeStats,
    },
    /// Server→client: liveness answer.
    Pong {
        /// The ping this answers.
        req_id: u64,
    },
}

const OP_SUBMIT: u8 = 0x01;
const OP_REGISTER: u8 = 0x02;
const OP_UNREGISTER: u8 = 0x03;
const OP_CANCEL: u8 = 0x04;
const OP_STATS_REQUEST: u8 = 0x05;
const OP_PING: u8 = 0x06;
const OP_PRODUCT: u8 = 0x81;
const OP_FAILURE: u8 = 0x82;
const OP_STATS: u8 = 0x83;
const OP_PONG: u8 = 0x84;

const OPERAND_INLINE: u8 = 0;
const OPERAND_PINNED: u8 = 1;

const FAILURE_EXPIRED: u8 = 0;
const FAILURE_BACKEND: u8 = 1;
const FAILURE_POISONED: u8 = 2;
const FAILURE_CLOSED: u8 = 3;

// ---------------------------------------------------------------- encode

/// One side of a submission as the encoder reads it: borrowed, so a
/// client encodes straight from the request it holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OperandRef<'a> {
    Inline(&'a UBig),
    Pinned(u64),
}

impl WireOperand {
    fn borrowed(&self) -> OperandRef<'_> {
        match self {
            WireOperand::Inline(value) => OperandRef::Inline(value),
            WireOperand::Pinned(id) => OperandRef::Pinned(*id),
        }
    }
}

/// The length prefix and body header of a frame whose payload takes
/// `payload` bytes, in a buffer with room for exactly that payload: a
/// frame is sized once and never grows.
fn frame_buffer(opcode: u8, correlation: u64, payload: usize) -> Vec<u8> {
    let body = BODY_HEADER_BYTES + payload;
    let mut out = Vec::with_capacity(LEN_PREFIX_BYTES + body);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(opcode);
    out.extend_from_slice(&correlation.to_le_bytes());
    out
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn bytes_len(bytes: &[u8]) -> usize {
    4 + bytes.len()
}

/// Significant bytes of `value`: its little-endian bytes without the
/// top limb's zero bytes.
fn ubig_bytes(value: &UBig) -> usize {
    value.bit_len().div_ceil(8)
}

/// Writes `value` as a length-prefixed byte string straight from its
/// limbs.
fn put_ubig(out: &mut Vec<u8>, value: &UBig) {
    let len = ubig_bytes(value);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    for (i, limb) in value.as_limbs().iter().enumerate() {
        let bytes = limb.to_le_bytes();
        out.extend_from_slice(&bytes[..len.saturating_sub(8 * i).min(8)]);
    }
}

fn ubig_len(value: &UBig) -> usize {
    4 + ubig_bytes(value)
}

fn put_operand(out: &mut Vec<u8>, operand: OperandRef<'_>) {
    match operand {
        OperandRef::Inline(value) => {
            out.push(OPERAND_INLINE);
            put_ubig(out, value);
        }
        OperandRef::Pinned(id) => {
            out.push(OPERAND_PINNED);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

fn operand_len(operand: OperandRef<'_>) -> usize {
    1 + match operand {
        OperandRef::Inline(value) => ubig_len(value),
        OperandRef::Pinned(_) => 8,
    }
}

fn put_failure(out: &mut Vec<u8>, failure: &WireFailure) {
    match failure {
        WireFailure::Expired { missed_by_nanos } => {
            out.push(FAILURE_EXPIRED);
            out.extend_from_slice(&missed_by_nanos.to_le_bytes());
        }
        WireFailure::Backend { kind, detail } => {
            out.push(FAILURE_BACKEND);
            put_bytes(out, kind.as_bytes());
            put_bytes(out, detail.as_bytes());
        }
        WireFailure::Poisoned { attempts } => {
            out.push(FAILURE_POISONED);
            out.extend_from_slice(&attempts.to_le_bytes());
        }
        WireFailure::Closed => out.push(FAILURE_CLOSED),
    }
}

fn failure_len(failure: &WireFailure) -> usize {
    1 + match failure {
        WireFailure::Expired { .. } => 8,
        WireFailure::Backend { kind, detail } => {
            bytes_len(kind.as_bytes()) + bytes_len(detail.as_bytes())
        }
        WireFailure::Poisoned { .. } => 4,
        WireFailure::Closed => 0,
    }
}

/// Encodes a complete [`Frame::Submit`] from borrowed operands — the
/// bytes `Frame::Submit { .. }.encode()` writes, without owning a copy
/// of either operand first.
pub(crate) fn encode_submit(
    req_id: u64,
    a: OperandRef<'_>,
    b: OperandRef<'_>,
    deadline_nanos: Option<u64>,
) -> Vec<u8> {
    let deadline_len = if deadline_nanos.is_some() { 9 } else { 1 };
    let payload = deadline_len + operand_len(a) + operand_len(b);
    let mut out = frame_buffer(OP_SUBMIT, req_id, payload);
    match deadline_nanos {
        Some(nanos) => {
            out.push(1);
            out.extend_from_slice(&nanos.to_le_bytes());
        }
        None => out.push(0),
    }
    put_operand(&mut out, a);
    put_operand(&mut out, b);
    out
}

/// `u64`s in a [`Frame::Stats`] payload.
const STATS_FIELDS: usize = 16;

/// [`ServeStats`] fields, in wire order. One place owns the order so the
/// encoder, the decoder, and the field-count stay in lockstep.
fn stats_fields(stats: &ServeStats) -> [u64; STATS_FIELDS] {
    [
        stats.flushes,
        stats.completed,
        stats.failed,
        stats.expired_in_queue,
        stats.expired_in_flush,
        stats.cancelled,
        stats.shed,
        stats.cache_hits,
        stats.cache_misses,
        stats.pinned_hits,
        stats.largest_flush as u64,
        stats.idle_trims,
        stats.retried,
        stats.reruns,
        stats.restarts,
        stats.poisoned,
    ]
}

fn stats_from_fields(fields: [u64; STATS_FIELDS]) -> ServeStats {
    ServeStats {
        flushes: fields[0],
        completed: fields[1],
        failed: fields[2],
        expired_in_queue: fields[3],
        expired_in_flush: fields[4],
        cancelled: fields[5],
        shed: fields[6],
        cache_hits: fields[7],
        cache_misses: fields[8],
        pinned_hits: fields[9],
        largest_flush: fields[10] as usize,
        idle_trims: fields[11],
        retried: fields[12],
        reruns: fields[13],
        restarts: fields[14],
        poisoned: fields[15],
    }
}

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Submit { .. } => OP_SUBMIT,
            Frame::Register { .. } => OP_REGISTER,
            Frame::Unregister { .. } => OP_UNREGISTER,
            Frame::Cancel { .. } => OP_CANCEL,
            Frame::StatsRequest { .. } => OP_STATS_REQUEST,
            Frame::Ping { .. } => OP_PING,
            Frame::Product { .. } => OP_PRODUCT,
            Frame::Failure { .. } => OP_FAILURE,
            Frame::Stats { .. } => OP_STATS,
            Frame::Pong { .. } => OP_PONG,
        }
    }

    fn correlation(&self) -> u64 {
        match self {
            Frame::Submit { req_id, .. }
            | Frame::Cancel { req_id }
            | Frame::StatsRequest { req_id }
            | Frame::Ping { req_id }
            | Frame::Product { req_id, .. }
            | Frame::Failure { req_id, .. }
            | Frame::Stats { req_id, .. }
            | Frame::Pong { req_id } => *req_id,
            Frame::Register { pin, .. } | Frame::Unregister { pin } => *pin,
        }
    }

    /// Encodes the complete frame, length prefix included, into one
    /// buffer sized once.
    pub fn encode(&self) -> Vec<u8> {
        let payload = match self {
            // The one submit encoder, which clients call on borrowed
            // operands.
            Frame::Submit {
                req_id,
                a,
                b,
                deadline_nanos,
            } => return encode_submit(*req_id, a.borrowed(), b.borrowed(), *deadline_nanos),
            Frame::Register { operand: value, .. } | Frame::Product { value, .. } => {
                ubig_len(value)
            }
            Frame::Failure { error, .. } => failure_len(error),
            Frame::Stats { .. } => 8 * STATS_FIELDS,
            Frame::Unregister { .. }
            | Frame::Cancel { .. }
            | Frame::StatsRequest { .. }
            | Frame::Ping { .. }
            | Frame::Pong { .. } => 0,
        };
        let mut out = frame_buffer(self.opcode(), self.correlation(), payload);
        match self {
            Frame::Register { operand: value, .. } | Frame::Product { value, .. } => {
                put_ubig(&mut out, value)
            }
            Frame::Failure { error, .. } => put_failure(&mut out, error),
            Frame::Stats { stats, .. } => {
                for field in stats_fields(stats) {
                    out.extend_from_slice(&field.to_le_bytes());
                }
            }
            Frame::Submit { .. }
            | Frame::Unregister { .. }
            | Frame::Cancel { .. }
            | Frame::StatsRequest { .. }
            | Frame::Ping { .. }
            | Frame::Pong { .. } => {}
        }
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// bytes consumed. `max_frame` caps the body length a prefix may
    /// claim — checked **before** anything is sized by the claim.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] on any malformed, truncated, oversized, or
    /// tampered input; this function never panics on arbitrary bytes.
    pub fn decode(buf: &[u8], max_frame: usize) -> Result<(Frame, usize), WireError> {
        let prefix: [u8; LEN_PREFIX_BYTES] = buf
            .get(..LEN_PREFIX_BYTES)
            .and_then(|s| s.try_into().ok())
            .ok_or(WireError::Truncated)?;
        let body_len = u32::from_le_bytes(prefix) as u64;
        if body_len > max_frame as u64 {
            return Err(WireError::Oversized {
                claimed: body_len,
                cap: max_frame,
            });
        }
        let body = buf
            .get(LEN_PREFIX_BYTES..LEN_PREFIX_BYTES + body_len as usize)
            .ok_or(WireError::Truncated)?;
        let frame = decode_body(body)?;
        Ok((frame, LEN_PREFIX_BYTES + body_len as usize))
    }
}

// ---------------------------------------------------------------- decode

/// A bounds-checked reading head over one frame body.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    /// A length-prefixed byte string. The length is validated against
    /// the bytes actually present (the body is already under the frame
    /// cap), so it can never size an allocation beyond the buffer.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn ubig(&mut self) -> Result<UBig, WireError> {
        Ok(UBig::from_le_bytes(self.bytes()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        core::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn operand(&mut self) -> Result<WireOperand, WireError> {
        match self.u8()? {
            OPERAND_INLINE => Ok(WireOperand::Inline(self.ubig()?)),
            OPERAND_PINNED => Ok(WireOperand::Pinned(self.u64()?)),
            _ => Err(WireError::Malformed("unknown operand tag")),
        }
    }

    fn failure(&mut self) -> Result<WireFailure, WireError> {
        match self.u8()? {
            FAILURE_EXPIRED => Ok(WireFailure::Expired {
                missed_by_nanos: self.u64()?,
            }),
            FAILURE_BACKEND => Ok(WireFailure::Backend {
                kind: self.string()?,
                detail: self.string()?,
            }),
            FAILURE_POISONED => Ok(WireFailure::Poisoned {
                attempts: self.u32()?,
            }),
            FAILURE_CLOSED => Ok(WireFailure::Closed),
            _ => Err(WireError::Malformed("unknown failure tag")),
        }
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader { buf: body };
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let opcode = r.u8()?;
    let correlation = r.u64()?;
    let frame = match opcode {
        OP_SUBMIT => {
            let deadline_nanos = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(WireError::Malformed("unknown deadline tag")),
            };
            Frame::Submit {
                req_id: correlation,
                a: r.operand()?,
                b: r.operand()?,
                deadline_nanos,
            }
        }
        OP_REGISTER => Frame::Register {
            pin: correlation,
            operand: r.ubig()?,
        },
        OP_UNREGISTER => Frame::Unregister { pin: correlation },
        OP_CANCEL => Frame::Cancel {
            req_id: correlation,
        },
        OP_STATS_REQUEST => Frame::StatsRequest {
            req_id: correlation,
        },
        OP_PING => Frame::Ping {
            req_id: correlation,
        },
        OP_PRODUCT => Frame::Product {
            req_id: correlation,
            value: r.ubig()?,
        },
        OP_FAILURE => Frame::Failure {
            req_id: correlation,
            error: r.failure()?,
        },
        OP_STATS => {
            let mut fields = [0u64; STATS_FIELDS];
            for field in fields.iter_mut() {
                *field = r.u64()?;
            }
            Frame::Stats {
                req_id: correlation,
                stats: stats_from_fields(fields),
            }
        }
        OP_PONG => Frame::Pong {
            req_id: correlation,
        },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    if !r.buf.is_empty() {
        return Err(WireError::Trailing { extra: r.buf.len() });
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_frame_round_trips() {
        let frame = Frame::Submit {
            req_id: 42,
            a: WireOperand::Inline(UBig::from(123_456_789u64)),
            b: WireOperand::Pinned(7),
            deadline_nanos: Some(5_000_000),
        };
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_sizing() {
        let mut bytes = Frame::Pong { req_id: 1 }.encode();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            Err(WireError::Oversized { claimed, cap }) => {
                assert_eq!(claimed, u32::MAX as u64);
                assert_eq!(cap, DEFAULT_MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_and_opcode_are_typed() {
        let mut bytes = Frame::Ping { req_id: 9 }.encode();
        bytes[4] = 99;
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::BadVersion(99))
        );
        // A version-1 peer's stats frame carried 17 fields: it is
        // refused by its version byte, before its payload is read.
        let mut bytes = Frame::Stats {
            req_id: 9,
            stats: ServeStats::default(),
        }
        .encode();
        bytes[4] = 1;
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let body_len = (bytes.len() - LEN_PREFIX_BYTES) as u32;
        bytes[..LEN_PREFIX_BYTES].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::BadVersion(1))
        );
        let mut bytes = Frame::Ping { req_id: 9 }.encode();
        bytes[5] = 0x7f;
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::UnknownOpcode(0x7f))
        );
    }

    #[test]
    fn failures_reconstitute_typed_serve_errors() {
        let cases = [
            ServeError::Expired {
                missed_by: Duration::from_millis(3),
            },
            ServeError::Multiply(MultiplyError::Device("dma glitch".into())),
            ServeError::Poisoned { attempts: 4 },
            ServeError::Closed,
        ];
        for error in cases {
            let reconstituted = WireFailure::from_serve(&error).into_serve();
            assert_eq!(reconstituted, error, "round-trip of {error:?}");
        }
        // Non-device backend errors come back as typed remote errors
        // with the family preserved.
        let mismatch = ServeError::Multiply(MultiplyError::Remote {
            kind: "handle-mismatch".into(),
            detail: "prepared elsewhere".into(),
        });
        assert_eq!(WireFailure::from_serve(&mismatch).into_serve(), mismatch);
    }

    /// FNV-1a: a toolchain-independent fingerprint of a frame's bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `limbs` limbs of a fixed pattern, the top one three bytes wide so
    /// the encoder writes a partial limb.
    fn patterned(limbs: usize, seed: u64) -> UBig {
        let mut value: Vec<u64> = (0..limbs as u64)
            .map(|i| (i + seed).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        if let Some(top) = value.last_mut() {
            *top = 0x00ab_cdef | 1 << 20;
        }
        UBig::from_limbs(value)
    }

    #[test]
    fn paper_size_frames_keep_their_wire_bytes() {
        // Two 786,432-bit operands up, a double-width product down. The
        // lengths and fingerprints are those of the encoder that staged
        // each operand through `UBig::to_le_bytes` into a growing buffer.
        let limbs = 786_432 / 64;
        let (a, b) = (patterned(limbs, 1), patterned(limbs, 2));
        let submit = Frame::Submit {
            req_id: 7,
            a: WireOperand::Inline(a.clone()),
            b: WireOperand::Inline(b.clone()),
            deadline_nanos: Some(5_000_000),
        };
        let product = Frame::Product {
            req_id: 7,
            value: patterned(2 * limbs, 3),
        };
        for (frame, len, fingerprint) in [
            (&submit, 196_631, 0xd860_40e0_2bdd_3f4a),
            (&product, 196_621, 0x9d94_ecca_b18f_f5cd),
        ] {
            let bytes = frame.encode();
            assert_eq!((bytes.len(), fnv1a(&bytes)), (len, fingerprint));
            assert_eq!(bytes.capacity(), bytes.len(), "sized once");
            let (decoded, used) = Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!((&decoded, used), (frame, len));
        }
        // A client encodes the same bytes from the operands it borrows.
        let borrowed = encode_submit(
            7,
            OperandRef::Inline(&a),
            OperandRef::Inline(&b),
            Some(5_000_000),
        );
        assert_eq!(borrowed, submit.encode());
    }

    #[test]
    fn every_frame_is_encoded_into_a_buffer_sized_once() {
        let frames = [
            Frame::Submit {
                req_id: 1,
                a: WireOperand::Pinned(3),
                b: WireOperand::Inline(UBig::zero()),
                deadline_nanos: None,
            },
            Frame::Register {
                pin: 2,
                operand: UBig::from(0x1234u64),
            },
            Frame::Unregister { pin: 2 },
            Frame::Cancel { req_id: 4 },
            Frame::StatsRequest { req_id: 5 },
            Frame::Ping { req_id: 6 },
            Frame::Product {
                req_id: 7,
                value: UBig::from(u64::MAX),
            },
            Frame::Failure {
                req_id: 8,
                error: WireFailure::Backend {
                    kind: "ssa".into(),
                    detail: "too big".into(),
                },
            },
            Frame::Failure {
                req_id: 9,
                error: WireFailure::Expired { missed_by_nanos: 1 },
            },
            Frame::Failure {
                req_id: 10,
                error: WireFailure::Poisoned { attempts: 3 },
            },
            Frame::Failure {
                req_id: 11,
                error: WireFailure::Closed,
            },
            Frame::Stats {
                req_id: 12,
                stats: ServeStats::default(),
            },
            Frame::Pong { req_id: 13 },
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(bytes.capacity(), bytes.len(), "{frame:?}");
            let (decoded, used) = Frame::decode(&bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!((decoded, used), (frame, bytes.len()));
        }
    }
}
