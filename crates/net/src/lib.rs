//! # he-net — the serving fleet on the network
//!
//! The paper's accelerator is a *hosted* device: ciphertext operands
//! arrive over a host interface, products come back. PRs 1–8 built the
//! in-process version of that contract — the [`he_accel::ServerPool`]
//! fleet with sessions, pinning, deadlines and supervision. This crate
//! puts the same contract behind a socket:
//!
//! - [`wire`] — a versioned, length-prefixed binary framing for jobs,
//!   products, typed failures and session state, extending `he-dghv`'s
//!   serialization conventions. The decoder is total: any byte string
//!   either decodes or returns a typed [`WireError`]; a hostile length
//!   prefix is rejected **before** it can size an allocation.
//! - [`NetServer`] — a [`he_accel::ServerPool`] listening on TCP or a
//!   Unix domain socket, one reader + writer reactor pair per
//!   connection.
//! - [`NetSession`] — the remote client. It implements
//!   [`he_accel::Submitter`], so [`he_accel::ServedMultiplier`] — a
//!   [`he_accel::Multiplier`] — and every `he-dghv` circuit run on it
//!   go over the wire unchanged, and it
//!   mirrors [`he_accel::ClientSession`]'s pinning surface —
//!   re-registering pins automatically when a lost connection is
//!   re-dialed.
//!
//! ```no_run
//! use he_accel::prelude::*;
//! use he_net::{NetServer, NetSession};
//!
//! let pool = ServerPool::with_backend_factory(
//!     2,
//!     |_card| EvalEngine::new(SsaSoftware::for_operand_bits(256).expect("fits")),
//!     ServeConfig::default(),
//! );
//! let server = NetServer::bind_tcp(pool, "127.0.0.1:0")?;
//!
//! let session = NetSession::connect(server.local_endpoint())?;
//! let ticket = session.submit(ProductRequest::new(UBig::from(3u64), UBig::from(5u64)))?;
//! assert_eq!(ticket.wait().expect("served"), UBig::from(15u64));
//!
//! let _multiplier = ServedMultiplier::new(&session); // a Multiplier: DGHV circuits go here
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod error;
mod server;
mod sock;
pub mod wire;

pub use client::{NetConfig, NetSession};
pub use error::NetError;
pub use server::{NetServer, NetServerConfig};
pub use sock::Endpoint;
pub use wire::{Frame, WireError, WireFailure, WireOperand, DEFAULT_MAX_FRAME_BYTES, WIRE_VERSION};
