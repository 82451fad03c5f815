//! The resident serving fleet: a shared job queue feeding one or more
//! long-lived [`EvalEngine`](crate::EvalEngine)s — one per accelerator
//! card.
//!
//! The paper's accelerator pays off when it sits *resident* — a fixed
//! device fed a stream of 786,432-bit products, recurring operands'
//! transforms kept on hand — not when it is driven as a one-shot
//! function. This module is the host-side shape of that deployment, built
//! from one of each:
//!
//! * **One server.** [`ServerPool`] owns the cards (one is a fleet of
//!   one) and the bounded queue they share. A free card claims one run
//!   the moment anything is pending — at most as many jobs as its engine
//!   computes at once, earliest deadlines first — prepares that run's
//!   operands, computes it, answers it and claims again, so a card holds
//!   one run's operands and products, never a backlog's, and a job that
//!   arrives behind a backlog waits only for the runs in flight. A job
//!   whose deadline passes before execution is answered
//!   [`ServeError::Expired`] instead of being run.
//! * **One way in.** Everything that accepts jobs is a [`Submitter`] —
//!   the pool, a [`ClientSession`] over it, a remote transport — and
//!   implements a single method: request + sink + block-or-shed.
//!   [`Submitter::submit`] (blocks while the queue is full) and
//!   [`Submitter::try_submit`] (sheds with [`SubmitError::Full`]) are
//!   built on it.
//! * **One way out.** Every outcome leaves its card through a
//!   [`CompletionSink`], exactly once — [`ServeError::Closed`] if the
//!   sink is lost unanswered, so nothing downstream can hang on a dead
//!   fleet. A [`ProductTicket`] receives one sink; a
//!   [`CompletionQueue`] multiplexes many onto one reactor thread with
//!   caller-supplied tags; [`completion_channel`] is the same pattern
//!   with owned halves. Cancelling ([`ProductTicket::cancel`],
//!   [`CancelHandle`]) drops a job that is still queued.
//! * **One cache.** Each card keeps a keyed LRU of prepared operand
//!   handles under one [`ServeConfig::cache_bytes`] budget: inline
//!   operands by digest (hashed once at admission, collision-verified,
//!   held once however many queued requests carry them), operands a
//!   [`ClientSession::register`] call pinned by id (never hashed,
//!   evicted last). An inline operand earns its slot the second time it
//!   is sighted, so one-shot operands run raw and hold no memory. A recurring operand — a running accumulator, a fixed key
//!   element, a SIMD mask — therefore lands on the one-cached/both-cached
//!   rungs of the batch ladder without the caller managing handles, and
//!   a run's admitted misses are prepared in parallel.
//!   Handles are provenance-stamped, so cards never share spectra unless
//!   their transform geometry matches.
//!
//! The fleet is **self-healing**: every run computes under panic
//! containment, a panic re-queues the run's unanswered jobs to
//! surviving cards (up to
//! [`ServeConfig::retry_limit`], within their deadline budget), transient
//! [`MultiplyError::Device`](crate::MultiplyError::Device) faults are
//! retried the same way, and a job that keeps killing flushes is
//! quarantined with [`ServeError::Poisoned`]. On a supervised pool
//! ([`ServerPool::with_backend_factory`]) a panicked card is rebuilt —
//! exponential backoff, at most [`ServeConfig::restart_cap`] attempts,
//! session pins replayed — and [`PoolStats::health`] shows each card's
//! [`CardHealth`]; [`ServerPool::drain`] stops intake and finishes queued
//! work before joining. [`crate::fault::FaultyMultiplier`] drives all of
//! it deterministically in tests.
//!
//! [`ServedMultiplier`] closes the loop with the DGHV layer: it
//! implements [`Multiplier`](crate::Multiplier) over any [`Submitter`],
//! so `he-dghv` circuit evaluation submits whole levels for the fleet to
//! spread across its cards, and a closed or failing fleet comes back as a
//! [`MultiplyError`](crate::MultiplyError) rather than a panic.
//!
//! # Example
//!
//! ```
//! use he_accel::prelude::*;
//!
//! // Two resident engines (two simulated cards) share one queue; a
//! // single-card deployment is the same call with one engine.
//! let cards = vec![
//!     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
//!     EvalEngine::new(SsaSoftware::for_operand_bits(256)?),
//! ];
//! let pool = ServerPool::spawn(cards, ServeConfig::default());
//! assert_eq!(pool.workers(), 2);
//! let a = UBig::from(1_000_003u64);
//! let tickets: Vec<ProductTicket> = (1..=8u64)
//!     .map(|k| {
//!         pool.submit(ProductRequest::new(a.clone(), UBig::from(k)))
//!             .expect("pool alive")
//!     })
//!     .collect();
//! for (k, ticket) in (1..=8u64).zip(tickets) {
//!     assert_eq!(ticket.wait().expect("served"), &a * &UBig::from(k));
//! }
//! let stats = pool.shutdown();
//! assert_eq!(stats.total().completed, 8);
//! assert_eq!(stats.per_worker.len(), 2);
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```

mod cache;
mod completion;
mod config;
mod pool;
mod queue;
mod session;
mod tests;
mod worker;

pub use completion::{
    completion_channel, CancelHandle, Completion, CompletionMint, CompletionQueue,
    CompletionReceiver, CompletionSink, ProductTicket, ServeError, SubmitError, Submitter,
};
pub use config::{CardHealth, DrainOutcome, PoolStats, ServeConfig, ServeStats};
pub use pool::ServerPool;
pub use queue::ProductRequest;
pub use session::{ClientSession, ServedMultiplier};
