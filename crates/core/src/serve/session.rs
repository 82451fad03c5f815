//! The client-side fronts over a [`Submitter`]: [`ClientSession`]
//! (register a recurring operand once, stream against it by name) and
//! [`ServedMultiplier`] (DGHV circuits through the fleet).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use he_bigint::UBig;
use he_ntt::par::lock_or_recover;

use super::cache::Key;
use super::completion::{CompletionSink, ProductTicket, ServeError, SubmitError, Submitter};
use super::pool::ServerPool;
use super::queue::{held, PoolShared, ProductRequest};
use crate::engine::ProductJob;
use crate::multiplier::{Multiplier, MultiplyError};

/// A per-client handle over a serving fleet: register a recurring
/// operand **once**, then stream products against it by name.
///
/// Registration pins the operand in every card's cache by id: no digest
/// is ever computed for it (at paper scale that is hashing ~100 KB per
/// submission), its entry outlasts every digest-keyed one under cache
/// pressure, and a stream submitted with [`ClientSession::submit_with`]
/// rides the cached-transform rungs from its first flush —
/// [`ServeStats::pinned_hits`](super::ServeStats::pinned_hits) counts
/// exactly these hash-free resolutions. Products of two registered
/// operands ([`ClientSession::submit_between`]) run both-cached with zero
/// hashing on either side.
///
/// Sessions are cheap, `Clone + Send`, and independent per client:
/// cloning carries the registrations made so far, and registrations are
/// client-local names (two sessions may both call something `"mask"`).
/// A session outlives its pool gracefully — submissions after shutdown
/// return [`SubmitError::Closed`]. Being a [`Submitter`], a session also
/// feeds a [`CompletionQueue`](super::CompletionQueue) or a
/// [`ServedMultiplier`] directly.
///
/// ```
/// use he_accel::prelude::*;
///
/// let pool = ServerPool::spawn(
///     vec![EvalEngine::new(SsaSoftware::for_operand_bits(256)?)],
///     ServeConfig::default(),
/// );
/// let mut session = pool.session();
/// // The recurring accumulator is registered once…
/// session.register("acc", UBig::from(1_000_003u64));
/// // …and a stream of fresh operands runs against it by name.
/// let tickets: Vec<ProductTicket> = (2..6u64)
///     .map(|k| session.submit_with("acc", UBig::from(k)))
///     .collect::<Result<_, _>>()?;
/// for (k, ticket) in (2..6u64).zip(tickets) {
///     assert_eq!(ticket.wait().expect("served"), UBig::from(k * 1_000_003));
/// }
/// let stats = pool.shutdown().total();
/// // The pinned operand resolved without hashing on every product.
/// assert!(stats.pinned_hits >= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct ClientSession {
    pub(super) shared: Arc<PoolShared>,
    /// Client-local name → (pin id, the registered operand).
    pub(super) names: HashMap<String, (u64, Arc<UBig>)>,
}

impl core::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClientSession")
            .field("registered", &self.names.len())
            .finish()
    }
}

impl ClientSession {
    /// Registers a recurring operand under a client-local name. Every
    /// card pins its prepared handle by id (prepared lazily at the
    /// operand's first flush, re-prepared after an idle trim), never
    /// digest-hashed; pins share the card's `cache_bytes` budget (they
    /// skip its second-sight admission) and are the last entries
    /// evicted, an evicted live pin being re-prepared at its next use. Re-registering a name replaces the
    /// operand (the old pin ages out of every card's cache).
    pub fn register(&mut self, name: impl Into<String>, operand: UBig) {
        let id = self.shared.pin_seq.fetch_add(1, Ordering::Relaxed);
        let operand = held(operand);
        let replaced = self.names.insert(name.into(), (id, Arc::clone(&operand)));
        // The registry backs pin *replay* on restarted cards; a replaced
        // registration must not be replayed forever.
        let mut registry = lock_or_recover(&self.shared.pin_registry);
        if let Some((old_id, old_operand)) = replaced {
            registry.remove(Key::Pin(old_id), &old_operand);
        }
        registry.insert(Key::Pin(id), operand, ());
        registry.evict_to_capacity();
    }

    /// Releases a registration. Cards drop the pinned handle at their
    /// next idle trim; in-flight jobs referencing it still complete.
    pub fn unregister(&mut self, name: &str) {
        if let Some((id, operand)) = self.names.remove(name) {
            lock_or_recover(&self.shared.pin_registry).remove(Key::Pin(id), &operand);
        }
    }

    /// Names currently registered on this session.
    pub fn registered(&self) -> usize {
        self.names.len()
    }

    fn pinned(&self, name: &str) -> (u64, Arc<UBig>) {
        let (id, value) = self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("operand {name:?} is not registered on this session"));
        (*id, Arc::clone(value))
    }

    /// A request multiplying the registered operand `name` by a fresh
    /// operand — submit it yourself (deadline attached, through a
    /// [`CompletionQueue`](super::CompletionQueue), …) or use
    /// [`ClientSession::submit_with`].
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered on this session.
    pub fn request_with(&self, name: &str, fresh: UBig) -> ProductRequest {
        let (id, value) = self.pinned(name);
        ProductRequest::pinned_with(id, value, fresh)
    }

    /// A request multiplying two registered operands — the both-pinned
    /// product: no hashing, both spectra resident.
    ///
    /// # Panics
    ///
    /// Panics if either name was never registered on this session.
    pub fn request_between(&self, a: &str, b: &str) -> ProductRequest {
        ProductRequest::pinned_pair(self.pinned(a), self.pinned(b))
    }

    /// Submits registered-operand × fresh, blocking while the queue is
    /// full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if every worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never registered on this session.
    pub fn submit_with(&self, name: &str, fresh: UBig) -> Result<ProductTicket, SubmitError> {
        self.submit(self.request_with(name, fresh))
    }

    /// Submits the product of two registered operands, blocking while
    /// the queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if every worker is gone.
    ///
    /// # Panics
    ///
    /// Panics if either name was never registered on this session.
    pub fn submit_between(&self, a: &str, b: &str) -> Result<ProductTicket, SubmitError> {
        self.submit(self.request_between(a, b))
    }
}

impl Submitter for ClientSession {
    fn submit_sink(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        self.shared.enqueue(request, sink, blocking)
    }
}

/// A [`Multiplier`] that routes every product through a serving front,
/// so DGHV circuit evaluation (AND-trees, comparator sweeps, SIMD mask
/// products) submits each level whole to the resident fleet (see
/// `he_dghv::CircuitEvaluator::and_tree`).
///
/// The fleet's caches make the recurring operands of those circuits
/// (masks, accumulators) hit the cached-transform rungs without any
/// preparation calls on this side, so [`Multiplier::prepare`] keeps the
/// default raw handle.
///
/// Every failure is an error, never a panic: the fleet's backend error
/// comes back as itself, and a closed front, an expired or quarantined
/// job, or a refused submission comes back as
/// [`MultiplyError::Device`] carrying the rendered serving error.
#[derive(Debug)]
pub struct ServedMultiplier<'a, S: Submitter = ServerPool> {
    server: &'a S,
}

impl<'a, S: Submitter> ServedMultiplier<'a, S> {
    /// A multiplier view over a serving front.
    pub fn new(server: &'a S) -> ServedMultiplier<'a, S> {
        ServedMultiplier { server }
    }

    /// Submits one product; a refused submission is a device fault.
    fn submit_pair(&self, a: &UBig, b: &UBig) -> Result<ProductTicket, MultiplyError> {
        self.server
            .submit(ProductRequest::new(a.clone(), b.clone()))
            .map_err(|e| MultiplyError::Device(e.to_string()))
    }
}

/// The backend error a served product failed with, or the serving
/// failure rendered as a device fault.
fn served_error(e: ServeError) -> MultiplyError {
    match e {
        ServeError::Multiply(e) => e,
        other => MultiplyError::Device(other.to_string()),
    }
}

impl<S: Submitter> Multiplier for ServedMultiplier<'_, S> {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        self.submit_pair(a, b)?.wait().map_err(served_error)
    }

    fn name(&self) -> &'static str {
        "served-engine"
    }

    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        assert_eq!(
            jobs.len(),
            out.len(),
            "one result slot per job ({} jobs, {} slots)",
            jobs.len(),
            out.len()
        );
        // Check every handle before the first submission, then submit
        // the whole level and collect: independent gates of one circuit
        // level spread across the fleet's cards and runs (and share the
        // cached transforms of recurring operands).
        let provenance = self.provenance();
        let pairs = jobs
            .iter()
            .map(|job| {
                Ok(match *job {
                    ProductJob::Prepared(a, b) => {
                        (a.raw_checked(provenance)?, b.raw_checked(provenance)?)
                    }
                    ProductJob::OnePrepared(a, b) => (a.raw_checked(provenance)?, b),
                    ProductJob::Raw(a, b) => (a, b),
                })
            })
            .collect::<Result<Vec<_>, MultiplyError>>()?;
        let tickets = pairs
            .into_iter()
            .map(|(a, b)| self.submit_pair(a, b))
            .collect::<Result<Vec<_>, _>>()?;
        for (ticket, slot) in tickets.into_iter().zip(out.iter_mut()) {
            *slot = ticket.wait().map_err(served_error)?;
        }
        Ok(())
    }
}
