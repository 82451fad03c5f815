//! The client-side fronts over a [`Submitter`]: [`ClientSession`]
//! (register a recurring operand once, stream against it by name) and
//! [`ServedMultiplier`] (DGHV circuits through the fleet).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use he_bigint::UBig;
use he_dghv::{CiphertextMultiplier, PreparedFactor};
use he_ntt::par::lock_or_recover;

use super::cache::Key;
use super::completion::{CompletionSink, ProductTicket, SubmitError, Submitter};
use super::pool::ServerPool;
use super::queue::{PoolShared, ProductRequest};

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
        let operand = Arc::new(operand);
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

/// A [`CiphertextMultiplier`] that routes every homomorphic product
/// through a serving front, so DGHV circuit evaluation (AND-trees,
/// comparator sweeps, SIMD mask products) submits each level whole to
/// the resident fleet (see `he_dghv::CircuitEvaluator::and_tree`).
///
/// The fleet's caches make the recurring operands of those circuits
/// (masks, accumulators) hit the cached-transform rungs without any
/// preparation calls on this side; `prepare`d factors therefore keep only
/// the raw value.
///
/// # Panics
///
/// Like the other sized backends (`SsaBackend`), products that exceed the
/// engine's capacity panic — the DGHV layer guarantees ciphertexts fit the
/// backend it was built for. Server shutdown mid-product also panics.
#[derive(Debug)]
pub struct ServedMultiplier<'a, S: Submitter = ServerPool> {
    server: &'a S,
}

impl<'a, S: Submitter> ServedMultiplier<'a, S> {
    /// A DGHV backend view over a serving front.
    pub fn new(server: &'a S) -> ServedMultiplier<'a, S> {
        ServedMultiplier { server }
    }
}

impl<S: Submitter> CiphertextMultiplier for ServedMultiplier<'_, S> {
    fn multiply(&self, a: &UBig, b: &UBig) -> UBig {
        self.multiply_pairs(&[(a, b)])
            .pop()
            .expect("one product per pair")
    }

    fn multiply_pairs(&self, pairs: &[(&UBig, &UBig)]) -> Vec<UBig> {
        // Submit the whole level, then collect: the fleet micro-batches
        // the stream, so independent gates of one circuit level share
        // flushes (and the cached transforms of recurring operands).
        let tickets: Vec<ProductTicket> = pairs
            .iter()
            .map(|(a, b)| {
                self.server
                    .submit(ProductRequest::new((*a).clone(), (*b).clone()))
                    .expect("product server closed")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("served product failed"))
            .collect()
    }

    fn multiply_prepared_many(&self, a: &PreparedFactor, bs: &[&UBig]) -> Vec<UBig> {
        // The fleet's own caches are the preparation layer here;
        // submitting raw pairs lets it reuse the recurring factor's
        // spectrum across the whole sweep.
        let pairs: Vec<(&UBig, &UBig)> = bs.iter().map(|b| (a.raw(), *b)).collect();
        self.multiply_pairs(&pairs)
    }

    fn name(&self) -> &'static str {
        "served-engine"
    }
}
