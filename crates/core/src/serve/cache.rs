//! The one operand cache: a keyed LRU under a single **byte** budget,
//! and the recent-digest set that decides which inline operands earn a
//! slot in it.
//!
//! Entries are keyed two ways — [`Key::Digest`] for inline operands (the
//! 64-bit digest of the operand's data; a lookup is verified against the
//! stored operand, so a digest collision can never serve the wrong
//! value) and [`Key::Pin`] for session-registered operands (a pool-unique
//! id, trusted as is and never hashed). Both kinds share one budget, an
//! entry weighing its operand plus what its value keeps resident;
//! eviction removes least-recently-used digest entries first and touches
//! pins only when nothing else is left to give, in O(evicted). Admission
//! is **second-sight** ([`RecentDigests::admits`]): one-shot operands
//! neither allocate a spectrum nor evict a recurring one; pins and
//! speculatively staged spectra are inserted directly.
//!
//! Three instances serve the fleet: each card's prepared-handle cache,
//! the speculative preparer's staging store (cards [`KeyedLru::take`]
//! from it, provenance-checked), and the pool's registry of live pins
//! (no value, just the operands to replay into a restarted card).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use he_bigint::UBig;

use crate::engine::{HandleProvenance, OperandHandle};

/// How an entry is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Key {
    /// [`digest`] of an inline operand; lookups verify the operand.
    Digest(u64),
    /// Pin id of a session-registered operand; lookups trust the id.
    Pin(u64),
}

impl Key {
    fn is_pin(self) -> bool {
        matches!(self, Key::Pin(_))
    }
}

/// The cache key of an inline operand. At paper scale this hashes
/// ~96 KiB, so callers compute it once per operand and carry the key.
pub(super) fn digest(operand: &UBig) -> u64 {
    #[cfg(test)]
    tests::DIGEST_CALLS.with(|calls| calls.set(calls.get() + 1));
    let mut hasher = DefaultHasher::new();
    operand.hash(&mut hasher);
    hasher.finish()
}

/// Slots of a [`RecentDigests`] set.
const RECENT_DIGESTS: usize = 4096;

// lint: supervisor
// (Cards call into the cache between flushes, outside `catch_unwind`,
// with client reply sinks in hand: nothing here may panic.)

/// The digests the fleet's cards sighted lately: a fixed-size,
/// direct-mapped, lossy set — a newer digest overwrites whichever older
/// one shares its slot, so memory never grows and stale digests age out.
pub(super) struct RecentDigests(Box<[Option<u64>]>);

impl RecentDigests {
    pub(super) fn new() -> RecentDigests {
        RecentDigests(vec![None; RECENT_DIGESTS].into())
    }

    fn at(digest: u64) -> usize {
        (digest % RECENT_DIGESTS as u64) as usize
    }

    pub(super) fn contains(&self, digest: u64) -> bool {
        self.0.get(Self::at(digest)) == Some(&Some(digest))
    }

    /// Records a sighting; returns whether the digest was already there.
    pub(super) fn sight(&mut self, digest: u64) -> bool {
        let slot = self.0.get_mut(Self::at(digest));
        slot.is_some_and(|slot| slot.replace(digest) == Some(digest))
    }

    /// Second-sight admission: whether an operand a flush found neither
    /// cached nor staged earns a cache slot. A pin always does; an inline
    /// operand does once its digest has been sighted before — earlier,
    /// or again inside the same flush (`repeats`). Records the sighting.
    pub(super) fn admits(&mut self, key: Key, repeats: bool) -> bool {
        match key {
            Key::Pin(_) => true,
            Key::Digest(digest) => self.sight(digest) | repeats,
        }
    }
}

struct Slot<V> {
    operand: Arc<UBig>,
    value: V,
    last_used: u64,
    bytes: usize,
}

impl<V> Slot<V> {
    fn answers(&self, key: Key, operand: &UBig) -> bool {
        key.is_pin() || *self.operand == *operand
    }
}

/// A keyed LRU of `(operand, value)` entries (see the module docs).
pub(super) struct KeyedLru<V> {
    budget: usize,
    /// What a value keeps resident beside its operand, in bytes.
    weigh: fn(&V) -> usize,
    resident: usize,
    /// Bumped on every lookup and insert, so each slot's `last_used` is
    /// unique and totally ordered by recency.
    tick: u64,
    entries: HashMap<Key, Vec<Slot<V>>>,
    /// Every slot's `(is a pin, last_used)` → its key: the first entry
    /// is always the next victim (digests before pins, oldest first).
    order: BTreeMap<(bool, u64), Key>,
}

/// A cache of prepared handles: a card's own, or the speculative
/// preparer's staging store.
pub(super) type OperandCache = KeyedLru<OperandHandle>;

impl<V> KeyedLru<V> {
    /// An empty cache holding at most `budget` bytes between
    /// [`KeyedLru::evict_to_capacity`] calls; `0` disables it.
    pub(super) fn new(budget: usize, weigh: fn(&V) -> usize) -> KeyedLru<V> {
        KeyedLru {
            budget,
            weigh,
            resident: 0,
            tick: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    pub(super) fn is_disabled(&self) -> bool {
        self.budget == 0
    }

    /// Drops every entry (the budget is kept).
    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.resident = 0;
    }

    /// Looks the operand up, bumping its recency. Returns whether it was
    /// cached.
    pub(super) fn touch(&mut self, key: Key, operand: &UBig) -> bool {
        self.tick += 1;
        let slot = self
            .entries
            .get_mut(&key)
            .and_then(|chain| chain.iter_mut().find(|slot| slot.answers(key, operand)));
        let Some(slot) = slot else {
            return false;
        };
        self.order.remove(&(key.is_pin(), slot.last_used));
        slot.last_used = self.tick;
        self.order.insert((key.is_pin(), self.tick), key);
        true
    }

    /// Read-only lookup (no recency update).
    pub(super) fn get(&self, key: Key, operand: &UBig) -> Option<&V> {
        let mut chain = self.entries.get(&key)?.iter();
        chain
            .find(|slot| slot.answers(key, operand))
            .map(|slot| &slot.value)
    }

    /// Whether anything is cached under this key (the operand itself is
    /// only verified by [`KeyedLru::get`] / [`KeyedLru::touch`]).
    pub(super) fn contains_key(&self, key: Key) -> bool {
        self.entries.contains_key(&key)
    }

    /// Inserts an entry as most recently used, replacing the entry `key`
    /// and `operand` already resolve to, if any. The cache may exceed its
    /// budget until the next [`KeyedLru::evict_to_capacity`].
    pub(super) fn insert(&mut self, key: Key, operand: Arc<UBig>, value: V) {
        if self.budget == 0 {
            return;
        }
        self.remove(key, &operand);
        self.tick += 1;
        let bytes = size_of_val(operand.as_limbs()) + (self.weigh)(&value);
        self.resident += bytes;
        self.order.insert((key.is_pin(), self.tick), key);
        self.entries.entry(key).or_default().push(Slot {
            operand,
            value,
            last_used: self.tick,
            bytes,
        });
    }

    /// Takes the slot under `key` that `picks` out of the map, the
    /// eviction order and the byte count together.
    fn unlink(&mut self, key: Key, picks: impl Fn(&Slot<V>) -> bool) -> Option<Slot<V>> {
        let chain = self.entries.get_mut(&key)?;
        let slot = chain.swap_remove(chain.iter().position(picks)?);
        if chain.is_empty() {
            self.entries.remove(&key);
        }
        self.order.remove(&(key.is_pin(), slot.last_used));
        self.resident = self.resident.saturating_sub(slot.bytes);
        Some(slot)
    }

    /// Removes and returns the entry `key` and `operand` resolve to.
    pub(super) fn remove(&mut self, key: Key, operand: &UBig) -> Option<(Arc<UBig>, V)> {
        let slot = self.unlink(key, |slot| slot.answers(key, operand))?;
        Some((slot.operand, slot.value))
    }

    /// Evicts until the budget holds: least recently used first, every
    /// digest entry before any pin.
    pub(super) fn evict_to_capacity(&mut self) {
        while self.resident > self.budget {
            let Some((&(pinned, last_used), &key)) = self.order.first_key_value() else {
                return;
            };
            if self
                .unlink(key, |slot| slot.last_used == last_used)
                .is_none()
            {
                self.order.remove(&(pinned, last_used));
            }
        }
    }

    /// Every pinned operand with its id, least recently used first.
    pub(super) fn pins(&self) -> Vec<(u64, Arc<UBig>)> {
        self.order
            .range((true, 0)..)
            .filter_map(|(_, key)| {
                let Key::Pin(id) = key else { return None };
                let slot = self.entries.get(key)?.first()?;
                Some((*id, Arc::clone(&slot.operand)))
            })
            .collect()
    }
}

impl KeyedLru<OperandHandle> {
    /// A cache of prepared handles, each weighing its resident spectrum.
    pub(super) fn of_handles(budget: usize) -> OperandCache {
        KeyedLru::new(budget, OperandHandle::resident_bytes)
    }

    /// Removes and returns the handle staged for `operand`, if it is
    /// present and was prepared by an instance interchangeable with
    /// `provenance`.
    pub(super) fn take(
        &mut self,
        key: Key,
        operand: &UBig,
        provenance: HandleProvenance,
    ) -> Option<(Arc<UBig>, OperandHandle)> {
        if self.get(key, operand)?.provenance() != provenance {
            return None;
        }
        self.remove(key, operand)
    }
}
// lint: end supervisor

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::multiplier::{Multiplier, SsaSoftware};
    use proptest::prelude::*;
    use std::collections::HashSet;

    thread_local! {
        /// [`digest`] calls made on this thread.
        pub(in crate::serve) static DIGEST_CALLS: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    impl<V> KeyedLru<V> {
        pub(in crate::serve) fn len(&self) -> usize {
            self.order.len()
        }

        /// Bytes the held entries weigh together.
        pub(in crate::serve) fn resident_bytes(&self) -> usize {
            self.resident
        }
    }

    fn engine(bits: usize) -> EvalEngine<SsaSoftware> {
        EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap())
    }

    /// What one entry of `engine`'s cache weighs for a one-limb operand.
    fn entry_bytes(engine: &EvalEngine<SsaSoftware>) -> usize {
        let op = UBig::from(1u64);
        size_of_val(op.as_limbs()) + engine.prepare(&op).unwrap().resident_bytes()
    }

    #[test]
    fn evicts_least_recently_used_digest_entries() {
        let engine = engine(128);
        let mut cache = OperandCache::of_handles(2 * entry_bytes(&engine));
        let ops: Vec<UBig> = (1..=3u64).map(UBig::from).collect();
        for op in &ops {
            let key = Key::Digest(digest(op));
            assert!(!cache.touch(key, op));
            cache.insert(key, Arc::new(op.clone()), engine.prepare(op).unwrap());
        }
        assert_eq!(cache.resident_bytes(), 3 * entry_bytes(&engine));
        // Touch op[1] so op[0] is the LRU entry.
        assert!(cache.touch(Key::Digest(digest(&ops[1])), &ops[1]));
        cache.evict_to_capacity();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.resident_bytes(), 2 * entry_bytes(&engine));
        let cached = |op: &UBig| cache.get(Key::Digest(digest(op)), op).is_some();
        assert!(!cached(&ops[0]), "LRU entry evicted");
        assert!(cached(&ops[1]));
        assert!(cached(&ops[2]));
    }

    #[test]
    fn take_requires_operand_and_provenance_match() {
        let small = engine(2_000);
        let large = engine(500_000);
        let op = UBig::from(77u64);
        let key = Key::Digest(digest(&op));
        let mut store = OperandCache::of_handles(4 * entry_bytes(&small));
        store.insert(key, Arc::new(op.clone()), small.prepare(&op).unwrap());
        // A different geometry cannot claim the staged spectrum…
        assert!(store.take(key, &op, large.backend().provenance()).is_none());
        // …a different operand cannot either, even under the same key…
        let other = UBig::from(78u64);
        assert!(store
            .take(key, &other, small.backend().provenance())
            .is_none());
        // …the matching instance takes it exactly once.
        assert!(store.take(key, &op, small.backend().provenance()).is_some());
        assert!(store.take(key, &op, small.backend().provenance()).is_none());
        assert_eq!((store.len(), store.resident_bytes()), (0, 0));
    }

    #[test]
    fn untouched_entries_age_out_oldest_first() {
        // The staging store and the pin registry never touch: their LRU
        // is insertion order. A registry entry weighs its operand alone.
        let mut registry: KeyedLru<()> = KeyedLru::new(2 * size_of::<u64>(), |()| 0);
        for id in 1..=3u64 {
            registry.insert(Key::Pin(id), Arc::new(UBig::from(id)), ());
            registry.evict_to_capacity();
        }
        let ids: Vec<u64> = registry.pins().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(registry.remove(Key::Pin(2), &UBig::zero()).is_some());
        assert_eq!(registry.pins().len(), 1);
    }

    #[test]
    fn the_recent_set_forgets_by_overwriting_never_by_growing() {
        let mut recent = RecentDigests::new();
        assert!(!recent.sight(5));
        assert!(recent.sight(5) && recent.contains(5));
        // A digest sharing the slot takes it over; the older one is a
        // first sighting again.
        let rival = 5 + RECENT_DIGESTS as u64;
        assert!(!recent.sight(rival));
        assert!(!recent.contains(5) && recent.contains(rival));
        assert_eq!(recent.0.len(), RECENT_DIGESTS);
    }

    /// The proptest's values weigh 0, 8, … 32 bytes beside their
    /// one-limb operands.
    fn weigh(value: &u64) -> usize {
        (*value % 5) as usize * 8
    }

    /// The naive model: one `Vec` in recency order (front = least
    /// recently used), searched linearly, its bytes summed on demand —
    /// and a plain set of every digest ever sighted.
    #[derive(Default)]
    struct Model {
        entries: Vec<(Key, UBig, u64)>,
        sighted: HashSet<u64>,
    }

    impl Model {
        fn find(&self, key: Key, operand: &UBig) -> Option<usize> {
            self.entries.iter().position(|(k, held, _)| {
                *k == key && (matches!(key, Key::Pin(_)) || held == operand)
            })
        }

        fn touch(&mut self, key: Key, operand: &UBig) -> bool {
            match self.find(key, operand) {
                Some(at) => {
                    let entry = self.entries.remove(at);
                    self.entries.push(entry);
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, key: Key, operand: &UBig, value: u64) {
            if let Some(at) = self.find(key, operand) {
                self.entries.remove(at);
            }
            self.entries.push((key, operand.clone(), value));
        }

        fn bytes(&self) -> usize {
            self.entries
                .iter()
                .map(|(_, operand, value)| size_of_val(operand.as_limbs()) + weigh(value))
                .sum()
        }

        fn evict_to(&mut self, budget: usize) {
            while self.bytes() > budget {
                let victim = self
                    .entries
                    .iter()
                    .position(|(key, _, _)| matches!(key, Key::Digest(_)))
                    .unwrap_or(0);
                self.entries.remove(victim);
            }
        }

        /// Second sight, spelled out: a pin, a repeat inside the flush,
        /// or a digest this model has seen before.
        fn admits(&mut self, key: Key, repeats: bool) -> bool {
            match key {
                Key::Pin(_) => true,
                Key::Digest(digest) => !self.sighted.insert(digest) || repeats,
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A flush's lookup: touch, and on a miss insert if admitted.
        Lookup(usize, bool),
        /// A direct insert (a staged spectrum, a replayed pin).
        Insert(usize),
        Remove(usize),
        Evict,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0usize..12, any::<bool>()).prop_map(|(kind, at, repeats)| match kind {
            0..=3 => Op::Lookup(at, repeats),
            4..=5 => Op::Insert(at),
            6 => Op::Remove(at),
            _ => Op::Evict,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Twelve operands: 0..8 are inline, squeezed onto three digests
        /// so distinct operands collide all the time; 8..12 are pinned.
        /// Every operation must answer exactly like the naive model —
        /// same hits, same value behind every hit (a collision never
        /// serves a neighbour's), the same admission verdict on every
        /// miss (an inline operand gets in on its digest's second
        /// sighting, never its first), the same bytes resident, never
        /// more than the budget after an eviction, and the same
        /// survivors (recency order, pins outlasting any digest
        /// pressure).
        #[test]
        fn keyed_lru_matches_a_naive_vec_lru(
            budget in 0usize..200,
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            let universe: Vec<(Key, UBig)> = (0..12u64)
                .map(|i| {
                    let key = if i < 8 { Key::Digest(i % 3) } else { Key::Pin(i) };
                    (key, UBig::from(1_000 + i))
                })
                .collect();
            let mut cache: KeyedLru<u64> = KeyedLru::new(budget, weigh);
            let mut recent = RecentDigests::new();
            let mut model = Model::default();
            prop_assert_eq!(cache.is_disabled(), budget == 0);
            for (step, op) in ops.iter().enumerate() {
                let value = step as u64;
                match *op {
                    Op::Lookup(at, repeats) => {
                        let (key, operand) = &universe[at];
                        let hit = cache.touch(*key, operand);
                        prop_assert_eq!(hit, model.touch(*key, operand));
                        if !hit {
                            let admitted = recent.admits(*key, repeats);
                            prop_assert_eq!(admitted, model.admits(*key, repeats));
                            if admitted {
                                cache.insert(*key, Arc::new(operand.clone()), value);
                                if budget > 0 {
                                    model.insert(*key, operand, value);
                                }
                            }
                        }
                    }
                    Op::Insert(at) => {
                        let (key, operand) = &universe[at];
                        cache.insert(*key, Arc::new(operand.clone()), value);
                        if budget > 0 {
                            model.insert(*key, operand, value);
                        }
                    }
                    Op::Remove(at) => {
                        let (key, operand) = &universe[at];
                        let removed = cache.remove(*key, operand).map(|(_, value)| value);
                        let expected = model
                            .find(*key, operand)
                            .map(|found| model.entries.remove(found).2);
                        prop_assert_eq!(removed, expected);
                    }
                    Op::Evict => {
                        cache.evict_to_capacity();
                        model.evict_to(budget);
                        prop_assert!(cache.resident_bytes() <= budget);
                    }
                }
                prop_assert_eq!(cache.len(), model.entries.len());
                prop_assert_eq!(cache.resident_bytes(), model.bytes());
                for (key, operand) in &universe {
                    let expected = model.find(*key, operand).map(|at| model.entries[at].2);
                    prop_assert_eq!(cache.get(*key, operand).copied(), expected);
                }
            }
            // Whatever survived is in the model's recency order, and the
            // eviction index agrees with the slots it indexes.
            let mut survivors: Vec<(u64, u64)> = cache
                .entries
                .values()
                .flatten()
                .map(|slot| (slot.last_used, slot.value))
                .collect();
            survivors.sort_unstable();
            let indexed: Vec<u64> = {
                let mut ticks: Vec<u64> = cache.order.keys().map(|&(_, tick)| tick).collect();
                ticks.sort_unstable();
                ticks
            };
            prop_assert_eq!(&indexed, &survivors.iter().map(|&(tick, _)| tick).collect::<Vec<_>>());
            let by_recency: Vec<u64> = survivors.into_iter().map(|(_, value)| value).collect();
            let modelled: Vec<u64> = model.entries.iter().map(|(_, _, value)| *value).collect();
            prop_assert_eq!(by_recency, modelled);
        }
    }
}
