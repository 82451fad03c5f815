//! The one operand cache: a keyed LRU under a single entry budget.
//!
//! Entries are keyed two ways — [`Key::Digest`] for inline operands (the
//! 64-bit digest of the operand's data; a lookup is verified against the
//! stored operand, so a digest collision can never serve the wrong
//! value) and [`Key::Pin`] for session-registered operands (a pool-unique
//! id, trusted as is and never hashed). Both kinds share one capacity;
//! eviction removes least-recently-used digest entries first and touches
//! pins only when nothing else is left to give.
//!
//! Three instances serve the fleet: each card's prepared-handle cache,
//! the speculative preparer's staging store (cards [`KeyedLru::take`]
//! from it, provenance-checked), and the pool's registry of live pins
//! (no value, just the operands to replay into a restarted card).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
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

/// The cache key of an inline operand. At paper scale this hashes
/// ~96 KiB, so callers compute it once per operand and carry the key.
pub(super) fn digest(operand: &UBig) -> u64 {
    #[cfg(test)]
    tests::DIGEST_CALLS.with(|calls| calls.set(calls.get() + 1));
    let mut hasher = DefaultHasher::new();
    operand.hash(&mut hasher);
    hasher.finish()
}

// lint: supervisor
// (Cards call into the cache between flushes, outside `catch_unwind`,
// with client reply sinks in hand: nothing here may panic.)
struct Slot<V> {
    operand: Arc<UBig>,
    value: V,
    last_used: u64,
}

impl<V> Slot<V> {
    fn answers(&self, key: Key, operand: &UBig) -> bool {
        matches!(key, Key::Pin(_)) || *self.operand == *operand
    }
}

/// A keyed LRU of `(operand, value)` entries (see the module docs).
pub(super) struct KeyedLru<V> {
    capacity: usize,
    /// Bumped on every lookup and insert, so each slot's `last_used` is
    /// unique and totally ordered by recency.
    tick: u64,
    entries: HashMap<Key, Vec<Slot<V>>>,
}

/// A cache of prepared handles: a card's own, or the speculative
/// preparer's staging store.
pub(super) type OperandCache = KeyedLru<OperandHandle>;

impl<V> KeyedLru<V> {
    /// An empty cache holding at most `capacity` entries between
    /// [`KeyedLru::evict_to_capacity`] calls; `0` disables it.
    pub(super) fn new(capacity: usize) -> KeyedLru<V> {
        KeyedLru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    pub(super) fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Turns the cache off for good.
    pub(super) fn disable(&mut self) {
        self.capacity = 0;
        self.clear();
    }

    /// Drops every entry (capacity and disabled state are kept).
    pub(super) fn clear(&mut self) {
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Every entry with its key, in no particular order.
    fn slots(&self) -> impl Iterator<Item = (Key, &Slot<V>)> {
        self.entries
            .iter()
            .flat_map(|(key, chain)| chain.iter().map(move |slot| (*key, slot)))
    }

    fn slot(&self, key: Key, operand: &UBig) -> Option<&Slot<V>> {
        self.entries
            .get(&key)?
            .iter()
            .find(|slot| slot.answers(key, operand))
    }

    /// Looks the operand up, bumping its recency. Returns whether it was
    /// cached.
    pub(super) fn touch(&mut self, key: Key, operand: &UBig) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let slot = self
            .entries
            .get_mut(&key)
            .and_then(|chain| chain.iter_mut().find(|slot| slot.answers(key, operand)));
        slot.map(|slot| slot.last_used = tick).is_some()
    }

    /// Read-only lookup (no recency update).
    pub(super) fn get(&self, key: Key, operand: &UBig) -> Option<&V> {
        self.slot(key, operand).map(|slot| &slot.value)
    }

    /// Whether anything is cached under this key (the operand itself is
    /// only verified by [`KeyedLru::get`] / [`KeyedLru::touch`]).
    pub(super) fn contains_key(&self, key: Key) -> bool {
        self.entries.contains_key(&key)
    }

    /// Inserts an entry as most recently used, replacing the entry `key`
    /// and `operand` already resolve to, if any. The cache may exceed its
    /// capacity until the next [`KeyedLru::evict_to_capacity`].
    pub(super) fn insert(&mut self, key: Key, operand: Arc<UBig>, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let slot = Slot {
            operand,
            value,
            last_used: self.tick,
        };
        let chain = self.entries.entry(key).or_default();
        match chain
            .iter_mut()
            .find(|held| held.answers(key, &slot.operand))
        {
            Some(held) => *held = slot,
            None => chain.push(slot),
        }
    }

    /// Removes and returns the entry `key` and `operand` resolve to.
    pub(super) fn remove(&mut self, key: Key, operand: &UBig) -> Option<(Arc<UBig>, V)> {
        let chain = self.entries.get_mut(&key)?;
        let at = chain.iter().position(|slot| slot.answers(key, operand))?;
        let slot = chain.swap_remove(at);
        if chain.is_empty() {
            self.entries.remove(&key);
        }
        Some((slot.operand, slot.value))
    }

    /// Evicts until the capacity holds: least recently used first, every
    /// digest entry before any pin.
    pub(super) fn evict_to_capacity(&mut self) {
        let excess = self.len().saturating_sub(self.capacity);
        if excess == 0 {
            return;
        }
        let mut order: Vec<(bool, u64, Key)> = self
            .slots()
            .map(|(key, slot)| (matches!(key, Key::Pin(_)), slot.last_used, key))
            .collect();
        order.sort_unstable_by_key(|&(pinned, last_used, _)| (pinned, last_used));
        for (_, last_used, key) in order.into_iter().take(excess) {
            if let Some(chain) = self.entries.get_mut(&key) {
                chain.retain(|slot| slot.last_used != last_used);
                if chain.is_empty() {
                    self.entries.remove(&key);
                }
            }
        }
    }

    /// Every pinned operand with its id, least recently used first.
    pub(super) fn pins(&self) -> Vec<(u64, Arc<UBig>)> {
        let mut pins: Vec<(u64, u64, Arc<UBig>)> = self
            .slots()
            .filter_map(|(key, slot)| match key {
                Key::Pin(id) => Some((slot.last_used, id, Arc::clone(&slot.operand))),
                Key::Digest(_) => None,
            })
            .collect();
        pins.sort_unstable_by_key(|&(last_used, _, _)| last_used);
        pins.into_iter().map(|(_, id, pin)| (id, pin)).collect()
    }
}

impl KeyedLru<OperandHandle> {
    /// Removes and returns the handle staged for `operand`, if it is
    /// present and was prepared by an instance interchangeable with
    /// `provenance`.
    pub(super) fn take(
        &mut self,
        key: Key,
        operand: &UBig,
        provenance: HandleProvenance,
    ) -> Option<(Arc<UBig>, OperandHandle)> {
        if self.slot(key, operand)?.value.provenance() != provenance {
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

    thread_local! {
        /// [`digest`] calls made on this thread.
        pub(in crate::serve) static DIGEST_CALLS: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    fn engine(bits: usize) -> EvalEngine<SsaSoftware> {
        EvalEngine::new(SsaSoftware::for_operand_bits(bits).unwrap())
    }

    #[test]
    fn evicts_least_recently_used_digest_entries() {
        let engine = engine(128);
        let mut cache = OperandCache::new(2);
        let ops: Vec<UBig> = (1..=3u64).map(UBig::from).collect();
        for op in &ops {
            let key = Key::Digest(digest(op));
            assert!(!cache.touch(key, op));
            cache.insert(key, Arc::new(op.clone()), engine.prepare(op).unwrap());
        }
        // Touch op[1] so op[0] is the LRU entry.
        assert!(cache.touch(Key::Digest(digest(&ops[1])), &ops[1]));
        cache.evict_to_capacity();
        assert_eq!(cache.len(), 2);
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
        let mut store = OperandCache::new(4);
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
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn untouched_entries_age_out_oldest_first() {
        // The staging store and the pin registry never touch: their LRU
        // is insertion order.
        let mut registry: KeyedLru<()> = KeyedLru::new(2);
        for id in 1..=3u64 {
            registry.insert(Key::Pin(id), Arc::new(UBig::from(id)), ());
            registry.evict_to_capacity();
        }
        let ids: Vec<u64> = registry.pins().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(registry.remove(Key::Pin(2), &UBig::zero()).is_some());
        assert_eq!(registry.pins().len(), 1);
    }

    /// The naive model: one `Vec` in recency order (front = least
    /// recently used), searched linearly.
    #[derive(Default)]
    struct Model {
        entries: Vec<(Key, UBig, u64)>,
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

        fn evict_to(&mut self, capacity: usize) {
            while self.entries.len() > capacity {
                let victim = self
                    .entries
                    .iter()
                    .position(|(key, _, _)| matches!(key, Key::Digest(_)))
                    .unwrap_or(0);
                self.entries.remove(victim);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Touch(usize),
        Insert(usize),
        Remove(usize),
        Evict,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0usize..12).prop_map(|(kind, at)| match kind {
            0..=2 => Op::Touch(at),
            3..=5 => Op::Insert(at),
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
        /// serves a neighbour's), same survivors after every eviction
        /// (recency order, pins outlasting any digest pressure).
        #[test]
        fn keyed_lru_matches_a_naive_vec_lru(
            capacity in 0usize..6,
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            let universe: Vec<(Key, UBig)> = (0..12u64)
                .map(|i| {
                    let key = if i < 8 { Key::Digest(i % 3) } else { Key::Pin(i) };
                    (key, UBig::from(1_000 + i))
                })
                .collect();
            let mut cache: KeyedLru<u64> = KeyedLru::new(capacity);
            let mut model = Model::default();
            prop_assert_eq!(cache.is_disabled(), capacity == 0);
            for (step, op) in ops.iter().enumerate() {
                let value = step as u64;
                match *op {
                    Op::Touch(at) => {
                        let (key, operand) = &universe[at];
                        prop_assert_eq!(cache.touch(*key, operand), model.touch(*key, operand));
                    }
                    Op::Insert(at) => {
                        let (key, operand) = &universe[at];
                        cache.insert(*key, Arc::new(operand.clone()), value);
                        if capacity > 0 {
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
                        model.evict_to(capacity);
                        prop_assert!(cache.len() <= capacity);
                    }
                }
                prop_assert_eq!(cache.len(), model.entries.len());
                for (key, operand) in &universe {
                    let expected = model.find(*key, operand).map(|at| model.entries[at].2);
                    prop_assert_eq!(cache.get(*key, operand).copied(), expected);
                }
            }
            // Whatever survived is in the model's recency order.
            let mut survivors: Vec<(u64, u64)> = cache
                .entries
                .values()
                .flatten()
                .map(|slot| (slot.last_used, slot.value))
                .collect();
            survivors.sort_unstable();
            let by_recency: Vec<u64> = survivors.into_iter().map(|(_, value)| value).collect();
            let modelled: Vec<u64> = model.entries.iter().map(|(_, _, value)| *value).collect();
            prop_assert_eq!(by_recency, modelled);
        }
    }
}
