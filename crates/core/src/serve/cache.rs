//! The one operand cache: a keyed LRU under a single **byte** budget,
//! and the fleet's table of recently sighted inline operands that
//! decides which of them earn a slot in it — and holds each one once.
//!
//! Entries are keyed two ways — [`Key::Digest`] for inline operands (the
//! 64-bit digest of the operand's data, taken once at admission; a
//! lookup is verified against the stored operand, by pointer when the
//! request shares the entry's allocation and by bytes otherwise, so a
//! digest collision can never serve the wrong value) and [`Key::Pin`]
//! for session-registered operands (a pool-unique id, trusted as is and
//! never hashed). Both kinds share one budget, an entry weighing its
//! operand plus what its value keeps resident; eviction removes
//! least-recently-used digest entries first and touches pins only when
//! nothing else is left to give, in O(evicted). Admission is
//! **second-sight** ([`RecentOperands::sight`]): one-shot operands
//! neither allocate a spectrum nor evict a recurring one; pins are
//! inserted directly.
//!
//! Two instances serve the fleet: each card's prepared-handle cache, and
//! the pool's registry of live pins (no value, just the operands to
//! replay into a restarted card).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use he_bigint::UBig;

use crate::engine::OperandHandle;

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
/// ~96 KiB, so admission computes it once per operand and the request
/// carries it.
pub(super) fn digest(operand: &UBig) -> u64 {
    #[cfg(test)]
    if let Some(forced) = tests::count_digest() {
        return forced;
    }
    let mut hasher = DefaultHasher::new();
    operand.hash(&mut hasher);
    hasher.finish()
}

/// Whether an entry holding `held` under `key` answers for `operand`: a
/// pin by its id alone, an inline operand by identity — interned
/// operands share one allocation — or else by its bytes.
pub(super) fn holds(key: Key, held: &UBig, operand: &UBig) -> bool {
    key.is_pin() || std::ptr::eq(held, operand) || *held == *operand
}

/// Slots of a [`RecentOperands`] table.
const RECENT_OPERANDS: usize = 4096;

/// What the fleet's table made of one sighting of an inline operand.
#[derive(Debug)]
pub(super) enum Verdict {
    /// A live operand with equal bytes is held already: use its
    /// allocation, and the caller's duplicate can go.
    Share(Arc<UBig>),
    /// The digest was sighted before, but no live operand under it is
    /// left to share.
    Recurring,
    /// Not sighted lately — or its digest is another live operand's.
    FirstSight,
}

// lint: supervisor
// (Cards call into the cache between flushes, outside `catch_unwind`,
// with client reply sinks in hand, and submitters sight operands in the
// one enqueue path: nothing here may panic.)

/// The inline operands the fleet sighted lately: a fixed-size,
/// direct-mapped, lossy table of digests, each beside a weak handle on
/// the operand last sighted under it — a newer digest overwrites
/// whichever older one shares its slot, so memory never grows and stale
/// digests age out, and a weak handle keeps no operand resident.
pub(super) struct RecentOperands(Box<[Option<Sighting>]>);

/// A digest and the operand last sighted under it.
type Sighting = (u64, Weak<UBig>);

impl RecentOperands {
    pub(super) fn new() -> RecentOperands {
        RecentOperands(vec![None; RECENT_OPERANDS].into())
    }

    fn at(digest: u64) -> usize {
        (digest % RECENT_OPERANDS as u64) as usize
    }

    /// Records a sighting of `operand` under `digest` and judges it. An
    /// operand shares only an allocation whose bytes it matches; an
    /// unequal live operand under the same digest is a collision, and
    /// the newcomer's sighting counts as its first.
    pub(super) fn sight(&mut self, digest: u64, operand: &Arc<UBig>) -> Verdict {
        let Some(slot) = self.0.get_mut(Self::at(digest)) else {
            return Verdict::FirstSight;
        };
        let verdict = match slot {
            Some((seen, held)) if *seen == digest => match held.upgrade() {
                Some(held) if holds(Key::Digest(digest), &held, operand) => {
                    return Verdict::Share(held)
                }
                Some(_) => Verdict::FirstSight,
                None => Verdict::Recurring,
            },
            _ => Verdict::FirstSight,
        };
        *slot = Some((digest, Arc::downgrade(operand)));
        verdict
    }
}

struct Slot<V> {
    operand: Arc<UBig>,
    value: V,
    last_used: u64,
    bytes: usize,
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

/// A card's cache of prepared handles.
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
        let slot = self.entries.get_mut(&key).and_then(|chain| {
            chain
                .iter_mut()
                .find(|slot| holds(key, &slot.operand, operand))
        });
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
            .find(|slot| holds(key, &slot.operand, operand))
            .map(|slot| &slot.value)
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
        let slot = self.unlink(key, |slot| holds(key, &slot.operand, operand))?;
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
}
// lint: end supervisor

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::multiplier::SsaSoftware;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// [`digest`] calls made on this thread.
        pub(in crate::serve) static DIGEST_CALLS: Cell<u64> = const { Cell::new(0) };
        /// While set, what every [`digest`] call on this thread returns:
        /// the seam that forces unequal operands onto one digest.
        pub(in crate::serve) static FORCED_DIGEST: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Counts a [`digest`] call on this thread; returns the forced
    /// digest, if one is set.
    pub(super) fn count_digest() -> Option<u64> {
        DIGEST_CALLS.with(|calls| calls.set(calls.get() + 1));
        FORCED_DIGEST.with(Cell::get)
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
    fn untouched_entries_age_out_oldest_first() {
        // The pin registry never touches: its LRU is insertion order. A registry entry weighs its operand alone.
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
        let mut recent = RecentOperands::new();
        let five = Arc::new(UBig::from(5u64));
        assert!(matches!(recent.sight(5, &five), Verdict::FirstSight));
        // A duplicate is handed the held allocation.
        let duplicate = Arc::new(UBig::from(5u64));
        match recent.sight(5, &duplicate) {
            Verdict::Share(held) => assert!(Arc::ptr_eq(&held, &five)),
            other => panic!("expected a share, got {other:?}"),
        }
        // A digest sharing the slot takes it over; the older one is a
        // first sighting again.
        let rival = 5 + RECENT_OPERANDS as u64;
        let six = Arc::new(UBig::from(6u64));
        assert!(matches!(recent.sight(rival, &six), Verdict::FirstSight));
        assert!(matches!(recent.sight(5, &five), Verdict::FirstSight));
        // Once nothing holds the operand, its digest still recurs.
        drop((five, duplicate));
        assert!(matches!(recent.sight(5, &six), Verdict::Recurring));
        assert_eq!(recent.0.len(), RECENT_OPERANDS);
    }

    /// The proptest's values weigh 0, 8, … 32 bytes beside their
    /// one-limb operands.
    fn weigh(value: &u64) -> usize {
        (*value % 5) as usize * 8
    }

    /// The naive model: one `Vec` in recency order (front = least
    /// recently used), searched linearly, its bytes summed on demand —
    /// and a plain map from every digest ever sighted to the operand last
    /// sighted under it.
    #[derive(Default)]
    struct Model {
        entries: Vec<(Key, UBig, u64)>,
        sighted: HashMap<u64, usize>,
    }

    /// A verdict without its allocation, as the model predicts it.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Share,
        Recurring,
        FirstSight,
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

        /// The table, spelled out: operand `at` shares the allocation of
        /// a live earlier sighting of itself; a digest whose last operand
        /// is gone recurs; a live *other* operand under the digest is a
        /// collision, and a collision is a first sighting.
        fn sight(&mut self, digest: u64, at: usize, held: &[Option<Arc<UBig>>]) -> Seen {
            match self.sighted.insert(digest, at) {
                None => Seen::FirstSight,
                Some(last) if held[last].is_none() => Seen::Recurring,
                Some(last) if last == at => Seen::Share,
                Some(_) => Seen::FirstSight,
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A submission's sighting, then a flush's lookup: touch, and on
        /// a miss insert if admitted.
        Lookup(usize, bool),
        /// A direct insert (a replayed pin).
        Insert(usize),
        Remove(usize),
        Evict,
        /// Every request holding the operand is answered and dropped.
        Release(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..9, 0usize..12, any::<bool>()).prop_map(|(kind, at, repeats)| match kind {
            0..=3 => Op::Lookup(at, repeats),
            4..=5 => Op::Insert(at),
            6 => Op::Remove(at),
            7 => Op::Evict,
            _ => Op::Release(at),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Twelve operands: 0..8 are inline, squeezed onto three digests
        /// so distinct operands collide all the time; 8..12 are pinned.
        /// Every operation must answer exactly like the naive model —
        /// the same verdict on every inline sighting (a share only of the
        /// operand's own live allocation, never a colliding neighbour's;
        /// recurring once its digest's last operand is gone; a first
        /// sighting otherwise), same hits, same value behind every hit
        /// (a collision never serves a neighbour's), the same admission
        /// on every miss (an inline operand gets in on its second
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
            let mut recent = RecentOperands::new();
            // The test's own hold on each operand: what its queued
            // requests keep alive.
            let mut held: Vec<Option<Arc<UBig>>> = vec![None; universe.len()];
            let mut model = Model::default();
            prop_assert_eq!(cache.is_disabled(), budget == 0);
            for (step, op) in ops.iter().enumerate() {
                let value = step as u64;
                match *op {
                    Op::Lookup(at, repeats) => {
                        let (key, operand) = &universe[at];
                        let recurring = match *key {
                            Key::Pin(_) => true,
                            Key::Digest(digest) => {
                                let expected = model.sight(digest, at, &held);
                                let copy = Arc::new(operand.clone());
                                let (seen, kept) = match recent.sight(digest, &copy) {
                                    Verdict::Share(shared) => {
                                        let own = held[at].as_ref().is_some_and(|own| Arc::ptr_eq(own, &shared));
                                        prop_assert!(own, "shared another allocation");
                                        (Seen::Share, shared)
                                    }
                                    Verdict::Recurring => (Seen::Recurring, copy),
                                    Verdict::FirstSight => (Seen::FirstSight, copy),
                                };
                                prop_assert_eq!(&seen, &expected);
                                held[at] = Some(kept);
                                seen != Seen::FirstSight
                            }
                        };
                        let hit = cache.touch(*key, operand);
                        prop_assert_eq!(hit, model.touch(*key, operand));
                        // Second sight: a pin, a repeat inside the flush,
                        // or an operand sighted before.
                        if !hit && (recurring || repeats) {
                            cache.insert(*key, Arc::new(operand.clone()), value);
                            if budget > 0 {
                                model.insert(*key, operand, value);
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
                    Op::Release(at) => held[at] = None,
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
