//! Counting-allocator soak of the serving cache's byte budget.
//!
//! The paper's serving shape — one recurring 786,432-bit operand times a
//! flood of fresh ones, 32 in flight — through a one-card pool whose
//! cache budget holds two paper-size entries. Second-sight admission
//! means the one-shot operands never earn a slot, so (a) what stays
//! resident once the flood has drained fits the configured budget, and
//! (b) the peak while it runs is the in-flight window's own operands and
//! products plus that budget — it carries no 608 KiB entry per job in
//! the flush (32 × 608 KiB = 19 MiB) on top. The card answers each
//! product the moment its run ends, so a product is the client's to hold
//! or drop as soon as it exists; the bound charges every job of the
//! window for its product all the same, so it holds however the client
//! and the card interleave. Admission holds each recurring operand once:
//! a window of queued requests, each submitted with its own copy of the
//! recurring operand, keeps one copy resident, not one per request.
//!
//! A wrapping global allocator tracks live heap bytes process-wide; this
//! file is its own test binary with one `#[test]`, so nothing else
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use he_accel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates directly to the system allocator; the counters have
// no safety impact.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;
/// A paper-size operand, its 64K-point spectrum, and their cache entry.
const OPERAND: usize = 96 * KIB;
const ENTRY: usize = OPERAND + 512 * KIB;
const BUDGET: usize = 2 * ENTRY;
const WINDOW: usize = 32;
/// Completion-channel nodes, queue spine, a late scratch unit: everything
/// that is neither an operand, a product nor a cache entry.
const SLACK: usize = MIB;
// The peak this test allows is well under what caching every in-flight
// job's fresh operand would take.
const _: () = assert!(BUDGET + SLACK < WINDOW * ENTRY);

/// `x mod 2^61 − 1`: the soak checks every product without a second
/// 786,432-bit multiply.
fn residue(x: &UBig) -> u128 {
    const P: u128 = (1 << 61) - 1;
    x.as_limbs()
        .iter()
        .rev()
        .fold(0, |r, &limb| ((r << 64) + u128::from(limb)) % P)
}

/// The paper's multiplier behind a gate: its first product waits at the
/// gate twice — once to say the card is busy, once to be let through.
struct Gated {
    inner: SsaSoftware,
    gate: Arc<Barrier>,
    first: AtomicBool,
}

impl Multiplier for Gated {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        if self.first.swap(false, Ordering::SeqCst) {
            self.gate.wait();
            self.gate.wait();
        }
        self.inner.multiply(a, b)
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

fn spawn() -> ServerPool {
    ServerPool::spawn(
        vec![EvalEngine::new(SsaSoftware::paper())],
        ServeConfig {
            cache_bytes: BUDGET,
            ..ServeConfig::default()
        },
    )
}

/// Serves `lhs() · fresh(i)` for every `i` in `products`, `WINDOW` in
/// flight, checking each product; returns how many were served.
fn flood(
    pool: &ServerPool,
    lhs: impl Fn() -> UBig,
    fresh: impl Fn(u64) -> UBig,
    products: std::ops::Range<u64>,
) -> usize {
    const P: u128 = (1 << 61) - 1;
    let mut queue: CompletionQueue<'_, ServerPool, u128> = CompletionQueue::new(pool);
    let mut served = 0;
    let mut settle = |done: Completion<u128>| {
        assert_eq!(residue(&done.result.expect("served")), done.tag);
        served += 1;
    };
    for i in products {
        if queue.in_flight() == WINDOW {
            settle(queue.recv().expect("a product is in flight"));
        }
        let (a, b) = (lhs(), fresh(i));
        let expect = residue(&a) * residue(&b) % P;
        queue
            .submit_tagged(ProductRequest::new(a, b), expect)
            .map_err(|(error, _)| error)
            .expect("pool alive");
    }
    queue.drain().into_iter().for_each(&mut settle);
    served
}

#[test]
fn a_flood_of_fresh_operands_stays_inside_the_cache_budget() {
    let mut rng = StdRng::seed_from_u64(2016);
    let bits = he_accel::ssa::PAPER_OPERAND_BITS;
    let fixed = UBig::random_bits(&mut rng, bits);
    let base = UBig::random_bits(&mut rng, bits - 1);
    let fresh = |i: u64| &base + &UBig::from(i);
    let pool = spawn();
    let recurring = || fixed.clone();
    // Warm-up: the transform tables and scratch units exist, and the
    // recurring operand has been sighted twice, before anything is
    // measured.
    assert_eq!(flood(&pool, recurring, fresh, 0..4), 4);
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    assert_eq!(
        flood(&pool, recurring, fresh, 4..4 + 2 * WINDOW as u64),
        2 * WINDOW
    );
    let settled = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    // Drained: whatever the flood left behind is the cache's to answer
    // for, and the cache was already holding the recurring operand.
    assert!(
        settled <= BUDGET - ENTRY + SLACK,
        "{} KiB stayed resident after the flood",
        settled / KIB
    );
    // In flight: two operands in and a double-width product out per job,
    // and not a cache entry per job beside them.
    let in_flight = WINDOW * 4 * OPERAND;
    assert!(
        peak <= in_flight + BUDGET + SLACK,
        "the flood peaked {} KiB over its baseline",
        peak / KIB
    );
    let stats = pool.shutdown().total();
    assert_eq!(stats.completed, 4 + 2 * WINDOW as u64);
    // Every fresh operand missed without being admitted; the recurring
    // one hit from its third sighting on.
    assert_eq!(stats.cache_hits + stats.cache_misses, 2 * stats.completed);
    assert!(stats.cache_hits >= stats.completed - 2, "{stats:?}");

    // A recurring operand decoded from bytes padded with zeros: its
    // limbs were reserved for the padding. The entry it earns holds the
    // value's bytes, not the padding's.
    let pool = spawn();
    assert_eq!(flood(&pool, recurring, fresh, 0..4), 4);
    let baseline = LIVE.load(Ordering::Relaxed);
    let other = UBig::random_bits(&mut rng, bits);
    let padded = || {
        let mut bytes = other.to_le_bytes();
        bytes.resize(bytes.len() + 4 * MIB, 0);
        UBig::from_le_bytes(&bytes)
    };
    assert_eq!(flood(&pool, padded, fresh, 4..4 + WINDOW as u64), WINDOW);
    let settled = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        settled <= ENTRY + SLACK,
        "{} KiB stayed resident after the padded operand was admitted",
        settled / KIB
    );
    let stats = pool.shutdown().total();
    // Both recurring operands earned their entries and hit from then on.
    assert!(stats.cache_hits >= stats.completed - 4, "{stats:?}");

    // A window queued behind a busy card, every request carrying its own
    // copy of the recurring operand: admission keeps one of them.
    let gate = Arc::new(Barrier::new(2));
    let gated = Gated {
        inner: SsaSoftware::paper(),
        gate: Arc::clone(&gate),
        first: AtomicBool::new(true),
    };
    let pool = ServerPool::spawn(vec![EvalEngine::new(gated)], ServeConfig::default());
    let mut queue: CompletionQueue<'_, ServerPool, u64> = CompletionQueue::new(&pool);
    let one = || UBig::from(1u64);
    queue
        .submit_tagged(ProductRequest::new(one(), one()), 0)
        .map_err(|(error, _)| error)
        .expect("pool alive");
    gate.wait();
    let baseline = LIVE.load(Ordering::Relaxed);
    for i in 1..=WINDOW as u64 {
        queue
            .submit_tagged(ProductRequest::new(fixed.clone(), UBig::from(i)), i)
            .map_err(|(error, _)| error)
            .expect("pool alive");
    }
    let queued = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    gate.wait();
    assert!(
        queued < 2 * OPERAND,
        "{} KiB queued with {WINDOW} requests on one recurring operand",
        queued / KIB
    );
    for done in queue.drain() {
        let expect = if done.tag == 0 {
            one()
        } else {
            &fixed * &UBig::from(done.tag)
        };
        assert_eq!(done.result.expect("served"), expect);
    }
    assert_eq!(pool.shutdown().total().completed, 1 + WINDOW as u64);
}
