//! Counting-allocator soak of the serving cache's byte budget.
//!
//! The paper's serving shape — one recurring 786,432-bit operand times a
//! flood of fresh ones, 32 in flight — through a one-card pool whose
//! cache budget holds two paper-size entries. Second-sight admission
//! means the one-shot operands never earn a slot, so (a) what stays
//! resident once the flood has drained fits the configured budget, and
//! (b) the peak while it runs is the in-flight window's own operands and
//! products plus that budget — it no longer carries a 608 KiB entry per
//! job in the flush (32 × 608 KiB = 19 MiB) on top.
//!
//! A wrapping global allocator tracks live heap bytes process-wide; this
//! file is its own test binary with one `#[test]`, so nothing else
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn a_flood_of_fresh_operands_stays_inside_the_cache_budget() {
    const P: u128 = (1 << 61) - 1;
    let mut rng = StdRng::seed_from_u64(2016);
    let bits = he_accel::ssa::PAPER_OPERAND_BITS;
    let fixed = UBig::random_bits(&mut rng, bits);
    let base = UBig::random_bits(&mut rng, bits - 1);
    let fresh = |i: u64| &base + &UBig::from(i);
    let pool = ServerPool::spawn(
        vec![EvalEngine::new(SsaSoftware::paper())],
        ServeConfig {
            cache_bytes: BUDGET,
            ..ServeConfig::default()
        },
    );
    let mut queue: CompletionQueue<'_, ServerPool, u128> = CompletionQueue::new(&pool);
    let mut run = |products: std::ops::Range<u64>| {
        let mut served = 0;
        let mut settle = |done: Completion<u128>| {
            assert_eq!(residue(&done.result.expect("served")), done.tag);
            served += 1;
        };
        for i in products {
            if queue.in_flight() == WINDOW {
                settle(queue.recv().expect("a product is in flight"));
            }
            let b = fresh(i);
            let expect = residue(&fixed) * residue(&b) % P;
            queue
                .submit_tagged(ProductRequest::new(fixed.clone(), b), expect)
                .map_err(|(error, _)| error)
                .expect("pool alive");
        }
        queue.drain().into_iter().for_each(&mut settle);
        served
    };
    // Warm-up: the transform tables and scratch units exist, and the
    // recurring operand has been sighted twice, before anything is
    // measured.
    assert_eq!(run(0..4), 4);
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    assert_eq!(run(4..4 + 2 * WINDOW as u64), 2 * WINDOW);
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
}
