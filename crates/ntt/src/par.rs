//! Multi-core execution of independent sub-transforms.
//!
//! The paper's central observation is that each stage of the 64K
//! decomposition consists of 1024 (or 4096) *independent* sub-transforms —
//! that is what the four-PE hypercube exploits in hardware. This module is
//! the software counterpart: [`for_each_chunk`] runs a closure over every
//! fixed-size chunk of a buffer, spreading contiguous runs of chunks across
//! scoped OS threads.
//!
//! The implementation uses `std::thread::scope` rather than rayon because
//! this workspace builds without a crates.io registry; the chunked
//! fan-out/join pattern is the same work shape a rayon `par_chunks_mut`
//! would produce. With a [`thread_count`] of 1 (`HE_NTT_THREADS=1`,
//! [`set_threads`]`(1)`, a single-core host) everything runs inline on the
//! caller's thread, which also keeps the hot path allocation-free — thread
//! spawning is the one part of the parallel path that touches the heap.

static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Overrides the worker-thread count for this process (`0` clears the
/// override). Benchmarks use this to measure single-thread vs multi-core
/// scaling without re-launching; it takes precedence over the
/// `HE_NTT_THREADS` environment variable.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, std::sync::atomic::Ordering::Relaxed);
}

thread_local! {
    /// Per-thread fan-out cap, set by [`with_thread_budget`].
    static LOCAL_BUDGET: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with **this thread's** transform fan-out capped at `n` worker
/// threads (`0` clears the cap; the cap is restored on exit, including on
/// panic).
///
/// Batch schedulers use this to hand each product shard a slice of the
/// machine: without it, `W` shard workers each re-claim the full global
/// [`thread_count`] inside every transform stage, oversubscribing the host
/// with up to `W × T` live threads. The cap is thread-local, so concurrent
/// shards compose without racing the global [`set_threads`] override.
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_BUDGET.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_BUDGET.with(|c| c.replace(n)));
    f()
}

/// Upper bound on worker threads (including the caller's).
///
/// Precedence: the calling thread's [`with_thread_budget`] cap, then the
/// [`set_threads`] override, then `HE_NTT_THREADS` (read once per process —
/// the lookup allocates, and this runs on the allocation-free hot path),
/// then the machine's available parallelism. Always at least 1.
pub fn thread_count() -> usize {
    let budget = LOCAL_BUDGET.with(|c| c.get());
    if budget > 0 {
        return budget;
    }
    let forced = THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("HE_NTT_THREADS") {
        Ok(v) => v.parse::<usize>().map(|n| n.max(1)).unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// Runs `f(index, &items[index], &mut out[index])` for every item,
/// sharded across up to `workers` scoped threads, writing results in
/// order into caller-owned slots.
///
/// This is the product-level counterpart of [`for_each_chunk`]: batch
/// schedulers (the SSA multiplier, the evaluation engine) split a job
/// slice into contiguous shards, and each shard runs under a
/// [`with_thread_budget`] cap so the shards divide [`thread_count`]
/// fairly among themselves (shards with a larger share take the
/// remainder; every shard keeps at least one thread, so a `workers`
/// larger than `thread_count` oversubscribes by design — the caller
/// asked for that many concurrent shards) instead of each re-claiming
/// every core inside its transforms. With one worker, one item, or a
/// [`thread_count`] of 1 (a single-core host, `HE_NTT_THREADS=1`, or a
/// caller budget of 1), everything runs inline on the caller's thread —
/// spawning shards that a 1-wide machine must serialize anyway would be
/// pure overhead on the hot path.
///
/// # Errors
///
/// Returns the error of the lowest-index failing item, deterministically
/// regardless of scheduling. On error the contents of `out` are
/// unspecified (successful shards may have written their slots).
///
/// # Panics
///
/// Panics if `items.len() != out.len()`, and propagates panics from `f`.
pub fn run_sharded_into<J, O, E, F>(
    items: &[J],
    out: &mut [O],
    workers: usize,
    f: F,
) -> Result<(), (usize, E)>
where
    J: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &J, &mut O) -> Result<(), E> + Sync,
{
    assert_eq!(
        items.len(),
        out.len(),
        "one result slot per item ({} items, {} slots)",
        items.len(),
        out.len()
    );
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 || thread_count() <= 1 {
        for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
            f(i, item, slot).map_err(|e| (i, e))?;
        }
        return Ok(());
    }
    let per = items.len().div_ceil(workers);
    // Rounding in `per` can leave fewer actual shards than nominal
    // workers; budget the threads over the shards that really spawn.
    let shards = items.len().div_ceil(per);
    let total = thread_count();
    let base = (total / shards).max(1);
    let extra = if total > shards { total % shards } else { 0 };
    // Lowest failing index seen so far, shared so sibling shards stop
    // burning full-cost products on items the error already outranks
    // (items *below* it must still run — one of them may fail lower).
    let failed = std::sync::atomic::AtomicUsize::new(usize::MAX);
    let first_error = std::thread::scope(|scope| {
        let f = &f;
        let failed = &failed;
        let handles: Vec<_> = items
            .chunks(per)
            .zip(out.chunks_mut(per))
            .enumerate()
            .map(|(shard, (shard_items, shard_out))| {
                let budget = base + usize::from(shard < extra);
                scope.spawn(move || {
                    with_thread_budget(budget, || {
                        for (offset, (item, slot)) in
                            shard_items.iter().zip(shard_out.iter_mut()).enumerate()
                        {
                            let index = shard * per + offset;
                            // In-shard indices only grow, so once the
                            // known failure outranks us the rest of the
                            // shard is moot.
                            if index > failed.load(std::sync::atomic::Ordering::Relaxed) {
                                break;
                            }
                            if let Err(e) = f(index, item, slot) {
                                failed.fetch_min(index, std::sync::atomic::Ordering::Relaxed);
                                return Err((index, e));
                            }
                        }
                        Ok(())
                    })
                })
            })
            .collect();
        let mut first: Option<(usize, E)> = None;
        for handle in handles {
            // Re-raise worker panics with their original payload so the
            // real message/location survives (a plain expect() would
            // bury it under a generic string).
            let shard_result = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            if let Err((index, error)) = shard_result {
                if first.as_ref().is_none_or(|(best, _)| index < *best) {
                    first = Some((index, error));
                }
            }
        }
        first
    });
    match first_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Minimum number of chunks per worker before fan-out is worth the spawn
/// cost; below this everything runs inline.
const MIN_CHUNKS_PER_THREAD: usize = 8;

/// Applies `f(chunk_index, chunk)` to every `chunk_len`-sized chunk of
/// `data`, in parallel when the workload is large enough.
///
/// `data.len()` must be a multiple of `chunk_len`. Chunks are disjoint
/// `&mut` sub-slices, so the closure may freely write; reads of shared
/// inputs are captured by `&` reference.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `chunk_len`, and propagates
/// panics from `f`.
pub fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(
        data.len() % chunk_len,
        0,
        "buffer length {} is not a multiple of the chunk length {}",
        data.len(),
        chunk_len
    );
    let chunks = data.len() / chunk_len;
    let workers = thread_count()
        .min(chunks / MIN_CHUNKS_PER_THREAD.max(1))
        .max(1);
    if workers <= 1 {
        for (i, chunk) in data.chunks_exact_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    // Split the buffer into `workers` contiguous runs of whole chunks.
    // The caller's thread counts as a worker: it takes the final run
    // itself, so `workers` runs need only `workers - 1` spawns.
    let per = chunks.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut start = 0usize;
        let f = &f;
        while rest.len() > per * chunk_len {
            let (head, tail) = rest.split_at_mut(per * chunk_len);
            let base = start;
            scope.spawn(move || {
                for (i, chunk) in head.chunks_exact_mut(chunk_len).enumerate() {
                    f(base + i, chunk);
                }
            });
            start += per;
            rest = tail;
        }
        for (i, chunk) in rest.chunks_exact_mut(chunk_len).enumerate() {
            f(start + i, chunk);
        }
    });
}

/// Acquires `mutex`, recovering from poisoning.
///
/// Every shared mutex in this workspace guards plain data (scratch stacks,
/// stats, pin registries) whose invariants hold between statements, so a
/// panic in one holder never leaves the value half-updated in a way the
/// next holder cannot use. Propagating the poison instead would cascade
/// one worker's panic into unrelated client threads — the serving fleet
/// explicitly survives a dying card (PR 6), and a poisoned-on-panic
/// `Mutex` must not undo that. This is the one blessed way to take such a
/// lock; `he-lint` flags bare `lock().unwrap()` on supervisor paths.
pub fn lock_or_recover<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_or_recover_survives_a_poisoned_mutex() {
        let mutex = std::sync::Mutex::new(7u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().expect("not yet poisoned");
            panic!("poison the lock");
        }));
        assert!(mutex.is_poisoned());
        let mut guard = lock_or_recover(&mutex);
        assert_eq!(*guard, 7, "the poisoned value is still usable");
        *guard = 8;
        drop(guard);
        assert_eq!(*lock_or_recover(&mutex), 8);
    }

    #[test]
    fn covers_every_chunk_exactly_once() {
        let mut data = vec![0u64; 64 * 100];
        for_each_chunk(&mut data, 64, |i, chunk| {
            for x in chunk.iter_mut() {
                *x += 1 + i as u64;
            }
        });
        for (i, chunk) in data.chunks_exact(64).enumerate() {
            assert!(chunk.iter().all(|&x| x == 1 + i as u64), "chunk {i}");
        }
    }

    #[test]
    fn forced_fan_out_covers_every_chunk_exactly_once() {
        // 1-core CI hosts never take the spawning branch by default;
        // force it. (Results are scheduling-independent, so the global
        // override racing other tests is harmless.)
        set_threads(4);
        let mut data = vec![0u64; 16 * 64];
        for_each_chunk(&mut data, 16, |i, chunk| {
            for x in chunk.iter_mut() {
                *x += 1 + i as u64;
            }
        });
        set_threads(0);
        for (i, chunk) in data.chunks_exact(16).enumerate() {
            assert!(chunk.iter().all(|&x| x == 1 + i as u64), "chunk {i}");
        }
    }

    #[test]
    fn small_workloads_run_inline() {
        let mut data = vec![0u8; 12];
        for_each_chunk(&mut data, 4, |i, chunk| chunk.fill(i as u8 + 1));
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_chunks() {
        let mut data = vec![0u8; 10];
        for_each_chunk(&mut data, 4, |_, _| {});
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn local_budget_caps_and_restores() {
        // Runs on a dedicated thread and touches only the thread-local
        // budget, so it cannot race other tests' set_threads calls.
        std::thread::spawn(|| {
            // A cap value neither set_threads callers nor
            // available_parallelism can ever produce, so every assertion
            // below is immune to concurrent set_threads calls.
            let cap = 1usize << 20;
            let inner = with_thread_budget(cap, || {
                // Nested budgets stack; the innermost wins on this thread.
                assert_eq!(with_thread_budget(1, thread_count), 1);
                // The cap is per-thread: a freshly spawned thread is
                // uncapped.
                let other = std::thread::spawn(thread_count).join().unwrap();
                assert_ne!(other, cap);
                thread_count()
            });
            assert_eq!(inner, cap);
            // The cap is gone after the scope.
            assert_ne!(thread_count(), cap);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn run_sharded_covers_every_item_in_order() {
        let items: Vec<u64> = (0..37).collect();
        let mut out = vec![0u64; items.len()];
        let result: Result<(), (usize, ())> =
            run_sharded_into(&items, &mut out, 4, |i, item, slot| {
                *slot = item * 2 + i as u64;
                Ok(())
            });
        result.unwrap();
        for (i, (item, slot)) in items.iter().zip(&out).enumerate() {
            assert_eq!(*slot, item * 2 + i as u64, "item {i}");
        }
    }

    #[test]
    fn run_sharded_reports_the_lowest_index_error() {
        let items: Vec<u64> = (0..16).collect();
        let mut out = vec![0u64; items.len()];
        let err = run_sharded_into(&items, &mut out, 4, |i, item, _| {
            if item % 5 == 3 {
                Err(i)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, (3, 3), "lowest failing item is 3");
    }

    #[test]
    fn run_sharded_runs_inline_on_a_single_thread_host() {
        // Uses the thread-local budget (not the racy global override) to
        // pin thread_count() to 1, then proves no shard threads spawn:
        // every closure call lands on the calling thread.
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..32).collect();
        let mut out = vec![0u64; items.len()];
        with_thread_budget(1, || {
            run_sharded_into(&items, &mut out, 8, |i, item, slot| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "item {i} must run inline when thread_count() == 1"
                );
                *slot = item + 1;
                Ok::<(), ()>(())
            })
        })
        .unwrap();
        for (item, slot) in items.iter().zip(&out) {
            assert_eq!(*slot, item + 1);
        }
    }

    #[test]
    fn run_sharded_single_worker_runs_inline() {
        let items = [1u64, 2, 3];
        let mut out = vec![0u64; 3];
        run_sharded_into(&items, &mut out, 1, |_, item, slot| {
            *slot = *item;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "one result slot per item")]
    fn run_sharded_rejects_mismatched_slots() {
        let items = [1u64];
        let mut out: Vec<u64> = Vec::new();
        let _ = run_sharded_into(&items, &mut out, 1, |_, _, _| Ok::<(), ()>(()));
    }

    #[test]
    fn budgeted_fan_out_is_correct() {
        let mut data = vec![0u64; 64 * 64];
        with_thread_budget(1, || {
            for_each_chunk(&mut data, 64, |i, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1 + i as u64;
                }
            });
        });
        for (i, chunk) in data.chunks_exact(64).enumerate() {
            assert!(chunk.iter().all(|&x| x == 1 + i as u64), "chunk {i}");
        }
    }
}
