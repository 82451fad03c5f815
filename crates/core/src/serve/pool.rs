//! [`ServerPool`]: the fleet's owner — spawns the cards, hands out
//! sessions, reports stats, shuts down.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use he_ntt::par::lock_or_recover;

use super::completion::{CompletionSink, SubmitError, Submitter};
use super::config::{DrainOutcome, PoolStats, ServeConfig, ServeStats};
use super::queue::{PoolShared, ProductRequest};
use super::session::ClientSession;
use super::worker::{CardFactory, CardWorker};
use crate::engine::EvalEngine;
use crate::multiplier::Multiplier;

/// A serving **fleet**: one or more resident [`EvalEngine`]s — one per
/// accelerator card — claiming deadline-ranked runs from one shared
/// bounded queue (see the [module docs](super) for the full
/// contract).
///
/// Every card keeps its own operand cache (handles are provenance-stamped
/// per backend instance), runs its flushes independently, and reports its
/// own [`ServeStats`]; the queue and the backpressure bound are shared.
pub struct ServerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<ServeStats>>,
}

impl core::fmt::Debug for ServerPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServerPool")
            .field("workers", &self.workers.len())
            .field("open", &!self.shared.lock_state().closed)
            .finish()
    }
}

impl ServerPool {
    /// Spawns one worker thread per engine; the engines move in and stay
    /// resident until [`ServerPool::shutdown`] (or drop). Cards may be
    /// heterogeneous (different transform geometries, even on the same
    /// host) — each prepares its own operands, so jobs never depend on
    /// cross-card handle compatibility.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn spawn<M>(engines: Vec<EvalEngine<M>>, config: ServeConfig) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
    {
        ServerPool::spawn_inner(engines, None, config)
    }

    /// Spawns a **supervised** fleet of `cards` workers whose engines come
    /// from `factory` (called once per card index up front) — and again
    /// whenever a card's flush panics: the worker catches the unwind,
    /// re-queues the flush's jobs to the surviving cards, rebuilds its
    /// engine from the factory under exponential backoff (bounded by
    /// [`ServeConfig::restart_cap`] consecutive attempts), replays the
    /// session pin registry into the fresh engine, and resumes claiming.
    /// [`PoolStats::health`] exposes each card's supervision state. On an
    /// *unsupervised* pool ([`ServerPool::spawn`]) a panicking card is
    /// simply lost for good.
    ///
    /// ```
    /// use he_accel::prelude::*;
    ///
    /// let pool = ServerPool::with_backend_factory(
    ///     2,
    ///     |_card| EvalEngine::new(SsaSoftware::for_operand_bits(256).expect("fits")),
    ///     ServeConfig::default(),
    /// );
    /// let ticket = pool.submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))?;
    /// assert_eq!(ticket.wait().expect("served"), UBig::from(42u64));
    /// let stats = pool.shutdown();
    /// assert_eq!(stats.health, vec![CardHealth::Live; 2]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cards` is zero, or if the factory panics while building
    /// the initial engines.
    pub fn with_backend_factory<M, F>(cards: usize, factory: F, config: ServeConfig) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
        F: Fn(usize) -> EvalEngine<M> + Send + Sync + 'static,
    {
        let factory: CardFactory<M> = Arc::new(factory);
        let engines = (0..cards).map(|index| factory(index)).collect();
        ServerPool::spawn_inner(engines, Some(factory), config)
    }

    fn spawn_inner<M>(
        engines: Vec<EvalEngine<M>>,
        factory: Option<CardFactory<M>>,
        config: ServeConfig,
    ) -> ServerPool
    where
        M: Multiplier + Send + Sync + 'static,
    {
        assert!(
            !engines.is_empty(),
            "a serving fleet needs at least one card"
        );
        let shared = Arc::new(PoolShared::new(config, engines.len()));
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| {
                let shared = Arc::clone(&shared);
                let factory = factory.clone();
                std::thread::Builder::new()
                    .name(format!("he-serve-card-{index}"))
                    .spawn(move || CardWorker::new(index, engine, shared, factory).run())
                    .expect("spawn serving-card worker")
            })
            .collect();
        ServerPool { shared, workers }
    }

    /// Number of cards serving this pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A per-client session over this pool: register recurring operands
    /// once, then stream products against them (see [`ClientSession`]).
    pub fn session(&self) -> ClientSession {
        ClientSession {
            shared: Arc::clone(&self.shared),
            names: HashMap::new(),
        }
    }

    /// A live snapshot of the fleet's counters (refreshed before every
    /// delivery), without stopping anything.
    pub fn stats(&self) -> PoolStats {
        let per_worker = self
            .shared
            .live
            .iter()
            .map(|slot| *lock_or_recover(slot))
            .collect();
        self.pool_stats(per_worker)
    }

    fn pool_stats(&self, per_worker: Vec<ServeStats>) -> PoolStats {
        PoolStats {
            per_worker,
            shed: self.shared.shed.load(Ordering::Relaxed),
            health: self.shared.health_snapshot(),
        }
    }

    /// Joins every worker and returns the final stats — recovered even
    /// from a card whose *thread* died (a panic outside the supervised
    /// flush path): the card's last published live-slot snapshot stands
    /// in for the counters a clean exit would have returned. A dead
    /// worker must not panic the caller mid-drain.
    fn join(&mut self, health: Vec<super::CardHealth>) -> PoolStats {
        let per_worker = self
            .workers
            .drain(..)
            .zip(&self.shared.live)
            .map(|(worker, live)| worker.join().unwrap_or_else(|_| *lock_or_recover(live)))
            .collect();
        // Jobs accepted after the cards drained and exited (a losing race
        // with shutdown) answer `Closed` through their dropped sinks.
        self.shared.lock_state().pending.clear();
        PoolStats {
            health,
            ..self.pool_stats(per_worker)
        }
    }

    /// Closes the queue, drains every already-accepted job, joins every
    /// card and returns the fleet's lifetime counters. Never panics: a
    /// card whose worker thread died is reported through
    /// [`PoolStats::health`] (its jobs resolved
    /// [`ServeError::Closed`](super::ServeError::Closed) when it went
    /// down), and its last published stats snapshot stands in for the
    /// final counters.
    pub fn shutdown(mut self) -> PoolStats {
        // Health reflects the serving-time state: snapshot before the
        // workers exit (every exit marks its card `Dead`).
        let health = self.shared.health_snapshot();
        self.shared.close();
        self.join(health)
    }

    /// Graceful shutdown with a deadline: stops intake immediately, lets
    /// the fleet finish every already-accepted job for up to `timeout`,
    /// then joins the workers and reports whether the drain beat the
    /// clock.
    ///
    /// If the timeout expires first, the jobs still queued are dropped
    /// (their sinks resolve [`ServeError::Closed`](super::ServeError::Closed))
    /// and [`DrainOutcome::clean`] is `false`; in-flight flushes still
    /// run to completion — a running multiply cannot be preempted — so
    /// the call may return somewhat after the deadline, but never hangs
    /// on queued work.
    ///
    /// ```
    /// use he_accel::prelude::*;
    /// use std::time::Duration;
    ///
    /// let pool = ServerPool::spawn(
    ///     vec![EvalEngine::new(SsaSoftware::for_operand_bits(256)?)],
    ///     ServeConfig::default(),
    /// );
    /// let ticket = pool.submit(ProductRequest::new(UBig::from(6u64), UBig::from(7u64)))?;
    /// // Intake stops, the accepted job still completes, and the fleet
    /// // joins.
    /// let outcome = pool.drain(Duration::from_secs(30));
    /// assert!(outcome.clean);
    /// assert_eq!(outcome.stats.total().completed, 1);
    /// assert_eq!(ticket.wait().expect("drained, not dropped"), UBig::from(42u64));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn drain(mut self, timeout: Duration) -> DrainOutcome {
        let health = self.shared.health_snapshot();
        self.shared.close();
        let deadline = Instant::now() + timeout;
        // Workers self-exit once the closed queue is drained, so "queue
        // empty and everyone gone" is the drain-complete signal.
        let mut clean = true;
        while self.shared.workers_alive.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                clean = false;
                // Give up on the still-queued jobs so the join below
                // waits only for in-flight flushes, not the whole
                // backlog.
                self.shared.lock_state().pending.clear();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        DrainOutcome {
            stats: self.join(health),
            clean,
        }
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        self.shared.close();
        // Drain-and-join; a worker panic surfaces through its jobs'
        // sinks as `Closed`, not through drop.
        self.join(Vec::new());
    }
}

impl Submitter for ServerPool {
    fn submit_sink(
        &self,
        request: ProductRequest,
        sink: CompletionSink,
        blocking: bool,
    ) -> Result<(), SubmitError> {
        self.shared.enqueue(request, sink, blocking)
    }
}
