//! The six workloads, the fronts they drive, and the load generator.
//!
//! Conditions are fixed and never bench-tuned: one client thread, one
//! single-threaded card, and the `ServeConfig` / `NetConfig` /
//! `NetServerConfig` **defaults users get**. Each workload exists because
//! it loads the layers in a different proportion; the `why` strings say
//! how, and `BENCHMARK.json` carries them.

use std::time::{Duration, Instant};

use he_accel::prelude::*;
use he_net::{NetServer, NetSession};
use he_ssa::PAPER_OPERAND_BITS;

use crate::inputs::{poisson_schedule, residue, Inputs, Traffic, WARM_BASE};
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// Products in flight in a closed loop at the paper's operand size.
pub const WINDOW: usize = 32;

/// Products in flight in `remote_small`: twice the default `max_batch`,
/// so flushes fill and fire at once. With 32 in flight no flush ever
/// fills, every one waits out the 5 ms `max_delay` timer, the card idles
/// three quarters of the time, and the workload would measure that timer
/// instead of the per-frame and per-job work it exists for.
pub const SMALL_WINDOW: usize = 128;

/// Verified products every set-up serves before the clock starts.
pub const WARM_UP_PRODUCTS: u64 = 64;

/// Operand size of `remote_small`, and of every workload under `--quick`.
pub const SMALL_BITS: usize = 4_000;

/// Arrival rate of `open_deadline`: about half of what `served_stream`
/// sustains on the reference box. A constant of the workload, never
/// scaled to the box, so the offered load is the same on every commit.
pub const OPEN_RATE_PER_S: f64 = 60.0;

/// Deadline of every `open_deadline` arrival, from when it was due. Wide
/// enough that no arrival misses it on a healthy system: the build box
/// freezes for a few hundred milliseconds now and then, the backlog takes
/// about as long again to drain at half load, and a workload on which
/// operations fail for the box's reasons cannot referee anything.
pub const OPEN_DEADLINE: Duration = Duration::from_secs(1);

/// How a workload reaches the multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `SsaSoftware::multiply` called inline: no queue, no cache.
    Inline,
    /// The in-process fleet, closed loop of [`WINDOW`] products.
    Served,
    /// The same fleet behind `NetSession` -> loopback TCP -> `NetServer`.
    Remote,
    /// The in-process fleet, open loop on a Poisson schedule.
    OpenLoop,
}

/// One workload: what runs and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name.
    pub name: &'static str,
    /// One line on why the benchmark has it.
    pub why: &'static str,
    /// How the products reach the multiplier.
    pub path: Path,
    /// Which operands each product multiplies.
    pub traffic: Traffic,
    /// Whether operands are [`SMALL_BITS`] instead of the paper's size.
    pub small: bool,
    /// Products in flight (closed loops only).
    pub window: usize,
}

impl Workload {
    /// Operand size in bits.
    pub fn bits(&self, quick: bool) -> usize {
        if self.small || quick {
            SMALL_BITS
        } else {
            PAPER_OPERAND_BITS
        }
    }
}

/// Every workload, in report order.
pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mul_fresh",
        why: "Inline multiply of two one-shot 786,432-bit operands: three transforms and no serving, so field/ntt/ssa changes show here first and serve/net changes not at all.",
        path: Path::Inline,
        traffic: Traffic::FreshFresh,
        small: false,
        window: WINDOW,
    },
    Workload {
        name: "served_stream",
        why: "Paper's serving shape, fixed x fresh through the in-process fleet, 32 in flight: one-shot operands overrun the 128-entry cache, so insert/evict and flush formation are on the path.",
        path: Path::Served,
        traffic: Traffic::FixedFresh,
        small: false,
        window: WINDOW,
    },
    Workload {
        name: "served_reuse",
        why: "Pairs from 48 recurring operands through the same fleet: every lookup hits, one inverse transform per product, so digest hashing, lookup and locking take their largest share.",
        path: Path::Served,
        traffic: Traffic::ReusePairs,
        small: false,
        window: WINDOW,
    },
    Workload {
        name: "remote_stream",
        why: "served_stream's traffic over loopback TCP: 192 KiB up and down per product of encode, syscalls and decode; remote_stream / served_stream is the host-interface tax at paper size.",
        path: Path::Remote,
        traffic: Traffic::FixedFresh,
        small: false,
        window: WINDOW,
    },
    Workload {
        name: "remote_small",
        why: "4,000-bit fixed x fresh over loopback TCP, 128 in flight: compute is tens of microseconds, so per-frame and per-job overhead in net and serve dominate and ntt does almost nothing.",
        path: Path::Remote,
        traffic: Traffic::FixedFresh,
        small: true,
        window: SMALL_WINDOW,
    },
    Workload {
        name: "open_deadline",
        why: "The only open loop: Poisson arrivals at a fixed 60/s with 1 s deadlines, timed from when each was due; max_delay, EDF order, early flush and expiry only show under a queue.",
        path: Path::OpenLoop,
        traffic: Traffic::FixedFresh,
        small: false,
        window: WINDOW,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The multiplier at `bits`-bit operands.
pub fn backend(bits: usize) -> SsaSoftware {
    if bits == PAPER_OPERAND_BITS {
        SsaSoftware::paper()
    } else {
        SsaSoftware::for_operand_bits(bits).expect("a plan exists for every benchmark size")
    }
}

/// One single-threaded card behind the default serving configuration.
pub fn spawn_fleet(backend: &SsaSoftware) -> ServerPool {
    ServerPool::spawn(
        vec![EvalEngine::new(backend.clone()).with_threads(1)],
        ServeConfig::default(),
    )
}

/// The fleet behind a loopback TCP socket, and a session dialed into it.
pub fn spawn_remote(backend: &SsaSoftware) -> Result<(NetSession, NetServer), String> {
    let server = NetServer::bind_tcp(spawn_fleet(backend), "127.0.0.1:0")
        .map_err(|e| format!("bind loopback: {e}"))?;
    let session =
        NetSession::connect(server.local_endpoint()).map_err(|e| format!("connect: {e}"))?;
    Ok((session, server))
}

/// What a workload submits to.
#[derive(Debug)]
pub enum Front {
    /// The multiplier itself.
    Inline(SsaSoftware),
    /// The in-process fleet.
    Fleet(ServerPool),
    /// A wire session and the server it is dialed into.
    Remote(NetSession, NetServer),
}

impl Front {
    /// Builds the front of `workload` and serves [`WARM_UP_PRODUCTS`]
    /// verified products through it: plan and twiddle construction, fleet
    /// spawn, bind and connect, first flushes. Returns the front and how
    /// long all of that took, in seconds.
    ///
    /// # Errors
    ///
    /// A socket that cannot be bound or dialed, or a warm-up product that
    /// fails.
    pub fn set_up(
        workload: &Workload,
        inputs: &Inputs,
        bits: usize,
    ) -> Result<(Front, f64), String> {
        let start = Instant::now();
        let backend = backend(bits);
        let front = match workload.path {
            Path::Inline => Front::Inline(backend),
            Path::Served | Path::OpenLoop => Front::Fleet(spawn_fleet(&backend)),
            Path::Remote => {
                let (session, server) = spawn_remote(&backend)?;
                Front::Remote(session, server)
            }
        };
        let warm = front.run_closed(
            &Load::new(inputs, workload, WARM_BASE),
            Stop::Count(WARM_UP_PRODUCTS),
            &mut Tracer::off(),
        );
        if warm.good != WARM_UP_PRODUCTS {
            return Err(format!(
                "warm-up served {} of {WARM_UP_PRODUCTS} products",
                warm.good
            ));
        }
        Ok((front, start.elapsed().as_secs_f64()))
    }

    /// Runs `load` as a closed loop (inline: a plain call loop) until
    /// `stop`.
    pub fn run_closed(&self, load: &Load<'_>, stop: Stop, tracer: &mut Tracer) -> Outcome {
        let window = load.workload.window;
        match self {
            Front::Inline(backend) => load.inline_loop(backend, stop, tracer),
            Front::Fleet(pool) => load.closed_loop(pool, window, stop, tracer),
            Front::Remote(session, _) => load.closed_loop(session, window, stop, tracer),
        }
    }

    /// Runs `load` the way its workload paces it, for `seconds`.
    pub fn run(&self, load: &Load<'_>, seconds: f64, tracer: &mut Tracer) -> Outcome {
        match (load.workload.path, self) {
            (Path::OpenLoop, Front::Fleet(pool)) => {
                let schedule = poisson_schedule(load.inputs.seed(), OPEN_RATE_PER_S, seconds);
                load.open_loop(pool, &schedule, tracer)
            }
            _ => self.run_closed(load, Stop::After(Duration::from_secs_f64(seconds)), tracer),
        }
    }

    /// The fleet's rolled-up counters (all zero for the inline front).
    pub fn stats(&self) -> ServeStats {
        match self {
            Front::Inline(_) => ServeStats::default(),
            Front::Fleet(pool) => pool.stats().total(),
            Front::Remote(session, _) => session.stats().expect("stats round trip on loopback"),
        }
    }

    /// Times the wire session re-dialed (0 off the wire).
    pub fn reconnects(&self) -> u64 {
        match self {
            Front::Remote(session, _) => session.reconnects(),
            _ => 0,
        }
    }

    /// Closes the session, stops the server, joins the fleet.
    pub fn shut_down(self) {
        match self {
            Front::Inline(_) => {}
            Front::Fleet(pool) => {
                pool.shutdown();
            }
            Front::Remote(session, server) => {
                session.close();
                drop(session);
                server.shutdown();
            }
        }
    }
}

/// When a closed loop stops submitting (it then drains what is in flight).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many products.
    Count(u64),
    /// Once this much time has passed.
    After(Duration),
}

impl Stop {
    fn reached(self, sent: u64, start: Instant) -> bool {
        match self {
            Stop::Count(n) => sent >= n,
            Stop::After(limit) => start.elapsed() >= limit,
        }
    }
}

/// What one measured segment did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Products submitted, or refused at submission.
    pub sent: u64,
    /// Products that came back, passed the residue check and (open loop)
    /// met their deadline.
    pub good: u64,
    /// Products answered with an error other than expiry.
    pub errored: u64,
    /// Products the fleet expired.
    pub expired: u64,
    /// Arrivals the bounded queue refused.
    pub refused: u64,
    /// Products whose residue or bits were wrong.
    pub mismatched: u64,
    /// Correct products that came back after their deadline.
    pub late: u64,
    /// Submit (or due time) to result in hand, for every answered product.
    pub latencies_ms: Vec<f64>,
    /// When each answered product arrived, seconds into the segment.
    pub completed_at_s: Vec<f64>,
    /// How late after its due time each open-loop arrival was submitted.
    pub lateness_ms: Vec<f64>,
    /// Segment start to last completion.
    pub wall_s: f64,
    /// The seeded 1-in-64 sample kept for the bit-exact comparison.
    pub samples: Vec<(u64, UBig)>,
}

impl Outcome {
    /// Operations that did not produce a correct, timely product.
    pub fn failed(&self) -> u64 {
        self.errored + self.expired + self.refused + self.mismatched + self.late
    }

    /// Good products per second of wall-clock.
    pub fn products_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.good as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Appends a segment that ran right after this one.
    pub fn absorb(&mut self, next: Outcome) {
        let offset = self.wall_s;
        self.sent += next.sent;
        self.good += next.good;
        self.errored += next.errored;
        self.expired += next.expired;
        self.refused += next.refused;
        self.mismatched += next.mismatched;
        self.late += next.late;
        self.latencies_ms.extend(next.latencies_ms);
        self.completed_at_s
            .extend(next.completed_at_s.iter().map(|t| t + offset));
        self.lateness_ms.extend(next.lateness_ms);
        self.wall_s += next.wall_s;
        self.samples.extend(next.samples);
    }

    /// Compares the kept sample bit-exact against `he-bigint`'s own
    /// multiplication. Returns how many were compared; mismatches move
    /// from `good` to `mismatched`.
    pub fn verify_exact(&mut self, inputs: &Inputs, traffic: Traffic) -> u64 {
        let samples = std::mem::take(&mut self.samples);
        for (index, product) in &samples {
            let job = inputs.job(traffic, *index);
            if &job.a * &job.b != *product {
                self.mismatched += 1;
                self.good -= 1;
            }
        }
        samples.len() as u64
    }
}

/// Rate at which the first tenth of a run's products completed over the
/// rate of its last tenth, from their completion times in order: above 1
/// the run slowed down as it went (the "cliff"). Taken over equal product
/// counts, so whole flushes landing at once bias both ends alike.
pub fn first_vs_last_decile_ratio(completed_at_s: &[f64]) -> f64 {
    let n = completed_at_s.len();
    let k = n / 10;
    if k < 2 {
        return 0.0;
    }
    let first = completed_at_s[k - 1] - completed_at_s[0];
    let last = completed_at_s[n - 1] - completed_at_s[n - k];
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// What rides with a product while it is in flight.
struct InFlight {
    index: u64,
    expect: u64,
    /// Submission time; in the open loop, when the arrival was due.
    since: Instant,
    root: SpanId,
}

/// The load generator's orders: which products to make, and the test
/// hook that corrupts one of them.
#[derive(Debug, Clone, Copy)]
pub struct Load<'a> {
    /// The seeded operand pool.
    pub inputs: &'a Inputs,
    /// Whose traffic shape, pacing and window to use.
    pub workload: &'a Workload,
    /// Index of the first product.
    pub first: u64,
    /// Flip one bit of this product at receipt, before it is verified
    /// (the correctness gate's own test).
    pub flip: Option<u64>,
}

impl<'a> Load<'a> {
    /// Products `first..` of `workload`, none corrupted.
    pub fn new(inputs: &'a Inputs, workload: &'a Workload, first: u64) -> Load<'a> {
        Load {
            inputs,
            workload,
            first,
            flip: None,
        }
    }
}

impl Load<'_> {
    /// Books one answer: latency, verification, the kept sample.
    fn settle(
        &self,
        outcome: &mut Outcome,
        tag: InFlight,
        result: Result<UBig, ServeError>,
        start: Instant,
        deadline: Option<Duration>,
        tracer: &mut Tracer,
    ) {
        let received = Instant::now();
        match result {
            Ok(mut product) => {
                let latency = received.duration_since(tag.since);
                outcome.latencies_ms.push(latency.as_secs_f64() * 1e3);
                outcome
                    .completed_at_s
                    .push(received.duration_since(start).as_secs_f64());
                if self.flip == Some(tag.index) {
                    product.set_bit(0, !product.bit(0));
                }
                let span = tracer.open("verify", tag.root, tag.index);
                let correct = residue(&product) == tag.expect;
                tracer.close(span);
                if !correct {
                    outcome.mismatched += 1;
                } else if deadline.is_some_and(|limit| latency > limit) {
                    outcome.late += 1;
                } else {
                    outcome.good += 1;
                    if self.inputs.sampled(tag.index) {
                        outcome.samples.push((tag.index, product));
                    }
                }
            }
            Err(ServeError::Expired { .. }) => outcome.expired += 1,
            Err(_) => outcome.errored += 1,
        }
        tracer.close(tag.root);
        outcome.wall_s = start.elapsed().as_secs_f64();
    }

    /// Opens product `index`'s root span and generates its operands.
    fn make(&self, index: u64, tracer: &mut Tracer) -> (crate::inputs::Job, SpanId) {
        let root = tracer.open("job", NO_SPAN, index);
        let span = tracer.open("gen_operand", root, index);
        let job = self.inputs.job(self.workload.traffic, index);
        tracer.close(span);
        (job, root)
    }

    fn inline_loop(&self, backend: &SsaSoftware, stop: Stop, tracer: &mut Tracer) -> Outcome {
        let mut outcome = Outcome::default();
        let start = Instant::now();
        while !stop.reached(outcome.sent, start) {
            let index = self.first + outcome.sent;
            let (job, root) = self.make(index, tracer);
            let since = Instant::now();
            let span = tracer.open("ssa.multiply", root, index);
            let result = backend.multiply(&job.a, &job.b).map_err(ServeError::from);
            tracer.close(span);
            outcome.sent += 1;
            let tag = InFlight {
                index,
                expect: job.expect,
                since,
                root,
            };
            self.settle(&mut outcome, tag, result, start, None, tracer);
        }
        outcome
    }

    fn closed_loop<S: Submitter + ?Sized>(
        &self,
        front: &S,
        window: usize,
        stop: Stop,
        tracer: &mut Tracer,
    ) -> Outcome {
        let mut outcome = Outcome::default();
        let mut queue: CompletionQueue<'_, S, InFlight> = CompletionQueue::new(front);
        let start = Instant::now();
        loop {
            while queue.in_flight() < window && !stop.reached(outcome.sent, start) {
                let index = self.first + outcome.sent;
                let (job, root) = self.make(index, tracer);
                outcome.sent += 1;
                let tag = InFlight {
                    index,
                    expect: job.expect,
                    since: Instant::now(),
                    root,
                };
                let span = tracer.open("submit_call", root, index);
                let submitted = queue.submit_tagged(ProductRequest::new(job.a, job.b), tag);
                tracer.close(span);
                if let Err((_, tag)) = submitted {
                    tracer.close(tag.root);
                    outcome.errored += 1;
                }
            }
            let waiting_since = Instant::now();
            let Some(done) = queue.recv() else {
                return outcome;
            };
            tracer.record("await_result", waiting_since, done.tag.root, done.tag.index);
            self.settle(&mut outcome, done.tag, done.result, start, None, tracer);
        }
    }

    /// Submits each arrival when it is due, whatever is still in flight,
    /// with a deadline counted from the due time.
    fn open_loop(&self, pool: &ServerPool, schedule: &[Duration], tracer: &mut Tracer) -> Outcome {
        // The last stretch before an arrival is due is spun (polling for
        // completions), because a blocking wait overshoots. It is kept
        // short on purpose: on the build box a halted vCPU can take 1-4 ms
        // to wake, which shows as `loadgen.lateness_p99_ms`, but spinning
        // through that costs the card its share of the core whenever the
        // host runs both vCPUs on one (measured: median latency +40 %,
        // lateness worse, not better). Latency is timed from the due time,
        // so lateness is inside every figure rather than hidden.
        const SPIN: Duration = Duration::from_micros(200);
        let mut outcome = Outcome::default();
        let mut queue: CompletionQueue<'_, ServerPool, InFlight> = CompletionQueue::new(pool);
        let start = Instant::now();
        // The next arrival's operands are made ahead of its due time.
        let mut next = schedule.first().map(|_| self.make(self.first, tracer));
        loop {
            let due = schedule.get(outcome.sent as usize).map(|&at| start + at);
            let now = Instant::now();
            match (due, next.take()) {
                (Some(due), Some((job, root))) if now >= due => {
                    let index = self.first + outcome.sent;
                    let lateness = now.duration_since(due);
                    outcome.lateness_ms.push(lateness.as_secs_f64() * 1e3);
                    outcome.sent += 1;
                    let tag = InFlight {
                        index,
                        expect: job.expect,
                        since: due,
                        root,
                    };
                    let request = ProductRequest::new(job.a, job.b)
                        .with_deadline(OPEN_DEADLINE.saturating_sub(lateness));
                    let span = tracer.open("submit_call", root, index);
                    let submitted = queue.try_submit_tagged(request, tag);
                    tracer.close(span);
                    if let Err((error, tag)) = submitted {
                        tracer.close(tag.root);
                        match error {
                            SubmitError::Full(_) => outcome.refused += 1,
                            SubmitError::Closed(_) => outcome.errored += 1,
                        }
                    }
                    if schedule.len() > outcome.sent as usize {
                        next = Some(self.make(self.first + outcome.sent, tracer));
                    }
                }
                (due, pending) => {
                    next = pending;
                    let wait = match due {
                        Some(due) => due.saturating_duration_since(now).saturating_sub(SPIN),
                        None if queue.in_flight() == 0 => return outcome,
                        None => Duration::from_secs(1),
                    };
                    let done = if wait.is_zero() {
                        std::hint::spin_loop();
                        queue.try_recv()
                    } else if queue.in_flight() == 0 {
                        std::thread::sleep(wait);
                        None
                    } else {
                        queue.recv_timeout(wait)
                    };
                    if let Some(done) = done {
                        tracer.record("await_result", now, done.tag.root, done.tag.index);
                        self.settle(
                            &mut outcome,
                            done.tag,
                            done.result,
                            start,
                            Some(OPEN_DEADLINE),
                            tracer,
                        );
                    }
                }
            }
        }
    }
}
