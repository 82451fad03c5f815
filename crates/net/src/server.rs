//! [`NetServer`] — the serving fleet behind a socket.
//!
//! One server owns one [`ServerPool`] and one listener (TCP or Unix).
//! Each accepted connection gets two reactor threads: a **reader** that
//! decodes frames and submits jobs into the pool through its own
//! [`ClientSession`], and a **writer** that drains a
//! [`CompletionReceiver`] — the owned flip side of the
//! [`he_accel::CompletionQueue`] pattern — turning every completion into
//! a [`Frame::Product`] or typed [`Frame::Failure`]. Between them the
//! card fleet never blocks on the socket and the socket never blocks on
//! the fleet.
//!
//! Pin ids are **per-connection**: the reader maps each wire pin onto a
//! pool-global registration via its session, so two clients can use the
//! same ids without colliding, and a dropped connection releases its
//! pins on its way out.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use he_accel::{
    completion_channel, CancelHandle, ClientSession, CompletionMint, PoolStats, ProductRequest,
    ServerPool, Submitter,
};

use crate::sock::{read_frame, Conn, Endpoint, Listener, ReadEvent};
use crate::wire::{Frame, WireFailure, WireOperand, DEFAULT_MAX_FRAME_BYTES};

/// Tunables of one [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Cap on one frame's body; a client claiming more is disconnected
    /// before a byte of the body is buffered.
    pub max_frame_bytes: usize,
    /// Per-connection read tick — the latency of noticing a server
    /// shutdown on an idle connection.
    pub read_poll: Duration,
    /// Accept-loop poll period — the latency of noticing a shutdown
    /// while no client is dialing.
    pub accept_poll: Duration,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_poll: Duration::from_millis(5),
            accept_poll: Duration::from_millis(2),
        }
    }
}

struct ConnHandle {
    conn: Conn,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// A [`ServerPool`] listening on a socket.
///
/// Binds with [`NetServer::bind_tcp`] / [`NetServer::bind_unix`], serves
/// until [`NetServer::shutdown`], and returns the pool's final
/// [`PoolStats`] — the same lifecycle as [`ServerPool::shutdown`], one
/// hop away.
pub struct NetServer {
    pool: Option<Arc<ServerPool>>,
    local: Endpoint,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    #[cfg(unix)]
    unix_path: Option<std::path::PathBuf>,
}

impl core::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetServer")
            .field("local", &self.local.to_string())
            .finish()
    }
}

impl NetServer {
    /// Puts `pool` on a TCP socket (use port 0 to let the OS pick;
    /// [`NetServer::local_endpoint`] reports the resolved address).
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn bind_tcp(pool: ServerPool, addr: &str) -> std::io::Result<NetServer> {
        NetServer::bind_tcp_with(pool, addr, NetServerConfig::default())
    }

    /// [`NetServer::bind_tcp`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn bind_tcp_with(
        pool: ServerPool,
        addr: &str,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let (listener, local) = Listener::bind_tcp(addr)?;
        Ok(NetServer::start(pool, listener, local, config))
    }

    /// Puts `pool` on a Unix domain socket; the path is unlinked on
    /// shutdown.
    ///
    /// # Errors
    ///
    /// The bind error — typically the path already existing.
    #[cfg(unix)]
    pub fn bind_unix(
        pool: ServerPool,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<NetServer> {
        let (listener, local) = Listener::bind_unix(path.as_ref())?;
        let mut server = NetServer::start(pool, listener, local, NetServerConfig::default());
        server.unix_path = Some(path.as_ref().to_path_buf());
        Ok(server)
    }

    fn start(
        pool: ServerPool,
        listener: Listener,
        local: Endpoint,
        config: NetServerConfig,
    ) -> NetServer {
        let pool = Arc::new(pool);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("he-net-accept".into())
                .spawn(move || run_accept(pool, listener, stop, conns, config))
                .expect("spawn accept thread")
        };
        NetServer {
            pool: Some(pool),
            local,
            stop,
            accept: Some(accept),
            conns,
            #[cfg(unix)]
            unix_path: None,
        }
    }

    /// The bound endpoint — with the OS-assigned port resolved, ready to
    /// hand to [`crate::NetSession::connect`].
    pub fn local_endpoint(&self) -> Endpoint {
        self.local.clone()
    }

    /// Stops accepting, disconnects every client (their in-flight
    /// requests resolve to [`he_accel::ServeError::Closed`] client-side),
    /// shuts the pool down and returns its final stats.
    pub fn shutdown(mut self) -> PoolStats {
        self.stop_and_join();
        let pool = self.pool.take().expect("pool present until shutdown");
        let pool =
            Arc::try_unwrap(pool).unwrap_or_else(|_| unreachable!("all pool clones joined above"));
        pool.shutdown()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<ConnHandle> = {
            let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.drain(..).collect()
        };
        for handle in handles {
            handle.conn.shutdown();
            let _ = handle.reader.join();
            let _ = handle.writer.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
        if let Some(pool) = self.pool.take() {
            if let Ok(pool) = Arc::try_unwrap(pool) {
                pool.shutdown();
            }
        }
    }
}

fn run_accept(
    pool: Arc<ServerPool>,
    listener: Listener,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    config: NetServerConfig,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.poll_accept() {
            Ok(Some(conn)) => {
                if let Err(e) = spawn_connection(&pool, conn, &stop, &conns, &config) {
                    // A socket that cannot be configured is dropped;
                    // the listener keeps serving.
                    let _ = e;
                }
            }
            Ok(None) => thread::sleep(config.accept_poll),
            Err(_) => thread::sleep(config.accept_poll),
        }
    }
}

fn spawn_connection(
    pool: &Arc<ServerPool>,
    conn: Conn,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<ConnHandle>>>,
    config: &NetServerConfig,
) -> std::io::Result<()> {
    conn.set_read_timeout(Some(config.read_poll))?;
    let read_half = conn.try_clone()?;
    let write_half = Arc::new(Mutex::new(conn.try_clone()?));
    let (mint, receiver) = completion_channel();
    let cancels: Arc<Mutex<HashMap<u64, CancelHandle>>> = Arc::new(Mutex::new(HashMap::new()));

    let reader = {
        let pool = Arc::clone(pool);
        let stop = Arc::clone(stop);
        let write_half = Arc::clone(&write_half);
        let cancels = Arc::clone(&cancels);
        let config = config.clone();
        thread::Builder::new()
            .name("he-net-conn-reader".into())
            .spawn(move || {
                run_conn_reader(pool, read_half, write_half, mint, cancels, stop, config)
            })?
    };
    let writer = {
        let write_half = Arc::clone(&write_half);
        let cancels = Arc::clone(&cancels);
        thread::Builder::new()
            .name("he-net-conn-writer".into())
            .spawn(move || {
                while let Some((req_id, outcome)) = receiver.recv() {
                    lock(&cancels).remove(&req_id);
                    let frame = match outcome {
                        Ok(value) => Frame::Product { req_id, value },
                        Err(error) => Frame::Failure {
                            req_id,
                            error: WireFailure::from_serve(&error),
                        },
                    };
                    if write_frame(&write_half, &frame).is_err() {
                        // The client is gone; completions still in the
                        // channel drain to nowhere, which is exactly a
                        // disconnected client's contract.
                        break;
                    }
                }
            })?
    };
    lock(conns).push(ConnHandle {
        conn,
        reader,
        writer,
    });
    Ok(())
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn write_frame(write_half: &Mutex<Conn>, frame: &Frame) -> std::io::Result<()> {
    let bytes = frame.encode();
    let mut conn = lock(write_half);
    conn.write_all(&bytes)?;
    conn.flush()
}

/// One connection's reader reactor: every decoded frame either submits
/// into the pool (answers flow back through the writer) or is answered
/// inline under the write mutex (stats, pong, protocol failures). A
/// frame that fails to decode closes the connection — a peer that has
/// lost framing cannot be resynchronized.
fn run_conn_reader(
    pool: Arc<ServerPool>,
    mut read_half: Conn,
    write_half: Arc<Mutex<Conn>>,
    mint: CompletionMint,
    cancels: Arc<Mutex<HashMap<u64, CancelHandle>>>,
    stop: Arc<AtomicBool>,
    config: NetServerConfig,
) {
    let mut session = pool.session();
    // wire pin id → session name. Names are session-scoped, so the
    // stringified id cannot collide across connections.
    let mut pins: HashMap<u64, String> = HashMap::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let frame = match read_frame(&mut read_half, config.max_frame_bytes) {
            Ok(ReadEvent::Frame(frame)) => frame,
            Ok(ReadEvent::Tick) => continue,
            Ok(ReadEvent::Eof) | Err(_) => break,
        };
        match frame {
            Frame::Submit {
                req_id,
                a,
                b,
                deadline_nanos,
            } => {
                let request = match build_request(&session, &pins, a, b) {
                    Ok(request) => request,
                    Err(detail) => {
                        let frame = Frame::Failure {
                            req_id,
                            error: WireFailure::Backend {
                                kind: "protocol".into(),
                                detail: detail.into(),
                            },
                        };
                        if write_frame(&write_half, &frame).is_err() {
                            break;
                        }
                        continue;
                    }
                };
                let request = match deadline_nanos {
                    Some(nanos) => request.with_deadline(Duration::from_nanos(nanos)),
                    None => request,
                };
                // The handle goes in first so the writer's removal cannot
                // outrun it. A refused submission drops the sink, which
                // queues a `Closed` completion for the writer like any
                // other answer.
                let sink = mint.sink(req_id);
                lock(&cancels).insert(req_id, sink.cancel_handle());
                let _ = session.submit_into(request, sink);
            }
            Frame::Register { pin, operand } => {
                let name = pin.to_string();
                session.register(name.clone(), operand);
                pins.insert(pin, name);
            }
            Frame::Unregister { pin } => {
                if let Some(name) = pins.remove(&pin) {
                    session.unregister(&name);
                }
            }
            Frame::Cancel { req_id } => {
                if let Some(handle) = lock(&cancels).get(&req_id) {
                    handle.cancel();
                }
            }
            Frame::StatsRequest { req_id } => {
                let stats = pool.stats().total();
                if write_frame(&write_half, &Frame::Stats { req_id, stats }).is_err() {
                    break;
                }
            }
            Frame::Ping { req_id } => {
                if write_frame(&write_half, &Frame::Pong { req_id }).is_err() {
                    break;
                }
            }
            // Server-to-client opcodes arriving at the server mean the
            // peer is not a client; drop the connection.
            Frame::Product { .. }
            | Frame::Failure { .. }
            | Frame::Stats { .. }
            | Frame::Pong { .. } => break,
        }
    }
    read_half.shutdown();
    lock(&write_half).shutdown();
    // The session going out of scope releases this connection's pins;
    // dropping the mint lets the writer's `recv` run dry and exit once
    // the last in-flight sink resolves.
}

/// Materializes a submit frame into a [`ProductRequest`] against this
/// connection's session. Pinned operands resolve through the session's
/// registrations — an unknown pin is a protocol error, answered (not
/// fatal) so a client that raced an unregister gets a typed failure.
fn build_request(
    session: &ClientSession,
    pins: &HashMap<u64, String>,
    a: WireOperand,
    b: WireOperand,
) -> Result<ProductRequest, &'static str> {
    let name = |pin: u64| -> Result<&str, &'static str> {
        pins.get(&pin).map(String::as_str).ok_or("unknown pin id")
    };
    Ok(match (a, b) {
        (WireOperand::Inline(a), WireOperand::Inline(b)) => ProductRequest::new(a, b),
        (WireOperand::Pinned(pin), WireOperand::Inline(fresh)) => {
            session.request_with(name(pin)?, fresh)
        }
        // The product commutes; the pinned side anchors the request.
        (WireOperand::Inline(fresh), WireOperand::Pinned(pin)) => {
            session.request_with(name(pin)?, fresh)
        }
        (WireOperand::Pinned(pin_a), WireOperand::Pinned(pin_b)) => {
            session.request_between(name(pin_a)?, name(pin_b)?)
        }
    })
}
