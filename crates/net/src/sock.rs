//! Transport-neutral socket plumbing shared by [`crate::NetServer`] and
//! [`crate::NetSession`]: one stream type over TCP and Unix domain
//! sockets, a poll-friendly listener, and the frame read loop that keeps
//! reactors responsive (stop flags, cancel sweeps) without busy-waiting.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

use crate::wire::{Frame, WireError, LEN_PREFIX_BYTES};
use crate::NetError;

/// Where a server listens / a session connects.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address (`"127.0.0.1:4070"`, `"[::1]:4070"`, …).
    Tcp(String),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint::Tcp(addr.into())
    }

    /// A Unix-domain-socket endpoint.
    #[cfg(unix)]
    pub fn unix(path: impl AsRef<Path>) -> Endpoint {
        Endpoint::Unix(path.as_ref().to_path_buf())
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// One connected stream, either transport.
#[derive(Debug)]
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                // Frames are the batching unit; Nagle would serialize the
                // submit→reply round trip behind delayed ACKs.
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Closes both directions; readers blocked on the stream wake with
    /// EOF. Errors are ignored — the peer may already be gone.
    pub(crate) fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener, either transport, in non-blocking accept mode so
/// the accept loop can poll a stop flag.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    pub(crate) fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<(Listener, Endpoint)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = Endpoint::Tcp(listener.local_addr()?.to_string());
        Ok((Listener::Tcp(listener), local))
    }

    #[cfg(unix)]
    pub(crate) fn bind_unix(path: impl AsRef<Path>) -> io::Result<(Listener, Endpoint)> {
        let path = path.as_ref();
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok((Listener::Unix(listener), Endpoint::Unix(path.to_path_buf())))
    }

    /// One non-blocking accept attempt: `Ok(None)` when no connection is
    /// waiting.
    pub(crate) fn poll_accept(&self) -> io::Result<Option<Conn>> {
        let conn = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    Some(Conn::Tcp(stream))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => Some(Conn::Unix(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        if let Some(conn) = &conn {
            // Accepted sockets start blocking regardless of the
            // listener's mode on some platforms; reads are driven by the
            // per-connection timeout instead.
            match conn {
                Conn::Tcp(s) => s.set_nonblocking(false)?,
                #[cfg(unix)]
                Conn::Unix(s) => s.set_nonblocking(false)?,
            }
        }
        Ok(conn)
    }
}

/// What one read-loop turn produced.
pub(crate) enum ReadEvent {
    /// A complete frame.
    Frame(Frame),
    /// The read timeout elapsed **between** frames — the hook for
    /// housekeeping (cancel sweeps, stop-flag checks). A timeout *inside*
    /// a frame keeps reading: half-received frames are completed, not
    /// abandoned.
    Tick,
    /// The peer closed the connection at a frame boundary.
    Eof,
}

/// Reads one frame from `conn` (whose read timeout is the tick period).
///
/// Returns [`ReadEvent::Tick`] only at a frame boundary, so callers can
/// run housekeeping between frames without ever tearing a frame in half.
/// A peer that dies mid-frame surfaces as `UnexpectedEof`; a frame whose
/// prefix violates `max_frame` surfaces as [`NetError::Wire`] **before**
/// any body byte is read or buffered.
pub(crate) fn read_frame(conn: &mut Conn, max_frame: usize) -> Result<ReadEvent, NetError> {
    let mut prefix = [0u8; LEN_PREFIX_BYTES];
    match read_full(conn, &mut prefix, true)? {
        FullRead::Done => {}
        FullRead::TimedOutEmpty => return Ok(ReadEvent::Tick),
        FullRead::EofEmpty => return Ok(ReadEvent::Eof),
    }
    let body_len = u32::from_le_bytes(prefix) as u64;
    if body_len > max_frame as u64 {
        return Err(NetError::Wire(WireError::Oversized {
            claimed: body_len,
            cap: max_frame,
        }));
    }
    // Prefix and body in one buffer, the body read straight into it, for
    // the one shared decoder; prefix re-validation is trivially cheap
    // next to the socket reads.
    let mut framed = vec![0u8; LEN_PREFIX_BYTES + body_len as usize];
    let (head, body) = framed.split_at_mut(LEN_PREFIX_BYTES);
    head.copy_from_slice(&prefix);
    match read_full(conn, body, false)? {
        FullRead::Done => {}
        FullRead::TimedOutEmpty | FullRead::EofEmpty => {
            return Err(NetError::Io(io::ErrorKind::UnexpectedEof.into()))
        }
    }
    let (frame, _) = Frame::decode(&framed, max_frame)?;
    Ok(ReadEvent::Frame(frame))
}

enum FullRead {
    Done,
    /// The read timeout fired with **zero** bytes read (only reported
    /// when `yield_on_empty_timeout`).
    TimedOutEmpty,
    /// EOF with zero bytes read.
    EofEmpty,
}

/// `read_exact` that distinguishes boundary conditions: timeouts with a
/// partially read buffer keep reading (a slow peer is not a dead peer),
/// and EOF is only clean when nothing of the buffer had arrived.
fn read_full(
    conn: &mut Conn,
    buf: &mut [u8],
    yield_on_empty_timeout: bool,
) -> Result<FullRead, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FullRead::EofEmpty),
            Ok(0) => return Err(NetError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if filled == 0 && yield_on_empty_timeout {
                    return Ok(FullRead::TimedOutEmpty);
                }
                // Mid-buffer timeout: keep reading. The frame has
                // started; the only exits are completion or a hard error.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(FullRead::Done)
}
