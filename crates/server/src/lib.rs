//! # gputx-server — the network front door for the pipelined engine
//!
//! The streaming engine (`gputx_exec::PipelinedEngine`) ingests transactions
//! through in-process [`SubmitHandle`]s. This crate puts a real wire in front
//! of it: a [`Server`] accepts TCP connections (or in-process socket pairs,
//! for CI and offline runs) speaking the compact length-framed binary
//! protocol of [`proto`], forwards each request into the pipeline, and
//! resolves the engine's `Ticket`s back into response frames — asynchronously,
//! so one connection multiplexes many in-flight submits while bulks form and
//! commit behind it.
//!
//! Per connection the server runs two threads:
//!
//! * a **reader** that parses frames out of a [`FrameReader`] (one transport
//!   read per burst), submits into the pipeline, and enqueues the resulting
//!   ticket (or an immediate response) to the responder in request order;
//! * a **responder** that resolves tickets FIFO and coalesces response frames
//!   in a [`FrameWriter`], flushing only just before it would block (see
//!   `docs/wire-protocol.md`, "Write coalescing"). Because a single
//!   connection's submissions enter admission in frame order, its responses
//!   also come back in frame order — which is what makes a single-connection
//!   run bit-reproducible against an in-process run of the same stream.
//!
//! Failure is data, not a panic: a malformed frame gets a
//! [`proto::Response::Error`] and a connection close, an engine shutdown
//! resolves outstanding tickets as `Disconnected`, and a peer that vanishes
//! mid-bulk simply stops receiving responses while its already-admitted
//! transactions commit normally (the responder drains its queue so the
//! pipeline never blocks on a dead connection).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod proto;

use gputx_exec::{PipelineError, SubmitHandle, Ticket};
use gputx_txn::TxnOutcome;
use proto::{
    decode_request, encode_response, read_frame, write_frame, FrameError, Request, Response,
    MAX_FRAME_LEN,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A bidirectional byte stream the server can serve: both halves of the
/// conversation need an independent handle (reader and responder run on
/// separate threads), and shutdown must reach the peer even while clones are
/// still alive.
///
/// Implemented for [`TcpStream`] and [`UnixStream`]; [`socket_pair`] builds
/// the in-process variant used by CI and the offline tests.
pub trait Duplex: Read + Write + Send + 'static {
    /// An independent handle to the same underlying socket.
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>>;
    /// Shut down both directions of the socket itself (not just this handle),
    /// so the peer observes EOF even while other clones are alive.
    fn shutdown_both(&self) -> io::Result<()>;
    /// Bound how long a blocked `read` may wait before failing with
    /// `WouldBlock`/`TimedOut`, letting a reader thread poll a shutdown flag
    /// instead of hanging forever on a peer that vanished without a FIN.
    /// The default is a no-op for transports without timeout support —
    /// callers must treat a timeout as *optional* and keep the shutdown
    /// path (`shutdown_both`) as the guaranteed unblocker.
    fn set_read_timeout(&self, _timeout: Option<std::time::Duration>) -> io::Result<()> {
        Ok(())
    }
    /// The buffered halves the request/response path runs on: a
    /// [`FrameReader`] that refills in bulk and a [`FrameWriter`] that
    /// coalesces whole frames until flushed. A wrapper that acts per frame
    /// (like [`ChaosDuplex`]) overrides this so it stays *above* the
    /// buffers instead of seeing one coalesced write per burst.
    fn buffered_halves(&self) -> io::Result<(FrameReader, FrameWriter)> {
        Ok((
            FrameReader::new(self.try_clone_box()?, None),
            FrameWriter::new(self.try_clone_box()?, None),
        ))
    }
}

/// Capacity of a [`FrameReader`]'s refill buffer.
pub const READ_BUFFER_LEN: usize = 64 * 1024;

/// Bytes a [`FrameWriter`] holds before it flushes on its own.
pub const WRITE_BUFFER_LEN: usize = 64 * 1024;

/// Frames a [`FrameWriter`] holds before it flushes on its own, whatever
/// their size: at most half the server's response queue, so a peer whose
/// frames sit in a full buffer always has others in flight whose answers
/// come back.
pub const WRITE_BUFFER_FRAMES: usize = RESPONSE_QUEUE_DEPTH / 2;

/// Responses a connection's reader may queue for its responder before it
/// stops reading the socket. A peer with at most this many requests
/// unanswered never finds that reader blocked on a full response queue, so
/// a write of its requests drains whether or not the peer is reading its
/// responses meanwhile.
pub const RESPONSE_QUEUE_DEPTH: usize = 1024;

/// The buffered read half of a connection: frames are parsed out of a
/// refill buffer, so a burst of frames costs one transport read. With a
/// fault stream attached, each `read` call (not each refill) draws one
/// read-side decision, exactly as an unbuffered [`ChaosDuplex`] read would.
pub struct FrameReader {
    inner: io::BufReader<Box<dyn Duplex>>,
    faults: Option<Arc<gputx_faults::WireFaults>>,
}

impl FrameReader {
    fn new(stream: Box<dyn Duplex>, faults: Option<Arc<gputx_faults::WireFaults>>) -> Self {
        FrameReader {
            inner: io::BufReader::with_capacity(READ_BUFFER_LEN, stream),
            faults,
        }
    }
}

impl Read for FrameReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(faults) = &self.faults {
            read_fault(faults, &**self.inner.get_ref())?;
        }
        self.inner.read(buf)
    }
}

/// The buffered write half of a connection: [`push`](FrameWriter::push)
/// appends a whole frame to memory, [`flush`](FrameWriter::flush) hands
/// everything buffered to the transport in one `write_all`. With a fault
/// stream attached, each frame draws exactly one write-side decision before
/// it enters the buffer, so a `Drop` loses one frame, never a burst.
pub struct FrameWriter {
    stream: Box<dyn Duplex>,
    faults: Option<Arc<gputx_faults::WireFaults>>,
    buf: Vec<u8>,
    /// Frames in `buf`.
    frames: usize,
}

impl FrameWriter {
    fn new(stream: Box<dyn Duplex>, faults: Option<Arc<gputx_faults::WireFaults>>) -> Self {
        FrameWriter {
            stream,
            faults,
            buf: Vec::new(),
            frames: 0,
        }
    }

    /// Buffer one frame. Once the buffer holds [`WRITE_BUFFER_LEN`] bytes
    /// or [`WRITE_BUFFER_FRAMES`] frames it is flushed on the spot; returns
    /// the frames that flush carried (0 when the frame only went to memory).
    pub fn push(&mut self, payload: &[u8]) -> io::Result<usize> {
        let fate = match &self.faults {
            Some(faults) => write_fault(faults, &*self.stream)?,
            None => FrameFate::Send,
        };
        if fate == FrameFate::Drop {
            return Ok(0);
        }
        let start = self.buf.len();
        proto::append_frame(&mut self.buf, payload);
        if fate == FrameFate::Garble {
            garble(&mut self.buf[start..]);
        }
        self.frames += 1;
        if self.buf.len() >= WRITE_BUFFER_LEN || self.frames >= WRITE_BUFFER_FRAMES {
            self.flush()
        } else {
            Ok(0)
        }
    }

    /// Write every buffered frame to the transport in one `write_all` and
    /// return how many it carried — 0 (and no syscall) when nothing was
    /// buffered. After an error the buffer is discarded: part of it may be
    /// on the wire, so the connection's framing can no longer be trusted.
    pub fn flush(&mut self) -> io::Result<usize> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        let frames = std::mem::take(&mut self.frames);
        let written = self
            .stream
            .write_all(&self.buf)
            .and_then(|()| self.stream.flush());
        self.buf.clear();
        written.map(|()| frames)
    }
}

impl Duplex for TcpStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

impl Duplex for UnixStream {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
}

impl Duplex for Box<dyn Duplex> {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        (**self).try_clone_box()
    }
    fn shutdown_both(&self) -> io::Result<()> {
        (**self).shutdown_both()
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        (**self).set_read_timeout(timeout)
    }
    fn buffered_halves(&self) -> io::Result<(FrameReader, FrameWriter)> {
        (**self).buffered_halves()
    }
}

/// A [`Duplex`] that consults a deterministic
/// [`WireFaults`](gputx_faults::WireFaults) decision stream on every read
/// and write: writes may be silently dropped, corrupted (one byte flipped)
/// or delayed, reads delayed; either direction may tear the connection down
/// with a reset. Built by [`chaos_wrap`]; wraps any transport, so the same
/// chaos plane serves the client wire and replication follower streams.
pub struct ChaosDuplex {
    inner: Box<dyn Duplex>,
    faults: Arc<gputx_faults::WireFaults>,
}

/// Wrap `stream` so its I/O consults the given fault-decision stream.
/// Clones (reader/writer halves) share the stream's per-direction counters.
pub fn chaos_wrap<S: Duplex>(stream: S, faults: gputx_faults::WireFaults) -> ChaosDuplex {
    ChaosDuplex {
        inner: Box::new(stream),
        faults: Arc::new(faults),
    }
}

/// What one write-side fault decision does to the bytes it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFate {
    Send,
    /// Report success without writing.
    Drop,
    /// Flip one byte, then write.
    Garble,
}

fn injected_reset(stream: &dyn Duplex) -> io::Error {
    let _ = stream.shutdown_both();
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

/// Draw one read-side decision: sleep through a delay, or reset `stream`.
fn read_fault(faults: &gputx_faults::WireFaults, stream: &dyn Duplex) -> io::Result<()> {
    match faults.on_read() {
        Some(gputx_faults::WireFault::Delay(d)) => std::thread::sleep(d),
        Some(gputx_faults::WireFault::Reset) => return Err(injected_reset(stream)),
        _ => {}
    }
    Ok(())
}

/// Draw one write-side decision. Delays and resets act here; drops and
/// corruptions are returned for the caller to apply to its bytes.
fn write_fault(faults: &gputx_faults::WireFaults, stream: &dyn Duplex) -> io::Result<FrameFate> {
    Ok(match faults.on_write() {
        Some(gputx_faults::WireFault::Drop) => FrameFate::Drop,
        Some(gputx_faults::WireFault::Corrupt) => FrameFate::Garble,
        Some(gputx_faults::WireFault::Delay(d)) => {
            std::thread::sleep(d);
            FrameFate::Send
        }
        Some(gputx_faults::WireFault::Reset) => return Err(injected_reset(stream)),
        None => FrameFate::Send,
    })
}

/// Flip the middle byte: the CRC (or a length check) catches it downstream.
fn garble(bytes: &mut [u8]) {
    if !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
    }
}

impl Read for ChaosDuplex {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read_fault(&self.faults, &*self.inner)?;
        self.inner.read(buf)
    }
}

impl Write for ChaosDuplex {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // One decision per call. Unbuffered callers (`write_frame`, the
        // replication streams) hand over one whole frame per call, so a drop
        // loses exactly that frame; the client/server request path instead
        // goes through `buffered_halves`, which decides per frame *before*
        // coalescing and never reaches this method.
        match write_fault(&self.faults, &*self.inner)? {
            FrameFate::Drop => Ok(buf.len()),
            FrameFate::Garble if !buf.is_empty() => {
                let mut garbled = buf.to_vec();
                garble(&mut garbled);
                self.inner.write(&garbled)
            }
            _ => self.inner.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Duplex for ChaosDuplex {
    fn try_clone_box(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(ChaosDuplex {
            inner: self.inner.try_clone_box()?,
            faults: Arc::clone(&self.faults),
        }))
    }
    fn shutdown_both(&self) -> io::Result<()> {
        self.inner.shutdown_both()
    }
    fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    /// Buffered halves of the *inner* transport with this fault stream
    /// layered on top: the fault plane stays above the buffers, drawing per
    /// frame on writes and per `read` call on reads.
    fn buffered_halves(&self) -> io::Result<(FrameReader, FrameWriter)> {
        Ok((
            FrameReader::new(self.inner.try_clone_box()?, Some(Arc::clone(&self.faults))),
            FrameWriter::new(self.inner.try_clone_box()?, Some(Arc::clone(&self.faults))),
        ))
    }
}

/// A connected in-process socket pair: attach one end to a [`Server`], hand
/// the other to a client. Same syscalls-and-frames path as TCP, no listener
/// and no network namespace — what the CI `net` job loops back over.
pub fn socket_pair() -> io::Result<(UnixStream, UnixStream)> {
    UnixStream::pair()
}

/// Monotonic counters describing server activity, snapshot via
/// [`Server::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections ever attached (accepted or [`Server::attach`]ed).
    pub connections: u64,
    /// Well-formed requests parsed off the wire.
    pub requests: u64,
    /// Responses written to peers (excludes drained-after-disconnect ones).
    pub responses: u64,
    /// Transport writes that carried responses: each flushes every response
    /// coalesced since the previous one, so `responses / response_flushes`
    /// is the mean frames per write.
    pub response_flushes: u64,
    /// Malformed frames / dirty disconnects (each also closes a connection).
    pub protocol_errors: u64,
    /// Connections refused at the [`ServerConfig::max_connections`] cap
    /// (each was answered with a typed `Error` frame before closing).
    pub refused: u64,
    /// Connections closed by the idle reaper
    /// ([`ServerConfig::idle_timeout`]).
    pub idle_reaped: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    response_flushes: AtomicU64,
    protocol_errors: AtomicU64,
    refused: AtomicU64,
    idle_reaped: AtomicU64,
}

/// Hardening knobs for a [`Server`]. The default is fully open: no
/// connection cap, no idle reaping — the PR 6 behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerConfig {
    /// Most connections served concurrently; an excess accept is answered
    /// with a typed [`proto::Response::Error`] frame and closed (counted in
    /// [`ServerStats::refused`]). `None` = unlimited.
    pub max_connections: Option<usize>,
    /// Close connections that have not produced a complete request for this
    /// long (counted in [`ServerStats::idle_reaped`]). `None` = never.
    pub idle_timeout: Option<std::time::Duration>,
}

/// What the reader hands the responder, in request order.
enum Outgoing {
    /// A response that needs no pipeline resolution (Pong, QueueFull, …).
    Immediate(Response),
    /// A submitted transaction: resolve the ticket, then respond.
    Pending { request_id: u64, ticket: Ticket },
}

struct Connection {
    stream: Box<dyn Duplex>,
    reader: Option<JoinHandle<()>>,
    responder: Option<JoinHandle<()>>,
    /// Milliseconds since the server's start instant at the last complete
    /// request (or attach), for the idle reaper.
    last_activity_ms: Arc<AtomicU64>,
}

struct Shared {
    handle: SubmitHandle,
    max_frame_len: u32,
    stopping: AtomicBool,
    stats: StatCounters,
    conns: Mutex<Vec<Connection>>,
    config: ServerConfig,
    /// Health surface served to wire `Health` requests (None until
    /// [`Server::serve_health`]).
    health: Mutex<Option<gputx_faults::Health>>,
    /// Reaper clock origin.
    started: std::time::Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// The front door: owns the accept loop(s) and per-connection threads, and
/// forwards requests into a pipeline via a [`SubmitHandle`].
///
/// The server holds only a handle, never the engine itself — so the engine's
/// owner decides its lifetime, and an engine dropped while connections are
/// live resolves their in-flight tickets as `Disconnected` instead of
/// deadlocking (see `SubmitHandle`'s contract).
///
/// ```no_run
/// use gputx_server::Server;
/// # fn demo(handle: gputx_exec::SubmitHandle) -> std::io::Result<()> {
/// let server = Server::new(handle);
/// let addr = server.listen("127.0.0.1:0")?;
/// println!("serving on {addr}");
/// // ... clients connect, submit, disconnect ...
/// server.stop();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    shared: Arc<Shared>,
    acceptors: Mutex<Vec<(SocketAddr, JoinHandle<()>)>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Create a server forwarding into the pipeline behind `handle`, with
    /// default (fully open) [`ServerConfig`].
    pub fn new(handle: SubmitHandle) -> Server {
        Self::with_config(handle, ServerConfig::default())
    }

    /// [`Server::new`] with hardening knobs: a connection cap and/or an
    /// idle-connection reaper.
    pub fn with_config(handle: SubmitHandle, config: ServerConfig) -> Server {
        let idle_timeout = config.idle_timeout;
        let shared = Arc::new(Shared {
            handle,
            max_frame_len: MAX_FRAME_LEN,
            stopping: AtomicBool::new(false),
            stats: StatCounters::default(),
            conns: Mutex::new(Vec::new()),
            config,
            health: Mutex::new(None),
            started: std::time::Instant::now(),
        });
        let reaper = idle_timeout.map(|timeout| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gputx-idle-reaper".into())
                .spawn(move || reaper_loop(&shared, timeout))
                .expect("spawn reaper thread")
        });
        Server {
            shared,
            acceptors: Mutex::new(Vec::new()),
            reaper: Mutex::new(reaper),
        }
    }

    /// Serve `health` to wire [`proto::Request::Health`] requests (take it
    /// from `EngineBuilder::health` / `PipelinedGpuTx::health`). Without
    /// this, Health requests answer with an
    /// [`unwired`](gputx_faults::HealthReport::unwired) report.
    pub fn serve_health(&self, health: gputx_faults::Health) {
        *self.shared.health.lock().expect("health lock poisoned") = Some(health);
    }

    /// Bind a TCP listener and start accepting connections on a background
    /// thread. Returns the bound address (use port `0` to let the OS pick).
    pub fn listen(&self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let accept = std::thread::Builder::new()
            .name(format!("gputx-accept-{}", local.port()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            let _ = s.set_nodelay(true);
                            if attach_to(&shared, s).is_err() {
                                // Clone failure: drop the connection, keep
                                // accepting.
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
            .expect("spawn accept thread");
        self.acceptors
            .lock()
            .expect("acceptor list poisoned")
            .push((local, accept));
        Ok(local)
    }

    /// Serve an already-connected stream (e.g. one end of [`socket_pair`]).
    pub fn attach<S: Duplex>(&self, stream: S) -> io::Result<()> {
        attach_to(&self.shared, stream)
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.shared.stats.connections.load(Ordering::Relaxed),
            requests: self.shared.stats.requests.load(Ordering::Relaxed),
            responses: self.shared.stats.responses.load(Ordering::Relaxed),
            response_flushes: self.shared.stats.response_flushes.load(Ordering::Relaxed),
            protocol_errors: self.shared.stats.protocol_errors.load(Ordering::Relaxed),
            refused: self.shared.stats.refused.load(Ordering::Relaxed),
            idle_reaped: self.shared.stats.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, close every live connection, and join all server
    /// threads. Idempotent; also run by `Drop`.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Wake each blocked `accept` with a throwaway connection, then join.
        let mut acceptors = self.acceptors.lock().expect("acceptor list poisoned");
        for (addr, _) in acceptors.iter() {
            let _ = TcpStream::connect(*addr);
        }
        for (_, handle) in acceptors.drain(..) {
            let _ = handle.join();
        }
        drop(acceptors);
        if let Some(reaper) = self.reaper.lock().expect("reaper lock poisoned").take() {
            let _ = reaper.join();
        }
        // Force readers to EOF, then join both per-connection threads. The
        // responders finish on their own: every queued ticket resolves
        // (engine alive → outcome, engine gone → Disconnected).
        let mut conns = self.shared.conns.lock().expect("connection list poisoned");
        for conn in conns.iter() {
            let _ = conn.stream.shutdown_both();
        }
        for conn in conns.iter_mut() {
            if let Some(h) = conn.reader.take() {
                let _ = h.join();
            }
            if let Some(h) = conn.responder.take() {
                let _ = h.join();
            }
        }
        conns.clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn attach_to<S: Duplex>(shared: &Arc<Shared>, stream: S) -> io::Result<()> {
    let (read_half, write_half) = stream.buffered_halves()?;
    // Register under the connection-list lock, re-checking `stopping` inside
    // it: `stop()` stores the flag *before* taking this lock, so either we
    // see the flag and refuse, or `stop()` sees our entry and closes it.
    // Spawning first and pushing after (the old order) let a concurrent
    // `stop()` drain the list between the two — orphaning live threads whose
    // client then hung instead of resolving `Disconnected`.
    let mut conns = shared.conns.lock().expect("connection list poisoned");
    if shared.stopping.load(Ordering::Acquire) {
        let _ = stream.shutdown_both();
        return Err(io::Error::new(
            io::ErrorKind::NotConnected,
            "server is stopping",
        ));
    }
    // Connection cap: answer the excess accept with a typed Error frame so
    // the peer learns *why* instead of seeing a bare hangup, then close.
    if let Some(cap) = shared.config.max_connections {
        if conns.iter().filter(|c| conn_live(c)).count() >= cap {
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            let payload = proto::encode_response(&Response::Error {
                request_id: 0,
                message: format!("server at connection capacity ({cap})"),
            });
            let mut write_half = stream.try_clone_box()?;
            let _ = write_frame(&mut write_half, &payload);
            let _ = stream.shutdown_both();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "server at connection capacity",
            ));
        }
    }
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    // Bounded queue: a peer that stops reading responses eventually
    // backpressures its own reader thread instead of buffering unboundedly.
    let (tx, rx) = sync_channel::<Outgoing>(RESPONSE_QUEUE_DEPTH);
    let conn_id = shared.stats.connections.load(Ordering::Relaxed);
    let last_activity_ms = Arc::new(AtomicU64::new(shared.now_ms()));
    let reader = {
        let shared = Arc::clone(shared);
        let activity = Arc::clone(&last_activity_ms);
        std::thread::Builder::new()
            .name(format!("gputx-conn-{conn_id}-reader"))
            .spawn(move || reader_loop(&shared, read_half, &tx, &activity))
            .map_err(io::Error::other)?
    };
    let responder = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("gputx-conn-{conn_id}-responder"))
            .spawn(move || responder_loop(&shared, write_half, rx))
            .map_err(io::Error::other)?
    };
    conns.push(Connection {
        stream: Box::new(stream),
        reader: Some(reader),
        responder: Some(responder),
        last_activity_ms,
    });
    Ok(())
}

/// True while either per-connection thread is still running.
fn conn_live(conn: &Connection) -> bool {
    let reader_done = conn.reader.as_ref().map_or(true, |h| h.is_finished());
    let responder_done = conn.responder.as_ref().map_or(true, |h| h.is_finished());
    !(reader_done && responder_done)
}

/// Periodically close connections idle past `timeout` and prune finished
/// ones from the registry (so a capped server frees slots without waiting
/// for `stop`). Joining finished threads here is cheap; the shutdown of an
/// idle socket unblocks its reader, which drops the queue, which lets the
/// responder drain and exit.
fn reaper_loop(shared: &Shared, timeout: std::time::Duration) {
    let timeout_ms = timeout.as_millis().max(1) as u64;
    let tick = (timeout / 4).clamp(
        std::time::Duration::from_millis(5),
        std::time::Duration::from_millis(250),
    );
    while !shared.stopping.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now = shared.now_ms();
        let mut conns = shared.conns.lock().expect("connection list poisoned");
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        let mut kept = Vec::with_capacity(conns.len());
        for mut conn in conns.drain(..) {
            if !conn_live(&conn) {
                // Already closed on its own: reclaim the slot quietly.
                if let Some(h) = conn.reader.take() {
                    let _ = h.join();
                }
                if let Some(h) = conn.responder.take() {
                    let _ = h.join();
                }
                continue;
            }
            if now.saturating_sub(conn.last_activity_ms.load(Ordering::Relaxed)) > timeout_ms {
                shared.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                let _ = conn.stream.shutdown_both();
                if let Some(h) = conn.reader.take() {
                    let _ = h.join();
                }
                if let Some(h) = conn.responder.take() {
                    let _ = h.join();
                }
                continue;
            }
            kept.push(conn);
        }
        *conns = kept;
    }
}

/// Parse frames and feed the pipeline until EOF, a malformed frame, or a
/// transport error. Dropping `tx` at the end is what lets the responder
/// finish draining and close the connection.
fn reader_loop(
    shared: &Shared,
    mut stream: FrameReader,
    tx: &SyncSender<Outgoing>,
    activity: &AtomicU64,
) {
    loop {
        let payload = match read_frame(&mut stream, shared.max_frame_len) {
            Ok(Some(p)) => p,
            // Clean EOF: the peer finished submitting and closed.
            Ok(None) => return,
            Err(FrameError::Corrupt(msg)) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(Outgoing::Immediate(Response::Error {
                    request_id: 0,
                    message: msg,
                }));
                return;
            }
            Err(FrameError::Io(_)) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(Outgoing::Immediate(Response::Error {
                    request_id: 0,
                    message: e.to_string(),
                }));
                return;
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        activity.store(shared.now_ms(), Ordering::Relaxed);
        let out = match request {
            Request::Ping { request_id } => Outgoing::Immediate(Response::Pong { request_id }),
            Request::Health { request_id } => {
                let report = shared
                    .health
                    .lock()
                    .expect("health lock poisoned")
                    .as_ref()
                    .map(|h| h.report())
                    .unwrap_or_else(gputx_faults::HealthReport::unwired);
                Outgoing::Immediate(Response::Health { request_id, report })
            }
            Request::Submit {
                request_id,
                txn_type,
                params,
                no_wait,
            } => {
                let submitted = if no_wait {
                    shared.handle.try_submit(txn_type, params)
                } else {
                    shared.handle.submit(txn_type, params)
                };
                match submitted {
                    Ok(ticket) => Outgoing::Pending { request_id, ticket },
                    Err(PipelineError::QueueFull) => {
                        Outgoing::Immediate(Response::QueueFull { request_id })
                    }
                    Err(PipelineError::BulkFailed(message)) => {
                        Outgoing::Immediate(Response::BulkFailed {
                            request_id,
                            message,
                        })
                    }
                    Err(PipelineError::ShutDown) | Err(PipelineError::Disconnected) => {
                        Outgoing::Immediate(Response::Disconnected { request_id })
                    }
                }
            }
        };
        if tx.send(out).is_err() {
            // Responder already gone (it never exits before the queue closes
            // unless the whole connection is being torn down).
            return;
        }
    }
}

/// Resolve queued work FIFO and write response frames. Responses coalesce
/// in the write buffer, which is flushed only just before this thread would
/// block — on an unresolved ticket or an empty queue — and at shutdown, so a
/// bulk's worth of resolved tickets leaves in one write. If the peer stops
/// accepting writes (disconnect mid-bulk), keep *draining* tickets without
/// writing, so the pipeline's already-admitted transactions resolve
/// normally and nothing blocks on the dead connection.
fn responder_loop(shared: &Shared, mut out: FrameWriter, rx: Receiver<Outgoing>) {
    let mut peer_alive = true;
    loop {
        let next = match rx.try_recv() {
            Ok(next) => next,
            Err(TryRecvError::Empty) => {
                flush_responses(shared, &mut out, &mut peer_alive);
                match rx.recv() {
                    Ok(next) => next,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let response = match next {
            Outgoing::Immediate(r) => r,
            Outgoing::Pending { request_id, ticket } => {
                let resolved = ticket.try_get().unwrap_or_else(|| {
                    flush_responses(shared, &mut out, &mut peer_alive);
                    ticket.wait()
                });
                match resolved {
                    Ok((txn_id, TxnOutcome::Committed)) => {
                        Response::Committed { request_id, txn_id }
                    }
                    Ok((txn_id, TxnOutcome::Aborted(_))) => {
                        Response::Aborted { request_id, txn_id }
                    }
                    Err(PipelineError::QueueFull) => Response::QueueFull { request_id },
                    Err(PipelineError::BulkFailed(message)) => Response::BulkFailed {
                        request_id,
                        message,
                    },
                    Err(PipelineError::ShutDown) | Err(PipelineError::Disconnected) => {
                        Response::Disconnected { request_id }
                    }
                }
            }
        };
        if peer_alive {
            let pushed = out.push(&encode_response(&response));
            count_flush(shared, pushed, &mut peer_alive);
        }
    }
    flush_responses(shared, &mut out, &mut peer_alive);
    // All responses written (or drained): signal EOF to the peer even though
    // the registry in `Shared::conns` still holds a handle to this socket.
    let _ = out.stream.shutdown_both();
}

fn flush_responses(shared: &Shared, out: &mut FrameWriter, peer_alive: &mut bool) {
    if *peer_alive {
        let flushed = out.flush();
        count_flush(shared, flushed, peer_alive);
    }
}

/// Account for a write-buffer flush: its frames are responses written; a
/// failed one means the peer is gone.
fn count_flush(shared: &Shared, flushed: io::Result<usize>, peer_alive: &mut bool) {
    match flushed {
        Ok(0) => {}
        Ok(frames) => {
            shared
                .stats
                .responses
                .fetch_add(frames as u64, Ordering::Relaxed);
            shared
                .stats
                .response_flushes
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => *peer_alive = false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_faults::{FaultInjector, FaultPlan, WireFault};

    const FRAMES: u64 = 200;

    fn drop_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            frame_drop: 0.2,
            ..FaultPlan::disabled()
        }
    }

    /// Push [`FRAMES`] pings through the buffered writer of a chaos-wrapped
    /// socket, flush once, and return the request ids that arrived.
    fn delivered(seed: u64) -> Vec<u64> {
        let (near, mut far) = socket_pair().expect("socketpair");
        let chaos = chaos_wrap(near, FaultInjector::new(drop_plan(seed)).wire("client-0"));
        let (_, mut writer) = chaos.buffered_halves().expect("buffered halves");
        for request_id in 0..FRAMES {
            let pushed = writer.push(&proto::encode_request(&Request::Ping { request_id }));
            assert_eq!(pushed.expect("push"), 0, "everything fits one buffer");
        }
        let carried = writer.flush().expect("flush");
        chaos.shutdown_both().expect("shutdown");
        let mut ids = Vec::new();
        while let Some(payload) = read_frame(&mut far, MAX_FRAME_LEN).expect("clean frames") {
            ids.push(decode_request(&payload).expect("request").request_id());
        }
        assert_eq!(
            carried,
            ids.len(),
            "one flush carried every surviving frame"
        );
        ids
    }

    #[test]
    fn frame_writer_flushes_on_its_own_when_full() {
        let (near, mut far) = socket_pair().expect("socketpair");
        let (_, mut writer) = near.buffered_halves().expect("buffered halves");
        let ping = proto::encode_request(&Request::Ping { request_id: 1 });
        for _ in 1..WRITE_BUFFER_FRAMES {
            assert_eq!(writer.push(&ping).expect("push"), 0);
        }
        assert_eq!(writer.push(&ping).expect("push"), WRITE_BUFFER_FRAMES);
        let big = vec![0u8; WRITE_BUFFER_LEN];
        assert_eq!(
            writer.push(&big).expect("push"),
            1,
            "one frame over the byte cap"
        );
        assert_eq!(writer.flush().expect("flush"), 0, "nothing left");
        near.shutdown_both().expect("shutdown");
        let mut frames = 0;
        while read_frame(&mut far, MAX_FRAME_LEN)
            .expect("clean")
            .is_some()
        {
            frames += 1;
        }
        assert_eq!(frames, WRITE_BUFFER_FRAMES + 1);
    }

    #[test]
    fn buffered_chaos_drops_exactly_the_frames_its_decisions_select() {
        let seed = 0xD209;
        // The same seed and label replay the writer's decision stream.
        let decisions = FaultInjector::new(drop_plan(seed)).wire("client-0");
        let expected: Vec<u64> = (0..FRAMES)
            .filter(|_| decisions.on_write() != Some(WireFault::Drop))
            .collect();
        assert!(
            (1..FRAMES as usize).contains(&expected.len()),
            "the plan drops some frames, not all"
        );
        let got = delivered(seed);
        assert_eq!(got, expected, "lost frames == frames drawn as drops");
        assert_eq!(delivered(seed), got, "same seed, same loss set");
        assert_ne!(delivered(seed + 1), got, "another seed, another loss set");
    }
}
