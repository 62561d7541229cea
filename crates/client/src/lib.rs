//! # gputx-client — pipelined, self-healing client for the GPUTx front door
//!
//! Counterpart of `gputx-server`: a [`Client`] owns one connection speaking
//! the length-framed binary protocol of `gputx_server::proto` and keeps many
//! submits in flight at once. [`Client::submit`] writes a frame (or, behind an
//! unanswered request, appends it to the connection's write buffer) and
//! returns a [`Reply`] immediately; a background reader thread demultiplexes
//! response frames back to their replies by `request_id`, flushing the write
//! buffer as answers arrive. That mirrors the pipeline's
//! own shape — transactions resolve asynchronously when their bulk commits,
//! so a client that waited for each reply before sending the next would
//! serialize the wire onto bulk-commit latency and never fill a bulk.
//!
//! ## Self-healing
//!
//! A client built with a [`ClientConfig`] carrying a reconnect
//! [`BackoffPolicy`](gputx_faults::BackoffPolicy) (and a connector, via
//! [`Client::connect_with`] or [`Client::with_connector`]) survives the
//! connection dying under it:
//!
//! - **Connect attempts** retry with jittered exponential backoff up to the
//!   policy's `max_retries` per outage.
//! - **Never-transmitted requests** — those that found the connection already
//!   dead — are written to the fresh connection; nothing was on the wire, so
//!   this cannot duplicate work.
//! - **Submits whose frame may have left the socket** (the write itself
//!   errored partway) are *never* retransmitted: the server may have executed
//!   them. Their reply resolves [`TxnResult::Disconnected`] so the caller
//!   decides — exactly the ambiguity a re-send would silently convert into a
//!   duplicate transaction.
//! - **Read-only round trips** ([`Client::ping`], [`Client::health`]) are
//!   idempotent and retried end-to-end across reconnects.
//!
//! Without a reconnect policy the client behaves as before: errors surface
//! as [`ClientError`] and pending replies fail with `ConnectionClosed`.
//!
//! [`bench_run`] builds the benchmark harness on top: N connections in
//! closed-loop (bounded in-flight window) or rate-paced open-loop mode, with
//! warmup and timed measurement windows and per-transaction-type latency and
//! outcome accounting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bench_run;

use gputx_server::proto::{
    decode_response, encode_request, read_frame, FrameError, Request, Response, MAX_FRAME_LEN,
};
use gputx_server::{Duplex, FrameReader, FrameWriter, RESPONSE_QUEUE_DEPTH};
use gputx_storage::Value;
use gputx_txn::{TxnId, TxnTypeId};
use std::collections::HashMap;
use std::io;
use std::io::Read;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the server resolved one request.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnResult {
    /// The transaction's bulk committed and the transaction committed.
    Committed(TxnId),
    /// The transaction's bulk committed but the procedure aborted.
    Aborted(TxnId),
    /// A no-wait submit was shed by a full admission queue.
    QueueFull,
    /// The bulk containing the transaction failed; the message says why.
    BulkFailed(String),
    /// The engine shut down before resolving the transaction — or, on a
    /// reconnecting client, the connection died after the frame may have
    /// reached the wire (the submit is *ambiguous*, not known-lost).
    Disconnected,
    /// Answer to a ping (only ever seen by [`Client::ping`]).
    Pong,
    /// Answer to a health probe (only ever seen by [`Client::health`]).
    Health(gputx_faults::HealthReport),
}

impl TxnResult {
    /// True iff the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnResult::Committed(_))
    }
}

/// Client-side failures (distinct from server-resolved [`TxnResult`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Writing the request (or reading responses) failed at the transport.
    Io(String),
    /// The connection closed before this request's response arrived. Carries
    /// the server's protocol-error message when one was received.
    ConnectionClosed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "transport error: {msg}"),
            ClientError::ConnectionClosed(msg) => write!(f, "connection closed: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

type ReplyResult = Result<TxnResult, ClientError>;

/// Connection behaviour knobs. [`Default`] reproduces the classic client:
/// blocking connect, no read timeout, no reconnection.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Bound on each TCP connect attempt (`None` = OS default, blocking).
    pub connect_timeout: Option<Duration>,
    /// Poll interval for the reader thread. With a timeout set the reader
    /// wakes periodically even if the peer vanished without a FIN, so
    /// `close`/`Drop` always join promptly and a dead peer is *detected*
    /// rather than waited on forever.
    pub read_timeout: Option<Duration>,
    /// When set, the client re-establishes dead connections with this
    /// jittered exponential backoff instead of surfacing hard errors.
    pub reconnect: Option<gputx_faults::BackoffPolicy>,
}

impl ClientConfig {
    /// A self-healing profile: 1s connect timeout, 100ms reader poll, and
    /// the default reconnect backoff (5ms..250ms, 10 retries per outage).
    pub fn resilient() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_millis(100)),
            reconnect: Some(gputx_faults::BackoffPolicy::default()),
        }
    }
}

#[derive(Debug)]
struct ReplySlot {
    slot: Mutex<Option<ReplyResult>>,
    cond: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn resolve(&self, result: ReplyResult) {
        let mut slot = self.slot.lock().expect("reply slot poisoned");
        if slot.is_none() {
            *slot = Some(result);
            self.cond.notify_all();
        }
    }
}

/// A future-style handle for one in-flight request: resolves when the
/// server's response frame arrives.
#[derive(Debug)]
pub struct Reply {
    slot: Arc<ReplySlot>,
    request_id: u64,
    /// The connection's write buffer, which may still hold this request's
    /// frame: waiting on an unresolved reply flushes it.
    outbox: Weak<Outbox>,
}

impl Reply {
    /// The client-assigned correlation id this reply is keyed on.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Block until the response arrives. Repeatable; later calls return
    /// immediately. Flushes the connection's buffered frames first, so the
    /// awaited request is on the wire.
    pub fn wait(&self) -> ReplyResult {
        if let Some(result) = self.try_get() {
            return result;
        }
        let mut slot = self.slot.slot.lock().expect("reply slot poisoned");
        while slot.is_none() {
            slot = self.slot.cond.wait(slot).expect("reply slot poisoned");
        }
        slot.clone().expect("checked above")
    }

    /// Non-blocking poll: `None` while the response is still in flight (in
    /// which case the connection's buffered frames are flushed, so polling
    /// alone makes progress).
    pub fn try_get(&self) -> Option<ReplyResult> {
        let result = self.slot.slot.lock().expect("reply slot poisoned").clone();
        if result.is_none() {
            if let Some(outbox) = self.outbox.upgrade() {
                outbox.flush_soon();
            }
        }
        result
    }
}

#[derive(Debug)]
struct Demux {
    /// request_id → unresolved reply slot.
    pending: Mutex<HashMap<u64, Arc<ReplySlot>>>,
    /// Responses whose request_id matched no pending reply — must stay zero
    /// in a correct run (the soak asserts on it). Shared across reconnect
    /// generations so the count is per-client, not per-connection.
    unmatched: Arc<AtomicU64>,
    /// Connection-scoped server error (`request_id == 0`), reported to every
    /// reply left pending when the connection closes.
    conn_error: Mutex<Option<String>>,
    /// Set by the reader as it exits: the connection is unusable and a send
    /// must not write into it (nothing written there will ever be answered).
    dead: AtomicBool,
    /// How replies left pending at disconnect resolve: a reconnecting client
    /// resolves them `Ok(Disconnected)` (ambiguous outcome, caller decides);
    /// a classic client fails them `Err(ConnectionClosed)`.
    resolve_disconnected: bool,
}

impl Demux {
    fn new(unmatched: Arc<AtomicU64>, resolve_disconnected: bool) -> Arc<Demux> {
        Arc::new(Demux {
            pending: Mutex::new(HashMap::new()),
            unmatched,
            conn_error: Mutex::new(None),
            dead: AtomicBool::new(false),
            resolve_disconnected,
        })
    }
}

/// A connection's write side. Request frames coalesce in `frames`; a flush
/// owed while another thread holds the writer is left in `flush_owed` for
/// that holder to pay on release, so the reader thread never blocks on a
/// writer stuck in a full socket (which would stop it draining responses,
/// and with them the server that the stuck write waits on).
struct Outbox {
    frames: Mutex<FrameWriter>,
    flush_owed: AtomicBool,
    /// Shut down on a failed flush, so the reader exits and resolves every
    /// pending reply instead of waiting for answers that cannot come.
    /// (Behind a lock only because `Duplex` is not `Sync`.)
    stream: Mutex<Box<dyn Duplex>>,
    demux: Arc<Demux>,
    /// Client-wide count of transport writes that carried request frames.
    flushes: Arc<AtomicU64>,
}

impl Outbox {
    fn shutdown(&self) {
        let _ = self.stream.lock().expect("stream poisoned").shutdown_both();
    }

    /// Run `f` on the locked writer, then pay any flush owed meanwhile.
    fn with_frames<R>(&self, f: impl FnOnce(&mut FrameWriter) -> R) -> R {
        let result = f(&mut self.frames.lock().expect("writer poisoned"));
        // Pairs with the fence in `flush_soon`: either its `try_lock` saw
        // the writer free, or this load sees the flush it left owed.
        fence(Ordering::SeqCst);
        if self.flush_owed.load(Ordering::SeqCst) {
            self.flush_soon();
        }
        result
    }

    /// Flush the buffered frames now, or, if another thread holds the
    /// writer, leave the flush owed to it. Never blocks on the writer lock.
    fn flush_soon(&self) {
        self.flush_owed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while self.flush_owed.load(Ordering::SeqCst) {
            let mut frames = match self.frames.try_lock() {
                Ok(frames) => frames,
                Err(TryLockError::WouldBlock) | Err(TryLockError::Poisoned(_)) => return,
            };
            self.flush_owed.store(false, Ordering::SeqCst);
            let flushed = frames.flush();
            let _ = self.settle(flushed);
            drop(frames);
            fence(Ordering::SeqCst);
        }
    }

    /// Account for a flush: count it, or kill the connection if it failed
    /// (part of the buffer may be on the wire, so framing is lost).
    fn settle(&self, flushed: io::Result<usize>) -> io::Result<()> {
        match flushed {
            Ok(0) => Ok(()),
            Ok(_) => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.demux.dead.store(true, Ordering::Release);
                self.shutdown();
                Err(e)
            }
        }
    }
}

/// One reconnect generation: a stream, its write buffer, its demux and its
/// reader thread. Torn down as a unit when the connection dies.
struct Conn {
    outbox: Arc<Outbox>,
    demux: Arc<Demux>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(
        stream: Box<dyn Duplex>,
        config: &ClientConfig,
        closing: &Arc<AtomicBool>,
        unmatched: &Arc<AtomicU64>,
        flushes: &Arc<AtomicU64>,
    ) -> io::Result<Conn> {
        stream.set_read_timeout(config.read_timeout)?;
        let (read_half, write_half) = stream.buffered_halves()?;
        let demux = Demux::new(Arc::clone(unmatched), config.reconnect.is_some());
        let outbox = Arc::new(Outbox {
            frames: Mutex::new(write_half),
            flush_owed: AtomicBool::new(false),
            stream: Mutex::new(stream),
            demux: Arc::clone(&demux),
            flushes: Arc::clone(flushes),
        });
        let reader = {
            let outbox = Arc::clone(&outbox);
            let closing = Arc::clone(closing);
            std::thread::Builder::new()
                .name("gputx-client-reader".into())
                .spawn(move || reader_loop(read_half, &outbox, &closing))
                .map_err(io::Error::other)?
        };
        Ok(Conn {
            outbox,
            demux,
            reader: Some(reader),
        })
    }

    /// Send what is still buffered (a live connection only: frames left on
    /// a dead one were already resolved by its reader), then close.
    fn teardown(&mut self) {
        if !self.demux.dead.load(Ordering::Acquire) {
            // Blocking, unlike `flush_soon`: the close must not overtake a
            // flush another thread is making. Runs in `Drop`, so a poisoned
            // lock is skipped rather than unwrapped.
            if let Ok(mut frames) = self.outbox.frames.lock() {
                let flushed = frames.flush();
                let _ = self.outbox.settle(flushed);
            }
        }
        self.outbox.shutdown();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.teardown();
    }
}

type Connector = Box<dyn Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync>;

/// How one send attempt ended, before retry policy is applied.
enum SendAttempt {
    Sent(Reply),
    /// No live connection and establishing one failed — nothing transmitted.
    ConnectFailed(String),
    /// The write itself errored: bytes may have reached the wire.
    WriteFailed {
        error: String,
        reply: Reply,
    },
}

/// One connection to a GPUTx server, usable from multiple threads.
///
/// ```no_run
/// use gputx_client::Client;
/// # fn demo() -> Result<(), Box<dyn std::error::Error>> {
/// let client = Client::connect("127.0.0.1:7878")?;
/// let reply = client.submit(0, vec![gputx_storage::Value::Int(42)])?;
/// // ... submit more while that one is in flight ...
/// println!("resolved: {:?}", reply.wait()?);
/// # Ok(())
/// # }
/// ```
pub struct Client {
    conn: Mutex<Option<Conn>>,
    connector: Option<Connector>,
    config: ClientConfig,
    next_id: AtomicU64,
    /// Raised by `close`/`Drop`; the reader polls it on read timeouts so it
    /// exits even when `shutdown_both` cannot unblock the transport.
    closing: Arc<AtomicBool>,
    reconnects: AtomicU64,
    unmatched: Arc<AtomicU64>,
    flushes: Arc<AtomicU64>,
}

impl Client {
    /// Connect over TCP (`TCP_NODELAY` set — frames are latency-sensitive).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect over TCP with explicit behaviour knobs. With
    /// `config.reconnect` set, the resolved addresses are remembered and the
    /// client transparently re-dials them when the connection dies.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let connect_timeout = config.connect_timeout;
        Client::with_connector(
            move || {
                let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address");
                for a in &addrs {
                    let attempt = match connect_timeout {
                        Some(t) => TcpStream::connect_timeout(a, t),
                        None => TcpStream::connect(a),
                    };
                    match attempt {
                        Ok(s) => {
                            s.set_nodelay(true)?;
                            return Ok(Box::new(s) as Box<dyn Duplex>);
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            },
            config,
        )
    }

    /// Wrap an already-connected stream (e.g. one end of
    /// `gputx_server::socket_pair`).
    pub fn from_duplex<S: Duplex>(stream: S) -> io::Result<Client> {
        Client::from_duplex_with(stream, ClientConfig::default())
    }

    /// Wrap an already-connected stream with explicit behaviour knobs.
    /// There is no connector, so a reconnect policy only changes how
    /// orphaned replies resolve ([`TxnResult::Disconnected`] instead of
    /// [`ClientError::ConnectionClosed`]); the stream itself cannot be
    /// re-established.
    pub fn from_duplex_with<S: Duplex>(stream: S, config: ClientConfig) -> io::Result<Client> {
        let closing = Arc::new(AtomicBool::new(false));
        let unmatched = Arc::new(AtomicU64::new(0));
        let flushes = Arc::new(AtomicU64::new(0));
        let conn = Conn::open(Box::new(stream), &config, &closing, &unmatched, &flushes)?;
        Ok(Client {
            conn: Mutex::new(Some(conn)),
            connector: None,
            config,
            next_id: AtomicU64::new(1), // 0 is the server's "no request" id
            closing,
            reconnects: AtomicU64::new(0),
            unmatched,
            flushes,
        })
    }

    /// Build a client around a connector the client can call again whenever
    /// the connection dies (the self-healing transport used by the chaos
    /// soak). The first connection is established eagerly, with backoff if
    /// `config.reconnect` is set.
    pub fn with_connector<F>(connector: F, config: ClientConfig) -> io::Result<Client>
    where
        F: Fn() -> io::Result<Box<dyn Duplex>> + Send + Sync + 'static,
    {
        let closing = Arc::new(AtomicBool::new(false));
        let unmatched = Arc::new(AtomicU64::new(0));
        let flushes = Arc::new(AtomicU64::new(0));
        let connector: Connector = Box::new(connector);
        let mut attempt = 0u32;
        let conn = loop {
            match connector().and_then(|s| Conn::open(s, &config, &closing, &unmatched, &flushes)) {
                Ok(conn) => break conn,
                Err(e) => match config.reconnect {
                    Some(policy) if attempt < policy.max_retries => {
                        std::thread::sleep(policy.delay(attempt));
                        attempt += 1;
                    }
                    _ => return Err(e),
                },
            }
        };
        Ok(Client {
            conn: Mutex::new(Some(conn)),
            connector: Some(connector),
            config,
            next_id: AtomicU64::new(1),
            closing,
            reconnects: AtomicU64::new(0),
            unmatched,
            flushes,
        })
    }

    /// One attempt: ensure a live connection (re-dialing once if possible),
    /// register the reply slot, write the frame. Holds the connection lock
    /// for the duration — writers were already serialized per connection.
    fn send_once(&self, request: &Request) -> SendAttempt {
        let mut guard = self.conn.lock().expect("conn poisoned");
        let need_new = match guard.as_ref() {
            Some(c) => c.demux.dead.load(Ordering::Acquire),
            None => true,
        };
        if need_new {
            match &self.connector {
                Some(connector) => {
                    // Tear the old generation down first: its reader drains
                    // its own pending map, so nothing leaks across.
                    drop(guard.take());
                    match connector().and_then(|s| {
                        Conn::open(
                            s,
                            &self.config,
                            &self.closing,
                            &self.unmatched,
                            &self.flushes,
                        )
                    }) {
                        Ok(conn) => {
                            self.reconnects.fetch_add(1, Ordering::Relaxed);
                            *guard = Some(conn);
                        }
                        Err(e) => return SendAttempt::ConnectFailed(e.to_string()),
                    }
                }
                None => {
                    if guard.is_none() {
                        return SendAttempt::ConnectFailed("client closed".into());
                    }
                    // Fixed-stream client with a dead reader: fall through
                    // and let the write surface the transport error (classic
                    // behaviour).
                }
            }
        }
        let conn = guard.as_ref().expect("conn ensured above");
        let request_id = request.request_id();
        let slot = ReplySlot::new();
        let payload = encode_request(request);
        let write = conn.outbox.with_frames(|frames| {
            // Register before writing: the response can race the write
            // returning. Registering under the writer lock makes the count
            // below and the push one step for the reader, which removes an
            // answered request *before* it flushes.
            let unanswered = {
                let mut pending = conn.demux.pending.lock().expect("pending map poisoned");
                pending.insert(request_id, Arc::clone(&slot));
                pending.len()
            };
            let pushed = frames.push(&payload);
            let pushed = conn.outbox.settle(pushed);
            // Write through when no earlier request is unanswered (no
            // response is coming whose arrival would flush this frame) and
            // for pings and health probes, which callers wait on at once.
            // Otherwise the frame waits for the next flush: an answer to an
            // earlier request, a `Reply::wait`/`try_get`, a full buffer.
            let through = unanswered == 1 || !matches!(request, Request::Submit { .. });
            if pushed.is_ok() && through {
                let flushed = frames.flush();
                conn.outbox.settle(flushed)
            } else {
                pushed
            }
        });
        let reply = Reply {
            slot,
            request_id,
            outbox: Arc::downgrade(&conn.outbox),
        };
        match write {
            Ok(()) => SendAttempt::Sent(reply),
            Err(e) => {
                conn.demux
                    .pending
                    .lock()
                    .expect("pending map poisoned")
                    .remove(&reply.request_id);
                // The frame may be partially on the wire: `settle` has
                // killed the connection, so the reader exits and the next
                // send re-dials.
                SendAttempt::WriteFailed {
                    error: e.to_string(),
                    reply,
                }
            }
        }
    }

    fn send(&self, request: &Request) -> Result<Reply, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.send_once(request) {
                SendAttempt::Sent(reply) => return Ok(reply),
                SendAttempt::ConnectFailed(e) => {
                    // Nothing was transmitted; retrying cannot duplicate.
                    match self.config.reconnect {
                        Some(policy) if attempt < policy.max_retries => {
                            std::thread::sleep(policy.delay(attempt));
                            attempt += 1;
                        }
                        _ => return Err(ClientError::Io(e)),
                    }
                }
                SendAttempt::WriteFailed { error, reply } => {
                    // The frame may have left the socket. Never retransmit:
                    // resolve the ambiguity to the caller instead.
                    if self.config.reconnect.is_some() {
                        reply.slot.resolve(Ok(TxnResult::Disconnected));
                        return Ok(reply);
                    }
                    return Err(ClientError::Io(error));
                }
            }
        }
    }

    /// Retry an idempotent (read-only) round trip across reconnects until it
    /// resolves to a real answer or the retry budget is spent.
    fn roundtrip_idempotent(
        &self,
        make: impl Fn(u64) -> Request,
    ) -> Result<TxnResult, ClientError> {
        let mut attempt = 0u32;
        loop {
            let request = make(self.next_id.fetch_add(1, Ordering::Relaxed));
            let outcome = match self.send(&request) {
                Ok(reply) => reply.wait(),
                Err(e) => Err(e),
            };
            let retryable = match &outcome {
                Ok(TxnResult::Disconnected) => true,
                Err(_) => self.config.reconnect.is_some(),
                Ok(_) => false,
            };
            match (retryable, self.config.reconnect) {
                (true, Some(policy)) if attempt < policy.max_retries => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                _ => return outcome,
            }
        }
    }

    /// Submit one transaction. Returns as soon as the frame is written, or
    /// buffered behind an earlier unanswered request (see
    /// `docs/wire-protocol.md`, "Write coalescing") — resolution comes
    /// through the [`Reply`]. A full server admission queue backpressures
    /// through the TCP window into whichever call flushes next.
    pub fn submit(&self, txn_type: TxnTypeId, params: Vec<Value>) -> Result<Reply, ClientError> {
        self.send(&Request::Submit {
            request_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            txn_type,
            params,
            no_wait: false,
        })
    }

    /// Submit with shedding: a full admission queue resolves the reply as
    /// [`TxnResult::QueueFull`] immediately instead of blocking (the
    /// open-loop policy).
    pub fn submit_nowait(
        &self,
        txn_type: TxnTypeId,
        params: Vec<Value>,
    ) -> Result<Reply, ClientError> {
        self.send(&Request::Submit {
            request_id: self.next_id.fetch_add(1, Ordering::Relaxed),
            txn_type,
            params,
            no_wait: true,
        })
    }

    /// Round-trip a ping. Responses are FIFO per connection, so this returns
    /// only after every earlier submit on this connection has been answered —
    /// a commit barrier. Pings are read-only, so a reconnecting client
    /// retries them across connection deaths.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.roundtrip_idempotent(|request_id| Request::Ping { request_id })? {
            TxnResult::Pong => Ok(()),
            other => Err(ClientError::ConnectionClosed(format!(
                "ping answered with {other:?}"
            ))),
        }
    }

    /// Fetch the server's [`HealthReport`](gputx_faults::HealthReport) —
    /// WAL state, heal count, replication fan-out and lag, fault-plane
    /// activity. Read-only, so retried across reconnects like [`ping`].
    ///
    /// [`ping`]: Client::ping
    pub fn health(&self) -> Result<gputx_faults::HealthReport, ClientError> {
        match self.roundtrip_idempotent(|request_id| Request::Health { request_id })? {
            TxnResult::Health(report) => Ok(report),
            other => Err(ClientError::ConnectionClosed(format!(
                "health answered with {other:?}"
            ))),
        }
    }

    /// Responses that matched no pending request — zero in a correct run.
    /// Accumulated across reconnects.
    pub fn unmatched_responses(&self) -> u64 {
        self.unmatched.load(Ordering::Relaxed)
    }

    /// How many times the client re-established a dead connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Transport writes that carried request frames, across reconnects.
    /// Each writes every frame buffered since the previous one, so
    /// submits per flush is the mean coalescing factor.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Requests still awaiting a response on the current connection.
    pub fn in_flight(&self) -> usize {
        match self.conn.lock().expect("conn poisoned").as_ref() {
            Some(c) => c.demux.pending.lock().expect("pending map poisoned").len(),
            None => 0,
        }
    }

    /// Close the connection: signals EOF to the server (which finishes
    /// resolving whatever was admitted), fails any still-pending replies,
    /// and joins the reader. With a read timeout configured the join is
    /// bounded even if the transport cannot be shut down. Also run by
    /// `Drop`.
    pub fn close(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        drop(self.conn.lock().expect("conn poisoned").take());
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}

/// Tracks whether any bytes were consumed since the last frame boundary, so
/// a read timeout can be classified: mid-frame it is a stalled peer (fatal),
/// at a boundary it is mere idleness (poll the closing flag and wait on).
struct CountingReader {
    inner: FrameReader,
    consumed: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n as u64;
        Ok(n)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Demultiplex response frames to their replies until the connection ends,
/// then fail whatever is left pending. After each decoded response the
/// connection's buffered request frames are flushed: a frame is buffered
/// only while an earlier request is unanswered, so this is what bounds its
/// wait to one answer.
fn reader_loop(stream: FrameReader, outbox: &Outbox, closing: &AtomicBool) {
    let demux = &*outbox.demux;
    let mut reader = CountingReader {
        inner: stream,
        consumed: 0,
    };
    let close_reason = loop {
        reader.consumed = 0;
        let payload = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(p)) => p,
            Ok(None) => break None,
            // A timeout at a frame boundary is idleness, not failure: check
            // whether the client is closing and otherwise keep waiting. A
            // timeout *inside* a frame is a peer that stalled mid-message.
            Err(FrameError::Io(e)) if is_timeout(&e) && reader.consumed == 0 => {
                if closing.load(Ordering::SeqCst) {
                    break None;
                }
                continue;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                break Some("peer stalled mid-frame (read timed out)".into());
            }
            Err(FrameError::Corrupt(msg)) => break Some(msg),
            Err(FrameError::Io(e)) => break Some(e.to_string()),
        };
        let response = match decode_response(&payload) {
            Ok(r) => r,
            Err(e) => break Some(e.to_string()),
        };
        let (request_id, result) = match response {
            Response::Committed { request_id, txn_id } => {
                (request_id, Ok(TxnResult::Committed(txn_id)))
            }
            Response::Aborted { request_id, txn_id } => {
                (request_id, Ok(TxnResult::Aborted(txn_id)))
            }
            Response::QueueFull { request_id } => (request_id, Ok(TxnResult::QueueFull)),
            Response::BulkFailed {
                request_id,
                message,
            } => (request_id, Ok(TxnResult::BulkFailed(message))),
            Response::Disconnected { request_id } => (request_id, Ok(TxnResult::Disconnected)),
            Response::Pong { request_id } => (request_id, Ok(TxnResult::Pong)),
            Response::Health { request_id, report } => (request_id, Ok(TxnResult::Health(report))),
            Response::Error {
                request_id: 0,
                message,
            } => {
                // Connection-scoped protocol error: the server closes after
                // this; remember it so pending replies fail with the cause.
                *demux.conn_error.lock().expect("conn error poisoned") = Some(message);
                continue;
            }
            Response::Error {
                request_id,
                message,
            } => (request_id, Err(ClientError::ConnectionClosed(message))),
        };
        let (slot, unanswered) = {
            let mut pending = demux.pending.lock().expect("pending map poisoned");
            (pending.remove(&request_id), pending.len())
        };
        match slot {
            Some(s) => s.resolve(result),
            None => {
                demux.unmatched.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Only after the answered request left `pending`: a submit that still
        // saw it there buffered its frame, and this flush is what sends it.
        // Past the server's response queue depth the flush could block on a
        // server whose reader waits for this thread to read responses, so
        // it waits for more answers (or a full buffer) instead.
        if unanswered <= RESPONSE_QUEUE_DEPTH {
            outbox.flush_soon();
        }
    };
    demux.dead.store(true, Ordering::Release);
    let reason = close_reason
        .or_else(|| {
            demux
                .conn_error
                .lock()
                .expect("conn error poisoned")
                .clone()
        })
        .unwrap_or_else(|| "connection closed by peer".into());
    let leftovers: Vec<Arc<ReplySlot>> = demux
        .pending
        .lock()
        .expect("pending map poisoned")
        .drain()
        .map(|(_, s)| s)
        .collect();
    for slot in leftovers {
        // On a reconnecting client an orphaned submit is an *ambiguous*
        // outcome (the server may still execute it), not a client error.
        let verdict = if demux.resolve_disconnected {
            Ok(TxnResult::Disconnected)
        } else {
            Err(ClientError::ConnectionClosed(reason.clone()))
        };
        slot.resolve(verdict);
    }
}
