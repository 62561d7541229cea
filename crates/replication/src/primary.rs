//! The primary side of log shipping: the publish hook at the engine's
//! group-commit point, the mirror database snapshots are cut from, and the
//! per-follower sender sessions with bounded queues and snapshot resync.

use crate::unix_nanos;
use gputx_durability::{fresh_epoch, BulkLogRecord};
use gputx_server::proto::{encode_repl, read_frame, write_frame, ReplMsg, MAX_FRAME_LEN};
use gputx_server::Duplex;
use gputx_storage::{Database, WireWriter};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of a [`PrimaryHub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationOptions {
    /// Most records a follower may leave unacknowledged (published after
    /// its last ack or sync point), and the capacity of its record queue. A
    /// follower lagging further is shed (queue discarded, fresh snapshot
    /// resync) instead of ever backpressuring the commit path.
    pub queue_depth: usize,
    /// Snapshot transfer chunk size in bytes; must fit a wire frame.
    pub chunk_len: usize,
}

impl Default for ReplicationOptions {
    fn default() -> Self {
        ReplicationOptions {
            queue_depth: 256,
            chunk_len: 256 * 1024,
        }
    }
}

/// Monotonic counters describing primary-side replication activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrimaryStats {
    /// Followers currently subscribed (live sessions).
    pub followers: u64,
    /// Redo records published into the hub (== bulks committed while the
    /// hub was attached).
    pub records_published: u64,
    /// Records not sent to a follower because it lagged more than
    /// `queue_depth` unacknowledged records (each run of drops ends in one
    /// snapshot resync for that follower).
    pub records_shed: u64,
    /// Snapshot transfers completed (initial syncs and resyncs).
    pub snapshots_sent: u64,
    /// Snapshot resyncs forced by shedding.
    pub resyncs: u64,
    /// Subscriptions refused because the follower's epoch was newer than
    /// ours — each one means this primary is stale and has fenced itself.
    pub fencings: u64,
    /// True once a newer-epoch follower fenced this primary; it keeps
    /// committing locally but refuses to serve replication.
    pub fenced: bool,
}

#[derive(Debug, Default)]
struct Counters {
    records_published: AtomicU64,
    records_shed: AtomicU64,
    snapshots_sent: AtomicU64,
    resyncs: AtomicU64,
    fencings: AtomicU64,
}

/// What travels through a follower's queue.
enum Item {
    /// An encoded `ReplMsg::LogRecord` frame payload, shared by all
    /// followers (encoded once at publish).
    Record(Arc<Vec<u8>>),
    /// Controlled handoff: write a `Promote` frame, then end the session.
    Promote(u64),
}

/// The hub's registration of one follower session: the bounded queue plus
/// the flags the publish path and the sender thread communicate through
/// without re-taking the mirror lock.
struct FollowerSlot {
    id: u64,
    tx: SyncSender<Item>,
    /// Set by the publish path when the follower lags too far; the sender
    /// observes it, discards its queue and resyncs from a fresh snapshot.
    /// While set, the publish path skips this follower entirely (sheds).
    gap: Arc<AtomicBool>,
    /// The follower's acked applied-LSN watermark (written by the ack
    /// reader thread).
    acked: Arc<AtomicU64>,
    /// `next_lsn` when the follower's current sync began (subscription or
    /// last resync): records before it are covered by its snapshot, so they
    /// never count as lag, acked or not.
    synced_from: u64,
}

/// The replication state machine guarded by one lock: the mirror database
/// (always exactly the state after `next_lsn` records of `epoch`), and the
/// follower registrations. Snapshots are encoded under this lock, which is
/// the only point where a resync briefly delays commits — bounded by encode
/// time, never by a follower's network.
struct Mirror {
    db: Database,
    epoch: u64,
    next_lsn: u64,
    fenced: bool,
    slots: Vec<FollowerSlot>,
    next_id: u64,
}

struct HubShared {
    mirror: Mutex<Mirror>,
    /// Signaled on every publish and ack, so waiters (tests, retire) can
    /// sleep instead of spinning.
    changed: Condvar,
    opts: ReplicationOptions,
    stopping: AtomicBool,
    counters: Counters,
    conns: Mutex<Vec<SessionConn>>,
    acceptors: Mutex<Vec<(SocketAddr, JoinHandle<()>)>>,
}

struct SessionConn {
    stream: Box<dyn Duplex>,
    session: Option<JoinHandle<()>>,
}

/// The primary side of replication: cloneable handle shared by the engine's
/// commit path (which [`PrimaryHub::publish`]es each committed bulk) and the
/// follower acceptor/sessions.
///
/// The hub owns a **mirror** of the database, advanced record-by-record on
/// the commit path. That costs one extra write-set apply per bulk and one
/// extra copy of the data, and buys the crucial property that a consistent
/// snapshot (for a follower's initial sync or a shed resync) is always
/// available under one short lock — the engine's live database is never
/// touched by replication.
///
/// Build one through `EngineBuilder::replicate()` in `gputx-core`, which
/// seeds the mirror from the same database the engine starts with.
#[derive(Clone)]
pub struct PrimaryHub {
    shared: Arc<HubShared>,
}

impl std::fmt::Debug for PrimaryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.shared.mirror.lock().expect("mirror poisoned");
        f.debug_struct("PrimaryHub")
            .field("epoch", &m.epoch)
            .field("next_lsn", &m.next_lsn)
            .field("followers", &m.slots.len())
            .finish()
    }
}

impl PrimaryHub {
    /// A hub for a primary starting fresh at `db`: new epoch, LSNs from 0.
    /// `db` must be the exact state the engine starts executing from.
    pub fn new(db: &Database) -> Self {
        Self::with_epoch(db, fresh_epoch(), ReplicationOptions::default())
    }

    /// A hub with an explicit epoch (a promoted follower continues under its
    /// bumped epoch) and tuning options. LSNs always restart at 0: they are
    /// epoch-scoped, exactly as in crash recovery.
    pub fn with_epoch(db: &Database, epoch: u64, opts: ReplicationOptions) -> Self {
        assert!(epoch != 0, "epoch 0 is reserved for empty followers");
        PrimaryHub {
            shared: Arc::new(HubShared {
                mirror: Mutex::new(Mirror {
                    db: db.clone(),
                    epoch,
                    next_lsn: 0,
                    fenced: false,
                    slots: Vec::new(),
                    next_id: 1,
                }),
                changed: Condvar::new(),
                opts,
                stopping: AtomicBool::new(false),
                counters: Counters::default(),
                conns: Mutex::new(Vec::new()),
                acceptors: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This primary's replication epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.mirror.lock().expect("mirror poisoned").epoch
    }

    /// LSN the next published record must carry.
    pub fn next_lsn(&self) -> u64 {
        self.shared.mirror.lock().expect("mirror poisoned").next_lsn
    }

    /// A copy of the mirror database — the replicated state after every
    /// published record. Bit-identical to what a fully caught-up follower
    /// holds.
    pub fn mirror_db(&self) -> Database {
        self.shared
            .mirror
            .lock()
            .expect("mirror poisoned")
            .db
            .clone()
    }

    /// Publish one committed bulk's redo record: advance the mirror and fan
    /// the encoded record out to every live follower. Called by the engine's
    /// group-commit point with `record.lsn == self.next_lsn()`; panics on a
    /// gap, because a mirror that silently skipped a record would ship
    /// corrupt snapshots forever after.
    ///
    /// Never blocks on a follower: one that has left more than
    /// `queue_depth` published records unacknowledged is shed (it resyncs
    /// from a snapshot later), and encoding happens once regardless of
    /// follower count. Lag is judged on acks, not on how much of the stream
    /// the sender thread managed to push into the socket, so the decision
    /// does not depend on kernel buffer sizes or scheduling.
    pub fn publish(&self, record: &BulkLogRecord) {
        let mut m = self.shared.mirror.lock().expect("mirror poisoned");
        assert_eq!(
            record.lsn, m.next_lsn,
            "published record must continue the mirror's LSN sequence"
        );
        let mut write_set = record.write_set.clone();
        write_set.merge_into(&mut m.db);
        m.db.apply_insert_buffers();
        m.next_lsn += 1;
        self.shared
            .counters
            .records_published
            .fetch_add(1, Ordering::Relaxed);
        if !m.slots.is_empty() {
            let frame = Arc::new(encode_repl(&ReplMsg::LogRecord {
                epoch: m.epoch,
                commit_nanos: unix_nanos(),
                payload: record.encode(),
            }));
            let depth = self.shared.opts.queue_depth as u64;
            for slot in &m.slots {
                // Records this follower has neither acked nor received in
                // its snapshot, this one included.
                let unacked = m
                    .next_lsn
                    .saturating_sub(slot.acked.load(Ordering::Acquire).max(slot.synced_from));
                let sent = !slot.gap.load(Ordering::Acquire)
                    && unacked <= depth
                    // The queue holds at most `unacked - 1` records, so it
                    // is full only when `acked` still carries a watermark
                    // from an older epoch: a backstop, not the shed rule.
                    && match slot.tx.try_send(Item::Record(Arc::clone(&frame))) {
                        Ok(()) => true,
                        Err(TrySendError::Full(_)) => false,
                        // Session already tearing down; it unregisters itself.
                        Err(TrySendError::Disconnected(_)) => true,
                    };
                if !sent {
                    // Shedding; the session will snapshot-resync.
                    slot.gap.store(true, Ordering::Release);
                    self.shared
                        .counters
                        .records_shed
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(m);
        self.shared.changed.notify_all();
    }

    /// Serve an already-connected follower stream (e.g. one end of
    /// [`gputx_server::socket_pair`]).
    pub fn attach<S: Duplex>(&self, stream: S) -> io::Result<()> {
        if self.shared.stopping.load(Ordering::Acquire) {
            return Err(io::Error::other("replication hub is stopping"));
        }
        let read_half = stream.try_clone_box()?;
        let write_half = stream.try_clone_box()?;
        let shared = Arc::clone(&self.shared);
        let mut conns = self.shared.conns.lock().expect("conns poisoned");
        // Re-check under the lock: `stop` drains this list while holding it,
        // so a session registered after the drain would never be joined.
        if self.shared.stopping.load(Ordering::Acquire) {
            let _ = stream.shutdown_both();
            return Err(io::Error::other("replication hub is stopping"));
        }
        let session = std::thread::Builder::new()
            .name("gputx-repl-session".into())
            .spawn(move || session_loop(&shared, read_half, write_half))
            .map_err(io::Error::other)?;
        conns.push(SessionConn {
            stream: Box::new(stream),
            session: Some(session),
        });
        Ok(())
    }

    /// Bind a TCP listener for followers and accept on a background thread.
    /// Returns the bound address (port `0` lets the OS pick).
    pub fn listen(&self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let hub = self.clone();
        let accept = std::thread::Builder::new()
            .name(format!("gputx-repl-accept-{}", local.port()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if hub.shared.stopping.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(s) = stream {
                        let _ = s.set_nodelay(true);
                        let _ = hub.attach(s);
                    }
                }
            })
            .map_err(io::Error::other)?;
        self.shared
            .acceptors
            .lock()
            .expect("acceptors poisoned")
            .push((local, accept));
        Ok(local)
    }

    /// Controlled handoff: pick the follower with the highest acked LSN,
    /// enqueue a [`ReplMsg::Promote`] behind everything already queued for
    /// it, and fence this hub (no new subscriptions, no publishes expected).
    /// Returns `false` when no follower is subscribed. The caller must have
    /// stopped committing first — records published after `retire` would
    /// reach nobody.
    pub fn retire(&self) -> bool {
        let (epoch, best) = {
            let mut m = self.shared.mirror.lock().expect("mirror poisoned");
            m.fenced = true;
            let best = m
                .slots
                .iter()
                .max_by_key(|s| s.acked.load(Ordering::Acquire))
                .map(|s| s.tx.clone());
            (m.epoch, best)
        };
        match best {
            // Blocking send, outside the mirror lock (the session needs that
            // lock to drain a gap): the queue may be momentarily full, and
            // retire (unlike publish) is allowed to wait it out.
            Some(tx) => tx.send(Item::Promote(epoch)).is_ok(),
            None => false,
        }
    }

    /// Restart the stream under a fresh epoch, numbering records from 0
    /// again, and force every subscribed follower through a snapshot resync.
    /// The mirror state is unchanged — only the numbering restarts. Used
    /// when the engine re-creates its WAL (e.g. the one-shot → pipelined
    /// conversion truncates the log), so log and stream keep numbering the
    /// same records identically.
    pub fn rotate_epoch(&self) {
        let mut m = self.shared.mirror.lock().expect("mirror poisoned");
        m.epoch = fresh_epoch().max(m.epoch + 1);
        m.next_lsn = 0;
        for slot in &m.slots {
            slot.gap.store(true, Ordering::Release);
        }
    }

    /// Acked applied-LSN watermark of every live follower (unordered).
    pub fn follower_acks(&self) -> Vec<u64> {
        let m = self.shared.mirror.lock().expect("mirror poisoned");
        m.slots
            .iter()
            .map(|s| s.acked.load(Ordering::Acquire))
            .collect()
    }

    /// Block until every live follower has acked `lsn`, or `timeout`
    /// elapses. Returns whether the watermark was reached. Followers that
    /// unsubscribe while waiting stop counting.
    pub fn wait_acked(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut m = self.shared.mirror.lock().expect("mirror poisoned");
        loop {
            if m.slots
                .iter()
                .all(|s| s.acked.load(Ordering::Acquire) >= lsn)
            {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .changed
                .wait_timeout(m, deadline - now)
                .expect("mirror poisoned");
            m = guard;
        }
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> PrimaryStats {
        let (followers, fenced) = {
            let m = self.shared.mirror.lock().expect("mirror poisoned");
            (m.slots.len() as u64, m.fenced)
        };
        PrimaryStats {
            followers,
            records_published: self
                .shared
                .counters
                .records_published
                .load(Ordering::Relaxed),
            records_shed: self.shared.counters.records_shed.load(Ordering::Relaxed),
            snapshots_sent: self.shared.counters.snapshots_sent.load(Ordering::Relaxed),
            resyncs: self.shared.counters.resyncs.load(Ordering::Relaxed),
            fencings: self.shared.counters.fencings.load(Ordering::Relaxed),
            fenced,
        }
    }

    /// Stop accepting, close every follower session and join all hub
    /// threads. Idempotent. Followers observe EOF and report disconnected.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        let mut acceptors = self.shared.acceptors.lock().expect("acceptors poisoned");
        for (addr, _) in acceptors.iter() {
            // Wake the blocked accept with a throwaway connection.
            let _ = TcpStream::connect(*addr);
        }
        for (_, handle) in acceptors.drain(..) {
            let _ = handle.join();
        }
        drop(acceptors);
        let mut conns = self.shared.conns.lock().expect("conns poisoned");
        for conn in conns.iter() {
            let _ = conn.stream.shutdown_both();
        }
        for conn in conns.iter_mut() {
            if let Some(h) = conn.session.take() {
                let _ = h.join();
            }
        }
        conns.clear();
    }
}

/// Encode the mirror database for a snapshot transfer. Epoch and `next_lsn`
/// travel in every chunk's header, so the payload is the pure
/// `Database::encode_into` bytes — the same encoding checkpoints use.
fn encode_snapshot(db: &Database) -> Vec<u8> {
    let mut w = WireWriter::new();
    db.encode_into(&mut w);
    w.into_bytes()
}

/// Under the mirror lock: register a follower slot and decide how to bring
/// it up to date. Returns the slot's id, the record receiver, the gap/acked
/// flags, and the snapshot to send first (if any).
#[allow(clippy::type_complexity)]
fn register_follower(
    shared: &HubShared,
    sub_epoch: u64,
    sub_applied: u64,
) -> Result<
    (
        u64,
        Receiver<Item>,
        Arc<AtomicBool>,
        Arc<AtomicU64>,
        Option<(u64, u64, Vec<u8>)>,
    ),
    io::Error,
> {
    let mut m = shared.mirror.lock().expect("mirror poisoned");
    if sub_epoch > m.epoch {
        // The follower outlived us into a newer epoch: we are the stale
        // primary. Fence ourselves and refuse — serving it would rewind it.
        m.fenced = true;
        shared.counters.fencings.fetch_add(1, Ordering::Relaxed);
        return Err(io::Error::other(
            "follower epoch is newer than ours: stale primary fenced",
        ));
    }
    if m.fenced {
        return Err(io::Error::other("primary is fenced; not serving"));
    }
    let (tx, rx) = std::sync::mpsc::sync_channel::<Item>(shared.opts.queue_depth);
    let gap = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(sub_applied));
    let id = m.next_id;
    m.next_id += 1;
    // Caught-up fast path: same epoch, applied everything we have — the log
    // tail streams from here with no snapshot. Anything else bootstraps
    // from a snapshot cut *now*, under the same lock that registers the
    // queue, so no record can fall between snapshot and subscription.
    let snapshot = if sub_epoch == m.epoch && sub_applied == m.next_lsn {
        None
    } else {
        Some((m.epoch, m.next_lsn, encode_snapshot(&m.db)))
    };
    let synced_from = m.next_lsn;
    m.slots.push(FollowerSlot {
        id,
        tx,
        gap: Arc::clone(&gap),
        acked: Arc::clone(&acked),
        synced_from,
    });
    Ok((id, rx, gap, acked, snapshot))
}

fn unregister_follower(shared: &HubShared, id: u64) {
    let mut m = shared.mirror.lock().expect("mirror poisoned");
    m.slots.retain(|s| s.id != id);
    drop(m);
    shared.changed.notify_all();
}

/// Send one snapshot as a chunk sequence.
fn send_snapshot(
    stream: &mut Box<dyn Duplex>,
    shared: &HubShared,
    epoch: u64,
    next_lsn: u64,
    bytes: &[u8],
) -> io::Result<()> {
    let chunk_len = shared.opts.chunk_len.max(1);
    let total = bytes.len().div_ceil(chunk_len).max(1);
    for (seq, chunk) in bytes
        .chunks(chunk_len)
        .chain(std::iter::once(&bytes[0..0]).filter(|_| bytes.is_empty()))
        .enumerate()
    {
        let msg = ReplMsg::SnapshotChunk {
            epoch,
            next_lsn,
            seq: seq as u32,
            last: seq + 1 == total,
            bytes: chunk.to_vec(),
        };
        write_frame(stream, &encode_repl(&msg))?;
    }
    shared
        .counters
        .snapshots_sent
        .fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// One follower session: handshake, initial sync, then stream records until
/// the follower disconnects, the hub stops, or a handoff promotes it.
/// Overflow shedding is handled here — on a gap, the queued prefix is
/// discarded and a fresh snapshot (cut under the mirror lock) replaces it.
fn session_loop(
    shared: &Arc<HubShared>,
    mut read_half: Box<dyn Duplex>,
    mut write_half: Box<dyn Duplex>,
) {
    // Handshake: the first frame must be a Subscribe.
    let (sub_epoch, sub_applied) = match read_frame(&mut read_half, MAX_FRAME_LEN) {
        Ok(Some(payload)) => match gputx_server::proto::decode_repl(&payload) {
            Ok(ReplMsg::Subscribe { epoch, applied_lsn }) => (epoch, applied_lsn),
            _ => {
                let _ = read_half.shutdown_both();
                return;
            }
        },
        _ => {
            let _ = read_half.shutdown_both();
            return;
        }
    };
    let (id, rx, gap, acked, snapshot) = match register_follower(shared, sub_epoch, sub_applied) {
        Ok(r) => r,
        Err(_) => {
            // Refused (stale primary fenced, or fenced already): EOF tells
            // the follower to look for a newer primary.
            let _ = read_half.shutdown_both();
            return;
        }
    };
    // Acks flow on their own thread so a snapshot send never deadlocks
    // against a follower acking mid-transfer.
    let acker = {
        let acked = Arc::clone(&acked);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("gputx-repl-acker".into())
            .spawn(move || {
                while let Ok(Some(payload)) = read_frame(&mut read_half, MAX_FRAME_LEN) {
                    match gputx_server::proto::decode_repl(&payload) {
                        Ok(ReplMsg::Ack { applied_lsn }) => {
                            acked.store(applied_lsn, Ordering::Release);
                            shared.changed.notify_all();
                        }
                        _ => break,
                    }
                }
            })
    };
    let mut pending_snapshot = snapshot;
    'session: loop {
        if let Some((epoch, next_lsn, bytes)) = pending_snapshot.take() {
            if send_snapshot(&mut write_half, shared, epoch, next_lsn, &bytes).is_err() {
                break 'session;
            }
        }
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(Item::Record(frame)) => {
                if write_frame(&mut write_half, &frame).is_err() {
                    break 'session;
                }
            }
            Ok(Item::Promote(promote_epoch)) => {
                let _ = write_frame(
                    &mut write_half,
                    &encode_repl(&ReplMsg::Promote {
                        epoch: promote_epoch,
                    }),
                );
                break 'session;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break 'session,
        }
        if shared.stopping.load(Ordering::Acquire) {
            break 'session;
        }
        if gap.load(Ordering::Acquire) {
            // Shed: the publish path dropped records for us. Discard the
            // stale queued prefix and cut a fresh snapshot under the mirror
            // lock; clearing the gap under the same lock means no record
            // published after the cut can be missed.
            let (epoch, next_lsn, bytes) = {
                let mut guard = shared.mirror.lock().expect("mirror poisoned");
                let m = &mut *guard;
                while rx.try_recv().is_ok() {}
                gap.store(false, Ordering::Release);
                if let Some(slot) = m.slots.iter_mut().find(|s| s.id == id) {
                    slot.synced_from = m.next_lsn;
                }
                (m.epoch, m.next_lsn, encode_snapshot(&m.db))
            };
            shared.counters.resyncs.fetch_add(1, Ordering::Relaxed);
            pending_snapshot = Some((epoch, next_lsn, bytes));
        }
    }
    unregister_follower(shared, id);
    let _ = write_half.shutdown_both();
    if let Ok(h) = acker {
        let _ = h.join();
    }
}
