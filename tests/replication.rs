//! End-to-end replication tests: the replica is the primary, bit for bit.
//!
//! * **Promoted prefix == serial replay** — drive a replicated engine over a
//!   seeded micro stream, promote the follower, and require its database to
//!   be bit-identical to the engine's own state after the same number of
//!   bulks — which is itself asserted equal to a serial replay of exactly
//!   those transactions.
//! * **Arbitrary stream chops** — capture the exact byte stream a primary
//!   sends a fresh follower (snapshot + records), then cut it at arbitrary
//!   byte offsets (proptest + every frame boundary): the replica must apply
//!   precisely the complete-record prefix, never a torn frame.
//! * **Kill/resync mid-run** — a follower stopped mid-stream and resumed
//!   from its seed (possibly many bulks behind) converges to the primary.
//! * **Promotion during resync** — a follower promoted while a snapshot
//!   resync is in flight discards the partial snapshot, promotes its last
//!   installed state, and a new group forms under the promoted epoch.
//! * **Slow followers shed, never block** — a follower that stops reading
//!   gets gap-marked and resynced; the commit path never waits on it, and
//!   (proptest over socket buffer sizes and stall points) it is shed at
//!   exactly the first record that leaves more than `queue_depth`
//!   unacknowledged.

use gputx_core::EngineBuilder;
use gputx_durability::BulkLogRecord;
use gputx_replication::{
    Replica, ReplicaSeed, ReplicaSupervisor, ReplicationOptions, SupervisorConfig,
};
use gputx_server::proto::{
    decode_repl, encode_repl, read_frame, write_frame, ReplMsg, MAX_FRAME_LEN,
};
use gputx_server::{socket_pair, Duplex};
use gputx_storage::{Database, WireWriter};
use gputx_txn::{ProcedureRegistry, TxnSignature};
use gputx_workloads::{MicroConfig, MicroWorkload, WorkloadBundle};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn micro(tuples: u64, seed: u64) -> WorkloadBundle {
    let mut bundle = MicroWorkload::build(
        &MicroConfig::default()
            .with_tuples(tuples)
            .with_types(4)
            .with_skew(0.3),
    );
    bundle.reseed(seed);
    bundle
}

/// Replay `sigs` serially (the paper's reference execution) and apply the
/// insert buffers once per bulk, exactly like the engine's commit.
fn serial_replay(
    db0: &Database,
    registry: &ProcedureRegistry,
    bulks: &[&[TxnSignature]],
) -> Database {
    let mut db = db0.clone();
    for bulk in bulks {
        for sig in *bulk {
            registry.execute(sig, &mut db);
        }
        db.apply_insert_buffers();
    }
    db
}

/// The tentpole property: run a replicated engine, kill the primary, and the
/// promoted follower's committed prefix is bit-identical — both to the
/// primary's own state after each bulk and to a serial replay of exactly the
/// acked transactions.
#[test]
fn promoted_follower_prefix_is_bit_identical_to_serial_replay() {
    const BULKS: usize = 8;
    const PER_BULK: usize = 32;
    let bundle = micro(256, 0xA11CE);
    let sigs = {
        let mut b = micro(256, 0xA11CE);
        b.generate_signatures(BULKS * PER_BULK, 0)
    };
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate();
    let hub = builder.hub().expect("replicate() creates the hub");
    let mut engine = builder.build();

    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach follower");
    let replica = Replica::start(follower_end).expect("start follower");
    assert!(replica.wait_synced(WAIT), "initial snapshot must install");

    // One engine snapshot per committed bulk: states[k] = after k records.
    let mut states: Vec<Database> = vec![engine.db().clone()];
    for chunk in sigs.chunks(PER_BULK) {
        for sig in chunk {
            engine.submit(sig.ty, sig.params.clone());
        }
        engine.execute_pending().expect("bulk executes");
        states.push(engine.db().clone());
    }
    assert!(
        hub.wait_acked(BULKS as u64, WAIT),
        "follower must ack the full stream"
    );

    // Primary loss: fence the hub and hand off to the best follower.
    assert!(hub.retire(), "retire hands off to the acked follower");
    let promotion = replica.promote().expect("synced follower promotes");
    let applied = promotion.applied_lsn as usize;
    assert_eq!(applied, BULKS, "fully acked follower applied everything");
    assert!(
        promotion.db == states[applied],
        "promoted prefix must equal the primary's state at LSN {applied}"
    );
    // And the primary's state is itself the serial replay of those bulks.
    let bulks: Vec<&[TxnSignature]> = sigs.chunks(PER_BULK).collect();
    let reference = serial_replay(&bundle.db, &bundle.registry, &bulks[..applied]);
    assert!(
        promotion.db == reference,
        "promoted prefix must equal serial replay of the acked transactions"
    );
    hub.stop();
}

/// A captured primary→follower byte stream plus everything needed to predict
/// the replica's state for any chop point.
struct CapturedStream {
    /// The exact bytes the primary sent (snapshot chunks, then records).
    bytes: Vec<u8>,
    /// Cumulative end offset of each frame within `bytes`.
    frame_ends: Vec<usize>,
    /// Number of frames that make up the snapshot.
    snapshot_frames: usize,
    /// states[k] = database after applying k records (states[0] = snapshot).
    states: Vec<Database>,
}

fn captured_stream() -> &'static CapturedStream {
    static STREAM: OnceLock<CapturedStream> = OnceLock::new();
    STREAM.get_or_init(|| {
        const BULKS: usize = 6;
        const PER_BULK: usize = 24;
        let bundle = micro(128, 0xC0FFEE);
        let sigs = {
            let mut b = micro(128, 0xC0FFEE);
            b.generate_signatures(BULKS * PER_BULK, 0)
        };
        let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate();
        let hub = builder.hub().expect("hub");
        let mut engine = builder.build();

        // A raw witness follower: handshake by hand, then capture the
        // primary's frames verbatim.
        let (server_end, mut witness) = socket_pair().expect("socketpair");
        hub.attach(server_end).expect("attach witness");
        write_frame(
            &mut witness,
            &encode_repl(&ReplMsg::Subscribe {
                epoch: 0,
                applied_lsn: 0,
            }),
        )
        .expect("subscribe");
        // The witness must be *registered* (snapshot cut at LSN 0, queue
        // subscribed) before the first bulk commits, or the snapshot lands
        // at a later LSN and fewer than BULKS records follow. Registration
        // and the snapshot cut share one mirror-lock acquisition, so
        // `followers == 1` implies the LSN-0 cut.
        let deadline = Instant::now() + WAIT;
        while hub.stats().followers == 0 {
            assert!(Instant::now() < deadline, "witness never registered");
            std::thread::yield_now();
        }

        for chunk in sigs.chunks(PER_BULK) {
            for sig in chunk {
                engine.submit(sig.ty, sig.params.clone());
            }
            engine.execute_pending().expect("bulk executes");
        }

        let mut bytes = Vec::new();
        let mut frame_ends = Vec::new();
        let mut snapshot_frames = 0usize;
        let mut snapshot_bytes = Vec::new();
        let mut records: Vec<BulkLogRecord> = Vec::new();
        while records.len() < BULKS {
            let payload = read_frame(&mut witness, MAX_FRAME_LEN)
                .expect("frame reads")
                .expect("stream stays open until the last record");
            match gputx_server::proto::decode_repl(&payload).expect("valid repl frame") {
                ReplMsg::SnapshotChunk { last, bytes: b, .. } => {
                    assert!(records.is_empty(), "snapshot precedes records");
                    snapshot_frames += 1;
                    snapshot_bytes.extend_from_slice(&b);
                    let _ = last;
                }
                ReplMsg::LogRecord { payload, .. } => {
                    records.push(BulkLogRecord::decode(&payload).expect("record decodes"));
                }
                other => panic!("unexpected frame {other:?}"),
            }
            write_frame(&mut bytes, &payload).expect("reframe");
            frame_ends.push(bytes.len());
        }
        hub.stop();

        let mut r = gputx_storage::WireReader::new(&snapshot_bytes);
        let snapshot = Database::decode(&mut r).expect("snapshot decodes");
        let mut states = vec![snapshot];
        for record in records {
            let mut next = states.last().expect("non-empty").clone();
            record.replay_into(&mut next);
            states.push(next);
        }
        CapturedStream {
            bytes,
            frame_ends,
            snapshot_frames,
            states,
        }
    })
}

/// Feed the replica exactly `chop` bytes of the captured stream, then EOF,
/// and assert it lands on the predicted complete-record prefix.
fn assert_chop_lands_on_a_record_boundary(chop: usize) {
    let stream = captured_stream();
    let chop = chop.min(stream.bytes.len());
    let complete_frames = stream.frame_ends.iter().filter(|&&end| end <= chop).count();
    let (server_end, follower_end) = socket_pair().expect("socketpair");
    let feeder = std::thread::spawn(move || {
        let mut s: &UnixStream = &server_end;
        use std::io::Write;
        let _ = s.write_all(&captured_stream().bytes[..chop]);
        let _ = server_end.shutdown(Shutdown::Write);
        server_end // keep the read side open so the replica's acks never fail
    });
    let mut replica = Replica::start(follower_end).expect("start follower");
    assert!(
        replica.wait_disconnected(WAIT),
        "EOF must surface as a disconnect"
    );
    let stats = replica.stats();
    if complete_frames < stream.snapshot_frames {
        assert!(!stats.synced, "a torn snapshot must not install");
        assert_eq!(stats.snapshots_installed, 0);
        assert!(replica.snapshot_db().is_none());
    } else {
        let applied = complete_frames - stream.snapshot_frames;
        assert_eq!(
            stats.applied_lsn as usize, applied,
            "exactly the complete-record prefix applies (chop at byte {chop})"
        );
        let db = replica
            .snapshot_db()
            .expect("synced replica has a snapshot");
        assert!(
            db == stream.states[applied],
            "state after {applied} records must be bit-identical (chop at byte {chop})"
        );
    }
    replica.stop();
    let _ = feeder.join();
}

proptest! {
    /// Random chop offsets across the whole captured stream.
    #[test]
    fn prop_chopped_streams_apply_only_complete_records(frac in 0.0f64..1.0) {
        let len = captured_stream().bytes.len();
        assert_chop_lands_on_a_record_boundary((len as f64 * frac) as usize);
    }
}

/// The adversarial offsets proptest may miss: exactly on, one before, and
/// one after every frame boundary.
#[test]
fn chops_at_exact_frame_boundaries_apply_only_complete_records() {
    let ends = captured_stream().frame_ends.clone();
    for end in ends {
        assert_chop_lands_on_a_record_boundary(end.saturating_sub(1));
        assert_chop_lands_on_a_record_boundary(end);
        assert_chop_lands_on_a_record_boundary(end + 1);
    }
}

/// Kill a follower mid-run, keep committing, then resume it from its seed:
/// it must converge on the primary's final state (via the log tail or a
/// snapshot — its choice, but bit-identical either way).
#[test]
fn follower_killed_mid_run_resyncs_and_converges() {
    const PER_BULK: usize = 24;
    let bundle = micro(128, 0xDEAD);
    let sigs = {
        let mut b = micro(128, 0xDEAD);
        b.generate_signatures(8 * PER_BULK, 0)
    };
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate();
    let hub = builder.hub().expect("hub");
    let mut engine = builder.build();

    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach");
    let mut replica = Replica::start(follower_end).expect("start");
    assert!(replica.wait_synced(WAIT));

    let run_bulks = |engine: &mut gputx_core::GpuTxEngine, range: std::ops::Range<usize>| {
        for chunk in sigs[range.start * PER_BULK..range.end * PER_BULK].chunks(PER_BULK) {
            for sig in chunk {
                engine.submit(sig.ty, sig.params.clone());
            }
            engine.execute_pending().expect("bulk executes");
        }
    };
    run_bulks(&mut engine, 0..3);
    assert!(replica.wait_applied(3, WAIT));

    // Kill: stop the reader and remember what the follower had.
    replica.stop();
    let seed = ReplicaSeed {
        db: replica.snapshot_db().expect("was synced"),
        epoch: replica.epoch(),
        applied_lsn: replica.applied_lsn(),
    };
    drop(replica);

    // The primary keeps committing while the follower is down.
    run_bulks(&mut engine, 3..8);

    // Resync from the seed; the primary sees a stale LSN and snapshots it.
    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("re-attach");
    let replica = Replica::resume(follower_end, seed).expect("resume");
    assert!(
        replica.wait_applied(8, WAIT),
        "resynced follower catches up"
    );
    assert!(
        replica.snapshot_db().expect("synced") == *engine.db(),
        "resynced follower must be bit-identical to the primary"
    );
    hub.stop();
}

/// The supervised version of kill/resync: the wire dies repeatedly under a
/// [`ReplicaSupervisor`], which re-dials with backoff, resumes from
/// everything already applied (epoch re-validated by the subscribe
/// handshake), and converges to the primary — no manual seed plumbing.
#[test]
fn supervised_replica_reconnects_and_converges() {
    use std::sync::{Arc, Mutex};
    const PER_BULK: usize = 24;
    let bundle = micro(128, 0xFEED);
    let sigs = {
        let mut b = micro(128, 0xFEED);
        b.generate_signatures(8 * PER_BULK, 0)
    };
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate();
    let hub = builder.hub().expect("hub");
    let mut engine = builder.build();

    // The connector stashes the latest follower-side stream so the test can
    // yank the wire out from under the supervisor.
    let current: Arc<Mutex<Option<UnixStream>>> = Arc::new(Mutex::new(None));
    let mut sup = ReplicaSupervisor::start(
        {
            let hub = hub.clone();
            let current = Arc::clone(&current);
            move || {
                let (server_end, follower_end) = socket_pair()?;
                hub.attach(server_end)?;
                *current.lock().expect("stash lock") = Some(follower_end.try_clone()?);
                Ok(Box::new(follower_end) as Box<dyn gputx_server::Duplex>)
            }
        },
        SupervisorConfig::default(),
    )
    .expect("supervisor starts");
    assert!(sup.wait_synced(WAIT), "initial sync");

    let run_bulks = |engine: &mut gputx_core::GpuTxEngine, range: std::ops::Range<usize>| {
        for chunk in sigs[range.start * PER_BULK..range.end * PER_BULK].chunks(PER_BULK) {
            for sig in chunk {
                engine.submit(sig.ty, sig.params.clone());
            }
            engine.execute_pending().expect("bulk executes");
        }
    };
    run_bulks(&mut engine, 0..3);
    assert!(sup.wait_applied(3, WAIT), "live session applies");

    // Two outages, each with commits while the wire is down: the supervisor
    // must resync through each (log tail or snapshot, the primary's choice).
    for (kill, watermark) in [(3usize, 6u64), (6, 8)] {
        current
            .lock()
            .expect("stash lock")
            .as_ref()
            .expect("connected at least once")
            .shutdown(Shutdown::Both)
            .expect("yank the wire");
        run_bulks(&mut engine, kill..watermark as usize);
        assert!(
            sup.wait_applied(watermark, WAIT),
            "supervisor catches up to LSN {watermark} after the outage"
        );
    }
    let stats = sup.stats();
    assert!(
        stats.reconnects >= 2,
        "each outage forces a reconnect, got {stats:?}"
    );
    assert!(!stats.gave_up, "retry budget never exhausted: {stats:?}");
    assert!(
        sup.snapshot_db().expect("synced") == *engine.db(),
        "supervised follower must be bit-identical to the primary"
    );
    sup.stop();
    // State survives stop: the final seed is the converged database.
    assert!(
        sup.seed().db == *engine.db(),
        "seed after stop is the converged state"
    );
    hub.stop();
}

/// Satellite: a follower promoted while a snapshot resync is in flight must
/// discard the partial snapshot, promote its last *installed* state, and a
/// fresh group must form under the promoted epoch.
#[test]
fn promotion_during_resync_discards_partial_snapshot() {
    // Act as the old primary by hand so the resync can be left half-sent.
    let (mut primary_end, follower_end) = socket_pair().expect("socketpair");
    let replica = Replica::start(follower_end).expect("start");

    // Drain the replica's Subscribe, then install a full snapshot at epoch
    // 101 with two records already folded in (next_lsn = 2).
    let sub = read_frame(&mut primary_end, MAX_FRAME_LEN)
        .expect("subscribe frame")
        .expect("open");
    assert!(matches!(
        gputx_server::proto::decode_repl(&sub).expect("decodes"),
        ReplMsg::Subscribe {
            epoch: 0,
            applied_lsn: 0
        }
    ));
    let (installed, registry) = {
        let bundle = micro(64, 0xBEE);
        (bundle.db.clone(), bundle.registry.clone())
    };
    let mut w = WireWriter::new();
    installed.encode_into(&mut w);
    let snapshot = w.into_bytes();
    write_frame(
        &mut primary_end,
        &encode_repl(&ReplMsg::SnapshotChunk {
            epoch: 101,
            next_lsn: 2,
            seq: 0,
            last: true,
            bytes: snapshot.clone(),
        }),
    )
    .expect("send snapshot");
    assert!(replica.wait_synced(WAIT));
    assert_eq!(replica.applied_lsn(), 2);

    // A newer primary (epoch 103) starts resyncing it — but only the first
    // half of the snapshot ever arrives.
    write_frame(
        &mut primary_end,
        &encode_repl(&ReplMsg::SnapshotChunk {
            epoch: 103,
            next_lsn: 9,
            seq: 0,
            last: false,
            bytes: snapshot[..snapshot.len() / 2].to_vec(),
        }),
    )
    .expect("send partial resync");

    // Operator promotes mid-resync: the partial snapshot must not leak into
    // the promotion — it promotes the installed epoch-101 state.
    let promotion = replica.promote().expect("was synced");
    assert_eq!(promotion.applied_lsn, 2, "promotes the installed prefix");
    assert!(
        promotion.db == installed,
        "partial resync bytes must be discarded"
    );
    assert!(
        promotion.epoch > 103,
        "promoted epoch must fence both old primaries"
    );

    // The promoted follower becomes a primary; a fresh follower syncs from
    // the *new* epoch and sees the promoted state.
    let builder = EngineBuilder::from_promotion(promotion, registry).replicate();
    let hub = builder.hub().expect("hub");
    let (server_end, follower_end) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach");
    let fresh = Replica::start(follower_end).expect("start");
    assert!(fresh.wait_synced(WAIT));
    assert_eq!(fresh.epoch(), hub.epoch(), "resyncs under the new epoch");
    assert!(fresh.snapshot_db().expect("synced") == installed);
    hub.stop();
}

/// Regression: a follower that stops reading must never block the commit
/// path — the hub marks it gapped and sheds, and every bulk still commits.
#[test]
fn slow_follower_sheds_but_never_blocks_commits() {
    const BULKS: usize = 64;
    const PER_BULK: usize = 16;
    let bundle = micro(128, 0x51de);
    let sigs = {
        let mut b = micro(128, 0x51de);
        b.generate_signatures(BULKS * PER_BULK, 0)
    };
    // A tiny queue so the stalled follower gaps after a handful of records.
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate_with(
        ReplicationOptions {
            queue_depth: 4,
            ..ReplicationOptions::default()
        },
    );
    let hub = builder.hub().expect("hub");
    let mut engine = builder.build();

    // Raw follower: completes the handshake, then never reads again.
    let (server_end, mut stalled) = socket_pair().expect("socketpair");
    hub.attach(server_end).expect("attach");
    write_frame(
        &mut stalled,
        &encode_repl(&ReplMsg::Subscribe {
            epoch: 0,
            applied_lsn: 0,
        }),
    )
    .expect("subscribe");
    let deadline = Instant::now() + WAIT;
    while hub.stats().followers == 0 {
        assert!(Instant::now() < deadline, "follower must register");
        std::thread::yield_now();
    }

    let start = Instant::now();
    for chunk in sigs.chunks(PER_BULK) {
        for sig in chunk {
            engine.submit(sig.ty, sig.params.clone());
        }
        engine.execute_pending().expect("bulk executes");
    }
    assert_eq!(
        engine.total_committed() + engine.total_aborted(),
        BULKS * PER_BULK
    );
    assert_eq!(hub.next_lsn(), BULKS as u64, "every bulk published");
    assert!(
        start.elapsed() < WAIT,
        "commit path must not wait on the stalled follower"
    );
    let stats = hub.stats();
    assert!(
        stats.records_shed > 0,
        "the stalled follower's queue overflowed and shed: {stats:?}"
    );
    hub.stop();
    drop(stalled);
}

/// One direction of an in-memory byte pipe holding at most `cap` bytes: a
/// socket whose kernel buffer size the test chooses.
struct Pipe {
    cap: usize,
    state: Mutex<(VecDeque<u8>, bool)>,
    cond: Condvar,
}

/// A [`Duplex`] over two [`Pipe`]s: writes block while the peer's pipe is
/// full, exactly as a socket blocks on a full send buffer.
#[derive(Clone)]
struct MemStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

fn mem_pair(cap: usize) -> (MemStream, MemStream) {
    let pipe = || {
        Arc::new(Pipe {
            cap,
            state: Mutex::new((VecDeque::new(), false)),
            cond: Condvar::new(),
        })
    };
    let (a, b) = (pipe(), pipe());
    (
        MemStream {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        MemStream { rx: b, tx: a },
    )
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut state = self.rx.state.lock().expect("pipe poisoned");
        while state.0.is_empty() && !state.1 {
            state = self.rx.cond.wait(state).expect("pipe poisoned");
        }
        let n = buf.len().min(state.0.len());
        for (dst, src) in buf.iter_mut().zip(state.0.drain(..n)) {
            *dst = src;
        }
        self.rx.cond.notify_all();
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = self.tx.state.lock().expect("pipe poisoned");
        while state.0.len() >= self.tx.cap && !state.1 {
            state = self.tx.cond.wait(state).expect("pipe poisoned");
        }
        if state.1 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(self.tx.cap - state.0.len());
        state.0.extend(&buf[..n]);
        self.tx.cond.notify_all();
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Duplex for MemStream {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Duplex>> {
        Ok(Box::new(self.clone()))
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        for pipe in [&self.rx, &self.tx] {
            pipe.state.lock().expect("pipe poisoned").1 = true;
            pipe.cond.notify_all();
        }
        Ok(())
    }
}

/// Subscribe from scratch, install the snapshot, apply and ack `records`
/// log records, then stop reading — returning the still-open stream.
fn follow_then_stall(mut stream: MemStream, records: u64) -> MemStream {
    let ack = |stream: &mut MemStream, applied_lsn| {
        write_frame(stream, &encode_repl(&ReplMsg::Ack { applied_lsn })).expect("ack");
    };
    write_frame(
        &mut stream,
        &encode_repl(&ReplMsg::Subscribe {
            epoch: 0,
            applied_lsn: 0,
        }),
    )
    .expect("subscribe");
    let mut applied = 0;
    loop {
        let payload = read_frame(&mut stream, MAX_FRAME_LEN)
            .expect("frame")
            .expect("primary keeps the stream open");
        match decode_repl(&payload).expect("replication frame") {
            ReplMsg::SnapshotChunk {
                next_lsn,
                last: true,
                ..
            } => ack(&mut stream, next_lsn),
            ReplMsg::SnapshotChunk { .. } => {}
            ReplMsg::LogRecord { payload, .. } => {
                let lsn = BulkLogRecord::decode(&payload).expect("record").lsn;
                applied += 1;
                ack(&mut stream, lsn + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        if applied == records {
            return stream;
        }
    }
}

proptest! {
    /// Shedding is decided by acknowledged lag alone: whatever the socket's
    /// buffer size and wherever the follower stalls, it is shed at exactly
    /// the first record that leaves more than `queue_depth` unacknowledged
    /// — never earlier, and never later because the sender thread could
    /// still push records into a roomy socket buffer.
    #[test]
    fn prop_followers_shed_at_acked_lag_whatever_the_buffer(
        buffer in 16usize..256 * 1024,
        acked in 0u64..6,
        depth in 1usize..6,
    ) {
        let bundle = micro(64, 0x5EED);
        let sigs = micro(64, 0x5EED).generate_signatures(4 * (acked as usize + depth + 1), 0);
        let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
            .replicate_with(ReplicationOptions {
                queue_depth: depth,
                ..ReplicationOptions::default()
            });
        let hub = builder.hub().expect("hub");
        let mut engine = builder.build();
        let (primary_end, follower_end) = mem_pair(buffer);
        hub.attach(primary_end).expect("attach");
        let follower = std::thread::spawn(move || follow_then_stall(follower_end, acked));
        let deadline = Instant::now() + WAIT;
        while hub.follower_acks() != [0] {
            prop_assert!(Instant::now() < deadline, "follower must sync");
            std::thread::yield_now();
        }
        let mut bulks = sigs.chunks(4);
        let mut commit = |engine: &mut gputx_core::GpuTxEngine| {
            for sig in bulks.next().expect("enough signatures") {
                engine.submit(sig.ty, sig.params.clone());
            }
            engine.execute_pending().expect("bulk executes");
        };
        // In lockstep, the follower applies and acks `acked` records...
        for lsn in 1..=acked {
            commit(&mut engine);
            prop_assert!(hub.wait_acked(lsn, WAIT), "follower acks record {lsn}");
        }
        // ...then stalls: nothing it has not acked may pile past `depth`.
        let stalled = follower.join().expect("follower thread");
        for unacked in 1..=depth as u64 {
            commit(&mut engine);
            prop_assert_eq!(hub.stats().records_shed, 0, "{unacked} unacked of {depth}");
        }
        commit(&mut engine);
        prop_assert_eq!(hub.stats().records_shed, 1, "shed at {} unacked", depth + 1);
        hub.stop();
        drop(stalled);
    }
}

/// Soak (CI `replication` job runs it with `--ignored`): two followers under
/// pipelined load, one killed and resynced mid-run, then the primary retires
/// and the best follower's promoted prefix is verified bit-identical to a
/// serial replay of an acked prefix of the stream.
#[test]
#[ignore = "soak: run with --ignored in the replication CI job"]
fn soak_two_followers_kill_resync_promote_under_load() {
    const BULKS: usize = 120;
    const PER_BULK: usize = 32;
    let bundle = micro(256, 0x50AC);
    let sigs = {
        let mut b = micro(256, 0x50AC);
        b.generate_signatures(BULKS * PER_BULK, 0)
    };
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone()).replicate();
    let hub = builder.hub().expect("hub");
    let mut engine = builder.build();

    let (a_srv, a_end) = socket_pair().expect("socketpair");
    hub.attach(a_srv).expect("attach a");
    let replica_a = Replica::start(a_end).expect("start a");
    let (b_srv, b_end) = socket_pair().expect("socketpair");
    hub.attach(b_srv).expect("attach b");
    let mut replica_b = Replica::start(b_end).expect("start b");
    assert!(replica_a.wait_synced(WAIT) && replica_b.wait_synced(WAIT));

    let mut states: Vec<Database> = vec![engine.db().clone()];
    for (i, chunk) in sigs.chunks(PER_BULK).enumerate() {
        for sig in chunk {
            engine.submit(sig.ty, sig.params.clone());
        }
        engine.execute_pending().expect("bulk executes");
        states.push(engine.db().clone());
        if i == BULKS / 3 {
            // Kill B mid-run...
            replica_b.stop();
        }
        if i == BULKS / 2 {
            // ...and resync it from its seed a third of the run later.
            let seed = ReplicaSeed {
                db: replica_b.snapshot_db().expect("b was synced"),
                epoch: replica_b.epoch(),
                applied_lsn: replica_b.applied_lsn(),
            };
            let (b_srv, b_end) = socket_pair().expect("socketpair");
            hub.attach(b_srv).expect("re-attach b");
            replica_b = Replica::resume(b_end, seed).expect("resume b");
        }
    }
    assert!(hub.wait_acked(BULKS as u64, WAIT), "both followers drain");
    assert!(replica_b.wait_applied(BULKS as u64, WAIT));

    assert!(hub.retire(), "hand off to the best follower");
    drop(replica_b);
    let promotion = replica_a.promote().expect("a was synced");
    let applied = promotion.applied_lsn as usize;
    assert!(
        promotion.db == states[applied],
        "prefix matches the primary"
    );
    let bulks: Vec<&[TxnSignature]> = sigs.chunks(PER_BULK).collect();
    let reference = serial_replay(&bundle.db, &bundle.registry, &bulks[..applied]);
    assert!(
        promotion.db == reference,
        "promoted prefix equals serial replay of the acked stream"
    );
    hub.stop();
}
