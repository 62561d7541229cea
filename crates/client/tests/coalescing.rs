//! Write coalescing on the request path: frames buffer behind unanswered
//! requests and leave in bursts, yet every frame still reaches the server
//! without the caller touching its reply.
//!
//! Bulks here close only by size (or an explicit `flush`), never by the
//! deadline, so what the server has seen at each step is fixed by the test's
//! own actions. Bounded waits are failure timeouts only.

use gputx_client::{Client, TxnResult};
use gputx_core::config::StrategyChoice;
use gputx_core::{EngineBuilder, PipelineConfig, PipelinedGpuTx};
use gputx_server::{socket_pair, Duplex, Server, RESPONSE_QUEUE_DEPTH, WRITE_BUFFER_FRAMES};
use gputx_storage::{Database, Value};
use gputx_txn::TxnTypeId;
use gputx_workloads::{Tm1Config, WorkloadBundle};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BULK: usize = 256;
const WAIT: Duration = Duration::from_secs(10);

fn tm1() -> WorkloadBundle {
    let mut bundle = Tm1Config { scale_factor: 1 }.build();
    bundle.reseed(0xC0A1);
    bundle
}

/// Bulks close at `BULK` transactions or on `flush`; the deadline never
/// fires.
fn engine_for(bundle: &WorkloadBundle) -> PipelinedGpuTx {
    EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_pipeline(
            PipelineConfig::default()
                .with_max_bulk_size(BULK)
                .with_max_wait_us(60_000_000),
        )
        .build_pipelined()
}

/// Fail unless the server has parsed `n` requests within [`WAIT`].
fn await_requests(server: &Server, n: u64) {
    let deadline = Instant::now() + WAIT;
    while server.stats().requests < n {
        assert!(
            Instant::now() < deadline,
            "server saw {} of {n} requests",
            server.stats().requests
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.stats().requests, n);
}

#[test]
fn lone_submit_reaches_the_server_without_touching_its_reply() {
    let mut bundle = tm1();
    let stream = bundle.generate(1);
    let engine = engine_for(&bundle);
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");

    let (ty, params) = &stream[0];
    let reply = client.submit(*ty, params.clone()).expect("submit");
    // Nothing else is unanswered, so no answer would ever flush it: it is
    // written straight through.
    await_requests(&server, 1);
    assert_eq!(client.flushes(), 1);

    engine.flush().expect("close the bulk");
    assert!(matches!(
        reply.wait(),
        Ok(TxnResult::Committed(0)) | Ok(TxnResult::Aborted(0))
    ));
    drop(client);
    server.stop();
    engine.finish().expect("clean finish");
}

#[test]
fn submit_behind_an_unanswered_one_leaves_with_the_first_answer() {
    let mut bundle = tm1();
    let stream = bundle.generate(2);
    let engine = engine_for(&bundle);
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");

    let first = client
        .submit(stream[0].0, stream[0].1.clone())
        .expect("first");
    await_requests(&server, 1);
    let second = client
        .submit(stream[1].0, stream[1].1.clone())
        .expect("second");
    // The first is unanswered (its bulk is open), so the second waits in
    // the buffer: no transport write has carried it.
    assert_eq!(client.flushes(), 1, "the second frame is buffered");
    assert_eq!(server.stats().requests, 1);

    // Answer the first. Its response reaching the client reader is the
    // only thing that can flush the second: neither reply is touched.
    engine.flush().expect("close the first bulk");
    await_requests(&server, 2);

    engine.flush().expect("close the second bulk");
    for (reply, id) in [(&first, 0), (&second, 1)] {
        match reply.wait().expect("resolves") {
            TxnResult::Committed(got) | TxnResult::Aborted(got) => assert_eq!(got, id),
            other => panic!("unexpected {other:?}"),
        }
    }
    drop(client);
    server.stop();
    engine.finish().expect("clean finish");
}

/// A socket end that counts the transport writes made through it (and all
/// its clones).
struct CountingDuplex {
    inner: UnixStream,
    writes: Arc<AtomicU64>,
}

impl Read for CountingDuplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for CountingDuplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Duplex for CountingDuplex {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Duplex>> {
        Ok(Box::new(CountingDuplex {
            inner: self.inner.try_clone()?,
            writes: Arc::clone(&self.writes),
        }))
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        self.inner.shutdown(std::net::Shutdown::Both)
    }
}

fn counting(inner: UnixStream) -> (CountingDuplex, Arc<AtomicU64>) {
    let writes = Arc::new(AtomicU64::new(0));
    let end = CountingDuplex {
        inner,
        writes: Arc::clone(&writes),
    };
    (end, writes)
}

/// Final state and `(txn_id, committed)` per transaction.
type Run = (Database, Vec<(u64, bool)>);

fn in_process_run(bundle: &WorkloadBundle, stream: &[(TxnTypeId, Vec<Value>)]) -> Run {
    let engine = engine_for(bundle);
    let tickets: Vec<_> = stream
        .iter()
        .map(|(ty, params)| engine.submit(*ty, params.clone()).expect("submit"))
        .collect();
    let outcomes = tickets
        .iter()
        .map(|t| {
            let (id, outcome) = t.wait().expect("pipeline stays healthy");
            (id, outcome.is_committed())
        })
        .collect();
    let (db, _stats) = engine.finish().expect("clean finish");
    (db, outcomes)
}

#[test]
fn pipelined_submits_coalesce_into_few_writes_on_both_ends() {
    const N: usize = 2 * BULK;
    let mut bundle = tm1();
    let stream = bundle.generate(N);
    let (db_ref, out_ref) = in_process_run(&bundle, &stream);

    let engine = engine_for(&bundle);
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    let (server_end, server_writes) = counting(server_end);
    let (client_end, client_writes) = counting(client_end);
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    let replies: Vec<_> = stream
        .iter()
        .map(|(ty, params)| client.submit(*ty, params.clone()).expect("submit"))
        .collect();
    let out_wire: Vec<(u64, bool)> = replies
        .iter()
        .map(|r| match r.wait().expect("reply resolves") {
            TxnResult::Committed(id) => (id, true),
            TxnResult::Aborted(id) => (id, false),
            other => panic!("unexpected wire resolution {other:?}"),
        })
        .collect();
    drop(client);
    server.stop();
    let stats = server.stats();
    let (db_wire, _) = engine.finish().expect("clean finish");

    assert_eq!(out_wire, out_ref, "per-transaction outcomes must match");
    assert!(db_wire == db_ref, "final states must be bit-identical");
    assert_eq!((stats.requests, stats.responses), (N as u64, N as u64));
    let (sent, answered) = (
        client_writes.load(Ordering::Relaxed),
        server_writes.load(Ordering::Relaxed),
    );
    assert!(
        sent * 10 < N as u64,
        "{sent} client writes for {N} request frames"
    );
    assert!(
        answered * 10 < N as u64,
        "{answered} server writes for {N} response frames"
    );
    assert!(stats.response_flushes <= answered);
}

/// Far more requests in flight than the server's response queue holds:
/// the client reader withholds its flushes past that depth (a blocking
/// write there could wait on a server that waits on the reader), full
/// buffers flush themselves, and every reply still resolves exactly as
/// in process.
#[test]
fn flood_past_the_response_queue_resolves_like_in_process() {
    let n = 8 * RESPONSE_QUEUE_DEPTH;
    assert_eq!(n % BULK, 0, "bulks close by size only");
    let mut bundle = tm1();
    let stream = bundle.generate(n);
    let (db_ref, out_ref) = in_process_run(&bundle, &stream);

    let engine = engine_for(&bundle);
    let server = Server::new(engine.handle());
    let (server_end, client_end) = socket_pair().expect("socketpair");
    server.attach(server_end).expect("attach");
    let client = Client::from_duplex(client_end).expect("client");
    let replies: Vec<_> = stream
        .iter()
        .map(|(ty, params)| client.submit(*ty, params.clone()).expect("submit"))
        .collect();
    let out_wire: Vec<(u64, bool)> = replies
        .iter()
        .map(|r| match r.wait().expect("reply resolves") {
            TxnResult::Committed(id) => (id, true),
            TxnResult::Aborted(id) => (id, false),
            other => panic!("unexpected wire resolution {other:?}"),
        })
        .collect();
    assert!(client.flushes() >= (n / WRITE_BUFFER_FRAMES) as u64);
    drop(client);
    server.stop();
    let (db_wire, _) = engine.finish().expect("clean finish");
    assert_eq!(out_wire, out_ref, "per-transaction outcomes must match");
    assert!(db_wire == db_ref, "final states must be bit-identical");
}
