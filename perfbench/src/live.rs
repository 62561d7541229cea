//! The untraced run: one workload against the real serving stack, driven by
//! a closed-loop load generator.
//!
//! One submitting thread keeps [`IN_FLIGHT`] requests outstanding and waits
//! for the oldest reply before it submits the next request, like an
//! application tier with a fixed pool of outstanding calls. A single
//! submitter makes admission order equal submission order, so transaction
//! `i` of the stream is engine transaction id `i` and every reply can be
//! checked against the serial replay.

use crate::oracle;
use gputx_analytics::{AnalyticsSession, AnalyticsStats};
use gputx_client::{Client, TxnResult};
use gputx_core::{DecisionStats, EngineBuilder, PipelinedGpuTx};
use gputx_exec::{PipelineStats, SubmitHandle, Ticket};
use gputx_replication::{PrimaryHub, PrimaryStats, Replica};
use gputx_server::{socket_pair, Server, ServerStats};
use gputx_storage::{Database, Value};
use gputx_txn::{ProcedureRegistry, TxnTypeId};
use gputx_workloads::{LedgerConfig, Tm1Config, TpccConfig, WorkloadBundle};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests the load generator keeps outstanding.
pub const IN_FLIGHT: usize = 512;
/// Untimed lead-in before the measurement window opens.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more while they have
/// taken less than [`SETUP_BUDGET`] in total, up to [`SETUP_MAX_REPS`];
/// `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 51;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// How often the load generator's sampler reads CPU steal.
const STEAL_SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// Longest wait for a follower or a stage to catch up after the run.
const CATCH_UP: Duration = Duration::from_secs(60);

/// A pre-drawn transaction stream.
pub type Stream = Vec<(TxnTypeId, Vec<Value>)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tm1Wire,
    TpccDurable,
    LedgerHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Tm1Wire,
        Workload::TpccDurable,
        Workload::LedgerHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tm1Wire => "tm1-wire",
            Workload::TpccDurable => "tpcc-durable",
            Workload::LedgerHot => "ledger-hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Populated database, procedures and generator. Deterministic: the
    /// oracle rebuilds the initial state with it after the run.
    pub fn build(self) -> WorkloadBundle {
        match self {
            Workload::Tm1Wire => Tm1Config::default().build(),
            Workload::TpccDurable => TpccConfig::default().with_warehouses(2).build(),
            Workload::LedgerHot => LedgerConfig::default().build(),
        }
    }

    /// An upper bound on the rate this workload can submit at, used to
    /// pre-draw a stream that never runs out: about 2.5x the rates measured
    /// on a 2-core x86-64 VM (80k, 37k and 140k submissions/s).
    fn stream_cap_tps(self) -> f64 {
        match self {
            Workload::Tm1Wire => 200_000.0,
            Workload::TpccDurable => 90_000.0,
            Workload::LedgerHot => 350_000.0,
        }
    }

    pub fn stream_len(self, seconds: u64) -> usize {
        (self.stream_cap_tps() * (WARMUP.as_secs_f64() + seconds as f64)) as usize
    }

    pub fn wire(self) -> bool {
        self == Workload::Tm1Wire
    }

    pub fn durable(self) -> bool {
        self == Workload::TpccDurable
    }

    pub fn adaptive(self) -> bool {
        self != Workload::Tm1Wire
    }
}

/// How one submitted request ended.
enum Reply {
    Done { id: u64, committed: bool },
    Failed(String),
}

/// The load generator's view of a front door.
trait Port {
    type Pending;
    fn submit(&mut self, ty: TxnTypeId, params: Vec<Value>) -> Result<Self::Pending, String>;
    fn wait(&mut self, pending: Self::Pending) -> Reply;
}

struct WirePort<'a>(&'a Client);

impl Port for WirePort<'_> {
    type Pending = gputx_client::Reply;
    fn submit(&mut self, ty: TxnTypeId, params: Vec<Value>) -> Result<Self::Pending, String> {
        self.0.submit(ty, params).map_err(|e| e.to_string())
    }
    fn wait(&mut self, pending: Self::Pending) -> Reply {
        match pending.wait() {
            Ok(TxnResult::Committed(id)) => Reply::Done {
                id,
                committed: true,
            },
            Ok(TxnResult::Aborted(id)) => Reply::Done {
                id,
                committed: false,
            },
            Ok(other) => Reply::Failed(format!("{other:?}")),
            Err(e) => Reply::Failed(e.to_string()),
        }
    }
}

struct LocalPort(SubmitHandle);

impl Port for LocalPort {
    type Pending = Ticket;
    fn submit(&mut self, ty: TxnTypeId, params: Vec<Value>) -> Result<Ticket, String> {
        self.0.submit(ty, params).map_err(|e| e.to_string())
    }
    fn wait(&mut self, pending: Ticket) -> Reply {
        match pending.wait() {
            Ok((id, outcome)) => Reply::Done {
                id,
                committed: outcome.is_committed(),
            },
            Err(e) => Reply::Failed(e.to_string()),
        }
    }
}

/// What the load generator observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per submitted transaction: the reply (`true` = committed), `None`
    /// when the request failed.
    pub replies: Vec<Option<bool>>,
    /// Per submitted transaction: every transaction below this index had
    /// been answered when it was submitted.
    pub visible_before: Vec<u64>,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub window_secs: f64,
    /// Commits whose reply arrived inside the window.
    pub committed_in_window: u64,
    /// NEW_ORDER commits whose reply arrived inside the window.
    pub new_orders_in_window: u64,
    /// Submit → reply latency (ms) of every reply inside the window, split
    /// by the second of the window the reply arrived in.
    pub latencies_by_second: Vec<Vec<f64>>,
    /// Share of CPU time stolen by the hypervisor in each second.
    pub steal_by_second: Vec<f64>,
    /// Calls to the front door's submit and the time spent inside them,
    /// when they were timed.
    pub submit_calls: u64,
    pub submit_ns: u64,
}

impl LoopResult {
    pub fn attempted(&self) -> u64 {
        self.replies.len() as u64
    }
}

/// The aggregate `cpu` line of `/proc/stat`: (steal, total) in clock ticks.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor stole in each second of the window,
/// from `(when, (steal, total))` samples.
fn steal_by_second(samples: &[(Instant, (u64, u64))], start: Instant, seconds: u64) -> Vec<f64> {
    (0..seconds)
        .map(|s| {
            let from = start + Duration::from_secs(s);
            let to = from + Duration::from_secs(1);
            let a = samples.iter().rev().find(|(t, _)| *t <= from);
            let b = samples.iter().find(|(t, _)| *t >= to);
            match (a, b) {
                (Some((_, (s0, t0))), Some((_, (s1, t1)))) if t1 > t0 => {
                    (s1 - s0) as f64 / (t1 - t0) as f64
                }
                _ => 0.0,
            }
        })
        .collect()
}

/// Drive the closed loop while a sampler thread records CPU steal.
fn closed_loop<P: Port>(
    port: &mut P,
    stream: &[(TxnTypeId, Vec<Value>)],
    measure: Duration,
    time_submits: bool,
    new_order: Option<TxnTypeId>,
) -> Result<LoopResult, String> {
    let start = Instant::now() + WARMUP;
    let stop = AtomicBool::new(false);
    let (result, samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Some(sample) = cpu_steal() {
                    samples.push((Instant::now(), sample));
                }
                std::thread::sleep(STEAL_SAMPLE_EVERY);
            }
            samples
        });
        let result = drive(port, stream, start, measure, time_submits, new_order);
        stop.store(true, Ordering::Relaxed);
        (
            result,
            sampler.join().expect("the steal sampler never panics"),
        )
    });
    let mut out = result?;
    out.steal_by_second = steal_by_second(&samples, start, measure.as_secs());
    Ok(out)
}

fn drive<P: Port>(
    port: &mut P,
    stream: &[(TxnTypeId, Vec<Value>)],
    start: Instant,
    measure: Duration,
    time_submits: bool,
    new_order: Option<TxnTypeId>,
) -> Result<LoopResult, String> {
    let mut out = LoopResult {
        window_secs: measure.as_secs_f64(),
        ..LoopResult::default()
    };
    let end = start + measure;
    let mut inflight: VecDeque<(usize, Instant, P::Pending)> = VecDeque::with_capacity(IN_FLIGHT);
    loop {
        if Instant::now() < end {
            while inflight.len() < IN_FLIGHT {
                let idx = out.replies.len();
                let Some((ty, params)) = stream.get(idx) else {
                    return Err(format!(
                        "the pre-drawn stream ({} transactions) ran out before the window closed",
                        stream.len()
                    ));
                };
                out.replies.push(None);
                // Everything older than the oldest request still in flight
                // has been answered.
                let oldest = inflight.front().map_or(idx, |(i, _, _)| *i);
                out.visible_before.push(oldest as u64);
                let sent = Instant::now();
                let submitted = port.submit(*ty, params.clone());
                if time_submits {
                    out.submit_calls += 1;
                    out.submit_ns += sent.elapsed().as_nanos() as u64;
                }
                match submitted {
                    Ok(pending) => inflight.push_back((idx, sent, pending)),
                    Err(e) => {
                        out.failed += 1;
                        out.first_failure.get_or_insert(e);
                    }
                }
            }
        }
        let Some((idx, sent, pending)) = inflight.pop_front() else {
            break;
        };
        let reply = port.wait(pending);
        let done = Instant::now();
        let in_window = done >= start && done < end;
        match reply {
            Reply::Done { id, committed } => {
                if id != idx as u64 {
                    return Err(format!(
                        "request {idx} was admitted as transaction {id}: admission order must equal submission order"
                    ));
                }
                out.replies[idx] = Some(committed);
                if in_window {
                    let ms = done.duration_since(sent).as_secs_f64() * 1e3;
                    let second = done.duration_since(start).as_secs() as usize;
                    if out.latencies_by_second.len() <= second {
                        out.latencies_by_second.resize(second + 1, Vec::new());
                    }
                    out.latencies_by_second[second].push(ms);
                    if committed {
                        out.committed_in_window += 1;
                        if Some(stream[idx].0) == new_order {
                            out.new_orders_in_window += 1;
                        }
                    }
                }
            }
            Reply::Failed(e) => {
                out.failed += 1;
                out.first_failure.get_or_insert(e);
            }
        }
    }
    for second in &mut out.latencies_by_second {
        second.sort_by(f64::total_cmp);
    }
    Ok(out)
}

/// Everything one set-up started.
struct Stack {
    bundle: WorkloadBundle,
    engine: PipelinedGpuTx,
    server: Option<Server>,
    client: Option<Client>,
    hub: Option<PrimaryHub>,
    replica: Option<Replica>,
    session: Option<AnalyticsSession>,
    wal_dir: Option<PathBuf>,
}

impl Stack {
    /// Database build, engine and server start, connect, and replica
    /// initial sync.
    fn start(workload: Workload, wal_dir: &Path) -> Result<Stack, String> {
        let mut bundle = workload.build();
        let db = std::mem::replace(&mut bundle.db, Database::column_store());
        let mut builder = EngineBuilder::new(db, bundle.registry.clone());
        if workload.adaptive() {
            builder = builder.adaptive();
        }
        let mut wal = None;
        if workload.durable() {
            if wal_dir.exists() {
                std::fs::remove_dir_all(wal_dir).map_err(|e| format!("clear WAL dir: {e}"))?;
            }
            builder = builder.with_durability(wal_dir).replicate().analytics();
            wal = Some(wal_dir.to_path_buf());
        }
        let hub = builder.hub();
        let session = builder.analytics_session();
        let engine = builder.build_pipelined();
        let replica = match hub.as_ref() {
            Some(hub) => {
                let (primary_end, follower_end) =
                    socket_pair().map_err(|e| format!("socket pair: {e}"))?;
                hub.attach(primary_end)
                    .map_err(|e| format!("attach follower: {e}"))?;
                let replica =
                    Replica::start(follower_end).map_err(|e| format!("start follower: {e}"))?;
                if !replica.wait_synced(CATCH_UP) {
                    return Err("the follower never finished its initial sync".into());
                }
                Some(replica)
            }
            None => None,
        };
        let (server, client) = if workload.wire() {
            let server = Server::new(engine.handle());
            let addr = server
                .listen("127.0.0.1:0")
                .map_err(|e| format!("listen on loopback: {e}"))?;
            let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            (Some(server), Some(client))
        } else {
            (None, None)
        };
        Ok(Stack {
            bundle,
            engine,
            server,
            client,
            hub,
            replica,
            session,
            wal_dir: wal,
        })
    }

    /// Stop everything a discarded set-up started.
    fn discard(self) {
        drop(self.client);
        if let Some(server) = self.server {
            server.stop();
        }
        let _ = self.engine.finish();
        if let Some(hub) = self.hub {
            hub.stop();
        }
        if let Some(mut replica) = self.replica {
            replica.stop();
        }
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Checks of the durable commit chain against the primary's final state.
#[derive(Debug, Default)]
pub struct DurableChecks {
    /// Rows inserted per logged bulk (the oracle's boundary pins).
    pub quotas: Vec<usize>,
    pub errors: Vec<String>,
}

/// The untraced run's observations.
pub struct Live {
    pub setup_secs: Vec<f64>,
    pub registry: ProcedureRegistry,
    /// The submitted prefix of the stream.
    pub stream: Stream,
    pub result: LoopResult,
    pub final_db: Database,
    pub pipeline: PipelineStats,
    pub decisions: Option<DecisionStats>,
    pub server: Option<ServerStats>,
    pub primary: Option<PrimaryStats>,
    pub analytics: Option<AnalyticsStats>,
    pub durable: Option<DurableChecks>,
    pub peak_rss_mb: f64,
    pub new_order: Option<TxnTypeId>,
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    time_submits: bool,
    work_dir: &Path,
) -> Result<Live, String> {
    let wal_dir = work_dir.join(format!("wal-{}", workload.name()));
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut stack = loop {
        let began = Instant::now();
        let started = Stack::start(workload, &wal_dir)?;
        setup_secs.push(began.elapsed().as_secs_f64());
        let spent: f64 = setup_secs.iter().sum();
        let more = setup_secs.len() < SETUP_MIN_REPS
            || (spent < SETUP_BUDGET.as_secs_f64() && setup_secs.len() < SETUP_MAX_REPS);
        if !more {
            break started;
        }
        started.discard();
    };
    stack.bundle.reseed(seed);
    let mut stream = stack.bundle.generate(workload.stream_len(seconds));
    let registry = stack.bundle.registry.clone();
    let new_order =
        (0..registry.num_types() as TxnTypeId).find(|&t| registry.get(t).name == "NEW_ORDER");
    let measure = Duration::from_secs(seconds);

    let mut server_stats = None;
    let result = match (stack.client.take(), stack.server.as_ref()) {
        (Some(mut client), Some(server)) => {
            let result = closed_loop(
                &mut WirePort(&client),
                &stream,
                measure,
                time_submits,
                new_order,
            );
            client.close();
            server_stats = Some(server.stats());
            server.stop();
            result
        }
        _ => closed_loop(
            &mut LocalPort(stack.engine.handle()),
            &stream,
            measure,
            time_submits,
            new_order,
        ),
    };
    let decisions = stack.engine.decision_stats();
    let finished = stack.engine.finish();
    let peak_rss_mb = peak_rss_mb();
    let result = result?;
    let (final_db, pipeline) = finished.map_err(|e| format!("engine finish: {e}"))?;
    stream.truncate(result.replies.len());
    stream.shrink_to_fit();

    let mut primary = None;
    let mut analytics = None;
    let mut durable = None;
    if let (Some(hub), Some(mut replica), Some(session), Some(dir)) = (
        stack.hub.take(),
        stack.replica.take(),
        stack.session.take(),
        stack.wal_dir.take(),
    ) {
        let mut checks = DurableChecks::default();
        let records = hub.next_lsn();
        if records != pipeline.bulks() {
            checks.errors.push(format!(
                "{records} records published for {} bulks",
                pipeline.bulks()
            ));
        }
        if !replica.wait_applied(records, CATCH_UP) {
            checks
                .errors
                .push(format!("the follower never applied all {records} records"));
        }
        match replica.snapshot_db() {
            Some(db) => {
                if let Err(e) = oracle::compare(&db, &final_db, "follower") {
                    checks.errors.push(e);
                }
            }
            None => checks.errors.push("the follower holds no state".into()),
        }
        primary = Some(hub.stats());
        analytics = Some(session.stats());
        hub.stop();
        replica.stop();
        match gputx_durability::recover(&dir) {
            Ok(recovery) => {
                if let Err(e) = oracle::compare(&recovery.db, &final_db, "recovery") {
                    checks.errors.push(e);
                }
            }
            Err(e) => checks.errors.push(format!("recover the WAL: {e}")),
        }
        match oracle::log_quotas(&dir) {
            Ok(q) => checks.quotas = q,
            Err(e) => checks.errors.push(format!("read the WAL: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        durable = Some(checks);
    }

    Ok(Live {
        setup_secs,
        registry,
        stream,
        result,
        final_db,
        pipeline,
        decisions,
        server: server_stats,
        primary,
        analytics,
        durable,
        peak_rss_mb,
        new_order,
    })
}
