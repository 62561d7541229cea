//! The traced run: the untraced run's stream replayed through each layer's
//! public functions, in the order the pipeline stages call them — the
//! grouping stage (`GpuTxPlanner::plan`), then the execution stage
//! (`GpuTxRunner::run`), then the wire codec — on one thread, with a span
//! around every call. The program is not modified: the spans live here.
//!
//! Bulks are cut at the untraced run's mean bulk size. The replay opens its
//! own WAL directory, replication hub with an attached follower, and
//! analytics session when the workload's commit chain has them.

use crate::live::Workload;
use crate::trace::Tracer;
use gputx_analytics::AnalyticsSession;
use gputx_core::config::{EngineConfig, PipelineConfig, StrategyChoice};
use gputx_core::profiler::profile_bulk;
use gputx_core::{choose_strategy, AdaptiveConfig, AdaptiveSelector, StrategyKind};
use gputx_durability::{BulkLogRecord, Durability, DurabilityStats, FsyncPolicy, WriteCapture};
use gputx_exec::{run_txn_planned, ExecPolicy};
use gputx_replication::{PrimaryHub, Replica};
use gputx_server::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use gputx_server::socket_pair;
use gputx_storage::{Database, Value};
use gputx_txn::plan::{plan_kset_waves, plan_partition_groups, BulkPlan};
use gputx_txn::{
    AccessPlan, ProcedureRegistry, TxnId, TxnOutcome, TxnScratch, TxnSignature, TxnTypeId,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counts gathered where the work happens, next to the spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub txns: u64,
    pub bulks: u64,
    pub kset_bulks: u64,
    pub kset_waves: u64,
    pub access_entries: u64,
    pub stale_indexes: u64,
    pub plan_indexes: u64,
    pub rows_inserted: u64,
    /// Strategy choices of the replay, in the order kset, part, tpl.
    pub decisions: [u64; 3],
    pub switches: u64,
    /// Requests (and replies) passed through the wire codec.
    pub codec_calls: u64,
    pub durability: Option<DurabilityStats>,
}

pub struct ReplayOut {
    pub tracer: Tracer,
    pub counts: ReplayCounts,
    pub wall_secs: f64,
}

/// The commit-chain consumers of a durable workload.
struct Consumers {
    durability: Durability,
    hub: PrimaryHub,
    replica: Replica,
    session: AnalyticsSession,
}

/// A copy of `db` in which every index has been mutated once, so that
/// revalidating an access plan against it reports every index the plan uses.
fn all_indexes_bumped(db: &Database) -> Database {
    use gputx_storage::DataType;
    let mut probe = db.clone();
    for t in 0..probe.num_tables() as u32 {
        let row: Vec<Value> = probe
            .table(t)
            .schema()
            .columns
            .iter()
            .map(|c| match c.data_type {
                DataType::Int => Value::Int(i64::MIN),
                DataType::Double => Value::Double(f64::MIN),
                DataType::Str => Value::Str("\u{0}perfbench-probe".into()),
            })
            .collect();
        probe.insert_indexed(t, row);
    }
    probe
}

fn strategy_slot(kind: StrategyKind) -> usize {
    match kind {
        StrategyKind::Kset => 0,
        StrategyKind::Part => 1,
        StrategyKind::Tpl => 2,
    }
}

pub fn run(
    workload: Workload,
    db0: Database,
    registry: &ProcedureRegistry,
    stream: &[(TxnTypeId, Vec<Value>)],
    bulk_size: usize,
    work_dir: &Path,
) -> Result<ReplayOut, String> {
    let strategy = if workload.adaptive() {
        StrategyChoice::Adaptive
    } else {
        StrategyChoice::Auto
    };
    let config = EngineConfig::default().with_strategy(strategy);
    let pipeline = PipelineConfig::default();
    let mut selector = workload.adaptive().then(|| {
        AdaptiveSelector::new(
            &config,
            AdaptiveConfig {
                bulk_ceiling: pipeline.max_bulk_size,
                ..AdaptiveConfig::default()
            },
        )
    });
    let executor = pipeline.executor.build();
    let policy = ExecPolicy::functional();
    // The grouping stage plans against a snapshot frozen at start.
    let snapshot = db0.clone();
    let probe = all_indexes_bumped(&db0);
    let mut db = db0;

    let wal_dir = work_dir.join(format!("replay-wal-{}", workload.name()));
    let mut consumers = if workload.durable() {
        if wal_dir.exists() {
            std::fs::remove_dir_all(&wal_dir).map_err(|e| format!("clear WAL dir: {e}"))?;
        }
        let durability = Durability::create(&wal_dir, FsyncPolicy::PerBulk, &db)
            .map_err(|e| format!("create replay WAL: {e}"))?;
        let hub = PrimaryHub::new(&db);
        let (primary_end, follower_end) = socket_pair().map_err(|e| format!("socket pair: {e}"))?;
        hub.attach(primary_end)
            .map_err(|e| format!("attach follower: {e}"))?;
        let replica = Replica::start(follower_end).map_err(|e| format!("start follower: {e}"))?;
        if !replica.wait_synced(Duration::from_secs(60)) {
            return Err("the replay's follower never finished its initial sync".into());
        }
        Some(Consumers {
            durability,
            hub,
            replica,
            session: AnalyticsSession::new(&db),
        })
    } else {
        None
    };

    let mut tracer = Tracer::new();
    let mut counts = ReplayCounts::default();
    let mut last_strategy = None;
    let mut scratch = TxnScratch::default();
    let began = Instant::now();
    let bulk_size = bulk_size.max(1);
    for (k, chunk) in stream.chunks(bulk_size).enumerate() {
        let first = (k * bulk_size) as u64;
        let bulk: Vec<TxnSignature> = chunk
            .iter()
            .enumerate()
            .map(|(i, (ty, params))| TxnSignature::new(first + i as u64, *ty, params.clone()))
            .collect();
        tracer.set_bulk(k as u64);
        tracer.begin("replay.bulk");

        // Grouping stage.
        tracer.begin("replay.plan");
        let profile = tracer.leaf("core.profile", || profile_bulk(registry, &snapshot, &bulk));
        let kind = tracer.leaf("core.select", || match selector.as_mut() {
            Some(s) => s.decide(&profile).strategy,
            None => choose_strategy(&config, &profile),
        });
        let plan = tracer.leaf("txn.schedule", || match kind {
            StrategyKind::Kset => {
                let ops: Vec<_> = bulk
                    .iter()
                    .map(|sig| (sig.id, registry.read_write_set(sig, &snapshot)))
                    .collect();
                BulkPlan::ConflictFreeWaves(plan_kset_waves(&ops))
            }
            StrategyKind::Part => {
                let keys: Vec<(TxnId, Option<u64>)> = bulk
                    .iter()
                    .map(|sig| (sig.id, registry.partition_key(sig)))
                    .collect();
                plan_partition_groups(&keys, config.partition_size)
                    .map_or(BulkPlan::Serial, BulkPlan::DisjointGroups)
            }
            StrategyKind::Tpl => BulkPlan::Serial,
        });
        let mut access = tracer.leaf("txn.access_plan", || {
            Some(AccessPlan::build(registry, &snapshot, &bulk)).filter(|a| !a.is_empty())
        });
        tracer.end();
        counts.decisions[strategy_slot(kind)] += 1;
        counts.switches += u64::from(last_strategy.is_some_and(|l| l != kind));
        last_strategy = Some(kind);
        if let BulkPlan::ConflictFreeWaves(waves) = &plan {
            counts.kset_bulks += 1;
            counts.kset_waves += waves.len() as u64;
        }

        // Execution stage.
        tracer.begin("replay.run");
        if let Some(a) = access.as_mut() {
            counts.access_entries += a.num_entries() as u64;
            counts.plan_indexes += a.revalidate(&probe) as u64;
            counts.stale_indexes += tracer.leaf("txn.revalidate", || a.revalidate(&db)) as u64;
        }
        let capture = consumers
            .is_some()
            .then(|| tracer.leaf("durability.capture_begin", || WriteCapture::begin(&mut db)));
        let access = access.as_ref();
        let mut outcomes: Vec<(TxnId, TxnOutcome)> = Vec::with_capacity(bulk.len());
        tracer.begin("exec.run");
        match &plan {
            BulkPlan::ConflictFreeWaves(waves) => {
                let by_id: HashMap<TxnId, &TxnSignature> = bulk.iter().map(|s| (s.id, s)).collect();
                for wave in waves {
                    let sigs: Vec<&TxnSignature> = wave.iter().map(|id| by_id[id]).collect();
                    let done = executor
                        .run_conflict_free(&mut db, registry, &policy, &sigs, access)
                        .map_err(|e| format!("replay bulk {k}: {e}"))?;
                    outcomes.extend(done.into_iter().map(|t| (t.id, t.outcome)));
                }
            }
            BulkPlan::DisjointGroups(groups) => {
                let by_id: HashMap<TxnId, &TxnSignature> = bulk.iter().map(|s| (s.id, s)).collect();
                let refs: Vec<Vec<&TxnSignature>> = groups
                    .iter()
                    .map(|g| g.iter().map(|id| by_id[id]).collect())
                    .collect();
                let done = executor
                    .run_groups(&mut db, registry, &policy, &refs, access)
                    .map_err(|e| format!("replay bulk {k}: {e}"))?;
                outcomes.extend(done.into_iter().flatten().map(|t| (t.id, t.outcome)));
            }
            BulkPlan::Serial => {
                for sig in &bulk {
                    let t = run_txn_planned(&mut db, registry, &policy, sig, access, &mut scratch);
                    outcomes.push((t.id, t.outcome));
                }
            }
        }
        tracer.end();
        counts.rows_inserted += (0..db.num_tables())
            .map(|t| db.table(t as u32).pending_inserts() as u64)
            .sum::<u64>();
        tracer.leaf("storage.apply_inserts", || db.apply_insert_buffers());
        outcomes.sort_by_key(|(id, _)| *id);
        if let (Some(capture), Some(c)) = (capture, consumers.as_mut()) {
            let record = BulkLogRecord {
                lsn: c.durability.next_lsn(),
                write_set: tracer.leaf("durability.capture", || capture.finish(&mut db)),
            };
            tracer
                .leaf("durability.append", || c.durability.append_record(&record))
                .map_err(|e| format!("replay WAL append: {e}"))?;
            tracer.leaf("replication.publish", || c.hub.publish(&record));
            tracer.leaf("analytics.publish", || c.session.publish(&record));
        }
        tracer.end();

        // The wire codec: the bulk's requests as the client encodes them
        // and the server decodes them, then its replies as the server
        // encodes them and the client decodes them. One span per function
        // and bulk keeps the trace small; its self time over the bulk's
        // size is the time per call.
        if workload.wire() {
            tracer.begin("replay.wire");
            let requests: Vec<Request> = bulk
                .iter()
                .map(|sig| Request::Submit {
                    request_id: sig.id,
                    txn_type: sig.ty,
                    params: sig.params.clone(),
                    no_wait: false,
                })
                .collect();
            let frames: Vec<Vec<u8>> = tracer.leaf("client.encode_request", || {
                requests.iter().map(encode_request).collect()
            });
            tracer
                .leaf("server.decode_request", || {
                    frames
                        .iter()
                        .map(|f| decode_request(f))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| format!("decode request: {e:?}"))?;
            let responses: Vec<Response> = outcomes
                .iter()
                .map(|(id, outcome)| match outcome.is_committed() {
                    true => Response::Committed {
                        request_id: *id,
                        txn_id: *id,
                    },
                    false => Response::Aborted {
                        request_id: *id,
                        txn_id: *id,
                    },
                })
                .collect();
            let frames: Vec<Vec<u8>> = tracer.leaf("server.encode_response", || {
                responses.iter().map(encode_response).collect()
            });
            tracer
                .leaf("client.decode_response", || {
                    frames
                        .iter()
                        .map(|f| decode_response(f))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| format!("decode response: {e:?}"))?;
            tracer.end();
            counts.codec_calls += bulk.len() as u64;
        }
        tracer.end();
        counts.txns += bulk.len() as u64;
        counts.bulks += 1;
    }
    let wall_secs = began.elapsed().as_secs_f64();

    if let Some(mut c) = consumers {
        counts.durability = Some(c.durability.stats());
        c.hub.stop();
        c.replica.stop();
        drop(c.durability);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    Ok(ReplayOut {
        tracer,
        counts,
        wall_secs,
    })
}
