//! The commit chain's publish contract, end to end through the streaming
//! engine.
//!
//! The pipelined engine makes a bulk durable in its execution stage (WAL
//! append and fsync), resolves the bulk's tickets in its commit stage, and
//! only then publishes the bulk's record to the replication hub and the
//! analytics session. These tests pin what that ordering promises:
//!
//! * **`flush` is the publish barrier** — after it returns, the hub and the
//!   session both cover every bulk before it.
//! * **Numbering has no gaps** — engines whose only consumer is a hub, or
//!   only a session, number their records 0, 1, 2, … under sustained load.
//! * **One mirror** — with both consumers, the hub's mirror *is* the
//!   session's, and it equals the serial replay of the logged records.
//! * **Failures stay contained** — a bulk whose WAL append fails for good
//!   publishes nothing; a panic inside publish leaves resolved tickets
//!   committed, never hangs a later flush, and shows up on `Health`.

use gputx_core::{EngineBuilder, StrategyChoice};
use gputx_durability::BulkLogRecord;
use gputx_exec::{PipelineError, Ticket};
use gputx_faults::{FaultPlan, HealPolicy, WalState};
use gputx_storage::{Database, ShardDelta};
use gputx_txn::TxnSignature;
use gputx_workloads::{MicroConfig, MicroWorkload, WorkloadBundle};
use std::path::PathBuf;

fn micro(seed: u64) -> WorkloadBundle {
    let mut bundle = MicroWorkload::build(
        &MicroConfig::default()
            .with_tuples(256)
            .with_types(4)
            .with_skew(0.3),
    );
    bundle.reseed(seed);
    bundle
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gputx-commit-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit_all(engine: &gputx_core::PipelinedGpuTx, sigs: &[TxnSignature]) -> Vec<Ticket> {
    sigs.iter()
        .map(|sig| engine.submit(sig.ty, sig.params.clone()).unwrap())
        .collect()
}

fn replay(seed: &Database, records: &[BulkLogRecord]) -> Database {
    let mut db = seed.clone();
    for record in records {
        record.clone().replay_into(&mut db);
    }
    db
}

#[test]
fn flush_returns_after_hub_and_session_cover_the_flushed_bulk() {
    const ROUNDS: u64 = 6;
    const PER_ROUND: usize = 40;
    let mut bundle = micro(0xF1);
    let sigs = bundle.generate_signatures(ROUNDS as usize * PER_ROUND, 0);
    let dir = scratch_dir("flush");
    // One bulk per flush: no size close, no timer close.
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(1_000_000)
        .with_max_wait_us(60_000_000)
        .with_durability(&dir)
        .replicate()
        .analytics();
    let hub = builder.hub().unwrap();
    let session = builder.analytics_session().unwrap();
    let engine = builder.build_pipelined();
    for (round, chunk) in (1..=ROUNDS).zip(sigs.chunks(PER_ROUND)) {
        let tickets = submit_all(&engine, chunk);
        engine.flush().unwrap();
        assert!(tickets.iter().all(|t| matches!(t.try_get(), Some(Ok(_)))));
        assert_eq!(hub.next_lsn(), round, "hub covers flushed bulk {round}");
        assert_eq!(
            session.records_applied(),
            round,
            "session covers flushed bulk {round}"
        );
    }
    let (final_db, stats) = engine.finish().unwrap();
    assert_eq!(stats.bulks(), ROUNDS);
    assert!(hub.mirror_db() == final_db);
    hub.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sustained load with small, timer-closed bulks and no WAL: the chain's
/// own counter numbers the records, so the hub (which asserts continuity)
/// and the session see 0, 1, 2, … with no gap and no publish failure.
#[test]
fn hub_only_and_session_only_engines_number_records_without_gaps() {
    for (hub_only, seed) in [(true, 0xA1), (false, 0xA2)] {
        let mut bundle = micro(seed);
        let sigs = bundle.generate_signatures(6_000, 0);
        let mut builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
            .with_strategy(StrategyChoice::ForceKset)
            .with_max_bulk_size(32)
            .with_max_wait_us(200);
        builder = if hub_only {
            builder.replicate()
        } else {
            builder
                .analytics_with(gputx_analytics::AnalyticsConfig::default().with_retained_records())
        };
        let hub = builder.hub();
        let session = builder.analytics_session();
        let health = builder.health();
        let engine = builder.build_pipelined();
        let tickets = submit_all(&engine, &sigs);
        let (final_db, stats) = engine.finish().unwrap();
        assert!(tickets.iter().all(|t| t.wait().is_ok()));
        assert!(stats.bulks() > 10, "sustained load forms many bulks");
        assert_eq!(stats.publish_failures, 0);
        assert_eq!(health.report().publish_failures, 0);
        match (hub, session) {
            (Some(hub), None) => {
                assert_eq!(hub.next_lsn(), stats.bulks());
                assert_eq!(hub.stats().records_published, stats.bulks());
                assert!(hub.mirror_db() == final_db);
                hub.stop();
            }
            (None, Some(session)) => {
                let lsns: Vec<u64> = session.retained_records().iter().map(|r| r.lsn).collect();
                assert_eq!(lsns, (0..stats.bulks()).collect::<Vec<_>>());
                session.snapshot().check_against(&final_db).unwrap();
            }
            _ => unreachable!("exactly one consumer per engine"),
        }
    }
}

#[test]
fn shared_mirror_hub_equals_session_snapshot_and_serial_replay() {
    let mut bundle = micro(0x5E);
    let seed = bundle.db.clone();
    let sigs = bundle.generate_signatures(3_000, 0);
    let builder = EngineBuilder::new(seed.clone(), bundle.registry.clone())
        .adaptive()
        .with_max_bulk_size(64)
        .with_max_wait_us(500)
        .replicate()
        .analytics_with(gputx_analytics::AnalyticsConfig::default().with_retained_records());
    let hub = builder.hub().unwrap();
    let session = builder.analytics_session().unwrap();
    assert!(hub.mirror().same(session.mirror()), "one mirror for both");
    let engine = builder.build_pipelined();
    let tickets = submit_all(&engine, &sigs);
    let (final_db, stats) = engine.finish().unwrap();
    assert!(tickets.iter().all(|t| t.wait().is_ok()));

    let retained = session.retained_records();
    assert_eq!(retained.len() as u64, stats.bulks());
    assert_eq!(session.records_applied(), stats.bulks());
    let serial = replay(&seed, &retained);
    let mirror = hub.mirror_db();
    assert!(mirror == serial, "hub mirror == serial replay");
    assert!(mirror == final_db, "hub mirror == primary");
    let snap = session.snapshot();
    assert_eq!(snap.records_applied(), stats.bulks());
    snap.check_against(&mirror).unwrap();
    hub.stop();
}

#[test]
fn failed_wal_append_past_the_heal_budget_publishes_nothing() {
    let mut bundle = micro(0xBAD);
    let sigs = bundle.generate_signatures(60, 0);
    let dir = scratch_dir("nolog");
    // Every append fails; the one heal the budget allows absorbs the first
    // bulk into a checkpoint, after which appends fail for good.
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(1_000_000)
        .with_max_wait_us(60_000_000)
        .with_durability(&dir)
        .faults(FaultPlan {
            seed: 3,
            wal_append_error: 1.0,
            ..FaultPlan::disabled()
        })
        .heal_policy(HealPolicy {
            heal_budget: 1,
            writes_when_degraded: false,
        })
        .replicate()
        .analytics();
    let hub = builder.hub().unwrap();
    let session = builder.analytics_session().unwrap();
    let health = builder.health();
    let engine = builder.build_pipelined();
    let mut chunks = sigs.chunks(20);

    submit_all(&engine, chunks.next().unwrap());
    engine.flush().expect("the healed bulk is durable");
    assert_eq!(health.report().wal, WalState::Healed);
    assert_eq!((hub.next_lsn(), session.records_applied()), (1, 1));

    for chunk in chunks {
        let tickets = submit_all(&engine, chunk);
        assert!(matches!(engine.flush(), Err(PipelineError::BulkFailed(_))));
        for t in &tickets {
            assert!(matches!(t.wait(), Err(PipelineError::BulkFailed(_))));
        }
        assert_eq!(
            hub.next_lsn(),
            1,
            "an unlogged bulk never reaches followers"
        );
        assert_eq!(session.records_applied(), 1, "nor analytics");
    }
    let report = health.report();
    assert_eq!(report.wal, WalState::Degraded);
    assert_eq!(report.publish_failures, 0);
    drop(engine);
    hub.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_publish_keeps_tickets_committed_and_reports_on_health() {
    let mut bundle = micro(0x9A);
    let sigs = bundle.generate_signatures(90, 0);
    let builder = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
        .with_strategy(StrategyChoice::ForceKset)
        .with_max_bulk_size(1_000_000)
        .with_max_wait_us(60_000_000)
        .replicate();
    let hub = builder.hub().unwrap();
    let health = builder.health();
    let engine = builder.build_pipelined();
    let chunks: Vec<&[TxnSignature]> = sigs.chunks(30).collect();
    submit_all(&engine, chunks[0]);
    engine.flush().unwrap();
    assert_eq!(hub.next_lsn(), 1);
    // A stray record takes LSN 1, so the engine's publish of its own LSN 1
    // (the next bulk) fails the hub's continuity check and panics in the
    // commit stage; its LSN 2 (the bulk after) continues the hub's
    // sequence again.
    hub.publish(&BulkLogRecord {
        lsn: 1,
        write_set: ShardDelta::new(),
    });
    for (bulk, chunk) in chunks[1..].iter().enumerate() {
        let tickets = submit_all(&engine, chunk);
        engine
            .flush()
            .expect("a panicking publish never fails or hangs a flush");
        for t in &tickets {
            assert!(t.wait().is_ok(), "resolved before its publish");
        }
        assert_eq!(health.report().publish_failures, 1);
        assert_eq!(hub.next_lsn(), 2 + bulk as u64);
    }
    let (_, stats) = engine.finish().unwrap();
    assert_eq!(stats.publish_failures, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.committed + stats.aborted, sigs.len() as u64);
    hub.stop();
}
