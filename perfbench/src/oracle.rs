//! The correctness oracle: a serial timestamp-order replay of exactly the
//! submitted prefix (the paper's Definition 1).
//!
//! Within a bulk the engine's result equals serial execution in id order,
//! except that buffered inserts become visible only when the bulk ends. The
//! replay therefore needs the engine's bulk boundaries, which depend on
//! timing and are not reported per transaction. It infers them from what
//! the run does reveal ([`Boundaries`]):
//!
//! * A boundary only matters while inserts are pending, so with none pending
//!   each transaction simply runs in place.
//! * When the engine logged its bulks, each redo record's inserted-row count
//!   pins where a bulk can end: a bulk cannot end before it has inserted its
//!   record's rows, and a transaction that inserts once they are all in
//!   starts the next bulk.
//! * Otherwise the load generator's reply order bounds them: a transaction
//!   submitted after another's reply arrived sits in a later bulk, so that
//!   one's inserts are visible to it.
//! * Where that leaves a choice, the transaction is first tried on a write
//!   overlay with the pending rows still invisible (same bulk). If that
//!   reproduces the engine's reply the bulk continues; otherwise a boundary
//!   is placed before it (the pending rows are applied) and it runs again.
//!
//! Every transaction's replayed outcome must equal the engine's reply, and
//! the caller compares the replayed state with the engine's final state, so
//! an inferred boundary can never hide a wrong result.

use gputx_storage::{Database, ShardDelta, ShardView, Value};
use gputx_txn::{ProcedureRegistry, TxnSignature, TxnTypeId};
use std::collections::VecDeque;

/// What a run reveals about where the engine's bulks ended.
#[derive(Debug, Clone, Copy)]
pub enum Boundaries<'a> {
    /// Rows inserted by each logged bulk, in log order.
    Logged(&'a [usize]),
    /// Per transaction: every transaction below this index had replied
    /// before it was submitted, and so sat in an earlier bulk.
    Replied(&'a [u64]),
}

/// Rows one transaction left in one table's insert buffer.
#[derive(Debug, Clone, Copy)]
struct PendingRows {
    txn: u64,
    table: u32,
    rows: usize,
}

fn buffered_per_table(db: &Database) -> Vec<usize> {
    (0..db.num_tables())
        .map(|t| db.table(t as u32).pending_inserts())
        .collect()
}

/// Apply the pending inserts of transactions below `keep_from` and leave
/// the newer ones buffered under their own tags.
fn apply_before(db: &mut Database, pending: &mut Vec<PendingRows>, keep_from: u64) {
    let kept = pending.split_off(pending.partition_point(|p| p.txn < keep_from));
    // The kept rows are the newest: the tail of each table's buffer.
    let mut rows: Vec<Vec<Vec<Value>>> = kept
        .iter()
        .rev()
        .map(|p| {
            let mut r: Vec<_> = (0..p.rows)
                .map(|_| {
                    db.table_mut(p.table)
                        .pop_last_buffered_insert()
                        .expect("pending rows are buffered")
                })
                .collect();
            r.reverse();
            r
        })
        .collect();
    rows.reverse();
    db.apply_insert_buffers();
    for (p, rows) in kept.iter().zip(rows) {
        for row in rows {
            db.table_mut(p.table).buffered_insert(p.txn, row);
        }
    }
    *pending = kept;
}

/// Replay `stream` serially from `db0` and check each transaction's outcome
/// against `committed` (the engine's reply: `true` = committed). Returns the
/// replayed state and the number of bulk boundaries placed while inserts
/// were pending, or a description of the first disagreement.
pub fn replay(
    db0: Database,
    registry: &ProcedureRegistry,
    stream: &[(TxnTypeId, Vec<Value>)],
    committed: &[bool],
    boundaries: Boundaries<'_>,
) -> Result<(Database, usize), String> {
    assert_eq!(stream.len(), committed.len(), "one reply per transaction");
    let mut placed = 0;
    let mut db = db0;
    let mut quotas: Option<VecDeque<usize>> = match boundaries {
        Boundaries::Logged(q) => Some(q.iter().copied().filter(|&n| n > 0).collect()),
        Boundaries::Replied(_) => None,
    };
    let mut pending: Vec<PendingRows> = Vec::new();
    for (i, (ty, params)) in stream.iter().enumerate() {
        let sig = TxnSignature::new(i as u64, *ty, params.clone());
        if let Boundaries::Replied(visible_before) = boundaries {
            if pending.first().is_some_and(|p| p.txn < visible_before[i]) {
                apply_before(&mut db, &mut pending, visible_before[i]);
                placed += 1;
            }
        }
        let rows: usize = pending.iter().map(|p| p.rows).sum();
        let quota = quotas.as_ref().map(|q| q.front().copied().unwrap_or(0));
        if rows > 0 && quota.is_none_or(|q| rows >= q) {
            let mut delta = ShardDelta::new();
            let (_, trial, _) = registry.execute(&sig, &mut ShardView::new(&db, &mut delta));
            let starts_next_bulk = quota.is_some() && delta.num_buffered_inserts() > 0;
            if starts_next_bulk || trial.is_committed() != committed[i] {
                db.apply_insert_buffers();
                pending.clear();
                placed += 1;
                if let Some(q) = quotas.as_mut() {
                    q.pop_front();
                }
            }
        }
        let before = buffered_per_table(&db);
        let (_, outcome, _) = registry.execute(&sig, &mut db);
        if outcome.is_committed() != committed[i] {
            return Err(format!(
                "transaction {i} (type {}): the serial replay {} it, the engine replied {}",
                registry.get(*ty).name,
                if outcome.is_committed() {
                    "commits"
                } else {
                    "aborts"
                },
                if committed[i] { "committed" } else { "aborted" },
            ));
        }
        for (table, (after, before)) in buffered_per_table(&db).into_iter().zip(before).enumerate()
        {
            if after > before {
                pending.push(PendingRows {
                    txn: i as u64,
                    table: table as u32,
                    rows: after - before,
                });
            }
        }
        if let Some(q) = quotas.as_ref() {
            let quota = q.front().copied().unwrap_or(0);
            let rows: usize = pending.iter().map(|p| p.rows).sum();
            if rows > quota {
                return Err(format!(
                    "transaction {i}: {rows} rows inserted in a bulk whose log record holds {quota}"
                ));
            }
        }
    }
    db.apply_insert_buffers();
    if let Some(q) = quotas.as_mut() {
        if !pending.is_empty() {
            q.pop_front();
        }
        if !q.is_empty() {
            return Err(format!(
                "{} logged bulks with inserts were never reproduced by the replay",
                q.len()
            ));
        }
    }
    Ok((db, placed))
}

/// Rows inserted by each bulk logged under durability directory `dir`, in
/// log order: the replay's boundary pins.
pub fn log_quotas(dir: &std::path::Path) -> std::io::Result<Vec<usize>> {
    let scan = gputx_durability::read_wal(dir.join(gputx_durability::manager::WAL_FILE))?;
    if scan.torn_tail {
        return Err(std::io::Error::other(
            "the WAL has a torn tail after a clean run",
        ));
    }
    Ok(scan
        .records
        .iter()
        .map(|r| r.write_set.num_buffered_inserts())
        .collect())
}

/// Compare the replayed state with the engine's, naming the first table
/// that differs.
pub fn compare(replayed: &Database, engine: &Database, what: &str) -> Result<(), String> {
    if replayed == engine {
        return Ok(());
    }
    for t in 0..replayed.num_tables().min(engine.num_tables()) {
        let (a, b) = (replayed.table(t as u32), engine.table(t as u32));
        if a != b {
            return Err(format!(
                "{what}: table `{}` differs from the serial replay ({} vs {} rows)",
                a.schema().name,
                b.num_rows(),
                a.num_rows()
            ));
        }
    }
    Err(format!(
        "{what}: indexes or catalog differ from the serial replay"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_core::EngineBuilder;
    use gputx_workloads::TpccConfig;

    /// A logged, pipelined TPC-C run with timer-closed bulks, and what the
    /// oracle is given about it.
    struct EngineRun {
        db0: Database,
        registry: ProcedureRegistry,
        stream: Vec<(TxnTypeId, Vec<Value>)>,
        replies: Vec<bool>,
        visible_before: Vec<u64>,
        quotas: Vec<usize>,
        final_db: Database,
    }

    /// Submits in waves of 64 and waits for each wave, so the bulk
    /// boundaries vary with timing inside a wave.
    fn engine_run() -> EngineRun {
        let mut bundle = TpccConfig::default().with_warehouses(1).build();
        bundle.reseed(11);
        let stream = bundle.generate(3_000);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("oracle-test-{}", std::process::id()));
        let engine = EngineBuilder::new(bundle.db.clone(), bundle.registry.clone())
            .adaptive()
            .with_durability(&dir)
            .with_max_wait_us(200)
            .build_pipelined();
        let handle = engine.handle();
        let mut replies = Vec::new();
        let mut visible_before = Vec::new();
        for wave in stream.chunks(64) {
            visible_before.extend(std::iter::repeat_n(replies.len() as u64, wave.len()));
            let tickets: Vec<_> = wave
                .iter()
                .map(|(ty, p)| handle.submit(*ty, p.clone()).expect("submit"))
                .collect();
            for t in tickets {
                let (_, outcome) = t.wait().expect("ticket resolves");
                replies.push(outcome.is_committed());
            }
        }
        drop(handle);
        let (final_db, _) = engine.finish().expect("engine finishes");
        let quotas = log_quotas(&dir).expect("read the WAL");
        std::fs::remove_dir_all(&dir).expect("remove the test WAL");
        EngineRun {
            db0: bundle.db,
            registry: bundle.registry,
            stream,
            replies,
            visible_before,
            quotas,
            final_db,
        }
    }

    #[test]
    fn accepts_the_engine_and_rejects_one_altered_field_or_flipped_reply() {
        let run = engine_run();
        // One flipped reply, on a NEW_ORDER: its outcome depends on its
        // parameters only, so no bulk boundary can explain the flip.
        let mut flipped = run.replies.clone();
        let i = (run.stream.len() / 2..run.stream.len())
            .find(|&i| run.stream[i].0 == gputx_workloads::tpcc::types::NEW_ORDER)
            .expect("the mix holds NEW_ORDERs");
        flipped[i] = !flipped[i];
        // One altered field in the engine's state.
        let mut altered = run.final_db.clone();
        let t = altered.table_id("warehouse").expect("warehouse table");
        let ytd = altered.table(t).get(0, 1).as_double();
        altered.table_mut(t).set(0, 1, &Value::Double(ytd + 1.0));

        for bounds in [
            Boundaries::Logged(&run.quotas),
            Boundaries::Replied(&run.visible_before),
        ] {
            let replay_with = |replies: &[bool]| {
                replay(run.db0.clone(), &run.registry, &run.stream, replies, bounds)
            };
            let (replayed, _) = replay_with(&run.replies).expect("the engine's replies replay");
            compare(&replayed, &run.final_db, "engine").expect("the replay matches the engine");
            assert!(
                compare(&replayed, &altered, "engine").is_err(),
                "an altered field must be rejected ({bounds:?})"
            );
            assert!(
                replay_with(&flipped).is_err(),
                "a flipped reply must be rejected ({bounds:?})"
            );
        }
    }
}
