//! The chunked copy-on-write snapshot store behind an analytics session.
//!
//! The store separates *update propagation* from *snapshot cutting*:
//!
//! 1. Update propagation is the [`SharedMirror`]'s replay: each committed
//!    [`BulkLogRecord`] is replayed into the mirror [`Database`] through the
//!    same [`replay_into`](BulkLogRecord::replay_into) path crash recovery
//!    and replication use, and the copy-on-write chunks its write-set
//!    touched are marked under the same lock. When the engine also
//!    replicates, the mirror is the replication hub's: one replay feeds
//!    both consumers.
//! 2. [`SnapshotStore::freeze`] (called by a scanner, off the commit path)
//!    first refreshes the chunk cache — rebuilding *only* chunks that are
//!    marked or extend past the previously frozen row count — then hands out
//!    a [`SnapshotHandle`] sharing every chunk by `Arc`. Cut cost is
//!    proportional to data churned since the last cut, not to database size.
//!
//! Insert handling needs no write-set introspection: `apply_insert_buffers`
//! only appends rows at the table tail, so every chunk past the previously
//! frozen row count is rebuilt anyway. Updates and deletes inside a bulk can
//! only target rows that existed before the bulk (buffered inserts have no
//! `RowId` until applied), so marking `row / chunk_rows` is always in range
//! of the next refresh.

use crate::snapshot::{ColChunk, FrozenTable, FrozenView, SnapshotHandle};
use gputx_durability::{BulkLogRecord, SharedMirror};
use gputx_storage::{DataType, Database, RowId, Table};
use std::sync::Arc;
use std::time::Instant;

/// Default rows per copy-on-write chunk (and per scan block).
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

/// Counters describing the work the store has done. Snapshot-cut cost is
/// what the HTAP experiment reports; the rebuild counter is what the unit
/// tests use to prove cuts are incremental.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// Committed bulk records folded into the mirror.
    pub records_applied: u64,
    /// Snapshots cut so far.
    pub snapshots: u64,
    /// Column/live chunks rebuilt across all refreshes.
    pub chunks_rebuilt: u64,
    /// Cumulative update-propagation time (mirror replay + chunk marking).
    pub apply_nanos: u64,
    /// Cumulative chunk-rebuild time across all snapshot cuts.
    pub refresh_nanos: u64,
    /// Refresh + freeze time of the most recent snapshot cut.
    pub last_cut_nanos: u64,
}

/// Chunked COW cache over a [`SharedMirror`]. Owned by
/// [`AnalyticsSession`](crate::session::AnalyticsSession) behind a mutex;
/// exposed for direct use in tests and single-threaded tools.
#[derive(Debug)]
pub struct SnapshotStore {
    chunk_rows: usize,
    mirror: SharedMirror,
    frozen: Vec<FrozenTable>,
    stats: StoreStats,
}

impl SnapshotStore {
    /// Build a store over a private mirror of a starting database state
    /// (bulk count zero).
    ///
    /// `retain_records` keeps a copy of every applied record so a verifier
    /// can replay the same committed prefix serially (see
    /// [`retained_records`](Self::retained_records)).
    pub fn new(seed: &Database, chunk_rows: usize, retain_records: bool) -> Self {
        Self::over(SharedMirror::new(seed), chunk_rows, retain_records)
    }

    /// Build a store over an existing mirror (typically one a replication
    /// hub replays into), turning on its chunk marking.
    pub fn over(mirror: SharedMirror, chunk_rows: usize, retain_records: bool) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        mirror.track_chunks(chunk_rows);
        if retain_records {
            mirror.retain_records();
        }
        // The chunk cache starts empty: the first cut builds every chunk,
        // so a session nobody scans holds no columnar copy of the data.
        SnapshotStore {
            chunk_rows,
            mirror,
            frozen: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Committed bulk records folded in so far.
    pub fn records_applied(&self) -> u64 {
        self.mirror.lock().records_applied()
    }

    /// The LSN the *next* published record is expected to carry, used when
    /// the analytics session is the engine's only log consumer.
    pub fn next_lsn(&self) -> u64 {
        self.mirror.lock().next_lsn()
    }

    /// Work counters.
    pub fn stats(&self) -> StoreStats {
        let m = self.mirror.lock();
        StoreStats {
            records_applied: m.records_applied(),
            apply_nanos: m.apply_nanos(),
            ..self.stats.clone()
        }
    }

    /// Copies of every record applied so far (requires `retain_records`).
    pub fn retained_records(&self) -> Vec<BulkLogRecord> {
        self.mirror
            .retained_records()
            .expect("retain_records not enabled on this store")
    }

    /// Fold one committed bulk record into the mirror and mark the chunks it
    /// dirtied. Must be called in commit order — the engine's group-commit
    /// point guarantees that.
    pub fn apply(&mut self, record: &BulkLogRecord) {
        self.mirror.apply(record.clone());
    }

    /// Cut a consistent snapshot of the current committed prefix: refresh
    /// dirty chunks, then freeze the cache into a [`SnapshotHandle`] of
    /// shared `Arc` chunks.
    pub fn freeze(&mut self) -> SnapshotHandle {
        let t0 = Instant::now();
        let (records_applied, last_lsn) = self.refresh();
        let handle = SnapshotHandle::new(FrozenView {
            tables: self.frozen.clone(),
            chunk_rows: self.chunk_rows,
            records_applied,
            last_lsn,
        });
        self.stats.snapshots += 1;
        self.stats.last_cut_nanos = t0.elapsed().as_nanos() as u64;
        handle
    }

    /// A full copy of the mirror database — the committed prefix in its
    /// native representation. Used by tests as a serial-replay reference.
    pub fn mirror_clone(&self) -> Database {
        self.mirror.lock().db().clone()
    }

    /// Rebuild exactly the chunks invalidated since the last refresh: chunks
    /// marked by the mirror's replay and chunks extending past the
    /// previously frozen row count (appended rows, including the old partial
    /// tail chunk). Runs under the mirror lock, so the data and its marks
    /// are read at the same record boundary; returns that boundary's
    /// `(records_applied, last_lsn)`.
    fn refresh(&mut self) -> (u64, Option<u64>) {
        let t0 = Instant::now();
        let mut guard = self.mirror.lock();
        let boundary = (guard.records_applied(), guard.last_lsn());
        let (db, marks) = guard.db_and_marks();
        let marks = marks.expect("the store turned chunk marking on");
        while self.frozen.len() < db.num_tables() {
            let tbl = db.table(self.frozen.len() as u32);
            self.frozen.push(FrozenTable {
                name: tbl.schema().name.clone(),
                rows: 0,
                cols: vec![Vec::new(); tbl.schema().num_columns()],
                live: Vec::new(),
            });
        }
        let mut rebuilt = 0u64;
        for t in 0..self.frozen.len() {
            let tbl = db.table(t as u32);
            let frozen = &mut self.frozen[t];
            let dirty = marks.table(t as u32);
            let rows = tbl.num_rows();
            if rows == frozen.rows && dirty.is_empty() {
                continue;
            }
            let nchunks = rows.div_ceil(self.chunk_rows);
            for (c, coldef) in tbl.schema().columns.iter().enumerate() {
                let old = &frozen.cols[c];
                let mut chunks = Vec::with_capacity(nchunks);
                for i in 0..nchunks {
                    let start = i * self.chunk_rows;
                    let end = rows.min(start + self.chunk_rows);
                    let clean = end <= frozen.rows
                        && i < old.len()
                        && !dirty.cells.contains(&(c as u32, i));
                    if clean {
                        chunks.push(old[i].clone());
                    } else {
                        rebuilt += 1;
                        chunks.push(Arc::new(build_chunk(tbl, coldef.data_type, c, start, end)));
                    }
                }
                frozen.cols[c] = chunks;
            }
            let mut live = Vec::with_capacity(nchunks);
            for i in 0..nchunks {
                let start = i * self.chunk_rows;
                let end = rows.min(start + self.chunk_rows);
                let clean = end <= frozen.rows && i < frozen.live.len() && !dirty.live.contains(&i);
                if clean {
                    live.push(frozen.live[i].clone());
                } else {
                    rebuilt += 1;
                    live.push(Arc::new(
                        (start..end).map(|r| !tbl.is_deleted(r as RowId)).collect(),
                    ));
                }
            }
            frozen.live = live;
            frozen.rows = rows;
            dirty.clear();
        }
        drop(guard);
        self.stats.chunks_rebuilt += rebuilt;
        self.stats.refresh_nanos += t0.elapsed().as_nanos() as u64;
        boundary
    }
}

fn build_chunk(tbl: &Table, ty: DataType, col: usize, start: usize, end: usize) -> ColChunk {
    match ty {
        DataType::Int => {
            ColChunk::Int((start..end).map(|r| tbl.get_i64(r as RowId, col)).collect())
        }
        DataType::Double => {
            ColChunk::Double((start..end).map(|r| tbl.get_f64(r as RowId, col)).collect())
        }
        DataType::Str => ColChunk::Other((start..end).map(|r| tbl.get(r as RowId, col)).collect()),
    }
}
