//! The primary's database replayed from its redo log, shared by the log's
//! in-memory consumers.
//!
//! The replication hub needs a consistent copy of the primary's state to cut
//! follower snapshots from, and the analytics session needs one to build scan
//! chunks from. Both are the same thing: the starting state with every
//! published [`BulkLogRecord`] replayed on top. A [`SharedMirror`] is that
//! copy under one lock, so an engine feeding both consumers replays each
//! record once and holds the data once.
//!
//! Everything a consumer must see atomically with the data lives under the
//! same lock:
//!
//! * the LSN numbering (`next_lsn`), so a snapshot cut for a follower names
//!   exactly the records it contains;
//! * the analytics chunk marks ([`ChunkMarks`]), recorded by the same replay
//!   that changes the data, so a snapshot cut never sees a changed chunk
//!   that is not marked dirty;
//! * the optional retained-record log analytics verifiers replay.

use crate::wal::BulkLogRecord;
use gputx_storage::shard::FxHashSet;
use gputx_storage::Database;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Chunks of one table changed by replays since its marks were last
/// cleared.
#[derive(Debug, Default)]
pub struct TableMarks {
    /// `(column, chunk)` pairs whose data chunk changed.
    pub cells: FxHashSet<(u32, usize)>,
    /// Chunks whose live (delete) flags changed.
    pub live: FxHashSet<usize>,
}

impl TableMarks {
    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.live.is_empty()
    }

    /// Forget every mark (keeps the sets' capacity).
    pub fn clear(&mut self) {
        self.cells.clear();
        self.live.clear();
    }
}

/// Per-table chunk marks at a fixed chunk size: which row chunks each replay
/// touched. Memory is bounded by the number of chunks, not by the number of
/// records replayed. Appended rows are not marked — they extend the table,
/// which a chunk cache detects from the row count.
#[derive(Debug)]
pub struct ChunkMarks {
    chunk_rows: usize,
    tables: Vec<TableMarks>,
}

impl ChunkMarks {
    fn new(chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        ChunkMarks {
            chunk_rows,
            tables: Vec::new(),
        }
    }

    /// The marks of `table` (created empty on first use).
    pub fn table(&mut self, table: u32) -> &mut TableMarks {
        let t = table as usize;
        if t >= self.tables.len() {
            self.tables.resize_with(t + 1, TableMarks::default);
        }
        &mut self.tables[t]
    }

    fn mark(&mut self, record: &BulkLogRecord) {
        let chunk_rows = self.chunk_rows;
        record.write_set.for_each_updated_field(|table, row, col| {
            self.table(table)
                .cells
                .insert((col, row as usize / chunk_rows));
        });
        record.write_set.for_each_delete_flag(|table, row, _live| {
            self.table(table).live.insert(row as usize / chunk_rows);
        });
    }
}

/// The state behind a [`SharedMirror`]'s lock.
#[derive(Debug)]
pub struct MirrorState {
    db: Database,
    next_lsn: u64,
    last_lsn: Option<u64>,
    records_applied: u64,
    apply_nanos: u64,
    marks: Option<ChunkMarks>,
    retained: Option<Vec<BulkLogRecord>>,
}

impl MirrorState {
    /// The mirrored database: the starting state plus every applied record.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// LSN the next record is expected to carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the most recently applied record.
    pub fn last_lsn(&self) -> Option<u64> {
        self.last_lsn
    }

    /// Records applied since the mirror was created (never renumbered).
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Cumulative replay time (chunk marking included), in nanoseconds.
    pub fn apply_nanos(&self) -> u64 {
        self.apply_nanos
    }

    /// The database together with the chunk marks, for a chunk cache that
    /// rebuilds from the one and clears the other. `None` marks when chunk
    /// tracking is off.
    pub fn db_and_marks(&mut self) -> (&Database, Option<&mut ChunkMarks>) {
        (&self.db, self.marks.as_mut())
    }

    /// Replay `record` by value: mark the chunks it touches, retain a copy
    /// if retention is on, then apply it. Numbering continues from the
    /// record's LSN.
    fn apply(&mut self, record: BulkLogRecord) {
        let t0 = Instant::now();
        if let Some(marks) = self.marks.as_mut() {
            marks.mark(&record);
        }
        if let Some(kept) = self.retained.as_mut() {
            kept.push(record.clone());
        }
        self.next_lsn = record.lsn + 1;
        self.last_lsn = Some(record.lsn);
        record.replay_into(&mut self.db);
        self.records_applied += 1;
        self.apply_nanos += t0.elapsed().as_nanos() as u64;
    }
}

struct Inner {
    state: Mutex<MirrorState>,
    applied: Condvar,
}

/// One replayed copy of the primary's database, cloneable and shared. See
/// the [module docs](self).
#[derive(Clone)]
pub struct SharedMirror {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SharedMirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.lock();
        f.debug_struct("SharedMirror")
            .field("next_lsn", &m.next_lsn)
            .field("records_applied", &m.records_applied)
            .finish()
    }
}

impl SharedMirror {
    /// A mirror starting at a copy of `seed`, expecting LSN 0 next.
    pub fn new(seed: &Database) -> Self {
        SharedMirror {
            inner: Arc::new(Inner {
                state: Mutex::new(MirrorState {
                    db: seed.clone(),
                    next_lsn: 0,
                    last_lsn: None,
                    records_applied: 0,
                    apply_nanos: 0,
                    marks: None,
                    retained: None,
                }),
                applied: Condvar::new(),
            }),
        }
    }

    /// Lock the mirror.
    pub fn lock(&self) -> MutexGuard<'_, MirrorState> {
        self.inner.state.lock().expect("mirror poisoned")
    }

    /// True when both handles name the same mirror.
    pub fn same(&self, other: &SharedMirror) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Replay `record` by value — mark the chunks it touches, retain a copy
    /// if retention is on, apply it — and wake
    /// [`wait_applied`](Self::wait_applied) callers. Numbering continues
    /// from the record's LSN.
    pub fn apply(&self, record: BulkLogRecord) {
        self.lock().apply(record);
        self.inner.applied.notify_all();
    }

    /// Replay `record` only if it carries the expected next LSN; otherwise
    /// leave the mirror untouched and return the LSN it expected.
    pub fn apply_next(&self, record: BulkLogRecord) -> Result<(), u64> {
        let mut m = self.lock();
        if record.lsn != m.next_lsn {
            return Err(m.next_lsn);
        }
        m.apply(record);
        drop(m);
        self.inner.applied.notify_all();
        Ok(())
    }

    /// Restart LSN numbering at 0 (a new replication epoch); the data is
    /// unchanged.
    pub fn restart_numbering(&self) {
        self.lock().next_lsn = 0;
    }

    /// Turn on chunk marking at `chunk_rows` rows per chunk. A mirror
    /// carries one chunk size; asking for another panics.
    pub fn track_chunks(&self, chunk_rows: usize) {
        let mut m = self.lock();
        match &m.marks {
            Some(marks) => assert_eq!(
                marks.chunk_rows, chunk_rows,
                "a mirror tracks one chunk size"
            ),
            None => m.marks = Some(ChunkMarks::new(chunk_rows)),
        }
    }

    /// Keep a copy of every record applied from now on (for verifiers; it
    /// grows without bound).
    pub fn retain_records(&self) {
        let mut m = self.lock();
        if m.retained.is_none() {
            m.retained = Some(Vec::new());
        }
    }

    /// Copies of the retained records; `None` unless retention is on.
    pub fn retained_records(&self) -> Option<Vec<BulkLogRecord>> {
        self.lock().retained.clone()
    }

    /// Block until at least `records` records have been applied. Returns
    /// `false` on timeout.
    pub fn wait_applied(&self, records: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut m = self.lock();
        while m.records_applied < records {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            m = self
                .inner
                .applied
                .wait_timeout(m, left)
                .expect("mirror poisoned")
                .0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WriteCapture;
    use gputx_storage::schema::{ColumnDef, TableSchema};
    use gputx_storage::{DataType, Value};

    fn setup() -> Database {
        let mut db = Database::column_store();
        let t = db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", DataType::Int)],
            vec![0],
        ));
        for i in 0..100 {
            db.table_mut(t).insert(vec![Value::Int(i)]);
        }
        db
    }

    fn record(db: &mut Database, lsn: u64, row: u64) -> BulkLogRecord {
        let capture = WriteCapture::begin(db);
        db.table_mut(0).set_i64(row, 0, -1);
        BulkLogRecord {
            lsn,
            write_set: capture.finish(db),
        }
    }

    #[test]
    fn apply_next_refuses_gaps_and_marks_chunks() {
        let mut db = setup();
        let mirror = SharedMirror::new(&db);
        mirror.track_chunks(16);
        let r0 = record(&mut db, 0, 40);
        let r1 = record(&mut db, 1, 3);
        assert_eq!(mirror.apply_next(r1.clone()), Err(0));
        mirror.apply_next(r0).unwrap();
        mirror.apply_next(r1).unwrap();
        let mut m = mirror.lock();
        assert_eq!((m.next_lsn(), m.records_applied()), (2, 2));
        assert!(*m.db() == db);
        let (_, marks) = m.db_and_marks();
        let marks = marks.expect("tracking is on").table(0);
        let mut cells: Vec<_> = marks.cells.iter().copied().collect();
        cells.sort_unstable();
        assert_eq!(cells, vec![(0, 0), (0, 2)]);
    }

    #[test]
    fn restart_keeps_data_and_count() {
        let mut db = setup();
        let mirror = SharedMirror::new(&db);
        mirror.apply(record(&mut db, 0, 1));
        mirror.restart_numbering();
        assert_eq!(mirror.lock().next_lsn(), 0);
        assert_eq!(mirror.lock().records_applied(), 1);
        mirror.apply_next(record(&mut db, 0, 2)).unwrap();
        assert!(*mirror.lock().db() == db);
        assert!(mirror.wait_applied(2, Duration::from_millis(1)));
        assert!(!mirror.wait_applied(3, Duration::from_millis(1)));
    }
}
