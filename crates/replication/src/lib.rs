//! # gputx-replication — ship the WAL to followers
//!
//! PR 5 made every committed bulk a self-contained redo record
//! ([`BulkLogRecord`](gputx_durability::BulkLogRecord)) and PR 6 put a
//! CRC-framed wire in front of the engine. This crate composes them: the
//! bulk-granular WAL *is* a replication stream, so a follower that replays it
//! through the existing recovery machinery is a read-only replica for free.
//!
//! * [`PrimaryHub`] — the primary side. The engine's commit stage
//!   publishes each logged bulk's redo record into the hub once the bulk's
//!   tickets resolve; the hub applies it to a *mirror* database (the
//!   always-consistent snapshot source, kept off the execution path and
//!   shared with the engine's analytics session, if any) and fans the
//!   encoded record out to every
//!   subscribed follower through a **bounded** per-follower queue. A
//!   follower that leaves more than `queue_depth` records unacknowledged is
//!   *shed* — its session discards the queue and resyncs from a fresh
//!   snapshot — so a dead or lagging follower never blocks primary commits.
//! * [`Replica`] — the follower side. Subscribes over any
//!   [`Duplex`](gputx_server::Duplex) stream, bootstraps from a chunked
//!   `Database::encode_into` snapshot, then applies `LogRecord` frames
//!   through [`BulkLogRecord::replay_into`](gputx_durability::BulkLogRecord)
//!   — the same replay the crash-recovery path uses — exposing a read-only
//!   snapshot API, an applied-LSN watermark and replication-lag percentiles.
//! * [`Promotion`] — promotion on primary loss: a follower finishes draining
//!   its received prefix, bumps the replication epoch and hands its state to
//!   a new engine (see `EngineBuilder::from_promotion` in `gputx-core`).
//!   Epochs use the durability layer's token scheme
//!   ([`fresh_epoch`](gputx_durability::fresh_epoch)); a follower refuses
//!   snapshots and records from any epoch older than its own, which is what
//!   fences a stale primary out of a promoted group.
//!
//! LSNs are **epoch-scoped**, exactly as in crash recovery: a promoted
//! primary starts a new epoch and numbers its records from 0 again, and the
//! epoch mismatch forces every re-subscribing follower through a fresh
//! snapshot — a follower never replays records from a mismatched epoch.
//!
//! Stream format, fencing rules, the promotion protocol and lag semantics
//! are documented in `docs/replication.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod primary;
mod replica;
mod supervisor;

pub use primary::{PrimaryHub, PrimaryStats, ReplicationOptions};
pub use replica::{Promotion, Replica, ReplicaSeed, ReplicaStats};
pub use supervisor::{ReplicaSupervisor, SupervisorConfig, SupervisorStats};

/// Wall clock as nanoseconds since the Unix epoch (`0` if the clock is
/// before it). Stamped on every shipped record by the primary; the replica's
/// lag samples are the difference to its own clock at apply time.
pub(crate) fn unix_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Percentile over an unsorted sample set (nearest-rank), `0` when empty.
pub(crate) fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}
