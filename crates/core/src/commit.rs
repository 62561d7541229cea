//! The group-commit chain both engines share.
//!
//! Every bulk that committed with at least one log consumer attached becomes
//! one [`BulkLogRecord`], and the chain takes it through two halves:
//!
//! * **Log** ([`CommitChain::log`]) — assign the record its LSN, append it
//!   to the WAL (fsync per policy) and, when the append fails, heal or
//!   degrade. Once this returns the bulk is durable per policy, so its
//!   tickets may resolve. The log half owns the LSN counter: it is seeded
//!   once from whichever consumer exists and keeps counting after the WAL
//!   degrades, so hub and analytics numbering never depends on when they
//!   are published.
//! * **Publish** ([`Publisher::publish`]) — hand the record to the
//!   replication hub (which fans it out to followers) and to the analytics
//!   session, and refresh the replication figures on the health surface.
//!   Nothing durable waits on it: the pipelined engine runs it in its commit
//!   stage after the bulk's tickets resolve, the one-shot engine right after
//!   the log half. Because it always follows the append, a follower never
//!   holds a record the primary did not log.
//!
//! When the engine has both a hub and a session they share one
//! [`SharedMirror`](gputx_durability::SharedMirror) (see
//! `EngineBuilder`), so the record is replayed once, by value, through the
//! hub, and the session sees the replay through the mirror.

use crate::config::EngineConfig;
use gputx_analytics::AnalyticsSession;
use gputx_durability::{BulkLogRecord, Durability, WriteCapture};
use gputx_exec::ExecError;
use gputx_faults::{FaultInjector, HealPolicy, Health, WalState};
use gputx_replication::PrimaryHub;
use gputx_storage::Database;

/// Robustness knobs threaded from `EngineBuilder` into the engines: the
/// installed fault plane (if any), the WAL heal policy and the shared
/// health surface.
#[derive(Debug, Default, Clone)]
pub(crate) struct RobustnessParts {
    pub(crate) faults: Option<FaultInjector>,
    pub(crate) heal_policy: HealPolicy,
    pub(crate) health: Health,
}

/// The publish half: cheap to clone into a pipelined commit-stage job.
#[derive(Debug, Clone)]
pub(crate) struct Publisher {
    hub: Option<PrimaryHub>,
    analytics: Option<AnalyticsSession>,
    health: Health,
}

impl Publisher {
    /// Hand one logged record to the hub and the analytics session. Must be
    /// called in LSN order. A panic inside a consumer is counted on the
    /// health surface before it propagates.
    pub(crate) fn publish(&self, record: BulkLogRecord) {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.deliver(record)));
        if let Err(payload) = run {
            self.health.record_publish_failure();
            std::panic::resume_unwind(payload);
        }
    }

    fn deliver(&self, record: BulkLogRecord) {
        match (&self.hub, &self.analytics) {
            // A session next to a hub shares its mirror: the hub's replay
            // is the session's.
            (Some(hub), _) => {
                hub.publish_owned(record);
                let acks = hub.follower_acks();
                self.health.set_replication(
                    acks.len() as u64,
                    hub.next_lsn(),
                    acks.iter().copied().min().unwrap_or(0),
                );
            }
            (None, Some(session)) => session.publish_owned(record),
            (None, None) => {}
        }
    }
}

/// The log half plus the publisher. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct CommitChain {
    durability: Option<Durability>,
    next_lsn: u64,
    /// `heal_budget` counts down: the automatic heals still allowed.
    heal_policy: HealPolicy,
    publisher: Publisher,
}

impl CommitChain {
    /// Open the chain for an engine starting at `db`: create the WAL if the
    /// config names a directory (panicking if it cannot be initialized — an
    /// engine that silently dropped its durability guarantee would be worse
    /// than one that refuses to start), install the fault plane, and seed
    /// the LSN counter.
    pub(crate) fn new(
        config: &EngineConfig,
        db: &Database,
        hub: Option<PrimaryHub>,
        analytics: Option<AnalyticsSession>,
        robustness: RobustnessParts,
    ) -> Self {
        if let (Some(hub), Some(session)) = (&hub, &analytics) {
            assert!(
                hub.mirror().same(session.mirror()),
                "a hub and a session on one engine must share their mirror"
            );
        }
        let RobustnessParts {
            faults,
            heal_policy,
            health,
        } = robustness;
        let mut durability = Durability::from_config(&config.durability, db)
            .unwrap_or_else(|e| panic!("cannot initialize durability: {e}"));
        if let Some(injector) = faults.as_ref() {
            if let Some(d) = durability.as_mut() {
                d.set_faults(injector);
            }
            health.attach_injector(injector.clone());
        }
        health.set_wal(if durability.is_some() {
            WalState::Healthy
        } else {
            WalState::Disabled
        });
        // A fresh WAL numbers records from 0; a hub that already shipped
        // records restarts its stream (new epoch, followers resync) so both
        // keep numbering the same records identically.
        if durability.is_some() {
            if let Some(hub) = hub.as_ref().filter(|h| h.next_lsn() != 0) {
                hub.rotate_epoch();
            }
        }
        let next_lsn = match (&durability, &hub, &analytics) {
            (Some(d), _, _) => d.next_lsn(),
            (None, Some(hub), _) => hub.next_lsn(),
            (None, None, Some(session)) => session.next_lsn(),
            (None, None, None) => 0,
        };
        CommitChain {
            durability,
            next_lsn,
            heal_policy,
            publisher: Publisher {
                hub,
                analytics,
                health,
            },
        }
    }

    /// True when committed bulks feed at least one consumer, i.e. when the
    /// engine must capture each bulk's write-set.
    pub(crate) fn captures(&self) -> bool {
        self.durability.is_some()
            || self.publisher.hub.is_some()
            || self.publisher.analytics.is_some()
    }

    /// The publish half.
    pub(crate) fn publisher(&self) -> &Publisher {
        &self.publisher
    }

    /// The health surface the chain updates.
    pub(crate) fn health(&self) -> &Health {
        &self.publisher.health
    }

    /// The WAL manager, while durability is on (and not degraded away).
    pub(crate) fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Mutable [`durability`](Self::durability), for checkpoints.
    pub(crate) fn durability_mut(&mut self) -> Option<&mut Durability> {
        self.durability.as_mut()
    }

    /// Take the chain apart into its consumers and robustness parts (the
    /// heal policy with the budget still left), closing the WAL writer.
    pub(crate) fn into_parts(
        self,
    ) -> (
        Option<PrimaryHub>,
        Option<AnalyticsSession>,
        HealPolicy,
        Health,
    ) {
        let Publisher {
            hub,
            analytics,
            health,
        } = self.publisher;
        (hub, analytics, self.heal_policy, health)
    }

    /// The log half: read the committed bulk's write-set out of `db`, give
    /// it the next LSN and append it to the WAL. On success the returned
    /// record is durable per policy and ready to publish. On failure
    /// nothing is logged, the LSN is not consumed, and the record must not
    /// be published.
    pub(crate) fn log(
        &mut self,
        capture: WriteCapture,
        db: &mut Database,
    ) -> Result<BulkLogRecord, ExecError> {
        let record = BulkLogRecord {
            lsn: self.next_lsn,
            write_set: capture.finish(db),
        };
        if let Some(durability) = self.durability.as_mut() {
            if let Err(e) = durability.append_record(&record) {
                self.heal_or_degrade(db, &e)?;
            }
        }
        self.next_lsn += 1;
        Ok(record)
    }

    /// Supervised recovery from a failed redo-record append. The failing
    /// bulk's effects are already applied to the live database, so a fresh
    /// checkpoint absorbs them: [`Durability::heal`] snapshots the full
    /// state under a fresh log epoch and advances the LSN past the record
    /// that never landed — after which this bulk is durable (via the
    /// snapshot) and the writer is clean again. Each heal consumes one unit
    /// of the bounded [`HealPolicy::heal_budget`]; once it is spent (or
    /// healing itself keeps failing) the engine degrades visibly instead of
    /// panicking: reads are always served, and writes either continue
    /// unlogged ([`HealPolicy::writes_when_degraded`] — durability is
    /// dropped, the health surface reports `Degraded`) or keep failing with
    /// the poisoned writer's error so no caller is ever told "durable" for
    /// work the log cannot reproduce.
    fn heal_or_degrade(&mut self, db: &Database, cause: &std::io::Error) -> Result<(), ExecError> {
        let durability = self
            .durability
            .as_mut()
            .expect("heal_or_degrade is only reached with durability configured");
        let health = &self.publisher.health;
        while self.heal_policy.heal_budget > 0 {
            self.heal_policy.heal_budget -= 1;
            if durability.heal(db, 1).is_ok() {
                health.record_heal();
                return Ok(());
            }
        }
        health.set_wal(WalState::Degraded);
        if self.heal_policy.writes_when_degraded {
            // The log is superseded; drop it and serve on, unlogged. The
            // chain's LSN counter keeps numbering for the hub and analytics.
            self.durability = None;
            Ok(())
        } else {
            Err(ExecError::LogAppendFailed {
                message: format!("durability degraded (heal budget exhausted): {cause}"),
            })
        }
    }
}
