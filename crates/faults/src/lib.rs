//! Deterministic, seed-driven fault injection and health reporting.
//!
//! The suite's crash-window tests (torn WAL tails, chopped replication
//! streams, garbled frames) prove each layer *fails cleanly*; this crate
//! turns those failures into first-class, reproducible inputs so the stack
//! can prove it *recovers on its own*. A [`FaultPlan`] is a seeded schedule
//! of faults at the three I/O choke points:
//!
//! - **WAL** — append errors, short writes, fsync errors
//!   (consumed by `gputx-durability::WalWriter`),
//! - **wire** — frame drop / corrupt / delay and connection resets
//!   (consumed by the `ChaosDuplex` wrapper in `gputx-server`),
//! - **replication** — follower stall / kill, expressed as delay / reset
//!   on the follower's stream.
//!
//! Every decision is a pure function of the plan seed, the site label and a
//! per-site event counter — never the wall clock — so a chaos run injects
//! the same fault schedule every time it is replayed with the same seed.
//!
//! When no plan is installed the injection sites hold `None` and cost one
//! branch; nothing is scheduled, allocated or locked on the hot path.
//!
//! The crate also hosts the shared health surface ([`Health`] /
//! [`HealthReport`]) the engine exports and the server serves over the
//! wire `Health` request, plus the jittered-exponential [`BackoffPolicy`]
//! shared by the self-healing client and the replica supervisor.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// splitmix64: tiny, high-quality deterministic stream generator. One step
/// advances the state and returns a well-mixed 64-bit output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a site label, used to give each injection site an
/// independent deterministic stream derived from the plan seed.
fn site_hash(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Map one splitmix output to a uniform f64 in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded schedule of faults. All probabilities are per-event (per WAL
/// append, per wire read/write call) in `[0, 1]`; zero disables that fault.
///
/// Plans are plain data: two runs with the same plan observe the same fault
/// decisions at every site.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every per-site decision stream is derived.
    pub seed: u64,
    /// Probability a WAL append fails before any byte reaches the file.
    pub wal_append_error: f64,
    /// Probability a WAL append writes only a prefix of the frame and fails.
    pub wal_short_write: f64,
    /// Probability a WAL fsync fails (poisoning the writer).
    pub wal_fsync_error: f64,
    /// Probability an outgoing wire frame is silently dropped.
    pub frame_drop: f64,
    /// Probability a wire frame has one byte flipped in flight.
    pub frame_corrupt: f64,
    /// Probability a wire read/write is delayed by [`FaultPlan::delay`].
    pub frame_delay: f64,
    /// Duration of an injected frame delay.
    pub delay: Duration,
    /// Probability a wire read/write tears the connection down.
    pub conn_reset: f64,
    /// Probability a replication follower stalls for [`FaultPlan::stall`].
    pub follower_stall: f64,
    /// Duration of an injected follower stall.
    pub stall: Duration,
    /// Probability a replication follower's stream is killed outright.
    pub follower_kill: f64,
    /// Total injection budget across all sites; once spent the plan goes
    /// quiet so a storm always has a convergence phase. `u64::MAX` = no cap.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan with every fault disabled.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            wal_append_error: 0.0,
            wal_short_write: 0.0,
            wal_fsync_error: 0.0,
            frame_drop: 0.0,
            frame_corrupt: 0.0,
            frame_delay: 0.0,
            delay: Duration::from_millis(2),
            conn_reset: 0.0,
            follower_stall: 0.0,
            stall: Duration::from_millis(5),
            follower_kill: 0.0,
            max_faults: u64::MAX,
        }
    }

    /// A moderate "storm" preset used by the chaos suites: every fault class
    /// armed at a low per-event rate, derived entirely from `seed`.
    pub fn storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            wal_append_error: 0.02,
            wal_short_write: 0.01,
            wal_fsync_error: 0.01,
            frame_drop: 0.01,
            frame_corrupt: 0.01,
            frame_delay: 0.02,
            delay: Duration::from_millis(1),
            conn_reset: 0.005,
            follower_stall: 0.01,
            stall: Duration::from_millis(2),
            follower_kill: 0.005,
            max_faults: u64::MAX,
        }
    }

    /// Set the total injection budget (builder style).
    pub fn with_max_faults(mut self, max: u64) -> Self {
        self.max_faults = max;
        self
    }
}

/// A fault decision at a WAL injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFault {
    /// Fail the append before any byte reaches the file.
    AppendError,
    /// Write only a prefix of the frame, then fail.
    ShortWrite,
    /// Fail the fsync.
    FsyncError,
}

/// A fault decision at a wire injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Silently drop the outgoing bytes (reported as written).
    Drop,
    /// Flip one byte of the payload.
    Corrupt,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Tear the connection down with a reset error.
    Reset,
}

/// One injected fault, recorded for health reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Site label the fault fired at (e.g. `"wal"`, `"client-0"`).
    pub site: String,
    /// Fault kind (e.g. `"append-error"`, `"frame-drop"`).
    pub kind: &'static str,
    /// Global injection sequence number (1-based).
    pub seq: u64,
}

impl FaultEvent {
    /// Render as `site/kind#seq`, the form carried over the wire.
    pub fn describe(&self) -> String {
        format!("{}/{}#{}", self.site, self.kind, self.seq)
    }
}

/// State shared by every handle derived from one [`FaultInjector`].
#[derive(Debug)]
struct InjectorShared {
    armed: AtomicBool,
    injected: AtomicU64,
    last: Mutex<Option<FaultEvent>>,
}

/// The installed fault plane: cheap to clone, hands out per-site decision
/// streams. Sites that were never installed (the common case) carry no
/// injector at all and pay a single `Option` branch.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    shared: Arc<InjectorShared>,
}

impl FaultInjector {
    /// Install a plan, producing the injector threaded through the stack.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            shared: Arc::new(InjectorShared {
                armed: AtomicBool::new(true),
                injected: AtomicU64::new(0),
                last: Mutex::new(None),
            }),
        }
    }

    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Stop injecting (the chaos soak's quiesce switch). Decision streams
    /// keep advancing deterministically; they just stop firing.
    pub fn disarm(&self) {
        self.shared.armed.store(false, Ordering::SeqCst);
    }

    /// Resume injecting after [`FaultInjector::disarm`].
    pub fn arm(&self) {
        self.shared.armed.store(true, Ordering::SeqCst);
    }

    /// Total faults injected so far across all sites.
    pub fn injected(&self) -> u64 {
        self.shared.injected.load(Ordering::SeqCst)
    }

    /// The most recently injected fault, if any.
    pub fn last_fault(&self) -> Option<FaultEvent> {
        self.shared.last.lock().expect("fault event lock").clone()
    }

    /// True when faults may fire: armed and under budget.
    fn live(&self) -> bool {
        self.shared.armed.load(Ordering::SeqCst)
            && self.shared.injected.load(Ordering::SeqCst) < self.plan.max_faults
    }

    fn record(&self, site: &str, kind: &'static str) {
        let seq = self.shared.injected.fetch_add(1, Ordering::SeqCst) + 1;
        let event = FaultEvent {
            site: site.to_string(),
            kind,
            seq,
        };
        *self.shared.last.lock().expect("fault event lock") = Some(event);
    }

    /// Per-site decision stream for a WAL writer.
    pub fn wal(&self, label: &str) -> WalFaults {
        WalFaults {
            injector: self.clone(),
            site: label.to_string(),
            state: Mutex::new(self.plan.seed ^ site_hash(label) ^ 0x57A1),
        }
    }

    /// Per-site decision stream for a wire endpoint (client or server side).
    pub fn wire(&self, label: &str) -> WireFaults {
        WireFaults {
            injector: self.clone(),
            site: label.to_string(),
            read_state: Mutex::new(self.plan.seed ^ site_hash(label) ^ 0x0EAD),
            write_state: Mutex::new(self.plan.seed ^ site_hash(label) ^ 0x3717),
            drop_p: self.plan.frame_drop,
            corrupt_p: self.plan.frame_corrupt,
            delay_p: self.plan.frame_delay,
            delay: self.plan.delay,
            reset_p: self.plan.conn_reset,
        }
    }

    /// Decision stream for a replication follower's stream: the plan's
    /// stall/kill probabilities expressed as wire delay/reset, so the same
    /// `ChaosDuplex` wrapper serves both the client wire and replication.
    pub fn follower_wire(&self, label: &str) -> WireFaults {
        WireFaults {
            injector: self.clone(),
            site: label.to_string(),
            read_state: Mutex::new(self.plan.seed ^ site_hash(label) ^ 0xF011),
            write_state: Mutex::new(self.plan.seed ^ site_hash(label) ^ 0xF022),
            drop_p: 0.0,
            corrupt_p: 0.0,
            delay_p: self.plan.follower_stall,
            delay: self.plan.stall,
            reset_p: self.plan.follower_kill,
        }
    }
}

/// Deterministic decision stream for one WAL writer.
#[derive(Debug)]
pub struct WalFaults {
    injector: FaultInjector,
    site: String,
    state: Mutex<u64>,
}

impl WalFaults {
    /// Decide the fate of the next append. The stream advances whether or
    /// not the injector is armed, so disarming does not shift later draws.
    pub fn on_append(&self) -> Option<WalFault> {
        let draw = {
            let mut state = self.state.lock().expect("wal fault stream");
            unit(splitmix64(&mut state))
        };
        if !self.injector.live() {
            return None;
        }
        let plan = self.injector.plan();
        if draw < plan.wal_append_error {
            self.injector.record(&self.site, "append-error");
            Some(WalFault::AppendError)
        } else if draw < plan.wal_append_error + plan.wal_short_write {
            self.injector.record(&self.site, "short-write");
            Some(WalFault::ShortWrite)
        } else {
            None
        }
    }

    /// Decide the fate of the next fsync.
    pub fn on_sync(&self) -> Option<WalFault> {
        let draw = {
            let mut state = self.state.lock().expect("wal fault stream");
            unit(splitmix64(&mut state))
        };
        if !self.injector.live() {
            return None;
        }
        if draw < self.injector.plan().wal_fsync_error {
            self.injector.record(&self.site, "fsync-error");
            Some(WalFault::FsyncError)
        } else {
            None
        }
    }
}

/// Deterministic decision streams for one wire endpoint. Read and write
/// directions draw from independent streams, so the (single) reader thread
/// and the (mutex-serialised) writer each see a reproducible sequence.
#[derive(Debug)]
pub struct WireFaults {
    injector: FaultInjector,
    site: String,
    read_state: Mutex<u64>,
    write_state: Mutex<u64>,
    drop_p: f64,
    corrupt_p: f64,
    delay_p: f64,
    delay: Duration,
    reset_p: f64,
}

impl WireFaults {
    fn decide(&self, draw: f64, writing: bool) -> Option<WireFault> {
        if !self.injector.live() {
            return None;
        }
        // Drop and corrupt only make sense on the write side; a read-side
        // byte mangling would desynchronise framing the same way corrupt
        // does, so the read stream only delays or resets.
        let mut bound = 0.0;
        if writing {
            bound += self.drop_p;
            if draw < bound {
                self.injector.record(&self.site, "frame-drop");
                return Some(WireFault::Drop);
            }
            bound += self.corrupt_p;
            if draw < bound {
                self.injector.record(&self.site, "frame-corrupt");
                return Some(WireFault::Corrupt);
            }
        }
        bound += self.delay_p;
        if draw < bound {
            self.injector.record(&self.site, "delay");
            return Some(WireFault::Delay(self.delay));
        }
        bound += self.reset_p;
        if draw < bound {
            self.injector.record(&self.site, "reset");
            return Some(WireFault::Reset);
        }
        None
    }

    /// Decide the fate of the next write call on this endpoint.
    pub fn on_write(&self) -> Option<WireFault> {
        let draw = {
            let mut state = self.write_state.lock().expect("wire fault stream");
            unit(splitmix64(&mut state))
        };
        self.decide(draw, true)
    }

    /// Decide the fate of the next read call on this endpoint.
    pub fn on_read(&self) -> Option<WireFault> {
        let draw = {
            let mut state = self.read_state.lock().expect("wire fault stream");
            unit(splitmix64(&mut state))
        };
        self.decide(draw, false)
    }
}

/// Policy for the supervised WAL heal path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealPolicy {
    /// How many automatic checkpoint-into-fresh-epoch heals the engine may
    /// attempt over its lifetime before degrading.
    pub heal_budget: u32,
    /// Whether the engine keeps accepting writes (unlogged) once durability
    /// has degraded. Reads are always served.
    pub writes_when_degraded: bool,
}

impl Default for HealPolicy {
    fn default() -> Self {
        HealPolicy {
            heal_budget: 8,
            writes_when_degraded: true,
        }
    }
}

/// WAL health as surfaced in a [`HealthReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalState {
    /// No durability configured.
    Disabled,
    /// Logging normally.
    Healthy,
    /// Logging normally after at least one automatic heal.
    Healed,
    /// Heal budget exhausted; the engine no longer logs. Reads are served;
    /// writes follow [`HealPolicy::writes_when_degraded`].
    Degraded,
}

impl WalState {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            WalState::Disabled => 0,
            WalState::Healthy => 1,
            WalState::Healed => 2,
            WalState::Degraded => 3,
        }
    }

    /// Wire decoding; unknown values read as `Disabled`.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => WalState::Healthy,
            2 => WalState::Healed,
            3 => WalState::Degraded,
            _ => WalState::Disabled,
        }
    }
}

/// Point-in-time health snapshot: WAL state, replication progress, fault
/// plane activity. Served over the wire `Health` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// Durability state.
    pub wal: WalState,
    /// Automatic WAL heals performed so far.
    pub heals: u64,
    /// Registered replication followers.
    pub repl_followers: u64,
    /// Next LSN the primary will publish (records published so far).
    pub repl_next_lsn: u64,
    /// Lowest LSN acknowledged by every follower (0 when none).
    pub repl_min_acked: u64,
    /// Publishes to followers or analytics that panicked. Their bulks were
    /// logged and their tickets resolved; the consumers may now trail.
    pub publish_failures: u64,
    /// Total faults injected by the installed plan (0 when none installed).
    pub faults_injected: u64,
    /// Most recent injected fault as `site/kind#seq`.
    pub last_fault: Option<String>,
}

impl HealthReport {
    /// Report for an engine with no health surface wired at all.
    pub fn unwired() -> Self {
        HealthReport {
            wal: WalState::Disabled,
            heals: 0,
            repl_followers: 0,
            repl_next_lsn: 0,
            repl_min_acked: 0,
            publish_failures: 0,
            faults_injected: 0,
            last_fault: None,
        }
    }

    /// Replication lag in records: published minus fully-acknowledged.
    pub fn repl_lag(&self) -> u64 {
        self.repl_next_lsn.saturating_sub(self.repl_min_acked)
    }
}

#[derive(Debug, Default)]
struct HealthInner {
    // WalState::as_u8 encoding; Default(0) = Disabled.
    wal: AtomicU8,
    heals: AtomicU64,
    repl_followers: AtomicU64,
    repl_next_lsn: AtomicU64,
    repl_min_acked: AtomicU64,
    publish_failures: AtomicU64,
    injector: Mutex<Option<FaultInjector>>,
}

/// Shared, cheaply-clonable health surface. The engine's commit chain
/// updates it; the server reads it to answer `Health` requests.
#[derive(Clone, Debug, Default)]
pub struct Health {
    inner: Arc<HealthInner>,
}

impl Health {
    /// A fresh health surface (WAL reads as `Disabled` until set).
    pub fn new() -> Self {
        Health::default()
    }

    /// Record the current WAL state.
    pub fn set_wal(&self, state: WalState) {
        self.inner.wal.store(state.as_u8(), Ordering::SeqCst);
    }

    /// Record one successful automatic heal (also moves WAL to `Healed`).
    pub fn record_heal(&self) {
        self.inner.heals.fetch_add(1, Ordering::SeqCst);
        self.set_wal(WalState::Healed);
    }

    /// Record replication progress.
    pub fn set_replication(&self, followers: u64, next_lsn: u64, min_acked: u64) {
        self.inner.repl_followers.store(followers, Ordering::SeqCst);
        self.inner.repl_next_lsn.store(next_lsn, Ordering::SeqCst);
        self.inner.repl_min_acked.store(min_acked, Ordering::SeqCst);
    }

    /// Record one publish to followers or analytics that panicked.
    pub fn record_publish_failure(&self) {
        self.inner.publish_failures.fetch_add(1, Ordering::SeqCst);
    }

    /// Attach the fault injector so reports include injection activity.
    pub fn attach_injector(&self, injector: FaultInjector) {
        *self.inner.injector.lock().expect("health injector lock") = Some(injector);
    }

    /// Snapshot the current health.
    pub fn report(&self) -> HealthReport {
        let injector = self.inner.injector.lock().expect("health injector lock");
        let (faults_injected, last_fault) = match injector.as_ref() {
            Some(inj) => (inj.injected(), inj.last_fault().map(|e| e.describe())),
            None => (0, None),
        };
        HealthReport {
            wal: WalState::from_u8(self.inner.wal.load(Ordering::SeqCst)),
            heals: self.inner.heals.load(Ordering::SeqCst),
            repl_followers: self.inner.repl_followers.load(Ordering::SeqCst),
            repl_next_lsn: self.inner.repl_next_lsn.load(Ordering::SeqCst),
            repl_min_acked: self.inner.repl_min_acked.load(Ordering::SeqCst),
            publish_failures: self.inner.publish_failures.load(Ordering::SeqCst),
            faults_injected,
            last_fault,
        }
    }
}

/// Jittered exponential backoff shared by the self-healing client and the
/// replica supervisor. The jitter is seed-derived, so retry timing is as
/// reproducible as thread scheduling allows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub max: Duration,
    /// Retries attempted before giving up on one outage.
    pub max_retries: u32,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(5),
            max: Duration::from_millis(250),
            max_retries: 10,
            seed: 0x9E37_79B9,
        }
    }
}

impl BackoffPolicy {
    /// Delay before retry `attempt` (0-based): `base * 2^attempt` capped at
    /// `max`, scaled by a deterministic jitter factor in `[0.5, 1.0)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max);
        let mut state = self.seed ^ u64::from(attempt).wrapping_mul(0x5851_F42D_4C95_7F2D);
        let jitter = 0.5 + unit(splitmix64(&mut state)) / 2.0;
        exp.mul_f64(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_wal(plan: &FaultPlan, label: &str, n: usize) -> Vec<Option<WalFault>> {
        let wal = FaultInjector::new(plan.clone()).wal(label);
        (0..n).map(|_| wal.on_append()).collect()
    }

    #[test]
    fn same_seed_same_site_same_decisions() {
        let plan = FaultPlan::storm(42);
        assert_eq!(drain_wal(&plan, "wal", 500), drain_wal(&plan, "wal", 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = drain_wal(&FaultPlan::storm(1), "wal", 2000);
        let b = drain_wal(&FaultPlan::storm(2), "wal", 2000);
        assert_ne!(a, b);
    }

    #[test]
    fn different_sites_draw_independent_streams() {
        let plan = FaultPlan::storm(7);
        let a = drain_wal(&plan, "wal-a", 2000);
        let b = drain_wal(&plan, "wal-b", 2000);
        assert_ne!(a, b);
    }

    #[test]
    fn storm_actually_fires_each_wal_class() {
        let plan = FaultPlan {
            wal_append_error: 0.2,
            wal_short_write: 0.2,
            wal_fsync_error: 0.2,
            ..FaultPlan::storm(3)
        };
        let inj = FaultInjector::new(plan);
        let wal = inj.wal("wal");
        let appends: Vec<_> = (0..500).filter_map(|_| wal.on_append()).collect();
        assert!(appends.contains(&WalFault::AppendError));
        assert!(appends.contains(&WalFault::ShortWrite));
        assert!((0..500).any(|_| wal.on_sync() == Some(WalFault::FsyncError)));
        assert!(inj.injected() > 0);
        let last = inj.last_fault().expect("faults fired");
        assert!(last.seq >= 1);
        assert!(!last.describe().is_empty());
    }

    #[test]
    fn disarm_silences_but_keeps_the_stream_position() {
        let plan = FaultPlan {
            wal_append_error: 1.0,
            ..FaultPlan::disabled()
        };
        let inj = FaultInjector::new(plan);
        let wal = inj.wal("wal");
        assert_eq!(wal.on_append(), Some(WalFault::AppendError));
        inj.disarm();
        assert_eq!(wal.on_append(), None);
        inj.arm();
        assert_eq!(wal.on_append(), Some(WalFault::AppendError));
    }

    #[test]
    fn budget_caps_total_injections() {
        let plan = FaultPlan {
            wal_append_error: 1.0,
            ..FaultPlan::disabled()
        }
        .with_max_faults(3);
        let inj = FaultInjector::new(plan);
        let wal = inj.wal("wal");
        let fired = (0..10).filter(|_| wal.on_append().is_some()).count();
        assert_eq!(fired, 3);
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn wire_streams_fire_write_only_and_read_only_faults_correctly() {
        let plan = FaultPlan {
            frame_drop: 0.3,
            frame_corrupt: 0.3,
            frame_delay: 0.1,
            conn_reset: 0.1,
            ..FaultPlan::storm(9)
        };
        let wire = FaultInjector::new(plan).wire("conn-0");
        let reads: Vec<_> = (0..1000).filter_map(|_| wire.on_read()).collect();
        assert!(!reads.is_empty());
        assert!(reads
            .iter()
            .all(|f| !matches!(f, WireFault::Drop | WireFault::Corrupt)));
        let writes: Vec<_> = (0..1000).filter_map(|_| wire.on_write()).collect();
        assert!(writes.iter().any(|f| matches!(f, WireFault::Drop)));
        assert!(writes.iter().any(|f| matches!(f, WireFault::Corrupt)));
    }

    #[test]
    fn follower_wire_maps_stall_and_kill() {
        let plan = FaultPlan {
            follower_stall: 0.5,
            follower_kill: 0.3,
            frame_drop: 0.9, // must NOT leak into the follower stream
            ..FaultPlan::storm(11)
        };
        let wire = FaultInjector::new(plan).follower_wire("follower-0");
        let faults: Vec<_> = (0..500).filter_map(|_| wire.on_write()).collect();
        assert!(faults.iter().any(|f| matches!(f, WireFault::Delay(_))));
        assert!(faults.iter().any(|f| matches!(f, WireFault::Reset)));
        assert!(!faults.iter().any(|f| matches!(f, WireFault::Drop)));
    }

    #[test]
    fn health_report_round_trips_state() {
        let health = Health::new();
        assert_eq!(health.report(), HealthReport::unwired());
        health.set_wal(WalState::Healthy);
        health.record_heal();
        health.set_replication(2, 100, 90);
        let inj = FaultInjector::new(FaultPlan {
            wal_append_error: 1.0,
            ..FaultPlan::disabled()
        });
        inj.wal("wal").on_append();
        health.attach_injector(inj);
        let report = health.report();
        assert_eq!(report.wal, WalState::Healed);
        assert_eq!(report.heals, 1);
        assert_eq!(report.repl_lag(), 10);
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.last_fault.as_deref(), Some("wal/append-error#1"));
    }

    #[test]
    fn wal_state_wire_encoding_round_trips() {
        for state in [
            WalState::Disabled,
            WalState::Healthy,
            WalState::Healed,
            WalState::Degraded,
        ] {
            assert_eq!(WalState::from_u8(state.as_u8()), state);
        }
        assert_eq!(WalState::from_u8(250), WalState::Disabled);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = BackoffPolicy::default();
        assert!(policy.delay(0) < policy.delay(4));
        assert!(policy.delay(30) <= policy.max);
        assert_eq!(policy.delay(3), policy.delay(3));
        // Jitter keeps each delay within [0.5, 1.0) of the capped exponential.
        let raw = policy.base * 4;
        let d = policy.delay(2);
        assert!(d >= raw / 2 && d < raw, "jittered delay {d:?} out of range");
    }
}
