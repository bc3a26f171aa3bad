//! The seeded whole-system chaos simulator.
//!
//! A [`ShardChaosSim`] drives one [`ShardPlane`] deployment — durable
//! per-shard WAL streams on simulated disks, an unreliable transport per
//! shard, standby replicas, partitionable links, degraded mode,
//! crash–restart — through generated [`Action`] traces, with **every**
//! source of nondeterminism derived from a single `u64` seed
//! (FoundationDB-style): the trace itself, the network fault schedules,
//! and the storage fault schedules all come from disjoint RNG streams of
//! the seed, and restarts re-derive their streams from `(seed, epoch)`.
//! Executing the same `(seed, trace)` twice is therefore byte-identical,
//! which is what makes the [`shrink`](crate::chaos::shrink) step sound and
//! every failure replayable from one printed line. At one shard this is the
//! single-node harness; with more, [`Partition`](Action::Partition)
//! resolves to a (shard, link) pair covering every peer slice *and* every
//! standby replication link, and the failover, hand-off, commit-protocol,
//! and resharding actions get their full reach.
//!
//! Alongside the plane the simulator maintains a **shadow run**: the full
//! accepted history replayed from the empty instance. The shadow is what
//! the [oracles](crate::chaos::oracle) compare against — it survives
//! crashes and WAL snapshots, which the plane's own run does not. After
//! heal + pump-to-quiescence the closing check requires the union of shard
//! states to equal the shadow instance **byte for byte** and every peer's
//! slice union to equal its `view_of` reference.

use std::fmt;
use std::sync::Arc;

use cwf_lang::WorkflowSpec;
use cwf_model::govern::{CancelToken, Governor, Pool, Reason, Verdict};
use cwf_model::solver::satisfiable_within_pooled;
use cwf_model::{AttrId, Condition, PeerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::actions::{format_trace, Action};
use crate::chaos::oracle::{
    default_oracles, governed_view_audit, governed_wellformed, Checkpoint, Oracle,
};
use crate::chaos::shrink::ddmin;
use crate::delivery::{DeliveryConfig, MaterializedView};
use crate::error::CoordinatorError;
use crate::event::Event;
use crate::fault::FaultPlan;
use crate::run::Run;
use crate::shard::{ShardConvergence, ShardId, ShardLink, ShardPlane, ShardPlaneConfig};
use crate::simulate::{candidates, complete, Candidate};
use crate::stats::FtStats;
use crate::transport::{FaultyTransport, Transport};
use crate::wal::{IoFaultBackend, MemBackend, SyncPolicy, Wal, WalBackend, WalOptions};

/// Splits the one seed into independent streams (generation, network,
/// storage) and per-restart epochs.
fn mix(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .rotate_left(17)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

const GEN_SALT: u64 = 0x01;
const NET_SALT: u64 = 0x02;
const STORAGE_SALT: u64 = 0x03;

/// The fixed 12-atom selection condition of the [`Action::ParCancel`]
/// solver differential — wide enough (≥ 11 atoms) to engage the solver's
/// parallel split, structured enough (6 two-atom clauses) that the search
/// is not trivial.
fn par_probe_condition() -> Condition {
    Condition::and((0..6u32).map(|i| {
        Condition::or([
            Condition::eq_const(AttrId(i), i64::from(i)),
            Condition::neq_const(AttrId(i + 6), i64::from(i + 6)),
        ])
    }))
}

/// Which faults a chaos run emphasizes. The profile shapes both the fault
/// rates of the injected plans and the weights of the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Moderate network faults, healthy storage, occasional crashes.
    Default,
    /// Frequent crash–restarts over a moderately faulty network.
    CrashHeavy,
    /// Faulty storage (short writes, fsync failures, transient errors), so
    /// submits degrade the plane and rearm/recovery run hot.
    StorageHeavy,
    /// Submit-heavy traffic biased toward *modifying* candidates — inserts
    /// whose key already exists, so the chase null-fills tuples in place.
    /// Stresses the modified-tuple path of the incremental view plane
    /// (selection enter/leave, projection-only changes) under the
    /// differential view-plane oracle.
    ModificationHeavy,
    /// Link-level partitions, shard failovers, and hand-offs over a mildly
    /// faulty network: the robustness profile of the sharded state plane.
    PartitionHeavy,
    /// Cross-shard commit-protocol faults — stalled participant commits,
    /// post-prepare aborts, router deaths with in-doubt prepares — over a
    /// mildly faulty network and storage, plus regular crash–restarts so
    /// the presumed-abort recovery rule runs hot. At one shard every event
    /// is shard-local, so the armed faults never fire.
    CommitHeavy,
    /// Elastic-resharding stress — live shard splits, merges, and
    /// rebalances interleaved with submits, failovers, hand-offs, router
    /// crashes, and mild storage faults, so migrations are regularly cut
    /// down mid-flight and must resolve through epoch-aware recovery.
    ReshardHeavy,
}

impl ChaosProfile {
    /// Stable name, used by the driver's CLI and failure output.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosProfile::Default => "default",
            ChaosProfile::CrashHeavy => "crash-heavy",
            ChaosProfile::StorageHeavy => "storage-heavy",
            ChaosProfile::ModificationHeavy => "mod-heavy",
            ChaosProfile::PartitionHeavy => "partition-heavy",
            ChaosProfile::CommitHeavy => "commit-heavy",
            ChaosProfile::ReshardHeavy => "reshard-heavy",
        }
    }

    /// The network fault plan of one epoch.
    pub(crate) fn transport_plan(&self, stream: u64) -> FaultPlan {
        let plan = FaultPlan::seeded(stream);
        match self {
            ChaosProfile::Default => plan.with_rates(0.15, 0.10, 0.25, 3, 0.20),
            ChaosProfile::CrashHeavy => plan.with_rates(0.20, 0.10, 0.25, 3, 0.20),
            ChaosProfile::StorageHeavy => plan.with_rates(0.10, 0.05, 0.15, 2, 0.10),
            ChaosProfile::ModificationHeavy => plan.with_rates(0.10, 0.05, 0.20, 2, 0.15),
            ChaosProfile::PartitionHeavy => plan.with_rates(0.08, 0.05, 0.15, 2, 0.10),
            ChaosProfile::CommitHeavy => plan.with_rates(0.08, 0.05, 0.15, 2, 0.10),
            ChaosProfile::ReshardHeavy => plan.with_rates(0.08, 0.05, 0.15, 2, 0.10),
        }
    }

    /// `(short_write_p, fsync_fail_p, transient_p)` of the simulated disk.
    pub(crate) fn storage_rates(&self) -> (f64, f64, f64) {
        match self {
            ChaosProfile::Default => (0.0, 0.0, 0.0),
            ChaosProfile::CrashHeavy => (0.0, 0.0, 0.0),
            ChaosProfile::StorageHeavy => (0.08, 0.10, 0.12),
            ChaosProfile::ModificationHeavy => (0.0, 0.0, 0.0),
            ChaosProfile::PartitionHeavy => (0.0, 0.0, 0.0),
            ChaosProfile::CommitHeavy => (0.02, 0.02, 0.08),
            ChaosProfile::ReshardHeavy => (0.02, 0.02, 0.06),
        }
    }

    /// Generator weights: submit, pump, crash, resync, rearm, cancel,
    /// pcancel, probe, partition, heal-partition, failover, handoff,
    /// commit-stall, commit-abort, router-crash, split, merge, rebalance.
    /// (Older profiles keep zero weight on the actions added after them —
    /// zero-weight entries draw nothing from the RNG, so their pinned seeds
    /// still generate byte-identical traces.)
    fn weights(&self) -> [u32; 18] {
        match self {
            ChaosProfile::Default => [40, 25, 5, 8, 6, 6, 4, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ChaosProfile::CrashHeavy => [35, 18, 25, 8, 4, 4, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ChaosProfile::StorageHeavy => {
                [38, 15, 8, 5, 14, 6, 4, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
            }
            ChaosProfile::ModificationHeavy => {
                [55, 20, 4, 6, 4, 3, 3, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
            }
            ChaosProfile::PartitionHeavy => {
                [34, 20, 3, 6, 3, 0, 0, 4, 12, 8, 5, 5, 0, 0, 0, 0, 0, 0]
            }
            ChaosProfile::CommitHeavy => [42, 16, 4, 5, 3, 0, 0, 3, 4, 4, 2, 2, 6, 5, 4, 0, 0, 0],
            ChaosProfile::ReshardHeavy => [38, 18, 4, 5, 3, 0, 0, 3, 3, 3, 2, 2, 0, 0, 2, 7, 5, 5],
        }
    }
}

/// Tuning knobs of the chaos harness.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Pump budget of the final post-heal convergence check.
    pub converge_budget: u64,
    /// WAL snapshot cadence (chaos keeps it low so crash–restart regularly
    /// exercises snapshot-based recovery).
    pub snapshot_every: Option<u64>,
    /// Delivery-protocol knobs of every shard of the plane under test.
    pub delivery: DeliveryConfig,
    /// Executions the shrinker may spend minimizing one failure.
    pub shrink_budget: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            converge_budget: 2_000,
            snapshot_every: Some(5),
            delivery: DeliveryConfig {
                resync_lag: 8,
                ..DeliveryConfig::default()
            },
            shrink_budget: 400,
        }
    }
}

/// What a clean trace execution produced (used by the driver's summary and
/// the determinism test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Events accepted into the shadow run.
    pub events: usize,
    /// Tuples *modified in place* (null-filling chase merges) across the
    /// accepted history — the workload signal the modification-heavy
    /// profile maximizes.
    pub modified_tuples: usize,
    /// Crash–restarts executed.
    pub restarts: u64,
    /// Ticks the final post-heal convergence needed (0 when never healed).
    pub converge_ticks: u64,
    /// Fault-tolerance counters of the final plane epoch.
    pub ft: FtStats,
    /// One line per notable execution step — broadcasts, rejections,
    /// recoveries. Two same-seed runs must produce byte-identical
    /// transcripts; the determinism test asserts exactly that.
    pub transcript: Vec<String>,
}

/// A failed chaos run: the oracle that tripped, where, and the replayable
/// repro (`seed` + trace, optionally minimized).
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The seed the whole run derives from.
    pub seed: u64,
    /// The profile that was running.
    pub profile: ChaosProfile,
    /// Name of the violated oracle (or `action-invariant` /
    /// `cross-shard-convergence` for harness-level checks).
    pub oracle: String,
    /// Human-readable violation.
    pub detail: String,
    /// Index of the action after which the violation was detected.
    pub step: usize,
    /// The full failing trace.
    pub trace: Vec<Action>,
    /// The delta-debugged trace, when minimization ran.
    pub minimized: Option<Vec<Action>>,
}

impl ChaosFailure {
    /// The best repro trace available (minimized when present).
    pub fn repro(&self) -> &[Action] {
        self.minimized.as_deref().unwrap_or(&self.trace)
    }
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} profile={} oracle={} step={}: {}\n  repro: {}",
            self.seed,
            self.profile.name(),
            self.oracle,
            self.step,
            self.detail,
            format_trace(self.repro()),
        )
    }
}

/// An action-invariant or oracle violation bubbling out of execution:
/// `(check name, detail)`.
type Violation = (String, String);

fn inv(detail: impl Into<String>) -> Violation {
    ("action-invariant".to_string(), detail.into())
}

/// The live state of one shard-plane trace execution.
struct World {
    spec: Arc<WorkflowSpec>,
    profile: ChaosProfile,
    config: ChaosConfig,
    seed: u64,
    shards: usize,
    plane: ShardPlane,
    /// One simulated disk per shard stream.
    mems: Vec<MemBackend>,
    ios: Vec<IoFaultBackend>,
    opts: WalOptions,
    shadow: Run,
    in_flight: Option<Event>,
    healed: bool,
    epoch: u64,
    restarts: u64,
    /// The unsynced-byte budget of the crash forced by the last armed
    /// [`Action::RouterCrash`].
    router_crash_keep: u32,
    /// Per-shard count of transport replacements (failovers + hand-off
    /// cutovers) this epoch; salts the next replacement's fault stream.
    incarnations: Vec<u64>,
    transcript: Vec<String>,
}

impl World {
    fn new(
        spec: Arc<WorkflowSpec>,
        profile: ChaosProfile,
        config: ChaosConfig,
        shards: usize,
        seed: u64,
    ) -> Self {
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: config.snapshot_every,
        };
        let mems: Vec<MemBackend> = (0..shards).map(|_| MemBackend::new()).collect();
        let ios: Vec<IoFaultBackend> = mems
            .iter()
            .enumerate()
            .map(|(s, m)| {
                IoFaultBackend::new(
                    Box::new(m.clone()),
                    FaultPlan::perfect(mix(seed, STORAGE_SALT ^ ((s as u64 + 1) << 16))),
                )
            })
            .collect();
        let wals: Vec<Wal> = ios
            .iter()
            .map(|io| {
                Wal::create(Box::new(io.clone()), opts)
                    .expect("fresh in-memory backend cannot fail")
            })
            .collect();
        let (short, fsync, transient) = profile.storage_rates();
        for io in &ios {
            io.configure(|p| {
                p.short_write_p = short;
                p.fsync_fail_p = fsync;
                p.transient_p = transient;
            });
        }
        let transports: Vec<Box<dyn Transport>> = (0..shards)
            .map(|s| {
                Box::new(FaultyTransport::new(
                    profile.transport_plan(mix(seed, NET_SALT ^ ((s as u64 + 1) << 16))),
                )) as Box<dyn Transport>
            })
            .collect();
        let plane = ShardPlane::with_parts(
            Arc::clone(&spec),
            transports,
            Some(wals),
            ShardPlaneConfig {
                delivery: config.delivery,
                ..ShardPlaneConfig::with_shards(shards)
            },
        );
        let shadow = Run::new(Arc::clone(&spec));
        World {
            spec,
            profile,
            config,
            seed,
            shards,
            plane,
            mems,
            ios,
            opts,
            shadow,
            in_flight: None,
            healed: false,
            epoch: 0,
            restarts: 0,
            router_crash_keep: 0,
            incarnations: vec![0; shards],
            transcript: Vec::new(),
        }
    }

    fn note(&mut self, line: impl Into<String>) {
        self.transcript.push(line.into());
    }

    /// The fault plan of shard `s`'s *next* transport (failover target or
    /// hand-off receiver): a fresh stream salted by epoch, shard, and the
    /// per-shard incarnation counter, healed if the environment has healed.
    fn next_transport(&mut self, s: ShardId) -> Box<dyn Transport> {
        self.incarnations[s.index()] += 1;
        let salt = NET_SALT
            ^ (self.epoch << 8)
            ^ ((s.index() as u64 + 1) << 16)
            ^ (self.incarnations[s.index()] << 32);
        let mut plan = self.profile.transport_plan(mix(self.seed, salt));
        if self.healed {
            plan.heal();
        }
        Box::new(FaultyTransport::new(plan))
    }

    /// Decodes a raw partition-link selector into its (shard, link) pair:
    /// the link space is `shards × (peers + 1)` — every peer slice of every
    /// shard plus each shard's standby replication link.
    fn decode_link(&self, link: u32) -> (ShardId, ShardLink) {
        let peers = self.spec.collab().peer_count();
        let idx = link as usize % (self.shards * (peers + 1));
        let shard = ShardId((idx / (peers + 1)) as u16);
        let within = idx % (peers + 1);
        let target = if within < peers {
            ShardLink::Peer(PeerId(within as u32))
        } else {
            ShardLink::Standby
        };
        (shard, target)
    }

    fn checkpoint<'a>(&'a self, step: usize, action: &'a Action) -> Checkpoint<'a> {
        Checkpoint {
            plane: &self.plane,
            shadow: &self.shadow,
            backends: &self.mems,
            opts: self.opts,
            in_flight: self.in_flight.as_ref(),
            healed: self.healed,
            step,
            action,
        }
    }

    fn apply(&mut self, action: &Action) -> Result<(), Violation> {
        match action {
            Action::Submit { pick } => self.submit(*pick),
            Action::Pump { ticks } => {
                for _ in 0..*ticks {
                    self.plane.pump();
                }
                Ok(())
            }
            Action::CrashRestart {
                keep_unsynced,
                corrupt,
            } => self.crash_restart(*keep_unsynced, *corrupt),
            Action::Resync => {
                let n = self.plane.resync_divergent();
                self.note(format!("resync: {n} divergent slices"));
                Ok(())
            }
            Action::Heal => {
                self.healed = true;
                self.plane.heal();
                for io in &self.ios {
                    io.heal();
                }
                self.note("heal: all fault injection stopped");
                Ok(())
            }
            Action::Rearm => self.rearm(),
            Action::GovernorCancel => self.governor_cancel(),
            Action::ParCancel => self.par_cancel(),
            Action::DegradeProbe => self.degrade_probe(),
            Action::Partition { link } => {
                let (s, target) = self.decode_link(*link);
                self.plane.partition_link(s, target);
                self.note(format!("part: {s} {target:?} down"));
                Ok(())
            }
            Action::HealPartition { link } => {
                let (s, target) = self.decode_link(*link);
                self.plane.heal_link(s, target);
                self.note(format!("unpart: {s} {target:?} up"));
                Ok(())
            }
            Action::ShardFailover { shard } => {
                let s = ShardId((*shard as usize % self.shards) as u16);
                let t = self.next_transport(s);
                let report = self.plane.failover(s, t);
                if report.aborted_handoff {
                    self.note(format!(
                        "failover: {s} promoted its standby, aborting the in-flight hand-off"
                    ));
                } else {
                    self.note(format!("failover: {s} promoted its standby"));
                }
                Ok(())
            }
            Action::Handoff { shard } => self.handoff(*shard),
            Action::CommitStall { shard } => {
                let s = ShardId((*shard as usize % self.shards) as u16);
                self.plane.inject_commit_stall(s);
                self.note(format!("cstall: armed on {s}"));
                Ok(())
            }
            Action::CommitAbort => {
                self.plane.inject_commit_abort();
                self.note("cabort: armed");
                Ok(())
            }
            Action::RouterCrash { keep_unsynced } => {
                self.plane.inject_router_crash();
                self.router_crash_keep = *keep_unsynced;
                self.note("rcrash: armed");
                Ok(())
            }
            Action::Split { .. } | Action::Merge { .. } | Action::Rebalance { .. } => {
                self.reshard(action)
            }
        }
    }

    /// One step of the elastic-resharding protocol. An in-flight migration
    /// absorbs any resharding token as a protocol step — copy a bounded
    /// batch of snapshot facts, cutting over once the copy drains — so a
    /// trace interleaves begin, copy, and cutover with everything else the
    /// generator emits. With nothing in flight the token begins its own
    /// kind of migration (a split provisions a brand-new stream first,
    /// popped back off if the plane refuses the plan).
    fn reshard(&mut self, action: &Action) -> Result<(), Violation> {
        if let Some((kind, src, dst, left)) = self.plane.reshard_in_progress() {
            if left > 0 {
                let left = self.plane.step_reshard(4);
                self.note(format!("{kind}: {src}>{dst} stepped, {left} facts left"));
                return Ok(());
            }
            return match self.plane.finish_reshard() {
                Ok(true) => {
                    let epoch = self.plane.map().epoch();
                    self.note(format!("{kind}: {src}>{dst} cut over at epoch {epoch}"));
                    Ok(())
                }
                Ok(false) => Err(inv("finish_reshard refused an in-progress migration")),
                Err(CoordinatorError::Degraded) => {
                    self.note(format!("{kind}: cutover refused while degraded"));
                    Ok(())
                }
                Err(CoordinatorError::Wal(e)) => {
                    if !self.plane.degraded() {
                        return Err(inv(format!(
                            "cutover wal failure did not degrade the plane: {e}"
                        )));
                    }
                    self.note(format!("{kind}: cutover hit wal failure: {e}"));
                    Ok(())
                }
                Err(e) => Err(inv(format!("finish_reshard returned {e}"))),
            };
        }
        let begun = match *action {
            Action::Split { src } => {
                let s = ShardId((src as usize % self.shards) as u16);
                // Provision the new shard's stream, fault decorator, and
                // transport up front, exactly as `World::new` does for
                // the initial fleet; popped back off on refusal.
                let idx = self.shards;
                let mem = MemBackend::new();
                let salt = STORAGE_SALT ^ (self.epoch << 8) ^ ((idx as u64 + 1) << 16);
                let io = IoFaultBackend::new(
                    Box::new(mem.clone()),
                    FaultPlan::perfect(mix(self.seed, salt)),
                );
                let wal = Wal::create(Box::new(io.clone()), self.opts)
                    .expect("fresh in-memory backend cannot fail");
                if !self.healed {
                    let (short, fsync, transient) = self.profile.storage_rates();
                    io.configure(|p| {
                        p.short_write_p = short;
                        p.fsync_fail_p = fsync;
                        p.transient_p = transient;
                    });
                }
                self.incarnations.push(0);
                let t = self.next_transport(ShardId(idx as u16));
                match self.plane.begin_split(s, t, Some(wal)) {
                    Ok(true) => {
                        self.mems.push(mem);
                        self.ios.push(io);
                        self.shards = self.plane.shard_count();
                        self.note(format!(
                            "split: {s} began onto shard {idx} at epoch {}",
                            self.plane.map().epoch()
                        ));
                        return Ok(());
                    }
                    r => {
                        self.incarnations.pop();
                        r.map(|_| false)
                    }
                }
            }
            Action::Merge { src, dst } => {
                let s = ShardId((src as usize % self.shards) as u16);
                let d = ShardId((dst as usize % self.shards) as u16);
                match self.plane.begin_merge(s, d) {
                    Ok(true) => {
                        self.note(format!(
                            "merge: {s}>{d} began at epoch {}",
                            self.plane.map().epoch()
                        ));
                        return Ok(());
                    }
                    r => r.map(|_| false),
                }
            }
            Action::Rebalance { src, dst } => {
                let s = ShardId((src as usize % self.shards) as u16);
                let d = ShardId((dst as usize % self.shards) as u16);
                match self.plane.begin_rebalance(s, d) {
                    Ok(true) => {
                        self.note(format!(
                            "rebal: {s}>{d} began at epoch {}",
                            self.plane.map().epoch()
                        ));
                        return Ok(());
                    }
                    r => r.map(|_| false),
                }
            }
            _ => unreachable!("reshard only dispatches resharding actions"),
        };
        match begun {
            Ok(_) => {
                self.note("reshard: plan refused (degenerate endpoints or busy)");
                Ok(())
            }
            Err(CoordinatorError::Degraded) => {
                self.note("reshard refused: degraded");
                Ok(())
            }
            Err(CoordinatorError::Wal(e)) => {
                if !self.plane.degraded() {
                    return Err(inv(format!(
                        "reshard plan-record failure did not degrade the plane: {e}"
                    )));
                }
                self.note(format!("reshard hit wal failure: {e}"));
                Ok(())
            }
            Err(e) => Err(inv(format!("begin reshard returned {e}"))),
        }
    }

    /// One step of the interruptible hand-off protocol: begin on the
    /// selected shard if nothing is in progress, otherwise transfer a
    /// bounded batch of oplog records, cutting over once the tail drains.
    fn handoff(&mut self, shard: u32) -> Result<(), Violation> {
        match self.plane.handoff_in_progress() {
            None => {
                let s = ShardId((shard as usize % self.shards) as u16);
                self.plane.begin_handoff(s);
                self.note(format!("handoff: {s} snapshot taken"));
            }
            Some((s, 0)) => {
                let t = self.next_transport(s);
                if !self.plane.finish_handoff(t) {
                    return Err(inv("finish_handoff refused an in-progress hand-off"));
                }
                self.note(format!("handoff: {s} cut over"));
            }
            Some((s, _)) => {
                let left = self.plane.step_handoff(2);
                self.note(format!("handoff: {s} stepped, {left} records left"));
            }
        }
        Ok(())
    }

    /// Does firing this candidate modify an existing tuple? True when some
    /// insert's key is already bound by the body to a key present in the
    /// current instance — the key chase then merges into (null-fills) that
    /// tuple instead of creating a new one.
    fn modifies_existing(&self, cand: &Candidate) -> bool {
        let rule = self.spec.program().rule(cand.rule);
        rule.head.iter().any(|u| match u {
            cwf_lang::UpdateAtom::Insert { rel, args } => cand
                .bindings
                .resolve(&args[0])
                .is_some_and(|k| self.plane.run().current().rel(*rel).get(&k).is_some()),
            cwf_lang::UpdateAtom::Delete { .. } => false,
        })
    }

    fn submit(&mut self, pick: u32) -> Result<(), Violation> {
        let cands = candidates(self.plane.run());
        if cands.is_empty() {
            self.note("submit: no candidates");
            return Ok(());
        }
        // The modification-heavy profile steers picks toward candidates
        // that null-fill existing tuples, exercising the modified-tuple
        // path of the view plane; other profiles pick uniformly.
        let mods: Vec<&Candidate> = if self.profile == ChaosProfile::ModificationHeavy {
            cands.iter().filter(|c| self.modifies_existing(c)).collect()
        } else {
            Vec::new()
        };
        let cand = if mods.is_empty() {
            &cands[pick as usize % cands.len()]
        } else {
            mods[pick as usize % mods.len()]
        };
        // Complete head-only variables with plane-fresh values on a scratch
        // clone (the real run advances only through submit).
        let mut scratch = self.plane.run().clone();
        let event = complete(&mut scratch, cand);
        let was_degraded = self.plane.degraded();
        match self.plane.submit(event.clone()) {
            Ok(b) => {
                let line = format!(
                    "submit ok: at={} home={} stamps={}",
                    b.at,
                    b.home,
                    b.stamps
                        .iter()
                        .map(|(s, t)| format!("{s}:{t}"))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                if was_degraded {
                    return Err((
                        "degraded-safety".into(),
                        "degraded plane accepted a mutation".into(),
                    ));
                }
                self.note(line);
                if let Err(e) = self.shadow.push(event) {
                    return Err((
                        "shard-state-union".into(),
                        format!("accepted event does not extend the accepted history: {e}"),
                    ));
                }
                Ok(())
            }
            Err(CoordinatorError::Degraded) => {
                if !was_degraded {
                    return Err(inv("armed plane rejected a submit as Degraded"));
                }
                self.note("submit rejected: degraded");
                Ok(())
            }
            Err(CoordinatorError::Engine(e)) => {
                self.note(format!("submit rejected by engine: {e}"));
                Ok(())
            }
            Err(CoordinatorError::Wal(e)) => {
                if !self.plane.degraded() {
                    return Err(inv(format!("wal failure did not degrade the plane: {e}")));
                }
                self.in_flight = Some(event);
                self.note(format!("submit hit wal failure: {e}"));
                Ok(())
            }
            Err(CoordinatorError::CommitAborted) => {
                if self.plane.degraded() {
                    return Err(inv("a clean commit abort degraded the plane"));
                }
                self.note("submit aborted by the commit protocol (post-prepare timeout)");
                Ok(())
            }
            Err(CoordinatorError::InDoubt) => {
                if self.plane.degraded() {
                    return Err(inv("an in-doubt commit degraded the live plane"));
                }
                self.note("submit in doubt: router died after prepare; forcing a restart");
                // The router process is gone: crash the plane at exactly the
                // in-doubt point, so recovery must presume the orphaned
                // prepares aborted.
                self.crash_restart(self.router_crash_keep, None)
            }
        }
    }

    fn crash_restart(
        &mut self,
        keep_unsynced: u32,
        corrupt: Option<(u32, u8)>,
    ) -> Result<(), Violation> {
        // The whole plane process dies: shard states, oplogs, standbys, and
        // in-flight traffic are gone; only the per-shard streams decide.
        // Every stream keeps its synced prefix plus at most `keep_unsynced`
        // unsynced bytes; the optional corruption picks one shard's kept
        // unsynced tail by the selector's low bits.
        let mut survivors: Vec<MemBackend> = Vec::with_capacity(self.shards);
        for (s, mem) in self.mems.iter().enumerate() {
            let synced = mem.synced_len();
            let survivor = mem.survivor(keep_unsynced as usize);
            if let Some((off, xor)) = corrupt {
                if s == off as usize % self.shards {
                    let total = survivor.bytes().len();
                    if total > synced {
                        let tail = total - synced;
                        survivor.corrupt_byte(synced + ((off as usize / self.shards) % tail), xor);
                    }
                }
            }
            survivors.push(survivor);
        }
        self.epoch += 1;
        self.restarts += 1;
        self.incarnations = vec![0; self.shards];
        let ios: Vec<IoFaultBackend> = survivors
            .iter()
            .enumerate()
            .map(|(s, m)| {
                let salt = STORAGE_SALT ^ (self.epoch << 8) ^ ((s as u64 + 1) << 16);
                IoFaultBackend::new(
                    Box::new(m.clone()),
                    FaultPlan::perfect(mix(self.seed, salt)),
                )
            })
            .collect();
        let transports: Vec<Box<dyn Transport>> = (0..self.shards)
            .map(|s| {
                let salt = NET_SALT ^ (self.epoch << 8) ^ ((s as u64 + 1) << 16);
                let mut net = self.profile.transport_plan(mix(self.seed, salt));
                if self.healed {
                    net.heal();
                }
                Box::new(FaultyTransport::new(net)) as Box<dyn Transport>
            })
            .collect();
        let accepted = self.shadow.len() as u64;
        let (plane, report) = ShardPlane::recover(
            Arc::clone(&self.spec),
            ios.iter()
                .map(|io| Box::new(io.clone()) as Box<dyn WalBackend>)
                .collect(),
            self.opts,
            transports,
            ShardPlaneConfig {
                delivery: self.config.delivery,
                ..ShardPlaneConfig::with_shards(self.shards)
            },
        )
        .map_err(|e| {
            (
                "shard-wal-replay".to_string(),
                format!("quorum recovery refused the surviving streams: {e}"),
            )
        })?;
        if report.last_seq == accepted + 1 {
            let Some(ev) = self.in_flight.take() else {
                return Err((
                    "no-lost-acked".into(),
                    "recovery found an extra durable event with nothing in flight".into(),
                ));
            };
            self.shadow.push(ev).map_err(|e| {
                (
                    "shard-state-union".to_string(),
                    format!("promoted in-flight event does not extend the history: {e}"),
                )
            })?;
        } else if report.last_seq == accepted {
            self.in_flight = None;
        } else {
            return Err((
                "no-lost-acked".into(),
                format!(
                    "recovery reaches seq {} but {accepted} events were acknowledged",
                    report.last_seq
                ),
            ));
        }
        self.plane = plane;
        self.mems = survivors;
        self.ios = ios;
        if !self.healed {
            let (short, fsync, transient) = self.profile.storage_rates();
            for io in &self.ios {
                io.configure(|p| {
                    p.short_write_p = short;
                    p.fsync_fail_p = fsync;
                    p.transient_p = transient;
                });
            }
        }
        self.note(format!(
            "crash-restart #{}: last_seq={} replayed={} snapshot={:?} truncated={}B",
            self.restarts,
            report.last_seq,
            report.events_replayed,
            report.snapshot_seq,
            report.truncated_bytes
        ));
        Ok(())
    }

    fn rearm(&mut self) -> Result<(), Violation> {
        let was_degraded = self.plane.degraded();
        match self.plane.rearm() {
            Ok(()) => {
                if was_degraded {
                    self.in_flight = None;
                    self.note("rearm: left degraded mode");
                } else {
                    self.note("rearm: no-op");
                }
                Ok(())
            }
            Err(e) => {
                if self.healed {
                    return Err(inv(format!("rearm failed after heal: {e}")));
                }
                self.note(format!("rearm failed (faults persist): {e}"));
                Ok(())
            }
        }
    }

    fn governor_cancel(&mut self) -> Result<(), Violation> {
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::unlimited().cancelled_by(token);
        match governed_wellformed(self.plane.run(), &gov) {
            Verdict::Exhausted(Reason::Cancelled) => {
                self.note("cancel: governed analysis stopped before any work");
                Ok(())
            }
            v => Err(inv(format!(
                "pre-cancelled governed analysis returned {v:?} \
                 instead of Exhausted(Cancelled)"
            ))),
        }
    }

    fn par_cancel(&mut self) -> Result<(), Violation> {
        let wide = Pool::with_threads(4);
        let one = Pool::sequential();
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::unlimited().cancelled_by(token);
        match governed_view_audit(self.plane.run(), &gov, &wide) {
            Verdict::Exhausted(Reason::Cancelled) => {}
            v => {
                return Err(inv(format!(
                    "pre-cancelled parallel view audit returned {v:?} \
                     instead of Exhausted(Cancelled)"
                )))
            }
        }
        let par = governed_view_audit(self.plane.run(), &Governor::unlimited(), &wide);
        let seq = governed_view_audit(self.plane.run(), &Governor::unlimited(), &one);
        if par != seq {
            return Err(inv(format!(
                "parallel view audit diverged from sequential: {par:?} vs {seq:?}"
            )));
        }
        if let Verdict::Done(Err(msg)) = &par {
            return Err(inv(format!("view audit found a divergence: {msg}")));
        }
        let cond = par_probe_condition();
        let psat = satisfiable_within_pooled(&cond, &Governor::unlimited(), &wide);
        let ssat = satisfiable_within_pooled(&cond, &Governor::unlimited(), &one);
        if psat != ssat {
            return Err(inv(format!(
                "parallel satisfiability diverged from sequential: \
                 {psat:?} vs {ssat:?}"
            )));
        }
        self.note("pcancel: parallel analyses match the sequential oracles");
        Ok(())
    }

    fn degrade_probe(&mut self) -> Result<(), Violation> {
        if !self.plane.degraded() {
            self.note("probe: not degraded");
            return Ok(());
        }
        let before_len = self.plane.run().len();
        let collab = self.spec.collab();
        let replicas: Vec<MaterializedView> = collab
            .peer_ids()
            .map(|p| self.plane.union_replica(p))
            .collect();
        let cands = candidates(self.plane.run());
        let event = match cands.first() {
            Some(cand) => {
                let mut scratch = self.plane.run().clone();
                complete(&mut scratch, cand)
            }
            None => match self.in_flight.clone() {
                Some(ev) => ev,
                None => {
                    self.note("probe: nothing to submit");
                    return Ok(());
                }
            },
        };
        match self.plane.submit(event) {
            Err(CoordinatorError::Degraded) => {}
            Ok(_) => {
                return Err((
                    "degraded-safety".into(),
                    "mutation accepted while degraded".into(),
                ));
            }
            Err(e) => {
                return Err((
                    "degraded-safety".into(),
                    format!("degraded submit failed with {e:?} instead of Degraded"),
                ));
            }
        }
        if self.plane.run().len() != before_len {
            return Err((
                "degraded-safety".into(),
                "run length changed during a degraded probe".into(),
            ));
        }
        for (p, before) in collab.peer_ids().zip(&replicas) {
            if !self.plane.union_replica(p).same_facts(before) {
                return Err((
                    "degraded-safety".into(),
                    format!(
                        "replica union of peer {} changed during a degraded probe",
                        collab.peer_name(p)
                    ),
                ));
            }
        }
        self.note("probe: degraded mutation rejected, reads stable");
        Ok(())
    }

    /// The cross-shard convergence oracle's closing half: after heal the
    /// plane must finish any hand-off, re-arm, settle within the pump
    /// budget, and then the union of shard states must equal the
    /// shadow instance byte for byte, with every peer's slice
    /// union equal to its from-scratch `view_of` reference.
    fn final_check(&mut self) -> Result<u64, Violation> {
        const NAME: &str = "cross-shard-convergence";
        if !self.healed {
            return Ok(0);
        }
        if let Some((s, _)) = self.plane.handoff_in_progress() {
            let t = self.next_transport(s);
            self.plane.finish_handoff(t);
            self.note(format!("handoff: {s} completed at trace end"));
        }
        let was_degraded = self.plane.degraded();
        if let Err(e) = self.plane.rearm() {
            return Err((NAME.into(), format!("rearm failed after heal: {e}")));
        }
        if was_degraded {
            self.in_flight = None;
        }
        // A migration still in flight at trace end must be drivable to its
        // cutover now that the environment is healed and the plane armed.
        if let Some((kind, s, d, _)) = self.plane.reshard_in_progress() {
            match self.plane.finish_reshard() {
                Ok(true) => self.note(format!("{kind}: {s}>{d} completed at trace end")),
                r => {
                    return Err((
                        NAME.into(),
                        format!("in-flight migration failed to complete after heal: {r:?}"),
                    ));
                }
            }
        }
        let ticks = match self.plane.converge(self.config.converge_budget) {
            ShardConvergence::Converged { ticks } => ticks,
            s @ ShardConvergence::Stalled { .. } => {
                return Err((
                    NAME.into(),
                    format!(
                        "plane failed to settle within {} ticks: {s}",
                        self.config.converge_budget
                    ),
                ));
            }
        };
        if !self.plane.state_matches(self.shadow.current()) {
            return Err((
                NAME.into(),
                "converged union of shard states differs from the shadow".into(),
            ));
        }
        let collab = self.spec.collab();
        for p in collab.peer_ids() {
            let union = self.plane.union_replica(p);
            if !union.matches(&collab.view_of(self.shadow.current(), p)) {
                return Err((
                    NAME.into(),
                    format!(
                        "converged replica union of peer {} differs from view_of the shadow",
                        collab.peer_name(p)
                    ),
                ));
            }
        }
        self.note(format!("converged after {ticks} ticks"));
        Ok(ticks)
    }
}

/// The chaos harness: a spec, a fault profile, a shard count, tuning
/// knobs, and the oracle battery. One sim is reusable across seeds; each
/// [`run_trace`](ShardChaosSim::run_trace) builds a fresh universe.
pub struct ShardChaosSim {
    spec: Arc<WorkflowSpec>,
    profile: ChaosProfile,
    shards: usize,
    config: ChaosConfig,
    #[allow(clippy::type_complexity)]
    extra: Vec<Box<dyn Fn() -> Box<dyn Oracle> + Send + Sync>>,
}

impl ShardChaosSim {
    /// A sim over `spec` with `shards` shards and the given fault profile.
    pub fn new(spec: Arc<WorkflowSpec>, profile: ChaosProfile, shards: usize) -> Self {
        assert!(shards >= 1, "a plane needs at least one shard");
        ShardChaosSim {
            spec,
            profile,
            shards,
            config: ChaosConfig::default(),
            extra: Vec::new(),
        }
    }

    /// Builder: overrides the tuning knobs.
    pub fn with_config(mut self, config: ChaosConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: plugs an extra oracle into the battery. The factory is
    /// invoked once per trace execution, so stateful oracles start fresh.
    pub fn with_oracle(
        mut self,
        factory: impl Fn() -> Box<dyn Oracle> + Send + Sync + 'static,
    ) -> Self {
        self.extra.push(Box::new(factory));
        self
    }

    /// The active profile.
    pub fn profile(&self) -> ChaosProfile {
        self.profile
    }

    /// The shard count of the deployment under test.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Generates the action trace of `seed` (see [`generate_trace`]).
    pub fn generate(&self, seed: u64, steps: usize) -> Vec<Action> {
        generate_trace(self.profile, seed, steps)
    }

    /// Executes `trace` deterministically from `seed` against a fresh
    /// universe, running the oracle battery after every action and the
    /// cross-shard convergence check at the end. The failure, if any,
    /// carries the *unminimized* trace; see
    /// [`check_seed`](ShardChaosSim::check_seed) for the shrinking entry
    /// point.
    pub fn run_trace(&self, seed: u64, trace: &[Action]) -> Result<TraceReport, ChaosFailure> {
        let fail = |step: usize, (oracle, detail): Violation| ChaosFailure {
            seed,
            profile: self.profile,
            oracle,
            detail,
            step,
            trace: trace.to_vec(),
            minimized: None,
        };
        let mut world = World::new(
            Arc::clone(&self.spec),
            self.profile,
            self.config,
            self.shards,
            seed,
        );
        let mut oracles: Vec<Box<dyn Oracle>> = default_oracles();
        for factory in &self.extra {
            oracles.push(factory());
        }
        for (step, action) in trace.iter().enumerate() {
            world.apply(action).map_err(|v| fail(step, v))?;
            let cp = world.checkpoint(step, action);
            for oracle in oracles.iter_mut() {
                if let Err(detail) = oracle.check(&cp) {
                    let oracle = oracle.name().to_string();
                    return Err(fail(step, (oracle, detail)));
                }
            }
        }
        let converge_ticks = world
            .final_check()
            .map_err(|v| fail(trace.len().saturating_sub(1), v))?;
        let mut transcript = world.transcript;
        let ft = world.plane.ft_stats().clone();
        let ps = *world.plane.plane_stats();
        transcript.push(format!("final ft: {ft:?}"));
        transcript.push(format!("final plane: {ps:?}"));
        Ok(TraceReport {
            events: world.shadow.len(),
            modified_tuples: (0..world.shadow.len())
                .map(|i| world.shadow.diff(i).modified.len())
                .sum(),
            restarts: world.restarts,
            converge_ticks,
            ft,
            transcript,
        })
    }

    /// Delta-debugs a failing trace, re-executing from `seed`; returns the
    /// minimized trace and its failure. Any oracle failure keeps a
    /// candidate (a shrunk trace may trip a different oracle).
    pub fn minimize(&self, seed: u64, trace: &[Action]) -> (Vec<Action>, Option<ChaosFailure>) {
        let minimized = ddmin(
            trace,
            |cand| self.run_trace(seed, cand).is_err(),
            self.config.shrink_budget,
        );
        let failure = self.run_trace(seed, &minimized).err();
        (minimized, failure)
    }

    /// The top-level per-seed entry point: generate, execute, and on
    /// failure shrink to a minimal repro (the returned failure carries both
    /// the full and the minimized trace).
    pub fn check_seed(&self, seed: u64, steps: usize) -> Result<TraceReport, ChaosFailure> {
        let trace = self.generate(seed, steps);
        match self.run_trace(seed, &trace) {
            Ok(report) => Ok(report),
            Err(original) => {
                let (minimized, refailure) = self.minimize(seed, &trace);
                // Report the minimized trace's own violation when it
                // (deterministically) reproduces; fall back to the original.
                let mut failure = refailure.unwrap_or(original);
                failure.trace = trace;
                failure.minimized = Some(minimized);
                Err(failure)
            }
        }
    }
}

impl fmt::Debug for ShardChaosSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardChaosSim[{} shards, profile={}]",
            self.shards,
            self.profile.name()
        )
    }
}

/// Generates the `seed`-determined action trace of a profile: `steps`
/// weighted actions, then the closing `heal rearm pump` suffix so every
/// seed exercises the post-heal convergence oracle.
pub fn generate_trace(profile: ChaosProfile, seed: u64, steps: usize) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(mix(seed, GEN_SALT));
    let weights = profile.weights();
    let total: u32 = weights.iter().sum();
    let mut out = Vec::with_capacity(steps + 3);
    for _ in 0..steps {
        let mut roll = rng.gen_range(0..total);
        let mut idx = 0usize;
        for (i, w) in weights.iter().enumerate() {
            if roll < *w {
                idx = i;
                break;
            }
            roll -= *w;
        }
        out.push(match idx {
            0 => Action::Submit {
                pick: rng.gen_range(0..=255u32),
            },
            1 => Action::Pump {
                ticks: rng.gen_range(1..=5u32),
            },
            2 => Action::CrashRestart {
                keep_unsynced: rng.gen_range(0..=96u32),
                corrupt: if rng.gen_bool(0.3) {
                    Some((rng.gen_range(0..=255u32), rng.gen_range(1..=255u32) as u8))
                } else {
                    None
                },
            },
            3 => Action::Resync,
            4 => Action::Rearm,
            5 => Action::GovernorCancel,
            6 => Action::ParCancel,
            7 => Action::DegradeProbe,
            8 => Action::Partition {
                link: rng.gen_range(0..=255u32),
            },
            9 => Action::HealPartition {
                link: rng.gen_range(0..=255u32),
            },
            10 => Action::ShardFailover {
                shard: rng.gen_range(0..=255u32),
            },
            11 => Action::Handoff {
                shard: rng.gen_range(0..=255u32),
            },
            12 => Action::CommitStall {
                shard: rng.gen_range(0..=255u32),
            },
            13 => Action::CommitAbort,
            14 => Action::RouterCrash {
                keep_unsynced: rng.gen_range(0..=96u32),
            },
            15 => Action::Split {
                src: rng.gen_range(0..=255u32),
            },
            16 => Action::Merge {
                src: rng.gen_range(0..=255u32),
                dst: rng.gen_range(0..=255u32),
            },
            _ => Action::Rebalance {
                src: rng.gen_range(0..=255u32),
                dst: rng.gen_range(0..=255u32),
            },
        });
    }
    out.push(Action::Heal);
    out.push(Action::Rearm);
    out.push(Action::Pump { ticks: 4 });
    out
}
