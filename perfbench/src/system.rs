//! The system under test, as a client sees it: admit an event, ask for an
//! explanation, recover from the log. Both deployments keep their WAL
//! streams in memory (`MemBackend`, `SyncPolicy::Always`), so the numbers
//! measure the program and not the host's disk.

use std::sync::Arc;
use std::time::Instant;

use cwf_engine::transport::Transport;
use cwf_engine::{
    Event, MemBackend, PerfectTransport, ProvPlane, Run, ShardPlane, ShardPlaneConfig, Wal,
    WalBackend,
};
use cwf_lang::WorkflowSpec;
use cwf_model::{PeerId, RelId, Value};

use crate::knobs::{Deployment, Knobs, RECOVER_REPS};
use crate::speed::Gauge;

/// Pump rounds after which an undelivered plane counts as stalled.
const MAX_PUMPS: usize = 10_000;

// One system lives per episode and is never moved in bulk, so the size
// difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    /// A durable plane, plus the provenance plane the benchmark steps
    /// beside it: `ShardPlane` keeps none of its own, so this is how a
    /// plane deployment answers `explain_fact` today.
    Plane {
        plane: ShardPlane,
        backends: Vec<MemBackend>,
        prov: ProvPlane,
        knobs: Knobs,
    },
    /// A provenance-enabled run journalled to one WAL stream.
    Run {
        run: Run,
        wal: Wal,
        backend: MemBackend,
        snapshots: u64,
        knobs: Knobs,
    },
}

/// What recovering from the synced log bytes cost (each repetition, at the
/// gauge's reference speed) and found.
pub struct Recovery {
    pub seconds: Vec<f64>,
    pub replayed: usize,
}

fn transports(n: usize) -> Vec<Box<dyn Transport>> {
    (0..n)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect()
}

impl System {
    /// Creates the deployment over `spec`: plane and WAL streams, or run,
    /// WAL stream and provenance.
    pub fn new(spec: Arc<WorkflowSpec>, knobs: &Knobs) -> System {
        let opts = knobs.wal_options();
        match knobs.deployment {
            Deployment::Plane { shards } => {
                let backends: Vec<MemBackend> = (0..shards).map(|_| MemBackend::new()).collect();
                let wals = backends
                    .iter()
                    .map(|b| Wal::create(Box::new(b.clone()), opts).expect("fresh stream"))
                    .collect();
                let plane = ShardPlane::with_parts(
                    spec,
                    transports(shards),
                    Some(wals),
                    ShardPlaneConfig::with_shards(shards),
                );
                let prov = ProvPlane::build(plane.run());
                System::Plane {
                    plane,
                    backends,
                    prov,
                    knobs: *knobs,
                }
            }
            Deployment::Run => {
                let backend = MemBackend::new();
                let wal = Wal::create(Box::new(backend.clone()), opts).expect("fresh stream");
                let mut run = Run::new(spec);
                run.enable_provenance();
                System::Run {
                    run,
                    wal,
                    backend,
                    snapshots: 0,
                    knobs: *knobs,
                }
            }
        }
    }

    pub fn run(&self) -> &Run {
        match self {
            System::Plane { plane, .. } => plane.run(),
            System::Run { run, .. } => run,
        }
    }

    /// Snapshots written to the WAL streams so far.
    pub fn snapshots(&self) -> u64 {
        match self {
            System::Plane { plane, .. } => plane.ft_stats().wal_snapshots,
            System::Run { snapshots, .. } => *snapshots,
        }
    }

    pub fn plane(&self) -> Option<&ShardPlane> {
        match self {
            System::Plane { plane, .. } => Some(plane),
            System::Run { .. } => None,
        }
    }

    /// Plane: `submit`, then `pump` until every replica has acknowledged.
    /// Run: `push` (provenance on), then append to the journal.
    pub fn admit(&mut self, event: &Event) -> Result<(), String> {
        match self {
            System::Plane { plane, .. } => {
                plane
                    .submit(event.clone())
                    .map_err(|e| format!("submit refused: {e}"))?;
                Self::converge(plane)
            }
            System::Run {
                run,
                wal,
                snapshots,
                ..
            } => {
                run.push(event.clone())
                    .map_err(|e| format!("push refused: {e}"))?;
                let spec = run.spec_arc();
                wal.append_event(&spec, event)
                    .map_err(|e| format!("journal append failed: {e}"))?;
                if wal
                    .maybe_snapshot(spec.collab().schema(), run.current(), run.fresh_watermark())
                    .map_err(|e| format!("journal snapshot failed: {e}"))?
                {
                    *snapshots += 1;
                }
                Ok(())
            }
        }
    }

    /// Only the `submit` half of [`System::admit`] on a plane.
    pub fn submit_only(&mut self, event: &Event) -> Result<(), String> {
        match self {
            System::Plane { plane, .. } => plane
                .submit(event.clone())
                .map(|_| ())
                .map_err(|e| format!("submit refused: {e}")),
            System::Run { .. } => self.admit(event),
        }
    }

    /// Only the `pump` half of [`System::admit`] on a plane.
    pub fn pump_only(&mut self) -> Result<(), String> {
        match self {
            System::Plane { plane, .. } => Self::converge(plane),
            System::Run { .. } => Ok(()),
        }
    }

    fn converge(plane: &mut ShardPlane) -> Result<(), String> {
        for _ in 0..MAX_PUMPS {
            if plane.undelivered() == 0 {
                return Ok(());
            }
            plane.pump();
        }
        Err(format!("still undelivered after {MAX_PUMPS} pumps"))
    }

    /// Advances the benchmark's provenance plane over the plane's latest
    /// event (a run maintains its own on `push`). The generated workloads
    /// contain no no-op inserts; the end-of-episode check against
    /// `ProvPlane::build` confirms it.
    pub fn step_provenance(&mut self) {
        if let System::Plane { plane, prov, .. } = self {
            let run = plane.run();
            let at = run.len() - 1;
            prov.step(
                run.spec(),
                run.event(at),
                at as u32,
                run.diff(at),
                &[],
                run.last_deltas(),
            );
        }
    }

    /// The support of `peer`'s fact `rel(key)`, if the peer sees it.
    pub fn explain(&self, peer: PeerId, rel: RelId, key: &Value) -> Option<Vec<usize>> {
        let prov = match self {
            System::Plane { prov, .. } => prov.explain(peer, rel, key),
            System::Run { run, .. } => run.explain_fact(peer, rel, key),
        }?;
        Some(prov.support().into_iter().map(|e| e as usize).collect())
    }

    /// End-of-episode checks on the live system: replicas converged and
    /// audited, shard states equal to the run's instance, and the stepped
    /// provenance plane equal to a rebuild from scratch.
    pub fn check_live(&self) -> Result<(), String> {
        if let System::Plane { plane, prov, .. } = self {
            if plane.undelivered() != 0 {
                return Err("plane has undelivered messages at the end".into());
            }
            plane
                .audit()
                .map_err(|(s, p)| format!("audit: slice ({s:?}, {p:?}) diverges"))?;
            if !plane.state_matches(plane.run().current()) {
                return Err("shard states do not match the run's instance".into());
            }
            if *prov != ProvPlane::build(plane.run()) {
                return Err("stepped provenance differs from a rebuild".into());
            }
        }
        Ok(())
    }

    /// Consumes the system, recovers from the synced log bytes only
    /// (`survivor(0)`) `RECOVER_REPS` times, and checks each recovered
    /// state equals the acknowledged one. The live system is dropped first
    /// so that it never shares the heap with a recovered one.
    pub fn recover(self, gauge: &mut Gauge) -> Result<Recovery, String> {
        let mut seconds = Vec::with_capacity(RECOVER_REPS);
        let mut replayed = 0;
        match self {
            System::Plane {
                plane,
                backends,
                prov,
                knobs,
            } => {
                let spec = plane.run().spec_arc();
                let acked = plane.union_state();
                drop((plane, prov));
                let shards = knobs.shards();
                for _ in 0..RECOVER_REPS {
                    let survivors: Vec<Box<dyn WalBackend>> = backends
                        .iter()
                        .map(|b| Box::new(b.survivor(0)) as Box<dyn WalBackend>)
                        .collect();
                    let t = Instant::now();
                    let (plane, report) = ShardPlane::recover(
                        Arc::clone(&spec),
                        survivors,
                        knobs.wal_options(),
                        transports(shards),
                        ShardPlaneConfig::with_shards(shards),
                    )
                    .map_err(|e| format!("recovery failed: {e}"))?;
                    let secs = t.elapsed().as_secs_f64();
                    gauge.sample();
                    seconds.push(gauge.scale(t, secs));
                    if plane.union_state() != acked {
                        return Err("recovered state differs from the acknowledged state".into());
                    }
                    replayed = report.events_replayed;
                }
            }
            System::Run {
                run,
                wal,
                backend,
                knobs,
                ..
            } => {
                let spec = run.spec_arc();
                let acked = run.current().clone();
                drop((run, wal));
                for _ in 0..RECOVER_REPS {
                    let survivor = Box::new(backend.survivor(0));
                    let t = Instant::now();
                    let mut rec = Wal::recover(survivor, Arc::clone(&spec), knobs.wal_options())
                        .map_err(|e| format!("recovery failed: {e}"))?;
                    rec.run.enable_provenance();
                    let secs = t.elapsed().as_secs_f64();
                    gauge.sample();
                    seconds.push(gauge.scale(t, secs));
                    if *rec.run.current() != acked {
                        return Err("recovered instance differs from the acknowledged one".into());
                    }
                    replayed = rec.report.events_replayed;
                }
            }
        }
        Ok(Recovery { seconds, replayed })
    }
}
