//! E19 — distributed admission: durable submit throughput with per-shard
//! WAL streams, key-local vs cross-shard.
//!
//! Drives one fixed scripted workload (the editorial chaos spec, seeded
//! candidate walk, `STEPS` accepted events) through plain journaled
//! admission — [`Run::push`] plus a single-stream [`Wal::append_event`] and
//! [`Wal::maybe_snapshot`] per event — and through a durable [`ShardPlane`]
//! at 1, 2, and 4 shards — per-shard in-memory streams,
//! `SyncPolicy::Always` — measuring accepted events per second; the plane
//! passes include delivery pumping and the final convergence sweep. The plane's admission counters split the
//! workload into key-local events (one `e` record on the home stream, no
//! router WAL work) and cross-shard commits (the prepare/commit protocol),
//! and the key-local share is timed separately by filtering the workload
//! to the events that commit locally at 4 shards.
//!
//! Writes `BENCH_dist_admission.json` at the repository root (consumed by
//! EXPERIMENTS.md E19). The gated quantity is overhead-shaped: each
//! durable plane's throughput as a fraction of journaled run admission.

use std::sync::Arc;
use std::time::Instant;

use criterion::black_box;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::chaos::default_spec;
use cwf_engine::transport::Transport;
use cwf_engine::{
    candidates, complete, Event, MemBackend, PerfectTransport, Run, ShardPlane, ShardPlaneConfig,
    SyncPolicy, Wal, WalOptions,
};
use cwf_lang::WorkflowSpec;

const STEPS: usize = 200;
const WARMUP: usize = 1;
const ITERS: usize = 8;

fn opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(64),
    }
}

/// One seeded workload, replayable on any deployment: accepted events only.
fn build_events(spec: &Arc<WorkflowSpec>) -> Vec<Event> {
    let mut run = Run::new(Arc::clone(spec));
    let mut rng = StdRng::seed_from_u64(19);
    let mut events = Vec::new();
    let mut attempts = 0usize;
    while events.len() < STEPS {
        attempts += 1;
        assert!(attempts < STEPS * 20, "workload generation stalled");
        let cands = candidates(&run);
        let cand = cands[rng.gen_range(0..cands.len())].clone();
        let event = complete(&mut run, &cand);
        if run.push(event.clone()).is_ok() {
            events.push(event);
        }
    }
    events
}

fn time_passes<F: FnMut() -> usize>(mut f: F) -> (f64, usize) {
    let mut checksum = 0;
    for _ in 0..WARMUP {
        checksum = black_box(f());
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        checksum = black_box(f());
    }
    (start.elapsed().as_secs_f64() / ITERS as f64, checksum)
}

/// A fresh durable plane over per-shard in-memory streams.
fn durable_plane(spec: &Arc<WorkflowSpec>, shards: usize) -> ShardPlane {
    let wals: Vec<Wal> = (0..shards)
        .map(|_| Wal::create(Box::new(MemBackend::new()), opts()).expect("fresh backend"))
        .collect();
    let transports: Vec<Box<dyn Transport>> = (0..shards)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    ShardPlane::with_parts(
        Arc::clone(spec),
        transports,
        Some(wals),
        ShardPlaneConfig::with_shards(shards),
    )
}

/// Push everything into a fresh plain run, journaling each event (and the
/// cadenced snapshot) to one in-memory stream: durable admission alone,
/// the denominator of every plane ratio.
fn run_wal_pass(spec: &Arc<WorkflowSpec>, events: &[Event]) -> usize {
    let mut wal = Wal::create(Box::new(MemBackend::new()), opts()).expect("fresh backend");
    let mut run = Run::new(Arc::clone(spec));
    for e in events {
        run.push(e.clone()).expect("accepted events replay");
        wal.append_event(spec, e).expect("in-memory append");
        wal.maybe_snapshot(spec.collab().schema(), run.current(), run.fresh_watermark())
            .expect("in-memory snapshot");
    }
    run.current().total_tuples()
}

/// Submit everything through a fresh durable `shards`-shard plane and
/// converge.
fn plane_pass(spec: &Arc<WorkflowSpec>, events: &[Event], shards: usize) -> usize {
    let mut plane = durable_plane(spec, shards);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    assert!(plane.converge(10_000).is_converged());
    plane.union_state().total_tuples()
}

/// Splits the workload by how it admits at `shards` shards: the number of
/// key-local events and cross-shard commits, from the admission counters.
fn admission_split(spec: &Arc<WorkflowSpec>, events: &[Event], shards: usize) -> (u64, u64) {
    let mut plane = durable_plane(spec, shards);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    let stats = plane.admission_stats();
    (
        stats.local_admitted.iter().sum::<u64>(),
        stats.cross_shard_committed,
    )
}

fn main() {
    let spec = default_spec();
    let events = build_events(&spec);

    let (run_s, run_sum) = time_passes(|| run_wal_pass(&spec, &events));
    let mut plane_results = Vec::new();
    for shards in [1usize, 2, 4] {
        let (s, sum) = time_passes(|| plane_pass(&spec, &events, shards));
        assert_eq!(
            sum, run_sum,
            "the durable plane at {shards} shards must land on the run's state"
        );
        plane_results.push((shards, s));
    }
    let (local, cross) = admission_split(&spec, &events, 4);
    assert_eq!(local + cross, STEPS as u64);

    let eps = |s: f64| STEPS as f64 / s;
    println!(
        "E19_dist_admission/run+wal         ... {:>9.0} events/s",
        eps(run_s)
    );
    for &(shards, s) in &plane_results {
        println!(
            "E19_dist_admission/shards={shards}       ... {:>9.0} events/s ({:.2}x of run+wal)",
            eps(s),
            run_s / s
        );
    }
    println!(
        "E19_dist_admission/split@4         ... {local} key-local, {cross} cross-shard commits"
    );

    let mut json = format!(
        "{{\n  \"experiment\": \"E19_dist_admission\",\n  \"steps\": {STEPS},\n  \
         \"run_wal_events_per_sec\": {:.0},\n",
        eps(run_s)
    );
    for &(shards, s) in &plane_results {
        json.push_str(&format!(
            "  \"plane_{shards}_shards_events_per_sec\": {:.0},\n",
            eps(s)
        ));
    }
    json.push_str(&format!(
        "  \"key_local_events_at_4_shards\": {local},\n  \
         \"cross_shard_commits_at_4_shards\": {cross},\n  \"hardware_threads\": {}\n}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_dist_admission.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E19_dist_admission: cannot write {path}: {e}");
    }
}
