//! E18 — sharded state plane: submit throughput vs plain run admission
//! and hand-off latency.
//!
//! Drives one fixed scripted workload (the editorial chaos spec, seeded
//! candidate walk, `STEPS` accepted events) through a plain [`Run::push`]
//! loop and through [`ShardPlane`] at 1, 2, and 4 shards — on perfect
//! transports, no WAL — measuring accepted events per second; the plane
//! passes include delivery pumping and the final convergence sweep.
//! Then it measures hand-off latency: `begin` + `finish` cut-over on the
//! busiest shard, both immediately (snapshot only) and after the oplog
//! tail has grown mid-transfer (snapshot + tail replay + peer resync).
//!
//! Writes `BENCH_shard_plane.json` at the repository root (consumed by
//! EXPERIMENTS.md E18). Shards on a single-core host cannot *run*
//! concurrently — the plane's win here is isolation and blast-radius, not
//! parallel speedup — so the gated quantity is overhead-shaped: each
//! plane's throughput as a fraction of plain run admission (the cost of
//! routing, oplogs, standbys, and delivery), not a throughput multiple.

use std::sync::Arc;
use std::time::Instant;

use criterion::black_box;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::chaos::default_spec;
use cwf_engine::{candidates, complete, Event, PerfectTransport, Run, ShardPlane};
use cwf_lang::WorkflowSpec;

const STEPS: usize = 200;
const WARMUP: usize = 1;
const ITERS: usize = 8;

/// One seeded workload, replayable on any deployment: accepted events only.
fn build_events(spec: &Arc<WorkflowSpec>) -> Vec<Event> {
    let mut run = Run::new(Arc::clone(spec));
    let mut rng = StdRng::seed_from_u64(18);
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

/// Push everything into a fresh plain run: admission alone, the
/// denominator of every plane ratio.
fn run_pass(spec: &Arc<WorkflowSpec>, events: &[Event]) -> usize {
    let mut run = Run::new(Arc::clone(spec));
    for e in events {
        run.push(e.clone()).expect("accepted events replay");
    }
    run.current().total_tuples()
}

/// Submit everything through a fresh `shards`-shard plane and converge.
fn plane_pass(spec: &Arc<WorkflowSpec>, events: &[Event], shards: usize) -> usize {
    let mut plane = ShardPlane::new(Arc::clone(spec), shards);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    assert!(plane.converge(10_000).is_converged());
    plane.union_state().total_tuples()
}

/// Mean hand-off latency in seconds: `split` events land before `begin`,
/// the rest grow the oplog tail mid-transfer (untimed), and the timed
/// sections are `begin_handoff` (snapshot) plus `finish_handoff` (tail
/// replay, cut-over, peer resync) on shard 0 of a 4-shard plane.
fn handoff_latency(spec: &Arc<WorkflowSpec>, events: &[Event], split: usize) -> (f64, u64) {
    let mut total = 0.0;
    let mut tail = 0;
    for _ in 0..ITERS {
        let mut plane = ShardPlane::new(Arc::clone(spec), 4);
        for e in &events[..split] {
            plane.submit(e.clone()).expect("accepted events replay");
        }
        let head = plane.oplog(cwf_engine::ShardId(0)).last_seq();
        let begin = Instant::now();
        assert!(plane.begin_handoff(cwf_engine::ShardId(0)));
        total += begin.elapsed().as_secs_f64();
        for e in &events[split..] {
            plane.submit(e.clone()).expect("accepted events replay");
        }
        tail = plane.oplog(cwf_engine::ShardId(0)).last_seq() - head;
        let finish = Instant::now();
        assert!(plane.finish_handoff(Box::new(PerfectTransport::new())));
        total += finish.elapsed().as_secs_f64();
        assert!(plane.converge(10_000).is_converged());
    }
    (total / ITERS as f64, tail)
}

fn main() {
    let spec = default_spec();
    let events = build_events(&spec);

    let (run_s, run_sum) = time_passes(|| run_pass(&spec, &events));
    let mut plane_results = Vec::new();
    for shards in [1usize, 2, 4] {
        let (s, sum) = time_passes(|| plane_pass(&spec, &events, shards));
        assert_eq!(
            sum, run_sum,
            "the plane at {shards} shards must land on the run's state"
        );
        plane_results.push((shards, s));
    }

    // Hand-off immediately after the snapshot (empty tail) and with the
    // whole second half of the workload replayed as tail records.
    let (ho_empty_s, ho_empty_tail) =
        handoff_latency(&spec, &events[..events.len() / 2], STEPS / 2);
    assert_eq!(ho_empty_tail, 0, "an immediate hand-off has no tail");
    let (ho_tail_s, ho_tail_records) = handoff_latency(&spec, &events, STEPS / 2);

    let eps = |s: f64| STEPS as f64 / s;
    println!(
        "E18_shard_plane/run         ... {:>9.0} events/s",
        eps(run_s)
    );
    for &(shards, s) in &plane_results {
        println!(
            "E18_shard_plane/shards={shards}    ... {:>9.0} events/s ({:.2}x of run)",
            eps(s),
            run_s / s
        );
    }
    println!(
        "E18_shard_plane/handoff     ... {:>9.1} us empty tail, {:.1} us with {} tail records",
        ho_empty_s * 1e6,
        ho_tail_s * 1e6,
        ho_tail_records
    );

    let mut json = format!(
        "{{\n  \"experiment\": \"E18_shard_plane\",\n  \"steps\": {STEPS},\n  \
         \"run_events_per_sec\": {:.0},\n",
        eps(run_s)
    );
    for &(shards, s) in &plane_results {
        json.push_str(&format!(
            "  \"plane_{shards}_shards_events_per_sec\": {:.0},\n",
            eps(s)
        ));
    }
    json.push_str(&format!(
        "  \"handoff_empty_tail_us\": {:.1},\n  \"handoff_with_tail_us\": {:.1},\n  \
         \"handoff_tail_records\": {ho_tail_records},\n  \"hardware_threads\": {}\n}}\n",
        ho_empty_s * 1e6,
        ho_tail_s * 1e6,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard_plane.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E18_shard_plane: cannot write {path}: {e}");
    }
}
