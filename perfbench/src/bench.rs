//! One workload run: set-ups, timed episodes, checks and the summary.
//!
//! An episode admits the whole generated stream on a fresh deployment in a
//! closed loop (one client; each operation starts after the previous one
//! returns), with the workload's reads interleaved. Episodes repeat until
//! the run's time is up, so every episode does the same work and a faster
//! program gets more samples rather than different ones.

use std::time::Instant;

use cwf_core::{
    is_scenario, minimal_faithful_scenario, search_min_scenario_pooled, visible_set, SearchOptions,
};
use cwf_model::{Governor, Pool, Verdict};

use crate::gen::Stream;
use crate::knobs::{Knobs, SETUPS_PER_EPISODE};
use crate::speed::Gauge;
use crate::stats::{median, peak_rss_mb, quantile, Metric};
use crate::system::System;
use crate::trace::Tracer;

/// Everything an untraced run measures, at the gauge's reference speed
/// (see `speed.rs`). Tail percentiles and throughput are taken per episode
/// and reported as their median over episodes, so a burst of interference
/// from outside the process moves one episode's figure and not the run's.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub ready_us: Vec<f64>,
    pub mfs_ms: Vec<f64>,
    pub minscen_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Per episode: accepted events per second of the write loop
    /// (admissions, provenance steps and `explain_fact` queries, without
    /// the whole-run and window reads).
    pub eps: Vec<f64>,
    /// Per episode: the same throughput at the host's speed of the moment.
    pub raw_eps: Vec<f64>,
    /// The gauge's median sample over the run.
    pub sample_us: f64,
    /// Per episode: p99 of admission latency.
    pub admit_p99_us: Vec<f64>,
    /// Per episode: p90 of the explain-ready latency.
    pub ready_p90_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub episodes: u64,
}

impl Samples {
    pub fn admit_eps(&self) -> f64 {
        median(&self.eps)
    }

    /// The end-to-end metrics of the run.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("admit_eps", self.admit_eps(), "1/s"),
            Metric::new("admit_p50_us", quantile(&self.admit_us, 0.5), "us"),
            Metric::new("admit_p99_us", median(&self.admit_p99_us), "us"),
            Metric::new("explain_ready_p50_us", quantile(&self.ready_us, 0.5), "us"),
            Metric::new("explain_ready_p90_us", median(&self.ready_p90_us), "us"),
            Metric::new("mfs_p50_ms", median(&self.mfs_ms), "ms"),
            Metric::new("minscen_p50_ms", median(&self.minscen_ms), "ms"),
            Metric::new("recover_s", median(&self.recover_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("setup_s", median(&self.setup_s), "s"),
        ]
    }
}

/// Set-up: parse the spec, create the deployment and its WAL streams, and
/// admit the warm-up prefix. Event generation is not part of it.
fn setup(stream: &Stream, knobs: &Knobs) -> Result<System, String> {
    let spec = (stream.spec_fn)();
    let mut sys = System::new(spec, knobs);
    for e in &stream.events[..stream.warmup] {
        sys.admit(e)?;
        sys.step_provenance();
    }
    Ok(sys)
}

/// Times `SETUPS_PER_EPISODE` set-ups, one after another. Runs call it
/// after every episode, so that the set-ups of a run spread over its whole
/// length and start from a warm heap.
fn setups(
    stream: &Stream,
    knobs: &Knobs,
    gauge: &mut Gauge,
    s: &mut Samples,
) -> Result<(), String> {
    let mut raw = Vec::with_capacity(SETUPS_PER_EPISODE);
    for _ in 0..SETUPS_PER_EPISODE {
        gauge.tick();
        let t = Instant::now();
        let sys = setup(stream, knobs)?;
        raw.push((t, t.elapsed().as_secs_f64()));
        drop(sys);
    }
    gauge.sample();
    s.setup_s
        .extend(raw.iter().map(|&(t, secs)| gauge.scale(t, secs)));
    Ok(())
}

/// One episode; with a tracer, the traced variant of every step. Times
/// are taken raw and scaled by `gauge` once the episode is over.
pub fn episode(
    stream: &Stream,
    knobs: &Knobs,
    pool: &Pool,
    gauge: &mut Gauge,
    s: &mut Samples,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let mut sys = setup(stream, knobs)?;
    let observer = stream.observer;
    // (start, raw seconds) of every timed operation.
    let (mut admits, mut readies, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mfs_raw, mut minscen_raw) = (Vec::new(), Vec::new());
    let mut probes = stream.probes.iter().peekable();
    let mut mfs_after = stream.mfs_after.iter().peekable();
    let mut windows = stream.windows.iter().peekable();
    for (i, e) in stream.events.iter().enumerate().skip(stream.warmup) {
        gauge.tick();
        s.attempted += 1;
        // A traced event's clock includes its replayed stages, so traced
        // and untraced throughput differ by the tracing overhead.
        let t0 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.before_admit(&sys, i, e);
        }
        let res = match tracer.as_deref_mut() {
            Some(t) => t.admit(&mut sys, e),
            None => sys.admit(e),
        };
        let admit_s = t0.elapsed().as_secs_f64();
        if res.is_err() {
            s.failed += 1;
        } else {
            admits.push((t0, admit_s));
            match tracer.as_deref_mut() {
                Some(t) => t.step_provenance(&mut sys),
                None => sys.step_provenance(),
            }
        }
        if let Some(p) = probes.next_if(|p| p.at == i) {
            s.attempted += 1;
            let support = sys.explain(observer, p.rel, &p.key);
            let ready_s = t0.elapsed().as_secs_f64();
            match support {
                None => s.failed += 1,
                Some(support) => {
                    readies.push((t0, ready_s));
                    if !support.contains(&p.root) {
                        return Err(format!(
                            "explanation of the fact written at {i} misses event {}",
                            p.root
                        ));
                    }
                }
            }
        }
        writes.push((t0, t0.elapsed().as_secs_f64()));
        if mfs_after.next_if(|&&a| a == i).is_some() {
            s.attempted += 1;
            gauge.tick();
            let t = Instant::now();
            let mfs = match tracer.as_deref_mut() {
                Some(tr) => tr.mfs(sys.run(), observer),
                None => minimal_faithful_scenario(sys.run(), observer),
            };
            mfs_raw.push((t, t.elapsed().as_secs_f64()));
            if !visible_set(sys.run(), observer).is_subset(&mfs.events) {
                return Err(format!("the explanation after {i} misses a visible event"));
            }
            // Replaying an explanation costs about as much as finding it,
            // so only the episode's last one is replayed.
            if mfs_after.peek().is_none() && !is_scenario(sys.run(), observer, &mfs.events) {
                return Err(format!("the explanation after {i} is no scenario"));
            }
        }
        if let Some(w) = windows.next_if(|w| w.after == i) {
            s.attempted += 1;
            let sub = sys
                .run()
                .try_subrun(&w.window)
                .map_err(|err| format!("window ending at {i} does not replay: {err:?}"))?;
            let gov = Governor::unlimited();
            gauge.tick();
            let t = Instant::now();
            let verdict = match tracer.as_deref_mut() {
                Some(tr) => tr.search(&sub, observer, &gov, pool),
                None => search_min_scenario_pooled(
                    &sub,
                    observer,
                    &SearchOptions::default(),
                    &gov,
                    pool,
                ),
            };
            minscen_raw.push((t, t.elapsed().as_secs_f64()));
            match verdict {
                Verdict::Done(Some(found)) => {
                    if !is_scenario(&sub, observer, &found) {
                        return Err(format!("the window search after {i} is no scenario"));
                    }
                    let bound = minimal_faithful_scenario(&sub, observer).events.len();
                    if found.len() > bound {
                        return Err(format!(
                            "the window search after {i} found {} events, more than the window's {bound}",
                            found.len()
                        ));
                    }
                }
                _ => s.failed += 1,
            }
        }
    }
    gauge.sample();
    let scaled = |ops: &[(Instant, f64)], unit: f64| -> Vec<f64> {
        ops.iter().map(|&(t, x)| gauge.scale(t, x) * unit).collect()
    };
    let admit_us = scaled(&admits, 1e6);
    let ready_us = scaled(&readies, 1e6);
    let events = admits.len() as f64;
    let write_s: f64 = scaled(&writes, 1.0).iter().sum();
    let raw_write_s: f64 = writes.iter().map(|w| w.1).sum();
    s.eps.push(events / write_s.max(f64::MIN_POSITIVE));
    s.raw_eps.push(events / raw_write_s.max(f64::MIN_POSITIVE));
    s.admit_p99_us.push(quantile(&admit_us, 0.99));
    s.ready_p90_us.push(quantile(&ready_us, 0.9));
    s.admit_us.extend(admit_us);
    s.ready_us.extend(ready_us);
    s.mfs_ms.extend(scaled(&mfs_raw, 1e3));
    s.minscen_ms.extend(scaled(&minscen_raw, 1e3));
    sys.check_live()?;
    if let Some(t) = tracer.as_deref_mut() {
        t.end_episode(&sys);
    }
    let rec = sys.recover(gauge)?;
    if let Some(t) = tracer {
        t.recovered(&rec);
    }
    s.recover_s.extend(rec.seconds);
    s.episodes += 1;
    Ok(())
}

/// After a warm-up episode, untraced episodes until `seconds` have passed
/// (at least one), taking the streams in turn, each followed by set-ups.
pub fn run_for(
    streams: &[Stream],
    knobs: &Knobs,
    pool: &Pool,
    seconds: f64,
) -> Result<Samples, String> {
    let mut s = Samples::default();
    let mut gauge = Gauge::new();
    // One untimed episode first: it grows the heap to its working size, so
    // that timed episodes reuse pages instead of faulting fresh ones in.
    episode(
        &streams[0],
        knobs,
        pool,
        &mut gauge,
        &mut Samples::default(),
        None,
    )?;
    let start = Instant::now();
    while s.episodes == 0 || start.elapsed().as_secs_f64() < seconds {
        let stream = &streams[s.episodes as usize % streams.len()];
        episode(stream, knobs, pool, &mut gauge, &mut s, None)?;
        setups(&streams[0], knobs, &mut gauge, &mut s)?;
    }
    s.sample_us = gauge.median_sample_s() * 1e6;
    Ok(s)
}
