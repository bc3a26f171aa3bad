//! Seeded workload generators. Every stream is built from the seed before
//! any timing starts; the program under test only ever sees the events.
//!
//! Procurement and task streams are built directly from rule valuations
//! with `Value::Fresh` keys, with no engine in the loop. The editorial
//! stream is E19's seeded candidate walk, which needs a run to enumerate
//! candidates. [`self_check`] confirms every generated event is accepted on
//! a fresh plane.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::chaos::{default_spec, modification_spec};
use cwf_engine::{candidates, complete, Bindings, Event, Run, ShardPlane};
use cwf_lang::{VarId, WorkflowSpec};
use cwf_model::{PeerId, RelId, Value};
use cwf_workloads::procurement_spec;

use crate::knobs::{Knobs, Shape};

/// A fact that becomes visible to the observer at event `at`, which
/// `explain_fact` must then answer with a support containing `root`.
#[derive(Debug, Clone)]
pub struct Probe {
    pub at: usize,
    pub rel: RelId,
    pub key: Value,
    pub root: usize,
}

/// A scenario search scheduled right after event `after`, over the subrun
/// of `window` (positions known to replay on their own).
#[derive(Debug, Clone)]
pub struct Window {
    pub after: usize,
    pub window: Vec<usize>,
}

/// One generated workload stream and its read schedule.
pub struct Stream {
    /// Parses the workload's spec (timed again in every set-up).
    pub spec_fn: fn() -> Arc<WorkflowSpec>,
    pub events: Vec<Event>,
    /// Events admitted during set-up, before the first timed operation.
    pub warmup: usize,
    /// The peer whose explanations are queried.
    pub observer: PeerId,
    /// Sorted by `at`.
    pub probes: Vec<Probe>,
    /// Positions after which the whole run so far is explained (sorted).
    pub mfs_after: Vec<usize>,
    /// Sorted by `after`.
    pub windows: Vec<Window>,
}

/// Builds an event of rule `rule` from named variable values.
fn fire(spec: &WorkflowSpec, rule: &str, vals: &[(&str, Value)]) -> Event {
    let rid = spec.program().rule_by_name(rule).expect("rule exists");
    let r = spec.program().rule(rid);
    let mut b = Bindings::empty(r.vars.len());
    for (name, v) in vals {
        let i = r
            .vars
            .iter()
            .position(|x| x == name)
            .expect("variable of the rule");
        b.set(VarId(i as u32), *v);
    }
    Event::new(spec, rid, b).expect("generated valuations are total")
}

fn rel(spec: &WorkflowSpec, name: &str) -> RelId {
    spec.collab().schema().rel(name).expect("relation exists")
}

fn peer(spec: &WorkflowSpec, name: &str) -> PeerId {
    spec.collab().peer(name).expect("peer exists")
}

/// Hands out `Value::Fresh` keys in increasing order.
struct Fresh(u64);

impl Fresh {
    fn next(&mut self) -> Value {
        self.0 += 1;
        Value::Fresh(self.0)
    }
}

/// A window search over the last `window_units` units after every
/// `window_every`-th unit, for units (cycles or tasks) given in completion
/// order as their sorted event positions.
fn unit_windows(knobs: &Knobs, units: &[Vec<usize>]) -> Vec<Window> {
    let mut windows = Vec::new();
    for done in 1..=units.len() {
        if done % knobs.window_every == 0 && done >= knobs.window_units {
            let mut window: Vec<usize> = units[done - knobs.window_units..done]
                .iter()
                .flatten()
                .copied()
                .collect();
            window.sort_unstable();
            windows.push(Window {
                after: *window.last().expect("units are non-empty"),
                window,
            });
        }
    }
    windows
}

/// Generates the stream of `knobs` from `seed`.
pub fn generate(knobs: &Knobs, seed: u64) -> Stream {
    match knobs.shape {
        Shape::Procurement { noise } => procurement(knobs, noise, seed),
        Shape::TaskChurn { live } => task_churn(knobs, live, seed),
        Shape::EditorialWalk => editorial(knobs, seed),
    }
}

/// Procurement cycles, each preceded by `noise` stalled requests that are
/// submitted and approved but never ordered. Every key is fresh, so the
/// instance grows linearly with the run.
fn procurement(knobs: &Knobs, noise: usize, seed: u64) -> Stream {
    let spec_fn: fn() -> Arc<WorkflowSpec> = procurement_spec;
    let spec = spec_fn();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = Fresh(0);
    let notice = rel(&spec, "Notice");
    let mut events = Vec::new();
    let mut probes = Vec::new();
    let mut units = Vec::new();
    while events.len() < knobs.events {
        let start = events.len();
        let large = rng.gen_bool(0.5);
        let size = Value::str(if large { "large" } else { "small" });
        let r = fresh.next();
        let submit = if large {
            "submit_large"
        } else {
            "submit_small"
        };
        events.push(fire(&spec, submit, &[("r", r)]));
        for _ in 0..noise {
            let nr = fresh.next();
            events.push(fire(&spec, "submit_small", &[("r", nr)]));
            events.push(fire(
                &spec,
                "approve_m",
                &[("r", nr), ("s", Value::str("small"))],
            ));
        }
        events.push(fire(&spec, "approve_m", &[("r", r), ("s", size)]));
        if large {
            events.push(fire(&spec, "approve_f", &[("r", r)]));
            events.push(fire(&spec, "order_large", &[("r", r)]));
        } else {
            events.push(fire(&spec, "order_small", &[("r", r)]));
        }
        events.push(fire(&spec, "ship", &[("r", r)]));
        events.push(fire(&spec, "notify", &[("r", r)]));
        probes.push(Probe {
            at: events.len() - 1,
            rel: notice,
            key: r,
            root: start,
        });
        units.push((start..events.len()).collect());
    }
    let windows = unit_windows(knobs, &units);
    let observer = peer(&spec, "emp");
    finish(spec_fn, events, knobs, observer, probes, &units, windows)
}

/// A steady pool of `live` tasks, each going open → claim → finish → prune,
/// advanced in seeded random order. The first `live` events open the pool.
fn task_churn(knobs: &Knobs, live: usize, seed: u64) -> Stream {
    #[derive(Clone, Copy)]
    enum Slot {
        Empty,
        Open(Value, usize),
        Claimed(Value, Value, usize),
        Done(Value, Value),
    }
    let spec_fn: fn() -> Arc<WorkflowSpec> = modification_spec;
    let spec = spec_fn();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = Fresh(0);
    let task = rel(&spec, "Task");
    let mut events: Vec<Event> = Vec::new();
    let mut probes = Vec::new();
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); live];
    let mut slots = vec![Slot::Empty; live];
    for n in 0.. {
        if events.len() >= knobs.events {
            break;
        }
        // The pool opens in slot order, then advances in seeded order.
        let i = if n < live { n } else { rng.gen_range(0..live) };
        let at = events.len();
        members[i].push(at);
        slots[i] = match slots[i] {
            Slot::Empty => {
                let t = fresh.next();
                events.push(fire(&spec, "open", &[("t", t)]));
                Slot::Open(t, at)
            }
            Slot::Open(t, root) => {
                let o = fresh.next();
                events.push(fire(&spec, "claim", &[("t", t), ("o", o)]));
                Slot::Claimed(t, o, root)
            }
            Slot::Claimed(t, o, root) => {
                events.push(fire(&spec, "finish", &[("t", t), ("o", o)]));
                probes.push(Probe {
                    at,
                    rel: task,
                    key: t,
                    root,
                });
                Slot::Done(t, o)
            }
            Slot::Done(t, o) => {
                events.push(fire(&spec, "prune", &[("t", t), ("o", o)]));
                units.push(std::mem::take(&mut members[i]));
                Slot::Empty
            }
        };
    }
    let windows = unit_windows(knobs, &units);
    let observer = peer(&spec, "board");
    finish(spec_fn, events, knobs, observer, probes, &units, windows)
}

/// E19's seeded candidate walk over the editorial spec.
fn editorial(knobs: &Knobs, seed: u64) -> Stream {
    let spec_fn: fn() -> Arc<WorkflowSpec> = default_spec;
    let spec = spec_fn();
    let doc = rel(&spec, "Doc");
    let publish = spec.program().rule_by_name("publish").expect("rule");
    let mut run = Run::new(Arc::clone(&spec));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut probes = Vec::new();
    let mut attempts = 0usize;
    while events.len() < knobs.events {
        attempts += 1;
        assert!(attempts < knobs.events * 20, "workload generation stalled");
        let cands = candidates(&run);
        let cand = cands[rng.gen_range(0..cands.len())].clone();
        let event = complete(&mut run, &cand);
        if run.push(event.clone()).is_ok() {
            if event.rule == publish {
                // The published document is the head's fresh key.
                let rule = spec.program().rule(publish);
                let d2 = rule.vars.iter().position(|v| v == "d2").expect("d2");
                let key = *event.valuation.get(VarId(d2 as u32)).expect("total");
                probes.push(Probe {
                    at: events.len(),
                    rel: doc,
                    key,
                    root: events.len(),
                });
            }
            events.push(event);
        }
    }
    // A window is the union of the closed dependency sets of the last
    // `window_units` events: closed under earlier writers of every key it
    // touches, so its subrun replays on its own.
    let deps = cwf_core::closed_deps(&run);
    let mut windows = Vec::new();
    for i in 1..events.len() {
        if i % knobs.window_every == 0 && i >= knobs.window_units {
            let mut window = deps[i].clone();
            for d in &deps[i + 1 - knobs.window_units..i] {
                window = window.union(d);
            }
            windows.push(Window {
                after: i,
                window: window.to_vec(),
            });
        }
    }
    let units: Vec<Vec<usize>> = (0..events.len()).map(|i| vec![i]).collect();
    let observer = peer(&spec, "public");
    finish(spec_fn, events, knobs, observer, probes, &units, windows)
}

/// Cuts the stream to exactly `knobs.events` events, so every stream of a
/// workload leaves the same WAL tail after its last snapshot, and places
/// the whole-run explanations at the last unit completed before each of
/// `knobs.mfs_points` equal fractions of the stream.
fn finish(
    spec_fn: fn() -> Arc<WorkflowSpec>,
    mut events: Vec<Event>,
    knobs: &Knobs,
    observer: PeerId,
    probes: Vec<Probe>,
    units: &[Vec<usize>],
    windows: Vec<Window>,
) -> Stream {
    let n = knobs.events;
    events.truncate(n);
    let warmup = knobs.warmup.min(n);
    let done: Vec<usize> = units
        .iter()
        .map(|u| *u.last().expect("units are non-empty"))
        .filter(|&at| at < n)
        .collect();
    let mut mfs_after: Vec<usize> = (1..=knobs.mfs_points)
        .filter_map(|k| done.iter().rev().find(|&&at| at < k * n / knobs.mfs_points))
        .copied()
        .filter(|&at| at >= warmup)
        .collect();
    mfs_after.dedup();
    Stream {
        spec_fn,
        events,
        warmup,
        observer,
        probes: probes
            .into_iter()
            .filter(|p| p.at >= warmup && p.at < n)
            .collect(),
        mfs_after,
        windows: windows
            .into_iter()
            .filter(|w| w.after >= warmup && w.after < n)
            .collect(),
    }
}

/// Confirms every generated event is accepted, in order, on a fresh
/// in-memory plane, and that every window replays on its own.
pub fn self_check(stream: &Stream, shards: usize) -> Result<(), String> {
    let mut plane = ShardPlane::new((stream.spec_fn)(), shards.max(1));
    for (i, e) in stream.events.iter().enumerate() {
        plane
            .submit(e.clone())
            .map_err(|err| format!("generated event {i} refused: {err}"))?;
    }
    for w in &stream.windows {
        plane
            .run()
            .try_subrun(&w.window)
            .map_err(|err| format!("window ending at {} does not replay: {err:?}", w.after))?;
    }
    Ok(())
}
