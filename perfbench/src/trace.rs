//! The traced pass: spans at every layer boundary, recorded from the
//! benchmark's own code around calls into each layer's public entry point.
//!
//! Around each admission the tracer replays the event's stages on the same
//! pre-state — body check (`engine.eval`), key chase (`model.chase`),
//! transition (`engine.transition`), per-peer view deltas
//! (`engine.view_plane`), encoding (`engine.codec`) and a journal append on
//! a private stream (`engine.wal`) — then times the real `submit` and
//! `pump` (`engine.shard`, `engine.delivery`) and the provenance step
//! (`engine.prov`). Reads are split into index build, faithful closure and
//! cone (`core.index`, `core.tp`, `core.cone`) and the window search
//! (`core.minimum`). Spans stay in memory and are written out at the end.

use std::io::Write;
use std::time::Instant;

use cwf_core::{
    minimal_faithful_scenario_indexed, peer_cone, search_min_scenario_pooled, FaithfulExplanation,
    RunIndex, SearchOptions,
};
use cwf_engine::{
    apply_event_with_view, check_body, encode_event, peer_delta, Event, GroundUpdate, MemBackend,
    ProvPlane, Run, ViewDelta, Wal, WalOptions,
};
use cwf_model::{chase_with, Governor, PeerId, Pool, Verdict};

use crate::stats::{median, Metric};
use crate::system::{Recovery, System};
use crate::EventSet;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    event: u64,
}

/// Spans and per-layer accumulators of one traced episode.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    root: u32,
    event: u64,
    /// A journal the replayed appends go to, apart from the system's own.
    wal: Wal,
    /// Provenance replayed beside a run deployment (a plane deployment's
    /// real provenance step is timed instead), built on first use.
    replay_prov: bool,
    prov: Option<ProvPlane>,
    /// Replayed stage times of the current event, subtracted from its
    /// `submit` to get the shard layer's self time.
    replayed_us: f64,
    chase_us: Vec<f64>,
    chase_calls: u64,
    chase_input_tuples: u64,
    apply_us: Vec<f64>,
    diff_entries: u64,
    check_us: Vec<f64>,
    check_calls: u64,
    delta_us: Vec<f64>,
    delta_entries: u64,
    pump_us: Vec<f64>,
    encode_us: Vec<f64>,
    append_us: Vec<f64>,
    wal_bytes: u64,
    submit_self_us: Vec<f64>,
    local_us: Vec<f64>,
    cross_us: Vec<f64>,
    prov_us: Vec<f64>,
    index_ms: Vec<f64>,
    mfs_ms: Vec<f64>,
    mfs_len: Vec<f64>,
    cone_ms: Vec<f64>,
    cone_size: Vec<f64>,
    search_ms: Vec<f64>,
    search_nodes: Vec<f64>,
    events: u64,
    deltas_sent: u64,
    retries: u64,
    snapshots: u64,
    replayed: u64,
    local_admitted: u64,
    cross_committed: u64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Tracer {
    pub fn new(replay_prov: bool) -> Tracer {
        let opts = WalOptions {
            sync: cwf_engine::SyncPolicy::Always,
            snapshot_every: None,
        };
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            root: NO_PARENT,
            event: 0,
            wal: Wal::create(Box::new(MemBackend::new()), opts).expect("fresh stream"),
            replay_prov,
            prov: None,
            replayed_us: 0.0,
            chase_us: Vec::new(),
            chase_calls: 0,
            chase_input_tuples: 0,
            apply_us: Vec::new(),
            diff_entries: 0,
            check_us: Vec::new(),
            check_calls: 0,
            delta_us: Vec::new(),
            delta_entries: 0,
            pump_us: Vec::new(),
            encode_us: Vec::new(),
            append_us: Vec::new(),
            wal_bytes: 0,
            submit_self_us: Vec::new(),
            local_us: Vec::new(),
            cross_us: Vec::new(),
            prov_us: Vec::new(),
            index_ms: Vec::new(),
            mfs_ms: Vec::new(),
            mfs_len: Vec::new(),
            cone_ms: Vec::new(),
            cone_size: Vec::new(),
            search_ms: Vec::new(),
            search_nodes: Vec::new(),
            events: 0,
            deltas_sent: 0,
            retries: 0,
            snapshots: 0,
            replayed: 0,
            local_admitted: 0,
            cross_committed: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span started at `start`.
    fn span(&mut self, name: &'static str, start: Instant, parent: u32) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
            parent,
            event: self.event,
        };
        self.spans.push(span);
    }

    /// Opens the root span of one operation.
    fn open(&mut self, name: &'static str, event: u64) {
        self.event = event;
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(now),
            end_ns: 0,
            parent: NO_PARENT,
            event,
        });
        self.root = (self.spans.len() - 1) as u32;
    }

    fn close(&mut self) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(self.root as usize) {
            s.end_ns = end;
        }
        self.root = NO_PARENT;
    }

    /// Replays `event`'s stages through each layer on the pre-state.
    pub fn before_admit(&mut self, sys: &System, at: usize, event: &Event) {
        self.open("admit", at as u64);
        let run = sys.run();
        let spec = run.spec();
        let schema = spec.collab().schema();
        let rule = spec.program().rule(event.rule);
        let view = run.peer_view(event.peer);
        let root = self.root;

        let t = Instant::now();
        let ok = check_body(rule, view, &event.valuation);
        self.span("engine.eval.check_body", t, root);
        self.check_us.push(us(t));
        self.check_calls += 1;
        debug_assert!(ok);

        for upd in event.ground_updates(spec) {
            if let GroundUpdate::Insert { rel, view_tuple } = upd {
                let vr = spec.collab().view(event.peer, rel).expect("visible");
                let padded = vr.pad(&view_tuple, schema.relation(rel).arity());
                let t = Instant::now();
                let _ = std::hint::black_box(chase_with(schema, run.current(), rel, padded));
                self.span("model.chase", t, root);
                self.chase_us.push(us(t));
                self.chase_calls += 1;
                self.chase_input_tuples += run.current().total_tuples() as u64;
            }
        }

        let t = Instant::now();
        let applied = apply_event_with_view(spec, run.current(), view, event)
            .expect("generated events apply");
        self.span("engine.transition.apply", t, root);
        let apply_us = us(t);
        self.apply_us.push(apply_us);
        let diff = &applied.diff;
        self.diff_entries += (diff.created.len() + diff.deleted.len() + diff.modified.len()) as u64;

        let t = Instant::now();
        let deltas: Vec<(PeerId, ViewDelta)> = spec
            .collab()
            .peer_ids()
            .map(|p| (p, peer_delta(spec.collab(), p, diff, &applied.instance)))
            .filter(|(_, d)| !d.is_empty())
            .collect();
        self.span("engine.view_plane.peer_delta", t, root);
        let delta_us = us(t);
        self.delta_us.push(delta_us);
        self.delta_entries += deltas.iter().map(|(_, d)| d.len() as u64).sum::<u64>();

        let t = Instant::now();
        let line = std::hint::black_box(encode_event(spec, event));
        self.span("engine.codec.encode", t, root);
        let encode_us = us(t);
        self.encode_us.push(encode_us);
        self.wal_bytes += line.len() as u64;

        let t = Instant::now();
        self.wal.append_event(spec, event).expect("private stream");
        self.span("engine.wal.append", t, root);
        let append_us = us(t);
        self.append_us.push(append_us);

        if self.replay_prov && self.prov.is_none() {
            self.prov = Some(ProvPlane::build(run));
        }
        if let Some(prov) = self.prov.as_mut() {
            let t = Instant::now();
            prov.step(spec, event, at as u32, diff, &applied.noop_inserts, &deltas);
            self.span("engine.prov.step", t, root);
            self.prov_us.push(us(t));
        }
        self.replayed_us = apply_us + delta_us + encode_us + append_us;
    }

    /// The real admission, split into `submit` and `pump` on a plane.
    pub fn admit(&mut self, sys: &mut System, event: &Event) -> Result<(), String> {
        let root = self.root;
        self.events += 1;
        let Some(plane) = sys.plane() else {
            let t = Instant::now();
            let res = sys.admit(event);
            self.span("engine.run.push", t, root);
            return res;
        };
        let cross_before = plane.admission_stats().cross_shard_committed;
        let t = Instant::now();
        sys.submit_only(event)?;
        self.span("engine.shard.submit", t, root);
        let submit_us = us(t);
        // Unclamped: negative when the replayed stages cost more than the
        // submit that runs them for real.
        self.submit_self_us.push(submit_us - self.replayed_us);
        let plane = sys.plane().expect("plane deployment");
        if plane.admission_stats().cross_shard_committed > cross_before {
            self.cross_us.push(submit_us);
        } else {
            self.local_us.push(submit_us);
        }
        let t = Instant::now();
        let res = sys.pump_only();
        self.span("engine.delivery.pump", t, root);
        self.pump_us.push(us(t));
        res
    }

    /// The plane deployment's provenance step, timed; closes the event.
    pub fn step_provenance(&mut self, sys: &mut System) {
        if sys.plane().is_some() {
            let t = Instant::now();
            sys.step_provenance();
            let root = self.root;
            self.span("engine.prov.step", t, root);
            self.prov_us.push(us(t));
        }
        self.close();
    }

    /// The whole-run explanation, split by layer.
    pub fn mfs(&mut self, run: &Run, peer: PeerId) -> FaithfulExplanation {
        self.open("read.mfs", run.len() as u64);
        let root = self.root;
        let t = Instant::now();
        let index = RunIndex::build(run);
        self.span("core.index.build", t, root);
        self.index_ms.push(us(t) / 1e3);
        let t = Instant::now();
        let mfs = minimal_faithful_scenario_indexed(run, &index, peer);
        self.span("core.tp.mfs", t, root);
        self.mfs_ms.push(us(t) / 1e3);
        self.mfs_len.push(mfs.events.len() as f64);
        let t = Instant::now();
        let cone = peer_cone(run, peer);
        self.span("core.cone", t, root);
        self.cone_ms.push(us(t) / 1e3);
        self.cone_size.push(cone.len() as f64);
        self.close();
        mfs
    }

    /// The window search, with its node count.
    pub fn search(
        &mut self,
        sub: &Run,
        peer: PeerId,
        gov: &Governor,
        pool: &Pool,
    ) -> Verdict<Option<EventSet>> {
        self.open("read.minscen", sub.len() as u64);
        let root = self.root;
        let t = Instant::now();
        let v = search_min_scenario_pooled(sub, peer, &SearchOptions::default(), gov, pool);
        self.span("core.minimum.search", t, root);
        self.search_ms.push(us(t) / 1e3);
        self.search_nodes.push(gov.nodes_used() as f64);
        self.close();
        v
    }

    /// Counters the deployment keeps itself, read at the episode's end.
    pub fn end_episode(&mut self, sys: &System) {
        self.snapshots += sys.snapshots();
        if let Some(plane) = sys.plane() {
            let ft = plane.ft_stats();
            self.deltas_sent += ft.deltas_sent;
            self.retries += ft.retries;
            let adm = plane.admission_stats();
            self.local_admitted += adm.local_admitted.iter().sum::<u64>();
            self.cross_committed += adm.cross_shard_committed;
        }
    }

    pub fn recovered(&mut self, rec: &Recovery) {
        self.replayed += rec.replayed as u64;
    }

    /// The per-layer metrics of the traced episode.
    pub fn metrics(&self, overhead: f64) -> Vec<Metric> {
        let tenth = (self.apply_us.len() / 10).max(1);
        let head = median(&self.apply_us[..tenth.min(self.apply_us.len())]);
        let tail = median(&self.apply_us[self.apply_us.len().saturating_sub(tenth)..]);
        let per_event = |n: u64| n as f64 / self.events.max(1) as f64;
        vec![
            Metric::new("model.chase.us", median(&self.chase_us), "us"),
            Metric::new("model.chase.calls", self.chase_calls as f64, "count"),
            Metric::new(
                "model.chase.input_tuples",
                self.chase_input_tuples as f64 / self.chase_calls.max(1) as f64,
                "tuples",
            ),
            Metric::new("engine.transition.apply.us", median(&self.apply_us), "us"),
            Metric::new(
                "engine.transition.diff_entries",
                per_event(self.diff_entries),
                "entries",
            ),
            Metric::new(
                "engine.transition.growth",
                if head > 0.0 { tail / head } else { 0.0 },
                "ratio",
            ),
            Metric::new("engine.eval.check_body.us", median(&self.check_us), "us"),
            Metric::new(
                "engine.eval.check_body.calls",
                self.check_calls as f64,
                "count",
            ),
            Metric::new(
                "engine.view_plane.peer_delta.us",
                median(&self.delta_us),
                "us",
            ),
            Metric::new(
                "engine.view_plane.delta_entries",
                per_event(self.delta_entries),
                "entries",
            ),
            Metric::new("engine.delivery.pump.us", median(&self.pump_us), "us"),
            Metric::new(
                "engine.delivery.deltas_sent",
                self.deltas_sent as f64,
                "count",
            ),
            Metric::new("engine.delivery.retries", self.retries as f64, "count"),
            Metric::new("engine.codec.encode.us", median(&self.encode_us), "us"),
            Metric::new("engine.wal.append.us", median(&self.append_us), "us"),
            Metric::new(
                "engine.wal.bytes_per_event",
                per_event(self.wal_bytes),
                "bytes",
            ),
            Metric::new("engine.wal.snapshots", self.snapshots as f64, "count"),
            Metric::new("engine.wal.recover.replayed", self.replayed as f64, "count"),
            Metric::new(
                "engine.shard.submit.self_us",
                median(&self.submit_self_us),
                "us",
            ),
            Metric::new("engine.shard.local_submit.us", median(&self.local_us), "us"),
            Metric::new("engine.shard.cross_submit.us", median(&self.cross_us), "us"),
            Metric::new(
                "engine.shard.local_admitted",
                self.local_admitted as f64,
                "count",
            ),
            Metric::new(
                "engine.shard.cross_committed",
                self.cross_committed as f64,
                "count",
            ),
            Metric::new("engine.prov.step.us", median(&self.prov_us), "us"),
            Metric::new("core.index.build.ms", median(&self.index_ms), "ms"),
            Metric::new("core.tp.mfs.ms", median(&self.mfs_ms), "ms"),
            Metric::new("core.tp.mfs_len", median(&self.mfs_len), "events"),
            Metric::new("core.cone.ms", median(&self.cone_ms), "ms"),
            Metric::new("core.cone.size", median(&self.cone_size), "events"),
            Metric::new("core.minimum.search.ms", median(&self.search_ms), "ms"),
            Metric::new("core.minimum.nodes", median(&self.search_nodes), "count"),
            Metric::new("trace.overhead", overhead, "ratio"),
        ]
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"event\":{}}}",
                s.name, s.start_ns, s.end_ns, s.event
            )?;
        }
        out.flush()
    }
}
