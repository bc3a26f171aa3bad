//! The fixed knobs of each workload. `layers.json` next to the manifest
//! records them, with the layer → metric → workload map; a test keeps the
//! two in step.

use cwf_engine::{SyncPolicy, WalOptions};

use crate::speed::{BURST, INTERVAL_S, REFERENCE_S, WINDOW_S};

/// How a workload's events are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Procurement cycles with `noise` stalled requests per cycle.
    Procurement { noise: usize },
    /// A steady pool of `live` tasks churning through their lifecycle.
    TaskChurn { live: usize },
    /// E19's seeded candidate walk over the editorial spec.
    EditorialWalk,
}

/// Where events are admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// A durable `ShardPlane` with this many shards; explanations come from
    /// a provenance plane the benchmark steps beside it.
    Plane { shards: usize },
    /// A `Run` with provenance enabled, journalled to a WAL stream.
    Run,
}

/// One workload's knobs.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub name: &'static str,
    /// Listed in `BENCHMARK.json`, whose bounds gate later changes. An
    /// ungated workload runs the same way, by name, but its figures do not
    /// repeat closely enough on a shared host to hold a bound.
    pub gated: bool,
    pub shape: Shape,
    pub deployment: Deployment,
    /// Events per episode: the same for every stream of the workload, and
    /// half a snapshot interval past a snapshot, so that recovery always
    /// replays the same tail.
    pub events: usize,
    /// Events admitted during set-up.
    pub warmup: usize,
    /// Whole-run explanations per episode, at equal fractions of it.
    pub mfs_points: usize,
    /// Search a window after every this many units.
    pub window_every: usize,
    /// Units per search window (for the editorial walk: events whose
    /// dependency sets make up the window).
    pub window_units: usize,
    /// WAL snapshot cadence, in events: 2% of admissions write a snapshot,
    /// so the snapshot cost sits inside the p99 rather than at its edge.
    pub snapshot_every: u64,
}

/// Workers of the analysis pool, passed explicitly. The bench host has two
/// hardware threads but one usable core; there a two-worker pool made the
/// window search slower and twice as variable from run to run.
pub const POOL_THREADS: usize = 1;

/// Streams generated per run, each from its own seed derived from the
/// run's: episodes take them in turn, so one run's figures rest on several
/// inputs rather than on one seed's shape.
pub const STREAMS: u64 = 16;

/// Set-ups timed after every episode; `setup_s` is the median of all of a
/// run's.
pub const SETUPS_PER_EPISODE: usize = 4;

/// Recoveries timed after every episode; `recover_s` is the median of all
/// of a run's.
pub const RECOVER_REPS: usize = 7;

pub const WORKLOADS: [Knobs; 4] = [
    Knobs {
        name: "procure_grow",
        gated: true,
        shape: Shape::Procurement { noise: 1 },
        deployment: Deployment::Plane { shards: 4 },
        events: 1775,
        warmup: 16,
        mfs_points: 3,
        window_every: 10,
        window_units: 4,
        snapshot_every: 50,
    },
    Knobs {
        name: "task_churn",
        gated: false,
        shape: Shape::TaskChurn { live: 64 },
        deployment: Deployment::Plane { shards: 1 },
        events: 12025,
        warmup: 64,
        mfs_points: 3,
        window_every: 50,
        window_units: 6,
        snapshot_every: 50,
    },
    Knobs {
        name: "editorial_xshard",
        gated: true,
        shape: Shape::EditorialWalk,
        deployment: Deployment::Plane { shards: 4 },
        events: 1525,
        warmup: 16,
        mfs_points: 3,
        window_every: 25,
        window_units: 12,
        snapshot_every: 50,
    },
    Knobs {
        name: "explain_mix",
        gated: true,
        shape: Shape::Procurement { noise: 3 },
        deployment: Deployment::Run,
        events: 1225,
        warmup: 11,
        mfs_points: 9,
        window_every: 4,
        window_units: 3,
        snapshot_every: 50,
    },
];

impl Knobs {
    pub fn by_name(name: &str) -> Option<Knobs> {
        WORKLOADS.iter().find(|k| k.name == name).copied()
    }

    /// The same workload cut down to a size that runs in well under a
    /// second, for the smoke tests.
    pub fn smoke(self) -> Knobs {
        let (events, window_every) = match self.shape {
            Shape::Procurement { .. } => (100, 3),
            Shape::TaskChurn { .. } => (200, 10),
            Shape::EditorialWalk => (120, 30),
        };
        Knobs {
            events,
            mfs_points: 3,
            window_every,
            window_units: self.window_units.min(window_every),
            snapshot_every: 16,
            ..self
        }
    }

    pub fn wal_options(&self) -> WalOptions {
        WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: Some(self.snapshot_every),
        }
    }

    pub fn shards(&self) -> usize {
        match self.deployment {
            Deployment::Plane { shards } => shards,
            Deployment::Run => 0,
        }
    }
}

/// One layer of the traced pass: its entry point, its metrics, and the
/// end-to-end metrics (on named workloads) a change to it should move.
pub struct Layer {
    pub name: &'static str,
    pub entry: &'static str,
    pub metrics: &'static [&'static str],
    pub moves: &'static [(&'static str, &'static [&'static str])],
    pub unmoved: &'static [(&'static str, &'static [&'static str])],
}

pub const LAYERS: [Layer; 12] = [
    Layer {
        name: "model.chase",
        entry: "chase_with",
        metrics: &[
            "model.chase.us",
            "model.chase.calls",
            "model.chase.input_tuples",
        ],
        moves: &[("procure_grow", &["admit_eps", "admit_p99_us"])],
        unmoved: &[("task_churn", &["admit_p50_us"])],
    },
    Layer {
        name: "engine.transition",
        entry: "apply_event_with_view",
        metrics: &[
            "engine.transition.apply.us",
            "engine.transition.diff_entries",
            "engine.transition.growth",
        ],
        moves: &[(
            "procure_grow",
            &[
                "admit_eps",
                "admit_p50_us",
                "admit_p99_us",
                "recover_s",
                "peak_rss_mb",
            ],
        )],
        unmoved: &[],
    },
    Layer {
        name: "engine.eval",
        entry: "check_body",
        metrics: &["engine.eval.check_body.us", "engine.eval.check_body.calls"],
        moves: &[("editorial_xshard", &["admit_p50_us"])],
        unmoved: &[],
    },
    Layer {
        name: "engine.view_plane",
        entry: "peer_delta",
        metrics: &[
            "engine.view_plane.peer_delta.us",
            "engine.view_plane.delta_entries",
        ],
        moves: &[
            ("task_churn", &["admit_p50_us"]),
            ("editorial_xshard", &["admit_p50_us"]),
        ],
        unmoved: &[],
    },
    Layer {
        name: "engine.delivery",
        entry: "ShardPlane::pump",
        metrics: &[
            "engine.delivery.pump.us",
            "engine.delivery.deltas_sent",
            "engine.delivery.retries",
        ],
        moves: &[
            ("task_churn", &["admit_p50_us"]),
            ("editorial_xshard", &["admit_p50_us"]),
        ],
        unmoved: &[],
    },
    Layer {
        name: "engine.codec",
        entry: "encode_event",
        metrics: &["engine.codec.encode.us"],
        moves: &[
            ("task_churn", &["admit_p99_us"]),
            ("procure_grow", &["admit_p99_us"]),
        ],
        unmoved: &[],
    },
    Layer {
        name: "engine.wal",
        entry: "Wal::append_event",
        metrics: &[
            "engine.wal.append.us",
            "engine.wal.bytes_per_event",
            "engine.wal.snapshots",
            "engine.wal.recover.replayed",
        ],
        moves: &[
            ("task_churn", &["admit_p99_us"]),
            ("procure_grow", &["recover_s"]),
        ],
        unmoved: &[],
    },
    Layer {
        name: "engine.shard",
        entry: "ShardPlane::submit",
        metrics: &[
            "engine.shard.submit.self_us",
            "engine.shard.local_submit.us",
            "engine.shard.cross_submit.us",
            "engine.shard.local_admitted",
            "engine.shard.cross_committed",
        ],
        moves: &[("editorial_xshard", &["admit_p50_us", "admit_p99_us"])],
        unmoved: &[
            ("task_churn", &["admit_p50_us", "admit_p99_us"]),
            ("explain_mix", &["admit_p50_us", "admit_p99_us"]),
        ],
    },
    Layer {
        name: "engine.prov",
        entry: "ProvPlane::step",
        metrics: &["engine.prov.step.us"],
        moves: &[
            (
                "explain_mix",
                &[
                    "explain_ready_p50_us",
                    "explain_ready_p90_us",
                    "admit_p50_us",
                    "admit_p99_us",
                ],
            ),
            (
                "procure_grow",
                &["explain_ready_p50_us", "explain_ready_p90_us"],
            ),
        ],
        unmoved: &[("procure_grow", &["admit_p50_us", "admit_p99_us"])],
    },
    Layer {
        name: "core.index",
        entry: "RunIndex::build",
        metrics: &["core.index.build.ms"],
        moves: &[("explain_mix", &["mfs_p50_ms"])],
        unmoved: &[],
    },
    Layer {
        name: "core.tp",
        entry: "minimal_faithful_scenario_indexed",
        metrics: &["core.tp.mfs.ms", "core.tp.mfs_len"],
        moves: &[("explain_mix", &["mfs_p50_ms"])],
        unmoved: &[],
    },
    Layer {
        name: "core.minimum",
        entry: "search_min_scenario_pooled (with core.cone: peer_cone)",
        metrics: &[
            "core.cone.ms",
            "core.cone.size",
            "core.minimum.search.ms",
            "core.minimum.nodes",
        ],
        moves: &[("explain_mix", &["minscen_p50_ms"])],
        unmoved: &[],
    },
];

fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn json_effects(effects: &[(&str, &[&str])]) -> String {
    let rows: Vec<String> = effects
        .iter()
        .map(|(w, ms)| format!("{{\"workload\": \"{w}\", \"metrics\": {}}}", json_list(ms)))
        .collect();
    format!("[{}]", rows.join(", "))
}

/// The knobs of every workload and the layer → metric → workload map, as
/// recorded in `layers.json`.
pub fn describe() -> String {
    let ref_us = REFERENCE_S * 1e6;
    let mut out = String::from("{\n");
    out.push_str("  \"host\": {\"nproc\": 2, \"note\": \"bounds were set on a 2-vCPU host with one usable core\"},\n");
    out.push_str(&format!(
        "  \"pool_threads\": {POOL_THREADS},\n  \"streams_per_run\": {STREAMS},\n  \
         \"stream_seed\": \"seed * {STREAMS} + j for stream j\",\n  \"setups_per_episode\": {SETUPS_PER_EPISODE},\n  \
         \"recover_reps\": {RECOVER_REPS},\n  \
         \"speed_gauge\": {{\"sample_every_s\": {INTERVAL_S}, \"window_s\": {WINDOW_S}, \"burst\": {BURST}, \"reference_sample_us\": {ref_us:.1}}},\n  \
         \"client\": \"one thread, closed loop\",\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|k| {
            let (shape, unit) = match k.shape {
                Shape::Procurement { noise } => (format!("\"procurement\", \"noise_per_cycle\": {noise}"), "cycle"),
                Shape::TaskChurn { live } => (format!("\"task_churn\", \"live_tasks\": {live}"), "task"),
                Shape::EditorialWalk => ("\"editorial_walk\"".to_string(), "event"),
            };
            let deployment = match k.deployment {
                Deployment::Plane { shards } => format!("\"shard_plane\", \"shards\": {shards}"),
                Deployment::Run => "\"run_with_provenance\", \"shards\": 0".to_string(),
            };
            format!(
                "    {{\"name\": \"{}\", \"gated\": {}, \"shape\": {shape}, \"deployment\": {deployment}, \
                 \"events_per_episode\": {}, \"unit\": \"{unit}\", \"warmup_events\": {}, \
                 \"mfs_points\": {}, \"window_every_units\": {}, \"window_units\": {}, \
                 \"wal\": \"MemBackend\", \"sync_policy\": \"Always\", \"snapshot_every_events\": {}}}",
                k.name,
                k.gated,
                k.events,
                k.warmup,
                k.mfs_points,
                k.window_every,
                k.window_units,
                k.snapshot_every
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"layers\": [\n");
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            format!(
                "    {{\"layer\": \"{}\", \"entry\": \"{}\", \"metrics\": {}, \"moves\": {}, \"unmoved\": {}}}",
                l.name,
                l.entry,
                json_list(l.metrics),
                json_effects(l.moves),
                json_effects(l.unmoved)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
