//! # cwf-engine — the runtime of collaborative workflows
//!
//! Substrate crate implementing the operational semantics of Section 2 and
//! the run views of Section 3: FCQ¬ body evaluation over peer views, events
//! (rule instantiations) and their ground updates, the transition relation
//! `I ⊢_e J` (insertion via chase + subsumption, visible deletion), runs
//! with global-freshness enforcement, replay of event subsequences (the
//! subrun primitive), peer views of runs `ρ@p`, and a random simulator.
//!
//! The deployment layer makes the master-server sketch of the paper's
//! Conclusion fault tolerant. There is one deployment type, the
//! [`ShardPlane`]: with one shard it is the single master server, with N it
//! is a sharded, replicated state plane with HLC-stamped oplogs, snapshot
//! hand-off, and failover ([`shard`]). Around it sit a checksummed
//! write-ahead log with snapshot recovery ([`wal`]), unreliable delivery
//! with acknowledgement, retry, and snapshot resync ([`transport`],
//! [`delivery`]), and deterministic fault injection — including link-level
//! partitions — for testing it all ([`fault`]) — stress-tested end to end
//! by a seeded chaos harness with invariant oracles and trace minimization
//! ([`chaos`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod codec;
pub mod delivery;
pub mod error;
pub mod eval;
pub mod event;
pub mod fault;
pub mod nf_runs;
pub mod prov;
pub mod run;
pub mod shard;
pub mod simulate;
pub mod stats;
pub mod transition;
pub mod transport;
pub mod view_plane;
pub mod wal;

pub use codec::{decode_event, decode_events, encode_event, encode_run, load_run, CodecError};
pub use delivery::{Delivery, DeliveryConfig, MaterializedView};
pub use error::{CoordinatorError, EngineError, WalError};
pub use eval::{check_body, match_body, Bindings};
pub use event::{Event, GroundUpdate};
pub use fault::FaultPlan;
pub use nf_runs::{from_normal_form, to_normal_form, NfTranslateError};
pub use prov::ProvPlane;
pub use run::{Cursor, EventView, ReplayError, Run, RunView, Step, ViewStep};
pub use shard::{
    FailoverReport, Hlc, HlcStamp, MigrationKind, MigrationPlan, Oplog, OplogEntry,
    ShardConvergence, ShardId, ShardMap, ShardOp, ShardPlane, ShardPlaneConfig, ShardPlaneStats,
};
pub use simulate::{candidates, complete, Candidate, Simulator};
pub use stats::{FtStats, PeerStats, RunStats, ShardAdmissionStats};
pub use transition::{
    apply_event, apply_event_in_place, apply_event_with_view, apply_updates,
    apply_updates_in_place, event_visible, view_of, Applied, Effect,
};
pub use transport::{Ack, FaultyTransport, InjectedFaults, PeerMsg, PerfectTransport, Transport};
pub use view_plane::{materialize_view, peer_delta, ViewDelta, ViewPlane};
pub use wal::{
    FileBackend, IoFaultBackend, IoFaults, MemBackend, Recovered, RecoveryReport, SyncPolicy, Wal,
    WalBackend, WalOptions,
};
