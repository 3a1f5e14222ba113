#![warn(missing_docs)]

//! Efficient storage for rollback and temporal relations.
//!
//! The paper's semantics stores every state of a rollback relation in
//! full, and says so: "we have favored simplicity of semantics at the
//! expense of efficient direct implementation … However, the semantics do
//! not preclude more efficient implementations using optimization
//! strategies for both storage and retrieval of information" (§2), and
//! "actual implementations will vary considerably in the physical
//! structures used to encode the information on secondary storage.
//! However, the existence of a formal definition of database state allows
//! rigorous statements to be made concerning the correctness of those
//! structures" (§1).
//!
//! This crate supplies one such structure and makes the rigorous
//! statement executable. A [`DeltaStore`] holds the first and the
//! current state in full, one forward delta per transaction, and full
//! checkpoints at the positions its [`CheckpointPolicy`] names (and
//! wherever compaction pins one); a past version is replayed up from the
//! nearest full state below it. The checkpoint interval is the whole
//! physical design: `CheckpointPolicy::every_k(1)` holds every version in
//! full, the direct transcription of the semantics, and longer intervals
//! trade replay for space.
//!
//! [`Engine`] executes the language's commands against a catalog of such
//! stores, writes a textual WAL, and recovers from it; `equiv` provides
//! the differential harness proving the engine observationally equal to
//! the reference semantics under any policy.

pub mod archive;
pub mod backend;
pub mod cache;
pub mod delta;
pub mod delta_store;
pub mod engine;
pub mod equiv;
pub mod memo;
pub mod metrics;
pub mod recovery;
pub(crate) mod update;
pub mod wal;

pub use archive::ArchiveReport;
pub use backend::{BackendKind, CheckpointPolicy, ZeroCheckpointInterval};
pub use cache::{MaterializationCache, DEFAULT_CACHE_CAPACITY};
pub use delta::StateDelta;
pub use delta_store::DeltaStore;
pub use engine::{parse_auto_compact, Engine, ScriptError};
pub use equiv::check_equivalence;
pub use memo::{MemoDecision, StampSource, ViewRegistry, DEFAULT_MEMO_CAPACITY};
pub use metrics::{CacheStats, CompactionStats, InternerStats, SpaceReport};
pub use txtime_exec::{ExecPool, ExecStats, MemoStats, OpKind, OpStat};
