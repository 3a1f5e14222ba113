//! The physical-design setting: how often the store checkpoints.

use std::fmt;
use std::num::NonZeroUsize;

/// The error from [`CheckpointPolicy::every_k`] for a zero interval.
///
/// Checkpointing "every 0 versions" has no coherent meaning; earlier
/// revisions silently clamped it to 1, which masked caller bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroCheckpointInterval;

impl fmt::Display for ZeroCheckpointInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("checkpoint interval must be at least 1 (use CheckpointPolicy::Never to disable checkpoints)")
    }
}

impl std::error::Error for ZeroCheckpointInterval {}

/// How often the store materializes a full checkpoint: the one
/// physical-design setting. `every_k(1)` holds every version in full
/// (what a full-copy store would), `Never` holds only the first and the
/// newest (until compaction pins more), and intervals between trade
/// space for replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never checkpoint at append time: deltas only, beside whatever
    /// full state the chain itself needs.
    Never,
    /// A full state every `k` versions. The payload is non-zero by
    /// construction; build it with [`CheckpointPolicy::every_k`].
    EveryK(NonZeroUsize),
}

impl CheckpointPolicy {
    /// A policy that checkpoints every `k` versions, rejecting `k = 0`
    /// instead of guessing what it meant.
    pub fn every_k(k: usize) -> Result<CheckpointPolicy, ZeroCheckpointInterval> {
        NonZeroUsize::new(k)
            .map(CheckpointPolicy::EveryK)
            .ok_or(ZeroCheckpointInterval)
    }

    /// Whether version number `index` (0-based) should be a checkpoint.
    pub fn is_checkpoint(self, index: usize) -> bool {
        match self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryK(k) => index.is_multiple_of(k.get()),
        }
    }
}

/// `every 16`, or `never`: how the CLI and the experiments name a policy.
impl fmt::Display for CheckpointPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointPolicy::Never => f.write_str("never"),
            CheckpointPolicy::EveryK(k) => write!(f, "every {k}"),
        }
    }
}

/// The one physical design, kept as a type only because the benchmark
/// harness (`benchmark/src/load.rs`) still names it when it builds an
/// engine ([`crate::Engine::new`]) or recovers one
/// ([`crate::recovery::recover`]); both ignore the value. The store is a
/// [`crate::DeltaStore`] whose [`CheckpointPolicy`] is the only setting,
/// and `CheckpointPolicy::every_k(1)` holds every version in full. The
/// next change to the benchmark drops the argument and this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`crate::DeltaStore`]
    ForwardDelta,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_policy() {
        let p = CheckpointPolicy::every_k(4).unwrap();
        assert!(p.is_checkpoint(0));
        assert!(!p.is_checkpoint(3));
        assert!(p.is_checkpoint(4));
        assert!(p.is_checkpoint(8));
        assert!(!CheckpointPolicy::Never.is_checkpoint(0));
        assert!(!CheckpointPolicy::Never.is_checkpoint(100));
        assert_eq!(p.to_string(), "every 4");
        assert_eq!(CheckpointPolicy::Never.to_string(), "never");
    }

    /// The one kind instantiates the one store under every policy: an
    /// engine built from it starts empty and holds each committed version.
    #[test]
    fn backend_kinds_instantiate() {
        use txtime_core::{Command, Expr, RelationType};
        use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(1).unwrap(),
        ] {
            let mut e = crate::Engine::new(BackendKind::ForwardDelta, policy);
            assert_eq!(e.tx().0, 0, "{policy}");
            assert!(e.relations().is_empty(), "{policy}");
            e.execute(&Command::define_relation("r", RelationType::Rollback))
                .unwrap();
            for v in 1..=3 {
                let state =
                    SnapshotState::from_rows(schema.clone(), [vec![Value::Int(v)]]).unwrap();
                e.execute(&Command::modify_state("r", Expr::snapshot_const(state)))
                    .unwrap();
            }
            assert_eq!(e.version_count("r"), Some(3), "{policy}");
        }
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let err = CheckpointPolicy::every_k(0).unwrap_err();
        assert_eq!(err, ZeroCheckpointInterval);
        assert!(err.to_string().contains("at least 1"));
    }
}
