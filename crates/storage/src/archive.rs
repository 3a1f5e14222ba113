//! Archival of old versions — the paper's "migrate rollback relations to
//! tape".
//!
//! §3.1 assumes relations live forever but notes "the database
//! administrator will have additional facilities to migrate rollback
//! relations to tape". [`Engine::archive_before`] is that facility: it
//! writes the versions older than a cutoff to a textual archive script
//! (replayable through the parser into a fresh database) and truncates
//! the live store, after which rollbacks older than the cutoff report
//! `EvalError::EmptyRelation`-style misses (`state_at` → `None`) instead
//! of answering.

use std::io::Write;
use std::path::{Path, PathBuf};

use txtime_core::{CoreError, StateValue, TransactionNumber};
use txtime_parser::print::{print_historical_state, print_snapshot_state};

use crate::engine::Engine;

/// What an archive operation did.
#[derive(Debug)]
pub struct ArchiveReport {
    /// Versions written out and removed from the live store.
    pub archived: usize,
    /// The archive script, if a path was given.
    pub file: Option<PathBuf>,
}

impl Engine {
    /// Archives every version of `ident` strictly older than the version
    /// current at `before`: the archived versions are appended to the
    /// script at `path` (if given) as replayable `modify_state` commands,
    /// then dropped from the live store.
    ///
    /// The version current at `before` itself is retained, so
    /// `ρ(ident, before)` still answers exactly as before; only strictly
    /// older rollbacks lose their targets.
    pub fn archive_before(
        &mut self,
        ident: &str,
        before: TransactionNumber,
        path: Option<&Path>,
    ) -> Result<ArchiveReport, CoreError> {
        let victims = self.versions_before(ident, before)?;
        if victims.is_empty() {
            return Ok(ArchiveReport {
                archived: 0,
                file: path.map(Path::to_path_buf),
            });
        }
        if let Some(path) = path {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| CoreError::SchemeChange(format!("cannot open archive: {e}")))?;
            for (state, tx) in &victims {
                write_archived_version(&mut file, ident, state, *tx)
                    .map_err(|e| CoreError::SchemeChange(format!("archive write failed: {e}")))?;
            }
        }
        let dropped = self.truncate_before(ident, before)?;
        debug_assert_eq!(dropped, victims.len());
        Ok(ArchiveReport {
            archived: dropped,
            file: path.map(Path::to_path_buf),
        })
    }
}

fn write_archived_version(
    out: &mut impl Write,
    ident: &str,
    state: &StateValue,
    tx: TransactionNumber,
) -> std::io::Result<()> {
    writeln!(out, "-- archived version of {ident} committed at tx {tx}")?;
    match state {
        StateValue::Snapshot(s) => {
            writeln!(out, "modify_state({ident}, {});", print_snapshot_state(s))
        }
        StateValue::Historical(h) => writeln!(
            out,
            "modify_state({ident}, historical {});",
            print_historical_state(h)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_core::{Command, Expr, RelationType, StateSource, TxSpec};
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    use crate::backend::{BackendKind, CheckpointPolicy};

    fn snap(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    fn engine(backend: BackendKind) -> Engine {
        let mut e = Engine::new(backend, CheckpointPolicy::every_k(2).unwrap());
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        for v in 1..=6i64 {
            e.execute(&Command::modify_state(
                "r",
                Expr::snapshot_const(snap(&[v])),
            ))
            .unwrap();
        }
        e // versions at tx 2..=7
    }

    #[test]
    fn archive_preserves_cutoff_and_later_on_all_backends() {
        for backend in BackendKind::ALL {
            let mut e = engine(backend);
            let report = e.archive_before("r", TransactionNumber(5), None).unwrap();
            assert_eq!(report.archived, 3, "{backend}"); // tx 2, 3, 4

            // The floor version (tx 5) and everything later still answer.
            for tx in 5..=7 {
                let s = e
                    .resolve_rollback("r", TxSpec::At(TransactionNumber(tx)), false)
                    .unwrap_or_else(|err| panic!("{backend} at tx {tx}: {err}"));
                assert_eq!(s.into_snapshot().unwrap(), snap(&[tx as i64 - 1]));
            }
            // Strictly older targets now miss.
            for tx in 2..5 {
                let r = e.resolve_rollback("r", TxSpec::At(TransactionNumber(tx)), false);
                if let Ok(s) = r {
                    assert!(
                        s.is_empty(),
                        "{backend} at tx {tx} returned data after archival"
                    )
                }
            }
            assert_eq!(e.version_count("r"), Some(3));
        }
    }

    #[test]
    fn interpolated_cutoff_keeps_floor_version() {
        // Cutoff between commits: the floor version must survive.
        let mut e = engine(BackendKind::FullCopy);
        // No commit at tx 10; floor of 10 is tx 7 (the last version).
        let report = e.archive_before("r", TransactionNumber(10), None).unwrap();
        assert_eq!(report.archived, 5);
        assert_eq!(e.version_count("r"), Some(1));
        assert_eq!(
            e.resolve_rollback("r", TxSpec::Current, false)
                .unwrap()
                .into_snapshot()
                .unwrap(),
            snap(&[6])
        );
    }

    #[test]
    fn archive_script_is_replayable() {
        let dir = std::env::temp_dir().join("txtime-archive-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("arch-{}.txq", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut e = engine(BackendKind::ForwardDelta);
        let report = e
            .archive_before("r", TransactionNumber(5), Some(&path))
            .unwrap();
        assert_eq!(report.archived, 3);

        // The archive is a valid script: prepend a define and replay it.
        let text = format!(
            "define_relation(r, rollback);\n{}",
            std::fs::read_to_string(&path).unwrap()
        );
        let db = txtime_parser::parse_sentence(&text)
            .unwrap()
            .eval()
            .unwrap();
        let rel = db.state.lookup("r").unwrap();
        assert_eq!(rel.versions().len(), 3);
        assert_eq!(rel.versions()[0].state.as_snapshot().unwrap(), &snap(&[1]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn archive_before_first_version_is_a_noop() {
        let mut e = engine(BackendKind::ForwardDelta);
        let report = e.archive_before("r", TransactionNumber(1), None).unwrap();
        assert_eq!(report.archived, 0);
        assert_eq!(e.version_count("r"), Some(6));
    }

    #[test]
    fn archive_on_snapshot_relation_is_a_noop() {
        let mut e = Engine::new(BackendKind::FullCopy, CheckpointPolicy::Never);
        e.execute(&Command::define_relation("s", RelationType::Snapshot))
            .unwrap();
        e.execute(&Command::modify_state(
            "s",
            Expr::snapshot_const(snap(&[1])),
        ))
        .unwrap();
        let report = e.archive_before("s", TransactionNumber(99), None).unwrap();
        assert_eq!(report.archived, 0);
        assert!(e.resolve_rollback("s", TxSpec::Current, false).is_ok());
    }

    #[test]
    fn archive_unknown_relation_errors() {
        let mut e = Engine::new(BackendKind::FullCopy, CheckpointPolicy::Never);
        assert!(e
            .archive_before("ghost", TransactionNumber(1), None)
            .is_err());
    }
}
