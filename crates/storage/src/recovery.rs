//! Crash recovery: rebuild an engine by replaying the write-ahead log.

use std::io::BufReader;
use std::path::Path;

use txtime_core::CoreError;

use crate::backend::{BackendKind, CheckpointPolicy};
use crate::engine::Engine;
use crate::wal::{read_journal, WalEntry};

/// The outcome of a recovery run.
pub struct Recovery {
    /// The rebuilt engine, with no WAL attached: a caller that goes on
    /// writing attaches one ([`Engine::attach_wal`], as `txtime serve`
    /// does).
    pub engine: Engine,
    /// Number of commands replayed.
    pub replayed: usize,
    /// Corrupt journal lines that were skipped (line number, reason).
    /// A torn final line — the classic crash artifact — appears here.
    pub skipped: Vec<(usize, String)>,
}

/// Rebuilds an engine from the journal at `path`.
///
/// Replay applies the *prefix discipline*: entries are replayed in order
/// until the first corrupt line; everything after a corrupt line is
/// discarded (a torn write invalidates the tail, not just the line).
///
/// The [`BackendKind`] names the one store there is and is ignored; it
/// stays until the benchmark harness stops passing it.
pub fn recover(
    path: impl AsRef<Path>,
    backend: BackendKind,
    checkpoints: CheckpointPolicy,
) -> Result<Recovery, CoreError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| CoreError::SchemeChange(format!("cannot open WAL: {e}")))?;
    let entries = read_journal(BufReader::new(file))
        .map_err(|e| CoreError::SchemeChange(format!("cannot read WAL: {e}")))?;

    let mut engine = Engine::new(backend, checkpoints);
    let mut replayed = 0;
    let mut skipped = Vec::new();
    for entry in entries {
        match entry {
            WalEntry::Command(cmd) => {
                engine.execute(&cmd)?;
                replayed += 1;
            }
            WalEntry::Corrupt { line, reason } => {
                skipped.push((line, reason));
                // Prefix discipline: stop at the first torn/corrupt line.
                break;
            }
        }
    }
    Ok(Recovery {
        engine,
        replayed,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_core::{Command, Expr, RelationType, TransactionNumber, TxSpec};
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    fn snap(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("txtime-recovery-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn recovery_rebuilds_full_history() {
        let path = tmpfile("rebuild");
        {
            let mut e = Engine::with_wal(CheckpointPolicy::every_k(2).unwrap(), &path).unwrap();
            e.execute(&Command::define_relation("r", RelationType::Rollback))
                .unwrap();
            for v in [vec![1], vec![1, 2], vec![3]] {
                e.execute(&Command::modify_state("r", Expr::snapshot_const(snap(&v))))
                    .unwrap();
            }
            // Engine dropped here: the "crash".
        }
        let rec = recover(
            &path,
            BackendKind::ForwardDelta,
            CheckpointPolicy::every_k(2).unwrap(),
        )
        .unwrap();
        assert_eq!(rec.replayed, 4);
        assert!(rec.skipped.is_empty());
        let e = rec.engine;
        assert_eq!(e.tx(), TransactionNumber(4));
        assert_eq!(
            e.eval(&Expr::current("r"))
                .unwrap()
                .into_snapshot()
                .unwrap(),
            snap(&[3])
        );
        assert_eq!(
            e.eval(&Expr::rollback("r", TxSpec::At(TransactionNumber(2))))
                .unwrap()
                .into_snapshot()
                .unwrap(),
            snap(&[1])
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmpfile("torn");
        {
            let mut e = Engine::with_wal(CheckpointPolicy::Never, &path).unwrap();
            e.execute(&Command::define_relation("r", RelationType::Rollback))
                .unwrap();
            e.execute(&Command::modify_state(
                "r",
                Expr::snapshot_const(snap(&[1])),
            ))
            .unwrap();
        }
        // Simulate a torn final write.
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(data.len() - 5);
        std::fs::write(&path, data).unwrap();

        let rec = recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::Never).unwrap();
        assert_eq!(rec.replayed, 1); // only the define survived intact
        assert_eq!(rec.skipped.len(), 1);
        assert_eq!(rec.engine.tx(), TransactionNumber(1));
        let _ = std::fs::remove_file(&path);
    }

    /// A real the parser accepts must come back from the journal: its
    /// line is printed without an exponent, so it re-parses, and the
    /// prefix discipline does not drop it and every later commit.
    #[test]
    fn a_tiny_real_survives_recovery_with_what_follows() {
        let path = tmpfile("tiny-real");
        let expected = {
            let mut e = Engine::with_wal(CheckpointPolicy::Never, &path).unwrap();
            for text in [
                "define_relation(r, rollback)",
                "modify_state(r, {(x: real): (0.0000001)})",
                "modify_state(r, rho(r, inf) union {(x: real): (2.5)})",
            ] {
                e.execute(&txtime_parser::parse_command(text).unwrap())
                    .unwrap();
            }
            e.eval(&Expr::current("r")).unwrap()
        };
        let rec = recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::Never).unwrap();
        assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.engine.eval(&Expr::current("r")).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn display_commands_are_not_journaled() {
        let path = tmpfile("display");
        {
            let mut e = Engine::with_wal(CheckpointPolicy::Never, &path).unwrap();
            e.execute(&Command::define_relation("r", RelationType::Rollback))
                .unwrap();
            e.execute(&Command::modify_state(
                "r",
                Expr::snapshot_const(snap(&[1])),
            ))
            .unwrap();
            e.execute(&Command::display(Expr::current("r"))).unwrap();
        }
        let rec = recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::Never).unwrap();
        assert_eq!(rec.replayed, 2);
        let _ = std::fs::remove_file(&path);
    }
}
