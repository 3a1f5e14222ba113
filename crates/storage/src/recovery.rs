//! Crash recovery: rebuild an engine by replaying the write-ahead log.

use std::io::BufReader;
use std::path::Path;

use txtime_core::{Command, CoreError};

use crate::backend::{BackendKind, CheckpointPolicy};
use crate::engine::Engine;
use crate::wal::{JournalReader, VerifiedPrefix};

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
    /// The journal prefix that was replayed: a caller about to append
    /// cuts the journal to it ([`crate::wal::cut_to_prefix`]) without
    /// reading the journal again.
    pub prefix: VerifiedPrefix,
}

/// Rebuilds an engine from the journal at `path`.
///
/// Replay applies the *prefix discipline*: entries are replayed in order
/// until the first corrupt line; everything after a corrupt line is
/// discarded (a torn write invalidates the tail, not just the line).
/// The journal streams: each line is verified, parsed and executed
/// before the next is read, so recovery holds one command in memory,
/// not the journal.
///
/// The [`BackendKind`] names the one store there is and is ignored; it
/// stays until the benchmark harness stops passing it.
pub fn recover(
    path: impl AsRef<Path>,
    backend: BackendKind,
    checkpoints: CheckpointPolicy,
) -> Result<Recovery, CoreError> {
    recover_with(path, backend, checkpoints, |_| {})
}

/// [`recover`], handing `visit` each command once it has replayed — what
/// a caller that keeps state alongside the engine (`txtime run`'s static
/// checker) follows the journal with, without reading it again. A
/// corrupt line, and everything after it, never reaches `visit`.
pub fn recover_with(
    path: impl AsRef<Path>,
    backend: BackendKind,
    checkpoints: CheckpointPolicy,
    mut visit: impl FnMut(&Command),
) -> Result<Recovery, CoreError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| CoreError::SchemeChange(format!("cannot open WAL: {e}")))?;
    let mut engine = Engine::new(backend, checkpoints);
    let mut replayed = 0;
    let mut skipped = Vec::new();
    let mut prefix = VerifiedPrefix::default();
    for line in JournalReader::new(BufReader::new(file)) {
        let line = line.map_err(|e| CoreError::SchemeChange(format!("cannot read WAL: {e}")))?;
        match &line.entry {
            Ok(None) => {}
            Ok(Some(cmd)) => {
                engine.execute(cmd)?;
                visit(cmd);
                replayed += 1;
            }
            Err(reason) => {
                skipped.push((line.number, reason.clone()));
                // Prefix discipline: stop at the first torn/corrupt line.
                break;
            }
        }
        prefix.extend(&line);
    }
    Ok(Recovery {
        engine,
        replayed,
        skipped,
        prefix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{self, read_journal, WalEntry};
    use txtime_core::{Expr, RelationType, TransactionNumber, TxSpec};
    use txtime_snapshot::rng::rngs::StdRng;
    use txtime_snapshot::rng::{Rng, SeedableRng};
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

    /// A generated journal: three relations (two rollback, one
    /// temporal), literals, and the delta-path shapes a commit folds
    /// (update, append, delete, historical union) — `lines` commands.
    fn generated_journal(rng: &mut StdRng, lines: usize) -> Vec<u8> {
        let mut text = vec![
            "define_relation(r0, rollback)".to_string(),
            "define_relation(r1, rollback)".to_string(),
            "define_relation(h, temporal)".to_string(),
            "modify_state(r0, {(x: int, y: str): (1, \"a\"), (2, \"b\"), (3, \"c\")})".into(),
            "modify_state(r1, {(x: int, y: str): (4, \"d\")})".into(),
            "modify_state(h, historical {(x: int): (1) @ {[0, 5)}})".into(),
        ];
        while text.len() < lines {
            let r = ["r0", "r1"][rng.gen_range(0..2usize)];
            let (x, y, z) = (
                rng.gen_range(0..12),
                rng.gen_range(0..4),
                rng.gen_range(0..20),
            );
            text.push(match rng.gen_range(0..5) {
                0 => format!(
                    "modify_state({r}, (rho({r}, inf) minus select[x = {x}](rho({r}, inf))) \
                     union {{(x: int, y: str): ({x}, \"v{y}\")}})"
                ),
                1 => format!("modify_state({r}, rho({r}, inf) union {{(x: int, y: str): ({x}, \"w{y}\")}})"),
                2 => format!("modify_state({r}, rho({r}, inf) minus select[x < {x}](rho({r}, inf)))"),
                3 => format!("modify_state({r}, {{(x: int, y: str): ({x}, \"u{y}\")}})"),
                _ => format!(
                    "modify_state(h, hrho(h, inf) hunion historical {{(x: int): ({x}) @ {{[{z}, {})}}}})",
                    z + 3
                ),
            });
        }
        let mut journal = Vec::new();
        for line in &text {
            wal::append_command(&mut journal, &txtime_parser::parse_command(line).unwrap())
                .unwrap();
        }
        journal
    }

    /// `journal` damaged the ways a crash or a bad sector leaves one,
    /// chosen by `how`, at a random line (or not at all).
    fn damaged(rng: &mut StdRng, mut journal: Vec<u8>, how: usize) -> Vec<u8> {
        let starts: Vec<usize> = std::iter::once(0)
            .chain(
                journal
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .filter(|&i| i < journal.len())
            .collect();
        let at = starts[rng.gen_range(0..starts.len())];
        match how {
            // A flipped byte in one line's text: checksum mismatch.
            0 => journal[at + 20] ^= 0x01,
            // A torn tail: the write stopped inside a line.
            1 => journal.truncate(at + 9),
            // Garbage in place of a line, and a blank line before it.
            2 => {
                let end = at + journal[at..].iter().position(|&b| b == b'\n').unwrap();
                journal.splice(at..end, b"\nnonsense".iter().copied());
            }
            // Only the last terminator torn off: the line still verifies.
            3 => {
                journal.pop();
            }
            // Bytes that are not UTF-8.
            4 => journal.splice(at..at, [0xff, 0xfe, b'\n']).for_each(drop),
            _ => {}
        }
        journal
    }

    /// Every state every relation held, at every transaction, as the
    /// engine answers (errors included).
    fn every_state(engine: &Engine) -> Vec<String> {
        let mut out = Vec::new();
        for t in 0..=engine.tx().0 {
            let at = TxSpec::At(TransactionNumber(t));
            for name in ["r0", "r1"] {
                out.push(format!("{:?}", engine.eval(&Expr::rollback(name, at))));
            }
            out.push(format!("{:?}", engine.eval(&Expr::hrollback("h", at))));
        }
        out
    }

    /// Streaming recovery is the journal read whole and then executed in
    /// order, with the prefix discipline: on generated journals damaged
    /// at a random line, both agree on the commands replayed, the lines
    /// skipped, the clock and every state; and cutting the journal to the
    /// prefix recovery reports leaves exactly the bytes
    /// `truncate_to_verified_prefix` leaves.
    #[test]
    fn streaming_recovery_matches_read_then_execute() {
        let mut rng = StdRng::seed_from_u64(1723);
        let (path, twin) = (tmpfile("stream"), tmpfile("stream-twin"));
        for round in 0..48 {
            let lines = rng.gen_range(6..40);
            let journal = generated_journal(&mut rng, lines);
            let journal = damaged(&mut rng, journal, round % 6);
            std::fs::write(&path, &journal).unwrap();
            let policy = CheckpointPolicy::every_k(1 + round % 4).unwrap();

            let rec = recover(&path, BackendKind::ForwardDelta, policy).unwrap();
            let entries =
                read_journal(BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
            let mut engine = Engine::new(BackendKind::ForwardDelta, policy);
            let (mut replayed, mut skipped) = (0, Vec::new());
            for entry in entries {
                match entry {
                    WalEntry::Command(cmd) => {
                        engine.execute(&cmd).unwrap();
                        replayed += 1;
                    }
                    WalEntry::Corrupt { line, reason } => {
                        skipped.push((line, reason));
                        break;
                    }
                }
            }
            assert_eq!(rec.replayed, replayed, "round {round}");
            assert_eq!(rec.skipped, skipped, "round {round}");
            assert_eq!(rec.engine.tx(), engine.tx(), "round {round}");
            assert_eq!(
                every_state(&rec.engine),
                every_state(&engine),
                "round {round}"
            );

            std::fs::write(&twin, &journal).unwrap();
            let dropped = wal::truncate_to_verified_prefix(&twin).unwrap();
            assert_eq!(wal::cut_to_prefix(&path, rec.prefix).unwrap(), dropped);
            assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&twin).unwrap());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&twin);
    }

    /// The cut from a recovery's prefix, on a clean journal, a torn one
    /// and one whose last line lost only its terminator, leaves exactly
    /// the bytes `truncate_to_verified_prefix` leaves: the clean journal.
    #[test]
    fn recovery_prefix_cut_matches_truncation() {
        let (path, twin) = (tmpfile("cut"), tmpfile("cut-twin"));
        let mut clean = Vec::new();
        for cmd in [
            Command::define_relation("r", RelationType::Rollback),
            Command::modify_state("r", Expr::snapshot_const(snap(&[1, 2]))),
        ] {
            wal::append_command(&mut clean, &cmd).unwrap();
        }
        let mut torn = clean.clone();
        torn.extend_from_slice(b"deadbeef torn garb");
        let mut unterminated = clean.clone();
        unterminated.pop();
        for (name, journal) in [
            ("clean", clean.clone()),
            ("torn", torn),
            ("unterminated", unterminated),
        ] {
            std::fs::write(&path, &journal).unwrap();
            std::fs::write(&twin, &journal).unwrap();
            let rec = recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::Never).unwrap();
            assert_eq!(rec.replayed, 2, "{name}");
            assert_eq!(
                wal::cut_to_prefix(&path, rec.prefix).unwrap(),
                wal::truncate_to_verified_prefix(&twin).unwrap(),
                "{name}"
            );
            assert_eq!(std::fs::read(&twin).unwrap(), clean, "{name}");
            assert_eq!(std::fs::read(&path).unwrap(), clean, "{name}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&twin);
    }
}
