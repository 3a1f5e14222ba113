//! The write-ahead log: a textual journal of mutating commands.
//!
//! The log format is the language's own surface syntax, one command per
//! line (the pretty-printer escapes newlines inside string literals, so a
//! command is always a single line), prefixed by an FNV-1a checksum of
//! the command text:
//!
//! ```text
//! a63bc9b2e1ef3c04 define_relation(emp, rollback);
//! 4c8f02d19a77be5d modify_state(emp, {(name: str): ("alice")});
//! ```
//!
//! Using the surface syntax as the journal format means recovery is
//! *replay*: parse each line and re-execute it. Correctness then follows
//! from the determinism of the semantics — the same command sequence from
//! the empty database yields the same database (§3.6).

use std::io::{BufRead, Write};

use txtime_core::Command;
use txtime_parser::print::write_command;

/// 64-bit FNV-1a, used as a line checksum (corruption detection, not
/// cryptographic integrity).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Appends one command to the journal: the line is built in one buffer
/// and handed to the sink with one write.
pub fn append_command(out: &mut impl Write, cmd: &Command) -> std::io::Result<()> {
    // Room for an update commit's line without regrowing.
    let mut line = String::with_capacity(256);
    push_line(&mut line, cmd);
    out.write_all(line.as_bytes())
}

/// Appends a group of commands as one contiguous write: every line is
/// formatted into a single buffer first and handed to the sink with one
/// `write_all`, so a group commit pays one system call — and, at the
/// caller's choosing, one fsync — for the whole batch. The journal
/// contents are byte-identical to appending the commands one at a time.
pub fn append_commands<'a>(
    out: &mut impl Write,
    cmds: impl IntoIterator<Item = &'a Command>,
) -> std::io::Result<()> {
    let mut buf = String::new();
    for cmd in cmds {
        push_line(&mut buf, cmd);
    }
    out.write_all(buf.as_bytes())
}

/// Appends `cmd`'s journal line to `buf`: `{checksum:016x} {text};\n`.
/// The text is printed in place after a placeholder that its checksum
/// then overwrites.
fn push_line(buf: &mut String, cmd: &Command) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let start = buf.len();
    buf.push_str("0000000000000000 ");
    let text = buf.len();
    write_command(buf, cmd);
    buf.push(';');
    let sum = fnv1a(&buf.as_bytes()[text..]);
    let mut digits = [0u8; 16];
    for (k, d) in digits.iter_mut().enumerate() {
        *d = HEX[(sum >> (60 - 4 * k)) as usize & 0xf];
    }
    let digits = std::str::from_utf8(&digits).expect("hex digits are ASCII");
    buf.replace_range(start..start + 16, digits);
    buf.push('\n');
}

/// A recovered journal entry or the reason it was rejected.
#[derive(Debug)]
pub enum WalEntry {
    /// A verified, parsed command.
    Command(Command),
    /// A line whose checksum or syntax was invalid (with the 1-based line
    /// number and a description).
    Corrupt {
        /// 1-based line number in the journal.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

/// Classifies one raw journal line (terminator included, if present):
/// `Ok(None)` = blank, `Ok(Some(cmd))` = verified command, `Err(reason)`
/// = corrupt.
fn classify_line(raw: &[u8]) -> Result<Option<Command>, String> {
    let Ok(line) = std::str::from_utf8(raw) else {
        return Err("invalid UTF-8".into());
    };
    let line = line.trim_end_matches('\n');
    if line.trim().is_empty() {
        return Ok(None);
    }
    let Some((sum, text)) = line.split_once(' ') else {
        return Err("missing checksum field".into());
    };
    let Ok(expected) = u64::from_str_radix(sum, 16) else {
        return Err("malformed checksum".into());
    };
    if fnv1a(text.as_bytes()) != expected {
        return Err("checksum mismatch".into());
    }
    match txtime_parser::parse_command(text.trim_end_matches(';')) {
        Ok(cmd) => Ok(Some(cmd)),
        Err(e) => Err(format!("parse error: {e}")),
    }
}

/// Reads a journal, yielding verified commands and flagging corrupt
/// lines. Blank lines are ignored; bytes that are not valid UTF-8 (torn
/// or overwritten sectors) flag the line as corrupt rather than aborting
/// recovery.
pub fn read_journal(mut input: impl BufRead) -> std::io::Result<Vec<WalEntry>> {
    let mut out = Vec::new();
    let mut lineno = 0;
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        lineno += 1;
        match classify_line(&raw) {
            Ok(None) => {}
            Ok(Some(cmd)) => out.push(WalEntry::Command(cmd)),
            Err(reason) => out.push(WalEntry::Corrupt {
                line: lineno,
                reason,
            }),
        }
    }
    Ok(out)
}

/// Truncates the journal at `path` to its verified prefix: every byte
/// from the first corrupt line on is dropped, and a verified final line
/// missing its `\n` terminator (a torn write that stopped a byte short)
/// is terminated in place. Returns the number of bytes dropped.
///
/// This is the repair that makes *recover, then append* safe. Recovery's
/// prefix discipline replays nothing after the first corrupt line, so
/// any process that reopens a torn journal in append mode would write
/// new — acked, fsynced — commits after dead bytes; the next recovery
/// would then discard them all. Truncating to the replayed prefix first
/// means appends always extend exactly the history that was recovered.
pub fn truncate_to_verified_prefix(path: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
    use std::io::{Seek, SeekFrom};
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path.as_ref())?;
    let total = file.metadata()?.len();
    let mut verified_end: u64 = 0;
    let mut unterminated_tail = false;
    {
        let mut reader = std::io::BufReader::new(&mut file);
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if reader.read_until(b'\n', &mut raw)? == 0 {
                break;
            }
            if classify_line(&raw).is_err() {
                break;
            }
            verified_end += raw.len() as u64;
            unterminated_tail = raw.last() != Some(&b'\n');
        }
    }
    let dropped = total - verified_end;
    if dropped > 0 {
        file.set_len(verified_end)?;
    }
    if unterminated_tail {
        // The checksum covers the text only, so supplying the missing
        // terminator re-validates the line without altering the command.
        file.seek(SeekFrom::End(0))?;
        file.write_all(b"\n")?;
    }
    if dropped > 0 || unterminated_tail {
        file.sync_all()?;
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use txtime_core::RelationType;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn journal_round_trip() {
        let cmds = vec![
            Command::define_relation("emp", RelationType::Rollback),
            Command::delete_relation("emp"),
        ];
        let mut buf = Vec::new();
        for c in &cmds {
            append_command(&mut buf, c).unwrap();
        }
        let entries = read_journal(Cursor::new(buf)).unwrap();
        assert_eq!(entries.len(), 2);
        for (e, c) in entries.iter().zip(&cmds) {
            match e {
                WalEntry::Command(got) => assert_eq!(got, c),
                WalEntry::Corrupt { reason, .. } => panic!("corrupt: {reason}"),
            }
        }
    }

    #[test]
    fn group_append_is_byte_identical_to_singles() {
        let cmds = vec![
            Command::define_relation("emp", RelationType::Rollback),
            Command::define_relation("dept", RelationType::Snapshot),
            Command::delete_relation("dept"),
        ];
        let mut singles = Vec::new();
        for c in &cmds {
            append_command(&mut singles, c).unwrap();
        }
        let mut grouped = Vec::new();
        append_commands(&mut grouped, &cmds).unwrap();
        assert_eq!(singles, grouped);
        let entries = read_journal(Cursor::new(grouped)).unwrap();
        assert_eq!(entries.len(), 3);
        for (e, c) in entries.iter().zip(&cmds) {
            match e {
                WalEntry::Command(got) => assert_eq!(got, c),
                WalEntry::Corrupt { reason, .. } => panic!("corrupt: {reason}"),
            }
        }
    }

    /// The exact bytes of one journal line, pinned: a string with every
    /// escape, a negative real, a historical constant and `inf`. The
    /// checksum and the text were produced by the `format!`-based printer
    /// the one-buffer line writer replaced.
    #[test]
    fn journal_line_golden() {
        let cmd = txtime_parser::parse_command(
            r#"modify_state(h, hrho(h, inf) hunion historical {(s: str, r: real): ("say \"hi\"\\\n\tend", -2.5) @ {[0, 5), [9, forever)}})"#,
        )
        .unwrap();
        let mut line = Vec::new();
        append_command(&mut line, &cmd).unwrap();
        assert_eq!(
            String::from_utf8(line).unwrap(),
            concat!(
                "810ee179173bf9ee modify_state(h, (hrho(h, inf) hunion historical ",
                r#"{(s: str, r: real): ("say \"hi\"\\\n\tend", -2.5) @ {[0, 5), [9, forever)}}));"#,
                "\n"
            )
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        append_command(
            &mut buf,
            &Command::define_relation("e", RelationType::Snapshot),
        )
        .unwrap();
        // Flip a byte in the command text.
        let pos = buf.len() - 3;
        buf[pos] ^= 0x01;
        let entries = read_journal(Cursor::new(buf)).unwrap();
        assert!(matches!(entries[0], WalEntry::Corrupt { line: 1, .. }));
    }

    #[test]
    fn garbage_lines_are_flagged_not_fatal() {
        let data = b"nonsense\n".to_vec();
        let entries = read_journal(Cursor::new(data)).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(matches!(entries[0], WalEntry::Corrupt { .. }));
    }

    #[test]
    fn blank_lines_are_ignored() {
        let entries = read_journal(Cursor::new(b"\n\n".to_vec())).unwrap();
        assert!(entries.is_empty());
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("txtime-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn truncation_drops_the_corrupt_tail_and_keeps_appends_recoverable() {
        let path = tmpfile("truncate-tail");
        let mut buf = Vec::new();
        append_command(
            &mut buf,
            &Command::define_relation("e", RelationType::Rollback),
        )
        .unwrap();
        let good_len = buf.len() as u64;
        // A torn final write: half a line of garbage, no terminator.
        buf.extend_from_slice(b"deadbeef torn garb");
        std::fs::write(&path, &buf).unwrap();

        let dropped = truncate_to_verified_prefix(&path).unwrap();
        assert_eq!(dropped, 18);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);

        // The append-after-repair story: a new command lands on a fresh
        // line and a second recovery replays BOTH commands — the exact
        // acked-write-loss scenario the repair exists to prevent.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        append_command(&mut file, &Command::delete_relation("e")).unwrap();
        drop(file);
        let entries = read_journal(Cursor::new(std::fs::read(&path).unwrap())).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(
            entries.iter().all(|e| matches!(e, WalEntry::Command(_))),
            "{entries:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_terminates_a_valid_unterminated_final_line() {
        let path = tmpfile("truncate-unterminated");
        let mut buf = Vec::new();
        append_command(
            &mut buf,
            &Command::define_relation("e", RelationType::Rollback),
        )
        .unwrap();
        // Tear off only the final newline: the line still verifies, but a
        // naive append would merge the next entry into it.
        buf.pop();
        std::fs::write(&path, &buf).unwrap();

        assert_eq!(truncate_to_verified_prefix(&path).unwrap(), 0);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        append_command(&mut file, &Command::delete_relation("e")).unwrap();
        drop(file);
        let entries = read_journal(Cursor::new(std::fs::read(&path).unwrap())).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(
            entries.iter().all(|e| matches!(e, WalEntry::Command(_))),
            "{entries:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_a_noop_on_a_clean_journal() {
        let path = tmpfile("truncate-clean");
        let mut buf = Vec::new();
        append_command(
            &mut buf,
            &Command::define_relation("e", RelationType::Rollback),
        )
        .unwrap();
        append_command(&mut buf, &Command::delete_relation("e")).unwrap();
        std::fs::write(&path, &buf).unwrap();
        assert_eq!(truncate_to_verified_prefix(&path).unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), buf);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_utf8_is_corruption_not_io_failure() {
        let mut buf = Vec::new();
        append_command(
            &mut buf,
            &Command::define_relation("e", RelationType::Snapshot),
        )
        .unwrap();
        buf.extend_from_slice(&[0xff, 0xfe, 0x00, b'\n']);
        let entries = read_journal(Cursor::new(buf)).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(matches!(entries[0], WalEntry::Command(_)));
        assert!(matches!(
            &entries[1],
            WalEntry::Corrupt { line: 2, reason } if reason.contains("UTF-8")
        ));
    }
}
