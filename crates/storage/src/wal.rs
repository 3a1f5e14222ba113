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

/// One line of a journal, as [`JournalReader`] reads it.
#[derive(Debug)]
pub(crate) struct JournalLine {
    /// 1-based line number.
    pub(crate) number: usize,
    /// The line's length in bytes, its terminator included.
    pub(crate) len: u64,
    /// Whether the line ends in its `\n`.
    pub(crate) terminated: bool,
    /// `Ok(None)` for a blank line, `Ok(Some(cmd))` for a verified
    /// command, `Err(reason)` for a corrupt line.
    pub(crate) entry: Result<Option<Command>, String>,
}

/// Reads a journal one line at a time, verifying and parsing each as it
/// comes: a reader holds one line in memory, never the journal. Bytes
/// that are not valid UTF-8 (torn or overwritten sectors) make the line
/// corrupt rather than failing the read.
pub(crate) struct JournalReader<R> {
    input: R,
    raw: Vec<u8>,
    number: usize,
}

impl<R: BufRead> JournalReader<R> {
    /// A reader over `input`, from its first line.
    pub(crate) fn new(input: R) -> JournalReader<R> {
        JournalReader {
            input,
            raw: Vec::new(),
            number: 0,
        }
    }
}

impl<R: BufRead> JournalReader<R> {
    /// Reads the next line into `raw`: through its `\n`, or up to (not
    /// including) the first NUL, or to the end of the input. A NUL where
    /// a line would start is the end of the journal — the zeroed space a
    /// [`JournalWriter`] reserved ahead of its last line — so the reader
    /// never reads into that space and never counts it as a line.
    fn read_line(&mut self) -> std::io::Result<usize> {
        loop {
            let buf = match self.input.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() || (self.raw.is_empty() && buf[0] == 0) {
                return Ok(self.raw.len());
            }
            let (take, done) = match buf.iter().position(|&b| b == b'\n' || b == 0) {
                Some(at) if buf[at] == b'\n' => (at + 1, true),
                Some(at) => (at, true),
                None => (buf.len(), false),
            };
            self.raw.extend_from_slice(&buf[..take]);
            self.input.consume(take);
            if done {
                return Ok(self.raw.len());
            }
        }
    }
}

impl<R: BufRead> Iterator for JournalReader<R> {
    type Item = std::io::Result<JournalLine>;

    fn next(&mut self) -> Option<Self::Item> {
        self.raw.clear();
        match self.read_line() {
            Err(e) => Some(Err(e)),
            Ok(0) => None,
            Ok(len) => {
                self.number += 1;
                Some(Ok(JournalLine {
                    number: self.number,
                    len: len as u64,
                    terminated: self.raw.last() == Some(&b'\n'),
                    entry: classify_line(&self.raw),
                }))
            }
        }
    }
}

/// The verified prefix of a journal: every line before the first corrupt
/// one, blank lines included — what recovery replays, and what appends
/// must extend.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifiedPrefix {
    /// Length in bytes.
    pub bytes: u64,
    /// Whether the prefix's last line lacks its `\n` (a torn write that
    /// stopped a byte short).
    pub unterminated: bool,
}

impl VerifiedPrefix {
    /// Extends the prefix by `line`, which must have verified.
    pub(crate) fn extend(&mut self, line: &JournalLine) {
        debug_assert!(line.entry.is_ok(), "a corrupt line ends the prefix");
        self.bytes += line.len;
        self.unterminated = !line.terminated;
    }
}

/// Reads a journal, yielding verified commands and flagging corrupt
/// lines. Blank lines are ignored; bytes that are not valid UTF-8 (torn
/// or overwritten sectors) flag the line as corrupt rather than aborting
/// recovery.
pub fn read_journal(input: impl BufRead) -> std::io::Result<Vec<WalEntry>> {
    let mut out = Vec::new();
    for line in JournalReader::new(input) {
        let line = line?;
        match line.entry {
            Ok(None) => {}
            Ok(Some(cmd)) => out.push(WalEntry::Command(cmd)),
            Err(reason) => out.push(WalEntry::Corrupt {
                line: line.number,
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
/// A caller that has just replayed the journal knows the prefix already
/// ([`crate::recovery::Recovery::prefix`]) and cuts with
/// [`cut_to_prefix`] instead of reading it again.
pub fn truncate_to_verified_prefix(path: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
    let file = std::fs::File::open(path.as_ref())?;
    let mut prefix = VerifiedPrefix::default();
    for line in JournalReader::new(std::io::BufReader::new(file)) {
        let line = line?;
        if line.entry.is_err() {
            break;
        }
        prefix.extend(&line);
    }
    cut_to_prefix(path, prefix)
}

/// Cuts the journal at `path` to `prefix`, read from it earlier: the
/// bytes after the prefix are dropped and an unterminated last line gets
/// its `\n`, exactly as [`truncate_to_verified_prefix`] would, without
/// reading the journal. Returns the number of bytes dropped.
pub fn cut_to_prefix(
    path: impl AsRef<std::path::Path>,
    prefix: VerifiedPrefix,
) -> std::io::Result<u64> {
    use std::io::{Seek, SeekFrom};
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(path.as_ref())?;
    let total = file.metadata()?.len();
    let dropped = total.checked_sub(prefix.bytes).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "journal is {total} bytes, shorter than its {}-byte verified prefix",
                prefix.bytes
            ),
        )
    })?;
    if dropped > 0 {
        file.set_len(prefix.bytes)?;
    }
    if prefix.unterminated {
        // The checksum covers the text only, so supplying the missing
        // terminator re-validates the line without altering the command.
        file.seek(SeekFrom::End(0))?;
        file.write_all(b"\n")?;
    }
    if dropped > 0 || prefix.unterminated {
        file.sync_all()?;
    }
    Ok(dropped)
}

/// How far a [`JournalWriter`] grows its file past the last line at a
/// time. The space is sparse until a group lands in it.
const RESERVE: u64 = 4 << 20;

/// A journal written in groups, each made durable with one `sync_data`:
/// what `txtime serve` commits through.
///
/// An append past the end of a file changes its size, so every fsync of
/// an appended journal also journals the new size in the file system. The
/// writer instead grows the file in [`RESERVE`]-sized steps of zeroed
/// space and writes each group at its offset inside it, so most syncs
/// leave the size alone; `sync_data` still flushes the block allocation
/// the group's bytes need (and the size, on a sync that grew the file),
/// so a synced group is as durable as an appended and fsynced one.
///
/// Readers take a NUL where a line would start as the end of the journal
/// ([`read_journal`], recovery, the truncations), so the reserved tail
/// left behind by a crash is never a line. [`JournalWriter::close`]
/// trims the file to its last line; dropping the writer does too, and
/// ignores a failure.
pub struct JournalWriter {
    file: std::fs::File,
    /// Where the next group goes: the bytes of lines written so far.
    end: u64,
    /// The file's length: `end` plus the reserved, still-zeroed space.
    len: u64,
}

impl JournalWriter {
    /// Opens (or creates) the journal at `path` for writing after its
    /// verified prefix: everything from the first corrupt line on —
    /// a torn tail, or the reserved space a crash left — is cut first
    /// ([`truncate_to_verified_prefix`]), so new lines extend exactly the
    /// history recovery replays. Returns the writer and the number of
    /// bytes cut.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<(JournalWriter, u64)> {
        let path = path.as_ref();
        let dropped = if std::fs::metadata(path).is_ok_and(|m| m.len() > 0) {
            truncate_to_verified_prefix(path)?
        } else {
            0
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let end = file.metadata()?.len();
        Ok((
            JournalWriter {
                file,
                end,
                len: end,
            },
            dropped,
        ))
    }

    /// Writes `lines` (whole journal lines) after the last group and
    /// makes them durable with one `sync_data`, first growing the file by
    /// as many [`RESERVE`] steps as the group needs.
    pub fn write_group(&mut self, lines: &[u8]) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        let end = self.end + lines.len() as u64;
        if end > self.len {
            let len = (end / RESERVE + 1) * RESERVE;
            self.file.set_len(len)?;
            self.len = len;
        }
        self.file.write_all_at(lines, self.end)?;
        self.end = end;
        self.file.sync_data()
    }

    /// A clean close: the reserved space goes, so the file ends with its
    /// last line.
    pub fn close(mut self) -> std::io::Result<()> {
        self.trim()
    }

    fn trim(&mut self) -> std::io::Result<()> {
        if self.len > self.end {
            self.file.set_len(self.end)?;
            self.len = self.end;
            self.file.sync_all()?;
        }
        Ok(())
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        let _ = self.trim();
    }
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

    /// Two verified lines, as a writer leaves them.
    fn two_lines() -> Vec<u8> {
        let mut buf = Vec::new();
        append_command(
            &mut buf,
            &Command::define_relation("e", RelationType::Rollback),
        )
        .unwrap();
        append_command(&mut buf, &Command::delete_relation("e")).unwrap();
        buf
    }

    /// `lines` followed by `nuls` zero bytes: the reserved space a
    /// [`JournalWriter`] leaves behind a crash.
    fn reserved(lines: &[u8], nuls: usize) -> Vec<u8> {
        let mut journal = lines.to_vec();
        journal.resize(lines.len() + nuls, 0);
        journal
    }

    #[test]
    fn a_nul_run_ends_the_journal() {
        let lines = two_lines();
        for nuls in [1, 7, 70_000] {
            let entries = read_journal(Cursor::new(reserved(&lines, nuls))).unwrap();
            assert_eq!(entries.len(), 2, "{nuls} NULs");
            assert!(
                entries.iter().all(|e| matches!(e, WalEntry::Command(_))),
                "{nuls} NULs: {entries:?}"
            );
        }
    }

    #[test]
    fn recovery_over_a_reserve_skips_nothing_and_stops_its_prefix_at_the_run() {
        let path = tmpfile("reserve-recover");
        let lines = two_lines();
        std::fs::write(&path, reserved(&lines, 4096)).unwrap();
        let rec = crate::recovery::recover(
            &path,
            crate::BackendKind::ForwardDelta,
            crate::CheckpointPolicy::Never,
        )
        .unwrap();
        assert_eq!(rec.replayed, 2);
        assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
        assert_eq!(rec.prefix.bytes, lines.len() as u64);
        assert!(!rec.prefix.unterminated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn both_cuts_drop_the_reserve() {
        let (path, twin) = (tmpfile("reserve-cut"), tmpfile("reserve-cut-twin"));
        let lines = two_lines();
        std::fs::write(&path, reserved(&lines, 4096)).unwrap();
        std::fs::write(&twin, reserved(&lines, 4096)).unwrap();
        let mut prefix = VerifiedPrefix::default();
        for line in JournalReader::new(Cursor::new(std::fs::read(&path).unwrap())) {
            prefix.extend(&line.unwrap());
        }
        assert_eq!(cut_to_prefix(&path, prefix).unwrap(), 4096);
        assert_eq!(truncate_to_verified_prefix(&twin).unwrap(), 4096);
        assert_eq!(std::fs::read(&path).unwrap(), lines);
        assert_eq!(std::fs::read(&twin).unwrap(), lines);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&twin);
    }

    /// A group torn inside its second line, then the reserve: one corrupt
    /// line, read up to its first NUL and no further.
    #[test]
    fn a_torn_line_before_the_reserve_is_one_corrupt_line() {
        let lines = two_lines();
        let torn = lines.len() - 6;
        let journal = reserved(&lines[..torn], 1 << 20);
        let mut input = Cursor::new(&journal[..]);
        let read: Vec<JournalLine> = JournalReader::new(&mut input).map(Result::unwrap).collect();
        assert_eq!(read.len(), 2);
        assert!(matches!(read[0].entry, Ok(Some(_))));
        assert!(read[1].entry.is_err(), "{:?}", read[1]);
        assert!(!read[1].terminated);
        assert_eq!(read[0].len + read[1].len, torn as u64);
        assert_eq!(input.position(), torn as u64, "read into the reserve");
    }

    /// A line that lost only its terminator before the reserve still
    /// verifies, and the cut terminates it in place of the run.
    #[test]
    fn an_unterminated_line_before_the_reserve_is_terminated_by_the_cut() {
        let path = tmpfile("reserve-unterminated");
        let lines = two_lines();
        std::fs::write(&path, reserved(&lines[..lines.len() - 1], 512)).unwrap();
        assert_eq!(truncate_to_verified_prefix(&path).unwrap(), 512);
        assert_eq!(std::fs::read(&path).unwrap(), lines);
        let _ = std::fs::remove_file(&path);
    }

    /// A writer grows the file in reserve steps and writes each group
    /// right after the last; dropping it trims the reserve. A writer that
    /// never closes (a crash) leaves the reserve, and the next writer
    /// cuts it and goes on right after the last line.
    #[test]
    fn a_writer_reserves_ahead_and_trims_on_close() {
        let path = tmpfile("writer");
        let lines = two_lines();
        let (mut writer, dropped) = JournalWriter::open(&path).unwrap();
        assert_eq!(dropped, 0);
        writer.write_group(&lines).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RESERVE);
        writer.write_group(&lines).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RESERVE);
        writer.close().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [&lines[..], &lines].concat());

        let (mut writer, dropped) = JournalWriter::open(&path).unwrap();
        assert_eq!(dropped, 0);
        writer.write_group(&lines).unwrap();
        std::mem::forget(writer);
        let len = 3 * lines.len() as u64;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RESERVE);

        let (writer, dropped) = JournalWriter::open(&path).unwrap();
        assert_eq!(dropped, RESERVE - len);
        drop(writer);
        let entries = read_journal(Cursor::new(std::fs::read(&path).unwrap())).unwrap();
        assert_eq!(entries.len(), 6);
        assert!(entries.iter().all(|e| matches!(e, WalEntry::Command(_))));
        let _ = std::fs::remove_file(&path);
    }

    /// A group larger than the reserve step grows the file past it in
    /// whole steps.
    #[test]
    fn a_group_past_the_reserve_grows_the_file_in_steps() {
        let path = tmpfile("writer-big");
        let group = vec![b'\n'; RESERVE as usize + 1];
        let (mut writer, _) = JournalWriter::open(&path).unwrap();
        writer.write_group(&group).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * RESERVE);
        drop(writer);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RESERVE + 1);
        let _ = std::fs::remove_file(&path);
    }
}
