//! The server's gauges: session admission and group commit.
//!
//! Counters live in atomics shared by every session thread and the
//! committer; [`SessionStats`]/[`GroupCommitStats`] are the point-in-time
//! snapshots the `STATS` verb, `txtime stats --addr`, and the shutdown
//! summary render.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Live admission counters (interior mutability; relaxed ordering is
/// enough — gauges, not synchronization).
#[derive(Default)]
pub(crate) struct SessionCounters {
    pub accepted: AtomicU64,
    pub active: AtomicUsize,
    pub rejected_sessions: AtomicU64,
    pub shed_requests: AtomicU64,
    pub requests: AtomicU64,
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub check_rejected: AtomicU64,
}

impl SessionCounters {
    pub fn snapshot(&self) -> SessionStats {
        SessionStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            rejected_sessions: self.rejected_sessions.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            check_rejected: self.check_rejected.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the session/admission gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Connections accepted into a session.
    pub accepted: u64,
    /// Sessions currently live.
    pub active: usize,
    /// Connections turned away at the door (`ERR busy`).
    pub rejected_sessions: u64,
    /// Requests load-shed by the admission gate (`ERR overloaded`).
    pub shed_requests: u64,
    /// Requests served (any verb).
    pub requests: u64,
    /// Read commands evaluated (displays).
    pub reads: u64,
    /// Write commands committed and acked.
    pub writes: u64,
    /// Commands rejected by the static checker before execution.
    pub check_rejected: u64,
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sessions: {} accepted / {} active / {} rejected busy",
            self.accepted, self.active, self.rejected_sessions
        )?;
        writeln!(
            f,
            "requests: {} served ({} reads, {} writes, {} check-rejected), {} shed overloaded",
            self.requests, self.reads, self.writes, self.check_rejected, self.shed_requests
        )
    }
}

/// Live group-commit counters.
#[derive(Default)]
pub(crate) struct GroupCommitCounters {
    pub groups: AtomicU64,
    pub commits: AtomicU64,
    pub fsyncs: AtomicU64,
    pub max_group: AtomicU64,
    pub queue_peak: AtomicU64,
    pub durable_tx: AtomicU64,
}

impl GroupCommitCounters {
    pub fn record_group(&self, commits: usize) {
        self.groups.fetch_add(1, Ordering::Relaxed);
        self.commits.fetch_add(commits as u64, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.max_group.fetch_max(commits as u64, Ordering::Relaxed);
    }

    /// Notes how many commits are applied and not yet durable.
    pub fn note_unsynced(&self, commits: u64) {
        self.queue_peak.fetch_max(commits, Ordering::Relaxed);
    }

    /// Advances the durable-clock gauge after a group's sync returns
    /// (before its acks go out, so an acked commit is always ≤ the
    /// gauge). Acquire/Release so a reader that sees the gauge also sees
    /// the states it covers.
    pub fn note_durable(&self, tx: u64) {
        self.durable_tx.fetch_max(tx, Ordering::Release);
    }

    pub fn durable_tx(&self) -> u64 {
        self.durable_tx.load(Ordering::Acquire)
    }

    pub fn snapshot(&self) -> GroupCommitStats {
        GroupCommitStats {
            groups: self.groups.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            max_group: self.max_group.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            durable_tx: self.durable_tx(),
        }
    }
}

/// A snapshot of the group-commit gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Commit groups flushed.
    pub groups: u64,
    /// Write commands committed across all groups.
    pub commits: u64,
    /// Syncs issued (one per group — the point of group commit).
    pub fsyncs: u64,
    /// The largest group flushed.
    pub max_group: u64,
    /// The most commits applied and not yet durable at once: the ones a
    /// sync in progress holds, plus those applied behind it, waiting for
    /// the next group.
    pub queue_peak: u64,
    /// The highest transaction number whose group sync has returned —
    /// every commit at or below it survives a crash. The engine clock
    /// may run ahead of this while a group is in flight (see DESIGN.md
    /// §14, "the durability window"); `SNAPSHOT DURABLE` pins to it.
    pub durable_tx: u64,
}

impl GroupCommitStats {
    /// Mean commits per fsync — the batching factor the bench reports.
    pub fn commits_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.commits as f64 / self.fsyncs as f64
        }
    }
}

impl fmt::Display for GroupCommitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "group commit: {} commits in {} groups ({} fsyncs, {:.2} commits/fsync, max group {}, queue peak {}, durable at tx {})",
            self.commits,
            self.groups,
            self.fsyncs,
            self.commits_per_fsync(),
            self.max_group,
            self.queue_peak,
            self.durable_tx
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_counters_track_batches() {
        let c = GroupCommitCounters::default();
        c.record_group(4);
        c.record_group(2);
        c.note_unsynced(7);
        c.note_unsynced(3);
        c.note_durable(5);
        c.note_durable(3); // never regresses
        let s = c.snapshot();
        assert_eq!(s.groups, 2);
        assert_eq!(s.commits, 6);
        assert_eq!(s.fsyncs, 2);
        assert_eq!(s.max_group, 4);
        assert_eq!(s.queue_peak, 7);
        assert_eq!(s.durable_tx, 5);
        assert!((s.commits_per_fsync() - 3.0).abs() < 1e-9);
    }
}
