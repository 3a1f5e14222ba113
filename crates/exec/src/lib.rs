//! A scoped worker pool for parallel query evaluation.
//!
//! The paper's expressions are side-effect-free and evaluate to a single
//! state ("evaluation of an expression on a specific database does not
//! change that database", §3.4), which makes the algebra embarrassingly
//! parallel: any operator may split its input, evaluate the pieces
//! concurrently, and merge — as long as the merged result is *identical*
//! to the sequential answer. [`ExecPool`] provides exactly that
//! discipline:
//!
//! * **Partition/merge** ([`ExecPool::map_chunks`]): the input is split
//!   into contiguous chunks, each chunk is evaluated on its own scoped
//!   thread, and the per-chunk results are returned **in chunk order**.
//!   Because the inputs come from `BTreeSet`/`BTreeMap`-backed states,
//!   chunks are disjoint ascending ranges of the canonical order, so an
//!   in-order merge reproduces the sequential result bit for bit.
//!
//! A kernel splits only when every chunk would carry at least the
//! operator's break-even grain ([`OpKind::min_chunk`]): the work one
//! `thread::scope` spawn-and-join costs, measured on a 2-core host.
//! Below that the kernel runs inline on the caller's thread. Nothing
//! else is scheduled: the two operands of a binary operator evaluate
//! one after the other (their sizes are unknown until they are
//! evaluated, so there is nothing to weigh a spawn against), and
//! parallelism *between* queries comes from the server's sessions.
//!
//! The pool is hermetic — `std::thread::scope` only, no work-stealing
//! runtime — and a pool of **one** thread never spawns: every entry point
//! runs inline on the caller's thread, giving the exact sequential code
//! path. Thread count comes from `ExecPool::new`, or from the
//! `TXTIME_THREADS` environment variable / `available_parallelism` via
//! [`ExecPool::from_env`].
//!
//! Every entry point is attributed to an [`OpKind`] and feeds per-operator
//! call/chunk/wall-time counters, surfaced by [`ExecPool::stats`] (and, in
//! the CLI, `txtime stats`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod memo;

pub use memo::{MemoCounters, MemoStats};

/// The operators whose work the pool schedules and accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Snapshot selection σ.
    Select,
    /// Snapshot projection π.
    Project,
    /// Snapshot cartesian product ×.
    Product,
    /// Snapshot difference −.
    Difference,
    /// Historical selection σ̂.
    HSelect,
    /// Historical projection π̂.
    HProject,
    /// Historical product ×̂.
    HProduct,
    /// Historical difference −̂.
    HDifference,
    /// Batched rollback resolution (`Engine::resolve_many`).
    Resolve,
    /// Delta propagation through memoized views (`modify_state`).
    Propagate,
    /// Delta-chain compaction (folding deltas into checkpoints).
    Compact,
    /// Cost-based plan search (`Engine::eval` at optimize level 2);
    /// recorded externally, chunks count the plans enumerated.
    Optimize,
    /// Snapshot physical equi-join (hash or merge); chunks count probe
    /// partitions.
    Join,
    /// Historical physical equi-join.
    HJoin,
    /// One served client request (parse→check→plan→execute); recorded
    /// externally by `txtime serve`, chunks count requests.
    Serve,
    /// One `modify_state` installed as a delta folded from its own
    /// right-hand side, not as an evaluated state; recorded externally by
    /// the engine, chunks count the tuples the delta lists.
    DeltaCommit,
    /// One `ρ(I, n₂) − ρ(I, n₁)` answered by the store from its delta
    /// chain, neither version built and no − kernel run; recorded
    /// externally by the engine, chunks count the tuples returned.
    VersionDiff,
}

impl OpKind {
    /// Every operator kind, in display order.
    pub const ALL: [OpKind; 17] = [
        OpKind::Select,
        OpKind::Project,
        OpKind::Product,
        OpKind::Join,
        OpKind::Difference,
        OpKind::HSelect,
        OpKind::HProject,
        OpKind::HProduct,
        OpKind::HJoin,
        OpKind::HDifference,
        OpKind::Resolve,
        OpKind::Propagate,
        OpKind::Compact,
        OpKind::Optimize,
        OpKind::Serve,
        OpKind::DeltaCommit,
        OpKind::VersionDiff,
    ];

    /// The operator's display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Select => "select",
            OpKind::Project => "project",
            OpKind::Product => "product",
            OpKind::Difference => "difference",
            OpKind::HSelect => "hselect",
            OpKind::HProject => "hproject",
            OpKind::HProduct => "hproduct",
            OpKind::HDifference => "hdifference",
            OpKind::Resolve => "resolve",
            OpKind::Propagate => "propagate",
            OpKind::Compact => "compact",
            OpKind::Optimize => "optimize",
            OpKind::Join => "join",
            OpKind::HJoin => "hjoin",
            OpKind::Serve => "serve",
            OpKind::DeltaCommit => "delta-commit",
            OpKind::VersionDiff => "version-diff",
        }
    }

    /// The break-even grain: the least work a chunk of this operator
    /// must carry before splitting pays for the `thread::scope`
    /// spawn-and-join it costs. For the set operators the unit is an
    /// input tuple/entry (both operands counted for −), for the
    /// products an output pair, for the joins a probe tuple.
    ///
    /// Each figure is `spawn+join time / per-unit kernel time`, measured
    /// by `experiments e13` (table E13c) on the 2-core reference host
    /// and recorded with the raw numbers in DESIGN.md §8 ("Break-even
    /// grains"); the constants are those quotients rounded up to a power
    /// of two.
    pub const fn min_chunk(self) -> usize {
        match self {
            OpKind::Select | OpKind::HSelect => SELECT_GRAIN,
            OpKind::Project | OpKind::HProject => PROJECT_GRAIN,
            OpKind::Difference | OpKind::HDifference => MERGE_GRAIN,
            OpKind::Product | OpKind::HProduct => PRODUCT_GRAIN,
            OpKind::Join | OpKind::HJoin => JOIN_GRAIN,
            // Units are whole rollback targets / memoized views / chains
            // / commits / answers.
            OpKind::Resolve
            | OpKind::Propagate
            | OpKind::Compact
            | OpKind::Optimize
            | OpKind::Serve
            | OpKind::DeltaCommit
            | OpKind::VersionDiff => 1,
        }
    }

    fn index(self) -> usize {
        OpKind::ALL.iter().position(|&k| k == self).expect("listed")
    }
}

// Break-even grains behind [`OpKind::min_chunk`]. Measured by
// `experiments e13` (table E13c) on the 2-core reference host, rustc
// 1.95.0: one split (spawn + join) costs 57-64 µs; the per-unit costs
// and quotients are in DESIGN.md §8. Each constant is its kernel's
// largest quotient over five runs, rounded up to a power of two.
/// σ/σ̂: 11.2-14.2 ns per input tuple, break-even 4116-5223.
const SELECT_GRAIN: usize = 8192;
/// π/π̂: 131-159 ns per input tuple, break-even 369-446.
const PROJECT_GRAIN: usize = 512;
/// −/−̂: 12.6-14.3 ns per input tuple of both operands in the cheapest
/// case (a one-row right operand), break-even 4023-4936.
const MERGE_GRAIN: usize = 8192;
/// ×/×̂: 91-100 ns per output pair, break-even 575-696.
const PRODUCT_GRAIN: usize = 1024;
/// ⋈/⋈̂: 38-49 ns per probe tuple, break-even 1304-1581.
const JOIN_GRAIN: usize = 2048;

#[derive(Default)]
struct OpCounters {
    calls: AtomicU64,
    chunks: AtomicU64,
    nanos: AtomicU64,
}

/// One operator's accumulated counters (a row of [`ExecStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStat {
    /// Operator display name.
    pub name: &'static str,
    /// Scheduled invocations.
    pub calls: u64,
    /// Chunks (units of parallel work) across all invocations; a call
    /// that ran as a single inline chunk counts 1.
    pub chunks: u64,
    /// Wall-clock nanoseconds across all invocations, measured on the
    /// scheduling thread (spawn to last join).
    pub nanos: u64,
}

/// A snapshot of the pool's per-operator counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// The pool's thread count.
    pub threads: usize,
    /// Per-operator rows, in [`OpKind::ALL`] order.
    pub ops: Vec<OpStat>,
}

impl ExecStats {
    /// Total scheduled invocations across all operators.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Total chunks across all operators.
    pub fn total_chunks(&self) -> u64 {
        self.ops.iter().map(|o| o.chunks).sum()
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "exec: {} thread(s) (host parallelism {})",
            self.threads,
            ExecPool::host_parallelism()
        )?;
        for op in self.ops.iter().filter(|o| o.calls > 0) {
            writeln!(
                f,
                "      {:<12} {:>8} calls {:>8} chunks {:>10.3} ms",
                op.name,
                op.calls,
                op.chunks,
                op.nanos as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

/// Accumulated physical-join gauges, beyond the generic per-operator
/// call/chunk/time counters: how much was built, probed, and partitioned.
/// Surfaced by `txtime stats` so join regressions are observable without
/// a profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Join kernel invocations (snapshot and historical).
    pub joins: u64,
    /// Total build-side rows across all joins.
    pub build_rows: u64,
    /// Total probe-side rows across all joins.
    pub probe_rows: u64,
    /// Total probe partitions (chunks) scheduled.
    pub partitions: u64,
}

impl std::fmt::Display for JoinStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "joins: {} ({} build rows, {} probe rows, {} partitions)",
            self.joins, self.build_rows, self.probe_rows, self.partitions
        )
    }
}

/// A scoped worker pool with a fixed thread budget.
///
/// The pool holds no threads while idle: each partition/merge call opens a
/// `std::thread::scope`, spawns at most `threads − 1` workers (the
/// caller's thread always takes the first chunk), and joins them before
/// returning. A one-thread pool is the exact sequential path — no scope,
/// no spawn, no chunk boundary.
pub struct ExecPool {
    threads: usize,
    /// Set only by [`ExecPool::with_unit_grain`]: every operator's grain
    /// is one work unit.
    unit_grain: bool,
    counters: [OpCounters; OpKind::ALL.len()],
    join_counters: [AtomicU64; 4],
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ExecPool {
    /// A pool with the given thread budget (0 is clamped to 1).
    ///
    /// The budget is taken verbatim — oversubscription included — for
    /// callers that deliberately test scheduling. User-facing entry
    /// points should prefer [`ExecPool::clamped`].
    pub fn new(threads: usize) -> ExecPool {
        ExecPool {
            threads: threads.max(1),
            unit_grain: false,
            counters: std::array::from_fn(|_| OpCounters::default()),
            join_counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Test entry point: a pool of `threads` threads whose kernels split
    /// down to one work unit per chunk, so the differential suites drive
    /// multi-chunk kernels on inputs far below the shipped break-even
    /// grains. No flag, environment variable or config reaches it.
    pub fn with_unit_grain(threads: usize) -> ExecPool {
        ExecPool {
            unit_grain: true,
            ..ExecPool::new(threads)
        }
    }

    /// The host's available parallelism (1 when it cannot be queried).
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// A pool with the requested budget clamped to the host's available
    /// parallelism: asking for 8 threads on a 1-core host yields a
    /// sequential pool instead of 8 threads contending for one core
    /// (where spawn/join overhead makes partitioned kernels *slower*
    /// than sequential).
    pub fn clamped(threads: usize) -> ExecPool {
        ExecPool::new(threads.max(1).min(ExecPool::host_parallelism()))
    }

    /// A pool sized from the environment: `TXTIME_THREADS` if set to a
    /// positive integer, otherwise `std::thread::available_parallelism`.
    pub fn from_env() -> ExecPool {
        let threads = std::env::var("TXTIME_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ExecPool::new(threads)
    }

    /// The shared one-thread pool: the exact sequential path.
    pub fn sequential() -> &'static ExecPool {
        static SEQ: OnceLock<ExecPool> = OnceLock::new();
        SEQ.get_or_init(|| ExecPool::new(1))
    }

    /// The pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The least work a chunk of `op` carries on this pool:
    /// [`OpKind::min_chunk`].
    pub fn grain(&self, op: OpKind) -> usize {
        if self.unit_grain {
            1
        } else {
            op.min_chunk()
        }
    }

    /// How many chunks `units` work units of `op` split into: at most
    /// the thread budget, each carrying at least the operator's grain.
    pub fn chunks_for(&self, op: OpKind, units: usize) -> usize {
        (units / self.grain(op)).clamp(1, self.threads)
    }

    /// Partition/merge: splits `items` into at most `threads` contiguous
    /// chunks of at least `grain` items, maps each chunk with `f` (the
    /// first chunk on the calling thread, the rest on scoped workers),
    /// and returns the results **in chunk order**.
    ///
    /// Because chunks are contiguous, results at index `i` cover items
    /// strictly before those at index `i + 1` — a caller that merges the
    /// results in order reproduces what a single sequential pass over
    /// `items` would have produced.
    pub fn map_chunks<T, R, F>(&self, op: OpKind, items: &[T], grain: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let started = Instant::now();
        // Every chunk gets at least `grain` items, so tiny inputs stay on
        // the calling thread instead of paying spawn overhead.
        let want = (items.len() / grain.max(1)).clamp(1, self.threads.max(1));
        let results = if want <= 1 {
            vec![f(items)]
        } else {
            let chunk_len = items.len().div_ceil(want);
            let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
            std::thread::scope(|s| {
                let workers: Vec<_> = chunks[1..].iter().map(|&c| s.spawn(|| f(c))).collect();
                let mut out = Vec::with_capacity(chunks.len());
                out.push(f(chunks[0]));
                for w in workers {
                    out.push(w.join().expect("exec worker panicked"));
                }
                out
            })
        };
        self.record(
            op,
            results.len() as u64,
            started.elapsed().as_nanos() as u64,
        );
        results
    }

    fn record(&self, op: OpKind, chunks: u64, nanos: u64) {
        let c = &self.counters[op.index()];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.chunks.fetch_add(chunks, Ordering::Relaxed);
        c.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Accounts work measured outside the pool under `op`, so phases
    /// the pool does not itself schedule (the engine's plan search)
    /// appear in the same [`ExecStats`] table.
    pub fn record_external(&self, op: OpKind, chunks: u64, elapsed: std::time::Duration) {
        self.record(op, chunks, elapsed.as_nanos() as u64);
    }

    /// Accounts one physical-join invocation's build/probe/partition
    /// volumes (the join kernels call this once per join).
    pub fn note_join(&self, build_rows: u64, probe_rows: u64, partitions: u64) {
        self.join_counters[0].fetch_add(1, Ordering::Relaxed);
        self.join_counters[1].fetch_add(build_rows, Ordering::Relaxed);
        self.join_counters[2].fetch_add(probe_rows, Ordering::Relaxed);
        self.join_counters[3].fetch_add(partitions, Ordering::Relaxed);
    }

    /// A snapshot of the physical-join gauges.
    pub fn join_stats(&self) -> JoinStats {
        JoinStats {
            joins: self.join_counters[0].load(Ordering::Relaxed),
            build_rows: self.join_counters[1].load(Ordering::Relaxed),
            probe_rows: self.join_counters[2].load(Ordering::Relaxed),
            partitions: self.join_counters[3].load(Ordering::Relaxed),
        }
    }

    /// A snapshot of the per-operator counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            threads: self.threads,
            ops: OpKind::ALL
                .iter()
                .map(|&k| {
                    let c = &self.counters[k.index()];
                    OpStat {
                        name: k.name(),
                        calls: c.calls.load(Ordering::Relaxed),
                        chunks: c.chunks.load(Ordering::Relaxed),
                        nanos: c.nanos.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    /// Zeroes every counter.
    pub fn reset_stats(&self) {
        for c in &self.counters {
            c.calls.store(0, Ordering::Relaxed);
            c.chunks.store(0, Ordering::Relaxed);
            c.nanos.store(0, Ordering::Relaxed);
        }
        for c in &self.join_counters {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::sequential().threads(), 1);
    }

    #[test]
    fn map_chunks_preserves_item_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::new(threads);
            let sums = pool.map_chunks(OpKind::Select, &items, 16, |chunk| chunk.to_vec());
            let flat: Vec<u64> = sums.into_iter().flatten().collect();
            assert_eq!(flat, items, "{threads} threads");
        }
    }

    #[test]
    fn map_chunks_respects_grain_and_budget() {
        let items: Vec<u64> = (0..100).collect();
        let pool = ExecPool::new(8);
        // 100 items at grain 60 → one chunk, inline.
        assert_eq!(
            pool.map_chunks(OpKind::Difference, &items, 60, <[u64]>::len)
                .len(),
            1
        );
        // grain 10 → 8 chunks (thread budget).
        assert_eq!(
            pool.map_chunks(OpKind::Difference, &items, 10, <[u64]>::len)
                .len(),
            8
        );
        // grain 1 on a 2-thread pool → 2 chunks.
        let two = ExecPool::new(2);
        assert_eq!(
            two.map_chunks(OpKind::Difference, &items, 1, <[u64]>::len)
                .len(),
            2
        );
    }

    #[test]
    fn single_thread_pool_never_splits() {
        let items: Vec<u64> = (0..10_000).collect();
        let pool = ExecPool::new(1);
        let out = pool.map_chunks(OpKind::Product, &items, 1, <[u64]>::len);
        assert_eq!(out, vec![10_000]);
    }

    #[test]
    fn stats_account_calls_chunks_and_reset() {
        let pool = ExecPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        pool.map_chunks(OpKind::Select, &items, 8, <[u64]>::len);
        pool.map_chunks(OpKind::Select, &items, 64, <[u64]>::len);
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        let select = stats.ops.iter().find(|o| o.name == "select").unwrap();
        assert_eq!(select.calls, 2);
        assert_eq!(select.chunks, 4 + 1);
        assert_eq!(stats.total_calls(), 2);
        assert!(stats.to_string().contains("select"));
        pool.reset_stats();
        assert_eq!(pool.stats().total_calls(), 0);
    }

    #[test]
    fn clamped_never_exceeds_host_parallelism() {
        let host = ExecPool::host_parallelism();
        assert!(host >= 1);
        assert_eq!(ExecPool::clamped(0).threads(), 1);
        assert_eq!(ExecPool::clamped(1).threads(), 1);
        assert!(ExecPool::clamped(usize::MAX).threads() <= host);
        // Explicit `new` keeps the verbatim budget for scheduling tests.
        assert_eq!(ExecPool::new(8).threads(), 8);
    }

    #[test]
    fn min_chunk_floors_are_positive() {
        for kind in OpKind::ALL {
            assert!(kind.min_chunk() >= 1, "{}", kind.name());
        }
        // The tuple-at-a-time kernels demand far more than one unit; a
        // unit-grain pool (the differential suites' entry) overrides it.
        assert!(OpKind::Difference.min_chunk() > OpKind::Compact.min_chunk());
        let pool = ExecPool::with_unit_grain(2);
        assert_eq!(pool.grain(OpKind::Difference), 1);
        assert_eq!(pool.chunks_for(OpKind::Difference, 2), 2);
        let shipped = ExecPool::new(2);
        let g = OpKind::Difference.min_chunk();
        assert_eq!(shipped.chunks_for(OpKind::Difference, 2 * g - 1), 1);
        assert_eq!(shipped.chunks_for(OpKind::Difference, 2 * g), 2);
        assert_eq!(shipped.chunks_for(OpKind::Difference, 100 * g), 2);
    }

    #[test]
    fn from_env_reads_txtime_threads() {
        // Serialized within this test: no other exec test reads the env.
        std::env::set_var("TXTIME_THREADS", "3");
        assert_eq!(ExecPool::from_env().threads(), 3);
        std::env::set_var("TXTIME_THREADS", "not a number");
        assert!(ExecPool::from_env().threads() >= 1);
        std::env::remove_var("TXTIME_THREADS");
        assert!(ExecPool::from_env().threads() >= 1);
    }
}
