//! Property tests for archival truncation and WAL corruption handling.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::SeedableRng;

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Database, StateSource, TransactionNumber, TxSpec};
use txtime_snapshot::generate::GenConfig;
use txtime_snapshot::{DomainType, Schema};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

fn schema() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

fn gen_cfg() -> CmdGenConfig {
    CmdGenConfig {
        values: GenConfig {
            arity: 2,
            cardinality: 8,
            int_range: 10,
            str_pool: 4,
        },
        relations: vec!["r0".into()],
        churn: 0.4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After truncating at a random cutoff, the engine still answers
    /// what the reference semantics answers over the untruncated history
    /// at and after the floor, and never fabricates data before it.
    #[test]
    fn truncation_matches_the_reference_at_and_after_the_floor(seed in any::<u64>(), len in 3usize..20, cut in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        let cutoff = TransactionNumber(cut % (len as u64 + 3));

        // Oracle: the reference semantics, untruncated.
        let mut reference = Database::empty();
        for c in &cmds {
            if let Ok((next, _)) = c.execute(&reference) {
                reference = next;
            }
        }

        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::every_k(3).unwrap());
        for c in &cmds {
            let _ = e.execute(c);
        }
        let report = e.archive_before("r0", cutoff, None).unwrap();

        // Floor: the version current at the cutoff (if any).
        for t in 0..=reference.tx.0 {
            let spec = TxSpec::At(TransactionNumber(t));
            let want = reference.resolve_rollback("r0", spec, false);
            let got = e.resolve_rollback("r0", spec, false);
            if report.archived > 0 && TransactionNumber(t) < cutoff {
                // Possibly archived range: the engine may miss (empty
                // or error) but must never return *wrong* data.
                if let (Ok(w), Ok(g)) = (&want, &got) {
                    prop_assert!(g == w || g.is_empty(), "fabricated data at tx {}", t);
                }
            } else {
                match (&want, &got) {
                    (Ok(w), Ok(g)) => prop_assert_eq!(w, g, "at tx {}", t),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "diverged at tx {}", t),
                }
            }
        }
    }

    /// Corrupting arbitrary bytes of a journal never panics recovery and
    /// always yields a valid prefix replay.
    #[test]
    fn corrupted_journals_recover_a_prefix(seed in any::<u64>(), len in 1usize..15, corrupt_at in any::<usize>(), flip in any::<u8>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        let dir = std::env::temp_dir().join("txtime-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fuzz-{}-{seed}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        {
            let mut live = Engine::with_wal(CheckpointPolicy::Never, &path).unwrap();
            for c in &cmds {
                let _ = live.execute(c);
            }
        }
        // Corrupt one byte somewhere.
        let mut data = std::fs::read(&path).unwrap();
        if !data.is_empty() {
            let pos = corrupt_at % data.len();
            data[pos] ^= flip | 1; // guarantee a change
            std::fs::write(&path, &data).unwrap();
        }

        let rec = txtime_storage::recovery::recover(
            &path,
            BackendKind::ForwardDelta,
            CheckpointPolicy::Never,
        )
        .unwrap();
        // The replayed prefix must itself be a valid execution: replaying
        // the same number of original commands gives the same clock.
        let mut oracle = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        let mut applied = 0;
        for c in &cmds {
            if applied == rec.replayed {
                break;
            }
            if oracle.execute(c).is_ok() {
                applied += 1;
            }
        }
        // Note: corruption may hit a byte *inside* a command that still
        // parses to the same text (impossible with checksums) — with the
        // FNV check, any surviving line is byte-identical, so the prefix
        // replay matches the oracle prefix exactly.
        prop_assert_eq!(rec.engine.tx(), oracle.tx());
        let _ = std::fs::remove_file(&path);
    }
}
