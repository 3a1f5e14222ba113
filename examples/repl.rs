//! A tiny interactive REPL for the txtime language.
//!
//! ```text
//! cargo run --example repl
//! ```
//!
//! Enter commands terminated by `;`. Anything you `display(...)` is
//! printed; everything else mutates the in-memory engine. `\q` quits,
//! `\catalog` lists relations, `\versions r` shows a relation's recorded
//! history, `\memo` shows the incremental view memo's counters (queries
//! displayed more than once are registered automatically; after later
//! modifications a cached answer is brought forward by delta rules when
//! it is next displayed),
//! `\optimize` shows (and `\optimize N` sets) the optimization level
//! with the planner's counters, `\plan expr` prints the plan the engine
//! would run for an expression — cost/cardinality estimates per node
//! and the rewrites that produced it — and `\lint` replays every
//! warning the session's lint pass has issued. Lint warnings print as
//! commands execute but never block them.
//!
//! ```text
//! txtime> define_relation(emp, rollback);
//! txtime> modify_state(emp, {(name: str): ("ada")});
//! txtime> display(rho(emp, inf));
//! (name: str) { ("ada") }
//! ```

use std::io::{BufRead, Write};

use txtime::analyze::Linter;
use txtime::core::{CommandOutcome, Expr, TxSpec};
use txtime::parser::{parse_command_spanned, parse_expr};
use txtime::storage::{BackendKind, CheckpointPolicy, Engine};

fn main() {
    let mut engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    // The static linter (checker + lint pass) shadows the engine:
    // commands are checked against the state so far and rejected before
    // evaluation; only commands the engine actually executes are
    // committed to the linter's catalog, so the two can never drift
    // apart. Lint warnings are printed after execution and never block.
    let mut linter = Linter::new();
    let stdin = std::io::stdin();
    let mut buffer = String::new();

    println!(
        "txtime REPL — commands end with ';'. \\q quits, \\catalog lists relations, \\memo shows view-memo counters, \\exec shows state-cache and per-operator counters, \\optimize [N] shows/sets the plan level, \\plan EXPR explains a query, \\lint lists this session's warnings."
    );
    print_prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();

        // Meta-commands work only at the start of an input.
        if buffer.trim().is_empty() {
            match trimmed {
                "\\q" | "\\quit" => break,
                "\\catalog" => {
                    for name in engine.relations() {
                        println!(
                            "  {name} : {} ({} versions)",
                            engine.relation_type(name).expect("listed"),
                            engine.version_count(name).unwrap_or(0)
                        );
                    }
                    print_prompt(&buffer);
                    continue;
                }
                "\\memo" => {
                    print!("{}", engine.memo_stats());
                    let (nodes, bytes) = engine.memo_interner_footprint();
                    println!("       expr interner: {nodes} nodes / {bytes} bytes");
                    print_prompt(&buffer);
                    continue;
                }
                "\\exec" => {
                    // Replayed deltas, then one row per kernel that ran;
                    // `delta-commit` and `version-diff` rows count the
                    // writes and audit diffs that ran none.
                    print!("{}", engine.cache_stats());
                    print!("{}", engine.exec_stats());
                    print_prompt(&buffer);
                    continue;
                }
                "\\lint" => {
                    if linter.warnings().is_empty() {
                        println!("  no lint warnings this session");
                    }
                    for w in linter.warnings() {
                        println!("  {w}");
                    }
                    print_prompt(&buffer);
                    continue;
                }
                _ if trimmed.starts_with("\\optimize") => {
                    let arg = trimmed.trim_start_matches("\\optimize").trim();
                    if arg.is_empty() {
                        print!("{}", engine.optimizer_stats());
                    } else {
                        match arg.parse::<u8>() {
                            Ok(n) if n <= 2 => {
                                engine.set_optimize(n);
                                println!("  optimize level set to {}", engine.optimize_level());
                            }
                            _ => println!(
                                "  \\optimize takes 0 (as written), 1 (join lowering and pushdown), or 2 (cost-based search)"
                            ),
                        }
                    }
                    print_prompt(&buffer);
                    continue;
                }
                _ if trimmed.starts_with("\\plan") => {
                    let text = trimmed.trim_start_matches("\\plan").trim();
                    let text = text.trim_end_matches(';');
                    if text.is_empty() {
                        println!("  usage: \\plan EXPR");
                    } else {
                        match parse_expr(text) {
                            Ok(e) => println!("{}", engine.explain(&e)),
                            Err(e) => println!("parse error: {e}"),
                        }
                    }
                    print_prompt(&buffer);
                    continue;
                }
                _ if trimmed.starts_with("\\versions") => {
                    let name = trimmed.trim_start_matches("\\versions").trim();
                    match engine.version_count(name) {
                        Some(n) => {
                            println!("  {name}: {n} recorded versions; current state:");
                            match engine.eval(&current_expr(&engine, name)) {
                                Ok(s) => println!("  {s}"),
                                Err(e) => println!("  <{e}>"),
                            }
                        }
                        None => println!("  no relation named {name:?}"),
                    }
                    print_prompt(&buffer);
                    continue;
                }
                _ => {}
            }
        }

        buffer.push_str(&line);
        buffer.push('\n');
        // Execute each complete ';'-terminated command in the buffer.
        while let Some(pos) = split_point(&buffer) {
            let (cmd_text, rest) = buffer.split_at(pos);
            let cmd_text = cmd_text.trim().trim_end_matches(';');
            let rest = rest.trim_start_matches(';').to_string();
            if !cmd_text.trim().is_empty() {
                match parse_command_spanned(cmd_text) {
                    Ok((cmd, spans)) => {
                        let diags = linter.check(&cmd, Some(&spans));
                        if diags.is_empty() {
                            let executed = match engine.execute(&cmd) {
                                Ok(CommandOutcome::Displayed(state)) => {
                                    println!("{state}");
                                    true
                                }
                                Ok(outcome) => {
                                    println!("ok ({outcome:?}, clock at tx {})", engine.tx());
                                    true
                                }
                                Err(e) => {
                                    println!("error: {e}");
                                    false
                                }
                            };
                            if executed {
                                // Non-fatal: the command already ran;
                                // warnings only explain what it wasted.
                                for w in linter.commit(&cmd, Some(&spans)) {
                                    println!("{w}");
                                }
                            }
                        } else {
                            for d in &diags {
                                println!("{d}");
                            }
                        }
                    }
                    Err(e) => println!("parse error: {e}"),
                }
            }
            buffer = rest;
        }
        print_prompt(&buffer);
    }
    println!(
        "\nbye — {} relations, clock at tx {}",
        engine.relations().len(),
        engine.tx()
    );
}

/// Finds the first top-level `;` (outside string literals).
fn split_point(s: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ';' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

fn current_expr(engine: &Engine, name: &str) -> Expr {
    use txtime::core::RelationType;
    match engine.relation_type(name) {
        Some(RelationType::Historical | RelationType::Temporal) => {
            Expr::hrollback(name, TxSpec::Current)
        }
        _ => Expr::rollback(name, TxSpec::Current),
    }
}

fn print_prompt(buffer: &str) {
    if buffer.trim().is_empty() {
        print!("txtime> ");
    } else {
        print!("   ...> ");
    }
    let _ = std::io::stdout().flush();
}
