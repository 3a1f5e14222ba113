//! Round-trip property: `parse(print(x)) == x` for randomly generated
//! expressions, commands, and sentences.

mod common;

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use common::{cfg, random_expr, schema};
use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, RelationType, SchemeChange, Sentence};
use txtime_parser::print::{print_command, print_expr, print_sentence};
use txtime_parser::{parse_command, parse_expr, parse_sentence};
use txtime_snapshot::{DomainType, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snapshot_expr_round_trip(seed in any::<u64>(), depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_expr(&mut rng, depth, false);
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\ninput: {printed}"));
        prop_assert_eq!(reparsed, e);
    }

    #[test]
    fn historical_expr_round_trip(seed in any::<u64>(), depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_expr(&mut rng, depth, true);
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\ninput: {printed}"));
        prop_assert_eq!(reparsed, e);
    }

    #[test]
    fn sentence_round_trip(seed in any::<u64>(), len in 1usize..15) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = random_commands(&mut rng, &schema(), &CmdGenConfig {
            values: cfg(),
            relations: vec!["r0".into(), "r1".into()],
            churn: 0.3,
        }, len);
        let s = Sentence::new(cmds).unwrap();
        let printed = print_sentence(&s);
        let reparsed = parse_sentence(&printed)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\ninput: {printed}"));
        prop_assert_eq!(reparsed, s);
    }

    #[test]
    fn extension_command_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = vec![
            Command::define_relation("emp", RelationType::Rollback),
            Command::delete_relation("emp"),
            Command::evolve_scheme("emp", SchemeChange::AddAttribute {
                name: "dept".into(),
                domain: DomainType::Str,
                default: Value::str(format!("d{}", rng.gen_range(0..5))),
            }),
            Command::evolve_scheme("emp", SchemeChange::DropAttribute("a0".into())),
            Command::evolve_scheme("emp", SchemeChange::RenameAttribute {
                from: "a1".into(),
                to: "a9".into(),
            }),
            Command::display(random_expr(&mut rng, 2, false)),
        ];
        for c in cmds {
            let printed = print_command(&c);
            prop_assert_eq!(parse_command(&printed).unwrap(), c);
        }
    }
}
