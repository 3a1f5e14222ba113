//! Random generation of schemes, states, and predicates.
//!
//! Used by the benchmark workload generators (experiments E2–E4, E7) and
//! by differential tests in downstream crates. Generation is deterministic
//! given the caller's RNG, so every experiment is reproducible from a
//! seed.

use crate::rng::Rng;
use crate::rng::SliceRandom;

use crate::domain::DomainType;
use crate::predicate::{CompOp, Operand, Predicate};
use crate::schema::Schema;
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::value::Value;

/// Parameters for random state generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of attributes in generated schemes.
    pub arity: usize,
    /// Number of tuples per generated state (before deduplication).
    pub cardinality: usize,
    /// Upper bound (exclusive) for generated integers; small bounds create
    /// collisions, which exercise the set semantics.
    pub int_range: i64,
    /// Pool size for generated strings.
    pub str_pool: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            arity: 3,
            cardinality: 32,
            int_range: 100,
            str_pool: 16,
        }
    }
}

/// Generates a scheme with `arity` attributes named `a0..`, with random
/// domains.
pub fn random_schema(rng: &mut impl Rng, arity: usize) -> Schema {
    let attrs: Vec<(String, DomainType)> = (0..arity.max(1))
        .map(|i| {
            let d = *[DomainType::Int, DomainType::Str, DomainType::Bool]
                .choose(rng)
                .expect("non-empty choices");
            (format!("a{i}"), d)
        })
        .collect();
    Schema::new(attrs).expect("generated scheme is valid")
}

/// Generates a random value of the given domain.
pub fn random_value(rng: &mut impl Rng, domain: DomainType, cfg: &GenConfig) -> Value {
    match domain {
        DomainType::Int => Value::Int(rng.gen_range(0..cfg.int_range)),
        DomainType::Real => Value::real((rng.gen_range(0..cfg.int_range) as f64) / 2.0),
        DomainType::Bool => Value::Bool(rng.gen()),
        DomainType::Str => Value::str(format!("s{}", rng.gen_range(0..cfg.str_pool))),
    }
}

/// Generates a random tuple for `schema`.
pub fn random_tuple(rng: &mut impl Rng, schema: &Schema, cfg: &GenConfig) -> Tuple {
    Tuple::new(
        schema
            .attributes()
            .iter()
            .map(|a| random_value(rng, a.domain, cfg))
            .collect(),
    )
}

/// Generates a random state over `schema`.
pub fn random_state(rng: &mut impl Rng, schema: &Schema, cfg: &GenConfig) -> SnapshotState {
    SnapshotState::new(
        schema.clone(),
        (0..cfg.cardinality).map(|_| random_tuple(rng, schema, cfg)),
    )
    .expect("generated tuples are valid")
}

/// Values, schemes and states drawn to exercise rendering rather than the
/// algebra: the encoder's reference tests use them, here and, through the
/// `test-support` feature, in `txtime-historical`.
#[cfg(any(test, feature = "test-support"))]
pub mod edge {
    use crate::domain::DomainType;
    use crate::rng::{Rng, SliceRandom};
    use crate::schema::Schema;
    use crate::state::SnapshotState;
    use crate::tuple::Tuple;
    use crate::value::Value;

    /// Characters that `{:?}` escapes, or that sit on the edge of the range it
    /// prints verbatim, with plain text between: the alphabet of
    /// [`edge_value`]'s strings. `\u{301}` is a combining accent, escaped only
    /// at the start of a string.
    pub const EDGE_CHARS: [&str; 16] = [
        "a", "Z", " ", "~", "'", "\"", "\\", "\n", "\r", "\t", "\0", "\u{7f}", "\u{1f}", "é",
        "\u{301}", "ok",
    ];

    /// Reals whose text takes each branch of [`crate::Real`]'s `Display`.
    pub const EDGE_REALS: [f64; 10] = [
        1e15, 0.5, -0.5, 0.0, 3.0, 1e-7, 1.5e300, -2e15, 1e16, 123.25,
    ];

    /// Zero, ±1, the extremes, and both sides of every power-of-ten boundary.
    pub fn edge_ints() -> Vec<i64> {
        let mut v = vec![0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
        let mut p: i64 = 1;
        while let Some(next) = p.checked_mul(10) {
            p = next;
            v.extend([p - 1, p, p + 1, -(p - 1), -p, -(p + 1)]);
        }
        v
    }

    /// A value of `domain` drawn to exercise rendering rather than the
    /// algebra: integers from [`edge_ints`] or the full range, reals from
    /// [`EDGE_REALS`], both booleans, strings over [`EDGE_CHARS`].
    pub fn edge_value(rng: &mut impl Rng, domain: DomainType) -> Value {
        match domain {
            DomainType::Int if rng.gen() => Value::Int(rng.gen::<u64>() as i64),
            DomainType::Int => Value::Int(*edge_ints().choose(rng).expect("non-empty")),
            DomainType::Real => Value::real(*EDGE_REALS.choose(rng).expect("non-empty")),
            DomainType::Bool => Value::Bool(rng.gen()),
            DomainType::Str => {
                let len = rng.gen_range(0..6);
                Value::str(
                    (0..len)
                        .map(|_| *EDGE_CHARS.choose(rng).expect("non-empty"))
                        .collect::<String>(),
                )
            }
        }
    }

    /// A scheme of 1–4 attributes over every domain, for rendering tests.
    pub fn edge_schema(rng: &mut impl Rng) -> Schema {
        let arity = rng.gen_range(1..=4);
        Schema::new(
            (0..arity)
                .map(|i| {
                    let d = *DomainType::ALL.choose(rng).expect("non-empty");
                    (format!("a{i}"), d)
                })
                .collect(),
        )
        .expect("generated scheme is valid")
    }

    /// A tuple of [`edge_value`]s for `schema`.
    pub fn edge_tuple(rng: &mut impl Rng, schema: &Schema) -> Tuple {
        Tuple::new(
            schema
                .attributes()
                .iter()
                .map(|a| edge_value(rng, a.domain))
                .collect(),
        )
    }

    /// A state of 0–7 [`edge_tuple`]s over an [`edge_schema`].
    pub fn edge_state(rng: &mut impl Rng) -> SnapshotState {
        let schema = edge_schema(rng);
        let rows = rng.gen_range(0..8);
        let tuples: Vec<Tuple> = (0..rows).map(|_| edge_tuple(rng, &schema)).collect();
        SnapshotState::new(schema, tuples).expect("generated tuples are valid")
    }
}

/// Generates a random predicate of the given depth, valid for `schema`.
pub fn random_predicate(
    rng: &mut impl Rng,
    schema: &Schema,
    cfg: &GenConfig,
    depth: usize,
) -> Predicate {
    if depth == 0 {
        let idx = rng.gen_range(0..schema.arity());
        let attr = schema.attribute(idx);
        let op = *[
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ]
        .choose(rng)
        .expect("non-empty choices");
        // Occasionally compare to another attribute of the same domain.
        let same_domain: Vec<usize> = (0..schema.arity())
            .filter(|&i| i != idx && schema.attribute(i).domain == attr.domain)
            .collect();
        let rhs = if !same_domain.is_empty() && rng.gen_bool(0.3) {
            let other = *same_domain.choose(rng).expect("non-empty");
            Operand::attr(&*schema.attribute(other).name)
        } else {
            Operand::Const(random_value(rng, attr.domain, cfg))
        };
        return Predicate::Comp(Operand::attr(&*attr.name), op, rhs);
    }
    match rng.gen_range(0..4) {
        0 => random_predicate(rng, schema, cfg, depth - 1).and(random_predicate(
            rng,
            schema,
            cfg,
            depth - 1,
        )),
        1 => random_predicate(rng, schema, cfg, depth - 1).or(random_predicate(
            rng,
            schema,
            cfg,
            depth - 1,
        )),
        2 => random_predicate(rng, schema, cfg, depth - 1).not(),
        _ => random_predicate(rng, schema, cfg, 0),
    }
}

/// Applies a random mutation (insert / delete / replace mix) to `state`,
/// changing roughly `fraction` of its tuples. Used to generate version
/// histories for rollback experiments (E2/E3).
pub fn mutate_state(
    rng: &mut impl Rng,
    state: &SnapshotState,
    cfg: &GenConfig,
    fraction: f64,
) -> SnapshotState {
    let changes = ((state.len() as f64) * fraction).ceil() as usize;
    let changes = changes.max(1);
    let mut tuples = state.tuples();
    for _ in 0..changes {
        match rng.gen_range(0..3) {
            // insert
            0 => {
                tuples.insert(random_tuple(rng, state.schema(), cfg));
            }
            // delete
            1 => {
                if let Some(victim) = tuples
                    .iter()
                    .nth(rng.gen_range(0..tuples.len().max(1)))
                    .cloned()
                {
                    tuples.remove(&victim);
                }
            }
            // replace
            _ => {
                if !tuples.is_empty() {
                    let victim = tuples
                        .iter()
                        .nth(rng.gen_range(0..tuples.len()))
                        .cloned()
                        .expect("non-empty");
                    tuples.remove(&victim);
                    tuples.insert(random_tuple(rng, state.schema(), cfg));
                }
            }
        }
    }
    SnapshotState::new(state.schema().clone(), tuples).expect("mutated tuples are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rngs::StdRng;
    use crate::rng::SeedableRng;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let sa = random_schema(&mut a, 3);
        let sb = random_schema(&mut b, 3);
        assert_eq!(sa, sb);
        assert_eq!(
            random_state(&mut a, &sa, &cfg),
            random_state(&mut b, &sb, &cfg)
        );
    }

    #[test]
    fn generated_predicates_validate() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let schema = random_schema(&mut rng, 4);
            let p = random_predicate(&mut rng, &schema, &cfg, 3);
            p.validate(&schema).expect("generated predicate is valid");
        }
    }

    #[test]
    fn generated_states_respect_cardinality_bound() {
        let cfg = GenConfig {
            cardinality: 10,
            ..GenConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let schema = random_schema(&mut rng, 2);
        let s = random_state(&mut rng, &schema, &cfg);
        assert!(s.len() <= 10);
    }

    #[test]
    fn mutation_changes_state() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let schema = random_schema(&mut rng, 3);
        let s = random_state(&mut rng, &schema, &cfg);
        let m = mutate_state(&mut rng, &s, &cfg, 0.5);
        assert_eq!(m.schema(), s.schema());
        // With 50% churn on a 32-tuple state, identical output is
        // effectively impossible.
        assert_ne!(m, s);
    }
}
