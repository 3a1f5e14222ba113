//! Random generation of historical states for tests and benchmarks.

use txtime_snapshot::rng::Rng;

use txtime_snapshot::generate::{random_tuple, GenConfig};
use txtime_snapshot::Schema;

use crate::chronon::Chronon;
use crate::element::TemporalElement;
use crate::period::Period;
use crate::state::HistoricalState;

/// Parameters for random historical-state generation.
#[derive(Debug, Clone)]
pub struct HistGenConfig {
    /// Value-generation parameters.
    pub values: GenConfig,
    /// Upper bound (exclusive) for generated chronons.
    pub horizon: Chronon,
    /// Maximum number of periods per tuple's temporal element.
    pub max_periods: usize,
}

impl Default for HistGenConfig {
    fn default() -> HistGenConfig {
        HistGenConfig {
            values: GenConfig::default(),
            horizon: 100,
            max_periods: 3,
        }
    }
}

/// Generates a random (possibly multi-period) temporal element below the
/// configured horizon.
pub fn random_element(rng: &mut impl Rng, cfg: &HistGenConfig) -> TemporalElement {
    let n = rng.gen_range(1..=cfg.max_periods);
    TemporalElement::from_periods((0..n).map(|_| {
        let start = rng.gen_range(0..cfg.horizon - 1);
        let end = rng.gen_range(start + 1..=cfg.horizon);
        Period::new(start, end).expect("start < end by construction")
    }))
}

/// Elements and states drawn to exercise rendering, for the encoder's
/// reference tests.
#[cfg(test)]
pub mod edge {
    use txtime_snapshot::generate::edge::{edge_schema, edge_tuple};
    use txtime_snapshot::rng::Rng;

    use crate::chronon::{Chronon, FOREVER};
    use crate::element::TemporalElement;
    use crate::period::Period;
    use crate::state::HistoricalState;

    /// An element drawn to exercise rendering: one to four periods, with
    /// chronons near zero, near `u32::MAX` and open-ended (`forever`).
    pub fn edge_element(rng: &mut impl Rng) -> TemporalElement {
        const STARTS: [Chronon; 6] = [0, 1, 9, 10, 99_999, FOREVER - 2];
        let n = rng.gen_range(1..=4);
        TemporalElement::from_periods((0..n).map(|_| {
            let start = STARTS[rng.gen_range(0..STARTS.len())];
            if rng.gen() {
                Period::from(start)
            } else {
                Period::new(start, start + 1).expect("start < start + 1")
            }
        }))
    }

    /// A state of 0–7 [`edge_tuple`]s with [`edge_element`]s over an
    /// [`edge_schema`], for rendering tests.
    pub fn edge_state(rng: &mut impl Rng) -> HistoricalState {
        let schema = edge_schema(rng);
        let rows = rng.gen_range(0..8);
        let entries: Vec<_> = (0..rows)
            .map(|_| (edge_tuple(rng, &schema), edge_element(rng)))
            .collect();
        HistoricalState::new(schema, entries).expect("generated entries are valid")
    }
}

/// Generates a random historical state over `schema`.
pub fn random_historical_state(
    rng: &mut impl Rng,
    schema: &Schema,
    cfg: &HistGenConfig,
) -> HistoricalState {
    HistoricalState::new(
        schema.clone(),
        (0..cfg.values.cardinality).map(|_| {
            (
                random_tuple(rng, schema, &cfg.values),
                random_element(rng, cfg),
            )
        }),
    )
    .expect("generated entries are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::generate::random_schema;
    use txtime_snapshot::rng::rngs::StdRng;
    use txtime_snapshot::rng::SeedableRng;

    #[test]
    fn generated_states_respect_horizon() {
        let cfg = HistGenConfig::default();
        let mut rng = StdRng::seed_from_u64(11);
        let schema = random_schema(&mut rng, 2);
        let s = random_historical_state(&mut rng, &schema, &cfg);
        for (_, e) in s.iter() {
            assert!(e.last().unwrap() < cfg.horizon);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = HistGenConfig::default();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let schema = random_schema(&mut a, 2);
        let _ = random_schema(&mut b, 2);
        assert_eq!(
            random_historical_state(&mut a, &schema, &cfg),
            random_historical_state(&mut b, &schema, &cfg)
        );
    }
}
