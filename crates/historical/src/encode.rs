//! The state encoder for valid time: periods, temporal elements and
//! historical states, written through the same [`Encoder`] as snapshot
//! states. Every `Display` of these types is a thin call into this module;
//! the retained `write!`-based bodies in [`crate::reference::render`] are
//! the test oracle.

use std::fmt::{self, Write};

use txtime_snapshot::encode::{encode, Encoder};

use crate::chronon::FOREVER;
use crate::element::TemporalElement;
use crate::period::Period;
use crate::state::HistoricalState;

/// Writes a period: `[s, e)`, or `[s, forever)` for an open end.
pub(crate) fn write_period<W: Write>(e: &mut Encoder<'_, W>, p: &Period) -> fmt::Result {
    e.byte(b'[')?;
    e.uint(u64::from(p.start()))?;
    if p.end() == FOREVER {
        e.text(", forever)")
    } else {
        e.text(", ")?;
        e.uint(u64::from(p.end()))?;
        e.byte(b')')
    }
}

/// Writes a temporal element: `{p1 ∪ p2 …}`, or `{}` when empty.
pub(crate) fn write_element<W: Write>(e: &mut Encoder<'_, W>, el: &TemporalElement) -> fmt::Result {
    e.byte(b'{')?;
    for (i, p) in el.periods().iter().enumerate() {
        if i > 0 {
            e.text(" ∪ ")?;
        }
        write_period(e, p)?;
    }
    e.byte(b'}')
}

/// Writes an historical state: its scheme, then each tuple with its valid
/// time in run order, `(x: int) { (1) @ {[0, 5)} }`; an empty state is
/// `(x: int) { }`.
fn write_state<W: Write>(e: &mut Encoder<'_, W>, s: &HistoricalState) -> fmt::Result {
    e.schema(s.schema())?;
    e.braced(s.iter(), |e, (t, el)| {
        e.tuple(t)?;
        e.text(" @ ")?;
        write_element(e, el)
    })
}

/// Writes an historical state to `sink`.
pub fn state<W: Write>(sink: &mut W, s: &HistoricalState) -> fmt::Result {
    encode(sink, |e| write_state(e, s))
}

#[cfg(test)]
mod tests {
    use txtime_snapshot::rng::for_each_seed;
    use txtime_snapshot::{DomainType, Schema};

    use super::*;
    use crate::generate::edge::edge_state;
    use crate::reference::render;

    fn encoded(s: &HistoricalState) -> String {
        let mut out = String::new();
        state(&mut out, s).expect("writing to a String cannot fail");
        out
    }

    #[test]
    fn generated_states_match_the_reference() {
        for_each_seed(if cfg!(miri) { 8 } else { 2000 }, |rng| {
            let s = edge_state(rng);
            let expected = render::state(&s);
            assert_eq!(encoded(&s), expected);
            assert_eq!(s.to_string(), expected);
        });
    }

    #[test]
    fn edge_elements_match_the_reference() {
        let elements = [
            TemporalElement::empty(),
            TemporalElement::instant(0),
            TemporalElement::from_chronon(7),
            TemporalElement::from_periods([
                Period::new(0, 9).unwrap(),
                Period::new(10, 100).unwrap(),
                Period::new(1000, FOREVER - 1).unwrap(),
                Period::from(FOREVER - 1),
            ]),
        ];
        for e in &elements {
            let mut out = String::new();
            encode(&mut out, |x| write_element(x, e)).unwrap();
            assert_eq!(out, render::element(e));
            assert_eq!(e.to_string(), render::element(e));
        }
    }

    #[test]
    fn empty_state_matches_the_reference() {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        let s = HistoricalState::empty(schema);
        assert_eq!(encoded(&s), "(x: int) { }");
        assert_eq!(encoded(&s), render::state(&s));
    }
}
