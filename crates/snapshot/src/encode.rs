//! The state encoder: the one place that decides how a value, tuple,
//! scheme or snapshot state reads as text.
//!
//! Every `Display` of those types is a thin call into this module, and so
//! is every place that renders a reply (the server's frame buffer, the CLI,
//! the REPL, the interner's constant payloads). The functions are generic
//! over [`fmt::Write`]; an [`Encoder`] gathers the text in a small stack
//! buffer and hands the sink one `write_str` per 512 bytes, so a
//! `Formatter` sink costs one dynamic call per chunk rather than one per
//! fragment, and integers and plain strings never pass through `fmt`.
//!
//! The text is the one the `write!`-based bodies produced, byte for byte
//! (the retained bodies in [`crate::reference::render`] are the test
//! oracle):
//!
//! * integers are written from a digit buffer;
//! * a string whose bytes are all printable ASCII, with no `"` and no `\`,
//!   is copied verbatim between quotes; any other string falls back to
//!   `{:?}`, whose escapes are exactly what that form would print;
//! * reals and booleans keep their `Display` text.

use std::fmt::{self, Write};

use crate::schema::{Attribute, Schema};
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::value::{Real, Value};

/// Bytes an [`Encoder`] gathers before it passes them to its sink.
const STAGE: usize = 512;

/// The most bytes one integer takes: twenty digits, or nineteen and a sign.
const INT_BYTES: usize = 20;

/// `00`, `01`, …, `99`: two digits per division.
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes text to a [`fmt::Write`] sink through a 512-byte stack buffer.
/// [`encode`] makes one and passes on the last chunk when its closure
/// returns.
pub struct Encoder<'w, W: Write> {
    sink: &'w mut W,
    /// `buf[..len]` is valid UTF-8: every method below appends either a
    /// whole `&str` or ASCII bytes, and only ever advances `len` past
    /// bytes it has written in full. `flush` checks it.
    buf: [u8; STAGE],
    len: usize,
}

impl<W: Write> Encoder<'_, W> {
    // Out of line, so the per-fragment paths that may flush stay small
    // enough to inline into the tuple loop; inlined, it made a 1 024-row
    // render half again as slow.
    #[inline(never)]
    fn flush(&mut self) -> fmt::Result {
        let chunk = std::str::from_utf8(&self.buf[..self.len])
            .expect("the staged bytes are UTF-8 (see `Encoder::buf`)");
        self.len = 0;
        self.sink.write_str(chunk)
    }

    /// Makes room for `n` more bytes (`n <= STAGE`).
    #[inline]
    fn reserve(&mut self, n: usize) -> fmt::Result {
        if self.len + n > STAGE {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Writes one ASCII byte.
    ///
    /// # Panics
    ///
    /// If `b` is not ASCII.
    #[inline]
    pub fn byte(&mut self, b: u8) -> fmt::Result {
        assert!(b.is_ascii(), "Encoder::byte takes ASCII only");
        self.reserve(1)?;
        self.buf[self.len] = b;
        self.len += 1;
        Ok(())
    }

    /// Writes a string as it is.
    #[inline]
    pub fn text(&mut self, s: &str) -> fmt::Result {
        if s.len() > STAGE {
            self.flush()?;
            return self.sink.write_str(s);
        }
        self.reserve(s.len())?;
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        Ok(())
    }

    /// Writes an unsigned integer (a chronon, a length) in decimal.
    pub fn uint(&mut self, n: u64) -> fmt::Result {
        self.reserve(INT_BYTES)?;
        self.digits(n);
        Ok(())
    }

    /// Writes a signed integer in decimal, as `{}` does.
    fn int(&mut self, n: i64) -> fmt::Result {
        self.reserve(INT_BYTES)?;
        if n < 0 {
            self.buf[self.len] = b'-';
            self.len += 1;
        }
        self.digits(n.unsigned_abs());
        Ok(())
    }

    /// Appends the digits of `n`, two per division, from the right; the
    /// caller has reserved [`INT_BYTES`].
    fn digits(&mut self, mut n: u64) {
        let end = self.len + n.checked_ilog10().unwrap_or(0) as usize + 1;
        let mut pos = end;
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            pos -= 2;
            self.buf[pos..pos + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            pos -= 2;
            self.buf[pos..pos + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            pos -= 1;
            self.buf[pos] = b'0' + n as u8;
        }
        // `len` may only cover bytes written here (see `buf`).
        assert_eq!(pos, self.len, "the digit count matches the digits");
        self.len = end;
    }

    /// Writes a string literal, as `{:?}` does.
    #[inline]
    fn string(&mut self, s: &str) -> fmt::Result {
        if self.verbatim(s)? {
            Ok(())
        } else {
            self.escaped(s)
        }
    }

    // The `fmt` fallbacks stay out of line, so the common cases inline
    // into the tuple loop.
    #[cold]
    #[inline(never)]
    fn escaped(&mut self, s: &str) -> fmt::Result {
        write!(self, "{s:?}")
    }

    #[cold]
    #[inline(never)]
    fn real(&mut self, r: Real) -> fmt::Result {
        write!(self, "{r}")
    }

    /// Copies `s` between quotes if `{:?}` would print it so: every byte
    /// printable ASCII and none `"` or `\`. Returns whether it did; on
    /// `false` nothing was written.
    fn verbatim(&mut self, s: &str) -> Result<bool, fmt::Error> {
        let quoted = s.len() + 2;
        if quoted > STAGE {
            return Ok(false);
        }
        self.reserve(quoted)?;
        let start = self.len;
        let body = &mut self.buf[start + 1..start + quoted - 1];
        for (dst, &b) in body.iter_mut().zip(s.as_bytes()) {
            if !(b' '..=b'~').contains(&b) || b == b'"' || b == b'\\' {
                return Ok(false);
            }
            *dst = b;
        }
        self.buf[start] = b'"';
        self.buf[start + quoted - 1] = b'"';
        self.len += quoted;
        Ok(true)
    }

    /// Writes one attribute value.
    #[inline]
    pub(crate) fn value(&mut self, v: &Value) -> fmt::Result {
        match v {
            Value::Int(i) => self.int(*i),
            Value::Real(r) => self.real(*r),
            Value::Bool(b) => self.text(if *b { "true" } else { "false" }),
            Value::Str(s) => self.string(s),
        }
    }

    /// Writes a tuple: `(v1, v2, …)`.
    pub fn tuple(&mut self, t: &Tuple) -> fmt::Result {
        self.byte(b'(')?;
        for (i, v) in t.values().iter().enumerate() {
            if i > 0 {
                self.text(", ")?;
            }
            self.value(v)?;
        }
        self.byte(b')')
    }

    /// Writes one attribute: `name: domain`.
    pub(crate) fn attribute(&mut self, a: &Attribute) -> fmt::Result {
        self.text(&a.name)?;
        self.text(": ")?;
        self.text(a.domain.keyword())
    }

    /// Writes a scheme: `(a1: d1, a2: d2, …)`.
    pub fn schema(&mut self, s: &Schema) -> fmt::Result {
        self.byte(b'(')?;
        for (i, a) in s.attributes().iter().enumerate() {
            if i > 0 {
                self.text(", ")?;
            }
            self.attribute(a)?;
        }
        self.byte(b')')
    }

    /// Writes the items of a state between braces, each after a separator:
    /// `{ a, b }`, or `{ }` when there are none. Snapshot and historical
    /// states share this frame.
    pub fn braced<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T) -> fmt::Result,
    ) -> fmt::Result {
        self.text(" {")?;
        let mut items = items.into_iter();
        if let Some(first) = items.next() {
            // Separators of constant length copy without a `memcpy` call:
            // a fifth of a 1 024-row render.
            self.byte(b' ')?;
            item(self, first)?;
            for x in items {
                self.text(", ")?;
                item(self, x)?;
            }
        }
        self.text(" }")
    }

    /// Writes a snapshot state: its scheme, then its tuples in run order,
    /// `(x: int) { (1), (2) }`; an empty state is `(x: int) { }`.
    fn state(&mut self, s: &SnapshotState) -> fmt::Result {
        self.schema(s.schema())?;
        self.braced(s.iter(), Encoder::tuple)
    }
}

/// Text that does not come from this module (a real's `Display`, a
/// `{:?}` fallback) goes through the same buffer.
impl<W: Write> Write for Encoder<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text(s)
    }
}

/// Runs `f` on an encoder over `sink`, then passes the buffered rest to
/// the sink.
pub fn encode<W: Write>(
    sink: &mut W,
    f: impl FnOnce(&mut Encoder<'_, W>) -> fmt::Result,
) -> fmt::Result {
    let mut enc = Encoder {
        sink,
        buf: [0; STAGE],
        len: 0,
    };
    f(&mut enc)?;
    enc.flush()
}

/// Writes a snapshot state to `sink`.
pub fn state<W: Write>(sink: &mut W, s: &SnapshotState) -> fmt::Result {
    encode(sink, |e| e.state(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::edge::{edge_ints, edge_state, EDGE_CHARS, EDGE_REALS};
    use crate::reference::render;
    use crate::rng::for_each_seed;
    use crate::DomainType;

    fn encoded(s: &SnapshotState) -> String {
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
    fn every_edge_value_matches_the_reference() {
        let mut values: Vec<Value> = edge_ints().into_iter().map(Value::Int).collect();
        values.extend(EDGE_REALS.map(Value::real));
        values.extend([Value::Bool(true), Value::Bool(false)]);
        values.extend(EDGE_CHARS.iter().map(Value::str));
        values.extend([Value::str(EDGE_CHARS.concat()), Value::str("")]);
        for v in &values {
            let mut out = String::new();
            encode(&mut out, |e| e.value(v)).unwrap();
            assert_eq!(out, render::value(v), "{v:?}");
        }
        for n in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            encode(&mut out, |e| e.uint(n)).unwrap();
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn text_longer_than_the_stage_passes_through_whole() {
        let long = "x".repeat(STAGE * 2 + 3);
        let odd = "é\"".repeat(STAGE);
        for s in [long.as_str(), odd.as_str()] {
            let schema = Schema::new(vec![("s", DomainType::Str), ("n", DomainType::Int)]).unwrap();
            let st = SnapshotState::from_rows(
                schema,
                (0..40).map(|i| vec![Value::str(s), Value::Int(i)]),
            )
            .unwrap();
            assert_eq!(encoded(&st), render::state(&st));
        }
    }

    #[test]
    fn empty_state_matches_the_reference() {
        let schema = Schema::new(vec![("x", DomainType::Int), ("s", DomainType::Str)]).unwrap();
        let s = SnapshotState::empty(schema);
        assert_eq!(encoded(&s), "(x: int, s: str) { }");
        assert_eq!(encoded(&s), render::state(&s));
    }
}
