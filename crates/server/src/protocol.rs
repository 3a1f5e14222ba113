//! The wire format: length-prefixed text frames.
//!
//! A frame is the payload's byte length in ASCII decimal, one space, the
//! payload bytes, and a terminating newline:
//!
//! ```text
//! 25 EXEC display(rho(r, inf))\n
//! ```
//!
//! The length prefix lets payloads span lines (a displayed state, a
//! batch of diagnostics) while the trailing newline keeps the stream
//! greppable and the framing self-checking: a reader that loses sync
//! fails loudly on the missing terminator instead of silently
//! misparsing. Both requests and responses use the same frame; every
//! request gets exactly one response.
//!
//! Request payloads are verb-prefixed text, deliberately shaped like the
//! language's own commands so a future surface language can ride the
//! same channel (see DESIGN.md §14 for the verb table). Response
//! payloads start with `OK`, `VAL`, or `ERR <kind>:`.

use std::fmt;
use std::io::{BufRead, IoSlice, Write};

/// The largest payload either side accepts: big enough for any rendered
/// state the benchmarks produce, small enough that a garbage length
/// prefix cannot balloon an allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Room for a length prefix: the twenty digits of any `u64`, and a space.
const HEADER_ROOM: usize = 21;

/// The most capacity a [`Frame`] keeps between replies. A bigger reply
/// grows it for that reply only, so one huge state does not pin its
/// buffer for the life of the session.
const FRAME_KEEP: usize = 256 * 1024;

/// The header of a `len`-byte payload, right-aligned in a buffer; returns
/// the buffer and where the header starts.
fn header(len: usize) -> ([u8; HEADER_ROOM], usize) {
    let mut buf = [0u8; HEADER_ROOM];
    let mut pos = HEADER_ROOM - 1;
    buf[pos] = b' ';
    let mut n = len;
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return (buf, pos);
        }
    }
}

/// Writes one frame and flushes the sink (a request or response is
/// always complete on the wire when this returns). The header, payload
/// and terminator go out as one vectored write; the payload is not
/// copied.
pub fn write_frame(out: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let (head, start) = header(payload.len());
    let mut parts = [
        IoSlice::new(&head[start..]),
        IoSlice::new(payload.as_bytes()),
        IoSlice::new(b"\n"),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.flush()
}

/// A reply frame built in place: the payload is written into the buffer
/// behind room for its header, and [`Frame::send`] fills the length in
/// afterwards and writes the whole frame with one `write_all`. A session
/// keeps one and reuses it, so a reply costs no allocation once the
/// buffer has grown to the session's usual reply size.
pub(crate) struct Frame {
    buf: Vec<u8>,
}

impl Frame {
    /// An empty frame.
    pub(crate) fn new() -> Frame {
        Frame {
            buf: vec![b' '; HEADER_ROOM],
        }
    }

    /// Appends to the payload.
    pub(crate) fn push_str(&mut self, s: &str) {
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Frames the payload, writes it with one `write_all`, flushes, and
    /// empties the frame for the next reply (keeping at most
    /// [`FRAME_KEEP`] bytes of capacity).
    pub(crate) fn send(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        // The header is right-aligned in HEADER_ROOM, so it lands in the
        // room's tail, just before the payload.
        let (head, start) = header(self.buf.len() - HEADER_ROOM);
        self.buf[start..HEADER_ROOM].copy_from_slice(&head[start..]);
        self.buf.push(b'\n');
        let sent = out.write_all(&self.buf[start..]).and_then(|()| out.flush());
        self.buf.truncate(HEADER_ROOM);
        self.buf.shrink_to(FRAME_KEEP);
        sent
    }
}

impl fmt::Write for Frame {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads one frame. `Ok(None)` is a clean end of stream (the peer closed
/// between frames); EOF inside a frame is an error.
pub fn read_frame(input: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut len: usize = 0;
    let mut any_digit = false;
    loop {
        let mut byte = [0u8; 1];
        match input.read(&mut byte) {
            Ok(0) => {
                return if any_digit {
                    Err(proto_err("EOF inside frame header"))
                } else {
                    Ok(None)
                }
            }
            Ok(_) => {}
            Err(e) => return Err(e),
        }
        match byte[0] {
            b'0'..=b'9' => {
                any_digit = true;
                len = len
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(usize::from(byte[0] - b'0')))
                    .filter(|&n| n <= MAX_FRAME)
                    .ok_or_else(|| proto_err("frame length exceeds MAX_FRAME"))?;
            }
            b' ' if any_digit => break,
            // Tolerate blank lines between frames (a human poking the
            // port with netcat).
            b'\n' | b'\r' if !any_digit => {}
            other => return Err(proto_err(format!("unexpected byte {other:#04x} in header"))),
        }
    }
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    let mut terminator = [0u8; 1];
    input.read_exact(&mut terminator)?;
    if terminator[0] != b'\n' {
        return Err(proto_err("missing frame terminator"));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| proto_err("frame payload is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let payloads = ["", "PING", "VAL\nline one\nline two", "EXEC x;"];
        let mut wire = Vec::new();
        for p in payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for p in payloads {
            assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(p));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn blank_lines_between_frames_are_tolerated() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"\r\n\n");
        write_frame(&mut wire, "PING").unwrap();
        let mut cursor = Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("PING"));
    }

    #[test]
    fn torn_and_malformed_frames_fail_loudly() {
        // EOF mid-header.
        let mut c = Cursor::new(b"12".to_vec());
        assert!(read_frame(&mut c).is_err());
        // EOF mid-payload.
        let mut c = Cursor::new(b"10 short".to_vec());
        assert!(read_frame(&mut c).is_err());
        // Missing terminator.
        let mut c = Cursor::new(b"2 abX".to_vec());
        assert!(read_frame(&mut c).is_err());
        // Garbage header byte.
        let mut c = Cursor::new(b"x PING\n".to_vec());
        assert!(read_frame(&mut c).is_err());
    }

    /// A sink that takes at most three bytes per call, so every vectored
    /// write is partial.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_still_put_the_whole_frame_on_the_wire() {
        let mut wire = Trickle(Vec::new());
        write_frame(&mut wire, "VAL\n(x: int) { (1) }").unwrap();
        write_frame(&mut wire, "").unwrap();
        assert_eq!(wire.0, b"20 VAL\n(x: int) { (1) }\n0 \n");
    }

    #[test]
    fn frame_backfills_its_length_and_starts_empty_again() {
        use std::fmt::Write as _;
        let mut frame = Frame::new();
        let mut wire = Vec::new();
        for payload in ["", "OK pong", &"x".repeat(12_345), "VAL\n(x: int) { }"] {
            write!(frame, "{payload}").unwrap();
            assert_eq!(&frame.buf[HEADER_ROOM..], payload.as_bytes());
            frame.send(&mut wire).unwrap();
            assert_eq!(frame.buf.len(), HEADER_ROOM);
        }
        let mut expected = Vec::new();
        for payload in ["", "OK pong", &"x".repeat(12_345), "VAL\n(x: int) { }"] {
            write_frame(&mut expected, payload).unwrap();
        }
        assert_eq!(wire, expected);
    }

    #[test]
    fn frame_gives_back_capacity_beyond_the_cap() {
        let mut frame = Frame::new();
        frame.push_str(&"x".repeat(FRAME_KEEP * 4));
        frame.send(&mut Vec::new()).unwrap();
        assert!(frame.buf.capacity() <= FRAME_KEEP);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut c = Cursor::new(b"99999999999999999999 x\n".to_vec());
        assert!(read_frame(&mut c).is_err());
    }
}
