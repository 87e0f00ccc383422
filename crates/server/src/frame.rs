//! Wire framing: every protocol message is one UTF-8 JSON document
//! behind a 4-byte big-endian length prefix.
//!
//! Length-prefixing (rather than newline-delimiting) keeps QASM sources
//! with embedded newlines first-class payload, makes the reader's memory
//! bound explicit ([`MAX_FRAME`]), and lets a reader distinguish "peer
//! is idle" from "peer died mid-message": end-of-stream **between**
//! frames is a clean close, end-of-stream **inside** one is an error.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Largest accepted frame payload (4 MiB). Far above any realistic QASM
/// source; a declared length beyond this aborts the connection before
/// any allocation.
pub const MAX_FRAME: usize = 4 << 20;

/// Writes one frame — length prefix and payload assembled into one buffer
/// and handed over in a single `write_all` — then flushes. On a
/// `TCP_NODELAY` socket a separate 4-byte prefix write would go out as a
/// packet of its own.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let len = payload.len();
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, patiently riding out read timeouts.
///
/// The server gives sockets a short read timeout so reader threads can
/// poll `stop` between bytes; each timeout while **idle** (no prefix
/// byte read yet) re-checks the flag, and a raised flag resolves to
/// `Ok(None)` exactly like a clean peer close. Once the first prefix
/// byte has arrived the frame is considered in flight and timeouts keep
/// waiting for the rest, so a slow writer is never truncated.
///
/// Errors: end-of-stream mid-frame, an oversized declared length, and
/// non-UTF-8 payloads all map to `InvalidData` (the connection is not
/// recoverable after any of them — resynchronization is impossible).
pub fn read_frame<R: Read>(r: &mut R, stop: &AtomicBool) -> io::Result<Option<String>> {
    let mut prefix = [0u8; 4];
    if !read_full(r, &mut prefix, stop, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer declared a {len}-byte frame (limit {MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_full(r, &mut payload, stop, false)? {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "stream ended mid-frame"));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// Fills `buf`, tolerating short reads and timeouts. Returns `Ok(false)`
/// on a clean stop: end-of-stream, or `stop` raised — but only while
/// `stoppable` and nothing has been read into `buf` yet.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    stop: &AtomicBool,
    stoppable: bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && stoppable {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream ended mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                if filled == 0 && stoppable && stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn never() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, r#"{"type":"ping","seq":1}"#).unwrap();
        write_frame(&mut wire, "second 💡 frame").unwrap();
        write_frame(&mut wire, "").unwrap();
        let stop = never();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r, &stop).unwrap().unwrap(), r#"{"type":"ping","seq":1}"#);
        assert_eq!(read_frame(&mut r, &stop).unwrap().unwrap(), "second 💡 frame");
        assert_eq!(read_frame(&mut r, &stop).unwrap().unwrap(), "");
        assert!(read_frame(&mut r, &stop).unwrap().is_none(), "clean EOF between frames");
    }

    /// A writer that accepts everything and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        for payload in ["", "x", r#"{"type":"result","ok":true}"#] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "payload {payload:?}");
            let mut expected = (payload.len() as u32).to_be_bytes().to_vec();
            expected.extend_from_slice(payload.as_bytes());
            assert_eq!(w.bytes, expected);
        }
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").unwrap();
        for cut in 1..wire.len() {
            let stop = never();
            let err = read_frame(&mut Cursor::new(&wire[..cut]), &stop)
                .expect_err("truncated frame must error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocating() {
        let wire = u32::MAX.to_be_bytes().to_vec();
        let stop = never();
        let err = read_frame(&mut Cursor::new(wire), &stop).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("declared"));
    }

    #[test]
    fn oversized_writes_are_refused() {
        let huge = "x".repeat(MAX_FRAME + 1);
        let err = write_frame(&mut Vec::new(), &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn non_utf8_payload_is_rejected() {
        let mut wire = 2u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[0xff, 0xfe]);
        let stop = never();
        let err = read_frame(&mut Cursor::new(wire), &stop).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"));
    }

    /// A reader that yields `TimedOut` between scripted chunks, the way
    /// a socket with a read timeout does.
    struct Chunked {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.first_mut() {
                None => Ok(0),
                Some(chunk) if chunk.is_empty() => {
                    self.chunks.remove(0);
                    Err(io::Error::new(io::ErrorKind::TimedOut, "tick"))
                }
                Some(chunk) => {
                    let n = buf.len().min(chunk.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn timeouts_mid_frame_keep_waiting_but_idle_stop_resolves() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "patient").unwrap();
        // Timeout before the frame, and again in the middle of it.
        let chunks = vec![vec![], wire[..2].to_vec(), vec![], wire[2..].to_vec()];
        let stop = never();
        let got = read_frame(&mut Chunked { chunks }, &stop).unwrap();
        assert_eq!(got.as_deref(), Some("patient"));

        // A raised stop flag during an idle timeout ends the read cleanly.
        let stop = AtomicBool::new(true);
        let got = read_frame(&mut Chunked { chunks: vec![vec![]] }, &stop).unwrap();
        assert!(got.is_none());
    }
}
