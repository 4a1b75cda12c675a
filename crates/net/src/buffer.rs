//! Per-connection read/write buffers with newline framing.
//!
//! The wire protocol is line-oriented: one request or response per
//! `\n`-terminated line. [`LineBuffer`] accumulates whatever byte
//! fragments the socket delivers and yields complete lines; it enforces a
//! maximum line length so a peer trickling an endless unterminated line
//! (slow loris) cannot grow the buffer without bound. [`WriteBuffer`]
//! holds response bytes that did not fit in the socket's send buffer and
//! flushes them as writable readiness arrives.

use std::borrow::Cow;
use std::io::{self, BufRead, Write};

/// Raised when a peer exceeds the configured line-length cap without
/// sending a terminating newline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineTooLong {
    /// The configured cap in bytes (terminator excluded).
    pub max: usize,
}

impl std::fmt::Display for LineTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request line exceeds {} bytes", self.max)
    }
}

impl std::error::Error for LineTooLong {}

/// Reassembles `\n`-framed lines from arbitrary byte fragments.
#[derive(Debug)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    max_line: usize,
}

impl LineBuffer {
    /// A buffer rejecting lines longer than `max_line` bytes (excluding
    /// the `\n`). Allocates nothing until bytes arrive.
    #[must_use]
    pub fn new(max_line: usize) -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            start: 0,
            max_line: max_line.max(1),
        }
    }

    /// Appends a fragment read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to its unconsumed tail.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line, stripped of `\n` (and a preceding
    /// `\r`, for telnet-style clients). Invalid UTF-8 is replaced, not
    /// rejected; a valid line is borrowed from the buffer, not copied.
    ///
    /// Returns `Ok(None)` when no full line is buffered yet and
    /// `Err(LineTooLong)` once the unterminated tail exceeds the cap —
    /// at which point the connection should be answered with an error
    /// and closed, since resynchronizing mid-line is impossible.
    pub fn next_line(&mut self) -> Result<Option<Cow<'_, str>>, LineTooLong> {
        let tail = &self.buf[self.start..];
        // `BufRead` on a byte slice finds the newline with the platform
        // `memchr`: several times faster than a byte-at-a-time scan on
        // the kilobyte-long lines a large message set makes.
        let mut rest = tail;
        let taken = rest
            .skip_until(b'\n')
            .expect("reading from a byte slice cannot fail");
        if taken == 0 || tail[taken - 1] != b'\n' {
            if tail.len() > self.max_line {
                return Err(LineTooLong { max: self.max_line });
            }
            return Ok(None);
        }
        let pos = taken - 1;
        if pos > self.max_line {
            return Err(LineTooLong { max: self.max_line });
        }
        let end = if pos > 0 && tail[pos - 1] == b'\r' {
            pos - 1
        } else {
            pos
        };
        self.start += taken;
        let line = &tail[..end];
        // Strict validation first: it is several times faster than the
        // lossy scan on the valid lines every well-behaved client sends.
        Ok(Some(match std::str::from_utf8(line) {
            Ok(text) => Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(line),
        }))
    }

    /// True when bytes of an unterminated line are pending — the state
    /// the per-connection read deadline clocks against.
    #[must_use]
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Bytes currently buffered (unconsumed).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Buffered response bytes awaiting socket writability.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl WriteBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Queues response bytes for flushing.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True when everything queued has been flushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start >= self.buf.len()
    }

    /// Bytes still awaiting flush.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Writes as much as the socket accepts.
    ///
    /// Returns `Ok(true)` when the buffer fully drained, `Ok(false)` when
    /// the socket would block with bytes still pending (caller should
    /// request writable interest), and `Err` on a fatal socket error.
    pub fn flush_to<W: Write>(&mut self, sink: &mut W) -> io::Result<bool> {
        while self.start < self.buf.len() {
            match sink.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassembles_lines_split_across_fragments() {
        let mut lb = LineBuffer::new(64);
        lb.extend(b"PI");
        assert_eq!(lb.next_line().unwrap(), None);
        assert!(lb.has_partial());
        lb.extend(b"NG\nSTAT");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("PING"));
        assert_eq!(lb.next_line().unwrap(), None);
        lb.extend(b"S\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("STATS"));
        assert!(!lb.has_partial());
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut lb = LineBuffer::new(64);
        for &b in b"CHECK proto=pdp\n" {
            lb.extend(&[b]);
        }
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("CHECK proto=pdp"));
    }

    #[test]
    fn strips_carriage_return_and_handles_empty_lines() {
        let mut lb = LineBuffer::new(64);
        lb.extend(b"PING\r\n\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("PING"));
        assert_eq!(lb.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(lb.next_line().unwrap(), None);
    }

    #[test]
    fn oversized_unterminated_line_is_rejected() {
        let mut lb = LineBuffer::new(8);
        lb.extend(b"ABCDEFGHI"); // 9 bytes, no newline
        assert_eq!(lb.next_line(), Err(LineTooLong { max: 8 }));
    }

    #[test]
    fn oversized_terminated_line_is_rejected_too() {
        let mut lb = LineBuffer::new(4);
        lb.extend(b"ABCDEFGH\n");
        assert_eq!(lb.next_line(), Err(LineTooLong { max: 4 }));
    }

    #[test]
    fn line_exactly_at_cap_passes() {
        let mut lb = LineBuffer::new(4);
        lb.extend(b"ABCD\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("ABCD"));
    }

    #[test]
    fn consumed_prefix_is_reclaimed() {
        let mut lb = LineBuffer::new(16);
        for _ in 0..1024 {
            lb.extend(b"PING\n");
            assert_eq!(lb.next_line().unwrap().as_deref(), Some("PING"));
        }
        assert!(
            lb.buf.capacity() < 16 * 1024,
            "buffer must not grow with consumed traffic (cap {})",
            lb.buf.capacity()
        );
    }

    #[test]
    fn write_buffer_tracks_partial_flushes() {
        struct Trickle(Vec<u8>, usize);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.1 == 0 {
                    self.1 += 1;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut wb = WriteBuffer::new();
        wb.push(b"OK pong\n");
        let mut sink = Trickle(Vec::new(), 0);
        assert!(!wb.flush_to(&mut sink).unwrap(), "first write blocks");
        assert_eq!(wb.pending_bytes(), 8);
        assert!(wb.flush_to(&mut sink).unwrap(), "then drains in chunks");
        assert!(wb.is_empty());
        assert_eq!(sink.0, b"OK pong\n");
    }
}
