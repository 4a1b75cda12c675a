//! Safe readiness poller over the `sys` epoll bindings.

use crate::sys;
use std::io;
use std::time::Duration;

/// Opaque per-registration identifier carried through the kernel.
///
/// The service packs a slab index and generation into it (see
/// [`crate::table::ConnTable`]); the poller itself only round-trips the
/// raw `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Which readiness classes a registration is interested in.
///
/// Hangup and error conditions are always reported regardless of the
/// requested interest, matching epoll semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a connection with a partially flushed
    /// response buffer.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Peer half-close is requested only alongside readability: a
    /// connection that stopped reading must not be re-woken, level-
    /// triggered, by a half-close it will not act on until it reads again.
    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= sys::READABLE | sys::PEER_CLOSED;
        }
        if self.writable {
            bits |= sys::WRITABLE;
        }
        bits
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration time.
    pub token: Token,
    /// The fd is readable (or has pending error/EOF to collect via read).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up (either direction) or the fd errored; the
    /// connection should be torn down after draining whatever `read`
    /// still returns.
    pub hangup: bool,
}

/// A level-triggered epoll instance.
///
/// Level-triggered (the epoll default) is deliberate: combined with the
/// framing buffers it means a registration never needs the "read until
/// EAGAIN or lose the wakeup" discipline of edge-triggered loops, and a
/// partially consumed buffer simply re-reports on the next wait.
///
/// The kernel-facing event array is allocated once, at construction, and
/// reused by every [`Poller::wait`].
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
    raw: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Creates a poller able to collect up to `capacity` events per wait.
    ///
    /// Fails with [`io::ErrorKind::Unsupported`] on non-Linux targets.
    pub fn new(capacity: usize) -> io::Result<Poller> {
        let epfd = sys::epoll_create()?;
        Ok(Poller {
            epfd,
            raw: vec![sys::EpollEvent::default(); capacity.clamp(1, 4096)],
        })
    }

    /// Registers `fd` with the given interest.
    pub fn register(&self, fd: i32, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_add(self.epfd, fd, interest.bits(), token.0)
    }

    /// Replaces the interest set of an already registered `fd`.
    pub fn reregister(&self, fd: i32, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_mod(self.epfd, fd, interest.bits(), token.0)
    }

    /// Removes `fd` from the interest list.
    ///
    /// Closing an fd deregisters it implicitly; this exists for the paths
    /// that hand an fd to another owner without closing it (the `SYNC`
    /// stream detach).
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        sys::epoll_del(self.epfd, fd)
    }

    /// Blocks until readiness or `timeout`, replacing the contents of
    /// `events`.
    ///
    /// Returns the number of events delivered. A timeout (or EINTR)
    /// delivers zero events and is not an error.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => {
                // Round sub-millisecond timeouts up so they do not spin.
                let ms = if t.as_millis() == 0 && t.as_nanos() > 0 {
                    1
                } else {
                    t.as_millis()
                };
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let n = sys::epoll_wait_into(self.epfd, &mut self.raw, timeout_ms)?;
        events.clear();
        events.extend(self.raw[..n].iter().map(|ev| {
            // Copy out of the (possibly packed) struct before use.
            let (data, bits) = (ev.data, ev.events);
            let hangup = sys::HANGUP | sys::PEER_CLOSED | sys::ERROR;
            Event {
                token: Token(data),
                readable: bits & (sys::READABLE | hangup) != 0,
                writable: bits & sys::WRITABLE != 0,
                hangup: bits & hangup != 0,
            }
        }));
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = sys::close_fd(self.epfd);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_reports_readable_after_peer_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new(16).unwrap();
        poller
            .register(server.as_raw_fd(), Token(7), Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending yet: zero-timeout wait returns no events.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);

        client.write_all(b"ping\n").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
        assert!(!events[0].hangup);

        // Level-triggered: unread data re-reports on the next wait.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 1);

        let mut server = server;
        let mut buf = [0u8; 16];
        let got = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping\n");

        drop(client);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].hangup, "peer close reports hangup");
    }

    #[test]
    fn reregister_toggles_writable_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new(16).unwrap();
        poller
            .register(server.as_raw_fd(), Token(1), Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0, "read-only interest on an idle socket is quiet");

        // An empty send buffer is immediately writable once requested.
        poller
            .reregister(server.as_raw_fd(), Token(1), Interest::READ_WRITE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);

        poller
            .reregister(server.as_raw_fd(), Token(1), Interest::READ)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);

        poller.deregister(server.as_raw_fd()).unwrap();
    }
}
