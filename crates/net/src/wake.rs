//! Cross-thread wakeup for a blocked [`Poller::wait`](crate::Poller::wait).
//!
//! Worker threads finish requests on their own schedule; the event loop
//! sleeps in `epoll_wait`. A [`Waker`] is the bridge: a nonblocking pipe
//! whose read end is registered in the poller under a reserved token.
//! [`Waker::wake`] writes one byte (coalescing naturally when the pipe is
//! already full), the loop wakes, calls [`Waker::drain`], and then drains
//! its completion queue.

use crate::poller::{Interest, Poller, Token};
use crate::sys;
use std::io;

/// A pipe-based waker. Clone-free by design: share it via `Arc`.
#[derive(Debug)]
pub struct Waker {
    read_fd: i32,
    write_fd: i32,
}

impl Waker {
    /// Creates the pipe pair (both ends nonblocking, close-on-exec).
    pub fn new() -> io::Result<Waker> {
        let (read_fd, write_fd) = sys::nonblocking_pipe()?;
        Ok(Waker { read_fd, write_fd })
    }

    /// Registers the read end with `poller` under `token`.
    pub fn register(&self, poller: &Poller, token: Token) -> io::Result<()> {
        poller.register(self.read_fd, token, Interest::READ)
    }

    /// Signals the loop. Safe from any thread; a full pipe means a wakeup
    /// is already pending, which is exactly as good as another one.
    pub fn wake(&self) {
        match sys::write_fd(self.write_fd, &[1u8]) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {}
        }
    }

    /// Consumes pending wakeup bytes. Call once per poll wakeup before
    /// draining the queues the wakeups announce.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match sys::read_fd(self.read_fd, &mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        let _ = sys::close_fd(self.read_fd);
        let _ = sys::close_fd(self.write_fd);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wake_unblocks_wait_and_drain_quiesces() {
        let mut poller = Poller::new(8).unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        waker.register(&poller, Token(u64::MAX)).unwrap();

        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces
        });

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(u64::MAX));
        waker.drain();

        // Once drained, the pipe is quiet again.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);
        handle.join().unwrap();
    }
}
