//! Raw Linux syscall bindings for the poller, wakeup pipe, and rlimits.
//!
//! The workspace builds offline with no external crates, so instead of
//! pulling in `libc`/`mio` this module declares the handful of symbols the
//! event loop needs directly against the C library that `std` already
//! links — the same vendoring discipline as `vendor/rand` and friends.
//!
//! **All `unsafe` in `ringrt-net` lives in this file.** Everything it
//! exports is a safe, `io::Result`-returning wrapper; the rest of the
//! crate (and every dependent crate, including `ringrt-service`, which
//! carries `#![forbid(unsafe_code)]`) sees only those wrappers.
//!
//! On non-Linux targets the entry points exist but return
//! [`std::io::ErrorKind::Unsupported`], so the crate compiles everywhere;
//! the service then refuses to start.

use std::io;

/// Raw file descriptor, declared locally so the crate's public API does
/// not depend on `std::os::unix` being available on the target.
pub type RawFd = i32;

/// Readable readiness (maps to `EPOLLIN`).
pub const READABLE: u32 = 0x001;
/// Writable readiness (maps to `EPOLLOUT`).
pub const WRITABLE: u32 = 0x004;
/// Error condition (maps to `EPOLLERR`; always reported, never requested).
pub const ERROR: u32 = 0x008;
/// Full hangup (maps to `EPOLLHUP`; always reported, never requested).
pub const HANGUP: u32 = 0x010;
/// Peer closed its write side (maps to `EPOLLRDHUP`; reported only when
/// requested).
pub const PEER_CLOSED: u32 = 0x2000;

/// Kernel `struct epoll_event`: packed on x86-64, naturally aligned on
/// the other architectures (mirrors the C headers).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{io, EpollEvent, RawFd};
    use std::os::raw::{c_int, c_void};

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    /// Same bit as `O_CLOEXEC`.
    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const O_NONBLOCK: c_int = 0o4_000;
    const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create() -> io::Result<RawFd> {
        // SAFETY: no pointers involved; returns a new fd or -1.
        cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    fn epoll_update(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning (it is ignored entirely for EPOLL_CTL_DEL).
        cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
    }

    pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        epoll_update(epfd, EPOLL_CTL_ADD, fd, events, data)
    }

    pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        epoll_update(epfd, EPOLL_CTL_MOD, fd, events, data)
    }

    pub fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
        epoll_update(epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling the front of `out`; returns how many
    /// entries the kernel wrote.
    pub fn epoll_wait_into(
        epfd: RawFd,
        out: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        let max = c_int::try_from(out.len()).unwrap_or(c_int::MAX);
        // SAFETY: `out` is a live, writable buffer of at least `max`
        // events; the kernel writes at most `max` entries.
        match cvt(unsafe { epoll_wait(epfd, out.as_mut_ptr(), max, timeout_ms) }) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Creates a nonblocking close-on-exec pipe, returning `(read, write)`.
    pub fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a live 2-element buffer, as pipe2 requires.
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | EPOLL_CLOEXEC) })?;
        Ok((fds[0], fds[1]))
    }

    pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live, writable slice of `buf.len()` bytes.
        let n = unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    pub fn write_fd(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live, readable slice of `buf.len()` bytes.
        let n = unsafe { write(fd, buf.as_ptr().cast::<c_void>(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    pub fn close_fd(fd: RawFd) -> io::Result<()> {
        // SAFETY: closing an owned descriptor; callers guarantee `fd` is
        // not used after this returns.
        cvt(unsafe { close(fd) }).map(|_| ())
    }

    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live, writable struct of the ABI layout.
        cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        Ok((lim.cur, lim.max))
    }

    pub fn set_nofile_soft(soft: u64) -> io::Result<()> {
        let (_, max) = nofile_limits()?;
        let lim = Rlimit {
            cur: soft.min(max),
            max,
        };
        // SAFETY: `lim` is a live, readable struct of the ABI layout.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }).map(|_| ())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{io, EpollEvent, RawFd};

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "ringrt-net readiness polling requires Linux epoll",
        ))
    }

    pub fn epoll_create() -> io::Result<RawFd> {
        unsupported()
    }
    pub fn epoll_add(_: RawFd, _: RawFd, _: u32, _: u64) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_mod(_: RawFd, _: RawFd, _: u32, _: u64) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_del(_: RawFd, _: RawFd) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_wait_into(_: RawFd, _: &mut [EpollEvent], _: i32) -> io::Result<usize> {
        unsupported()
    }
    pub fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        unsupported()
    }
    pub fn read_fd(_: RawFd, _: &mut [u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn write_fd(_: RawFd, _: &[u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn close_fd(_: RawFd) -> io::Result<()> {
        unsupported()
    }
    pub fn nofile_limits() -> io::Result<(u64, u64)> {
        unsupported()
    }
    pub fn set_nofile_soft(_: u64) -> io::Result<()> {
        unsupported()
    }
}

pub(crate) use imp::{
    close_fd, epoll_add, epoll_create, epoll_del, epoll_mod, epoll_wait_into, nofile_limits,
    nonblocking_pipe, read_fd, set_nofile_soft, write_fd,
};
