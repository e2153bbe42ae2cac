#![warn(missing_docs)]
#![cfg(unix)]
//! Offline stand-in for `mio`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! readiness-multiplexing surface the serving layer uses — [`Poll`],
//! [`Events`], [`Token`], [`Interest`], [`Waker`] — over raw OS facilities:
//! **epoll** on Linux and **poll(2)** everywhere else on Unix (and on Linux
//! when `INK_MIO_FORCE_POLL=1`, so the fallback stays tested). Both backends
//! are level-triggered: an event keeps firing while the condition holds, so
//! the caller never has to drain a socket to redeem the next notification.
//!
//! Everything is `std` plus four libc symbols declared here (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `poll`) — std already links libc on every Unix
//! target, so no external crate is needed.
//!
//! ```
//! use mio::{Events, Interest, Poll, Token};
//! use std::io::Write;
//! use std::os::unix::net::UnixStream;
//!
//! let poll = Poll::new().unwrap();
//! let (mut a, b) = UnixStream::pair().unwrap();
//! b.set_nonblocking(true).unwrap();
//! poll.register(&b, Token(7), Interest::READABLE).unwrap();
//!
//! let mut events = Events::with_capacity(8);
//! // Nothing to read yet: a zero timeout comes back empty.
//! poll.poll(&mut events, Some(std::time::Duration::ZERO)).unwrap();
//! assert!(events.is_empty());
//!
//! a.write_all(b"x").unwrap();
//! poll.poll(&mut events, Some(std::time::Duration::from_secs(1))).unwrap();
//! let event = events.iter().next().expect("readable after the peer wrote");
//! assert_eq!(event.token(), Token(7));
//! assert!(event.is_readable());
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::Duration;

/// Caller-chosen identifier attached to a registration and echoed back on
/// every event for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness conditions a registration asks to be told about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the source has bytes to read (or hit EOF / an error).
    pub const READABLE: Interest = Interest(0b01);
    /// Wake when the source can accept bytes without blocking.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combines two interests (`READABLE | WRITABLE` via [`Interest::add`]).
    /// Named after the upstream `mio::Interest::add`, which this shim
    /// mirrors — not the `std::ops::Add` trait.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Does this interest include readability?
    pub fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// Does this interest include writability?
    pub fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    closed: bool,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The source has bytes (or EOF, or an error) to read.
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// The source can accept bytes without blocking.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The peer closed or the source errored (`EPOLLHUP`/`EPOLLERR`/
    /// `EPOLLRDHUP`, `POLLHUP`/`POLLERR`). Also reported as readable so a
    /// plain read loop observes the EOF.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Reusable buffer of events filled by [`Poll::poll`].
#[derive(Debug)]
pub struct Events {
    inner: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// A buffer that receives at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events { inner: Vec::with_capacity(capacity.max(1)), capacity: capacity.max(1) }
    }

    /// Iterates the events of the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// No events were delivered (the poll timed out).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of events delivered by the last poll.
    pub fn len(&self) -> usize {
        self.inner.len()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

// ---------------------------------------------------------------------------
// libc declarations (std links libc on every Unix target).

#[cfg(target_os = "linux")]
mod sys_epoll {
    //! The four epoll symbols plus the event struct layout. On x86-64 the
    //! kernel ABI packs `epoll_event` to 12 bytes; other architectures use
    //! natural alignment.

    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

mod sys_poll {
    //! `poll(2)` — POSIX, available on every Unix target.

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }
}

/// Converts an optional timeout to the millisecond convention both backends
/// use: `None` → block forever (-1), sub-millisecond non-zero waits round up
/// to 1 ms so a short timeout never spins.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
    }
}

// ---------------------------------------------------------------------------
// Backends.

#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: OwnedFd,
    buf: Vec<sys_epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<Self> {
        let fd = unsafe { sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd: unsafe { OwnedFd::from_raw_fd(fd) }, buf: Vec::new() })
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = sys_epoll::EPOLLRDHUP;
        if interest.is_readable() {
            bits |= sys_epoll::EPOLLIN;
        }
        if interest.is_writable() {
            bits |= sys_epoll::EPOLLOUT;
        }
        bits
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: Token) -> io::Result<()> {
        let mut ev = sys_epoll::EpollEvent {
            events: Self::interest_bits(interest),
            data: token.0 as u64,
        };
        let rc = unsafe { sys_epoll::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys_epoll::EpollEvent { events: 0, data: 0 };
        let rc = unsafe {
            sys_epoll::epoll_ctl(self.epfd.as_raw_fd(), sys_epoll::EPOLL_CTL_DEL, fd, &mut ev)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.buf.resize(events.capacity, sys_epoll::EpollEvent { events: 0, data: 0 });
        let n = loop {
            let rc = unsafe {
                sys_epoll::epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        events.inner.clear();
        for raw in &self.buf[..n] {
            let (bits, data) = (raw.events, raw.data);
            let closed =
                bits & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP | sys_epoll::EPOLLRDHUP) != 0;
            events.inner.push(Event {
                token: Token(data as usize),
                readable: bits & sys_epoll::EPOLLIN != 0 || closed,
                writable: bits & sys_epoll::EPOLLOUT != 0,
                closed,
            });
        }
        Ok(())
    }
}

struct PollBackend {
    /// Registration table: fd → (token, interest). Rebuilt into a `pollfd`
    /// array on every poll — O(n) per call, which is exactly why epoll is
    /// preferred where available.
    regs: HashMap<RawFd, (Token, Interest)>,
    fds: Vec<sys_poll::PollFd>,
}

impl PollBackend {
    fn new() -> Self {
        Self { regs: HashMap::new(), fds: Vec::new() }
    }

    fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.fds.clear();
        let mut tokens = Vec::with_capacity(self.regs.len());
        for (&fd, &(token, interest)) in &self.regs {
            let mut bits = 0i16;
            if interest.is_readable() {
                bits |= sys_poll::POLLIN;
            }
            if interest.is_writable() {
                bits |= sys_poll::POLLOUT;
            }
            self.fds.push(sys_poll::PollFd { fd, events: bits, revents: 0 });
            tokens.push(token);
        }
        let n = loop {
            let rc = unsafe {
                sys_poll::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as std::os::raw::c_ulong,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        events.inner.clear();
        if n == 0 {
            return Ok(());
        }
        for (pfd, &token) in self.fds.iter().zip(&tokens) {
            if pfd.revents == 0 {
                continue;
            }
            let closed = pfd.revents & (sys_poll::POLLERR | sys_poll::POLLHUP) != 0;
            events.inner.push(Event {
                token,
                readable: pfd.revents & sys_poll::POLLIN != 0 || closed,
                writable: pfd.revents & sys_poll::POLLOUT != 0,
                closed,
            });
            if events.inner.len() == events.capacity {
                break;
            }
        }
        Ok(())
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

/// Anything with a raw file descriptor can be registered: `TcpListener`,
/// `TcpStream`, `UnixStream`, ... Callers must put sources in non-blocking
/// mode themselves — readiness says a call *won't block now*, not that it
/// returns everything.
pub trait Source: AsRawFd {}
impl<T: AsRawFd> Source for T {}

/// The readiness selector. One per event loop; registrations and polls all
/// go through it. Registration state sits behind a mutex so [`Waker::new`]
/// can register from a `&Poll`, but polling itself takes `&self` and is
/// meant to be driven by a single thread.
pub struct Poll {
    inner: Mutex<Backend>,
    /// Read ends of wakers, drained transparently when their event fires.
    wakers: Mutex<HashMap<usize, UnixStream>>,
}

impl Poll {
    /// Creates a selector: epoll on Linux, poll(2) elsewhere. Setting
    /// `INK_MIO_FORCE_POLL=1` selects the poll(2) backend on Linux too (the
    /// fallback path stays testable on the primary platform).
    pub fn new() -> io::Result<Poll> {
        let force_poll = std::env::var("INK_MIO_FORCE_POLL").is_ok_and(|v| v == "1");
        let backend = {
            #[cfg(target_os = "linux")]
            {
                if force_poll {
                    Backend::Poll(PollBackend::new())
                } else {
                    Backend::Epoll(EpollBackend::new()?)
                }
            }
            #[cfg(not(target_os = "linux"))]
            {
                let _ = force_poll;
                Backend::Poll(PollBackend::new())
            }
        };
        Ok(Poll { inner: Mutex::new(backend), wakers: Mutex::new(HashMap::new()) })
    }

    /// Starts watching `source` for `interest`, tagging events with `token`.
    pub fn register(&self, source: &impl Source, token: Token, interest: Interest) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut *self.inner.lock().expect("mio backend lock poisoned") {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(sys_epoll::EPOLL_CTL_ADD, fd, interest, token),
            Backend::Poll(pb) => {
                if pb.regs.insert(fd, (token, interest)).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                Ok(())
            }
        }
    }

    /// Changes the interest set (and/or token) of an existing registration.
    pub fn reregister(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut *self.inner.lock().expect("mio backend lock poisoned") {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(sys_epoll::EPOLL_CTL_MOD, fd, interest, token),
            Backend::Poll(pb) => match pb.regs.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            },
        }
    }

    /// Stops watching `source`. Call before closing the descriptor.
    pub fn deregister(&self, source: &impl Source) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut *self.inner.lock().expect("mio backend lock poisoned") {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.deregister(fd),
            Backend::Poll(pb) => {
                pb.regs.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered source is ready, the timeout
    /// elapses (`events` comes back empty), or a [`Waker`] fires. Waker
    /// bytes are drained internally — the caller just sees the token.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        match &mut *self.inner.lock().expect("mio backend lock poisoned") {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.poll(events, timeout)?,
            Backend::Poll(pb) => pb.poll(events, timeout)?,
        }
        // Drain any waker whose token fired so level-triggered readiness
        // doesn't re-report a stale wake forever.
        let wakers = self.wakers.lock().expect("mio waker lock poisoned");
        if !wakers.is_empty() {
            for ev in &events.inner {
                if let Some(mut stream) = wakers.get(&ev.token.0) {
                    let mut sink = [0u8; 64];
                    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
                }
            }
        }
        Ok(())
    }
}

/// Cross-thread wakeup for a [`Poll`] blocked in [`Poll::poll`]. Built on a
/// `UnixStream` pair: `wake` writes one byte to the pair's write end; the
/// read end is registered with the poll under `token`, and the byte is
/// drained by `poll` itself when the event is delivered.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Registers a wakeup channel on `poll` under `token`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        poll.register(&rx, token, Interest::READABLE)?;
        poll.wakers.lock().expect("mio waker lock poisoned").insert(token.0, rx);
        Ok(Waker { tx })
    }

    /// Wakes the poll. Cheap, thread-safe, and coalescing: multiple wakes
    /// before the poll runs deliver one event (the pipe simply holds more
    /// bytes, all drained together).
    pub fn wake(&self) -> io::Result<()> {
        match (&self.tx).write(&[1u8]) {
            Ok(_) => Ok(()),
            // A full pipe means a wake is already pending — mission achieved.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Arc, Mutex};

    /// Serializes the tests that set `INK_MIO_FORCE_POLL`: without it one
    /// test's `remove_var` can land between another's `set_var` and
    /// `Poll::new`, and the forced test gets epoll.
    static ENV: Mutex<()> = Mutex::new(());

    /// Which backend `poll` runs on (`"epoll"` or `"poll"`).
    fn backend_name(poll: &Poll) -> &'static str {
        match *poll.inner.lock().expect("mio backend lock poisoned") {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    fn with_backend<R>(force_poll: bool, f: impl FnOnce(Poll) -> R) -> R {
        let poll = {
            let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
            if force_poll {
                std::env::set_var("INK_MIO_FORCE_POLL", "1");
            } else {
                std::env::remove_var("INK_MIO_FORCE_POLL");
            }
            let poll = Poll::new().unwrap();
            std::env::remove_var("INK_MIO_FORCE_POLL");
            poll
        };
        f(poll)
    }

    fn readiness_roundtrip(poll: Poll) {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poll.register(&b, Token(3), Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(4);

        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "no readiness before the peer writes");

        a.write_all(b"ping").unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        let ev = events.iter().next().expect("readable event");
        assert_eq!(ev.token(), Token(3));
        assert!(ev.is_readable());

        // Level-triggered: still readable until drained.
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(events.len(), 1);
        let mut sink = [0u8; 16];
        let n = (&b).read(&mut sink).unwrap();
        assert_eq!(n, 4);
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "drained socket is no longer readable");

        // Peer hangup surfaces as readable + closed.
        drop(a);
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        let ev = events.iter().next().expect("hangup event");
        assert!(ev.is_readable() && ev.is_closed());
        poll.deregister(&b).unwrap();
    }

    #[test]
    fn default_backend_readiness() {
        with_backend(false, readiness_roundtrip);
    }

    #[test]
    fn forced_poll_backend_readiness() {
        with_backend(true, |poll| {
            assert_eq!(backend_name(&poll), "poll");
            readiness_roundtrip(poll);
        });
    }

    #[test]
    fn writable_interest_and_reregister() {
        let poll = Poll::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poll.register(&a, Token(1), Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "read-only interest on a writable-but-empty socket");

        poll.reregister(&a, Token(9), Interest::READABLE | Interest::WRITABLE).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        let ev = events.iter().next().expect("writable event");
        assert_eq!(ev.token(), Token(9));
        assert!(ev.is_writable());
        assert!(!ev.is_readable());
    }

    #[test]
    fn tcp_accept_readiness() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.register(&listener, Token(0), Interest::READABLE).unwrap();

        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(0) && e.is_readable()));
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted);
    }

    #[test]
    fn waker_wakes_across_threads_and_coalesces() {
        let poll = Arc::new(Poll::new().unwrap());
        let waker = Arc::new(Waker::new(&poll, Token(99)).unwrap());

        let w = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake().unwrap();
        });
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        t.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events.iter().next().unwrap().token(), Token(99));

        // Many wakes before a poll deliver one event. They are issued here,
        // not from the thread above: a wake landing after `poll` drained
        // would re-fire below.
        for _ in 0..10 {
            waker.wake().unwrap();
        }
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);

        // The wake bytes were drained by poll itself: no stale readiness.
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "waker drained, nothing re-fires");

        // And a fresh wake after draining fires again.
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn zero_timeout_never_blocks() {
        let poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(1);
        let t = std::time::Instant::now();
        poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(t.elapsed() < Duration::from_millis(100));
    }
}
