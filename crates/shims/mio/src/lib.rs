#![warn(missing_docs)]
#![cfg(unix)]
//! Offline stand-in for `mio`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! readiness-multiplexing surface the serving layer uses — [`Poll`],
//! [`Events`], [`Token`], [`Interest`], [`Waker`] — over **poll(2)**, the one
//! selector every Unix target has. It is level-triggered: an event keeps
//! firing while the condition holds, so the caller never has to drain a
//! socket to redeem the next notification. When more sources are ready than
//! [`Events`] holds, each poll resumes after the last source the previous
//! one reported, so every ready source is reported within
//! ⌈ready / capacity⌉ polls.
//!
//! Everything is `std` plus the one libc symbol declared here (`poll`) — std
//! already links libc on every Unix target, so no external crate is needed.
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

use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, MutexGuard};
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

    /// The peer hung up or the source errored (`POLLHUP`/`POLLERR`). Also
    /// reported as readable so a plain read loop observes the EOF.
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
// libc declaration (std links libc on every Unix target).

mod sys {
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

/// Converts an optional timeout to poll(2)'s millisecond convention:
/// `None` → block forever (-1), sub-millisecond non-zero waits round up to
/// 1 ms so a short timeout never spins.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
    }
}

fn poll_bits(interest: Interest) -> i16 {
    let mut bits = 0;
    if interest.is_readable() {
        bits |= sys::POLLIN;
    }
    if interest.is_writable() {
        bits |= sys::POLLOUT;
    }
    bits
}

/// The registrations, kept as the `pollfd` array poll(2) takes: `fds[i]` and
/// `tokens[i]` are one source, and `slots` finds its index by descriptor.
/// A poll hands `fds` to the kernel as it stands and allocates nothing.
struct Table {
    fds: Vec<sys::PollFd>,
    tokens: Vec<Token>,
    slots: HashMap<RawFd, usize>,
    /// Where the next scan for ready sources starts: one past the last source
    /// reported, so a full [`Events`] never starves the sources after it.
    cursor: usize,
}

impl Table {
    fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let mut ready = loop {
            // SAFETY: `fds` is an initialized array of `fds.len()` `pollfd`s,
            // borrowed mutably for the call; the kernel writes only their
            // `revents`.
            let rc = unsafe {
                sys::poll(
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
        let (n, start) = (self.fds.len(), self.cursor);
        for k in 0..n {
            if ready == 0 || events.inner.len() == events.capacity {
                break;
            }
            let i = (start + k) % n;
            let revents = self.fds[i].revents;
            if revents == 0 {
                continue;
            }
            ready -= 1;
            let closed = revents & (sys::POLLERR | sys::POLLHUP) != 0;
            events.inner.push(Event {
                token: self.tokens[i],
                readable: revents & sys::POLLIN != 0 || closed,
                writable: revents & sys::POLLOUT != 0,
                closed,
            });
            self.cursor = i + 1;
        }
        Ok(())
    }
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
    table: Mutex<Table>,
    /// Read ends of wakers, drained transparently when their event fires.
    wakers: Mutex<HashMap<usize, UnixStream>>,
}

impl Poll {
    /// Creates a selector with no registrations.
    pub fn new() -> io::Result<Poll> {
        let table = Table { fds: Vec::new(), tokens: Vec::new(), slots: HashMap::new(), cursor: 0 };
        Ok(Poll { table: Mutex::new(table), wakers: Mutex::new(HashMap::new()) })
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("mio table lock poisoned")
    }

    /// Starts watching `source` for `interest`, tagging events with `token`.
    /// A source that is already registered is left as it is and answers
    /// [`io::ErrorKind::AlreadyExists`].
    pub fn register(&self, source: &impl Source, token: Token, interest: Interest) -> io::Result<()> {
        let fd = source.as_raw_fd();
        let mut table = self.table();
        let t = &mut *table;
        match t.slots.entry(fd) {
            Entry::Occupied(_) => {
                Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"))
            }
            Entry::Vacant(slot) => {
                slot.insert(t.fds.len());
                t.fds.push(sys::PollFd { fd, events: poll_bits(interest), revents: 0 });
                t.tokens.push(token);
                Ok(())
            }
        }
    }

    /// Changes the interest set (and/or token) of an existing registration;
    /// an unregistered source answers [`io::ErrorKind::NotFound`].
    pub fn reregister(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let mut t = self.table();
        let Some(&i) = t.slots.get(&source.as_raw_fd()) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        };
        t.fds[i].events = poll_bits(interest);
        t.tokens[i] = token;
        Ok(())
    }

    /// Stops watching `source`. Call before closing the descriptor. A source
    /// that is not registered is `Ok`.
    pub fn deregister(&self, source: &impl Source) -> io::Result<()> {
        let mut table = self.table();
        let t = &mut *table;
        if let Some(i) = t.slots.remove(&source.as_raw_fd()) {
            t.fds.swap_remove(i);
            t.tokens.swap_remove(i);
            if let Some(moved) = t.fds.get(i) {
                t.slots.insert(moved.fd, i);
            }
        }
        Ok(())
    }

    /// Blocks until at least one registered source is ready, the timeout
    /// elapses (`events` comes back empty), or a [`Waker`] fires. Waker
    /// bytes are drained internally — the caller just sees the token.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.table().poll(events, timeout)?;
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
    use std::sync::Arc;

    #[test]
    fn readiness_roundtrip() {
        let poll = Poll::new().unwrap();
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

    /// The contract the server's interest bookkeeping relies on: a duplicate
    /// `register` is refused and changes nothing, `reregister` needs a live
    /// registration, and `deregister` of an unknown source is `Ok`.
    #[test]
    fn registration_errors_are_typed_and_leave_the_table_intact() {
        let poll = Poll::new().unwrap();
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (a, _)) in pairs.iter().enumerate() {
            poll.register(a, Token(i), Interest::WRITABLE).unwrap();
        }
        let (first, second, third) = (&pairs[0].0, &pairs[1].0, &pairs[2].0);

        let dup = poll.register(second, Token(7), Interest::READABLE).unwrap_err();
        assert_eq!(dup.kind(), io::ErrorKind::AlreadyExists);

        let (stray, _) = UnixStream::pair().unwrap();
        let missing = poll.reregister(&stray, Token(8), Interest::READABLE).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        poll.deregister(&stray).unwrap();

        // Removing the first source moves the last into its slot; both the
        // moved and the untouched registration keep working.
        poll.deregister(first).unwrap();
        poll.deregister(first).unwrap();
        let gone = poll.reregister(first, Token(0), Interest::WRITABLE).unwrap_err();
        assert_eq!(gone.kind(), io::ErrorKind::NotFound);
        poll.reregister(third, Token(5), Interest::WRITABLE).unwrap();

        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        let mut seen: Vec<_> = events.iter().map(|e| (e.token(), e.is_writable())).collect();
        seen.sort();
        // Token 1 kept its writable interest despite the refused duplicate.
        assert_eq!(seen, vec![(Token(1), true), (Token(5), true)]);
    }

    /// More ready sources than `Events` holds: each poll resumes after the
    /// last source reported, so every one appears within ⌈n / capacity⌉
    /// polls instead of the same few winning every time.
    #[test]
    fn every_ready_source_is_reported_within_n_over_capacity_polls() {
        let (n, capacity) = (10usize, 4);
        let poll = Poll::new().unwrap();
        let pairs: Vec<_> = (0..n).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (a, _)) in pairs.iter().enumerate() {
            poll.register(a, Token(i), Interest::WRITABLE).unwrap();
        }
        let mut events = Events::with_capacity(capacity);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n.div_ceil(capacity) {
            poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(events.len(), capacity, "every source is always writable");
            seen.extend(events.iter().map(|e| e.token()));
        }
        assert_eq!(seen.len(), n, "reported {seen:?}");
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
