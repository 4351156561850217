//! A minimal readiness poller for non-blocking sockets, on Linux `epoll`.
//!
//! The workspace is std-only, so `epoll` and `eventfd` are bound
//! through `extern "C"` (the convention [`crate::shm`] uses for
//! `mmap`). The poller provides what the `insitu-net` reactor needs:
//! "which of these sockets need attention?" — level-triggered, so a
//! socket with buffered data, an EOF or a pending error keeps reporting
//! until its owner acts — plus opt-in write interest for connections
//! with staged output, listener readiness, and a [`Waker`] that lets
//! any thread cut a parked [`Poller::poll`] short. A parked poll costs
//! no CPU and wakes in one syscall.
//!
//! Off Linux there is no second implementation: registering fails with
//! `ErrorKind::Unsupported`, the way `ShmMap::create` does off unix.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved token of the poller's own wake `eventfd`.
const WAKE: u64 = u64::MAX;

#[cfg(target_os = "linux")]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;
    const CLOEXEC: i32 = 0o2000000; // EPOLL_CLOEXEC == EFD_CLOEXEC
    const EFD_NONBLOCK: i32 = 0o4000;

    /// The kernel's `struct epoll_event`, which is packed on x86_64
    /// only; with the wrong layout the tokens come back scrambled.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// Take ownership of a descriptor the kernel just returned, as a
    /// `File` so drop closes it and `read`/`write` reach an eventfd.
    fn owned(fd: i32) -> io::Result<File> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor nothing else owns.
        Ok(File::from(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    /// A new epoll instance.
    pub(crate) fn epoll() -> io::Result<File> {
        // SAFETY: no pointer arguments.
        owned(unsafe { epoll_create1(CLOEXEC) })
    }

    /// A new non-blocking eventfd.
    pub(crate) fn wake_fd() -> io::Result<File> {
        // SAFETY: no pointer arguments.
        owned(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) })
    }

    pub fn ctl(ep: &File, op: i32, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: both descriptors are open for the duration of the
        // call and `ev` is a valid epoll_event the kernel only reads.
        if unsafe { epoll_ctl(ep.as_raw_fd(), op, fd.as_raw_fd(), &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Park up to `timeout_ms` (-1 = indefinitely) and append the
    /// tokens with pending events to `ready`.
    pub fn wait(ep: &File, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        // SAFETY: `events` is a writable array of exactly the length
        // passed; the kernel fills at most that many entries.
        let n = unsafe { epoll_wait(ep.as_raw_fd(), events.as_mut_ptr(), 64, timeout_ms) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        // Copy each (possibly packed) entry out before reading it.
        ready.extend(events[..n as usize].iter().map(|&ev| ev.data));
        Ok(())
    }
}

/// Off Linux there is no epoll: creating one reports `Unsupported`, so
/// nothing below `epoll()` is ever reached.
#[cfg(not(target_os = "linux"))]
mod sys {
    use std::fs::File;
    use std::io::{self, ErrorKind};

    pub(crate) const EPOLLIN: u32 = 0;
    pub(crate) const EPOLLOUT: u32 = 0;
    pub(crate) const EPOLL_CTL_ADD: i32 = 0;
    pub(crate) const EPOLL_CTL_DEL: i32 = 0;
    pub(crate) const EPOLL_CTL_MOD: i32 = 0;

    pub(crate) fn epoll() -> io::Result<File> {
        Err(io::Error::new(
            ErrorKind::Unsupported,
            "the readiness poller needs Linux epoll",
        ))
    }
    pub(crate) fn wake_fd() -> io::Result<File> {
        epoll()
    }
    pub fn ctl<S>(_: &File, _: i32, _: &S, _: u32, _: u64) -> io::Result<()> {
        epoll().map(drop)
    }
    pub fn wait(_: &File, _: i32, _: &mut Vec<u64>) -> io::Result<()> {
        epoll().map(drop)
    }
}

/// The epoll instance and the eventfd that wakes it.
struct Epoll {
    ep: File,
    wake: Arc<File>,
}

/// Cuts a parked [`Poller::poll`] short from any thread.
#[derive(Clone)]
pub struct Waker(Arc<File>);

impl Waker {
    /// Make the poller's current (or next) `poll` return promptly.
    pub fn wake(&self) {
        // The write only fails when the counter is saturated, in which
        // case a wake-up is already pending.
        let _ = (&*self.0).write(&1u64.to_ne_bytes());
    }
}

/// Readiness poller over a set of registered non-blocking sockets.
///
/// Each socket is registered under a caller-chosen `u64` token
/// (`u64::MAX` is reserved); [`Poller::poll`] reports the tokens whose
/// sockets need attention. Registration switches the socket to
/// non-blocking mode; the caller keeps its own handle (`try_clone`) for
/// actual I/O.
pub struct Poller {
    /// `Err` is why there is no epoll instance (off Linux:
    /// `Unsupported`); every registration reports it.
    epoll: io::Result<Epoll>,
    /// Registered streams, owned so each descriptor outlives — and is
    /// removed from the epoll set before — any close.
    streams: HashMap<u64, TcpStream>,
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller {
    /// Create an empty poller.
    pub fn new() -> Self {
        let epoll = sys::epoll().and_then(|ep| {
            let wake = sys::wake_fd()?;
            sys::ctl(&ep, sys::EPOLL_CTL_ADD, &wake, sys::EPOLLIN, WAKE)?;
            Ok(Epoll {
                ep,
                wake: Arc::new(wake),
            })
        });
        Poller {
            epoll,
            streams: HashMap::new(),
        }
    }

    /// The epoll instance, or a copy of the error that denied it
    /// (`io::Error` is not `Clone`).
    fn epoll(&self) -> io::Result<&Epoll> {
        self.epoll
            .as_ref()
            .map_err(|e| io::Error::new(e.kind(), e.to_string()))
    }

    /// A handle that wakes this poller from other threads.
    pub fn waker(&self) -> io::Result<Waker> {
        Ok(Waker(Arc::clone(&self.epoll()?.wake)))
    }

    /// Register `stream` under `token`, switching it to non-blocking
    /// mode. Re-registering an existing token replaces the previous
    /// socket.
    ///
    /// Non-blocking mode lives on the underlying socket, not the Rust
    /// handle: every `try_clone` of `stream` (including the one the
    /// caller keeps for I/O) becomes non-blocking too.
    pub fn register(&mut self, token: u64, stream: TcpStream) -> io::Result<()> {
        if token == WAKE {
            return Err(io::ErrorKind::InvalidInput.into());
        }
        stream.set_nonblocking(true)?;
        self.deregister(token);
        let ep = &self.epoll()?.ep;
        sys::ctl(ep, sys::EPOLL_CTL_ADD, &stream, sys::EPOLLIN, token)?;
        self.streams.insert(token, stream);
        Ok(())
    }

    /// Watch `listener` under `token`: it reports ready while a
    /// connection waits to be accepted. Switches it to non-blocking
    /// mode. Listeners are borrowed, not owned: the watch lasts until
    /// the listener (every clone of it) closes or the poller drops.
    pub fn register_listener(&self, token: u64, listener: &TcpListener) -> io::Result<()> {
        if token == WAKE {
            return Err(io::ErrorKind::InvalidInput.into());
        }
        listener.set_nonblocking(true)?;
        let ep = &self.epoll()?.ep;
        sys::ctl(ep, sys::EPOLL_CTL_ADD, listener, sys::EPOLLIN, token)
    }

    /// Also report (`true`) or stop reporting (`false`) the stream
    /// under `token` when its send buffer has room. Level-triggered
    /// like everything else — an idle socket is always writable — so
    /// arm it only while output is staged.
    pub fn set_writable_interest(&mut self, token: u64, on: bool) -> io::Result<()> {
        let stream = self.streams.get(&token).ok_or(io::ErrorKind::NotFound)?;
        let events = sys::EPOLLIN | if on { sys::EPOLLOUT } else { 0 };
        sys::ctl(&self.epoll()?.ep, sys::EPOLL_CTL_MOD, stream, events, token)
    }

    /// Remove the stream registered under `token` (no-op if absent).
    pub fn deregister(&mut self, token: u64) {
        if let (Some(stream), Ok(epoll)) = (self.streams.remove(&token), &self.epoll) {
            // Delete before the descriptor closes: a clone held by the
            // caller keeps the socket open, and epoll tracks the socket.
            let _ = sys::ctl(&epoll.ep, sys::EPOLL_CTL_DEL, &stream, 0, 0);
        }
    }

    /// Park up to `timeout` until a registered socket needs attention
    /// or a [`Waker`] fires; returns the ready tokens (empty on timeout
    /// or wake). Returns immediately when something is already ready.
    pub fn poll(&self, timeout: Duration) -> Vec<u64> {
        let mut ready = Vec::new();
        let Ok(Epoll { ep, wake }) = &self.epoll else {
            return ready;
        };
        // A timeout too long to represent parks until woken.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // Round up: epoll counts whole milliseconds, and waking
            // early would turn the caller's wait into a spin.
            let timeout_ms = deadline.map_or(-1, |d| {
                let left = d.saturating_duration_since(Instant::now());
                left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
            });
            match sys::wait(ep, timeout_ms, &mut ready) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => break,
            }
        }
        if ready.contains(&WAKE) {
            ready.retain(|&t| t != WAKE);
            let _ = (&**wake).read(&mut [0u8; 8]);
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Read, Write};

    /// A connected loopback pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn idle_stream_times_out_with_no_ready_tokens() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        poller.register(7, a.try_clone().unwrap()).unwrap();
        let ready = poller.poll(Duration::from_millis(10));
        assert!(ready.is_empty(), "idle stream reported ready: {ready:?}");
    }

    #[test]
    fn written_stream_becomes_ready_and_stays_ready_until_drained() {
        let (a, mut b) = pair();
        let mut poller = Poller::new();
        poller.register(3, a.try_clone().unwrap()).unwrap();
        b.write_all(b"x").unwrap();
        let ready = poller.poll(Duration::from_secs(5));
        assert_eq!(ready, vec![3]);
        // Readiness is level-triggered: still ready until the owner reads.
        assert_eq!(poller.poll(Duration::from_secs(5)), vec![3]);
        // Registration switched the shared socket to non-blocking (the
        // mode lives on the socket, not the clone), so read without
        // flipping it back — the byte is buffered and returns at once.
        let mut byte = [0u8; 1];
        let mut owner = a.try_clone().unwrap();
        owner.read_exact(&mut byte).unwrap();
        assert!(poller.poll(Duration::from_millis(5)).is_empty());
    }

    #[test]
    fn eof_is_a_readiness_event() {
        let (a, b) = pair();
        let mut poller = Poller::new();
        poller.register(11, a.try_clone().unwrap()).unwrap();
        drop(b);
        let ready = poller.poll(Duration::from_secs(5));
        assert_eq!(ready, vec![11]);
    }

    #[test]
    fn multiple_streams_report_every_ready_token() {
        let (a1, mut b1) = pair();
        let (a2, _b2) = pair();
        let (a3, mut b3) = pair();
        let mut poller = Poller::new();
        poller.register(1, a1.try_clone().unwrap()).unwrap();
        poller.register(2, a2.try_clone().unwrap()).unwrap();
        poller.register(3, a3.try_clone().unwrap()).unwrap();
        b1.write_all(b"a").unwrap();
        b3.write_all(b"c").unwrap();
        let mut ready = poller.poll(Duration::from_secs(5));
        ready.sort_unstable();
        assert_eq!(ready, vec![1, 3]);
    }

    #[test]
    fn deregistered_stream_is_never_reported() {
        let (a, mut b) = pair();
        let mut poller = Poller::new();
        poller.register(9, a.try_clone().unwrap()).unwrap();
        poller.deregister(9);
        assert!(poller.streams.is_empty());
        b.write_all(b"x").unwrap();
        assert!(poller.poll(Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn full_send_buffer_reports_writable_only_after_the_peer_drains() {
        let (a, mut b) = pair();
        let mut poller = Poller::new();
        poller.register(5, a.try_clone().unwrap()).unwrap();
        // Fill the send path until the kernel refuses more.
        let mut writer = a.try_clone().unwrap();
        let chunk = [0u8; 64 * 1024];
        let mut written = 0usize;
        loop {
            match writer.write(&chunk) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("fill: {e}"),
            }
        }
        poller.set_writable_interest(5, true).unwrap();
        assert!(
            poller.poll(Duration::from_millis(20)).is_empty(),
            "a full send buffer must not report writable"
        );
        // The peer drains everything in flight; room opens up.
        let mut sink = vec![0u8; 64 * 1024];
        let mut drained = 0usize;
        while drained < written {
            drained += b.read(&mut sink).unwrap();
        }
        assert_eq!(poller.poll(Duration::from_secs(5)), vec![5]);
        // Disarmed, an idle writable socket is quiet again.
        poller.set_writable_interest(5, false).unwrap();
        assert!(poller.poll(Duration::from_millis(5)).is_empty());
    }

    #[test]
    fn listener_reports_ready_while_a_connection_waits() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new();
        poller.register_listener(2, &listener).unwrap();
        assert!(poller.poll(Duration::from_millis(5)).is_empty());
        let _dialer = TcpStream::connect(addr).unwrap();
        assert_eq!(poller.poll(Duration::from_secs(5)), vec![2]);
        listener.accept().unwrap();
        assert!(poller.poll(Duration::from_millis(5)).is_empty());
    }

    #[test]
    fn waker_cuts_a_parked_poll_short_from_another_thread() {
        let (a, _b) = pair();
        let mut poller = Poller::new();
        poller.register(1, a).unwrap();
        let waker = poller.waker().unwrap();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            parked_rx.recv().unwrap();
            waker.wake();
        });
        let t0 = Instant::now();
        parked_tx.send(()).unwrap();
        let ready = poller.poll(Duration::from_secs(30));
        t.join().unwrap();
        assert!(ready.is_empty(), "a wake reports no token: {ready:?}");
        assert!(t0.elapsed() < Duration::from_secs(10), "wake was lost");
        // The wake is consumed: the next poll parks for its timeout.
        assert!(poller.poll(Duration::from_millis(5)).is_empty());
    }

    #[test]
    fn deregister_then_close_does_not_report() {
        let (a, b) = pair();
        let keep_open = a.try_clone().unwrap();
        let mut poller = Poller::new();
        poller.register(4, a).unwrap();
        poller.deregister(4);
        // The hang-up lands on a socket a clone still holds open; a
        // registration that outlived its descriptor would report it.
        drop(b);
        assert!(poller.poll(Duration::from_millis(20)).is_empty());
        drop(keep_open);
    }

    /// Thread CPU (user + system) in clock ticks, from
    /// `/proc/thread-self/stat` fields 14 and 15.
    fn thread_cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // The comm field may contain spaces; fields resume after ')'.
        let rest = &stat[stat.rfind(')').unwrap() + 2..];
        let mut fields = rest.split_whitespace().skip(11);
        let utime: u64 = fields.next().unwrap().parse().unwrap();
        let stime: u64 = fields.next().unwrap().parse().unwrap();
        utime + stime
    }

    #[test]
    fn idle_poll_costs_no_cpu() {
        let pairs: Vec<_> = (0..4).map(|_| pair()).collect();
        let mut poller = Poller::new();
        for (i, (a, _)) in pairs.iter().enumerate() {
            poller.register(i as u64, a.try_clone().unwrap()).unwrap();
        }
        let before = thread_cpu_ticks();
        assert!(poller.poll(Duration::from_secs(1)).is_empty());
        // USER_HZ is 100 on Linux: one tick is 10 ms, so "< 20 ms" is
        // at most one tick of accounting noise.
        let ticks = thread_cpu_ticks() - before;
        assert!(ticks < 2, "idle poll(1 s) burned {ticks} ticks of CPU");
    }
}
