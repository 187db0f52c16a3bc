//! The socket layer: nonblocking accept + per-worker connection polling.
//!
//! All protocol logic lives in [`Conn`]; this module only shovels bytes.
//! [`serve`] runs one accept+poll loop per worker over scoped threads
//! (workers default to [`tsad_parallel::current_threads`], so
//! `TSAD_THREADS` governs the server like every other subsystem). Every
//! socket is nonblocking: a worker never parks on one connection, so a
//! hostile client dribbling a request byte-per-second cannot stall the
//! accept loop or its neighbours — it just burns its own idle deadline
//! and gets closed.
//!
//! A pass that finds no work ends in a readiness wait (`ppoll(2)` on
//! Linux) over the listener and every connection's socket, so the next
//! request wakes the worker as soon as its bytes land. The wait is
//! bounded at 50 µs, which keeps the group-commit tick, the deadline
//! checks and shutdown at a fixed cadence. Other targets sleep for the
//! same bound.
//!
//! Two deadlines apply per connection: a short one while a *partial*
//! request is buffered (the slowloris guard) and a longer keep-alive one
//! while the connection is idle between requests.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsad_stream::DetectorFactory;

use crate::conn::{Conn, ConnConfig};
use crate::engine::{BatchLog, Engine};
use crate::{INGEST_CONNS, INGEST_TIMEOUTS};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads; 0 means [`tsad_parallel::current_threads`].
    pub workers: usize,
    /// Per-connection parser bounds.
    pub conn: ConnConfig,
    /// Open connections each worker will hold; accepts pause (in the OS
    /// backlog) while a worker is full.
    pub max_conns_per_worker: usize,
    /// Deadline for a connection holding a partially received request
    /// (the slowloris guard).
    pub idle_timeout: Duration,
    /// Deadline for an idle keep-alive connection with no pending bytes.
    pub keep_alive_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            conn: ConnConfig::default(),
            max_conns_per_worker: 128,
            idle_timeout: Duration::from_secs(2),
            keep_alive_timeout: Duration::from_secs(30),
        }
    }
}

/// Longest single idle wait. Bounding the wait keeps three things at this
/// cadence while no socket is ready: the [`BatchLog::tick`] group-commit
/// age bound, the per-connection deadline checks, and shutdown. Longer
/// bounds measured slower, not faster (DESIGN.md §13, "Idle wait").
const IDLE_WAIT: Duration = Duration::from_micros(50);

/// One worker's view of a connection.
struct Slot {
    stream: TcpStream,
    conn: Conn,
    /// Last time this connection made progress (bytes moved or a request
    /// completed); deadlines measure from here.
    last_progress: Instant,
}

impl Slot {
    fn close(self) {
        INGEST_CONNS.sub(1);
        // Drop closes the socket; best-effort FIN first.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Runs the server until `shutdown` becomes true. Blocks the calling
/// thread; use [`start`] for a handle-based background server.
pub fn serve<F, L>(
    engine: &Engine<F, L>,
    listener: TcpListener,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<()>
where
    F: DetectorFactory + Send,
    F::Detector: Sync,
    L: BatchLog,
{
    listener.set_nonblocking(true)?;
    let workers = if cfg.workers == 0 {
        tsad_parallel::current_threads()
    } else {
        cfg.workers
    }
    .max(1);

    tsad_parallel::scope(|s| {
        for _ in 0..workers {
            let listener = listener.try_clone().expect("clone listener");
            s.spawn(move || worker_loop(engine, &listener, cfg, shutdown));
        }
    });
    Ok(())
}

/// One worker: accept into free capacity, then poll every connection.
fn worker_loop<F, L>(
    engine: &Engine<F, L>,
    listener: &TcpListener,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) where
    F: DetectorFactory,
    F::Detector: Sync,
    L: BatchLog,
{
    let mut slots: Vec<Slot> = Vec::new();
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut wait_set = WaitSet::default();
    while !shutdown.load(Ordering::Relaxed) {
        let mut worked = false;
        let mut accept_failed = false;

        // Accept while capacity remains; the listener is shared, so each
        // pending connection lands on whichever worker grabs it first.
        while slots.len() < cfg.max_conns_per_worker {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    INGEST_CONNS.add(1);
                    slots.push(Slot {
                        stream,
                        conn: Conn::new(cfg.conn),
                        last_progress: Instant::now(),
                    });
                    worked = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient (EMFILE etc.): the connection stays
                    // pending, so the listener stays readable. Leave it
                    // out of this pass's wait or the worker would spin.
                    accept_failed = true;
                    break;
                }
            }
        }

        let now = Instant::now();
        let mut i = 0;
        while i < slots.len() {
            let slot = &mut slots[i];
            let mut drop_conn = false;

            // Read what the peer has; feed it through the state machine.
            if !slot.conn.wants_close() {
                match slot.stream.read(&mut read_buf) {
                    Ok(0) => drop_conn = true, // peer closed; flush below
                    Ok(n) => {
                        slot.conn.feed(&read_buf[..n], engine);
                        slot.last_progress = now;
                        worked = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => drop_conn = true,
                }
            }

            // Flush pending output.
            while !slot.conn.output().is_empty() {
                match slot.stream.write(slot.conn.output()) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(n) => {
                        slot.conn.consume_output(n);
                        slot.last_progress = now;
                        worked = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }

            if slot.conn.wants_close() && slot.conn.output().is_empty() {
                drop_conn = true;
            }
            // Deadlines: short while a request is partially buffered,
            // long while idle between requests.
            let idle = now.duration_since(slot.last_progress);
            if slot.conn.has_partial() && idle > cfg.idle_timeout {
                INGEST_TIMEOUTS.inc();
                drop_conn = true;
            } else if idle > cfg.keep_alive_timeout {
                drop_conn = true;
            }

            if drop_conn {
                slots.swap_remove(i).close();
            } else {
                i += 1;
            }
        }

        if !worked {
            // Idle pass: let the durability hook enforce its group-commit
            // age bound even though no appends are arriving. An error
            // here poisons the WAL, which the next submit surfaces as
            // Internal — nothing to report from the socket layer.
            let _ = engine.log().tick();
            wait_set.wait(listener, &slots, cfg.max_conns_per_worker, accept_failed);
        }
    }
    for slot in slots.drain(..) {
        slot.close();
    }
}

/// One worker's idle wait, with a reusable interest list so idle passes
/// stay allocation-free.
#[derive(Default)]
struct WaitSet {
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

#[cfg(target_os = "linux")]
impl WaitSet {
    /// Rebuilds the interest list: the listener while the worker can
    /// accept (a free slot, and no accept error this pass), then each
    /// connection — readable unless it is closing, writable only while
    /// it holds unsent output. The pass has already dropped every closing
    /// connection with nothing left to send, so no entry is empty.
    fn fill(
        &mut self,
        listener: &TcpListener,
        slots: &[Slot],
        max_conns: usize,
        accept_failed: bool,
    ) {
        use std::os::fd::AsRawFd;

        self.fds.clear();
        if slots.len() < max_conns && !accept_failed {
            self.fds
                .push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
        }
        for slot in slots {
            let mut events = 0;
            if !slot.conn.wants_close() {
                events |= sys::POLLIN;
            }
            if !slot.conn.output().is_empty() {
                events |= sys::POLLOUT;
            }
            self.fds
                .push(sys::PollFd::new(slot.stream.as_raw_fd(), events));
        }
    }

    /// Blocks until a socket in the interest list is ready or
    /// [`IDLE_WAIT`] passes. Every outcome, `EINTR` included, just
    /// starts the next pass, which re-checks everything.
    fn wait(
        &mut self,
        listener: &TcpListener,
        slots: &[Slot],
        max_conns: usize,
        accept_failed: bool,
    ) {
        self.fill(listener, slots, max_conns, accept_failed);
        sys::wait(&mut self.fds, IDLE_WAIT);
    }
}

#[cfg(not(target_os = "linux"))]
impl WaitSet {
    /// No readiness wait here: sleep for the bound instead.
    fn wait(&mut self, _: &TcpListener, _: &[Slot], _: usize, _: bool) {
        std::thread::sleep(IDLE_WAIT);
    }
}

/// `ppoll(2)`, declared against the libc that std already links.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    impl PollFd {
        pub fn new(fd: c_int, events: c_short) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }
    }

    /// `struct timespec` (`time_t` is a C `long` on Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until one of `fds` is ready or `timeout` passes. The result
    /// is ignored: callers re-check every socket afterwards anyway.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // pollfd records and `nfds` is its length, so the kernel writes
        // only `revents` fields inside it; `ts` outlives the call; a null
        // sigmask leaves the thread's signal mask unchanged.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            );
        }
    }
}

/// A running background server (see [`start`]).
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals shutdown and waits for the workers to exit.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::Relaxed);
        match self.join.take() {
            Some(join) => join.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Binds `addr` and runs [`serve`] on a background thread.
pub fn start<F, L>(
    engine: Arc<Engine<F, L>>,
    cfg: ServerConfig,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle>
where
    F: DetectorFactory + Send + 'static,
    F::Detector: Sync,
    L: BatchLog + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shutdown2 = Arc::clone(&shutdown);
    let join = std::thread::Builder::new()
        .name("tsad-ingest-server".into())
        .spawn(move || serve(&engine, listener, &cfg, &shutdown2))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        join: Some(join),
    })
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    use tsad_fleet::{Fleet, FleetConfig};
    use tsad_stream::{FnFactory, StreamingGlobalZScore};

    type TestFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

    fn engine() -> Engine<TestFactory> {
        fn spawn(_id: u64) -> StreamingGlobalZScore {
            StreamingGlobalZScore::new(2).expect("window >= 2")
        }
        Engine::new(
            Fleet::new(
                FnFactory(spawn as fn(u64) -> StreamingGlobalZScore),
                FleetConfig::default(),
            ),
            crate::EngineConfig::default(),
        )
    }

    /// A listener plus one accepted slot per request prefix, each fed
    /// its bytes so the connection sits in the state under test.
    fn setup(fed: &[&[u8]]) -> (TcpListener, Vec<Slot>, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let engine = engine();
        let mut slots = Vec::new();
        let mut peers = Vec::new();
        for bytes in fed {
            peers.push(TcpStream::connect(listener.local_addr().unwrap()).expect("connect"));
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = Conn::new(ConnConfig::default());
            conn.feed(bytes, &engine);
            slots.push(Slot {
                stream,
                conn,
                last_progress: Instant::now(),
            });
        }
        (listener, slots, peers)
    }

    fn entries(set: &WaitSet) -> Vec<(i32, i16)> {
        set.fds.iter().map(|p| (p.fd, p.events)).collect()
    }

    #[test]
    fn listener_is_watched_only_while_the_worker_can_accept() {
        let (listener, slots, _peers) = setup(&[b"", b""]);
        let lfd = listener.as_raw_fd();
        let mut set = WaitSet::default();

        set.fill(&listener, &slots, 3, false);
        assert_eq!(set.fds[0], sys::PollFd::new(lfd, sys::POLLIN));
        assert_eq!(set.fds.len(), 3);

        // an accept error leaves the connection pending: do not wait on it
        set.fill(&listener, &slots, 3, true);
        assert!(entries(&set).iter().all(|&(fd, _)| fd != lfd));
        assert_eq!(set.fds.len(), 2);

        // a full worker leaves new connections in the OS backlog
        set.fill(&listener, &slots, 2, false);
        assert!(entries(&set).iter().all(|&(fd, _)| fd != lfd));
        assert_eq!(set.fds.len(), 2);
    }

    #[test]
    fn writability_is_watched_only_with_pending_output() {
        let (listener, slots, _peers) = setup(&[b"", b"GET /healthz HTTP/1.1\r\n\r\n"]);
        assert!(slots[0].conn.output().is_empty());
        assert!(!slots[1].conn.output().is_empty());
        let mut set = WaitSet::default();
        set.fill(&listener, &slots, 0, false);
        assert_eq!(
            entries(&set),
            vec![
                (slots[0].stream.as_raw_fd(), sys::POLLIN),
                (slots[1].stream.as_raw_fd(), sys::POLLIN | sys::POLLOUT),
            ]
        );
    }

    #[test]
    fn a_closing_connection_is_not_watched_for_input() {
        let (listener, slots, _peers) = setup(&[b"GET /healthz HTTP/1.0\r\n\r\n"]);
        assert!(slots[0].conn.wants_close());
        assert!(!slots[0].conn.output().is_empty());
        let mut set = WaitSet::default();
        set.fill(&listener, &slots, 0, false);
        assert_eq!(
            entries(&set),
            vec![(slots[0].stream.as_raw_fd(), sys::POLLOUT)]
        );
    }

    #[test]
    fn the_wait_returns_when_a_connection_becomes_readable() {
        let (listener, slots, mut peers) = setup(&[b""]);
        let mut set = WaitSet::default();
        peers[0].write_all(b"G").expect("write");
        // the byte is already queued: the kernel reports the socket readable
        set.wait(&listener, &slots, 0, false);
        assert_eq!(set.fds[0].revents & sys::POLLIN, sys::POLLIN);
    }
}
