//! A non-blocking readiness loop that blocks in `poll(2)`: the daemon's
//! front end.
//!
//! ```text
//!            ┌────────────── reactor thread ───────────────┐
//!  accept ──▶│ per-conn read buf ─lines─▶ sink.handle_line │
//!            │        ▲                        │           │
//!            │   deadlines, caps        Respond / Batch    │
//!            │        │                        ▼           │
//!  write ◀───│ per-conn write buf ◀── pending FIFO ◀ slots │◀─ workers fill
//!            └──────────────── poll(2) ◀── Waker ◀─────────┘   JobSlots, wake
//! ```
//!
//! One thread multiplexes every connection over nonblocking sockets —
//! no thread per connection, so thousands of concurrent idle
//! connections cost a few KiB of buffers each, not a stack. Each pass
//! ends in one `poll(2)` on the listener, on every connection that
//! wants to read or write, and on a [`Waker`] that workers signal when
//! they fill a [`JobSlot`]; it sleeps until one of them is ready or
//! the earliest deadline passes. A request is read, answered and
//! written as soon as its bytes land, and an idle daemon makes no
//! passes at all. Only connections the kernel reported ready, or whose
//! batch just landed, cost a `read`/`write` syscall: an idle connection
//! adds one `pollfd` entry per pass, nothing more.
//!
//! Responsibilities and guarantees:
//!
//! * **Hits at parse time.** The sink answers whatever it can without
//!   a worker — status, metrics, errors, and `submit` batches that are
//!   all run-cache hits — as [`LineOutcome::Respond`], so such a
//!   request is read, answered and written in one pass. Only misses,
//!   in-flight keys and partial-hit batches come back as
//!   [`LineOutcome::Batch`] and wait on worker-filled [`JobSlot`]s.
//! * **Pipelining with ordered responses.** A connection may send many
//!   request lines without waiting; each parses immediately and joins a
//!   per-connection FIFO of pending responses. Responses are written
//!   strictly in request order (head-of-line: a still-computing batch
//!   blocks the writes behind it, never the reads).
//! * **Back-pressure.** While a connection's unsent output — the rest
//!   of its write buffer plus the ready responses queued behind a
//!   batch — exceeds `max_line_bytes`, the reactor stops reading it. A
//!   client that pipelines requests without reading the responses
//!   fills its own socket buffers, not the daemon's memory.
//! * **Deadlines.** A connection with no complete request in
//!   `read_timeout` — idle, or a slow-loris client dribbling a partial
//!   line — is dropped, unless it still has responses in flight (a
//!   caller blocked on a long simulation is not idle).
//! * **Bounded lines.** A request line exceeding `max_line_bytes` gets
//!   the structured `limit_exceeded` error and the connection is closed
//!   after the error flushes (mid-line there is no way to resync).
//! * **Bounded connections.** Beyond `max_connections` concurrent
//!   connections, new arrivals are handed a structured `overloaded`
//!   error and closed immediately — load is shed, never silently hung.
//! * **Drain.** Once the sink reports shutdown (whoever flips it wakes
//!   the reactor), accepting stops, every pending response is computed
//!   and flushed (bounded by `drain_grace`), and the loop returns.

use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::c_short;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wakes a reactor blocked in `poll(2)`: the write end of a
/// non-blocking socket pair whose read end the reactor polls. Clones
/// share the pair.
#[derive(Clone)]
pub struct Waker {
    pair: Arc<(UnixStream, UnixStream)>,
}

impl Waker {
    /// A fresh socket pair.
    ///
    /// # Errors
    ///
    /// Socket creation failure (out of file descriptors).
    pub fn new() -> std::io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker {
            pair: Arc::new((rx, tx)),
        })
    }

    /// Makes the reactor's current or next wait return. A full socket
    /// (`WouldBlock`) means a wake-up is already pending, so the byte
    /// is dropped.
    pub fn wake(&self) {
        let _ = (&self.pair.1).write(&[1]);
    }

    /// Empties the read end, so the next wait blocks again. Called
    /// before the slots are checked: a fill that lands after the drain
    /// leaves a byte behind and ends the next wait at once.
    fn drain(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.pair.0).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn fd(&self) -> RawFd {
        self.pair.0.as_raw_fd()
    }
}

/// A single-assignment result cell a worker fills and the reactor
/// polls.
pub struct JobSlot {
    done: Mutex<Option<Result<String, String>>>,
    waker: Waker,
}

impl JobSlot {
    /// An empty slot whose fill wakes the reactor through `waker`.
    pub fn new(waker: &Waker) -> Arc<Self> {
        Arc::new(JobSlot {
            done: Mutex::new(None),
            waker: waker.clone(),
        })
    }

    /// Deposits the result (`Ok` = canonical encoded response object,
    /// `Err` = failure detail), then wakes the reactor.
    pub fn fill(&self, value: Result<String, String>) {
        *self.done.lock().expect("job slot poisoned") = Some(value);
        self.waker.wake();
    }

    /// Takes the result if it has landed; never blocks.
    pub fn try_take(&self) -> Option<Result<String, String>> {
        self.done.lock().expect("job slot poisoned").take()
    }
}

/// What the protocol layer does with one complete request line.
pub enum LineOutcome {
    /// A response is ready now (status, metrics, errors, fills, and
    /// batches answered wholly from the run cache).
    Respond(String),
    /// The line admitted a batch; the reactor collects the slots and
    /// assembles the response once every slot is filled.
    Batch(Vec<Arc<JobSlot>>),
}

/// The protocol layer the reactor drives: parsing, admission, batch
/// assembly, and shutdown state all live behind this trait so the
/// reactor stays pure I/O.
pub trait RequestSink: Sync {
    /// Handles one complete, non-empty request line.
    fn handle_line(&self, line: &str) -> LineOutcome;
    /// Assembles the final response for a completed batch, in job
    /// order.
    fn finish_batch(&self, results: Vec<Result<String, String>>) -> String;
    /// When true the reactor stops accepting and drains. Checked once
    /// per pass; whoever flips it must wake the reactor's [`Waker`].
    fn shutting_down(&self) -> bool;
    /// An accepted connection (counters).
    fn on_connection(&self);
    /// A connection shed at the cap; returns the error line to send.
    fn on_connection_rejected(&self) -> String;
    /// A request line exceeded `max_line_bytes`; returns the error line.
    fn on_oversized_line(&self, max_line_bytes: usize) -> String;
}

/// Front-end tuning, extracted from the daemon's `ServerConfig`.
pub struct ReactorConfig {
    /// Concurrent connection cap; arrivals beyond it are shed.
    pub max_connections: usize,
    /// Drop a connection with no complete request for this long (idle
    /// or slow-loris), unless responses are still in flight.
    pub read_timeout: Duration,
    /// Longest accepted request line in bytes; also the unsent output
    /// beyond which a connection is no longer read.
    pub max_line_bytes: usize,
    /// On shutdown, how long to keep flushing pending responses.
    pub drain_grace: Duration,
}

/// One pending response in a connection's FIFO.
enum Pending {
    /// Encoded and ready to enter the write buffer.
    Ready(String),
    /// An admitted batch, collected until every slot is filled.
    Batch {
        slots: Vec<Arc<JobSlot>>,
        results: Vec<Option<Result<String, String>>>,
    },
}

/// Per-connection state: buffers, response FIFO, liveness.
struct Conn {
    stream: TcpStream,
    /// Bytes of the line(s) in progress (no complete newline yet).
    read_buf: Vec<u8>,
    /// Encoded responses awaiting the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Responses in request order; only the head may be written.
    pending: VecDeque<Pending>,
    /// Bytes of the `Ready` entries in `pending`, newlines included.
    queued_bytes: usize,
    /// Last time a complete request line arrived (or the connection
    /// opened); the read deadline measures from here.
    last_progress: Instant,
    /// Peer half-closed its write side; serve what's pending, then go.
    read_closed: bool,
    /// Fatal protocol state (oversized line): close once flushed.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            queued_bytes: 0,
            last_progress: Instant::now(),
            read_closed: false,
            close_after_flush: false,
        }
    }

    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// Whether to read more requests: the peer may still send, no
    /// fatal error is queued, and the unsent output is within bounds.
    fn reading(&self, cfg: &ReactorConfig) -> bool {
        let unsent = self.write_buf.len() - self.write_pos + self.queued_bytes;
        !self.read_closed && !self.close_after_flush && unsent <= cfg.max_line_bytes
    }

    /// The `pollfd` for the next wait: readable while reading, writable
    /// while output is unsent, and skipped when it wants neither — so a
    /// half-closed peer whose batch is still computing cannot end every
    /// wait with a hang-up.
    fn interest(&self, cfg: &ReactorConfig) -> PollFd {
        let mut events: c_short = 0;
        if self.reading(cfg) {
            events |= POLLIN;
        }
        if !self.flushed() {
            events |= POLLOUT;
        }
        let fd = (events != 0).then(|| self.stream.as_raw_fd());
        PollFd::new(fd, events)
    }

    fn push(&mut self, pending: Pending) {
        if let Pending::Ready(line) = &pending {
            self.queued_bytes += line.len() + 1;
        }
        self.pending.push_back(pending);
    }

    /// Collects newly filled slots, turns finished batches into ready
    /// responses, and moves the ready head of the FIFO into the write
    /// buffer. Returns whether the write buffer grew.
    fn collect<S: RequestSink>(&mut self, sink: &S) -> bool {
        for pending in self.pending.iter_mut() {
            let Pending::Batch { slots, results } = pending else {
                continue;
            };
            for (slot, result) in slots.iter().zip(results.iter_mut()) {
                if result.is_none() {
                    *result = slot.try_take();
                }
            }
            if results.iter().all(Option::is_some) {
                let collected = results.iter_mut().map(|r| r.take().expect("all some"));
                let line = sink.finish_batch(collected.collect());
                self.queued_bytes += line.len() + 1;
                *pending = Pending::Ready(line);
            }
        }
        let mut grew = false;
        while let Some(Pending::Ready(_)) = self.pending.front() {
            let Some(Pending::Ready(line)) = self.pending.pop_front() else {
                unreachable!()
            };
            self.queued_bytes -= line.len() + 1;
            self.write_buf.extend_from_slice(line.as_bytes());
            self.write_buf.push(b'\n');
            grew = true;
        }
        grew
    }
}

/// Runs the readiness loop until the sink shuts down (returning
/// `Ok(())` after the drain) or the listener fails fatally. `waker`
/// must be the one the sink's [`JobSlot`]s and shutdown path signal.
///
/// # Errors
///
/// Accept-loop I/O errors other than the transient
/// `WouldBlock`/`Interrupted`/`ConnectionAborted` kinds, and `poll(2)`
/// failures other than `EINTR`.
pub fn run_reactor<S: RequestSink>(
    listener: TcpListener,
    cfg: &ReactorConfig,
    sink: &S,
    waker: &Waker,
) -> std::io::Result<()> {
    // `fds` layout: the waker, the listener, then one entry per
    // connection in `conns` order.
    const WAKER: usize = 0;
    const LISTENER: usize = 1;
    const CONNS: usize = 2;

    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Act on what the last wait reported (nothing, on the first
        // pass): service every connection, then accept.
        let draining = sink.shutting_down();
        let now = Instant::now();
        if draining {
            drain_deadline.get_or_insert(now + cfg.drain_grace);
        }
        let mut index = CONNS;
        conns.retain_mut(|conn| {
            let revents = fds.get(index).map_or(0, PollFd::revents);
            index += 1;
            service_conn(conn, revents, cfg, sink, now, draining)
        });
        if let Some(deadline) = drain_deadline {
            if conns.is_empty() || now >= deadline {
                return Ok(());
            }
        } else if fds.get(LISTENER).is_some_and(|fd| fd.revents() != 0) {
            accept_new(&listener, cfg, sink, &mut conns)?;
        }

        // Wait for readiness, a wake-up, or the earliest deadline.
        fds.clear();
        fds.push(PollFd::new(Some(waker.fd()), POLLIN));
        let listening = (!draining).then(|| listener.as_raw_fd());
        fds.push(PollFd::new(listening, POLLIN));
        let mut deadline = drain_deadline;
        for conn in &conns {
            fds.push(conn.interest(cfg));
            if conn.pending.is_empty() {
                let expiry = conn.last_progress + cfg.read_timeout;
                deadline = Some(deadline.map_or(expiry, |d| d.min(expiry)));
            }
        }
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        sys::wait(&mut fds, timeout)?;
        if fds[WAKER].revents() != 0 {
            waker.drain();
        }
    }
}

/// Accepts every connection currently queued on the listener; sheds
/// arrivals beyond the cap with a structured error.
fn accept_new<S: RequestSink>(
    listener: &TcpListener,
    cfg: &ReactorConfig,
    sink: &S,
    conns: &mut Vec<Conn>,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.len() >= cfg.max_connections {
                    shed_connection(stream, &sink.on_connection_rejected());
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                sink.on_connection();
                conns.push(Conn::new(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Best-effort structured rejection of a shed connection: a single
/// non-blocking write, then drop. A freshly accepted socket has an
/// empty send buffer, so the error line lands immediately in practice;
/// if the kernel ever reports `WouldBlock` the line is simply dropped —
/// an over-cap accept storm must never stall the reactor thread, which
/// services every live connection.
fn shed_connection(stream: TcpStream, error_line: &str) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let mut line = Vec::with_capacity(error_line.len() + 1);
    line.extend_from_slice(error_line.as_bytes());
    line.push(b'\n');
    let _ = stream.write(&line);
}

/// One pass over one connection: read if the socket reported ready,
/// collect batches, write if there is new output or the socket reported
/// ready, then check the lifecycle. Returns false when the connection
/// should be dropped.
fn service_conn<S: RequestSink>(
    conn: &mut Conn,
    revents: c_short,
    cfg: &ReactorConfig,
    sink: &S,
    now: Instant,
    draining: bool,
) -> bool {
    // ── read & parse ──────────────────────────────────────────────
    // `revents` may carry only an error or hang-up flag; the read
    // surfaces it.
    if revents != 0 {
        let mut tmp = [0u8; 4096];
        while conn.reading(cfg) {
            match conn.stream.read(&mut tmp) {
                Ok(0) => conn.read_closed = true,
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&tmp[..n]);
                    consume_lines(conn, cfg, sink, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    // ── collect batches, then write ───────────────────────────────
    let grew = conn.collect(sink);
    if grew || revents != 0 {
        while !conn.flushed() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if conn.flushed() && !conn.write_buf.is_empty() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
    }

    // ── lifecycle ─────────────────────────────────────────────────
    let settled = conn.pending.is_empty() && conn.flushed();
    if conn.close_after_flush && settled {
        return false;
    }
    if conn.read_closed && settled {
        return false;
    }
    if draining && settled {
        return false; // drained: nothing more will arrive or depart
    }
    if conn.pending.is_empty() && now.duration_since(conn.last_progress) > cfg.read_timeout {
        return false; // idle, or a slow-loris partial line
    }
    true
}

/// Splits complete lines out of the read buffer and hands them to the
/// sink; enforces the line-length bound (a buffer that fills the whole
/// allowance without a newline can never become a valid request).
fn consume_lines<S: RequestSink>(conn: &mut Conn, cfg: &ReactorConfig, sink: &S, now: Instant) {
    loop {
        let Some(nl) = conn.read_buf.iter().position(|b| *b == b'\n') else {
            if conn.read_buf.len() > cfg.max_line_bytes {
                oversize(conn, cfg, sink, now);
            }
            return;
        };
        let line: Vec<u8> = conn.read_buf.drain(..=nl).collect();
        if line.len() - 1 > cfg.max_line_bytes {
            oversize(conn, cfg, sink, now);
            return;
        }
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        conn.last_progress = now;
        if text.is_empty() {
            continue;
        }
        match sink.handle_line(text) {
            LineOutcome::Respond(response) => conn.push(Pending::Ready(response)),
            LineOutcome::Batch(slots) => {
                let results = vec![None; slots.len()];
                conn.push(Pending::Batch { slots, results });
            }
        }
    }
}

/// Queues the structured oversize error and poisons the connection
/// (close after the error flushes; mid-line there is no resync point).
fn oversize<S: RequestSink>(conn: &mut Conn, cfg: &ReactorConfig, sink: &S, now: Instant) {
    let response = sink.on_oversized_line(cfg.max_line_bytes);
    conn.push(Pending::Ready(response));
    conn.last_progress = now;
    conn.read_buf.clear();
    conn.close_after_flush = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    /// A protocol-free sink: echoes lines, parks `job` lines on a slot
    /// the test fills by hand, exposes the shutdown flag, and counts
    /// the reactor's passes (one `shutting_down` call each).
    struct EchoSink {
        shutdown: AtomicBool,
        parked: Mutex<Vec<Arc<JobSlot>>>,
        waker: Waker,
        passes: AtomicUsize,
    }

    impl EchoSink {
        fn new() -> Arc<EchoSink> {
            Arc::new(EchoSink {
                shutdown: AtomicBool::new(false),
                parked: Mutex::new(Vec::new()),
                waker: Waker::new().unwrap(),
                passes: AtomicUsize::new(0),
            })
        }

        fn passes(&self) -> usize {
            self.passes.load(Ordering::SeqCst)
        }

        /// Blocks until a `job` line has parked a slot, and returns it.
        fn wait_parked(&self) -> Arc<JobSlot> {
            loop {
                if let Some(slot) = self.parked.lock().unwrap().pop() {
                    return slot;
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
    }

    impl RequestSink for EchoSink {
        fn handle_line(&self, line: &str) -> LineOutcome {
            if line == "job" {
                let slot = JobSlot::new(&self.waker);
                self.parked.lock().unwrap().push(Arc::clone(&slot));
                LineOutcome::Batch(vec![slot])
            } else {
                LineOutcome::Respond(format!("echo:{line}"))
            }
        }

        fn finish_batch(&self, results: Vec<Result<String, String>>) -> String {
            results
                .into_iter()
                .map(|r| r.unwrap_or_else(|e| format!("err:{e}")))
                .collect::<Vec<_>>()
                .join("+")
        }

        fn shutting_down(&self) -> bool {
            self.passes.fetch_add(1, Ordering::SeqCst);
            self.shutdown.load(Ordering::SeqCst)
        }

        fn on_connection(&self) {}

        fn on_connection_rejected(&self) -> String {
            "overloaded".to_string()
        }

        fn on_oversized_line(&self, max_line_bytes: usize) -> String {
            format!("oversized:{max_line_bytes}")
        }
    }

    struct Harness {
        addr: String,
        sink: Arc<EchoSink>,
        handle: thread::JoinHandle<std::io::Result<()>>,
    }

    impl Harness {
        fn start(cfg: ReactorConfig) -> Harness {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let sink = EchoSink::new();
            let worker = Arc::clone(&sink);
            let handle =
                thread::spawn(move || run_reactor(listener, &cfg, &*worker, &worker.waker));
            Harness { addr, sink, handle }
        }

        fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
            let stream = TcpStream::connect(&self.addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            (stream, reader)
        }

        fn stop(self) {
            self.sink.shutdown.store(true, Ordering::SeqCst);
            self.sink.waker.wake();
            self.handle.join().unwrap().unwrap();
        }
    }

    fn cfg() -> ReactorConfig {
        ReactorConfig {
            max_connections: 16,
            read_timeout: Duration::from_secs(5),
            max_line_bytes: 1024,
            drain_grace: Duration::from_secs(2),
        }
    }

    fn round_trip(w: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> String {
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    #[test]
    fn slow_loris_is_dropped_without_stalling_others() {
        let h = Harness::start(ReactorConfig {
            read_timeout: Duration::from_millis(150),
            ..cfg()
        });
        // The loris sends a partial line and then nothing, forever.
        let (mut loris, _loris_r) = h.connect();
        loris.write_all(b"{\"partial").unwrap();
        // A healthy connection keeps being served the whole time the
        // loris is waiting out its deadline.
        let (mut w, mut r) = h.connect();
        for i in 0..5 {
            assert_eq!(
                round_trip(&mut w, &mut r, &format!("ping{i}")),
                format!("echo:ping{i}")
            );
            thread::sleep(Duration::from_millis(60));
        }
        // 5 × 60 ms > the 150 ms deadline: the loris must be gone — its
        // socket reads EOF (server closed it), not a hang.
        loris
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 8];
        let n = loris.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "loris connection should have been closed");
        h.stop();
    }

    #[test]
    fn oversized_line_gets_structured_error_then_close() {
        let h = Harness::start(ReactorConfig {
            max_line_bytes: 64,
            ..cfg()
        });
        let (mut w, mut r) = h.connect();
        let mut big = vec![b'x'; 200];
        big.push(b'\n');
        w.write_all(&big).unwrap();
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "oversized:64");
        // Mid-line there is no resync point: the connection closes
        // after the error flushes (EOF, or a reset if the tail of the
        // oversized line was still in flight).
        let mut rest = String::new();
        let n = r.read_line(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "connection should close after the error");
        h.stop();
    }

    #[test]
    fn connection_cap_sheds_with_structured_error_not_a_hang() {
        let h = Harness::start(ReactorConfig {
            max_connections: 2,
            ..cfg()
        });
        // Fill the cap, with a round trip each so both connections are
        // registered before the third arrives.
        let (mut w1, mut r1) = h.connect();
        assert_eq!(round_trip(&mut w1, &mut r1, "a"), "echo:a");
        let (mut w2, mut r2) = h.connect();
        assert_eq!(round_trip(&mut w2, &mut r2, "b"), "echo:b");
        // The third is shed immediately with the structured error.
        let (_w3, mut r3) = h.connect();
        let mut resp = String::new();
        r3.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "overloaded");
        let mut rest = String::new();
        assert_eq!(r3.read_line(&mut rest).unwrap_or(0), 0);
        // The registered connections still work.
        assert_eq!(round_trip(&mut w1, &mut r1, "c"), "echo:c");
        h.stop();
    }

    #[test]
    fn responses_stay_in_request_order_behind_a_pending_batch() {
        let h = Harness::start(cfg());
        let (mut w, mut r) = h.connect();
        // Pipelined: a parked batch, then an instant echo. The echo
        // must NOT overtake the batch response.
        w.write_all(b"job\nping\n").unwrap();
        thread::sleep(Duration::from_millis(100));
        let slot = loop {
            if let Some(slot) = h.sink.parked.lock().unwrap().pop() {
                break slot;
            }
            thread::sleep(Duration::from_millis(5));
        };
        slot.fill(Ok("done".to_string()));
        let mut first = String::new();
        r.read_line(&mut first).unwrap();
        assert_eq!(first.trim_end(), "done");
        let mut second = String::new();
        r.read_line(&mut second).unwrap();
        assert_eq!(second.trim_end(), "echo:ping");
        h.stop();
    }

    #[test]
    fn shutdown_drains_pending_batches_before_exit() {
        let h = Harness::start(cfg());
        let (mut w, mut r) = h.connect();
        w.write_all(b"job\n").unwrap();
        loop {
            if !h.sink.parked.lock().unwrap().is_empty() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Shutdown with the batch still computing: the reactor must
        // wait for the fill and flush the response before returning.
        h.sink.shutdown.store(true, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(50));
        let slot = h.sink.parked.lock().unwrap().pop().unwrap();
        slot.fill(Ok("late".to_string()));
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "late");
        h.handle.join().unwrap().unwrap();
    }
    #[test]
    fn idle_connections_and_a_parked_batch_cost_no_passes() {
        let h = Harness::start(cfg());
        let mut idle = Vec::new();
        for i in 0..3 {
            let (mut w, mut r) = h.connect();
            assert_eq!(
                round_trip(&mut w, &mut r, &format!("hi{i}")),
                format!("echo:hi{i}")
            );
            idle.push((w, r));
        }
        let (mut w, mut r) = h.connect();
        w.write_all(b"job\n").unwrap();
        let slot = h.sink.wait_parked();
        thread::sleep(Duration::from_millis(20));
        let before = h.sink.passes();
        thread::sleep(Duration::from_millis(300));
        let passes = h.sink.passes() - before;
        assert!(passes <= 10, "{passes} passes in 300 ms while idle");
        slot.fill(Ok("done".to_string()));
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "done");
        h.stop();
    }

    #[test]
    fn closed_client_with_a_parked_batch_does_not_spin() {
        let h = Harness::start(cfg());
        let (mut w, r) = h.connect();
        w.write_all(b"job\n").unwrap();
        let slot = h.sink.wait_parked();
        drop((w, r));
        // Let the reactor read the EOF, then watch it stay asleep.
        thread::sleep(Duration::from_millis(50));
        let before = h.sink.passes();
        thread::sleep(Duration::from_millis(300));
        assert_eq!(h.sink.passes(), before, "a hung-up peer woke the reactor");
        // The late fill is written to a closed socket: the connection
        // is dropped and the reactor keeps serving.
        slot.fill(Ok("late".to_string()));
        let (mut w, mut r) = h.connect();
        assert_eq!(round_trip(&mut w, &mut r, "still"), "echo:still");
        h.stop();
    }

    #[test]
    fn shutdown_and_a_wake_end_an_idle_reactor_promptly() {
        let h = Harness::start(cfg());
        let (mut w, mut r) = h.connect();
        assert_eq!(round_trip(&mut w, &mut r, "a"), "echo:a");
        thread::sleep(Duration::from_millis(50));
        let sink = Arc::clone(&h.sink);
        let start = Instant::now();
        thread::spawn(move || {
            sink.shutdown.store(true, Ordering::SeqCst);
            sink.waker.wake();
        });
        h.handle.join().unwrap().unwrap();
        let took = start.elapsed();
        assert!(took < Duration::from_millis(100), "drain took {took:?}");
    }

    #[test]
    fn a_fill_from_another_thread_is_written_without_socket_traffic() {
        let h = Harness::start(cfg());
        let (mut w, mut r) = h.connect();
        w.write_all(b"job\n").unwrap();
        let slot = h.sink.wait_parked();
        thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        thread::spawn(move || slot.fill(Ok("filled".to_string())));
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        let took = start.elapsed();
        assert_eq!(resp.trim_end(), "filled");
        assert!(
            took < Duration::from_millis(50),
            "fill reached the client in {took:?}"
        );
        h.stop();
    }

    #[test]
    fn a_client_that_never_reads_is_held_by_back_pressure() {
        /// Fixed-length request lines, so a byte count maps to a line
        /// count.
        const LINE: usize = 64;
        fn line(i: usize) -> String {
            format!("p{i:08}{}\n", "x".repeat(LINE - 10))
        }
        let total = 64 << 20;
        // A deadline far beyond the 2 s write timeout: the connection
        // must survive its stall however long the buffers take to fill.
        let h = Harness::start(ReactorConfig {
            read_timeout: Duration::from_secs(60),
            ..cfg()
        });
        let (mut w, mut r) = h.connect();
        w.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        let (mut sent, mut chunk, mut at) = (0, Vec::new(), 0);
        while sent < total {
            if at == chunk.len() {
                let first = sent / LINE;
                chunk = (first..first + 1024)
                    .map(line)
                    .collect::<String>()
                    .into_bytes();
                at = 0;
            }
            match w.write(&chunk[at..]) {
                Ok(n) => {
                    sent += n;
                    at += n;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => panic!("write failed: {e}"),
            }
        }
        assert!(sent < total, "the daemon buffered all {sent} bytes");
        // Every complete line sent is answered, in order, once the
        // client reads.
        for i in 0..sent / LINE {
            let mut resp = String::new();
            r.read_line(&mut resp).unwrap();
            assert_eq!(resp.trim_end(), format!("echo:{}", line(i).trim_end()));
        }
        h.stop();
    }
}
