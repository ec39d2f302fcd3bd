//! TCP socket transport: the same newline-delimited JSON protocol as
//! the stdin transport, served to many concurrent clients.
//!
//! Layout: one accept thread, and one detached reader thread per
//! connection feeding the shared admission queue. The connection's
//! `LineSink` travels *with* each job through the queue, so the
//! worker that finishes it writes the answer straight to the admitting
//! connection — no writer thread, no global response bus to misdeliver
//! on. A client that falls [`WRITE_TIMEOUT`] behind its answers,
//! reading nothing or reading too slowly, is hung up, which also stops
//! its reader; reader EOF (a half-close) stops only tickers.
//!
//! Framing is byte-oriented: `BufReader::read_line` assembles a frame
//! from however many TCP segments it arrived in, so a request split
//! across writes (or many requests coalesced into one segment) parses
//! identically to the stdin transport.
//!
//! `watch` subscriptions get a dedicated ticker thread per
//! subscription; reader EOF or a broken sink ends the stream within
//! one interval, so a client disconnecting mid-watch leaks nothing.

use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tc_trace::MetricsSnapshot;

use crate::{install_fault_panic_hook, Core, LineSink, ReqId, ServeConfig, ServeSummary};

/// How far a client may fall behind its answers before the server
/// hangs up on it. Each moment one of its lines waits for room in the
/// socket adds to the connection's lag; each moment with no line
/// waiting takes as much off, down to zero. So a client that never
/// reads is hung up this long after its socket buffers fill, and one
/// that keeps reading, but leaves its lines waiting more than half the
/// time, a little later. Until then every worker holding one of its
/// answers waits on it.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The socket's write timeout: how often a line waiting on its client
/// checks the lag.
const LAG_POLL: Duration = Duration::from_millis(10);

/// A running socket server. Dropping the handle leaks the listener
/// threads; call [`SocketHandle::shutdown`] (tests, embedders) or
/// [`SocketHandle::wait`] (the CLI's foreground mode) to finish the
/// session and collect its [`ServeSummary`].
pub struct SocketHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Bind the server core to an already-bound listener and start
/// accepting. The listener is taken by value so the caller can bind
/// to port 0 first and read the assigned port from
/// [`SocketHandle::addr`].
pub fn serve_socket(listener: TcpListener, cfg: &ServeConfig) -> io::Result<SocketHandle> {
    install_fault_panic_hook();
    let addr = listener.local_addr()?;
    let core = Arc::new(Core::new(cfg, "socket"));
    let stop = Arc::new(AtomicBool::new(false));
    let workers = (0..core.workers)
        .map(|i| {
            let core = Arc::clone(&core);
            thread::spawn(move || core.worker_loop(i))
        })
        .collect();
    let accept = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        thread::spawn(move || accept_loop(&listener, &core, &stop))
    };
    Ok(SocketHandle {
        core,
        addr,
        stop,
        accept: Some(accept),
        workers,
    })
}

impl SocketHandle {
    /// The bound address (resolves port 0 to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the listener stops accepting — the CLI's
    /// foreground mode, which runs until the process is killed.
    pub fn wait(mut self) -> ServeSummary {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.finish()
    }

    /// Stop accepting, drain the admission queue, join the worker
    /// pool, and fold the session into a summary. In-flight requests
    /// finish and their responses are still delivered.
    pub fn shutdown(mut self) -> ServeSummary {
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway connection pokes the
        // loop awake so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.finish()
    }

    fn finish(&mut self) -> ServeSummary {
        self.core.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.core.summary()
    }
}

fn accept_loop(listener: &TcpListener, core: &Arc<Core>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // A failed accept (client gone between SYN and accept) is the
        // client's problem, not the server's.
        let Ok(stream) = stream else { continue };
        let core = Arc::clone(core);
        thread::spawn(move || serve_connection(&core, stream));
    }
}

/// A connection's write half, keeping the client's lag (see
/// [`WRITE_TIMEOUT`]).
struct WriteHalf {
    stream: TcpStream,
    /// When the lag is back to zero if no line waits before then.
    caught_up: Instant,
}

impl WriteHalf {
    fn new(stream: TcpStream) -> io::Result<WriteHalf> {
        stream.set_write_timeout(Some(LAG_POLL))?;
        Ok(WriteHalf {
            stream,
            caught_up: Instant::now(),
        })
    }

    /// One `write` in the common case; a line left waiting gives up
    /// once the lag, counting its own wait, reaches [`WRITE_TIMEOUT`].
    fn send(&mut self, mut buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let lag = self.caught_up.saturating_duration_since(start);
        while !buf.is_empty() {
            match self.stream.write(buf) {
                Ok(n) => buf = &buf[n..],
                // Cut short by a signal or by the socket timeout.
                Err(e) if matches!(e.kind(), Interrupted | WouldBlock | TimedOut) => {}
                Err(e) => return Err(e),
            }
            if !buf.is_empty() && lag + start.elapsed() >= WRITE_TIMEOUT {
                return Err(TimedOut.into());
            }
        }
        let end = Instant::now();
        self.caught_up = end + lag + (end - start);
        Ok(())
    }
}

impl Write for WriteHalf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    /// A line that fails — the peer is gone, or the lag ran out —
    /// shuts the socket down both ways, ending its reader too.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let sent = self.send(buf);
        if sent.is_err() {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        sent
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// The per-connection reader: admit every line the client sends, and
/// spawn a ticker for each `watch` subscription. Runs until EOF or a
/// broken sink, then flips `eof` so tickers stop; queued jobs keep the
/// sink, so a half-closed client still gets every answer.
fn serve_connection(core: &Arc<Core>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone().and_then(WriteHalf::new) else {
        return;
    };
    core.active_connections.fetch_add(1, Ordering::SeqCst);
    let sink: Arc<LineSink> = Arc::new(LineSink::new(write_half));
    let eof = Arc::new(AtomicBool::new(false));
    core.admit_all(BufReader::new(stream), &sink, |id, interval_ms| {
        core.reply(&sink, core.watch_ack(&id, interval_ms));
        let core = Arc::clone(core);
        let sink = Arc::clone(&sink);
        let eof = Arc::clone(&eof);
        thread::spawn(move || watch_loop(&core, &sink, &eof, &id, interval_ms));
    });
    eof.store(true, Ordering::SeqCst);
    core.active_connections.fetch_sub(1, Ordering::SeqCst);
}

/// The per-subscription ticker: one fleet-delta line per interval
/// until the client hangs up. The first tick differences against
/// the zero snapshot so summed deltas reconcile with absolute stats.
fn watch_loop(core: &Arc<Core>, sink: &LineSink, eof: &AtomicBool, id: &ReqId, interval_ms: u64) {
    let mut prev = MetricsSnapshot::default();
    let mut tick = 0u64;
    let mut last = Instant::now();
    loop {
        thread::sleep(Duration::from_millis(interval_ms));
        if eof.load(Ordering::SeqCst) || sink.is_broken() {
            break;
        }
        tick += 1;
        // Rates use the *measured* window: sleep jitter must not
        // distort qps.
        let window_ms = (last.elapsed().as_millis() as u64).max(1);
        last = Instant::now();
        let (line, now) = core.watch_tick(id, tick, window_ms, &prev);
        core.reply(sink, line);
        prev = now;
    }
}
