//! The server process under test and the client side of the socket
//! protocol: cold starts, a closed loop of callers, and one-at-a-time
//! calls.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The answer-checked request every cold start ends with.
const TRIVIAL: &str = r#"{"id":0,"program":"main = 1;"}"#;

/// A running `run serve --listen` process, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Drains the server's stderr after the readiness line, so a chatty
    /// server never blocks on a full pipe.
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait for its own `serve: listening on`
    /// stderr line, which it prints once the socket is bound.
    pub fn start(bin: &str) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen=127.0.0.1:0", "--workers=2", "--record"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("server exited before listening".to_string()),
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
        }
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut err, &mut std::io::sink());
        }));
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One client connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            buf: String::new(),
        })
    }

    /// Send one newline-terminated request line and wait for its
    /// response line.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Spawn, wait for readiness, answer one trivial `run`, and return the
/// time all of that took. The server is killed afterwards.
pub fn cold_start(bin: &str) -> Result<Duration, String> {
    let t0 = Instant::now();
    let server = Server::start(bin)?;
    let mut conn = Conn::connect(&server.addr)?;
    let response = conn.call(&format!("{TRIVIAL}\n"))?;
    let elapsed = t0.elapsed();
    if !crate::gen::Expect::Value("1".to_string()).matches(response) {
        return Err(format!("cold start answered `{response}`"));
    }
    Ok(elapsed)
}

/// One answered request of a load run.
pub struct Sample {
    /// Index into the request sequence.
    pub index: usize,
    pub sent: Instant,
    pub latency: Duration,
    pub response: String,
}

/// Send every line, in order of a shared cursor, from `conns` callers
/// that each wait for their answer before sending again (a closed
/// loop). Returns the samples in completion order.
pub fn closed_loop(addr: &str, lines: &[String], conns: usize) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(lines.len()));
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut conn = Conn::connect(addr)?;
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(index) else { break };
                        let sent = Instant::now();
                        let response = conn.call(line)?;
                        let latency = sent.elapsed();
                        mine.push(Sample {
                            index,
                            sent,
                            latency,
                            response: response.to_string(),
                        });
                    }
                    samples.lock().expect("no caller panics").extend(mine);
                    Ok(())
                })
            })
            .collect();
        callers
            .into_iter()
            .try_for_each(|c| c.join().expect("caller thread panicked"))
    })?;
    Ok(samples.into_inner().expect("no caller panics"))
}
