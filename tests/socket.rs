//! Socket-transport integration tests: concurrent clients, split
//! frames, disconnect-mid-watch, dump ordering, the health probe
//! under saturation, watch/stats reconciliation, the
//! transport-differential guarantee (socket answers == stdin answers
//! under the same fault seed), and answers written straight from the
//! workers: whole lines under concurrency, every answer after a
//! half-close, and a bounded hang-up of a client that never reads or
//! reads too slowly.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use typeclasses::serve::{
    alloc::ThreadCache, serve_lines, serve_socket, ServeConfig, SocketHandle, WRITE_TIMEOUT,
};
use typeclasses::trace::json::{self, Value};
use typeclasses::{CounterId, FaultPlan, HistogramId, JsonWriter, MetricsSnapshot};

/// The suite runs on the allocator the `run` binary ships with: it starts
/// and ends worker, reader and ticker threads and catches panics.
#[global_allocator]
static GLOBAL: ThreadCache = ThreadCache;

fn start(cfg: &ServeConfig) -> SocketHandle {
    let listener =
        TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| panic!("bind 127.0.0.1:0: {e}"));
    serve_socket(listener, cfg).unwrap_or_else(|e| panic!("serve_socket: {e}"))
}

/// A line-oriented test client over one TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
        let writer = stream.try_clone().unwrap_or_else(|e| panic!("clone: {e}"));
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .unwrap_or_else(|e| panic!("send: {e}"));
    }

    /// The next line, or `None` once the server has closed the
    /// connection.
    fn recv_or_eof(&mut self) -> Option<Value> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("recv: {e}"));
        (n > 0).then(|| {
            json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
        })
    }

    fn recv(&mut self) -> Value {
        self.recv_or_eof()
            .unwrap_or_else(|| panic!("server closed the connection unexpectedly"))
    }

    /// Send a whole pipelined batch in one write.
    fn send_batch(&mut self, lines: &[String]) {
        let blob: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer
            .write_all(blob.as_bytes())
            .and_then(|()| self.writer.flush())
            .unwrap_or_else(|e| panic!("send: {e}"));
    }

    /// The next line that is not a watch tick.
    fn recv_skipping_ticks(&mut self) -> Value {
        loop {
            let v = self.recv();
            if v.get("tick").is_none() {
                return v;
            }
        }
    }
}

fn req(id: u64, program: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("id", id);
    w.field_str("program", program);
    w.end_object();
    w.finish()
}

fn id_of(v: &Value) -> u64 {
    v.get("id")
        .and_then(|n| n.as_u64())
        .unwrap_or_else(|| panic!("no numeric id in {v:?}"))
}

#[test]
fn two_concurrent_clients_interleave_run_and_watch() {
    let handle = start(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut a = Client::connect(handle.addr());
    let mut b = Client::connect(handle.addr());

    a.send("{\"id\": 10, \"cmd\": \"watch\", \"interval_ms\": 40}");
    let ack = a.recv();
    assert_eq!(ack.get("cmd").and_then(|s| s.as_str()), Some("watch"));
    assert_eq!(ack.get("streaming").and_then(|x| x.as_bool()), Some(true));

    // B runs while A's subscription streams; responses route to the
    // right connection.
    b.send(&req(20, "main = add 1 2;"));
    let rb = b.recv();
    assert_eq!(id_of(&rb), 20);
    assert_eq!(rb.get("value").and_then(|s| s.as_str()), Some("3"));

    a.send(&req(11, "main = mul 3 4;"));
    let ra = a.recv_skipping_ticks();
    assert_eq!(id_of(&ra), 11);
    assert_eq!(ra.get("value").and_then(|s| s.as_str()), Some("12"));

    // A's stream keeps ticking after its own run completed.
    let mut ticks = 0;
    while ticks < 2 {
        let v = a.recv();
        if v.get("tick").is_some() {
            assert_eq!(id_of(&v), 10, "ticks carry the subscription id");
            ticks += 1;
        }
    }

    drop(a);
    drop(b);
    let summary = handle.shutdown();
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.watch_requests, 1);
    assert_eq!(summary.bad_requests(), 0);
}

#[test]
fn frames_split_across_tcp_reads_parse_identically() {
    let handle = start(&ServeConfig::default());
    let mut c = Client::connect(handle.addr());

    // One request trickled in three writes with pauses: the reader
    // must reassemble the frame, not parse partial JSON.
    let line = format!("{}\n", req(1, "main = add 20 22;"));
    let bytes = line.as_bytes();
    for chunk in [&bytes[..7], &bytes[7..19], &bytes[19..]] {
        c.writer
            .write_all(chunk)
            .and_then(|()| c.writer.flush())
            .unwrap_or_else(|e| panic!("chunked send: {e}"));
        std::thread::sleep(Duration::from_millis(20));
    }
    let v = c.recv();
    assert_eq!(id_of(&v), 1);
    assert_eq!(v.get("value").and_then(|s| s.as_str()), Some("42"));

    // Two requests coalesced into a single write: both answer.
    let blob = format!(
        "{}\n{}\n",
        req(2, "main = add 1 1;"),
        req(3, "main = add 2 2;")
    );
    c.writer
        .write_all(blob.as_bytes())
        .and_then(|()| c.writer.flush())
        .unwrap_or_else(|e| panic!("coalesced send: {e}"));
    let mut got: Vec<u64> = vec![id_of(&c.recv()), id_of(&c.recv())];
    got.sort_unstable();
    assert_eq!(got, [2, 3]);

    drop(c);
    let summary = handle.shutdown();
    assert_eq!(summary.admitted, 3);
    assert_eq!(summary.responses, 3);
}

#[test]
fn client_disconnect_mid_watch_does_not_wedge_the_server() {
    let handle = start(&ServeConfig::default());

    {
        let mut a = Client::connect(handle.addr());
        a.send("{\"id\": 1, \"cmd\": \"watch\", \"interval_ms\": 30}");
        let _ack = a.recv();
        let tick = a.recv();
        assert!(tick.get("tick").is_some());
        // Drop mid-stream: the server must end the subscription, not
        // wedge a worker or leak the connection.
    }

    // Give the reader thread a moment to observe the hangup, then
    // verify the server still serves new clients and has released the
    // connection slot.
    std::thread::sleep(Duration::from_millis(150));
    let mut b = Client::connect(handle.addr());
    b.send("{\"id\": 2, \"cmd\": \"health\"}");
    let h = b.recv();
    assert_eq!(h.get("healthy").and_then(|x| x.as_bool()), Some(true));
    assert_eq!(
        h.get("active_connections").and_then(|n| n.as_u64()),
        Some(1),
        "the dropped client must be counted out"
    );
    b.send(&req(3, "main = add 1 2;"));
    assert_eq!(b.recv().get("value").and_then(|s| s.as_str()), Some("3"));

    drop(b);
    // Shutdown completing proves no worker wedged on the dead stream.
    let summary = handle.shutdown();
    assert_eq!(summary.watch_requests, 1);
    assert_eq!(summary.admitted, 1);
}

#[test]
fn dump_barrier_orders_after_in_flight_socket_requests() {
    let cfg = ServeConfig {
        workers: 2,
        faults: Some(FaultPlan::parse("seed=3;elaborate=panic").unwrap_or_else(|e| panic!("{e}"))),
        recorder: typeclasses::RecorderConfig {
            enabled: true,
            ..typeclasses::RecorderConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = start(&cfg);
    let mut c = Client::connect(handle.addr());

    // Pipeline five panicking runs and the dump in one write: the
    // dump is admitted while the runs are still in flight, and the
    // gate barrier must hold it until every one of them retained its
    // trace.
    let mut blob = String::new();
    for i in 1..=5 {
        blob.push_str(&req(i, "main = add 1 2;"));
        blob.push('\n');
    }
    blob.push_str("{\"id\": 99, \"cmd\": \"dump\"}\n");
    c.writer
        .write_all(blob.as_bytes())
        .and_then(|()| c.writer.flush())
        .unwrap_or_else(|e| panic!("send: {e}"));

    let mut dump = None;
    for _ in 0..6 {
        let v = c.recv();
        if v.get("cmd").and_then(|s| s.as_str()) == Some("dump") {
            dump = Some(v);
        }
    }
    let dump = dump.unwrap_or_else(|| panic!("no dump response"));
    assert_eq!(
        dump.get("retained").and_then(|n| n.as_u64()),
        Some(5),
        "the barrier must wait out all five in-flight requests"
    );

    drop(c);
    let summary = handle.shutdown();
    assert_eq!(summary.internal(), 5);
    assert!(summary.retained.is_empty(), "dump drained the store");
}

#[test]
fn health_answers_while_the_admission_queue_is_saturated() {
    // One worker, a tiny queue, and every request delayed 30 ms: the
    // pipelined batch keeps the queue full for ~900 ms.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        faults: Some(FaultPlan::parse("seed=9;eval=delay:30").unwrap_or_else(|e| panic!("{e}"))),
        ..ServeConfig::default()
    };
    let handle = start(&cfg);
    let mut load = Client::connect(handle.addr());
    let mut blob = String::new();
    for i in 1..=30 {
        blob.push_str(&req(i, "main = length (enumFromTo 1 200);"));
        blob.push('\n');
    }
    load.writer
        .write_all(blob.as_bytes())
        .and_then(|()| load.writer.flush())
        .unwrap_or_else(|e| panic!("send: {e}"));

    // The probe bypasses admission: it must answer long before the
    // single worker could possibly drain 30 delayed requests.
    let mut probe = Client::connect(handle.addr());
    let asked = Instant::now();
    probe.send("{\"id\": 1, \"cmd\": \"health\"}");
    let h = probe.recv();
    let elapsed = asked.elapsed();
    assert_eq!(h.get("cmd").and_then(|s| s.as_str()), Some("health"));
    assert!(
        elapsed < Duration::from_millis(900),
        "health took {elapsed:?}; it must not queue behind the backlog"
    );
    let queue = h.get("queue").unwrap_or_else(|| panic!("queue: {h:?}"));
    assert_eq!(queue.get("capacity").and_then(|n| n.as_u64()), Some(2));

    // Drain the load client so shutdown is orderly.
    for _ in 0..30 {
        load.recv();
    }
    drop(load);
    drop(probe);
    let summary = handle.shutdown();
    assert_eq!(summary.health_requests, 1);
    assert_eq!(summary.admitted + summary.shed(), 30);
}

/// Strip timing-dependent fields so two runs of the same workload can
/// be compared exactly.
fn strip_timing(v: &Value) -> Value {
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "latency_us" && k != "retry_after_ms")
                .map(|(k, val)| (k.clone(), strip_timing(val)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

#[test]
fn socket_and_stdin_transports_answer_identically_under_the_same_fault_seed() {
    let programs = [
        "main = add 1 2;",
        "main = member 3 (enumFromTo 1 5);",
        "main = eq (cons 1 nil) (cons 1 nil);",
        "main = undefinedName;",
        "from n = cons n (from (add n 1));\nmain = from 0;",
    ];
    let lines: Vec<String> = (0..30)
        .map(|i| req(i as u64 + 1, programs[i % programs.len()]))
        .collect();
    let cfg = ServeConfig {
        workers: 4,
        queue_capacity: 256,
        faults: Some(
            FaultPlan::parse("seed=1;parse=panic%15;elaborate=panic%15;eval=panic%15")
                .unwrap_or_else(|e| panic!("{e}")),
        ),
        ..ServeConfig::default()
    };

    // stdin transport.
    let (stdin_out, stdin_summary) = serve_lines(&lines, &cfg);

    // Socket transport: one client pipelining the same batch gives
    // the same arrival order, hence the same seqs and the same
    // per-request fault draws.
    let handle = start(&cfg);
    let mut c = Client::connect(handle.addr());
    let blob = lines.join("\n") + "\n";
    c.writer
        .write_all(blob.as_bytes())
        .and_then(|()| c.writer.flush())
        .unwrap_or_else(|e| panic!("send: {e}"));
    let socket_out: Vec<Value> = (0..lines.len()).map(|_| c.recv()).collect();
    drop(c);
    let socket_summary = handle.shutdown();

    // Same admission accounting...
    assert_eq!(stdin_summary.admitted, socket_summary.admitted);
    assert_eq!(stdin_summary.internal(), socket_summary.internal());
    assert_eq!(stdin_summary.ok(), socket_summary.ok());

    // ...and identical per-request outcomes once timing fields are
    // stripped (responses complete in nondeterministic order on both
    // transports, so compare by id).
    let key = |v: &Value| {
        v.get("id")
            .and_then(|n| n.as_u64())
            .unwrap_or_else(|| panic!("no id in {v:?}"))
    };
    let mut stdin_by_id: Vec<(u64, Value)> = stdin_out
        .iter()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}")))
        .map(|v| (key(&v), strip_timing(&v)))
        .collect();
    let mut socket_by_id: Vec<(u64, Value)> = socket_out
        .iter()
        .map(|v| (key(v), strip_timing(v)))
        .collect();
    stdin_by_id.sort_by_key(|(id, _)| *id);
    socket_by_id.sort_by_key(|(id, _)| *id);
    assert_eq!(stdin_by_id, socket_by_id);
}

#[test]
fn watch_deltas_reconcile_with_the_final_stats_snapshot() {
    let handle = start(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    c.send("{\"id\": 1, \"cmd\": \"watch\", \"interval_ms\": 40}");
    let ack = c.recv();
    assert_eq!(ack.get("streaming").and_then(|x| x.as_bool()), Some(true));

    for i in 0..8 {
        c.send(&req(100 + i, "main = add 1 2;"));
    }

    // Absorb every tick's delta until all runs have answered, at
    // least three ticks streamed, and a quiet (empty-delta) tick
    // proves the snapshot has caught up with the last completion.
    let mut summed = MetricsSnapshot::default();
    let mut answered = 0;
    let mut ticks = 0;
    loop {
        let v = c.recv();
        if v.get("tick").is_some() {
            ticks += 1;
            let delta = v.get("delta").unwrap_or_else(|| panic!("no delta: {v:?}"));
            let delta = MetricsSnapshot::from_json(delta).unwrap_or_else(|e| panic!("delta: {e}"));
            let quiet = delta.is_zero();
            summed.absorb(&delta);
            if quiet && answered == 8 && ticks >= 3 {
                break;
            }
        } else {
            answered += 1;
        }
    }

    // The final stats snapshot must equal the summed deltas exactly —
    // modulo the stats request itself, which is admitted (and counted
    // in serve.requests) after the last absorbed tick.
    c.send("{\"id\": 2, \"cmd\": \"stats\"}");
    let stats = loop {
        let v = c.recv();
        if v.get("cmd").and_then(|s| s.as_str()) == Some("stats") {
            break v;
        }
    };
    let fleet = stats
        .get("fleet")
        .unwrap_or_else(|| panic!("fleet: {stats:?}"));
    let counters = fleet
        .get("counters")
        .unwrap_or_else(|| panic!("counters: {stats:?}"));
    for id in CounterId::ALL {
        let actual = counters
            .get(id.name())
            .and_then(|n| n.as_u64())
            .unwrap_or(0);
        let expected = summed.counter(id) + u64::from(id.name() == CounterId::ServeRequests.name());
        assert_eq!(
            actual,
            expected,
            "counter {} must reconcile (summed {} vs stats {})",
            id.name(),
            summed.counter(id),
            actual
        );
    }
    let histograms = fleet
        .get("histograms")
        .unwrap_or_else(|| panic!("histograms: {stats:?}"));
    for id in HistogramId::ALL {
        let h = histograms.get(id.name());
        let count = h
            .and_then(|h| h.get("count"))
            .and_then(|n| n.as_u64())
            .unwrap_or(0);
        let sum = h
            .and_then(|h| h.get("sum"))
            .and_then(|n| n.as_u64())
            .unwrap_or(0);
        assert_eq!(count, summed.histogram(id).count, "{} count", id.name());
        assert_eq!(sum, summed.histogram(id).sum, "{} sum", id.name());
    }

    drop(c);
    let summary = handle.shutdown();
    assert_eq!(summary.admitted, 8);
    assert_eq!(summary.stats_requests, 1);
    assert_eq!(summary.watch_requests, 1);
}

#[test]
fn concurrent_answers_and_watch_ticks_arrive_as_whole_lines() {
    // Four workers answer 200 pipelined runs of varied sizes on one
    // connection while a 10 ms watch ticks on it: every line must
    // parse, and every id must be answered exactly once.
    let handle = start(&ServeConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    c.send("{\"id\": 0, \"cmd\": \"watch\", \"interval_ms\": 10}");
    let runs: Vec<String> = (1..=200)
        .map(|i| req(i, &format!("main = enumFromTo 1 {};", 1 + (i * 37) % 900)))
        .collect();
    c.send_batch(&runs);

    let mut answered: BTreeMap<u64, usize> = BTreeMap::new();
    let mut ticks = 0;
    while answered.len() < runs.len() || ticks < 3 {
        let v = c.recv();
        if v.get("tick").is_some() || v.get("streaming").is_some() {
            assert_eq!(id_of(&v), 0, "watch lines carry the subscription id");
            ticks += usize::from(v.get("tick").is_some());
            continue;
        }
        assert_eq!(
            v.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "{v:?}"
        );
        *answered.entry(id_of(&v)).or_default() += 1;
    }
    assert!(
        answered.values().all(|&n| n == 1),
        "an id was answered twice"
    );
    assert_eq!(
        answered.keys().copied().collect::<Vec<_>>(),
        (1..=200).collect::<Vec<_>>()
    );

    drop(c);
    let summary = handle.shutdown();
    assert_eq!(summary.admitted, 200);
    assert_eq!(summary.write_errors, 0);
}

#[test]
fn a_half_closed_client_still_gets_every_answer() {
    let handle = start(&ServeConfig::default());
    let mut c = Client::connect(handle.addr());
    let runs: Vec<String> = (1..=20)
        .map(|i| req(i, &format!("main = mul {i} 2;")))
        .collect();
    c.send_batch(&runs);
    // Reader EOF ends admission, not the answers still in flight.
    c.writer
        .shutdown(Shutdown::Write)
        .unwrap_or_else(|e| panic!("half-close: {e}"));

    let mut ids = Vec::new();
    while let Some(v) = c.recv_or_eof() {
        let id = id_of(&v);
        assert_eq!(
            v.get("value").and_then(|s| s.as_str()),
            Some((id * 2).to_string().as_str())
        );
        ids.push(id);
    }
    // The server closes the connection once the last answer is out.
    ids.sort_unstable();
    assert_eq!(ids, (1..=20).collect::<Vec<_>>(), "each id exactly once");

    let summary = handle.shutdown();
    assert_eq!(summary.admitted, 20);
    assert_eq!(summary.responses, 20);
    assert_eq!(summary.write_errors, 0);
}

#[test]
fn a_client_that_never_reads_is_hung_up_without_wedging_the_workers() {
    let handle = start(&ServeConfig {
        workers: 2,
        queue_capacity: 512,
        ..ServeConfig::default()
    });
    // About 100 KB per answer, every one admitted: 30 MB of unread
    // answers overflow any socket buffers, so the workers' writes to
    // this client stall.
    let mut stalled = Client::connect(handle.addr());
    let runs: Vec<String> = (1..=300)
        .map(|i| req(i, "main = enumFromTo 1 16000;"))
        .collect();
    stalled.send_batch(&runs);

    // The stalled write times out, the server hangs that client up,
    // and the queue drains: a second client is then served, not shed.
    let mut other = Client::connect(handle.addr());
    let deadline = Instant::now() + WRITE_TIMEOUT + Duration::from_secs(10);
    loop {
        other.send("{\"id\": 1, \"cmd\": \"health\"}");
        let h = other.recv();
        let conns = h.get("active_connections").and_then(|n| n.as_u64());
        let depth = h
            .get("queue")
            .and_then(|q| q.get("depth"))
            .and_then(|n| n.as_u64());
        if conns == Some(1) && depth == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stalled client still holds the server: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    other.send(&req(2, "main = 1;"));
    let v = other.recv();
    assert_eq!(
        v.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{v:?}"
    );
    assert_eq!(v.get("value").and_then(|s| s.as_str()), Some("1"));

    drop(other);
    drop(stalled);
    let summary = handle.shutdown();
    assert!(summary.write_errors > 0, "{summary:?}");
    // Jobs still queued when their client was hung up were skipped,
    // not compiled and run for an answer nobody reads.
    let processed = summary.fleet.counter(CounterId::ServeProcessed);
    assert!(
        processed < summary.admitted,
        "{processed} of {} admitted jobs processed",
        summary.admitted
    );
    assert_eq!(
        summary.lines,
        summary.responses + summary.write_errors,
        "{summary:?}"
    );
}

#[test]
fn a_client_that_reads_slowly_is_hung_up_without_starving_others() {
    let handle = start(&ServeConfig {
        workers: 2,
        queue_capacity: 512,
        ..ServeConfig::default()
    });
    // About 100 KB per answer, read one every 100 ms: the client keeps
    // reading, about 1 MB/s, but far slower than the workers make its
    // answers.
    let mut slow = Client::connect(handle.addr());
    let runs: Vec<String> = (1..=200)
        .map(|i| req(i, "main = enumFromTo 1 16000;"))
        .collect();
    slow.send_batch(&runs);
    let done = Arc::new(AtomicBool::new(false));
    let slow_done = Arc::clone(&done);
    let slow_reader = std::thread::spawn(move || {
        let mut read = 0;
        let mut line = String::new();
        // Past the hang-up it reads what the server sent before it, or
        // a reset once the server closes with requests still unread.
        while !slow_done.load(Ordering::SeqCst)
            && matches!(slow.reader.read_line(&mut line), Ok(n) if n > 0)
        {
            read += 1;
            line.clear();
            std::thread::sleep(Duration::from_millis(100));
        }
        read
    });

    // Queued behind the whole slow batch, a second client's request is
    // answered once the slow client is hung up, not at its read rate.
    std::thread::sleep(Duration::from_millis(200));
    let mut other = Client::connect(handle.addr());
    let bound = WRITE_TIMEOUT + Duration::from_secs(6);
    other
        .writer
        .set_read_timeout(Some(bound))
        .unwrap_or_else(|e| panic!("read timeout: {e}"));
    let sent = Instant::now();
    other.send(&req(1, "main = 1;"));
    let v = other.recv();
    assert_eq!(
        v.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{v:?}"
    );
    assert!(
        sent.elapsed() < bound,
        "answered after {:?}",
        sent.elapsed()
    );

    // The slow connection is gone, and so is its reader.
    let deadline = Instant::now() + bound;
    loop {
        other.send("{\"id\": 2, \"cmd\": \"health\"}");
        let h = other.recv();
        if h.get("active_connections").and_then(|n| n.as_u64()) == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the slow client is still connected: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(other);
    done.store(true, Ordering::SeqCst);
    let read = slow_reader
        .join()
        .unwrap_or_else(|_| panic!("slow reader panicked"));
    assert!(read > 0, "the slow client read nothing");
    let summary = handle.shutdown();
    assert!(summary.write_errors > 0, "{summary:?}");
}
