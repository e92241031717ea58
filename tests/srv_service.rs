//! End-to-end contract of the `sctmd` batch service: the cache makes a
//! sweep cost one capture, caching never changes an answer, results
//! from the service are byte-identical to direct `execute` calls, the
//! bounded queue pushes back, deadlines drop stale requests, and each
//! connection's reader and writer halves fail independently.
//!
//! CI runs this suite under `SCTM_THREADS=1` and `=4` — the worker
//! count of every `ServerConfig::default()` pool here; every
//! byte-identity assertion therefore also pins pool-size independence
//! of the service's responses.

use sctm_srv::{
    parse_request, result_json, serve_lines, Request, RunRequest, Server, ServerConfig,
};

fn run_req(line: &str) -> RunRequest {
    match parse_request(line).expect("parse") {
        Request::Run(r) => *r,
        other => panic!("expected run, got {other:?}"),
    }
}

/// The deterministic tail of a response line (everything from
/// `"result":`); wall times and cache state live before it.
fn result_of(line: &str) -> &str {
    let at = line
        .find(r#""result":"#)
        .unwrap_or_else(|| panic!("no result object in {line}"));
    &line[at..]
}

/// `(misses, hits)` as the daemon's `stats` reports them.
fn cache_counts(server: &Server) -> (u64, u64) {
    let m = server.stats_manifest().metrics;
    let get = |name| match m.get(name) {
        Some(sctm_obs::MetricValue::Counter(v)) => *v,
        other => panic!("{name}: {other:?}"),
    };
    (get("srv.cache.misses"), get("srv.cache.hits"))
}

fn assert_status(line: &str, status: &str) {
    assert!(
        line.starts_with(&format!(r#"{{"status":"{status}""#)),
        "expected status {status}: {line}"
    );
}

#[test]
fn warm_hit_is_byte_identical_to_cold_and_to_direct_execute() {
    let server = Server::start(ServerConfig::default());
    let req = run_req("run kernel=fft net=oxbar side=2 ops=150 mode=sctm iters=2 id=x");
    let cold = server.submit_blocking(req.clone());
    let warm = server.submit_blocking(req.clone());
    assert_status(&cold, "ok");
    assert!(cold.contains(r#""cache":"miss""#), "{cold}");
    assert!(warm.contains(r#""cache":"hit""#), "{warm}");
    assert_eq!(result_of(&cold), result_of(&warm));

    // And both equal the library path with no service in between.
    let direct = req.experiment.execute(&req.spec).unwrap().report;
    let direct_json = format!(r#""result":{}}}"#, result_json(&direct, &req.experiment));
    assert_eq!(result_of(&cold), direct_json);
}

#[test]
fn a_config_sweep_costs_exactly_one_capture() {
    // The service's reason to exist: 50 requests over one workload —
    // every detailed network crossed with loop knobs — share a single
    // CMP capture, because the capture key excludes the target network.
    let server = Server::start(ServerConfig::default());
    let mut lines = Vec::new();
    let mut n = 0;
    'outer: for damping in ["0.4", "0.6", "0.8", "0.9", "1.0"] {
        for net in ["emesh", "omesh", "oxbar", "hybrid", "obus"] {
            for mode in ["classic-trace", "sctm"] {
                if n == 50 {
                    break 'outer;
                }
                n += 1;
                let req = run_req(&format!(
                    "run kernel=fft net={net} side=2 ops=150 mode={mode} iters=2 \
                     damping={damping} replay=1 id=s{n}"
                ));
                lines.push(server.submit_blocking(req));
            }
        }
    }
    assert_eq!(lines.len(), 50);
    for line in &lines {
        assert_status(line, "ok");
    }
    let misses = lines
        .iter()
        .filter(|l| l.contains(r#""cache":"miss""#))
        .count();
    let hits = lines
        .iter()
        .filter(|l| l.contains(r#""cache":"hit""#))
        .count();
    assert_eq!(misses, 1, "sweep captured more than once");
    assert_eq!(hits, 49);
    assert_eq!(cache_counts(&server), (1, 49));
}

#[test]
fn concurrent_clients_get_deterministic_answers() {
    // Eight client threads, three distinct workloads, same-key requests
    // racing: every response must equal the direct library answer.
    let server = std::sync::Arc::new(Server::start(ServerConfig::default()));
    let reqs: Vec<RunRequest> = [
        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=c0",
        "run kernel=lu net=oxbar side=2 ops=150 mode=sctm iters=2 id=c1",
        "run kernel=barnes net=emesh side=2 ops=150 mode=oracle-trace id=c2",
    ]
    .iter()
    .map(|l| run_req(l))
    .collect();
    let expected: Vec<String> = reqs
        .iter()
        .map(|r| {
            let report = r.experiment.execute(&r.spec).unwrap().report;
            format!(r#""result":{}}}"#, result_json(&report, &r.experiment))
        })
        .collect();

    std::thread::scope(|s| {
        for client in 0..8usize {
            let server = std::sync::Arc::clone(&server);
            let reqs = reqs.clone();
            let expected = expected.clone();
            s.spawn(move || {
                for (req, want) in reqs.iter().zip(&expected) {
                    let line = server.submit_blocking(req.clone());
                    assert_status(&line, "ok");
                    assert_eq!(result_of(&line), want, "client {client} diverged");
                }
            });
        }
    });
    // 3 distinct workloads → 3 captures total across 24 trace-mode runs.
    assert_eq!(cache_counts(&server), (3, 21));
}

#[test]
fn full_queue_pushes_back_with_retry_after() {
    let server = Server::start(ServerConfig {
        queue_cap: 2,
        ..ServerConfig::default()
    });
    // Occupy the scheduler with a slow batch: it drains the queue
    // immediately, so the *next* submissions pile up behind it.
    let heavy = run_req("run kernel=fft net=omesh side=4 ops=500 mode=sctm iters=4 id=heavy");
    let heavy_rx = server.submit(heavy).expect("heavy enqueues");
    let quick = "run kernel=fft net=omesh side=2 ops=100 mode=exec-driven id=q";
    let mut receivers = Vec::new();
    let mut busy = Vec::new();
    // Far more submissions than the queue holds, faster than the
    // scheduler can drain while the heavy batch runs.
    for _ in 0..200 {
        match server.submit(run_req(quick)) {
            Ok(rx) => receivers.push(rx),
            Err(line) => busy.push(line),
        }
    }
    assert!(!busy.is_empty(), "queue_cap=2 never pushed back");
    for line in &busy {
        assert_status(line, "busy");
        assert!(line.contains(r#""retry_after_ms":50"#), "{line}");
    }
    // Everything that *was* accepted still completes and answers.
    assert_status(&heavy_rx.recv().unwrap().line, "ok");
    for rx in receivers {
        assert_status(&rx.recv().unwrap().line, "ok");
    }
}

#[test]
fn expired_deadlines_drop_requests_without_running_them() {
    let server = Server::start(ServerConfig::default());
    // Hold the scheduler so the doomed request sits in the queue past
    // its (zero) deadline instead of being picked up instantly.
    let heavy = run_req("run kernel=fft net=omesh side=4 ops=400 mode=sctm iters=3 id=heavy");
    let heavy_rx = server.submit(heavy).expect("enqueue");
    let doomed =
        run_req("run kernel=fft net=omesh side=2 ops=100 mode=exec-driven timeout_ms=0 id=d");
    let line = server.submit_blocking(doomed);
    assert_status(&line, "timeout");
    assert!(line.contains(r#""id":"d""#), "{line}");
    assert_status(&heavy_rx.recv().unwrap().line, "ok");
    // The dropped request never executed: no completion counted for it.
    let stats = server.stats_manifest().to_json_compact();
    assert!(
        stats.contains(r#""srv.timeouts": {"kind": "counter", "value": 1}"#),
        "{stats}"
    );
}

#[test]
fn serve_lines_answers_in_request_order_and_flushes_before_control() {
    let server = Server::start(ServerConfig::default());
    let script = "\
run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=r1
run kernel=fft net=oxbar side=2 ops=150 mode=classic-trace id=r2
run kernel=nosuch id=r3
stats
ping
shutdown
run kernel=fft id=never
";
    let mut out = Vec::new();
    let shutdown = serve_lines(script.as_bytes(), &mut out, &server).expect("serve");
    assert!(shutdown, "shutdown verb not honoured");
    server.drain();
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 6, "{lines:#?}"); // nothing after shutdown
    assert_status(lines[0], "ok");
    assert!(lines[0].contains(r#""id":"r1""#));
    assert_status(lines[1], "ok");
    assert!(lines[1].contains(r#""id":"r2""#));
    // r1 and r2 name one capture key and run on two workers: which of
    // them wins the single flight is scheduling, that exactly one does
    // is not.
    let label = |l: &str| {
        ["hit", "miss"]
            .into_iter()
            .find(|c| l.contains(&format!(r#""cache":"{c}""#)))
    };
    let mut labels = [label(lines[0]), label(lines[1])];
    labels.sort_unstable();
    assert_eq!(labels, [Some("hit"), Some("miss")], "{lines:#?}");
    assert_eq!(cache_counts(&server), (1, 1));
    assert_status(lines[2], "error");
    assert!(lines[2].contains(r#""kind":"unknown-kernel""#));
    // stats ran after both runs flushed: it must see their captures.
    assert_status(lines[3], "ok");
    assert!(
        lines[3].contains(r#""srv.cache.misses": {"kind": "counter", "value": 1}"#),
        "{}",
        lines[3]
    );
    assert!(lines[4].contains(r#""pong":true"#));
    assert!(lines[5].contains(r#""shutting_down":true"#));
}

#[test]
fn protocol_errors_are_typed_not_fatal() {
    let server = Server::start(ServerConfig::default());
    // The `ops` and `side=1` lines used to reach an assert inside the
    // simulator and kill the worker that ran them.
    let cases = [
        ("bogus-verb", "invalid-spec"),
        ("run kernel=fft mode=warp9", "invalid-spec"),
        ("run kernel=fft net=subspace", "unknown-network"),
        ("run kernel=fft side=9999", "invalid-config"),
        ("run kernel=fft mode=sctm iters=0", "invalid-spec"),
        // There is no profile to ask for: `profile` is an unknown key.
        ("run kernel=fft replay=1 profile=1", "invalid-spec"),
        ("run kernel=fft ops=10", "invalid-spec"),
        ("run kernel=fft ops=0", "invalid-spec"),
        ("run kernel=fft side=1 net=omesh", "invalid-config"),
        ("run kernel=fft side=1 net=oxbar", "invalid-config"),
        ("run kernel=fft side=1 net=obus", "invalid-config"),
        ("run kernel=fft side=1 net=hybrid", "invalid-config"),
        ("run kernel=fft side=1 net=emesh", "invalid-config"),
        // The cache-sharding verb is gone: a forward is an unknown verb.
        ("fwd kernel=fft ops=10", "invalid-spec"),
    ];
    let mut script: String = cases.iter().map(|(line, _)| format!("{line}\n")).collect();
    script.push_str("ping\n");
    let mut out = Vec::new();
    serve_lines(script.as_bytes(), &mut out, &server).expect("serve");
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cases.len() + 1);
    for (line, (request, kind)) in lines.iter().zip(cases) {
        assert_status(line, "error");
        assert!(
            line.contains(&format!(r#""kind":"{kind}""#)),
            "{request}: {line}"
        );
    }
    let pong = lines[cases.len()];
    assert!(pong.contains("pong"), "{pong}");
}

#[test]
fn drain_finishes_queued_work_then_refuses_new() {
    let server = Server::start(ServerConfig::default());
    let mut rxs = Vec::new();
    for i in 0..4 {
        let req = run_req(&format!(
            "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=g{i}"
        ));
        rxs.push(server.submit(req).expect("enqueue"));
    }
    server.drain();
    for rx in rxs {
        assert_status(&rx.recv().unwrap().line, "ok");
    }
    let refused = server.submit_blocking(run_req("run kernel=fft id=late"));
    assert_status(&refused, "error");
}

#[test]
fn tcp_front_end_serves_the_same_protocol() {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = Server::start(ServerConfig::default());
    let daemon = std::thread::spawn(move || sctm_srv::serve_tcp(listener, server));

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(b"run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=t1\nshutdown\n")
        .expect("send");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read run response");
    assert_status(&line, "ok");
    assert!(line.contains(r#""id":"t1""#), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("read shutdown ack");
    assert!(line.contains(r#""shutting_down":true"#), "{line}");
    daemon.join().expect("daemon thread").expect("daemon io");
}

/// Boot a TCP daemon on an OS-assigned port.
fn boot_tcp(cfg: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let server = Server::start(cfg);
    (
        addr,
        std::thread::spawn(move || sctm_srv::serve_tcp(listener, server)),
    )
}

/// A raw connection whose reads fail after a minute instead of hanging
/// the suite when the daemon withholds a response.
fn dial(addr: &str) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
    let reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    (conn, reader)
}

/// Wait for the daemon thread, failing instead of hanging if it never
/// finishes its drain.
fn join_daemon(daemon: std::thread::JoinHandle<std::io::Result<()>>) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(daemon.join()));
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .expect("daemon did not drain")
        .expect("daemon thread")
        .expect("daemon io");
}

/// One counter's value from a fresh `stats` poll.
fn counter(client: &sctm_client::Client, name: &str) -> Option<u64> {
    let stats = client.stats().expect("stats");
    let at = stats.find(&format!("\"{name}\"")).expect(name);
    sctm_client::wire::json_u64_field(&stats[at..], "value")
}

#[test]
fn a_client_stalled_mid_line_still_gets_what_it_is_owed() {
    use std::io::{BufRead, Write};
    let (addr, daemon) = boot_tcp(ServerConfig::default());
    let (mut conn, mut reader) = dial(&addr);
    // One whole request, then half of the next, then silence: the
    // reader half sits in `read_line` holding the fragment while the
    // writer half delivers the finished response.
    conn.write_all(
        b"run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=h1\nrun kernel=fft net=ox",
    )
    .expect("send");
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("response to the whole request");
    assert_status(&line, "ok");
    assert!(line.contains(r#""id":"h1""#), "{line}");
    // The fragment survived the wait: completing it is a valid request.
    conn.write_all(b"bar side=2 ops=150 mode=classic-trace id=h2\nshutdown\n")
        .expect("send rest");
    line.clear();
    reader
        .read_line(&mut line)
        .expect("response to the split request");
    assert_status(&line, "ok");
    assert!(line.contains(r#""id":"h2""#), "{line}");
    assert!(line.contains(r#""cache":"hit""#), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("shutdown ack");
    assert!(line.contains(r#""shutting_down":true"#), "{line}");
    join_daemon(daemon);
}

#[test]
fn slow_then_fast_requests_answer_in_request_order_and_stats_counts_both() {
    // Two workers, so the quick request finishes while the slow one is
    // still running; the writer half must hold it back until the slow
    // response has gone out, and `stats` must wait for both.
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let script = "\
run kernel=fft net=omesh side=4 ops=500 mode=sctm iters=4 id=slow
run kernel=fft net=omesh side=2 ops=100 mode=exec-driven id=fast
stats
";
    let mut out = Vec::new();
    serve_lines(script.as_bytes(), &mut out, &server).expect("serve");
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{lines:#?}");
    assert_status(lines[0], "ok");
    assert!(lines[0].contains(r#""id":"slow""#), "{}", lines[0]);
    assert_status(lines[1], "ok");
    assert!(lines[1].contains(r#""id":"fast""#), "{}", lines[1]);
    assert!(
        lines[2].contains(r#""srv.completed": {"kind": "counter", "value": 2}"#),
        "{}",
        lines[2]
    );
}

#[test]
fn a_client_that_hangs_up_mid_response_costs_only_its_own_connection() {
    use std::io::Write;
    let (addr, daemon) = boot_tcp(ServerConfig::default());
    {
        let (mut conn, _reader) = dial(&addr);
        conn.write_all(
            b"run kernel=fft net=omesh side=2 ops=100 mode=exec-driven id=q1\n\
              run kernel=fft net=omesh side=4 ops=500 mode=sctm iters=4 id=heavy\n\
              run kernel=fft net=omesh side=2 ops=100 mode=exec-driven id=q2\n",
        )
        .expect("send");
        // Wait until q1's response has started to arrive, then hang up
        // without reading it: closing on unread data resets the
        // connection, so the writer half — by now blocked on `heavy`,
        // with two responses still owed — fails on its next write.
        assert_eq!(conn.peek(&mut [0u8; 1]).expect("peek"), 1);
    }
    // The daemon keeps serving, and the abandoned runs still complete
    // and are counted (3 of theirs + 1 of ours).
    let client = sctm_client::Client::connect(&addr).expect("dial");
    let line = client
        .call("run kernel=fft net=omesh side=2 ops=100 mode=exec-driven id=after")
        .expect("daemon still serves");
    assert!(line.contains(r#""id":"after""#), "{line}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while counter(&client, "srv.completed") != Some(4) {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned runs never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // `shutdown` drains only once nothing is outstanding, and
    // `serve_tcp` returns only once every connection thread — reader
    // and writer half of the abandoned one included — has ended.
    client.shutdown().expect("shutdown");
    join_daemon(daemon);
}

#[test]
fn shutdown_does_not_wait_for_idle_clients_and_still_answers_what_is_owed() {
    use std::io::{BufRead, Write};
    let (addr, daemon) = boot_tcp(ServerConfig::default());
    let (tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(daemon.join()));
    // One client that never sends, one with a run accepted before the
    // shutdown and its answer unread; both stay connected throughout.
    let (_idle, _) = dial(&addr);
    let (mut owed, mut owed_reader) = dial(&addr);
    owed.write_all(b"run kernel=fft net=omesh side=2 ops=150 mode=exec-driven id=o1\n")
        .expect("send run");
    let client = sctm_client::Client::connect(&addr).expect("dial");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while counter(&client, "srv.accepted") != Some(1) {
        assert!(std::time::Instant::now() < deadline, "run never accepted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    client.shutdown().expect("shutdown");
    let mut line = String::new();
    owed_reader.read_line(&mut line).expect("read owed answer");
    assert_status(&line, "ok");
    assert!(line.contains(r#""id":"o1""#), "{line}");
    done.recv_timeout(std::time::Duration::from_secs(5))
        .expect("serve_tcp still waits on an idle connection after shutdown")
        .expect("daemon thread")
        .expect("daemon io");
}

#[test]
fn a_client_that_never_reads_stalls_its_own_reader_half() {
    use std::io::{BufReader, Read, Write};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    const PINGS: usize = 50_000;
    /// Hands out one `ping` line per `read`, counting them, so the
    /// count is how far the reader half has got.
    struct Pings(Arc<AtomicUsize>);
    impl Read for Pings {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.load(Ordering::SeqCst) == PINGS {
                return Ok(0);
            }
            self.0.fetch_add(1, Ordering::SeqCst);
            buf[..5].copy_from_slice(b"ping\n");
            Ok(5)
        }
    }
    /// A sink that accepts nothing until the gate opens — a client that
    /// sends but does not read, once the socket buffers are full.
    struct Gated(Arc<(Mutex<bool>, Condvar)>, Vec<u8>);
    impl Write for Gated {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (open, opened) = &*self.0;
            drop(opened.wait_while(open.lock().unwrap(), |o| !*o).unwrap());
            self.1.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let server = Server::start(ServerConfig::default());
    let read = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut sink = Gated(Arc::clone(&gate), Vec::new());
    let ahead = std::thread::scope(|s| {
        let conn =
            s.spawn(|| serve_lines(BufReader::new(Pings(Arc::clone(&read))), &mut sink, &server));
        // The writer half blocks in its first write; wait until the
        // reader half has stopped moving (or give up after a minute).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let (mut last, mut quiet) = (0, 0);
        while quiet < 10 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let now = read.load(Ordering::SeqCst);
            quiet = if now == last && now > 0 { quiet + 1 } else { 0 };
            last = now;
        }
        // Let the connection finish before judging it, so a failure
        // cannot leave the scope waiting on a gated thread.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        assert!(!conn.join().expect("connection thread").expect("serve"));
        last
    });
    // It must have stopped within the bounded queue, not swallowed the
    // stream: one 64 KiB write buffer of pongs (~2 400) plus the queue
    // (4 x queue_cap = 256), with room to spare.
    assert!(
        ahead < 5_000,
        "reader half ran {ahead} lines ahead of a blocked writer"
    );
    // Once the client reads again nothing was lost or reordered.
    assert_eq!(read.load(Ordering::SeqCst), PINGS);
    let text = String::from_utf8(sink.1).unwrap();
    assert_eq!(text.lines().count(), PINGS);
    assert!(text.lines().all(|l| l.contains(r#""pong":true"#)));
}
