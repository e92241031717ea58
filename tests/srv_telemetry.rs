//! Service-telemetry contract (DESIGN.md §12): the `stats` and
//! `metrics` verbs stay truthful under concurrent load, never touch a
//! simulation answer, and speak formats standard tooling understands —
//! versioned JSON snapshots whose counters are monotone poll-to-poll,
//! and Prometheus text exposition 0.0.4 validated here by a real
//! line-grammar checker.
//!
//! CI runs this suite under `SCTM_THREADS=1` and `=4` — the worker
//! count of every `ServerConfig::default()` pool here — so the
//! polling-vs-not byte-identity assertions also pin pool-size
//! independence.

use sctm_obs::reqlog::RequestLog;
use sctm_obs::svc::{SvcPhase, SvcSnapshot};
use sctm_srv::{parse_request, serve_lines, Request, RunRequest, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn run_req(line: &str) -> RunRequest {
    match parse_request(line).expect("parse") {
        Request::Run(r) => *r,
        other => panic!("expected run, got {other:?}"),
    }
}

fn result_of(line: &str) -> &str {
    let at = line
        .find(r#""result":"#)
        .unwrap_or_else(|| panic!("no result object in {line}"));
    &line[at..]
}

/// Answer one control verb through the real protocol path.
fn verb(server: &Server, verb: &str) -> String {
    let mut out = Vec::new();
    serve_lines(format!("{verb}\n").as_bytes(), &mut out, server).expect("serve");
    String::from_utf8(out).expect("utf8")
}

/// Extract `"<field>": N` from the flat object following `"<name>"` in
/// a manifest JSON document.
fn metric_num(doc: &str, name: &str, field: &str) -> Option<f64> {
    let nkey = format!("\"{name}\"");
    let rest = &doc[doc.find(&nkey)? + nkey.len()..];
    let obj_start = rest.find('{')?;
    let obj_end = rest[obj_start..].find('}')? + obj_start;
    let obj = &rest[obj_start..=obj_end];
    let fkey = format!("\"{field}\":");
    let tail = obj[obj.find(&fkey)? + fkey.len()..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn counter(doc: &str, name: &str) -> u64 {
    metric_num(doc, name, "value").unwrap_or_else(|| panic!("no counter {name} in {doc}")) as u64
}

/// Validate a Prometheus text exposition 0.0.4 document line by line:
/// comment grammar, sample grammar, TYPE-before-samples, cumulative
/// bucket monotonicity, and `_count` == the `+Inf` bucket.
fn check_prometheus(text: &str) {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    let mut typed: std::collections::BTreeMap<String, String> = Default::default();
    let mut last_bucket: Option<(String, u64)> = None;
    let mut inf_bucket: std::collections::BTreeMap<String, u64> = Default::default();
    let mut counts: std::collections::BTreeMap<String, u64> = Default::default();

    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut toks = rest.splitn(3, ' ');
            let kw = toks.next().unwrap_or("");
            let name = toks.next().unwrap_or("");
            assert!(
                kw == "HELP" || kw == "TYPE",
                "bad comment keyword in {line:?}"
            );
            assert!(valid_name(name), "bad metric name in {line:?}");
            if kw == "TYPE" {
                let kind = toks.next().unwrap_or("").trim().to_string();
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                    "bad TYPE in {line:?}"
                );
                typed.insert(name.to_string(), kind);
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value in {line:?}"));
        let (name, labels) = match name_part.split_once('{') {
            Some((n, l)) => {
                let l = l
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed labels in {line:?}"));
                (n, Some(l))
            }
            None => (name_part, None),
        };
        assert!(valid_name(name), "bad sample name in {line:?}");
        assert!(
            value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok(),
            "bad value in {line:?}"
        );
        // Every sample belongs to a declared family (histogram samples
        // are declared under the family name without suffix).
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(typed.contains_key(family), "sample before TYPE: {line:?}");

        if let Some(labels) = labels {
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|l| l.strip_suffix('"'))
                .unwrap_or_else(|| panic!("only le labels expected, got {line:?}"));
            let n: u64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bucket count {line:?}"));
            match &last_bucket {
                Some((prev_family, prev_n)) if prev_family == family => {
                    assert!(n >= *prev_n, "bucket counts regress at {line:?}");
                }
                _ => {}
            }
            last_bucket = Some((family.to_string(), n));
            if le == "+Inf" {
                inf_bucket.insert(family.to_string(), n);
            }
        } else if let Some(f) = name.strip_suffix("_count") {
            if typed.get(f).map(String::as_str) == Some("histogram") {
                counts.insert(f.to_string(), value.parse().expect("count"));
            }
        }
    }
    assert!(!typed.is_empty(), "empty exposition");
    for (family, n) in &counts {
        assert_eq!(
            inf_bucket.get(family),
            Some(n),
            "{family}: _count != +Inf bucket"
        );
    }
}

#[test]
fn stats_verb_is_versioned_and_observes_prior_runs() {
    let server = Server::start(ServerConfig::default());
    server.submit_blocking(run_req(
        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=v1",
    ));
    let line = verb(&server, "stats");
    assert!(
        line.starts_with(r#"{"status":"ok","version":4,"stats":{"#),
        "{line}"
    );
    assert_eq!(counter(&line, "srv.accepted"), 1);
    assert_eq!(counter(&line, "srv.completed"), 1);
    assert_eq!(counter(&line, "srv.cache.misses"), 1);
    // Histograms land just after the reply send; wait out the tiny race.
    let mut lat = metric_num(&line, "srv.lat.total_us", "count");
    for _ in 0..1000 {
        if lat == Some(1.0) {
            break;
        }
        std::thread::yield_now();
        lat = metric_num(&verb(&server, "stats"), "srv.lat.total_us", "count");
    }
    assert_eq!(lat, Some(1.0));
    // The stats verb counts itself (incremented before rendering).
    assert_eq!(counter(&line, "srv.stats_served"), 1);
    assert!(counter(&verb(&server, "stats"), "srv.stats_served") >= 2);
}

#[test]
fn metrics_verb_emits_valid_prometheus_terminated_by_eof() {
    let server = Server::start(ServerConfig::default());
    server.submit_blocking(run_req(
        "run kernel=fft net=omesh side=2 ops=150 mode=sctm iters=2 id=m1",
    ));
    // Histograms land just after the reply send; wait out the tiny race.
    let mut out = verb(&server, "metrics");
    for _ in 0..1000 {
        if out.contains("sctm_srv_lat_total_us_count 1") {
            break;
        }
        std::thread::yield_now();
        out = verb(&server, "metrics");
    }
    let body = out
        .strip_suffix("# EOF\n")
        .expect("missing # EOF terminator");
    check_prometheus(body);
    assert!(
        body.contains("# TYPE sctm_srv_completed_total counter"),
        "{body}"
    );
    assert!(body.contains("sctm_srv_completed_total 1"), "{body}");
    assert!(
        body.contains("# TYPE sctm_srv_lat_total_us histogram"),
        "{body}"
    );
    assert!(
        body.contains("sctm_srv_lat_total_us_bucket{le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(body.contains("# TYPE sctm_srv_queue_depth gauge"), "{body}");
}

#[test]
fn http_get_scrape_works_on_the_line_protocol_port() {
    let server = Server::start(ServerConfig::default());
    server.submit_blocking(run_req(
        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=h1",
    ));
    let mut out = Vec::new();
    let shutdown = serve_lines(
        b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n".as_slice(),
        &mut out,
        &server,
    )
    .expect("serve");
    assert!(!shutdown);
    let text = String::from_utf8(out).expect("utf8");
    let (head, body) = text.split_once("\r\n\r\n").expect("no header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    assert!(
        head.contains(&format!("Content-Length: {}", body.len())),
        "{head}"
    );
    check_prometheus(body);

    // /stats answers JSON; unknown paths 404 — both one-shot.
    let mut out = Vec::new();
    serve_lines(b"GET /stats HTTP/1.0\r\n\r\n".as_slice(), &mut out, &server).expect("serve");
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("Content-Type: application/json"), "{text}");
    assert!(text.contains(r#""version":4"#), "{text}");
    let mut out = Vec::new();
    serve_lines(b"GET /nope HTTP/1.0\r\n\r\n".as_slice(), &mut out, &server).expect("serve");
    assert!(
        String::from_utf8(out).unwrap().starts_with("HTTP/1.0 404"),
        "unknown path must 404"
    );
}

#[test]
fn counters_are_monotone_while_clients_hammer() {
    let server = Arc::new(Server::start(ServerConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let watched = [
        "srv.accepted",
        "srv.completed",
        "srv.cache.hits",
        "srv.cache.misses",
        "srv.stats_served",
    ];

    std::thread::scope(|s| {
        for client in 0..4usize {
            let server = Arc::clone(&server);
            s.spawn(move || {
                for i in 0..6 {
                    let req = run_req(&format!(
                        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=c{client}-{i}"
                    ));
                    server.submit_blocking(req);
                }
            });
        }
        let poller = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut prev = vec![0u64; watched.len()];
                let mut polls = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let line = verb(&server, "stats");
                    for (i, name) in watched.iter().enumerate() {
                        let cur = counter(&line, name);
                        assert!(
                            cur >= prev[i],
                            "{name} regressed {} -> {cur} on poll {polls}",
                            prev[i]
                        );
                        prev[i] = cur;
                    }
                    // Histogram sample counts are monotone too.
                    let lat = metric_num(&line, "srv.lat.total_us", "count").unwrap_or(0.0) as u64;
                    assert!(
                        lat <= counter(&line, "srv.completed") + counter(&line, "srv.timeouts")
                    );
                    check_prometheus(
                        verb(&server, "metrics")
                            .strip_suffix("# EOF\n")
                            .expect("eof"),
                    );
                    polls += 1;
                }
                polls
            })
        };
        // A stopper thread ends the poll loop once all 24 runs have
        // answered, so the poller always sees the quiescent end state.
        let server2 = Arc::clone(&server);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            loop {
                let line = verb(&server2, "stats");
                if counter(&line, "srv.completed") >= 24 {
                    break;
                }
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Relaxed);
        });
        assert!(poller.join().expect("poller") > 0, "poller never ran");
    });

    let line = verb(&server, "stats");
    assert_eq!(counter(&line, "srv.accepted"), 24);
    assert_eq!(counter(&line, "srv.completed"), 24);
    assert_eq!(
        counter(&line, "srv.cache.hits") + counter(&line, "srv.cache.misses"),
        24
    );
    assert_eq!(
        counter(&line, "srv.cache.misses"),
        1,
        "one workload, one capture"
    );
}

#[test]
fn responses_are_byte_identical_with_aggressive_polling() {
    let reqs: Vec<String> = (0..10)
        .map(|i| {
            let net = ["omesh", "oxbar"][i % 2];
            format!("run kernel=fft net={net} side=2 ops=150 mode=sctm iters=2 id=p{i}")
        })
        .collect();

    let quiet: Vec<String> = {
        let server = Server::start(ServerConfig::default());
        reqs.iter()
            .map(|r| server.submit_blocking(run_req(r)))
            .collect()
    };

    let polled: Vec<String> = {
        let server = Arc::new(Server::start(ServerConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let lines = std::thread::scope(|s| {
            let poller = {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        verb(&server, "stats");
                        verb(&server, "metrics");
                    }
                })
            };
            let lines: Vec<String> = reqs
                .iter()
                .map(|r| server.submit_blocking(run_req(r)))
                .collect();
            stop.store(true, Ordering::Relaxed);
            poller.join().expect("poller");
            lines
        });
        lines
    };

    for (q, p) in quiet.iter().zip(&polled) {
        assert_eq!(result_of(q), result_of(p), "polling changed a result");
    }
}

#[test]
fn snapshot_merge_matches_sequential_recording() {
    // Shard aggregation: recording phases into two snapshots and
    // merging equals recording everything into one.
    let mut a = SvcSnapshot::default();
    let mut b = SvcSnapshot::default();
    let mut whole = SvcSnapshot::default();
    for i in 0..100u64 {
        let v = i * 37 + 1;
        whole.record_us(SvcPhase::Total, v);
        if i % 2 == 0 {
            a.record_us(SvcPhase::Total, v);
        } else {
            b.record_us(SvcPhase::Total, v);
        }
    }
    a.merge(&b);
    assert_eq!(a.phase(SvcPhase::Total), whole.phase(SvcPhase::Total));
}

#[test]
fn request_log_writes_one_line_per_request() {
    let dir = std::env::temp_dir().join(format!("sctm-srvlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = Arc::new(RequestLog::create(&dir).expect("open log"));
    let server = Server::start_logged(ServerConfig::default(), Some(Arc::clone(&log)));

    server.submit_blocking(run_req(
        "run kernel=fft net=omesh side=2 ops=150 mode=classic-trace id=l1",
    ));
    server.submit_blocking(run_req(
        "run kernel=fft net=oxbar side=2 ops=150 mode=classic-trace id=l2",
    ));
    server.drain();

    let text = std::fs::read_to_string(log.path()).expect("read log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{lines:#?}");
    for (line, id, cache) in [(lines[0], "l1", "miss"), (lines[1], "l2", "hit")] {
        assert!(line.starts_with(r#"{"ts_ms":"#), "{line}");
        for needle in [
            &format!(r#""id":"{id}""#),
            &format!(r#""cache":"{cache}""#),
            &r#""verb":"run""#.to_string(),
            &r#""outcome":"ok""#.to_string(),
            &r#""key":""#.to_string(),
            &r#""queue_us":"#.to_string(),
            &r#""probe_us":"#.to_string(),
            &r#""execute_us":"#.to_string(),
            &r#""total_us":"#.to_string(),
        ] {
            assert!(line.contains(needle.as_str()), "missing {needle} in {line}");
        }
    }
    // Both runs share the workload → same capture-key prefix.
    let key_of = |l: &str| {
        let at = l.find(r#""key":""#).unwrap() + 7;
        l[at..at + 8].to_string()
    };
    assert_eq!(key_of(lines[0]), key_of(lines[1]));
    let _ = std::fs::remove_dir_all(&dir);
}
