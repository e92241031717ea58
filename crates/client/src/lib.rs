//! A thin client for the `sctmd` line protocol.
//!
//! Sweep drivers before this crate hand-rolled a `TcpStream`, a
//! `BufReader`, and an ad-hoc busy-retry loop each time. This crate
//! folds those into three pieces:
//!
//! - **Connection pooling** — [`Client`] keeps a small pool of
//!   connections to one daemon; a call checks one out (dialing lazily
//!   up to the cap) and returns it on success. Connections that fail
//!   mid-call are dropped, not returned.
//! - **Request pipelining** — [`Client::pipeline`] writes a whole batch
//!   of request lines before reading any response. `sctmd` answers each
//!   connection strictly in request order (responses are queued per
//!   connection), so the batch comes back positionally matched while
//!   the server overlaps the actual simulation work across its
//!   scheduler workers.
//! - **Backpressure** — a `{"status":"busy","retry_after_ms":N}` line
//!   is not an error: the client sleeps the server-quoted `N` and
//!   resends, up to 100 times. Only after the retry budget is spent
//!   does it surface [`ClientError::Busy`].
//!
//! Everything here is std-only and every parse is total: malformed
//! server output becomes [`ClientError::Protocol`], never a panic —
//! `tests/protocol_fuzz.rs` drives arbitrary bytes through
//! [`parse_response`] to keep it that way.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

pub mod wire;

/// Typed failure of one client call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure (dial, write, read, unexpected EOF).
    Io(String),
    /// The server answered, but not with a frame this client
    /// understands (malformed JSON, missing status, bad field type).
    Protocol(String),
    /// The server kept answering busy past the retry budget. Carries
    /// the last `retry_after_ms` the server quoted.
    Busy { retry_after_ms: u64 },
    /// A structured `{"status":"error"}` response.
    Server { kind: String, message: String },
    /// A structured `{"status":"timeout"}` response: the request sat in
    /// the server queue past its deadline and was dropped unrun.
    Timeout { waited_ms: u64 },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "busy after retries (retry_after_ms={retry_after_ms})")
            }
            ClientError::Server { kind, message } => write!(f, "server error [{kind}]: {message}"),
            ClientError::Timeout { waited_ms } => {
                write!(f, "server-side queue timeout after {waited_ms}ms")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// One server response line, classified. `line` is always the verbatim
/// frame, so byte-identity tests can compare raw lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    Ok { line: String },
    Busy { retry_after_ms: u64 },
    Error { kind: String, message: String },
    Timeout { waited_ms: u64 },
}

/// Classify one response line. Total: any input maps to `Ok(Response)`
/// or `Err(ClientError::Protocol)`, never a panic.
pub fn parse_response(line: &str) -> Result<Response, ClientError> {
    let line = line.trim_end_matches(['\r', '\n']);
    let status = wire::json_str_field(line, "status")
        .ok_or_else(|| ClientError::Protocol(format!("no status field in: {}", clip(line))))?;
    match status.as_str() {
        "ok" => Ok(Response::Ok {
            line: line.to_string(),
        }),
        "busy" => Ok(Response::Busy {
            retry_after_ms: wire::json_u64_field(line, "retry_after_ms").ok_or_else(|| {
                ClientError::Protocol(format!("busy frame without retry_after_ms: {}", clip(line)))
            })?,
        }),
        "error" => Ok(Response::Error {
            kind: wire::json_str_field(line, "kind").unwrap_or_else(|| "unknown".into()),
            message: wire::json_str_field(line, "message").unwrap_or_default(),
        }),
        "timeout" => Ok(Response::Timeout {
            waited_ms: wire::json_u64_field(line, "waited_ms").unwrap_or(0),
        }),
        other => Err(ClientError::Protocol(format!("unknown status '{other}'"))),
    }
}

fn clip(line: &str) -> String {
    const MAX: usize = 120;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let mut end = MAX;
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &line[..end])
    }
}

/// Socket read timeout per response line.
const IO_TIMEOUT: Duration = Duration::from_millis(300_000);
/// Most connections kept pooled at once.
const POOL_CAP: usize = 4;
/// Resends after busy responses before giving up.
const MAX_BUSY_RETRIES: u32 = 100;

struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn dial(addr: &str) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| ClientError::Io(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Send request lines as one write: the socket has Nagle off, so
    /// each write is its own segment, and a line split from its
    /// newline (or a batch split per line) costs the server a wakeup
    /// per piece.
    fn send_lines<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), ClientError> {
        let mut frame = String::new();
        for line in lines {
            frame.push_str(line);
            frame.push('\n');
        }
        self.reader
            .get_mut()
            .write_all(frame.as_bytes())
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err(ClientError::Io("connection closed by server".into())),
            Ok(_) => Ok(buf),
            Err(e) => Err(ClientError::Io(e.to_string())),
        }
    }
}

/// A pooled client for one `sctmd` address. Cloneable across threads is
/// not needed — wrap in `Arc` and call concurrently; each call checks
/// out its own connection.
pub struct Client {
    addr: String,
    pool: Mutex<Vec<Conn>>,
}

impl Client {
    /// Create a client and eagerly dial one connection so obvious
    /// address errors fail here, not on the first call.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let first = Conn::dial(addr)?;
        Ok(Client {
            addr: addr.to_string(),
            pool: Mutex::new(vec![first]),
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn checkout(&self) -> Result<Conn, ClientError> {
        let pooled = {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.pop()
        };
        match pooled {
            Some(c) => Ok(c),
            None => Conn::dial(&self.addr),
        }
    }

    fn checkin(&self, conn: Conn) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(conn);
        } // else drop: over cap, close it
    }

    /// One request → one classified response, no busy retry. The
    /// connection is returned to the pool only on success; any error
    /// closes it (its stream state is unknown).
    pub fn call_once(&self, line: &str) -> Result<Response, ClientError> {
        let mut conn = self.checkout()?;
        let out = conn
            .send_lines([line])
            .and_then(|()| conn.read_line())
            .and_then(|resp| parse_response(&resp));
        if out.is_ok() {
            self.checkin(conn);
        }
        out
    }

    /// One request → the raw `ok` response line. Busy responses are
    /// retried after the server-quoted `retry_after_ms`; structured
    /// error/timeout responses become typed errors.
    pub fn call(&self, line: &str) -> Result<String, ClientError> {
        let mut attempts = 0u32;
        loop {
            match self.call_once(line)? {
                Response::Ok { line } => return Ok(line),
                Response::Busy { retry_after_ms } => {
                    if attempts >= MAX_BUSY_RETRIES {
                        return Err(ClientError::Busy { retry_after_ms });
                    }
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Response::Error { kind, message } => {
                    return Err(ClientError::Server { kind, message })
                }
                Response::Timeout { waited_ms } => return Err(ClientError::Timeout { waited_ms }),
            }
        }
    }

    /// Pipeline a batch: write every line, then read exactly one
    /// response per line, positionally matched (the server answers each
    /// connection in request order). Busy responses are re-pipelined in
    /// follow-up rounds after the largest quoted `retry_after_ms`, so a
    /// sweep pushed against a full queue completes instead of failing.
    ///
    /// Returns one classified terminal response per input line; only
    /// transport/parse failures abort the whole batch.
    pub fn pipeline(&self, lines: &[String]) -> Result<Vec<Response>, ClientError> {
        let mut out: Vec<Option<Response>> = vec![None; lines.len()];
        let mut remaining: Vec<usize> = (0..lines.len()).collect();
        let mut conn = self.checkout()?;
        let mut rounds = 0u32;
        while !remaining.is_empty() {
            conn.send_lines(remaining.iter().map(|&i| lines[i].as_str()))?;
            let mut retry = Vec::new();
            let mut max_wait = 1u64;
            for &i in &remaining {
                let resp = conn.read_line().and_then(|r| parse_response(&r))?;
                if let Response::Busy { retry_after_ms } = resp {
                    if rounds < MAX_BUSY_RETRIES {
                        max_wait = max_wait.max(retry_after_ms.max(1));
                        retry.push(i);
                        continue;
                    }
                }
                out[i] = Some(resp);
            }
            if !retry.is_empty() {
                rounds += 1;
                std::thread::sleep(Duration::from_millis(max_wait));
            }
            remaining = retry;
        }
        self.checkin(conn);
        Ok(out
            .into_iter()
            .map(|r| r.expect("every index answered"))
            .collect())
    }

    /// `stats` verb: the raw one-line JSON telemetry snapshot.
    pub fn stats(&self) -> Result<String, ClientError> {
        self.call("stats")
    }

    /// `ping` verb; errors if the daemon is unreachable or draining.
    pub fn ping(&self) -> Result<(), ClientError> {
        self.call("ping").map(|_| ())
    }

    /// `shutdown` verb: ask the daemon to drain and exit.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.call("shutdown").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A scripted one-connection server: answers each request line with
    /// the next canned response.
    fn fake_server(responses: Vec<&'static str>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            for resp in responses {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                stream.write_all(resp.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn call_retries_busy_then_returns_ok() {
        let (addr, h) = fake_server(vec![
            r#"{"status":"busy","id":"a","retry_after_ms":1}"#,
            r#"{"status":"ok","id":"a","result":{}}"#,
        ]);
        let c = Client::connect(&addr).unwrap();
        let line = c.call("run kernel=fft id=a").unwrap();
        assert!(line.contains(r#""status":"ok""#));
        h.join().unwrap();
    }

    #[test]
    fn call_surfaces_typed_server_errors() {
        let (addr, h) = fake_server(vec![
            r#"{"status":"error","id":"a","kind":"unknown-kernel","message":"no such kernel"}"#,
        ]);
        let c = Client::connect(&addr).unwrap();
        let err = c.call("run kernel=doom id=a").unwrap_err();
        assert_eq!(
            err,
            ClientError::Server {
                kind: "unknown-kernel".into(),
                message: "no such kernel".into()
            }
        );
        h.join().unwrap();
    }

    #[test]
    fn pipeline_matches_responses_positionally_and_retries_busy() {
        let (addr, h) = fake_server(vec![
            r#"{"status":"ok","id":"r0","result":{}}"#,
            r#"{"status":"busy","id":"r1","retry_after_ms":1}"#,
            r#"{"status":"ok","id":"r1","result":{}}"#,
        ]);
        let c = Client::connect(&addr).unwrap();
        let out = c
            .pipeline(&["run kernel=fft id=r0".into(), "run kernel=fft id=r1".into()])
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Response::Ok { line } if line.contains("r0")));
        assert!(matches!(&out[1], Response::Ok { line } if line.contains("r1")));
        h.join().unwrap();
    }

    #[test]
    fn parse_response_is_total_on_garbage() {
        for garbage in [
            "",
            "{",
            "not json",
            r#"{"status":"warp"}"#,
            r#"{"status":"busy"}"#, // missing retry_after_ms
            r#"{"status":123}"#,
            "\u{0}\u{1}\u{2}",
        ] {
            match parse_response(garbage) {
                Err(ClientError::Protocol(_)) => {}
                other => panic!("{garbage:?} => {other:?}"),
            }
        }
    }

    #[test]
    fn server_timeout_frames_become_typed_errors() {
        let (addr, h) = fake_server(vec![r#"{"status":"timeout","id":"a","waited_ms":777}"#]);
        let c = Client::connect(&addr).unwrap();
        assert_eq!(
            c.call("run kernel=fft id=a").unwrap_err(),
            ClientError::Timeout { waited_ms: 777 }
        );
        h.join().unwrap();
    }
}
