//! Structured JSONL request logging with size-based rotation.
//!
//! One line per event, one file per daemon (`sctmd.log.jsonl` in the
//! chosen directory). When the active file passes `max_bytes` it is
//! rotated: `.jsonl` → `.jsonl.1` → `.jsonl.2` … up to `keep` old
//! files, oldest dropped. Logging failures never propagate into
//! request handling — I/O errors are swallowed, because a full disk
//! must degrade *observability*, not the service.

use crate::lock_unpoisoned;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Rotation threshold: 16 MiB per file.
const DEFAULT_MAX_BYTES: u64 = 16 * 1024 * 1024;
/// Rotated files kept alongside the active one.
const DEFAULT_KEEP: usize = 4;

struct LogInner {
    file: Option<File>,
    written: u64,
}

/// A rotating JSONL log. `Sync` — one mutex guards the writer; callers
/// pass fully formed single-line JSON objects.
pub struct RequestLog {
    path: PathBuf,
    max_bytes: u64,
    keep: usize,
    inner: Mutex<LogInner>,
}

impl RequestLog {
    /// Open (append) `<dir>/sctmd.log.jsonl` with default rotation
    /// limits, creating the directory if needed.
    pub fn create(dir: &Path) -> std::io::Result<RequestLog> {
        RequestLog::with_limits(dir, DEFAULT_MAX_BYTES, DEFAULT_KEEP)
    }

    /// As [`RequestLog::create`] with explicit rotation limits.
    pub(crate) fn with_limits(
        dir: &Path,
        max_bytes: u64,
        keep: usize,
    ) -> std::io::Result<RequestLog> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("sctmd.log.jsonl");
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(RequestLog {
            path,
            max_bytes: max_bytes.max(1),
            keep,
            inner: Mutex::new(LogInner {
                file: Some(file),
                written,
            }),
        })
    }

    /// Path of the active log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one line. `line` must be a single-line JSON object with
    /// no trailing newline (one is added). Never panics, never
    /// returns an error: a failed write or rotation is dropped.
    pub fn log(&self, line: &str) {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.written >= self.max_bytes {
            self.rotate(&mut inner);
        }
        let Some(file) = inner.file.as_mut() else {
            return;
        };
        let wrote = file.write_all(line.as_bytes()).and_then(|()| {
            file.write_all(b"\n")?;
            file.flush()
        });
        if wrote.is_ok() {
            inner.written += line.len() as u64 + 1;
        }
    }

    fn rotate(&self, inner: &mut LogInner) {
        inner.file = None; // close before renaming (Windows-friendly, harmless elsewhere)
        if self.keep == 0 {
            let _ = std::fs::remove_file(&self.path);
        } else {
            let numbered = |n: usize| {
                let mut p = self.path.as_os_str().to_owned();
                p.push(format!(".{n}"));
                PathBuf::from(p)
            };
            let _ = std::fs::remove_file(numbered(self.keep));
            for n in (1..self.keep).rev() {
                let _ = std::fs::rename(numbered(n), numbered(n + 1));
            }
            let _ = std::fs::rename(&self.path, numbered(1));
        }
        inner.written = 0;
        inner.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_line;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sctm-reqlog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn writes_one_line_per_event() {
        let dir = temp_dir("basic");
        let log = RequestLog::create(&dir).unwrap();
        log.log(&json_line(&[
            ("seq", "1".into()),
            ("outcome", "\"ok\"".into()),
        ]));
        log.log(&json_line(&[("seq", "2".into())]));
        let text = std::fs::read_to_string(log.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec![r#"{"seq":1,"outcome":"ok"}"#, r#"{"seq":2}"#]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotates_by_size_and_keeps_bounded_history() {
        let dir = temp_dir("rotate");
        // 64-byte threshold, keep 2 old files.
        let log = RequestLog::with_limits(&dir, 64, 2).unwrap();
        for i in 0..40 {
            log.log(&json_line(&[
                ("seq", i.to_string()),
                ("pad", "\"xxxxxxxxxxxx\"".into()),
            ]));
        }
        let one = dir.join("sctmd.log.jsonl.1");
        let two = dir.join("sctmd.log.jsonl.2");
        let three = dir.join("sctmd.log.jsonl.3");
        assert!(one.exists() && two.exists(), "rotated files missing");
        assert!(!three.exists(), "keep=2 must cap history");
        // No line is ever split across a rotation boundary.
        for p in [log.path().to_path_buf(), one, two] {
            for line in std::fs::read_to_string(&p).unwrap().lines() {
                assert!(
                    line.starts_with('{') && line.ends_with('}'),
                    "torn line {line:?} in {p:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_landing_exactly_on_the_limit_rotates_on_the_next_write() {
        // The size check runs BEFORE a write: a record whose final byte
        // lands exactly on `max_bytes` stays in the current file, and
        // it is the NEXT write that rotates. Off-by-one here either
        // tears the boundary record across files or rotates one record
        // early forever.
        let line = r#"{"seq":0}"#; // 9 bytes + newline = 10 on disk
        let dir = temp_dir("boundary");
        let log = RequestLog::with_limits(&dir, 30, 2).unwrap();
        for _ in 0..3 {
            log.log(line); // 30 bytes written: exactly max_bytes
        }
        assert!(
            !dir.join("sctmd.log.jsonl.1").exists(),
            "rotated before the limit was exceeded"
        );
        let active = std::fs::read_to_string(log.path()).unwrap();
        assert_eq!(active.len(), 30);
        assert_eq!(active.lines().count(), 3);

        log.log(line); // first byte past the limit: rotate, then write
        assert!(!dir.join("sctmd.log.jsonl.2").exists(), "rotated twice");
        let active = std::fs::read_to_string(log.path()).unwrap();
        assert_eq!(active.lines().collect::<Vec<_>>(), vec![line]);
        let rotated = std::fs::read_to_string(dir.join("sctmd.log.jsonl.1")).unwrap();
        assert_eq!(rotated.len(), 30, "boundary record left the full file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_and_counts_existing_bytes() {
        let dir = temp_dir("reopen");
        {
            let log = RequestLog::with_limits(&dir, 1024, 1).unwrap();
            log.log(r#"{"seq":0}"#);
        }
        let log = RequestLog::with_limits(&dir, 1024, 1).unwrap();
        log.log(r#"{"seq":1}"#);
        let text = std::fs::read_to_string(log.path()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
