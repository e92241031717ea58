//! Trace (de)serialisation: the CSV interchange codec, the typed
//! [`TraceError`], and the [`TraceStore`] facade that unifies it with
//! the binary [`crate::sctf`] container.
//!
//! Captures are expensive relative to replays, so they are worth
//! keeping: a saved trace can be replayed against any number of target
//! networks (or shared with another machine) without re-running the
//! full-system simulation. Two formats share one API:
//!
//! - **CSV** (`sctm-trace-v1`, this module) is the narrow
//!   *import/export pair* — [`TraceLog::to_csv_string`] /
//!   [`TraceLog::from_csv_str`] — kept greppable and diffable for
//!   interchange with external tools.
//! - **sctf** ([`crate::sctf`]) is the *storage* format: a columnar
//!   binary container that cold-loads an order of magnitude faster and
//!   at a fraction of the bytes.
//!
//! Callers should not pick a codec by hand: [`TraceLog::save`] selects
//! by extension (`.sctf` → binary, anything else → CSV),
//! [`TraceLog::save_as`] selects explicitly, and [`TraceLog::load`]
//! autodetects by magic bytes, so either format round-trips through
//! the same two calls.

use crate::log::{Columns, TraceLog, TraceRecord, NONE};
use crate::sctf;
use sctm_engine::net::{Message, MsgClass, MsgId, NodeId};
use sctm_engine::time::SimTime;
use std::path::Path;

const MAGIC: &str = "sctm-trace-v1";

/// Why a trace failed to parse — CSV or sctf, file or in-memory
/// bytes. Every malformed input maps to a specific variant; parsing
/// never panics, whatever the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input starts with neither the `sctm-trace-v1` CSV magic nor
    /// the sctf container magic.
    BadMagic,
    /// CSV: the file ends (or a line ends) before all expected data: a
    /// missing metadata/header line or a record with the wrong field
    /// count. `line` is 1-based.
    Truncated { line: usize },
    /// CSV: a numeric field failed to parse. `field` names the column.
    NonNumeric { line: usize, field: &'static str },
    /// CSV: a numeric field parsed but exceeds its type's range (node
    /// ids and byte counts are `u32`).
    OutOfRange { line: usize, field: &'static str },
    /// CSV: message class column was neither `C` nor `D`.
    BadClass { line: usize },
    /// sctf: a section (or the header itself) is shorter than its
    /// declared or required length.
    TruncatedSection {
        section: &'static str,
        need: u64,
        have: u64,
    },
    /// sctf: the container checksum does not match its contents.
    BadChecksum { stored: u64, computed: u64 },
    /// sctf: the container's format version is not one this build
    /// understands (only [`sctf::SCTF_VERSION`] is).
    VersionSkew { found: u32 },
    /// sctf: a section offset violates the format's 8-byte alignment
    /// rule, so the zero-copy column casts would be unsound.
    Misaligned { section: &'static str, offset: u64 },
    /// Underlying file I/O failed.
    Io(String),
    /// The records parsed but violate trace invariants
    /// ([`TraceLog::validate`] — causality, duplicate ids...).
    Invalid(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "neither a {MAGIC} nor an sctf file"),
            TraceError::Truncated { line } => write!(f, "line {line}: truncated"),
            TraceError::NonNumeric { line, field } => {
                write!(f, "line {line}: non-numeric {field}")
            }
            TraceError::OutOfRange { line, field } => {
                write!(f, "line {line}: {field} out of range")
            }
            TraceError::BadClass { line } => write!(f, "line {line}: bad message class"),
            TraceError::TruncatedSection {
                section,
                need,
                have,
            } => write!(f, "sctf section {section}: need {need} bytes, have {have}"),
            TraceError::BadChecksum { stored, computed } => write!(
                f,
                "sctf checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::VersionSkew { found } => write!(
                f,
                "sctf version {found} (this build reads version {})",
                sctf::SCTF_VERSION
            ),
            TraceError::Misaligned { section, offset } => {
                write!(f, "sctf section {section} misaligned at offset {offset}")
            }
            TraceError::Io(e) => write!(f, "trace file i/o: {e}"),
            TraceError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// On-disk trace encodings the [`TraceStore`] facade can read/write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// `sctm-trace-v1` self-describing CSV (interchange).
    Csv,
    /// `sctf` binary columnar container (storage; see [`crate::sctf`]).
    Sctf,
}

impl TraceFormat {
    /// Format implied by a path's extension: `.sctf` → [`Self::Sctf`],
    /// anything else (including none) → [`Self::Csv`].
    pub fn from_path(path: impl AsRef<Path>) -> TraceFormat {
        match path.as_ref().extension().and_then(|e| e.to_str()) {
            Some(e) if e.eq_ignore_ascii_case("sctf") => TraceFormat::Sctf,
            _ => TraceFormat::Csv,
        }
    }

    /// Format implied by leading magic bytes, or `None` for neither.
    pub fn sniff(bytes: &[u8]) -> Option<TraceFormat> {
        if bytes.starts_with(&sctf::SCTF_MAGIC) {
            Some(TraceFormat::Sctf)
        } else if bytes.starts_with(MAGIC.as_bytes()) {
            Some(TraceFormat::Csv)
        } else {
            None
        }
    }
}

/// The unified trace I/O facade: one save path, one load path, one
/// error type, both formats. [`TraceLog::save`], [`TraceLog::save_as`]
/// and [`TraceLog::load`] are thin delegates to this.
pub struct TraceStore;

impl TraceStore {
    /// Serialise `log` in `format`, in memory.
    pub fn encode(log: &TraceLog, format: TraceFormat) -> Vec<u8> {
        match format {
            TraceFormat::Csv => log.to_csv_string().into_bytes(),
            TraceFormat::Sctf => sctf::to_sctf_bytes(log),
        }
    }

    /// Decode a trace from bytes, autodetecting the format by magic.
    pub fn decode(bytes: &[u8]) -> Result<TraceLog, TraceError> {
        match TraceFormat::sniff(bytes) {
            Some(TraceFormat::Sctf) => sctf::from_sctf_bytes(bytes),
            Some(TraceFormat::Csv) => {
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| TraceError::Invalid("csv trace is not utf-8".into()))?;
                TraceLog::from_csv_str(s)
            }
            None => Err(TraceError::BadMagic),
        }
    }

    /// Write `log` to `path` in `format`.
    pub fn save_as(
        log: &TraceLog,
        path: impl AsRef<Path>,
        format: TraceFormat,
    ) -> Result<(), TraceError> {
        std::fs::write(path, Self::encode(log, format)).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Read a trace from `path`, autodetecting the format by magic (the
    /// extension is irrelevant on load).
    pub fn load(path: impl AsRef<Path>) -> Result<TraceLog, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Self::decode(&bytes)
    }
}

impl TraceLog {
    /// Serialise to the CSV trace format — the *export* half of the
    /// interchange pair. For storage (files, caches, wire frames),
    /// prefer [`TraceLog::save`] / [`TraceStore::encode`], which pick
    /// the compact sctf container.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 64);
        out.push_str(&format!(
            "{MAGIC},{},{}\n",
            self.capture_net,
            self.capture_exec_time.as_ps()
        ));
        out.push_str("id,src,dst,class,bytes,t_inject_ps,t_deliver_ps,prev,deps,kind\n");
        for (i, r) in self.records.iter().enumerate() {
            let class = match r.msg.class {
                MsgClass::Control => "C",
                MsgClass::Data => "D",
            };
            let prev = self
                .prev_same_src(i)
                .map(|p| p.0.to_string())
                .unwrap_or_default();
            let deps = self
                .deps(i)
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(";");
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.msg.id.0,
                r.msg.src.0,
                r.msg.dst.0,
                class,
                r.msg.bytes,
                r.t_inject.as_ps(),
                r.t_deliver.as_ps(),
                prev,
                deps,
                self.kind(i),
            ));
        }
        out
    }

    /// Parse the CSV trace format — the *import* half of the
    /// interchange pair (loads from disk should go through
    /// [`TraceLog::load`], which autodetects the format). Malformed
    /// input of any shape — bad magic, truncated lines, non-numeric or
    /// out-of-range fields — returns the matching [`TraceError`]
    /// variant; parsing never panics.
    pub fn from_csv_str(s: &str) -> Result<TraceLog, TraceError> {
        let mut lines = s.lines();
        let meta = lines.next().ok_or(TraceError::Truncated { line: 1 })?;
        let mut mp = meta.split(',');
        if mp.next() != Some(MAGIC) {
            return Err(TraceError::BadMagic);
        }
        let capture_net: &str = mp.next().ok_or(TraceError::Truncated { line: 1 })?;
        let capture_net: &'static str = match capture_net {
            "analytic" => "analytic",
            "emesh" => "emesh",
            "omesh" => "omesh",
            "oxbar" => "oxbar",
            "hybrid" => "hybrid",
            _ => "unknown",
        };
        let exec_ps: u64 = mp
            .next()
            .ok_or(TraceError::Truncated { line: 1 })?
            .parse()
            .map_err(|_| TraceError::NonNumeric {
                line: 1,
                field: "exec_time",
            })?;
        let header = lines.next().ok_or(TraceError::Truncated { line: 2 })?;
        if !header.starts_with("id,") {
            return Err(TraceError::Truncated { line: 2 });
        }
        let mut cols = Columns::with_capacity(0, 0);
        for (ln, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let lineno = ln + 3;
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 10 {
                return Err(TraceError::Truncated { line: lineno });
            }
            let parse_u64 = |s: &str, field: &'static str| -> Result<u64, TraceError> {
                s.parse().map_err(|_| TraceError::NonNumeric {
                    line: lineno,
                    field,
                })
            };
            let parse_u32 = |s: &str, field: &'static str| -> Result<u32, TraceError> {
                let v = parse_u64(s, field)?;
                u32::try_from(v).map_err(|_| TraceError::OutOfRange {
                    line: lineno,
                    field,
                })
            };
            let class = match f[3] {
                "C" => MsgClass::Control,
                "D" => MsgClass::Data,
                _ => return Err(TraceError::BadClass { line: lineno }),
            };
            // Message ids live in u32 columns; `u32::MAX` is the
            // columns' "none", so no record can be referred to by it.
            let parse_id = |s: &str, field: &'static str| -> Result<u32, TraceError> {
                match parse_u32(s, field)? {
                    NONE => Err(TraceError::OutOfRange {
                        line: lineno,
                        field,
                    }),
                    id => Ok(id),
                }
            };
            cols.prev.push(if f[7].is_empty() {
                NONE
            } else {
                parse_id(f[7], "prev")?
            });
            if !f[8].is_empty() {
                for d in f[8].split(';') {
                    cols.dep_ids.push(parse_id(d, "dep")?);
                }
            }
            let edges = u32::try_from(cols.dep_ids.len()).map_err(|_| TraceError::OutOfRange {
                line: lineno,
                field: "dep",
            })?;
            cols.dep_off.push(edges);
            // `kind` is diagnostic only: labels outside the tag table
            // load as `other`.
            cols.kind.push(sctf::kind_tag(f[9]));
            cols.records.push(TraceRecord {
                msg: Message {
                    id: MsgId(parse_u64(f[0], "id")?),
                    src: NodeId(parse_u32(f[1], "src")?),
                    dst: NodeId(parse_u32(f[2], "dst")?),
                    class,
                    bytes: parse_u32(f[4], "bytes")?,
                },
                t_inject: SimTime::from_ps(parse_u64(f[5], "t_inject")?),
                t_deliver: SimTime::from_ps(parse_u64(f[6], "t_deliver")?),
            });
        }
        if cols.records.len() >= NONE as usize {
            return Err(TraceError::Invalid(format!(
                "csv: record count {} exceeds the u32 id space",
                cols.records.len()
            )));
        }
        let log = TraceLog::from_columns(cols, capture_net, SimTime::from_ps(exec_ps), None);
        log.validate().map_err(TraceError::Invalid)?;
        Ok(log)
    }

    /// Write to a file; the format follows the extension (`.sctf` →
    /// binary container, anything else → CSV).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let format = TraceFormat::from_path(&path);
        TraceStore::save_as(self, path, format)
    }

    /// Write to a file in an explicit [`TraceFormat`].
    pub fn save_as(&self, path: impl AsRef<Path>, format: TraceFormat) -> Result<(), TraceError> {
        TraceStore::save_as(self, path, format)
    }

    /// Read from a file, autodetecting the format by magic bytes. I/O
    /// failures and parse failures share one error type
    /// ([`TraceError`], with [`TraceError::Io`] for the former), so
    /// callers match on a single result.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceLog, TraceError> {
        TraceStore::load(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Capture;
    use sctm_cmp::protocol::{InjectRecord, TraceHook};

    fn tiny() -> TraceLog {
        let mut cap = Capture::new();
        let mk = |id: u64, src: u32, dst: u32, class: MsgClass| Message {
            id: MsgId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            class,
            bytes: if class == MsgClass::Data { 72 } else { 8 },
        };
        cap.on_inject(InjectRecord {
            msg: mk(0, 0, 3, MsgClass::Control),
            at: SimTime::from_ps(100),
            deps: &[],
            prev_same_src: None,
            kind: "GetS",
        });
        cap.on_deliver(MsgId(0), SimTime::from_ps(900));
        cap.on_inject(InjectRecord {
            msg: mk(1, 3, 0, MsgClass::Data),
            at: SimTime::from_ps(1100),
            deps: &[MsgId(0)],
            prev_same_src: None,
            kind: "Data",
        });
        cap.on_deliver(MsgId(1), SimTime::from_ps(2400));
        cap.finish("analytic", SimTime::from_ps(3000))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let log = tiny();
        let csv = log.to_csv_string();
        let back = TraceLog::from_csv_str(&csv).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(back.capture_net, "analytic");
        assert_eq!(back.capture_exec_time, log.capture_exec_time);
        for (a, b) in log.records.iter().zip(back.records.iter()) {
            assert_eq!(a.msg.id, b.msg.id);
            assert_eq!(a.msg.src, b.msg.src);
            assert_eq!(a.msg.dst, b.msg.dst);
            assert_eq!(a.msg.class, b.msg.class);
            assert_eq!(a.msg.bytes, b.msg.bytes);
            assert_eq!(a.t_inject, b.t_inject);
            assert_eq!(a.t_deliver, b.t_deliver);
        }
        assert_eq!(log.dep_csr(), back.dep_csr());
        assert_eq!(log.prev_column(), back.prev_column());
        assert_eq!(log.kind_tags(), back.kind_tags());
        assert_eq!(log.arrival_order(), back.arrival_order());
    }

    #[test]
    fn file_roundtrip() {
        let log = tiny();
        let path = std::env::temp_dir().join("sctm_trace_roundtrip_test.csv");
        log.save(&path).unwrap();
        let back = TraceLog::load(&path).unwrap();
        assert_eq!(back.len(), log.len());
        let _ = std::fs::remove_file(path);
    }

    /// A syntactically valid one-record trace with `line` substituted
    /// for the record line, for error-variant tests.
    fn with_record(record: &str) -> String {
        format!(
            "{MAGIC},analytic,5000\nid,src,dst,class,bytes,t_inject_ps,t_deliver_ps,prev,deps,kind\n{record}\n"
        )
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            TraceLog::from_csv_str("").err(),
            Some(TraceError::Truncated { line: 1 })
        );
        assert_eq!(
            TraceLog::from_csv_str("nonsense,analytic,5\nid,...\n").err(),
            Some(TraceError::BadMagic)
        );
        // metadata line missing the exec-time field
        assert_eq!(
            TraceLog::from_csv_str(&format!("{MAGIC},analytic\nid,\n")).err(),
            Some(TraceError::Truncated { line: 1 })
        );
        // no column header at all
        assert_eq!(
            TraceLog::from_csv_str(&format!("{MAGIC},analytic,5\n")).err(),
            Some(TraceError::Truncated { line: 2 })
        );
    }

    #[test]
    fn rejects_truncated_record() {
        assert_eq!(
            TraceLog::from_csv_str(&with_record("1,2,3")).err(),
            Some(TraceError::Truncated { line: 3 })
        );
    }

    #[test]
    fn rejects_non_numeric_fields() {
        let cases = [
            ("x,0,1,C,8,100,900,,,GetS", "id"),
            ("0,x,1,C,8,100,900,,,GetS", "src"),
            ("0,0,x,C,8,100,900,,,GetS", "dst"),
            ("0,0,1,C,x,100,900,,,GetS", "bytes"),
            ("0,0,1,C,8,x,900,,,GetS", "t_inject"),
            ("0,0,1,C,8,100,x,,,GetS", "t_deliver"),
            ("0,0,1,C,8,100,900,x,,GetS", "prev"),
            ("0,0,1,C,8,100,900,,0;x,GetS", "dep"),
        ];
        for (record, field) in cases {
            assert_eq!(
                TraceLog::from_csv_str(&with_record(record)).err(),
                Some(TraceError::NonNumeric { line: 3, field }),
                "record {record:?}"
            );
        }
        assert_eq!(
            TraceLog::from_csv_str(&format!("{MAGIC},analytic,zzz\nid,\n")).err(),
            Some(TraceError::NonNumeric {
                line: 1,
                field: "exec_time"
            })
        );
    }

    #[test]
    fn rejects_out_of_range_ids() {
        // node ids and byte counts are u32; values that parse as u64
        // but overflow u32 must be flagged, not silently truncated.
        let cases = [
            ("0,4294967296,1,C,8,100,900,,,GetS", "src"),
            ("0,0,4294967296,C,8,100,900,,,GetS", "dst"),
            ("0,0,1,C,4294967296,100,900,,,GetS", "bytes"),
        ];
        for (record, field) in cases {
            assert_eq!(
                TraceLog::from_csv_str(&with_record(record)).err(),
                Some(TraceError::OutOfRange { line: 3, field }),
                "record {record:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_class() {
        assert_eq!(
            TraceLog::from_csv_str(&with_record("0,0,1,Q,8,100,900,,,GetS")).err(),
            Some(TraceError::BadClass { line: 3 })
        );
    }

    #[test]
    fn rejects_invariant_violations() {
        // delivered before injected — caught by validate(), surfaced
        // as Invalid rather than a panic.
        assert!(matches!(
            TraceLog::from_csv_str(&with_record("0,0,1,C,8,100,50,,,GetS")),
            Err(TraceError::Invalid(_))
        ));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let path = std::env::temp_dir().join("sctm_no_such_trace_file.csv");
        assert!(matches!(TraceLog::load(&path), Err(TraceError::Io(_))));
    }

    #[test]
    fn save_missing_dir_is_io_error() {
        let path = std::env::temp_dir().join("sctm_no_such_dir").join("t.sctf");
        assert!(matches!(tiny().save(&path), Err(TraceError::Io(_))));
    }

    #[test]
    fn extension_selects_format_and_magic_detects_it_back() {
        let log = tiny();
        let dir = std::env::temp_dir();
        let as_sctf = dir.join("sctm_store_roundtrip.sctf");
        let as_csv = dir.join("sctm_store_roundtrip.trace.csv");
        log.save(&as_sctf).unwrap();
        log.save(&as_csv).unwrap();
        // The sctf file is binary, the CSV one is text, and both load
        // back through the same magic-sniffing entry point.
        let sctf_bytes = std::fs::read(&as_sctf).unwrap();
        assert_eq!(TraceFormat::sniff(&sctf_bytes), Some(TraceFormat::Sctf));
        let csv_bytes = std::fs::read(&as_csv).unwrap();
        assert_eq!(TraceFormat::sniff(&csv_bytes), Some(TraceFormat::Csv));
        for p in [&as_sctf, &as_csv] {
            let back = TraceLog::load(p).unwrap();
            assert_eq!(back.len(), log.len());
            assert_eq!(back.capture_exec_time, log.capture_exec_time);
        }
        // Autodetection reads magic, not extensions: an sctf container
        // behind a .csv name still loads as sctf.
        let disguised = dir.join("sctm_store_disguised.csv");
        log.save_as(&disguised, TraceFormat::Sctf).unwrap();
        assert_eq!(TraceLog::load(&disguised).unwrap().len(), log.len());
        for p in [as_sctf, as_csv, disguised] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn decode_rejects_unknown_magic() {
        assert_eq!(
            TraceStore::decode(b"PK\x03\x04zip?").err(),
            Some(TraceError::BadMagic)
        );
        assert_eq!(TraceStore::decode(b"").err(), Some(TraceError::BadMagic));
    }

    #[test]
    fn real_capture_roundtrips_and_replays_identically() {
        use crate::replay::replay_sctm_pass;
        use sctm_cmp::{CmpConfig, CmpSim};
        use sctm_engine::net::AnalyticNetwork;
        use sctm_workloads::{build, Kernel, WorkloadParams};

        let w = build(Kernel::Lu, WorkloadParams::new(16, 200, 5));
        let net = AnalyticNetwork::new(16, SimTime::from_ns(8), SimTime::from_ns(2), 40);
        let mut sim = CmpSim::new(CmpConfig::tiled(4), Box::new(net), Box::new(w));
        let mut cap = Capture::new();
        let res = sim.run(&mut cap);
        let log = cap.finish("analytic", res.exec_time);

        let back = TraceLog::from_csv_str(&log.to_csv_string()).unwrap();
        let mk = || {
            Box::new(AnalyticNetwork::new(
                16,
                SimTime::from_ns(8),
                SimTime::from_ns(6),
                40,
            ))
        };
        let mut n1 = mk();
        let mut n2 = mk();
        let r1 = replay_sctm_pass(&log, n1.as_mut());
        let r2 = replay_sctm_pass(&back, n2.as_mut());
        assert_eq!(
            r1.deliver, r2.deliver,
            "roundtripped trace replays differently"
        );
    }
}
