//! Traces on disk: the typed [`TraceError`], and [`TraceLog::save`] /
//! [`TraceLog::load`], which speak the [`crate::sctf`] container only.
//!
//! Captures are expensive relative to replays, so they are worth
//! keeping: a saved trace can be replayed against any number of target
//! networks (or shared with another machine) without re-running the
//! full-system simulation. A trace leaves memory in one encoding, sctf,
//! whatever the file is called. A text view for grepping and diffing is
//! a one-way `sctf export`.

use crate::log::TraceLog;
use crate::sctf;
use std::path::Path;

/// Why a trace failed to load — file or in-memory bytes. Every
/// malformed input maps to a specific variant; decoding never panics,
/// whatever the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with the sctf container magic.
    BadMagic,
    /// A section (or the header itself) is shorter than its declared
    /// or required length.
    TruncatedSection {
        section: &'static str,
        need: u64,
        have: u64,
    },
    /// The container checksum does not match its contents.
    BadChecksum { stored: u64, computed: u64 },
    /// The container's format version is not one this build
    /// understands (only [`sctf::SCTF_VERSION`] is).
    VersionSkew { found: u32 },
    /// A section offset violates the format's 8-byte alignment rule.
    Misaligned { section: &'static str, offset: u64 },
    /// Underlying file I/O failed.
    Io(String),
    /// The records decoded but violate trace invariants
    /// ([`TraceLog::validate`] — causality, out-of-range ids...).
    Invalid(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an sctf container"),
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

impl TraceLog {
    /// Write to a file as an sctf container, whatever its extension.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path, sctf::to_sctf_bytes(self)).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Read an sctf container from a file; anything else is
    /// [`TraceError::BadMagic`]. I/O failures and decode failures share
    /// one error type ([`TraceError::Io`] for the former), so callers
    /// match on a single result.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceLog, TraceError> {
        sctf::SctfReader::open(path)?.to_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_missing_file_is_io_error() {
        let path = std::env::temp_dir().join("sctm_no_such_trace_file.sctf");
        assert!(matches!(TraceLog::load(&path), Err(TraceError::Io(_))));
    }

    #[test]
    fn save_missing_dir_is_io_error() {
        let path = std::env::temp_dir().join("sctm_no_such_dir").join("t.sctf");
        assert!(matches!(
            TraceLog::default().save(&path),
            Err(TraceError::Io(_))
        ));
    }
}
