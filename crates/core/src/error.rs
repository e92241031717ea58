//! The workspace-level error type.
//!
//! Everything a caller can get wrong when *describing* a simulation —
//! an unknown kernel name, a system size outside the simulable
//! envelope, a malformed trace file, a contradictory [`crate::RunSpec`]
//! — surfaces as one [`SctmError`] instead of a panic, so long-running
//! callers (`sctmd`, sweep harnesses) can reject one bad request and
//! keep serving the rest. Logic errors *inside* an accepted simulation
//! still panic: those are bugs, not inputs.

use sctm_trace::persist::TraceError;

/// Why a simulation request could not be run.
#[derive(Clone, Debug, PartialEq)]
pub enum SctmError {
    /// A [`crate::RunSpec`] field combination `execute` cannot honour
    /// (zero iteration cap, damping outside `[0, 1]`, replaying only a
    /// mode that produces no trace, seeding a mode that consumes none...).
    InvalidSpec(String),
    /// System parameters outside the simulable envelope (zero-sized
    /// mesh, more cores than the renumbering tables can index).
    InvalidConfig(String),
    /// No workload kernel with this label ([`crate::kernel_from_label`]).
    UnknownKernel(String),
    /// No interconnect with this label
    /// ([`crate::NetworkKind::from_label`]).
    UnknownNetwork(String),
    /// Trace ingestion failed (absorbs [`TraceError`] from an sctf
    /// load, file I/O included).
    Trace(TraceError),
    /// A classic replay took more network batches than its bound
    /// (200 a message) before every message was delivered — the
    /// congestion-collapse guard for open-loop replay of a saturated
    /// network ([`crate::trace::replay_fixed`]). Carries the batches
    /// taken.
    BudgetExhausted { batches: u64 },
    /// A host I/O failure around the simulation proper (request log,
    /// socket plumbing in `sctmd`). Carries the OS error text —
    /// `std::io::Error` itself is neither `Clone` nor `PartialEq`,
    /// which this enum is.
    Io(String),
}

impl std::fmt::Display for SctmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SctmError::InvalidSpec(e) => write!(f, "invalid run spec: {e}"),
            SctmError::InvalidConfig(e) => write!(f, "invalid system config: {e}"),
            SctmError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            SctmError::UnknownNetwork(n) => write!(f, "unknown network {n:?}"),
            SctmError::Trace(e) => write!(f, "trace ingestion: {e}"),
            SctmError::BudgetExhausted { batches } => write!(
                f,
                "replay exhausted its batch budget ({batches} batches) before all \
                 messages delivered — the network is past its saturation point"
            ),
            SctmError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for SctmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SctmError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for SctmError {
    fn from(e: TraceError) -> Self {
        SctmError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let cases: [(SctmError, &str); 7] = [
            (SctmError::InvalidSpec("x".into()), "invalid run spec"),
            (
                SctmError::InvalidConfig("y".into()),
                "invalid system config",
            ),
            (SctmError::UnknownKernel("fft9".into()), "unknown kernel"),
            (SctmError::UnknownNetwork("warp".into()), "unknown network"),
            (SctmError::Trace(TraceError::BadMagic), "trace ingestion"),
            (
                SctmError::BudgetExhausted { batches: 10_000 },
                "batch budget",
            ),
            (SctmError::Io("disk full".into()), "i/o"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn trace_errors_absorb_with_source() {
        use std::error::Error as _;
        let e: SctmError = TraceError::VersionSkew { found: 7 }.into();
        assert_eq!(e, SctmError::Trace(TraceError::VersionSkew { found: 7 }));
        assert!(e.source().is_some(), "wrapped trace error keeps its source");
    }
}
