//! # sctm — Self-Correction Trace Model
//!
//! Umbrella crate for the SCTM workspace: a full-system simulator for
//! Optical Network-on-Chip, reproducing Zhang, He & Fan (IPDPSW 2012).
//! Everything re-exports from [`sctm_core`]; see that crate (and
//! `README.md` / `DESIGN.md`) for the guided tour.
//!
//! ```no_run
//! use sctm::prelude::*;
//!
//! let system = SystemConfig::new(8, NetworkKind::Omesh); // 64 cores
//! let exp = Experiment::new(system, Kernel::Fft);
//! let report = exp.execute(&RunSpec::self_correction(4))?.report;
//! println!("estimated execution time: {}", report.exec_time);
//! # Ok::<(), SctmError>(())
//! ```

#![forbid(unsafe_code)]

pub use sctm_core::*;

/// The blessed API surface, importable in one line.
///
/// Everything a typical caller needs to describe and run a simulation:
/// the experiment builder, the unified request/outcome types, the error
/// enum, and the trace log for capture reuse. Anything deeper (network
/// internals, the event kernel, observability) stays behind the
/// component re-exports in the crate root — stable code should prefer
/// this module, which is covered by the deprecation policy in
/// `DESIGN.md` §10.4.
pub mod prelude {
    pub use sctm_core::trace::TraceLog;
    pub use sctm_core::workloads::Kernel;
    pub use sctm_core::{
        accuracy, Accuracy, Experiment, Mode, NetworkKind, RunOutcome, RunReport, RunSpec,
        SctmError, SystemConfig,
    };
}
