//! # sctm-core — the SCTM full-system ONoC simulation system
//!
//! Public API of the *Self-Correction Trace Model* reproduction: build a
//! simulated tiled CMP ([`SystemConfig`]), bind a workload to it
//! ([`Experiment`]), and run it in any [`Mode`]:
//!
//! ```
//! use sctm_core::{Experiment, NetworkKind, RunSpec, SystemConfig};
//! use sctm_workloads::Kernel;
//!
//! // 16-core CMP on the circuit-switched photonic mesh.
//! let system = SystemConfig::new(4, NetworkKind::Omesh);
//! let exp = Experiment::new(system, Kernel::Fft).with_ops(300);
//!
//! // The slow, accurate reference…
//! let reference = exp.execute(&RunSpec::exec_driven()).unwrap().report;
//! // …and the paper's fast self-correcting trace model.
//! let estimate = exp.execute(&RunSpec::self_correction(5)).unwrap().report;
//!
//! let acc = sctm_core::accuracy(&estimate, &reference);
//! assert!(acc.exec_time_err_pct < 15.0);
//! ```
//!
//! Everything underneath is public too, re-exported from the component
//! crates: the event kernel (`sctm_engine`), the electrical baseline
//! (`sctm_enoc`), the photonic device layer (`sctm_photonic`), both
//! optical architectures (`sctm_onoc`), the full-system CMP model
//! (`sctm_cmp`), the workload skeletons (`sctm_workloads`) and the
//! trace engines (`sctm_trace`).

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod metrics;
pub mod modes;
pub mod spec;

pub use config::{NetworkKind, SystemConfig};
pub use error::SctmError;
pub use metrics::{accuracy, Accuracy, RunReport};
pub use modes::{Experiment, Mode};
pub use spec::{RunOutcome, RunSpec};

/// Look a workload kernel up by its [`sctm_workloads::Kernel::label`]
/// (`"fft"`, `"lu"`, ...). The typed front door for services and CLIs
/// that receive kernel names as strings.
pub fn kernel_from_label(label: &str) -> Result<sctm_workloads::Kernel, SctmError> {
    sctm_workloads::Kernel::ALL
        .iter()
        .copied()
        .find(|k| k.label() == label)
        .ok_or_else(|| SctmError::UnknownKernel(label.to_string()))
}

// Component-crate re-exports for downstream users.
pub use sctm_cmp as cmp;
pub use sctm_engine as engine;
pub use sctm_enoc as enoc;
pub use sctm_obs as obs;
pub use sctm_onoc as onoc;
pub use sctm_photonic as photonic;
pub use sctm_trace as trace;
pub use sctm_workloads as workloads;
