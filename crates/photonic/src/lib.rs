//! # sctm-photonic — photonic device substrate (DSENT-lite)
//!
//! Device-level models for the optical networks in `sctm-onoc`:
//! waveguides, microring resonators, photodetectors and lasers, composed
//! into per-path insertion-loss budgets, laser-power requirements and
//! energy-per-bit breakdowns. This is the stand-in for the DSENT-class
//! photonic power/timing tool the original evaluation flow would have
//! used (see DESIGN.md §5).
//!
//! * [`devices`] — component parameter sets and unit conversions.
//! * [`link`] — path inventories, insertion loss, laser solver, power
//!   breakdown (experiment E7).
//! * [`wdm`] — DWDM channel plans and burst serialisation timing used by
//!   the network simulators.

#![forbid(unsafe_code)]

pub mod devices;
pub mod link;
pub mod wdm;

pub use devices::{dbm_to_mw, mw_to_dbm, DeviceKit, Laser, Microring, Photodetector, Waveguide};
pub use link::{LinkBudget, OpticalPath, PowerBreakdown};
pub use wdm::ChannelPlan;
