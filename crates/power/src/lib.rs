//! The datacenter backup power hierarchy (Figure 2 of the paper).
//!
//! Utility power enters from the substation; an Automatic Transfer Switch
//! (ATS) detects failures and cuts over to Diesel Generators (DGs), which
//! need 20–30 s to start and 2–3 min of gradual load-stepping before they
//! carry the full datacenter; rack-level offline UPS units bridge the gap
//! from battery (switching within ~10 ms, riding the ~30 ms of power-supply
//! capacitance). This crate models each component plus the
//! [`BackupConfig`] provisioning knob — the DG power, UPS power and UPS
//! energy capacities that the paper varies in Table 3 — and composes them
//! into a stateful [`BackupSystem`] that the outage simulator draws from.
//!
//! # Examples
//!
//! ```
//! use dcb_power::BackupConfig;
//! use dcb_units::{Kilowatts, Seconds, Watts};
//!
//! // Today's practice: full DG + full UPS with 2 min of battery.
//! let config = BackupConfig::max_perf();
//! let mut system = config.instantiate(Kilowatts::new(100.0).to_watts());
//! // Mid-outage at t=10s the DG hasn't started; the UPS carries the load.
//! let supply = system.supply(Kilowatts::new(90.0).to_watts(), Seconds::new(10.0), Seconds::new(1.0));
//! assert!(supply.fully_covered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod diesel;
mod hierarchy;
mod placement;
mod system;
mod ups;

pub use config::BackupConfig;
pub use diesel::{DgPhase, DieselGenerator};
pub use hierarchy::{ComponentKind, Overload, PowerNode, Redundancy};
pub use placement::UpsPlacement;
pub use system::{BackupSystem, ChargeProjection, EndurancePlan, ResidualPhase, Supply};
pub use ups::Ups;
