//! Nonlinear battery runtime models for UPS provisioning.
//!
//! The paper's central battery observation (§3, Figure 3) is that **runtime
//! is disproportionately higher at lower load levels**: the APC 4 kW pack it
//! charts lasts 10 minutes at 100 % load (delivering 0.66 kWh) but 60 minutes
//! at 25 % load (delivering 1 kWh). The underprovisioning study exploits this
//! to stretch limited UPS capacity through power outages.
//!
//! This crate models that behaviour with the classical **Peukert law**,
//! calibrated so the paper's two anchor points are reproduced exactly, and
//! layers a stateful [`Battery`] on top whose discharge under a time-varying
//! load integrates the rate-dependent depletion.
//!
//! # Examples
//!
//! ```
//! use dcb_battery::{Chemistry, PackSpec};
//! use dcb_units::{Watts, Seconds};
//!
//! // The APC pack from Figure 3: 4 kW rated, 10 minutes at rated load.
//! let pack = PackSpec::new(Watts::new(4000.0), Seconds::from_minutes(10.0), Chemistry::LeadAcid);
//! let quarter_load = pack.runtime_at(Watts::new(1000.0));
//! assert!((quarter_load.to_minutes() - 60.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chart;
mod chemistry;
mod pack;
mod state;

pub use chart::{runtime_chart, ChartPoint};
pub use chemistry::Chemistry;
pub use pack::{PackSpec, RampDrain, RampFrom};
pub use state::{Battery, DrawOutcome};
