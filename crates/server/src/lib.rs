//! Server power-draw and transition-latency models.
//!
//! Stands in for the paper's physical testbed (§6): identical dual-socket
//! servers with 12 cores at 3.4 GHz, 64 GB DRAM, 1 Gbps Ethernet, measured
//! at **80 W idle and 250 W peak** with an external Yokogawa power meter,
//! and modulated through **7 voltage/frequency P-states and 8 clock
//! throttling T-states**. Since no hardware power control is available in
//! this reproduction, the crate provides a calibrated analytical model of:
//!
//! * active power as a function of utilization and DVFS/duty throttling,
//! * the low-power states the outage-handling techniques use — S3 sleep
//!   (DRAM in self-refresh, ~5 W/server), suspend-to-disk hibernation, and
//!   full shutdown,
//! * the transition latencies between those states (sleep enter/resume,
//!   hibernate save/resume as a function of state size and disk bandwidth,
//!   reboot), calibrated against the paper's Table 8 measurements.
//!
//! # Examples
//!
//! ```
//! use dcb_server::{ServerSpec, ThrottleLevel};
//! use dcb_units::Fraction;
//!
//! let spec = ServerSpec::paper_testbed();
//! let full = spec.active_power(ThrottleLevel::NONE, Fraction::ONE);
//! assert_eq!(full.value(), 250.0);
//! assert!(spec.sleep_power().value() <= 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod spec;
mod states;
mod transitions;

pub use spec::ServerSpec;
pub use states::{PState, TState, ThrottleLevel};
pub use transitions::TransitionTimes;
