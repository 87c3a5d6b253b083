//! Analytic models of the paper's four datacenter workloads.
//!
//! The evaluation (§6) runs four applications with deliberately different
//! reliance on the backup infrastructure (Table 7):
//!
//! | workload   | memory | metric                      | character |
//! |------------|--------|-----------------------------|-----------|
//! | Web-search | 40 GB  | latency-constrained QPS     | read-only index cache; crash is very costly (reload + warm-up) |
//! | Specjbb    | 18 GB  | latency-constrained ops/s   | in-memory DB with modified data; recompute on loss |
//! | Memcached  | 20 GB  | queries/second              | read-only KV cache; crash-reload *cheaper* than hibernate |
//! | SpecCPU    | 16 GB  | completion time (mcf × 8)   | HPC; loses hours of computation on crash |
//!
//! The physical benchmarks are not rerun here; instead each workload is a
//! parameter set — memory footprint, hibernation image size and layout
//! efficiency, CPU-stall fraction (throttling sensitivity), page-dirtying
//! rate (migration convergence), and a crash-recovery timeline — calibrated
//! to every per-workload number the paper reports (§6.1–6.2, Table 8). The
//! simulator in `dcb-sim` composes these with the server and power models.
//!
//! # Examples
//!
//! ```
//! use dcb_workload::Workload;
//! use dcb_units::Fraction;
//!
//! let memcached = Workload::memcached();
//! let specjbb = Workload::specjbb();
//! // Memcached is memory-stall bound, so DVFS throttling costs it much
//! // less throughput than CPU-bound Specjbb (§6.2).
//! let speed = Fraction::new(0.4);
//! assert!(
//!     memcached.throughput_at(speed, Fraction::ONE)
//!         > specjbb.throughput_at(speed, Fraction::ONE)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dirty;
mod load;
mod recovery;
mod workload;

pub use dirty::DirtyProfile;
pub use load::LoadProfile;
pub use recovery::{DowntimeRange, RecoveryModel};
pub use workload::{Workload, WorkloadKind};
