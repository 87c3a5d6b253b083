//! Power-state transition latencies, calibrated to the paper's Table 8.

use crate::ServerSpec;
use dcb_units::{Fraction, Gigabytes, Seconds};

/// Latency model for moving between the server's power states.
///
/// Calibration targets (Specjbb, 18 GB of state, Table 8):
///
/// | transition              | paper | model |
/// |-------------------------|-------|-------|
/// | sleep save              | 6 s   | 6 s   |
/// | sleep resume            | 8 s   | 8 s   |
/// | hibernate save          | 230 s | 230 s |
/// | hibernate resume        | 157 s | 157 s |
/// | sleep-L save (½ power)  | 8 s   | 8 s   |
/// | hibernate-L save        | 385 s | ~385 s|
/// | hibernate-L resume      | 175 s | ~174 s|
///
/// ```
/// use dcb_server::{ServerSpec, TransitionTimes};
/// use dcb_units::{Fraction, Gigabytes};
///
/// let t = TransitionTimes::new(ServerSpec::paper_testbed());
/// let save = t.hibernate_save(Gigabytes::new(18.0), Fraction::ONE);
/// assert!((save.value() - 230.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TransitionTimes {
    spec: ServerSpec,
}

impl TransitionTimes {
    /// Fixed overhead of entering S3 at full speed (context flush, device
    /// quiesce). Independent of application state size — "Sleep based
    /// techniques remain unaffected with application state size" (§6.2).
    pub const SLEEP_ENTER_BASE: Seconds = Seconds::literal(6.0);
    /// Resume-from-S3 latency (caches reload).
    pub const SLEEP_RESUME: Seconds = Seconds::literal(8.0);
    /// Fixed overhead on top of the image write when hibernating.
    pub const HIBERNATE_OVERHEAD: Seconds = Seconds::literal(5.0);
    /// Fixed overhead on top of the image read when resuming.
    pub const RESUME_OVERHEAD: Seconds = Seconds::literal(7.0);
    /// DVFS/T-state switch latency: "within tens of µsecs" (§5).
    pub const THROTTLE_SWITCH: Seconds = Seconds::literal(50e-6);

    /// Creates the latency model for a server.
    #[must_use]
    pub fn new(spec: ServerSpec) -> Self {
        Self { spec }
    }

    /// The underlying server spec.
    #[must_use]
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Effective I/O bandwidth factor when the CPU runs at `speed`.
    ///
    /// Saving state is not purely disk-bound — page-table walks, compression
    /// and device management consume cycles — so deep throttling slows the
    /// save. Linear mix calibrated on Table 8's Hibernate-L row
    /// (full-speed 230 s → half-power 385 s).
    #[must_use]
    fn io_factor(speed: Fraction) -> f64 {
        0.32 + 0.68 * speed.value()
    }

    /// Time to enter S3 while running at `speed`.
    #[must_use]
    pub fn sleep_enter(&self, speed: Fraction) -> Seconds {
        Self::SLEEP_ENTER_BASE / (0.25 + 0.75 * speed.value())
    }

    /// Time to wake from S3.
    #[must_use]
    pub fn sleep_resume(&self) -> Seconds {
        Self::SLEEP_RESUME
    }

    /// Time to write `state` to the local disk at CPU `speed`.
    #[must_use]
    pub fn hibernate_save(&self, state: Gigabytes, speed: Fraction) -> Seconds {
        state.transfer_time(self.spec.disk_write() * Self::io_factor(speed))
            + Self::HIBERNATE_OVERHEAD
    }

    /// Time to read a hibernation image of `state` back from disk.
    /// `saved_throttled` images read back slightly slower (less sequential
    /// layout when written under throttling).
    #[must_use]
    pub fn hibernate_resume(&self, state: Gigabytes, saved_throttled: bool) -> Seconds {
        let factor = if saved_throttled { 0.9 } else { 1.0 };
        state.transfer_time(self.spec.disk_read() * factor) + Self::RESUME_OVERHEAD
    }

    /// Full platform boot after power loss or shutdown.
    #[must_use]
    pub fn boot(&self) -> Seconds {
        self.spec.boot_time()
    }

    /// Aggregate DRAM-restore bandwidth of NVDIMMs (NAND flash → DRAM on
    /// power-up), across the server's DIMM channels.
    pub const NVDIMM_RESTORE_BANDWIDTH_MBPS: f64 = 1500.0;
    /// Fixed overhead of the NVDIMM whole-system resume (controller
    /// hand-off, device re-initialization).
    pub const NVDIMM_RESUME_OVERHEAD: Seconds = Seconds::literal(10.0);

    /// Time to restore `state` from NVDIMM flash and resume execution after
    /// power returns (§7's NVDIMM enhancement; the save direction is
    /// supercapacitor-powered inside the DIMM and needs no backup power at
    /// all).
    #[must_use]
    pub fn nvdimm_restore(&self, state: Gigabytes) -> Seconds {
        state.transfer_time(dcb_units::MegabytesPerSecond::new(
            Self::NVDIMM_RESTORE_BANDWIDTH_MBPS,
        )) + Self::NVDIMM_RESUME_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> TransitionTimes {
        TransitionTimes::new(ServerSpec::paper_testbed())
    }

    const SPECJBB_STATE: f64 = 18.0;

    #[test]
    fn table8_sleep_row() {
        assert_eq!(model().sleep_enter(Fraction::ONE), Seconds::new(6.0));
        assert_eq!(model().sleep_resume(), Seconds::new(8.0));
    }

    #[test]
    fn table8_sleep_l_row() {
        // Sleep-L at half power: the deepest P-state runs at 0.4 speed.
        let t = model().sleep_enter(Fraction::new(0.4));
        assert!((t.value() - 8.0).abs() < 3.0, "sleep-L enter {t}");
    }

    #[test]
    fn table8_hibernate_row() {
        let save = model().hibernate_save(Gigabytes::new(SPECJBB_STATE), Fraction::ONE);
        assert!((save.value() - 230.0).abs() < 1.0, "save {save}");
        let resume = model().hibernate_resume(Gigabytes::new(SPECJBB_STATE), false);
        assert!((resume.value() - 157.0).abs() < 1.0, "resume {resume}");
    }

    #[test]
    fn table8_hibernate_l_row() {
        let save = model().hibernate_save(Gigabytes::new(SPECJBB_STATE), Fraction::new(0.4));
        assert!((save.value() - 385.0).abs() < 10.0, "save-L {save}");
        let resume = model().hibernate_resume(Gigabytes::new(SPECJBB_STATE), true);
        assert!((resume.value() - 175.0).abs() < 5.0, "resume-L {resume}");
    }

    #[test]
    fn boot_is_two_minutes() {
        assert_eq!(model().boot(), Seconds::new(120.0));
    }

    proptest! {
        #[test]
        fn save_monotone_in_state(gb in 0.0f64..128.0, extra in 0.0f64..64.0, s in 0.1f64..=1.0) {
            let m = model();
            let speed = Fraction::new(s);
            prop_assert!(
                m.hibernate_save(Gigabytes::new(gb + extra), speed)
                    >= m.hibernate_save(Gigabytes::new(gb), speed)
            );
        }

        #[test]
        fn deeper_throttle_never_saves_faster(gb in 0.0f64..128.0, s in 0.1f64..1.0) {
            let m = model();
            prop_assert!(
                m.hibernate_save(Gigabytes::new(gb), Fraction::new(s))
                    >= m.hibernate_save(Gigabytes::new(gb), Fraction::ONE)
            );
        }
    }
}
