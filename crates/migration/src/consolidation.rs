//! Consolidation plans: pack VMs on fewer servers, shut the rest down.

use dcb_units::Fraction;

/// A consolidation plan: how many servers absorb the cluster's VMs so the
/// rest can power off.
///
/// The paper uses "a relatively aggressive consolidation by powering down
/// every alternative server, reducing the number of servers to half the
/// original size" (§6) — [`ConsolidationPlan::halve`]. Each surviving
/// server hosts `ratio` VMs, so every application keeps a `1/ratio`
/// resource share.
///
/// ```
/// use dcb_migration::ConsolidationPlan;
///
/// let plan = ConsolidationPlan::halve();
/// assert_eq!(plan.share().value(), 0.5);
/// assert_eq!(plan.survivors(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ConsolidationPlan {
    /// VMs per surviving server.
    ratio: u32,
}

impl ConsolidationPlan {
    /// No consolidation (identity plan).
    #[must_use]
    pub fn none() -> Self {
        Self { ratio: 1 }
    }

    /// The paper's 2-to-1 plan: power down every alternate server.
    #[must_use]
    pub fn halve() -> Self {
        Self { ratio: 2 }
    }

    /// A custom `ratio`-to-1 plan.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is zero.
    #[must_use]
    pub fn pack(ratio: u32) -> Self {
        assert!(ratio > 0, "consolidation ratio must be at least 1");
        Self { ratio }
    }

    /// VMs per surviving server.
    #[must_use]
    pub fn ratio(&self) -> u32 {
        self.ratio
    }

    /// Resource share each VM keeps after consolidation.
    #[must_use]
    pub fn share(&self) -> Fraction {
        Fraction::new(1.0 / f64::from(self.ratio))
    }

    /// How many of `servers` keep running (ceiling division — every VM needs
    /// a host).
    #[must_use]
    pub fn survivors(&self, servers: u32) -> u32 {
        servers.div_ceil(self.ratio)
    }
}

impl Default for ConsolidationPlan {
    fn default() -> Self {
        Self::halve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn halve_survivors() {
        let plan = ConsolidationPlan::halve();
        assert_eq!(plan.survivors(10), 5);
        assert_eq!(plan.survivors(11), 6); // odd cluster rounds up
        assert_eq!(plan.share(), Fraction::HALF);
    }

    #[test]
    fn none_is_identity() {
        let plan = ConsolidationPlan::none();
        assert_eq!(plan.survivors(7), 7);
        assert_eq!(plan.share(), Fraction::ONE);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ratio_rejected() {
        let _ = ConsolidationPlan::pack(0);
    }

    proptest! {
        #[test]
        fn survivors_cover_all_vms(ratio in 1u32..16, servers in 0u32..10_000) {
            let plan = ConsolidationPlan::pack(ratio);
            // Surviving hosts times capacity covers every VM.
            prop_assert!(u64::from(plan.survivors(servers)) * u64::from(ratio) >= u64::from(servers));
        }

        #[test]
        fn deeper_packing_never_keeps_more(servers in 1u32..10_000, r in 1u32..15) {
            let shallow = ConsolidationPlan::pack(r);
            let deep = ConsolidationPlan::pack(r + 1);
            prop_assert!(deep.survivors(servers) <= shallow.survivors(servers));
        }
    }
}
