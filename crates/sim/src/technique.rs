//! The outage-handling techniques of the paper's Tables 4 and 6.

use core::fmt;
use dcb_server::{PState, TState, ThrottleLevel};
use dcb_units::{StableHash, StableHasher};

/// What the cluster does at the instant the outage begins (Table 4, "Start
/// of utility outage" column).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum InitialAction {
    /// Keep serving at the given throttle (unthrottled = today's MaxPerf
    /// behaviour; throttled = the *Throttling* technique).
    Continue(ThrottleLevel),
    /// Let the servers crash (the MinCost baseline — also what physically
    /// happens when there is no UPS).
    Crash,
    /// Suspend to RAM immediately, entering at the given throttle
    /// (*Sleep* / *Sleep-L*).
    StartSleep(ThrottleLevel),
    /// Persist to local disk immediately at the given throttle
    /// (*Hibernate* / *Hibernate-L*; `proactive` = only the residual dirty
    /// state needs writing).
    StartHibernate {
        /// Throttle during the save.
        level: ThrottleLevel,
        /// Whether periodic flushing already persisted most state.
        proactive: bool,
    },
    /// Persist all volatile state into supercapacitor-backed NVDIMMs and
    /// power off — needs *no* backup energy at all (§7's NVDIMM
    /// enhancement).
    PersistNvdimm,
    /// Suspend to RAM but keep the NIC and memory controller alive so
    /// peers can serve reads from this server's memory over RDMA (§7's
    /// "RDMA over Sleep" / barely-alive enhancement).
    StartRemoteSleep(ThrottleLevel),
    /// Live-migrate to half the servers and shut the rest down
    /// (*Migration* / *Proactive Migration*).
    StartMigration {
        /// Whether a Remus-style remote copy reduces the state to move.
        proactive: bool,
        /// Throttle applied while migrating (suppresses the power spike).
        during: ThrottleLevel,
        /// Throttle on the consolidated survivors afterwards.
        after: ThrottleLevel,
    },
}

/// The save-state action a hybrid technique falls back to when the battery
/// nears exhaustion (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Fallback {
    /// Suspend to RAM, entering at the given throttle.
    Sleep(ThrottleLevel),
    /// Persist to local disk at the given throttle.
    Hibernate {
        /// Throttle during the save.
        level: ThrottleLevel,
        /// Whether periodic flushing already persisted most state.
        proactive: bool,
    },
    /// Persist into NVDIMMs instantly and at zero backup energy — lets a
    /// hybrid serve until the battery's very last drop.
    Nvdimm,
}

/// A complete outage-handling policy: an initial action plus an optional
/// low-battery fallback.
///
/// ```
/// use dcb_sim::Technique;
///
/// let catalog = Technique::catalog();
/// assert!(catalog.iter().any(|t| t.name() == "Throttle+Sleep-L"));
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Technique {
    name: String,
    initial: InitialAction,
    fallback: Option<Fallback>,
}

/// The deepest pure-DVFS throttle: ~0.4 speed at roughly half peak power —
/// what the paper's "-L" (low-power) annotations mean (Table 8 shows the
/// `-L` variants saving at 0.5 normalized peak power).
#[must_use]
pub fn low_power_level() -> ThrottleLevel {
    ThrottleLevel {
        p: PState::slowest(),
        t: TState::full(),
    }
}

impl Technique {
    /// Builds a technique with an explicit name.
    #[must_use]
    pub fn named(
        name: impl Into<String>,
        initial: InitialAction,
        fallback: Option<Fallback>,
    ) -> Self {
        Self {
            name: name.into(),
            initial,
            fallback,
        }
    }

    /// Today's behaviour: keep running at full speed on backup power.
    #[must_use]
    pub fn ride_through() -> Self {
        Self::named(
            "RideThrough",
            InitialAction::Continue(ThrottleLevel::NONE),
            None,
        )
    }

    /// The MinCost baseline: no action, servers crash.
    #[must_use]
    pub fn crash() -> Self {
        Self::named("Crash", InitialAction::Crash, None)
    }

    /// *Throttling*: run in a lower-power active state for the whole outage.
    #[must_use]
    pub fn throttle(level: ThrottleLevel) -> Self {
        Self::named(
            format!("Throttle({level})"),
            InitialAction::Continue(level),
            None,
        )
    }

    /// *Throttling* at the deepest DVFS point (the "Min" end of the paper's
    /// Min/Max throttling bars).
    #[must_use]
    pub fn throttle_deepest() -> Self {
        Self::named(
            "Throttle(min)",
            InitialAction::Continue(low_power_level()),
            None,
        )
    }

    /// *Migration (Consolidation and Shutdown)*.
    #[must_use]
    pub fn migration() -> Self {
        Self::named(
            "Migration",
            InitialAction::StartMigration {
                proactive: false,
                during: ThrottleLevel::NONE,
                after: ThrottleLevel::NONE,
            },
            None,
        )
    }

    /// *Proactive Migration*: only the residual dirty state moves after the
    /// failure.
    #[must_use]
    pub fn proactive_migration() -> Self {
        Self::named(
            "ProactiveMigration",
            InitialAction::StartMigration {
                proactive: true,
                during: ThrottleLevel::NONE,
                after: ThrottleLevel::NONE,
            },
            None,
        )
    }

    /// *Sleep*: suspend to RAM at once.
    #[must_use]
    pub fn sleep() -> Self {
        Self::named(
            "Sleep",
            InitialAction::StartSleep(ThrottleLevel::NONE),
            None,
        )
    }

    /// *Sleep-L*: throttle while going to sleep (halves the peak power the
    /// backup must support).
    #[must_use]
    pub fn sleep_l() -> Self {
        Self::named(
            "Sleep-L",
            InitialAction::StartSleep(low_power_level()),
            None,
        )
    }

    /// *Hibernation*: persist to local disk at once.
    #[must_use]
    pub fn hibernate() -> Self {
        Self::named(
            "Hibernate",
            InitialAction::StartHibernate {
                level: ThrottleLevel::NONE,
                proactive: false,
            },
            None,
        )
    }

    /// *Hibernate-L*: throttle while persisting.
    #[must_use]
    pub fn hibernate_l() -> Self {
        Self::named(
            "Hibernate-L",
            InitialAction::StartHibernate {
                level: low_power_level(),
                proactive: false,
            },
            None,
        )
    }

    /// *Proactive Hibernation*: periodic flushing during normal operation
    /// leaves only a residual to persist.
    #[must_use]
    pub fn proactive_hibernate() -> Self {
        Self::named(
            "ProactiveHibernate",
            InitialAction::StartHibernate {
                level: ThrottleLevel::NONE,
                proactive: true,
            },
            None,
        )
    }

    /// *Throttle+Sleep-L* (Table 6): serve throttled, then throttle into
    /// sleep when the battery nears exhaustion.
    #[must_use]
    pub fn throttle_sleep_l(serve: ThrottleLevel) -> Self {
        Self::named(
            "Throttle+Sleep-L",
            InitialAction::Continue(serve),
            Some(Fallback::Sleep(low_power_level())),
        )
    }

    /// *Throttle+Hibernate* (Table 6): serve throttled, then throttle into
    /// hibernation when the battery nears exhaustion.
    #[must_use]
    pub fn throttle_hibernate(serve: ThrottleLevel) -> Self {
        Self::named(
            "Throttle+Hibernate",
            InitialAction::Continue(serve),
            Some(Fallback::Hibernate {
                level: low_power_level(),
                proactive: false,
            }),
        )
    }

    /// *Migration+Sleep-L* (Table 6): consolidate, then sleep the survivors
    /// when energy runs low.
    #[must_use]
    pub fn migration_sleep_l() -> Self {
        Self::named(
            "Migration+Sleep-L",
            InitialAction::StartMigration {
                proactive: false,
                during: ThrottleLevel::NONE,
                after: ThrottleLevel::NONE,
            },
            Some(Fallback::Sleep(low_power_level())),
        )
    }

    /// NVDIMM persistence (§7): flush to in-DIMM flash on failure, zero
    /// backup power required; resume restores DRAM from flash.
    #[must_use]
    pub fn nvdimm() -> Self {
        Self::named("NVDIMM", InitialAction::PersistNvdimm, None)
    }

    /// *Throttle+NVDIMM* (§7): serve throttled until the battery's last
    /// drop, then persist instantly into NVDIMMs.
    #[must_use]
    pub fn throttle_nvdimm(serve: ThrottleLevel) -> Self {
        Self::named(
            "Throttle+NVDIMM",
            InitialAction::Continue(serve),
            Some(Fallback::Nvdimm),
        )
    }

    /// *RDMA-Sleep* (§7): sleep with the NIC and memory controller alive so
    /// remote peers keep serving reads from this memory.
    #[must_use]
    pub fn rdma_sleep() -> Self {
        Self::named(
            "RDMA-Sleep",
            InitialAction::StartRemoteSleep(low_power_level()),
            None,
        )
    }

    /// The full technique catalog the evaluation sweeps (Figures 6–9): the
    /// two baselines, both pure categories, and the Table 6 hybrids.
    #[must_use]
    pub fn catalog() -> Vec<Technique> {
        vec![
            Self::crash(),
            Self::ride_through(),
            Self::throttle_deepest(),
            Self::migration(),
            Self::proactive_migration(),
            Self::sleep(),
            Self::sleep_l(),
            Self::hibernate(),
            Self::hibernate_l(),
            Self::proactive_hibernate(),
            Self::throttle_sleep_l(low_power_level()),
            Self::throttle_hibernate(low_power_level()),
            Self::migration_sleep_l(),
        ]
    }

    /// The catalog extended with the §7 enhancements (NVDIMM, RDMA-Sleep,
    /// and their hybrids) — used by the ablation exhibits.
    #[must_use]
    pub fn extended_catalog() -> Vec<Technique> {
        let mut catalog = Self::catalog();
        catalog.push(Self::nvdimm());
        catalog.push(Self::throttle_nvdimm(low_power_level()));
        catalog.push(Self::rdma_sleep());
        catalog
    }

    /// The technique's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The action taken at outage start.
    #[must_use]
    pub fn initial(&self) -> InitialAction {
        self.initial
    }

    /// The low-battery fallback, if any.
    #[must_use]
    pub fn fallback(&self) -> Option<Fallback> {
        self.fallback
    }

    /// Whether the technique keeps serving requests during (some of) the
    /// outage — the paper's *sustain-execution* category.
    #[must_use]
    pub fn sustains_execution(&self) -> bool {
        matches!(
            self.initial,
            InitialAction::Continue(_)
                | InitialAction::StartMigration { .. }
                | InitialAction::StartRemoteSleep(_)
        )
    }

    /// Whether the technique deliberately preserves volatile state — the
    /// paper's *save-state* category (directly or via fallback).
    #[must_use]
    pub fn saves_state(&self) -> bool {
        matches!(
            self.initial,
            InitialAction::StartSleep(_)
                | InitialAction::StartHibernate { .. }
                | InitialAction::PersistNvdimm
                | InitialAction::StartRemoteSleep(_)
        ) || self.fallback.is_some()
    }
}

impl StableHash for InitialAction {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            Self::Continue(level) => {
                0u8.stable_hash(hasher);
                level.stable_hash(hasher);
            }
            Self::Crash => 1u8.stable_hash(hasher),
            Self::StartSleep(level) => {
                2u8.stable_hash(hasher);
                level.stable_hash(hasher);
            }
            Self::StartHibernate { level, proactive } => {
                3u8.stable_hash(hasher);
                level.stable_hash(hasher);
                proactive.stable_hash(hasher);
            }
            Self::PersistNvdimm => 4u8.stable_hash(hasher),
            Self::StartRemoteSleep(level) => {
                5u8.stable_hash(hasher);
                level.stable_hash(hasher);
            }
            Self::StartMigration {
                proactive,
                during,
                after,
            } => {
                6u8.stable_hash(hasher);
                proactive.stable_hash(hasher);
                during.stable_hash(hasher);
                after.stable_hash(hasher);
            }
        }
    }
}

impl StableHash for Fallback {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            Self::Sleep(level) => {
                0u8.stable_hash(hasher);
                level.stable_hash(hasher);
            }
            Self::Hibernate { level, proactive } => {
                1u8.stable_hash(hasher);
                level.stable_hash(hasher);
                proactive.stable_hash(hasher);
            }
            Self::Nvdimm => 2u8.stable_hash(hasher),
        }
    }
}

impl StableHash for Technique {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            name,
            initial,
            fallback,
        } = self;
        name.stable_hash(hasher);
        initial.stable_hash(hasher);
        fallback.stable_hash(hasher);
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_power_level_is_about_half_peak() {
        let spec = dcb_server::ServerSpec::paper_testbed();
        let p = spec.active_power(low_power_level(), dcb_units::Fraction::ONE);
        let frac = p / spec.peak_power();
        assert!(frac < 0.55 && frac > 0.3, "got {frac}");
    }

    #[test]
    fn catalog_covers_both_categories() {
        let catalog = Technique::catalog();
        assert!(catalog
            .iter()
            .any(|t| t.sustains_execution() && !t.saves_state()));
        assert!(catalog
            .iter()
            .any(|t| !t.sustains_execution() && t.saves_state()));
        assert!(catalog
            .iter()
            .any(|t| t.sustains_execution() && t.saves_state()));
    }

    #[test]
    fn extended_catalog_adds_enhancements() {
        let extended = Technique::extended_catalog();
        assert_eq!(extended.len(), Technique::catalog().len() + 3);
        assert!(extended.iter().any(|t| t.name() == "NVDIMM"));
        assert!(Technique::nvdimm().saves_state());
        assert!(Technique::rdma_sleep().sustains_execution());
        assert!(Technique::rdma_sleep().saves_state());
    }

    #[test]
    fn names_are_unique() {
        let catalog = Technique::extended_catalog();
        let mut names: Vec<&str> = catalog.iter().map(Technique::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len());
    }

    #[test]
    fn classification_matches_figure4() {
        assert!(Technique::throttle_deepest().sustains_execution());
        assert!(!Technique::throttle_deepest().saves_state());
        assert!(Technique::sleep().saves_state());
        assert!(!Technique::sleep().sustains_execution());
        assert!(Technique::migration().sustains_execution());
        assert!(Technique::throttle_sleep_l(low_power_level()).saves_state());
    }
}
