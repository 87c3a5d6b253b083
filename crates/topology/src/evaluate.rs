//! The leaf-evaluation seam: how the resolver turns a planned leaf into
//! a [`SimOutcome`].
//!
//! Resolution's plan and stitch passes are pure graph arithmetic; only
//! the middle pass touches a simulator. This module makes that boundary
//! explicit: the planner emits [`LeafRun`] descriptions (data, not
//! calls), and a [`LeafEvaluator`] turns each description into an
//! outcome. The default [`KernelEvaluator`] hosts the engine-backed
//! `dcb-sim` kernel — the same [`OutageSim::run`] every production path
//! uses — but tests and future scenario layers can inject their own
//! evaluator (counting stubs, cached sweeps, alternative solvers)
//! without re-plumbing the resolver.

use dcb_power::BackupConfig;
use dcb_sim::{Cluster, OutageSim, SimOutcome, Technique};
use dcb_units::{Seconds, StableHash, StableHasher};

/// How a served leaf's backup slice is sized.
#[derive(Debug, Clone, PartialEq)]
pub enum BackupShare {
    /// The nameplate-proportional slice (no shedding in the domain).
    Proportional,
    /// Survivors split the whole installed base: slice scaled by
    /// `nameplate / (nameplate - shed)` ≥ 1.
    Boosted(f64),
}

/// One scheduled leaf evaluation: a distinct (leaf class, supply share)
/// pair the planner wants simulated.
#[derive(Debug, Clone)]
pub enum LeafRun {
    /// Run the consumer's technique against its slice of the domain backup.
    Serve {
        /// The homogeneous server group behind this leaf.
        cluster: Cluster,
        /// The supply domain's backup provisioning.
        config: BackupConfig,
        /// The technique the allocation lets this leaf hold (its own, or
        /// its brownout fallback).
        technique: Technique,
        /// How the leaf's backup slice is sized.
        share: BackupShare,
    },
    /// The deficit policy cut this group's power: crash with no backup.
    Shed {
        /// The homogeneous server group behind this leaf.
        cluster: Cluster,
    },
}

impl StableHash for BackupShare {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            Self::Proportional => 0u8.stable_hash(hasher),
            Self::Boosted(boost) => {
                1u8.stable_hash(hasher);
                boost.stable_hash(hasher);
            }
        }
    }
}

impl StableHash for LeafRun {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            Self::Serve {
                cluster,
                config,
                technique,
                share,
            } => {
                0u8.stable_hash(hasher);
                cluster.stable_hash(hasher);
                config.stable_hash(hasher);
                technique.stable_hash(hasher);
                share.stable_hash(hasher);
            }
            Self::Shed { cluster } => {
                1u8.stable_hash(hasher);
                cluster.stable_hash(hasher);
            }
        }
    }
}

/// Turns planned [`LeafRun`]s into outcomes.
///
/// Evaluators fan out over a [`dcb_fleet::FleetPool`], so they must be
/// `Sync`; determinism across `DCB_THREADS` requires `evaluate` be a
/// pure function of `(run, outage)` plus whatever owned state the
/// evaluator treats as immutable during one resolve.
pub trait LeafEvaluator: Sync {
    /// Evaluates one leaf run through `outage`.
    fn evaluate(&self, run: &LeafRun, outage: Seconds) -> SimOutcome;
}

/// The default evaluator: one outage-kernel run per leaf.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelEvaluator;

impl LeafEvaluator for KernelEvaluator {
    fn evaluate(&self, run: &LeafRun, outage: Seconds) -> SimOutcome {
        match run {
            LeafRun::Shed { cluster } => {
                OutageSim::new(*cluster, BackupConfig::min_cost(), Technique::crash()).run(outage)
            }
            LeafRun::Serve {
                cluster,
                config,
                technique,
                share,
            } => {
                let sim = OutageSim::new(*cluster, config.clone(), technique.clone());
                match share {
                    BackupShare::Proportional => sim.run(outage),
                    BackupShare::Boosted(boost) => {
                        let mut backup = config.instantiate(cluster.peak_power() * *boost);
                        sim.run_with_backup(outage, &mut backup)
                    }
                }
            }
        }
    }
}
