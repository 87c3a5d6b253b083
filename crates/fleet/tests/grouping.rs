//! Typed scenario fingerprints group scenarios exactly as their `Debug`
//! renderings do, and every field a public constructor or builder can set
//! moves the fingerprint.
//!
//! [`Scenario::digest`] hashes each field's typed encoding; the `Debug`
//! text stays here as an independent oracle. Equal digests must mean
//! equal renderings and unequal digests unequal ones, so the evaluation
//! cache hits and misses on exactly the same scenarios either way. A
//! [`ClusterKey`] reused across scenarios must digest each as one fresh
//! hasher over all four components does.

use dcb_battery::Chemistry;
use dcb_fleet::{ClusterKey, Scenario, StableHash, StableHasher};
use dcb_power::BackupConfig;
use dcb_server::{PState, ServerSpec, TState, ThrottleLevel};
use dcb_sim::{Cluster, Fallback, InitialAction, Technique};
use dcb_units::{Fraction, Gigabytes, MegabytesPerSecond, Seconds, Watts};
use dcb_workload::{DirtyProfile, DowntimeRange, LoadProfile, RecoveryModel, Workload};
use proptest::prelude::*;
use proptest::TestRng;

fn pick<T: Clone>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.index(options.len())].clone()
}

/// Fractions that include the near misses `Debug` tells apart.
fn fraction(rng: &mut TestRng) -> Fraction {
    Fraction::new(pick(rng, &[0.0, -0.0, 0.5, 0.9, 1.0]))
}

/// A paper workload, possibly varied through one or two `with_*`
/// builders with values from small pools (so equal draws are common).
fn workload(rng: &mut TestRng) -> Workload {
    let mut workload = pick(rng, &Workload::paper_suite());
    for _ in 0..rng.index(3) {
        workload = match rng.index(8) {
            0 => workload.with_memory_footprint(Gigabytes::new(pick(rng, &[6.0, 18.0]))),
            1 => workload.with_stall_fraction(fraction(rng)),
            2 => workload.with_utilization(fraction(rng)),
            3 => workload.with_remote_serve_fraction(fraction(rng)),
            4 => workload.with_constant_load(fraction(rng)),
            5 => workload.with_load_profile(LoadProfile::typical_diurnal(fraction(rng))),
            6 => workload.with_recovery(RecoveryModel::restart_only(Seconds::new(pick(
                rng,
                &[30.0, 60.0],
            )))),
            _ => Workload::custom_from(workload),
        };
    }
    workload
}

fn config(rng: &mut TestRng) -> BackupConfig {
    BackupConfig::custom(
        pick(rng, &["A", "B"]),
        fraction(rng),
        fraction(rng),
        Seconds::new(pick(rng, &[0.0, 120.0, 600.0])),
    )
    .with_chemistry(pick(rng, &Chemistry::ALL))
}

fn duration(rng: &mut TestRng) -> Seconds {
    Seconds::new(pick(rng, &[0.0, -0.0, 30.0, 30.000_000_001, 1_800.0]))
}

fn scenario(rng: &mut TestRng) -> Scenario {
    let spec = pick(
        rng,
        &[
            ServerSpec::paper_testbed(),
            ServerSpec::paper_testbed().with_memory(Gigabytes::new(32.0)),
        ],
    );
    let cluster = Cluster::new(pick(rng, &[8, 16]), spec, workload(rng));
    Scenario::new(
        &cluster,
        &config(rng),
        &pick(rng, &Technique::extended_catalog()),
        duration(rng),
    )
}

/// A copy of `base` with one component drawn afresh (often equal again).
fn neighbour(rng: &mut TestRng, base: &Scenario) -> Scenario {
    let mut other = base.clone();
    match rng.index(4) {
        0 => other.cluster = Cluster::new(base.cluster.size(), *base.cluster.spec(), workload(rng)),
        1 => other.config = config(rng),
        2 => other.technique = pick(rng, &Technique::extended_catalog()),
        _ => other.duration = duration(rng),
    }
    other
}

/// Where two `Debug` renderings first part, as the field name in front
/// of the difference.
fn first_difference(a: &str, b: &str) -> String {
    let Some(at) = a.bytes().zip(b.bytes()).position(|(x, y)| x != y) else {
        return String::new();
    };
    let head = &a[..at];
    let field = head
        .rfind(": ")
        .map(|colon| {
            let start = head[..colon]
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |i| i + 1);
            &head[start..colon]
        })
        .unwrap_or("");
    format!(
        "field `{field}` near `{}`",
        &head[head.len().saturating_sub(60)..]
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Two scenario digests are equal exactly when the scenarios' `Debug`
    /// renderings are.
    #[test]
    fn digests_group_as_debug_text_does(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let a = scenario(&mut rng);
        let b = if rng.index(2) == 0 { neighbour(&mut rng, &a) } else { scenario(&mut rng) };
        let (text_a, text_b) = (format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(
            a.digest() == b.digest(),
            text_a == text_b,
            "digest and Debug text disagree ({})",
            first_difference(&text_a, &text_b)
        );
    }
}

/// A scenario's digest from one fresh hasher over cluster, config,
/// technique and duration, in that order: what a [`ClusterKey`] must give
/// when it resumes its saved cluster prefix.
fn one_hasher_digest(s: &Scenario) -> u128 {
    let mut hasher = StableHasher::new();
    s.cluster.stable_hash(&mut hasher);
    s.config.stable_hash(&mut hasher);
    s.technique.stable_hash(&mut hasher);
    s.duration.stable_hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One cluster key, reused for many scenarios on its cluster, gives
    /// each the one-hasher digest.
    #[test]
    fn a_reused_cluster_key_digests_as_a_fresh_hasher(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let cluster = scenario(&mut rng).cluster;
        let key = ClusterKey::new(&cluster);
        prop_assert!(std::ptr::eq(key.cluster(), &cluster));
        for _ in 0..8 {
            let s = Scenario { cluster, ..scenario(&mut rng) };
            let expected = one_hasher_digest(&s);
            prop_assert_eq!(key.digest(&s.config, &s.technique, s.duration), expected);
            prop_assert_eq!(s.digest(), expected);
        }
    }
}

#[test]
fn generated_pairs_are_often_equal() {
    let mut equal = 0;
    for seed in 0..200 {
        let mut rng = TestRng::seeded(seed);
        let a = scenario(&mut rng);
        if neighbour(&mut rng, &a).digest() == a.digest() {
            equal += 1;
        }
    }
    assert!(
        equal >= 5,
        "only {equal} of 200 neighbours equal their base"
    );
}

fn level(p: u8, t: u8) -> ThrottleLevel {
    ThrottleLevel {
        p: PState::new(p),
        t: TState::new(t),
    }
}

/// One scenario per field a public constructor or builder sets, each
/// differing from the base in that field alone.
fn single_field_variants() -> Vec<(&'static str, Scenario)> {
    let workload = Workload::specjbb();
    let spec = *Cluster::rack(workload).spec();
    let cluster = Cluster::rack(workload);
    let config = BackupConfig::max_perf();
    let technique = Technique::ride_through();
    let at = Seconds::from_minutes(5.0);
    let base = || Scenario::new(&cluster, &config, &technique, at);
    let with_workload = |name, w: Workload| {
        let mut s = base();
        s.cluster = Cluster::new(cluster.size(), spec, w);
        (name, s)
    };
    let with_spec = |name, spec| {
        let mut s = base();
        s.cluster = Cluster::new(cluster.size(), spec, workload);
        (name, s)
    };
    let with_config = |name, c: BackupConfig| {
        let mut s = base();
        s.config = c;
        (name, s)
    };
    let with_technique = |name, initial, fallback| {
        let mut s = base();
        s.technique = Technique::named("RideThrough", initial, fallback);
        (name, s)
    };
    let dirty = workload.dirty_profile();
    let recovery = workload.recovery();
    let power = spec.peak_power();
    let none = ThrottleLevel::NONE;
    vec![
        ("base", base()),
        ("cluster.size", {
            let mut s = base();
            s.cluster = Cluster::new(cluster.size() + 1, spec, workload);
            s
        }),
        with_spec(
            "spec.idle_power",
            spec.with_power_envelope(Watts::new(81.0), power),
        ),
        with_spec(
            "spec.peak_power",
            spec.with_power_envelope(spec.idle_power(), Watts::new(251.0)),
        ),
        with_spec("spec.memory", spec.with_memory(Gigabytes::new(32.0))),
        with_spec(
            "spec.disk_write",
            spec.with_disk(MegabytesPerSecond::new(81.0), spec.disk_read()),
        ),
        with_spec(
            "spec.disk_read",
            spec.with_disk(spec.disk_write(), MegabytesPerSecond::new(121.0)),
        ),
        with_workload("workload.kind", Workload::custom_from(workload)),
        with_workload(
            "workload.memory_footprint",
            workload.with_memory_footprint(Gigabytes::new(12.0)),
        ),
        with_workload(
            "workload.stall_fraction",
            workload.with_stall_fraction(Fraction::new(0.2)),
        ),
        with_workload(
            "workload.utilization",
            workload.with_utilization(Fraction::new(0.8)),
        ),
        with_workload(
            "workload.remote_serve_fraction",
            workload.with_remote_serve_fraction(Fraction::new(0.3)),
        ),
        with_workload(
            "workload.dirty.dirty_rate",
            workload.with_dirty_profile(DirtyProfile::new(
                MegabytesPerSecond::new(71.0),
                dirty.proactive_migration_residual,
                dirty.proactive_hibernate_residual,
            )),
        ),
        with_workload(
            "workload.dirty.proactive_migration_residual",
            workload.with_dirty_profile(DirtyProfile::new(
                dirty.dirty_rate,
                Gigabytes::new(11.0),
                dirty.proactive_hibernate_residual,
            )),
        ),
        with_workload(
            "workload.dirty.proactive_hibernate_residual",
            workload.with_dirty_profile(DirtyProfile::new(
                dirty.dirty_rate,
                dirty.proactive_migration_residual,
                Gigabytes::new(12.0),
            )),
        ),
        with_workload(
            "workload.recovery.app_start",
            workload.with_recovery(RecoveryModel {
                app_start: Seconds::new(61.0),
                ..recovery
            }),
        ),
        with_workload(
            "workload.recovery.reload",
            workload.with_recovery(RecoveryModel {
                reload: Gigabytes::new(17.0),
                ..recovery
            }),
        ),
        with_workload(
            "workload.recovery.reload_bandwidth",
            workload.with_recovery(RecoveryModel {
                reload_bandwidth: MegabytesPerSecond::new(119.0),
                ..recovery
            }),
        ),
        with_workload(
            "workload.recovery.warmup",
            workload.with_recovery(RecoveryModel {
                warmup: Seconds::new(41.0),
                ..recovery
            }),
        ),
        with_workload(
            "workload.recovery.recompute.min",
            workload.with_recovery(RecoveryModel {
                recompute: DowntimeRange {
                    min: Seconds::new(-1.0),
                    ..recovery.recompute
                },
                ..recovery
            }),
        ),
        with_workload(
            "workload.recovery.recompute.expected",
            workload.with_recovery(RecoveryModel {
                recompute: DowntimeRange {
                    expected: Seconds::new(1.0),
                    ..recovery.recompute
                },
                ..recovery
            }),
        ),
        with_workload(
            "workload.recovery.recompute.max",
            workload.with_recovery(RecoveryModel {
                recompute: DowntimeRange {
                    max: Seconds::new(2.0),
                    ..recovery.recompute
                },
                ..recovery
            }),
        ),
        with_workload(
            "workload.load_profile.constant",
            workload.with_load_profile(LoadProfile::Constant(workload.utilization())),
        ),
        with_workload(
            "workload.load_profile.diurnal.trough",
            workload.with_load_profile(LoadProfile::Diurnal {
                trough: Fraction::new(0.4),
                peak: Fraction::new(0.9),
                peak_hour: 20.0,
            }),
        ),
        with_workload(
            "workload.load_profile.diurnal.peak",
            workload.with_load_profile(LoadProfile::Diurnal {
                trough: Fraction::new(0.405),
                peak: Fraction::new(0.8),
                peak_hour: 20.0,
            }),
        ),
        with_workload(
            "workload.load_profile.diurnal.peak_hour",
            workload.with_load_profile(LoadProfile::Diurnal {
                trough: Fraction::new(0.405),
                peak: Fraction::new(0.9),
                peak_hour: 19.0,
            }),
        ),
        with_config("config.label", config.clone().with_label("MaxPerf2")),
        with_config(
            "config.dg_power",
            BackupConfig::custom(
                "MaxPerf",
                Fraction::HALF,
                Fraction::ONE,
                Seconds::new(120.0),
            ),
        ),
        with_config(
            "config.ups_power",
            BackupConfig::custom(
                "MaxPerf",
                Fraction::ONE,
                Fraction::HALF,
                Seconds::new(120.0),
            ),
        ),
        with_config(
            "config.ups_runtime",
            BackupConfig::custom("MaxPerf", Fraction::ONE, Fraction::ONE, Seconds::new(121.0)),
        ),
        with_config(
            "config.chemistry",
            config.clone().with_chemistry(Chemistry::LithiumIon),
        ),
        ("technique.name", {
            let mut s = base();
            s.technique = Technique::named("Other", technique.initial(), technique.fallback());
            s
        }),
        with_technique(
            "initial.continue.p",
            InitialAction::Continue(level(1, 0)),
            None,
        ),
        with_technique(
            "initial.continue.t",
            InitialAction::Continue(level(0, 1)),
            None,
        ),
        with_technique("initial.crash", InitialAction::Crash, None),
        with_technique("initial.start_sleep", InitialAction::StartSleep(none), None),
        with_technique(
            "initial.start_hibernate",
            InitialAction::StartHibernate {
                level: none,
                proactive: false,
            },
            None,
        ),
        with_technique(
            "initial.start_hibernate.level",
            InitialAction::StartHibernate {
                level: level(6, 0),
                proactive: false,
            },
            None,
        ),
        with_technique(
            "initial.start_hibernate.proactive",
            InitialAction::StartHibernate {
                level: none,
                proactive: true,
            },
            None,
        ),
        with_technique("initial.persist_nvdimm", InitialAction::PersistNvdimm, None),
        with_technique(
            "initial.start_remote_sleep",
            InitialAction::StartRemoteSleep(none),
            None,
        ),
        with_technique(
            "initial.start_migration",
            InitialAction::StartMigration {
                proactive: false,
                during: none,
                after: none,
            },
            None,
        ),
        with_technique(
            "initial.start_migration.proactive",
            InitialAction::StartMigration {
                proactive: true,
                during: none,
                after: none,
            },
            None,
        ),
        with_technique(
            "initial.start_migration.during",
            InitialAction::StartMigration {
                proactive: false,
                during: level(6, 0),
                after: none,
            },
            None,
        ),
        with_technique(
            "initial.start_migration.after",
            InitialAction::StartMigration {
                proactive: false,
                during: none,
                after: level(6, 0),
            },
            None,
        ),
        with_technique(
            "fallback.sleep",
            InitialAction::Continue(none),
            Some(Fallback::Sleep(none)),
        ),
        with_technique(
            "fallback.sleep.level",
            InitialAction::Continue(none),
            Some(Fallback::Sleep(level(6, 0))),
        ),
        with_technique(
            "fallback.hibernate",
            InitialAction::Continue(none),
            Some(Fallback::Hibernate {
                level: none,
                proactive: false,
            }),
        ),
        with_technique(
            "fallback.hibernate.level",
            InitialAction::Continue(none),
            Some(Fallback::Hibernate {
                level: level(6, 0),
                proactive: false,
            }),
        ),
        with_technique(
            "fallback.hibernate.proactive",
            InitialAction::Continue(none),
            Some(Fallback::Hibernate {
                level: none,
                proactive: true,
            }),
        ),
        with_technique(
            "fallback.nvdimm",
            InitialAction::Continue(none),
            Some(Fallback::Nvdimm),
        ),
        ("duration", {
            let mut s = base();
            s.duration = Seconds::from_minutes(6.0);
            s
        }),
    ]
}

#[test]
fn every_settable_field_moves_the_digest() {
    let variants = single_field_variants();
    for (i, (name_a, a)) in variants.iter().enumerate() {
        for (name_b, b) in &variants[i + 1..] {
            assert_ne!(a, b, "`{name_a}` and `{name_b}` build the same scenario");
            assert_ne!(
                a.digest(),
                b.digest(),
                "`{name_a}` and `{name_b}` share a digest"
            );
        }
    }
}
