//! Seeded input generation. The seed drives the yearly trial seeds and the
//! facility generator; the program under test only ever sees the generated
//! inputs (spec text, candidate list, trial seeds).

use dcb_power::BackupConfig;
use dcb_server::ServerSpec;
use dcb_sim::{Cluster, Technique};
use dcb_workload::Workload;
use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed generator that is a pure function of its
/// seed, so one seed always yields byte-identical inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform fraction in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sampled years per candidate in the yearly workload.
pub const YEARS: usize = 100;

/// Clusters in the generated facility: sized so one parse plus five
/// resolves takes about 0.2 s on a 2-vCPU host.
pub const FACILITY_CLUSTERS: usize = 400;

/// The paper's four workloads, one 16-server rack each, in the order the
/// paper introduces them.
#[must_use]
pub fn paper_racks() -> Vec<Cluster> {
    Workload::paper_suite()
        .into_iter()
        .map(Cluster::rack)
        .collect()
}

/// Every Table-3 configuration paired with every catalog technique: 117
/// candidates, in table × catalog order.
#[must_use]
pub fn candidates() -> Vec<(BackupConfig, Technique)> {
    let catalog = Technique::catalog();
    BackupConfig::table3()
        .into_iter()
        .flat_map(|config| catalog.iter().map(move |t| (config.clone(), t.clone())))
        .collect()
}

/// The yearly workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct YearlyInputs {
    /// One rack per paper workload; each gets its own frontier.
    pub racks: Vec<Cluster>,
    /// The candidate (configuration, technique) choices.
    pub candidates: Vec<(BackupConfig, Technique)>,
    /// Sampled years per candidate.
    pub years: usize,
    /// Base seed of each rack's Monte-Carlo trials. Every candidate of a
    /// rack replays the same sampled years, so giving each rack its own
    /// years quadruples the distinct years a pass samples and steadies its
    /// outage count across seeds.
    pub trial_seeds: Vec<u64>,
}

/// Generates the yearly inputs for `seed`.
#[must_use]
pub fn yearly(seed: u64) -> YearlyInputs {
    let racks = paper_racks();
    let mut rng = SplitMix64::new(seed ^ 0x5945_4152_4C59);
    YearlyInputs {
        trial_seeds: racks.iter().map(|_| rng.next_u64()).collect(),
        racks,
        candidates: candidates(),
        years: YEARS,
    }
}

/// Lowercased alphanumerics only: the spec parser matches names this way,
/// and technique names such as `Throttle+Sleep-L` carry punctuation.
fn spec_name(raw: &str) -> String {
    raw.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Generates a heterogeneous facility spec for `seed`: one datacenter of
/// [`FACILITY_CLUSTERS`] clusters, each with its own Table-3 backup and 2–7
/// rack classes. Rack classes vary workload, technique, 8/16/32 servers,
/// priority, deficit policy and multiplicity; a third of them sit behind a
/// feed edge capped at 30–90 % of nameplate, so the resolver sheds, browns
/// out and boosts survivors' backup slices.
#[must_use]
pub fn facility_spec(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed ^ 0x4641_4349_4C49_5459);
    let configs = BackupConfig::table3();
    let techniques = Technique::catalog();
    let workloads = Workload::paper_suite();
    let mut spec = String::from("dc facility\n");
    for c in 0..FACILITY_CLUSTERS {
        let config = &configs[rng.below(configs.len())];
        let _ = writeln!(spec, "  cluster c{c} backup={}", config.label());
        for r in 0..2 + rng.below(6) {
            let workload = &workloads[rng.below(workloads.len())];
            let technique = &techniques[rng.below(techniques.len())];
            let servers = [8u32, 16, 32][rng.below(3)];
            let copies = 1 + rng.below(50);
            let priority = rng.below(4);
            let deficit = ["shed", "brownout"][rng.below(2)];
            let _ = write!(
                spec,
                "    rack r{r} x{copies} workload={} technique={} servers={servers} \
                 priority={priority} deficit={deficit}",
                spec_name(&format!("{:?}", workload.kind())),
                spec_name(technique.name()),
            );
            if rng.below(3) == 0 {
                let nameplate = Cluster::new(servers, ServerSpec::paper_testbed(), *workload)
                    .peak_power()
                    .value();
                let cap_kw = nameplate * (0.3 + 0.6 * rng.unit()) / 1e3;
                let _ = write!(spec, " feed_kw={cap_kw:.3}");
            }
            spec.push('\n');
        }
    }
    spec
}
