//! A small plain-text topology spec, for `repro topo <file>` and quick
//! experiments.
//!
//! One node per line; nesting by two-space indentation; `#` starts a
//! comment. Each line is
//!
//! ```text
//! <level> [name] [xN] [key=value ...]
//! ```
//!
//! where `<level>` is `dc`/`datacenter`, `cluster`, `rack`, or `server`,
//! `xN` repeats the node N times (aggregated multiplicity, not N parsed
//! copies), and the keys are:
//!
//! | key         | meaning                                                |
//! |-------------|--------------------------------------------------------|
//! | `backup`    | Table-3 configuration label (e.g. `MaxPerf`, `No-UPS`) |
//! | `feed_kw`   | feed-edge capacity in kilowatts                        |
//! | `workload`  | `specjbb`, `websearch`, `memcached`, or `speccpu`      |
//! | `technique` | catalog technique name (e.g. `RideThrough`, `Sleep-L`) |
//! | `servers`   | servers in the leaf group (default 16, a paper rack)   |
//! | `priority`  | shedding priority, lower served first (default 0)      |
//! | `deficit`   | `shed` (default) or `brownout`                         |
//!
//! A line with a `workload` is a consumer leaf (its `technique` is then
//! required); any other line is a distribution group. Config, technique,
//! and workload names match case-insensitively with punctuation ignored,
//! so `backup=maxperf` and `technique=ride-through` both resolve.
//!
//! ```
//! let spec = "\
//! dc main backup=MaxPerf
//!   cluster web x4
//!     rack frontend x20 workload=websearch technique=ridethrough
//!   cluster batch
//!     rack workers x50 workload=speccpu technique=sleep priority=5 deficit=brownout
//! ";
//! let topology = dcb_topology::parse_spec(spec).expect("parses");
//! assert_eq!(topology.root.servers(), 4 * 20 * 16 + 50 * 16);
//! ```

use crate::node::{Body, Consumer, DeficitPolicy, Level, Node, Topology};
use core::fmt;
use dcb_power::BackupConfig;
use dcb_server::ServerSpec;
use dcb_sim::{Cluster, Technique};
use dcb_units::Watts;
use dcb_workload::Workload;

/// A parse failure, pointing at the 1-based offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Parses the text spec format into a topology (structurally validated).
///
/// # Errors
///
/// Returns a [`SpecError`] for the first malformed line, unknown name, or
/// structural problem ([`crate::TopologyError`] rendered with the root
/// line number).
pub fn parse_spec(text: &str) -> Result<Topology, SpecError> {
    let names = NameTables::new();
    let mut drafts: Vec<(usize, usize, Node)> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let without_comment = raw.split('#').next().unwrap_or("");
        if without_comment.trim().is_empty() {
            continue;
        }
        let depth = indent_depth(without_comment, line_no)?;
        let node = parse_line(without_comment.trim(), line_no, &names)?;
        drafts.push((line_no, depth, node));
    }
    let Some(&(root_line, first_depth, _)) = drafts.first() else {
        return Err(SpecError {
            line: 1,
            message: "empty spec: expected at least a root node".to_owned(),
        });
    };
    if first_depth != 0 {
        return Err(SpecError {
            line: root_line,
            message: "the first node must not be indented".to_owned(),
        });
    }

    // Assemble by indentation: a line at depth d is a child of the nearest
    // earlier line at depth d-1.
    let mut stack: Vec<(usize, Node)> = Vec::new();
    let mut root: Option<Node> = None;
    for (line_no, depth, node) in drafts {
        while stack.len() > depth {
            pop_attach(&mut stack, &mut root);
        }
        if depth > stack.len() {
            return Err(SpecError {
                line: line_no,
                message: format!("indentation jumps from depth {} to {depth}", stack.len()),
            });
        }
        if depth == 0 && root.is_some() {
            return Err(SpecError {
                line: line_no,
                message: "a spec has exactly one root node".to_owned(),
            });
        }
        if let Some((_, parent)) = stack.last() {
            if matches!(parent.body, Body::Consumer(_)) {
                return Err(SpecError {
                    line: line_no,
                    message: format!(
                        "consumer `{}` cannot have children (drop its workload= or unindent)",
                        parent.name
                    ),
                });
            }
        }
        stack.push((depth, node));
    }
    while !stack.is_empty() {
        pop_attach(&mut stack, &mut root);
    }
    let Some(root) = root else {
        return Err(SpecError {
            line: root_line,
            message: "no root node assembled".to_owned(),
        });
    };
    let topology = Topology::new(root);
    topology.validate().map_err(|err| SpecError {
        line: root_line,
        message: err.to_string(),
    })?;
    Ok(topology)
}

/// Pops the deepest node and attaches it to its parent (or makes it root).
fn pop_attach(stack: &mut Vec<(usize, Node)>, root: &mut Option<Node>) {
    let Some((_, done)) = stack.pop() else { return };
    match stack.last_mut() {
        Some((_, parent)) => match &mut parent.body {
            Body::Group(children) => children.push(done),
            // Unreachable: the assembly loop rejects children under a
            // consumer line before it is pushed deeper.
            Body::Consumer(_) => {}
        },
        None => *root = Some(done),
    }
}

/// Leading-space depth: two spaces per level, tabs rejected.
fn indent_depth(line: &str, line_no: usize) -> Result<usize, SpecError> {
    if line.starts_with('\t') || line.trim_start_matches(' ').starts_with('\t') {
        return Err(SpecError {
            line: line_no,
            message: "indent with spaces, not tabs".to_owned(),
        });
    }
    let spaces = line.len() - line.trim_start_matches(' ').len();
    if !spaces.is_multiple_of(2) {
        return Err(SpecError {
            line: line_no,
            message: format!("odd indentation ({spaces} spaces); use two per level"),
        });
    }
    Ok(spaces / 2)
}

/// Parses one trimmed, non-empty line into a node.
fn parse_line(line: &str, line_no: usize, names: &NameTables) -> Result<Node, SpecError> {
    let err = |message: String| SpecError {
        line: line_no,
        message,
    };
    let mut tokens = line.split_whitespace();
    let level_token = tokens.next().unwrap_or("");
    let Some(level) = lookup(&LEVELS, level_token).copied() else {
        return Err(err(format!(
            "unknown level `{}` (expected dc, cluster, rack, or server)",
            normalize(level_token)
        )));
    };

    let mut name: Option<String> = None;
    let mut multiplicity: u32 = 1;
    let mut backup: Option<BackupConfig> = None;
    let mut feed_capacity: Option<Watts> = None;
    let mut workload: Option<Workload> = None;
    let mut technique: Option<Technique> = None;
    let mut servers: u32 = 16;
    let mut priority: u8 = 0;
    let mut brownout = false;

    for token in tokens {
        if let Some((key, value)) = token.split_once('=') {
            match key {
                "backup" => {
                    backup = Some(
                        lookup(&names.configs, value)
                            .ok_or_else(|| err(format!("unknown backup configuration `{value}`")))?
                            .clone(),
                    );
                }
                "feed_kw" => {
                    let magnitude: f64 = value
                        .parse()
                        .map_err(|_| err(format!("feed_kw: not a number: `{value}`")))?;
                    if !magnitude.is_finite() || magnitude <= 0.0 {
                        return Err(err(format!("feed_kw must be positive, got `{value}`")));
                    }
                    feed_capacity = Some(Watts::new(magnitude * 1e3));
                }
                "workload" => {
                    workload = Some(
                        find_workload(value)
                            .ok_or_else(|| err(format!("unknown workload `{value}`")))?,
                    );
                }
                "technique" => {
                    technique = Some(
                        lookup(&names.techniques, value)
                            .ok_or_else(|| err(format!("unknown technique `{value}`")))?
                            .clone(),
                    );
                }
                "servers" => {
                    servers = value
                        .parse()
                        .map_err(|_| err(format!("servers: not a count: `{value}`")))?;
                    if servers == 0 {
                        return Err(err("servers must be at least 1".to_owned()));
                    }
                }
                "priority" => {
                    priority = value
                        .parse()
                        .map_err(|_| err(format!("priority: not 0-255: `{value}`")))?;
                }
                "deficit" => match lookup(&DEFICITS, value) {
                    Some(&policy_is_brownout) => brownout = policy_is_brownout,
                    None => {
                        return Err(err(format!(
                            "deficit must be shed or brownout, got `{}`",
                            normalize(value)
                        )))
                    }
                },
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        } else if let Some(count) = token.strip_prefix('x').and_then(|n| n.parse::<u32>().ok()) {
            if count == 0 {
                return Err(err("multiplicity must be at least 1".to_owned()));
            }
            multiplicity = count;
        } else if name.is_none() {
            name = Some(token.to_owned());
        } else {
            return Err(err(format!("unexpected token `{token}`")));
        }
    }

    let name = name.unwrap_or_else(|| level.name().to_owned());
    let mut node = match workload {
        Some(workload) => {
            let Some(technique) = technique else {
                return Err(err("a consumer line needs technique=...".to_owned()));
            };
            let policy = if brownout {
                DeficitPolicy::Brownout(Technique::throttle_deepest())
            } else {
                DeficitPolicy::Shed
            };
            let cluster = Cluster::new(servers, ServerSpec::paper_testbed(), workload);
            Node::consumer(
                name,
                level,
                Consumer::new(cluster, technique)
                    .with_priority(priority)
                    .with_deficit_policy(policy),
            )
        }
        None => {
            if technique.is_some() {
                return Err(err(
                    "technique= without workload=: only consumer lines take a technique".to_owned(),
                ));
            }
            Node::group(name, level, Vec::new())
        }
    }
    .times(multiplicity);
    node.feed_capacity = feed_capacity;
    node.backup = backup;
    Ok(node)
}

/// The ASCII letters and digits of `s`, lowercased: what loose name
/// matching compares, so `Ride-Through`, `ridethrough`, and `RideThrough`
/// all compare equal.
fn normalized(s: &str) -> impl Iterator<Item = u8> + '_ {
    s.bytes()
        .filter(u8::is_ascii_alphanumeric)
        .map(|b| b.to_ascii_lowercase())
}

/// [`normalized`] as a string, for name tables and error messages.
fn normalize(s: &str) -> String {
    normalized(s).map(char::from).collect()
}

/// The level keywords under their normalized names.
const LEVELS: [(&str, Level); 5] = [
    ("dc", Level::Datacenter),
    ("datacenter", Level::Datacenter),
    ("cluster", Level::Cluster),
    ("rack", Level::Rack),
    ("server", Level::Server),
];

/// The `deficit=` values under their normalized names: whether each
/// browns out.
const DEFICITS: [(&str, bool); 2] = [("shed", false), ("brownout", true)];

/// A workload constructor.
type MakeWorkload = fn() -> Workload;

/// The paper's four workloads under their normalized names.
const WORKLOADS: [(&str, MakeWorkload); 5] = [
    ("specjbb", Workload::specjbb),
    ("websearch", Workload::web_search),
    ("memcached", Workload::memcached),
    ("speccpu", Workload::spec_cpu),
    ("mcf", Workload::spec_cpu),
];

/// The Table-3 configurations and catalog techniques under their
/// normalized names, in catalog order: built once per [`parse_spec`], so
/// each line only compares its own tokens.
struct NameTables {
    configs: Vec<(String, BackupConfig)>,
    techniques: Vec<(String, Technique)>,
}

impl NameTables {
    fn new() -> Self {
        Self {
            configs: config_table(),
            techniques: technique_table(),
        }
    }
}

fn config_table() -> Vec<(String, BackupConfig)> {
    BackupConfig::table3()
        .into_iter()
        .map(|config| (normalize(config.label()), config))
        .collect()
}

fn technique_table() -> Vec<(String, Technique)> {
    Technique::extended_catalog()
        .into_iter()
        .map(|technique| (normalize(technique.name()), technique))
        .collect()
}

/// The first entry filed under the normalized name of `raw`, compared
/// without allocating.
fn lookup<'a, N: AsRef<str>, T>(table: &'a [(N, T)], raw: &str) -> Option<&'a T> {
    table
        .iter()
        .find(|(name, _)| normalized(raw).eq(name.as_ref().bytes()))
        .map(|(_, value)| value)
}

/// Resolves a Table-3 configuration by normalized label.
#[must_use]
pub fn find_config(raw: &str) -> Option<BackupConfig> {
    lookup(&config_table(), raw).cloned()
}

/// Resolves a catalog technique by normalized name.
#[must_use]
pub fn find_technique(raw: &str) -> Option<Technique> {
    lookup(&technique_table(), raw).cloned()
}

/// Resolves one of the paper's four workloads by normalized name.
#[must_use]
pub fn find_workload(raw: &str) -> Option<Workload> {
    lookup(&WORKLOADS, raw).map(|make| make())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# A two-service DC with shared backup at the root.
dc main backup=MaxPerf
  cluster web x4
    rack frontend x20 workload=websearch technique=ridethrough
  cluster batch
    rack workers x50 workload=speccpu technique=sleep priority=5 deficit=brownout
";

    #[test]
    fn sample_spec_parses() {
        let topology = parse_spec(SAMPLE).expect("sample parses");
        assert_eq!(topology.root.servers(), 4 * 20 * 16 + 50 * 16);
        assert_eq!(topology.root.level, Level::Datacenter);
        assert!(topology.root.backup.is_some());
        assert!(topology.validate().is_ok());
    }

    #[test]
    fn names_match_loosely() {
        assert!(find_config("max-perf").is_some());
        assert!(find_config("MAXPERF").is_some());
        assert!(find_config("nope").is_none());
        assert!(find_technique("Ride-Through").is_some());
        assert!(find_technique("sleep-l").is_some());
        assert!(find_workload("web_search").is_some());
        assert!(find_workload("quake").is_none());
    }

    #[test]
    fn error_lines_are_reported() {
        let err = parse_spec("dc main\n  rack r workload=nope technique=sleep\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown workload"));

        let err = parse_spec("dc main backup=MaxPerf\n   cluster c\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("odd indentation"));

        let err = parse_spec(
            "dc a backup=MaxPerf\n  rack r workload=specjbb technique=sleep\ndc b backup=MaxPerf\n",
        )
        .unwrap_err();
        assert!(err.message.contains("one root"));
    }

    #[test]
    fn structural_errors_surface() {
        // No backup anywhere: validate() rejects via parse_spec.
        let err = parse_spec("dc main\n  rack r workload=specjbb technique=sleep\n").unwrap_err();
        assert!(err.message.contains("no backup supply"));
    }

    #[test]
    fn feed_capacity_and_multiplicity_apply() {
        let topology = parse_spec(
            "dc main backup=NoDG\n  cluster c x3 feed_kw=2.5\n    rack r workload=memcached technique=crash\n",
        )
        .expect("parses");
        let Body::Group(children) = &topology.root.body else {
            unreachable!("root is a group");
        };
        assert_eq!(children[0].multiplicity, 3);
        assert_eq!(children[0].feed_capacity, Some(Watts::new(2500.0)));
    }
}
