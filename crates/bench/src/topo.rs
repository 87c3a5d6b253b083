//! The `repro topo` subcommand: resolve a whole facility, described by a
//! small text spec, through a set of outage durations.
//!
//! Reports the aggregation statistics (how few node-steps the collapsed
//! graph needed), per-duration availability, the per-level breakdown from
//! the worst outage, and — per backup-bearing level — the cheapest Table-3
//! configuration that keeps the facility feasible and shed-free at the
//! worst requested duration.

use crate::explain::parse_duration;
use dcb_core::cost::CostModel;
use dcb_core::evaluate::paper_durations;
use dcb_power::BackupConfig;
use dcb_topology::{parse_spec, resolve, Level, Node, Topology, TopologyOutcome};
use dcb_units::Seconds;

/// A sample spec, printed by `repro topo --sample` so users have a
/// starting point (also the README's worked example).
pub const SAMPLE_SPEC: &str = "\
# A two-cluster facility: latency-critical web racks and sheddable batch.
dc main backup=MaxPerf
  cluster web x4
    rack frontend x20 workload=websearch technique=ridethrough
  cluster batch
    rack workers x50 workload=speccpu technique=sleep priority=5 deficit=brownout
";

/// Replaces the backup configuration on every node at `level` (returns how
/// many nodes were rewritten).
fn swap_backup_at(node: &mut Node, level: Level, config: &BackupConfig) -> usize {
    let mut swapped = 0;
    if node.level == level && node.backup.is_some() {
        node.backup = Some(config.clone());
        swapped += 1;
    }
    if let dcb_topology::Body::Group(children) = &mut node.body {
        for child in children {
            swapped += swap_backup_at(child, level, config);
        }
    }
    swapped
}

/// The levels that carry a backup configuration somewhere in the tree.
fn backup_levels(node: &Node, out: &mut Vec<Level>) {
    if node.backup.is_some() && !out.contains(&node.level) {
        out.push(node.level);
    }
    if let dcb_topology::Body::Group(children) = &node.body {
        for child in children {
            backup_levels(child, out);
        }
    }
}

/// For one backup-bearing `level`: the cheapest Table-3 configuration
/// (by the paper cost model's normalized cost) that resolves feasible with
/// no shedding at `outage`, or `None` if no catalog entry does.
fn cheapest_feasible_at(
    topology: &Topology,
    level: Level,
    outage: Seconds,
) -> Option<(BackupConfig, f64)> {
    let model = CostModel::paper();
    let mut priced: Vec<(BackupConfig, f64)> = BackupConfig::table3()
        .into_iter()
        .map(|config| {
            let cost = model.normalized_cost(&config);
            (config, cost)
        })
        .collect();
    priced.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (config, cost) in priced {
        let mut candidate = topology.clone();
        swap_backup_at(&mut candidate.root, level, &config);
        let Ok(outcome) = resolve(&candidate, outage) else {
            continue;
        };
        if outcome.aggregate.feasible && outcome.stats.shed_servers == 0 {
            return Some((config, cost));
        }
    }
    None
}

fn render_duration_row(outage: Seconds, outcome: &TopologyOutcome) -> String {
    format!(
        "  {:>7.1} min   feasible={:<5}  final={:<12}  perf={:.4}  downtime={:.2} min  served/browned/shed = {}/{}/{}\n",
        outage.to_minutes(),
        outcome.aggregate.feasible,
        format!("{:?}", outcome.aggregate.final_state),
        outcome.aggregate.perf_during_outage.value(),
        outcome.aggregate.downtime_minutes(),
        outcome.stats.served_servers,
        outcome.stats.browned_out_servers,
        outcome.stats.shed_servers,
    )
}

/// Runs the full subcommand: `topo <spec-file> [durations...]` (durations
/// default to the paper's five outage lengths; `--sample` prints a
/// starter spec).
///
/// # Errors
///
/// Returns a usage message, an unreadable-file or spec-parse error, or a
/// topology validation error — all for exit code 2.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    if args.first().is_some_and(|a| a == "--sample") {
        return Ok(SAMPLE_SPEC.to_owned());
    }
    let Some((path, rest)) = args.split_first() else {
        return Err("usage: repro topo <spec-file> [durations...]\n\
             e.g.   repro topo dc.topo 30m 2h\n\
             (print a starter spec with `repro topo --sample`)"
            .to_owned());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("could not read spec `{path}`: {err}"))?;
    let topology = parse_spec(&text).map_err(|err| format!("{path}: {err}"))?;

    let durations: Vec<Seconds> = if rest.is_empty() {
        paper_durations()
    } else {
        rest.iter()
            .map(|raw| parse_duration(raw))
            .collect::<Result<_, _>>()?
    };

    let mut resolved: Vec<(Seconds, TopologyOutcome)> = Vec::new();
    for &outage in &durations {
        let outcome = resolve(&topology, outage).map_err(|err| format!("{path}: {err}"))?;
        resolved.push((outage, outcome));
    }
    // Worst case by expected downtime, ties to the longer outage.
    let (worst_outage, worst) = resolved
        .iter()
        .max_by(|a, b| {
            a.1.aggregate
                .downtime_minutes()
                .total_cmp(&b.1.aggregate.downtime_minutes())
                .then(a.0.value().total_cmp(&b.0.value()))
        })
        .map(|(outage, outcome)| (*outage, outcome))
        .ok_or_else(|| "no durations to resolve".to_owned())?;

    let stats = &worst.stats;
    let mut out = String::new();
    out.push_str(&format!("== topo: {path} ==\n\n"));
    out.push_str(&format!(
        "facility: {} servers, {:.1} kW demand\n",
        topology.root.servers(),
        topology.root.demand().value() / 1e3,
    ));
    out.push_str(&format!(
        "aggregation: {} explicit nodes resolved in {} node-steps ({:.0}x collapse), {} distinct kernel sims for {} leaves\n\n",
        stats.explicit_nodes,
        stats.resolved_nodes,
        stats.collapse_ratio(),
        stats.distinct_leaf_sims,
        stats.implied_leaf_sims,
    ));

    out.push_str("availability by outage duration:\n");
    for (outage, outcome) in &resolved {
        out.push_str(&render_duration_row(*outage, outcome));
    }

    out.push_str(&format!(
        "\nworst case ({:.1} min outage): expected downtime {:.2} min, by level:\n",
        worst_outage.to_minutes(),
        worst.aggregate.downtime_minutes(),
    ));
    for level in &worst.levels {
        out.push_str(&format!(
            "  {:<10}  {:>4} node-steps for {:>7} nodes, {:>8} servers, shed {:>7}, worst downtime {:.2} min, min perf {:.4}\n",
            level.level.name(),
            level.resolved_nodes,
            level.explicit_nodes,
            level.servers,
            level.shed_servers,
            level.worst_downtime.max.to_minutes(),
            level.min_perf.value(),
        ));
    }

    let mut levels = Vec::new();
    backup_levels(&topology.root, &mut levels);
    out.push_str(&format!(
        "\ncheapest shed-free Table-3 config per backup level (at {:.1} min):\n",
        worst_outage.to_minutes()
    ));
    for level in levels {
        match cheapest_feasible_at(&topology, level, worst_outage) {
            Some((config, cost)) => out.push_str(&format!(
                "  {:<10}  {}  ({:.0}% of MaxPerf cost)\n",
                level.name(),
                config.label(),
                cost * 100.0,
            )),
            None => out.push_str(&format!(
                "  {:<10}  none of Table 3 is feasible without shedding\n",
                level.name(),
            )),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sample spec in a temporary file of one test's own, removed on
    /// drop.
    struct SampleFile(std::path::PathBuf);

    impl SampleFile {
        fn new(test: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "dcb_topo_cli_sample_{}_{test}.topo",
                std::process::id()
            ));
            std::fs::write(&path, SAMPLE_SPEC).expect("temp spec written");
            Self(path)
        }

        fn arg(&self) -> String {
            self.0.display().to_string()
        }
    }

    impl Drop for SampleFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn sample_spec_parses_and_resolves() {
        let topology = parse_spec(SAMPLE_SPEC).expect("sample parses");
        assert!(resolve(&topology, Seconds::from_minutes(5.0)).is_ok());
    }

    #[test]
    fn cli_renders_a_report() {
        let sample = SampleFile::new("report");
        let report = run_cli(&[sample.arg(), "5m".to_owned()]).expect("report");
        assert!(report.contains("== topo:"), "{report}");
        assert!(report.contains("aggregation:"), "{report}");
        assert!(
            report.contains("availability by outage duration:"),
            "{report}"
        );
        assert!(
            report.contains("cheapest shed-free Table-3 config"),
            "{report}"
        );
    }

    #[test]
    fn cli_defaults_to_paper_durations() {
        let sample = SampleFile::new("defaults");
        let report = run_cli(&[sample.arg()]).expect("report");
        // Five paper durations → five availability rows.
        assert_eq!(report.matches("feasible=").count(), 5, "{report}");
    }

    #[test]
    fn sample_flag_and_usage_errors() {
        assert_eq!(run_cli(&["--sample".to_owned()]).unwrap(), SAMPLE_SPEC);
        assert!(run_cli(&[]).is_err());
        assert!(run_cli(&["/no/such/file.topo".to_owned()]).is_err());
        let sample = SampleFile::new("usage");
        let err = run_cli(&[sample.arg(), "1e306h".to_owned()]).unwrap_err();
        assert!(err.contains("must be finite"), "{err}");
    }

    #[test]
    fn cheapest_config_search_finds_an_entry() {
        let topology = parse_spec(SAMPLE_SPEC).expect("sample parses");
        let mut levels = Vec::new();
        backup_levels(&topology.root, &mut levels);
        assert_eq!(levels, vec![Level::Datacenter]);
        let found = cheapest_feasible_at(&topology, Level::Datacenter, Seconds::from_minutes(5.0));
        let (config, cost) = found.expect("some Table-3 entry is feasible");
        assert!(cost <= 1.0 + 1e-9, "{} costs {cost}", config.label());
    }
}
