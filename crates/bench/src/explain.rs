//! The `repro explain` subcommand: a one-command answer to "why does this
//! (config, technique, duration) point land where it does?".
//!
//! Runs the event-driven kernel for one scenario with the flight recorder
//! on, then renders the captured events as an annotated timeline — each
//! segment with its span, end cause, governing constraint, and running
//! downtime/energy tallies. A test asserts the timeline's tally agrees
//! exactly with the kernel's own trajectory, so the explanation can be
//! trusted as the ground truth, not a parallel re-derivation.

use dcb_power::BackupConfig;
use dcb_sim::{Cluster, OutageSim, Technique, Trajectory};
use dcb_topology::spec::{find_config, find_technique};
use dcb_trace::timeline::TimelineTally;
use dcb_units::Seconds;
use dcb_workload::Workload;

/// One explained scenario: the rendered timeline, the tally rebuilt from
/// the trace, and the kernel's own trajectory for cross-checking.
#[derive(Debug, Clone)]
pub struct Explained {
    /// Human-readable annotated timeline (the subcommand's main output).
    pub timeline: String,
    /// Aggregates rebuilt purely from the captured trace events.
    pub tally: TimelineTally,
    /// The kernel's trajectory and outcome for the same run.
    pub trajectory: Trajectory,
}

/// Runs one scenario on the paper's reference rack (SPECjbb) with tracing
/// forced on, capturing its lane of the flight recorder.
#[must_use]
pub fn explain_scenario(
    config: &BackupConfig,
    technique: &Technique,
    duration: Seconds,
) -> Explained {
    let was_enabled = dcb_trace::enabled();
    dcb_trace::set_enabled(true);
    let sim = OutageSim::new(
        Cluster::rack(Workload::specjbb()),
        config.clone(),
        technique.clone(),
    );
    let (trajectory, events) = dcb_trace::capture(|| sim.run_trajectory(duration));
    dcb_trace::set_enabled(was_enabled);
    Explained {
        timeline: dcb_trace::timeline::render(&events),
        tally: dcb_trace::timeline::tally(&events),
        trajectory,
    }
}

/// Parses a CLI duration: a number with an optional `h`/`m`/`s` suffix.
/// A bare number means minutes (the unit of the paper's outage axes).
///
/// # Errors
///
/// Returns a message when the value is not a number, or is not finite
/// and non-negative once converted to seconds.
pub fn parse_duration(raw: &str) -> Result<Seconds, String> {
    let trimmed = raw.trim();
    let (number, to_seconds): (&str, fn(f64) -> Seconds) = match trimmed.char_indices().next_back()
    {
        Some((i, 'h' | 'H')) => (&trimmed[..i], Seconds::from_hours),
        Some((i, 'm' | 'M')) => (&trimmed[..i], Seconds::from_minutes),
        Some((i, 's' | 'S')) => (&trimmed[..i], Seconds::new),
        _ => (trimmed, Seconds::from_minutes),
    };
    let value: f64 = number
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration `{raw}` (expected e.g. `30m`, `2h`, `90s`)"))?;
    // `Seconds` rejects NaN, so the sign test (false for NaN) goes first.
    (value >= 0.0)
        .then(|| to_seconds(value))
        .filter(|seconds| seconds.is_finite())
        .ok_or_else(|| format!("duration `{raw}` must be finite and non-negative"))
}

/// Resolves a Table-3 configuration by label, matched as a topology spec
/// matches it ([`find_config`]).
///
/// # Errors
///
/// Lists the available labels when `name` matches none of them.
pub fn resolve_config(name: &str) -> Result<BackupConfig, String> {
    find_config(name).ok_or_else(|| {
        format!(
            "unknown config `{name}` (available: {})",
            BackupConfig::table3()
                .iter()
                .map(BackupConfig::label)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// Resolves a technique from the extended catalog by name, matched as a
/// topology spec matches it ([`find_technique`]).
///
/// # Errors
///
/// Lists the available names when `name` matches none of them.
pub fn resolve_technique(name: &str) -> Result<Technique, String> {
    find_technique(name).ok_or_else(|| {
        format!(
            "unknown technique `{name}` (available: {})",
            Technique::extended_catalog()
                .iter()
                .map(Technique::name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// Runs the full subcommand: `explain <config> <technique> <duration>`.
/// Returns the rendered report, or a usage/lookup error for exit code 2.
///
/// # Errors
///
/// Returns a usage message on a bad argument count, and lookup/parse
/// errors from the individual resolvers.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    let [config_name, technique_name, duration_raw] = args else {
        return Err("usage: repro explain <config> <technique> <duration>\n\
             e.g.   repro explain LowCost1 Sleep-L 2h"
            .to_owned());
    };
    let config = resolve_config(config_name)?;
    let technique = resolve_technique(technique_name)?;
    let duration = parse_duration(duration_raw)?;
    let explained = explain_scenario(&config, &technique, duration);
    let outcome = &explained.trajectory.outcome;
    let mut out = String::new();
    out.push_str(&format!(
        "== explain: {} / {} / {:.1} min outage ==\n\n",
        config.label(),
        technique.name(),
        duration.to_minutes()
    ));
    out.push_str(&explained.timeline);
    out.push_str(&format!(
        "\noutcome: feasible={}  final_state={:?}\n\
         perf_during_outage={:.4}  downtime_in_outage={:.1}min  \
         expected_downtime={:.1}min  energy={:.1}Wh\n",
        outcome.feasible,
        outcome.final_state,
        outcome.perf_during_outage.value(),
        outcome.downtime_during_outage.to_minutes(),
        outcome.downtime_minutes(),
        outcome.energy.value(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_suffixes_parse() {
        assert_eq!(parse_duration("2h").unwrap(), Seconds::new(7200.0));
        assert_eq!(parse_duration("30m").unwrap(), Seconds::new(1800.0));
        assert_eq!(parse_duration("90s").unwrap(), Seconds::new(90.0));
        assert_eq!(parse_duration("5").unwrap(), Seconds::new(300.0));
        assert!(parse_duration("soon").is_err());
        assert!(parse_duration("-3m").is_err());
        assert!(parse_duration("nan").is_err());
        assert!(parse_duration("").is_err());
        // Finite as written, infinite in seconds.
        for huge in ["1e306h", "1e307m", "1e308"] {
            assert!(parse_duration(huge).is_err(), "{huge}");
        }
    }

    #[test]
    fn resolvers_match_loosely_and_list_options() {
        assert!(resolve_config("max-perf").is_ok());
        assert!(resolve_technique("Ride-Through").is_ok());
        let err = resolve_config("nope").unwrap_err();
        assert!(err.contains("available:"), "{err}");
        let err = resolve_technique("nope").unwrap_err();
        assert!(err.contains("available:"), "{err}");
    }

    #[test]
    fn cli_renders_a_report() {
        let config = BackupConfig::table3()[0].label().to_owned();
        let technique = Technique::catalog()[0].name().to_owned();
        let report = run_cli(&[config, technique, "30m".to_owned()]).expect("report");
        assert!(report.contains("== explain:"), "{report}");
        assert!(report.contains("segment"), "{report}");
        assert!(report.contains("outcome: feasible="), "{report}");
    }

    #[test]
    fn cli_usage_error_on_bad_arity() {
        assert!(run_cli(&[]).is_err());
        assert!(run_cli(&["a".to_owned()]).is_err());
    }

    #[test]
    fn cli_rejects_a_duration_infinite_in_seconds() {
        let err = run_cli(&["MaxPerf", "RideThrough", "1e306h"].map(str::to_owned)).unwrap_err();
        assert!(err.contains("must be finite"), "{err}");
    }
}
