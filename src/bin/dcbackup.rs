//! `dcbackup` — command-line front end to the underprovisioning framework.
//!
//! ```text
//! dcbackup cost <config> [--peak-mw <MW>]
//! dcbackup simulate <config> <technique> <minutes> [--workload <name>]
//! dcbackup size <technique> <minutes> [--workload <name>]
//! dcbackup availability <config> <technique> [--workload <name>] [--years <n>]
//! dcbackup list
//! dcbackup help
//! ```
//!
//! A flag may stand anywhere after the command. A missing or extra
//! argument, a flag without a value, a flag the command does not take, a
//! repeated flag and an unknown command exit 2 with an `error:` line.

use dcbackup::core::availability::analyze;
use dcbackup::core::cost::CostModel;
use dcbackup::core::evaluate::evaluate;
use dcbackup::core::sizing::{min_cost_ups, SizingTargets};
use dcbackup::core::{BackupConfig, Cluster, Technique};
use dcbackup::topology::spec::{find_config, find_technique, find_workload};
use dcbackup::units::{Kilowatts, Seconds};
use dcbackup::workload::Workload;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The `--flag value` pairs a command was given.
type Flags = BTreeMap<&'static str, String>;

/// Splits a command's arguments into its `N` positional arguments and
/// the values of the flags it takes, from `flags`; a flag may stand
/// anywhere. A flag without a value, a flag not in `flags`, a repeated
/// flag and a missing or extra positional argument are errors.
fn parse<const N: usize>(
    args: &[String],
    flags: &[&'static str],
    usage: &str,
) -> Result<([String; N], Flags), String> {
    let mut positional = Vec::new();
    let mut given = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        let Some(&flag) = flags.iter().find(|&&flag| flag == arg) else {
            return Err(format!("unknown option '{arg}'; {usage}"));
        };
        let Some(value) = args.next().filter(|value| !value.starts_with("--")) else {
            return Err(format!("{flag} needs a value; {usage}"));
        };
        if given.insert(flag, value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let positional = <[String; N]>::try_from(positional).map_err(|got| match got.get(N) {
        Some(extra) => format!("unexpected argument '{extra}'; {usage}"),
        None => usage.to_owned(),
    })?;
    Ok((positional, given))
}

fn workload_arg(flags: &Flags) -> Result<Workload, String> {
    match flags.get("--workload") {
        None => Ok(Workload::specjbb()),
        Some(name) => {
            find_workload(name).ok_or(format!("unknown workload '{name}' (see `dcbackup list`)"))
        }
    }
}

/// Parses an outage length in minutes: a finite, non-negative number that
/// stays finite in seconds.
fn minutes_arg(raw: &str) -> Result<f64, String> {
    let minutes: f64 = raw.parse().map_err(|_| "minutes must be a number")?;
    if minutes >= 0.0 && Seconds::from_minutes(minutes).is_finite() {
        Ok(minutes)
    } else {
        Err(format!(
            "minutes must be finite and non-negative, got '{raw}'"
        ))
    }
}

/// The `--peak-mw` datacenter peak (10 MW by default): finite and positive,
/// also in watts.
fn peak_arg(flags: &Flags) -> Result<Kilowatts, String> {
    let Some(raw) = flags.get("--peak-mw") else {
        return Ok(Kilowatts::from_megawatts(10.0));
    };
    raw.parse::<f64>()
        .ok()
        .filter(|&value| value > 0.0)
        .map(Kilowatts::from_megawatts)
        .filter(|peak| peak.to_watts().value().is_finite())
        .ok_or(format!(
            "--peak-mw must be a finite, positive number, got '{raw}'"
        ))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    match command {
        "list" => {
            let ([], _) = parse(args, &[], "usage: dcbackup list")?;
            println!("configurations:");
            let model = CostModel::paper();
            for c in BackupConfig::table3() {
                println!(
                    "  {:<20} normalized cost {:.2}",
                    c.label(),
                    model.normalized_cost(&c)
                );
            }
            println!("techniques:");
            for t in Technique::extended_catalog() {
                println!("  {}", t.name());
            }
            println!("workloads: specjbb, websearch, memcached, speccpu");
            Ok(())
        }
        "cost" => {
            let ([name], flags) = parse(
                args,
                &["--peak-mw"],
                "usage: dcbackup cost <config> [--peak-mw <MW>]",
            )?;
            let config = find_config(&name).ok_or(format!("unknown configuration '{name}'"))?;
            let peak = peak_arg(&flags)?;
            let model = CostModel::paper();
            let breakdown = model.annual_cost(&config, peak.to_watts());
            println!("{config}");
            println!("  datacenter peak    {} MW", peak.to_megawatts());
            println!("  DG                 ${:>12.0}/yr", breakdown.dg.value());
            println!(
                "  UPS electronics    ${:>12.0}/yr",
                breakdown.ups_power.value()
            );
            println!(
                "  UPS battery energy ${:>12.0}/yr",
                breakdown.ups_energy.value()
            );
            println!(
                "  total              ${:>12.0}/yr",
                breakdown.total().value()
            );
            println!(
                "  normalized (MaxPerf = 1): {:.2}",
                model.normalized_cost(&config)
            );
            Ok(())
        }
        "simulate" => {
            let usage =
                "usage: dcbackup simulate <config> <technique> <minutes> [--workload <name>]";
            let ([config, technique, minutes], flags) = parse(args, &["--workload"], usage)?;
            let config = find_config(&config).ok_or("unknown configuration")?;
            let technique = find_technique(&technique).ok_or("unknown technique")?;
            let minutes = minutes_arg(&minutes)?;
            let cluster = Cluster::rack(workload_arg(&flags)?);
            let p = evaluate(
                &cluster,
                &config,
                &technique,
                Seconds::from_minutes(minutes),
            );
            println!(
                "{} + {} on {} for a {minutes} min outage:",
                config.label(),
                technique.name(),
                cluster.workload()
            );
            println!("  normalized cost      {:.2}", p.cost);
            println!("  feasible             {}", p.outcome.feasible);
            println!("  state preserved      {}", !p.outcome.state_lost);
            println!(
                "  perf during outage   {:.1}%",
                p.outcome.perf_during_outage.to_percent()
            );
            println!(
                "  downtime             {:.1} min (range {:.1}–{:.1})",
                p.outcome.downtime.expected.to_minutes(),
                p.outcome.downtime.min.to_minutes(),
                p.outcome.downtime.max.to_minutes()
            );
            println!(
                "  peak backup draw     {:.0}% of nameplate",
                p.outcome.peak_power_fraction.to_percent()
            );
            Ok(())
        }
        "size" => {
            let usage = "usage: dcbackup size <technique> <minutes> [--workload <name>]";
            let ([technique, minutes], flags) = parse(args, &["--workload"], usage)?;
            let technique = find_technique(&technique).ok_or("unknown technique")?;
            let minutes = minutes_arg(&minutes)?;
            let cluster = Cluster::rack(workload_arg(&flags)?);
            match min_cost_ups(
                &cluster,
                &technique,
                Seconds::from_minutes(minutes),
                &SizingTargets::execute_to_plan(),
            ) {
                Some(point) => {
                    println!(
                        "cheapest UPS for {} to cover {minutes} min on {}:",
                        technique.name(),
                        cluster.workload()
                    );
                    println!("  {}", point.config);
                    println!("  normalized cost {:.2}", point.performability.cost);
                    println!(
                        "  perf {:.0}%, downtime {:.1} min",
                        point.performability.outcome.perf_during_outage.to_percent(),
                        point.performability.outcome.downtime.expected.to_minutes()
                    );
                    Ok(())
                }
                None => Err(format!(
                    "{} cannot execute to plan for {minutes} min at any candidate UPS size",
                    technique.name()
                )),
            }
        }
        "availability" => {
            let usage = "usage: dcbackup availability <config> <technique> [--workload <name>] [--years <n>]";
            let ([config, technique], flags) = parse(args, &["--workload", "--years"], usage)?;
            let config = find_config(&config).ok_or("unknown configuration")?;
            let technique = find_technique(&technique).ok_or("unknown technique")?;
            let years: usize = flags
                .get("--years")
                .map(|v| v.parse().map_err(|_| format!("bad --years '{v}'")))
                .transpose()?
                .unwrap_or(50);
            if years == 0 {
                return Err("--years must be at least 1".into());
            }
            let cluster = Cluster::rack(workload_arg(&flags)?);
            let r = analyze(&cluster, &config, &technique, years, 2014);
            println!(
                "{} + {} over {} sampled years ({}):",
                r.config,
                r.technique,
                r.years,
                cluster.workload()
            );
            println!("  normalized cost      {:.2}", r.cost);
            println!(
                "  downtime/yr          {:.1} min (p95 {:.1} min)",
                r.mean_yearly_downtime.to_minutes(),
                r.p95_yearly_downtime.to_minutes()
            );
            println!(
                "  availability         {:.5}%",
                r.mean_availability.to_percent()
            );
            println!("  nines                {:.1}", r.nines.min(9.9));
            println!("  state-loss rate      {:.0}%", r.state_loss_rate * 100.0);
            Ok(())
        }
        "help" | "--help" | "-h" => {
            let ([], _) = parse(args, &[], "usage: dcbackup help")?;
            println!(
                "dcbackup — datacenter backup-power underprovisioning framework\n\n\
                 commands:\n\
                 \u{20} list                                           catalogues\n\
                 \u{20} cost <config> [--peak-mw <MW>]                 price a configuration\n\
                 \u{20} simulate <config> <technique> <minutes>        ride one outage\n\
                 \u{20} size <technique> <minutes>                     cheapest sufficient UPS\n\
                 \u{20} availability <config> <technique> [--years n]  yearly Monte-Carlo\n\
                 options: --workload specjbb|websearch|memcached|speccpu"
            );
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (see `dcbackup help`)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
