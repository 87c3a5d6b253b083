//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's closed-loop passes for `--seconds` and prints every
//! metric by name with its unit, ending with one JSON result line. With
//! `--trace 1` the metrics are the per-layer ones and the recorded spans are
//! written to `.bench_out/` under the current directory at exit.

use perfbench::workloads::Workload;
use perfbench::{cap_threads, result_json, timed, traced};
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <paper|yearly_availability|facility|paper_observed> \
                     [--seed <u64>] [--seconds <1-600>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    cap_threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} fleet_threads={} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dcb_fleet::FleetPool::new().threads(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let (lines, checker, metrics) = if args.trace {
        let run = traced::run(args.workload, args.seed, args.seconds);
        let path = format!(
            ".bench_out/spans-{}-{}.txt",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, run.rendered_spans()));
        if let Err(err) = written {
            eprintln!("perfbench: could not write {path}: {err}");
        }
        (run.report(), run.checker, run.metrics)
    } else {
        let run = timed::run(args.workload, args.seed, args.seconds, started);
        let metrics = run.metrics();
        (run.report(args.workload), run.checker, metrics)
    };
    for line in lines {
        println!("{line}");
    }
    for failure in &checker.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!(
        "{}",
        result_json(
            checker.failed == 0,
            checker.attempted,
            checker.failed,
            &metrics
        )
    );
}
