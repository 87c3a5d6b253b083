//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p dcb-bench --bin repro -- all
//! cargo run --release -p dcb-bench --bin repro -- fig5 table3
//! cargo run --release -p dcb-bench --bin repro -- verify
//! cargo run --release -p dcb-bench --bin repro -- sensitivity
//! ```

use dcb_bench::{all_exhibits, explain, extra_exhibits, profile, tables, topo, verify};
use dcb_trace::TraceMode;

fn main() {
    // Enables metric collection when DCB_TELEMETRY=json|text; otherwise
    // every record site stays at one branch. Likewise the flight
    // recorder via DCB_TRACE=chrome|timeline. The work-attribution
    // profiler is on only under `repro profile`.
    dcb_telemetry::init_from_env();
    let trace_mode = dcb_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `repro explain <config> <technique> <duration>` is a subcommand, not
    // an exhibit: it forces tracing on for one scenario and renders the
    // annotated timeline.
    if args.first().map(String::as_str) == Some("explain") {
        match explain::run_cli(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }
    // `repro profile <exhibit>...` forces telemetry + the profiler on,
    // runs the exhibits, reconciles the work tally against the telemetry
    // counters, and renders per DCB_PROF (collapsed/svg are
    // byte-reproducible across DCB_THREADS).
    if args.first().map(String::as_str) == Some("profile") {
        match profile::run_cli(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }
    // `repro topo <spec-file> [durations...]` resolves a whole facility
    // described by a text spec through the hierarchical power graph. It
    // falls through (with no exhibits) so DCB_TRACE exports the per-level
    // topology lanes like any other run.
    let topo_run = args.first().map(String::as_str) == Some("topo");
    if topo_run {
        match topo::run_cli(&args[1..]) {
            Ok(report) => print!("{report}"),
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }
    let wanted: Vec<String> = if topo_run {
        Vec::new()
    } else if args.is_empty() || args.iter().any(|a| a == "all") {
        all_exhibits()
            .iter()
            .chain(extra_exhibits().iter())
            .map(|(n, _)| (*n).to_owned())
            .chain(["sensitivity".to_owned(), "verify".to_owned()])
            .collect()
    } else {
        args.clone()
    };

    let mut exhibits = all_exhibits();
    exhibits.extend(extra_exhibits());
    let mut unknown = Vec::new();
    for name in &wanted {
        match name.as_str() {
            "verify" => {
                let _span = dcb_telemetry::span("verify");
                println!("== Headline claim verification ==");
                let mut failed = false;
                for (claim, check) in verify::verify_all() {
                    match check {
                        Ok(summary) => println!("  PASS {claim}: {summary}"),
                        Err(err) => {
                            failed = true;
                            println!("  FAIL {claim}: {err}");
                        }
                    }
                }
                println!();
                if failed {
                    std::process::exit(1);
                }
            }
            "sensitivity" => {
                let _span = dcb_telemetry::span("sensitivity");
                println!("{}", tables::state_size_sensitivity());
            }
            _ => match exhibits.iter().find(|(n, _)| n == name) {
                Some(&(exhibit, generate)) => {
                    let _span = dcb_telemetry::span(exhibit);
                    println!("{}", generate());
                }
                None => unknown.push(name.clone()),
            },
        }
    }
    // Without DCB_TELEMETRY this renders nothing; with
    // DCB_TELEMETRY=json the stable snapshot is byte-reproducible across
    // runs and DCB_THREADS settings (asserted by tests/telemetry_snapshot.rs).
    if let Some(report) = dcb_telemetry::report() {
        print!("{report}");
    }
    // Export the flight recorder. Timestamps are virtual (simulated time)
    // and lanes are workload-assigned, so for a fixed exhibit list the
    // Chrome JSON is byte-identical across DCB_THREADS settings
    // (asserted by tests/trace_chrome.rs).
    match trace_mode {
        TraceMode::Off => {}
        TraceMode::Chrome => {
            if dcb_trace::dropped() > 0 {
                eprintln!(
                    "dcb-trace: ring overflow dropped {} events; trace is truncated",
                    dcb_trace::dropped()
                );
            }
            let document = dcb_trace::chrome::export(&dcb_trace::drain());
            let path =
                std::env::var("DCB_TRACE_FILE").unwrap_or_else(|_| "dcb-trace.json".to_owned());
            match std::fs::write(&path, document) {
                Ok(()) => eprintln!("dcb-trace: wrote Chrome trace to {path}"),
                Err(err) => {
                    eprintln!("dcb-trace: failed to write {path}: {err}");
                    std::process::exit(1);
                }
            }
        }
        TraceMode::Timeline => {
            print!("{}", dcb_trace::timeline::render(&dcb_trace::drain()));
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown exhibits: {} (available: {}, verify, sensitivity, all)",
            unknown.join(", "),
            exhibits
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }
}
