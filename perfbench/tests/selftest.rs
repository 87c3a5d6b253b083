//! Self-tests of the benchmark's own machinery: seeded inputs, the tail
//! statistic, span self time, output checking, the metric list against
//! BENCHMARK.json, and count metrics that repeat exactly.

use perfbench::check::{Checker, Op};
use perfbench::inputs::{facility_spec, yearly};
use perfbench::spans::{self_times, Span};
use perfbench::stats::{covered, tail};
use perfbench::traced::PER_LAYER;
use std::collections::BTreeMap;
use std::process::Command;

#[test]
fn same_seed_same_inputs_and_a_different_seed_a_different_spec() {
    assert_eq!(facility_spec(7), facility_spec(7));
    assert_eq!(yearly(7), yearly(7));
    assert_ne!(facility_spec(7), facility_spec(8));
    assert_ne!(yearly(7).trial_seeds, yearly(8).trial_seeds);
    assert_eq!(yearly(7).candidates.len(), 117);
    let topology = dcb_topology::parse_spec(&facility_spec(7)).expect("generated specs parse");
    let explicit = topology.root.explicit_nodes();
    assert!(
        (30_000..70_000).contains(&explicit),
        "{explicit} explicit nodes"
    );
}

#[test]
fn tail_is_the_highest_rank_with_ten_samples_beyond_it() {
    // 50 samples: the 40th smallest leaves exactly ten beyond it.
    let values: Vec<f64> = (1..=50).rev().map(f64::from).collect();
    let t = tail(&values);
    assert_eq!((t.value, t.percentile, t.samples), (40.0, 80.0, 50));
    // 11 samples: only the smallest has ten beyond it.
    let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>());
    assert_eq!((t.value, t.samples), (1.0, 11));
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    // Fewer than 11 samples: the maximum, labelled with the sample count.
    let t = tail(&[3.0, 9.0, 4.0]);
    assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
}

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        pass: 1,
        name: "x",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    // Two children overlap on worker threads (10–40 and 30–60 cover 50 ns,
    // not 60); a third runs past its parent's end and is clipped.
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(0), 30, 60),
        span(3, Some(0), 90, 120),
        span(4, Some(1), 15, 20),
    ];
    assert_eq!(covered(&[(10, 40), (30, 60), (90, 120)], 0, 100), 60);
    assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
}

#[test]
fn an_injected_output_mismatch_raises_the_error_rate() {
    let pass = |third: &str| {
        vec![
            Op::ok("fig5", "a".to_owned()),
            Op::ok("fig6", "b".to_owned()),
            Op::ok("fig7", third.to_owned()),
        ]
    };
    let mut checker = Checker::new();
    checker.observe(&pass("c"));
    checker.observe(&pass("c"));
    assert_eq!((checker.attempted, checker.failed), (6, 0));
    checker.observe(&pass("c, but different"));
    assert_eq!((checker.attempted, checker.failed), (9, 1));
    assert!((checker.error_rate() - 1.0 / 9.0).abs() < 1e-12);
    checker.observe(&[Op::failed("verify", "FAIL claim")]);
    assert_eq!(checker.failed, 2);
}

/// `(name, unit, better)` of every metric BENCHMARK.json lists, by section.
fn benchmark_json_metrics() -> BTreeMap<String, Vec<(String, String, String)>> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_owned())
    };
    let mut sections: BTreeMap<String, Vec<(String, String, String)>> = BTreeMap::new();
    let mut section = String::new();
    for line in text.lines() {
        if let Some(name) = line.trim().strip_suffix(": [") {
            section = name.trim_matches('"').to_owned();
        }
        if let (Some(name), Some(unit), Some(better)) = (
            field(line, "name"),
            field(line, "unit"),
            field(line, "better"),
        ) {
            sections
                .entry(section.clone())
                .or_default()
                .push((name, unit, better));
        }
    }
    sections
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_runs_report() {
    let listed = benchmark_json_metrics();
    let per_layer: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
        .collect();
    assert_eq!(listed["per_layer"], per_layer);
    let end_to_end: Vec<&str> = listed["end_to_end"]
        .iter()
        .map(|(n, _, _)| n.as_str())
        .collect();
    assert_eq!(
        end_to_end,
        ["setup_s", "pass_s.p50", "pass_s.tail", "peak_rss_mb"]
    );
}

/// Runs one traced facility run and returns its count-unit metrics.
fn traced_counts(threads: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "facility",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .env("DCB_THREADS", threads)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.contains("\"correct\": true"), "{result}");
    PER_LAYER
        .iter()
        .filter(|(_, unit, _)| *unit == "count")
        .map(|(name, _, _)| {
            let at = result
                .find(&format!("\"{name}\": {{\"value\": "))
                .expect(name)
                + name.len()
                + 14;
            let value = &result[at..at + result[at..].find(',').expect("value ends")];
            ((*name).to_owned(), value.parse().expect("a number"))
        })
        .collect()
}

#[test]
fn count_metrics_repeat_exactly_across_runs_and_thread_counts() {
    let first = traced_counts("2");
    assert!(first["topology.node_steps"] > 0.0);
    assert_eq!(first, traced_counts("2"));
    assert_eq!(first, traced_counts("1"));
}
