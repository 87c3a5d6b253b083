//! Graph-analysis self-test: the interprocedural passes detect their
//! seeded fixture chains (with complete source→sink paths), sanitizers
//! and allow directives suppress, the baseline ratchet gates on new
//! findings only, and the live workspace graph is clean against the
//! committed `audit.baseline.json`.

use dcb_audit::walk::{Role, SourceFile};
use dcb_audit::{baseline, graph};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Loads a fixture as library code of the given crate.
fn load(name: &str, crate_name: &str) -> (SourceFile, String) {
    let path = fixture_dir().join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    (
        SourceFile {
            path,
            rel: format!("crates/{crate_name}/src/{name}"),
            role: Role::Library,
            crate_name: crate_name.to_owned(),
        },
        source,
    )
}

/// Analyzes a model-crate fixture together with the stand-in sink crate.
fn analyze_with_sinks(name: &str) -> graph::GraphReport {
    graph::analyze_sources(vec![load("graph_sinks.rs", "fleet"), load(name, "power")])
}

#[test]
fn taint_chain_is_detected_with_a_complete_path() {
    let report = analyze_with_sinks("graph_taint_chain.rs");
    assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.pass, "determinism-taint");
    assert_eq!(
        f.key,
        "determinism-taint:fleet::Scenario::digest:scenario-digest:hash-iteration:power::order"
    );
    // Full chain: sink call in seal → hop seal→summarize → hop
    // summarize→order → source in order.
    assert_eq!(f.path.len(), 4, "path: {:?}", f.path);
    assert!(f.path[0].detail.contains("sink"), "path: {:?}", f.path);
    assert!(
        f.path[1].detail.contains("power::seal") && f.path[1].detail.contains("power::summarize"),
        "path: {:?}",
        f.path
    );
    assert!(
        f.path[2].detail.contains("power::summarize") && f.path[2].detail.contains("power::order"),
        "path: {:?}",
        f.path
    );
    assert!(
        f.path[3].detail.contains("source: hash-iteration"),
        "path: {:?}",
        f.path
    );
    // Every step carries a real location.
    assert!(f
        .path
        .iter()
        .all(|s| s.line > 0 && s.file.starts_with("crates/")));
}

#[test]
fn engine_calendar_sink_is_detected() {
    let report = graph::analyze_sources(vec![
        load("graph_engine_sinks.rs", "engine"),
        load("graph_taint_engine.rs", "power"),
    ]);
    assert_eq!(report.findings.len(), 1, "findings: {:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.pass, "determinism-taint");
    assert_eq!(
        f.key,
        "determinism-taint:engine::Calendar::post:engine-calendar:hash-iteration:power::next_wakeup"
    );
    assert!(f.path[0].detail.contains("sink"), "path: {:?}", f.path);
    assert!(
        f.path
            .last()
            .is_some_and(|s| s.detail.contains("source: hash-iteration")),
        "path: {:?}",
        f.path
    );
}

#[test]
fn topology_key_sinks_are_detected() {
    let report = graph::analyze_sources(vec![
        load("graph_topology_sinks.rs", "topology"),
        load("graph_taint_keys.rs", "power"),
    ]);
    let keys: Vec<&str> = report.findings.iter().map(|f| f.key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "determinism-taint:topology::job_key:topology-digest:hash-iteration:power::first_size",
            "determinism-taint:topology::job_key:topology-digest:wall-clock:power::jitter",
            "determinism-taint:topology::merge_key:topology-digest:thread-id:power::worker_level",
        ],
        "findings: {:?}",
        report.findings
    );
    for f in &report.findings {
        assert!(f.path[0].detail.contains("sink"), "path: {:?}", f.path);
        assert!(
            f.path.last().is_some_and(|s| s.detail.contains("source: ")),
            "path: {:?}",
            f.path
        );
    }
}

#[test]
fn sorted_chain_is_sanitized() {
    let report = analyze_with_sinks("graph_taint_sorted.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn allowed_chain_is_suppressed() {
    let report = analyze_with_sinks("graph_taint_allowed.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn laundered_boundaries_are_flagged() {
    let report = analyze_with_sinks("graph_unitflow_laundered.rs");
    let keys: Vec<&str> = report.findings.iter().map(|f| f.key.as_str()).collect();
    assert!(
        keys.contains(&"unit-flow:power::scale:x:power"),
        "keys: {keys:?}"
    );
    assert!(
        keys.contains(&"unit-flow:power::deep:y:power"),
        "keys: {keys:?}"
    );
    assert!(
        keys.contains(&"unit-flow:power::runtime_raw:return:time"),
        "keys: {keys:?}"
    );
    assert_eq!(keys.len(), 3, "keys: {keys:?}");
    // The deep boundary's path walks provenance back to the typed origin.
    let deep = report
        .findings
        .iter()
        .find(|f| f.key.contains("::deep:"))
        .expect("deep finding");
    assert!(
        deep.path
            .iter()
            .any(|s| s.detail.contains("dimension stripped")),
        "path: {:?}",
        deep.path
    );
    assert!(
        deep.path
            .iter()
            .any(|s| s.detail.contains("origin") && s.detail.contains("Watts")),
        "path: {:?}",
        deep.path
    );
}

#[test]
fn typed_boundaries_are_clean() {
    let report = analyze_with_sinks("graph_unitflow_typed.rs");
    assert!(
        report.findings.is_empty(),
        "findings: {:?}",
        report.findings
    );
}

#[test]
fn baseline_ratchet_gates_on_new_findings_only() {
    let report = analyze_with_sinks("graph_taint_chain.rs");
    assert_eq!(report.findings.len(), 1);

    // Empty baseline: the finding is new.
    let empty = baseline::Baseline::default();
    let d = baseline::diff(&report.findings, &empty);
    assert_eq!(d.fresh.len(), 1);
    assert!(d.accepted.is_empty());

    // Accepting baseline: the finding is absorbed, run is green.
    let base = baseline::parse(&baseline::render(&report.findings)).expect("baseline");
    let d = baseline::diff(&report.findings, &base);
    assert!(d.fresh.is_empty());
    assert_eq!(d.accepted.len(), 1);

    // Fixed finding: the entry goes stale so the file ratchets down.
    let clean = analyze_with_sinks("graph_taint_sorted.rs");
    let d = baseline::diff(&clean.findings, &base);
    assert!(d.fresh.is_empty());
    assert_eq!(d.stale.len(), 1);
}

#[test]
fn live_workspace_graph_is_clean_against_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let report = graph::analyze_root(&root).expect("workspace graph analysis");
    // The graph must actually cover the whole workspace.
    assert!(
        report.stats.crates.len() >= 15,
        "crates: {:?}",
        report.stats.crates
    );
    assert!(report.stats.fns > 1000, "fns: {}", report.stats.fns);
    assert!(report.stats.edges > 1000, "edges: {}", report.stats.edges);
    let base = baseline::load(&root.join("audit.baseline.json")).expect("baseline loads");
    let d = baseline::diff(&report.findings, &base);
    let fresh: Vec<&str> = d.fresh.iter().map(|f| f.key.as_str()).collect();
    assert!(
        fresh.is_empty(),
        "new graph findings (fix or baseline with a reason): {fresh:?}"
    );
    assert!(d.stale.is_empty(), "stale baseline entries: {:?}", d.stale);
}
