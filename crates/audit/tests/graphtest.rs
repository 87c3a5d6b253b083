//! Graph-pass self-test: one audit run over the seeded fixture chains
//! reports exactly the interprocedural passes' findings (with complete
//! source→sink paths), and sanitizers and allow directives suppress.

use dcb_audit::audit_sources;
use dcb_audit::report::Finding;
use dcb_audit::walk::{Role, SourceFile};
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

/// Every finding of one run over the given sources; no token lint fires
/// on the graph fixtures.
fn analyze(inputs: Vec<(SourceFile, String)>) -> Vec<Finding> {
    audit_sources(inputs).findings
}

/// Analyzes a model-crate fixture together with the stand-in sink crate.
fn analyze_with_sinks(name: &str) -> Vec<Finding> {
    analyze(vec![load("graph_sinks.rs", "fleet"), load(name, "power")])
}

fn messages(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.message.as_str()).collect()
}

#[test]
fn taint_chain_is_detected_with_a_complete_path() {
    let findings = analyze_with_sinks("graph_taint_chain.rs");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.check, "determinism-taint");
    assert_eq!(
        f.message,
        "hash-iteration in `power::order` reaches determinism sink `fleet::Scenario::digest` (scenario-digest)"
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
fn keyed_scenario_digest_is_a_sink() {
    // The real `dcb-fleet` scenario module, not a stand-in: renaming
    // `ClusterKey::digest` must not drop it from the pass unnoticed.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../fleet/src/scenario.rs");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    let scenario = SourceFile {
        path,
        rel: "crates/fleet/src/scenario.rs".to_owned(),
        role: Role::Library,
        crate_name: "fleet".to_owned(),
    };
    let findings = analyze(vec![
        (scenario, source),
        load("graph_taint_cluster_key.rs", "power"),
    ]);
    assert_eq!(
        messages(&findings),
        [
            "wall-clock in `power::jitter` reaches determinism sink `fleet::ClusterKey::digest` (scenario-digest)",
            // Method calls resolve by name, so `.digest()` reaches
            // `Scenario::digest` too.
            "wall-clock in `power::jitter` reaches determinism sink `fleet::Scenario::digest` (scenario-digest)",
        ],
    );
    let f = &findings[0];
    assert_eq!(f.path.len(), 3, "path: {:?}", f.path);
    assert!(f.path[0].detail.contains("sink"), "path: {:?}", f.path);
    assert!(
        f.path[2].detail.contains("source: wall-clock"),
        "path: {:?}",
        f.path
    );
}

#[test]
fn engine_calendar_sink_is_detected() {
    let findings = analyze(vec![
        load("graph_engine_sinks.rs", "engine"),
        load("graph_taint_engine.rs", "power"),
    ]);
    assert_eq!(
        messages(&findings),
        ["hash-iteration in `power::next_wakeup` reaches determinism sink `engine::Calendar::post` (engine-calendar)"],
    );
    let f = &findings[0];
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
    let findings = analyze(vec![
        load("graph_topology_sinks.rs", "topology"),
        load("graph_taint_keys.rs", "power"),
    ]);
    assert_eq!(
        messages(&findings),
        [
            "wall-clock in `power::jitter` reaches determinism sink `topology::job_key` (topology-digest)",
            "thread-id in `power::worker_level` reaches determinism sink `topology::merge_key` (topology-digest)",
            "hash-iteration in `power::first_size` reaches determinism sink `topology::job_key` (topology-digest)",
        ],
    );
    for f in &findings {
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
    let findings = analyze_with_sinks("graph_taint_sorted.rs");
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn allowed_chain_is_suppressed() {
    let findings = analyze_with_sinks("graph_taint_allowed.rs");
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn laundered_boundaries_are_flagged() {
    let findings = analyze_with_sinks("graph_unitflow_laundered.rs");
    assert!(findings.iter().all(|f| f.check == "unit-flow"));
    let mut shown = messages(&findings);
    shown.sort_unstable();
    assert_eq!(
        shown,
        [
            "raw-f64 boundary: `power::deep` parameter `y` receives a power value with its unit stripped",
            "raw-f64 boundary: `power::scale` parameter `x` receives a power value with its unit stripped",
            "raw-f64 return: `power::runtime_raw` yields bare f64 wrapped into `Minutes` (time) at the call site",
        ],
    );
    // The deep boundary's path walks provenance back to the typed origin.
    let deep = findings
        .iter()
        .find(|f| f.message.contains("`power::deep`"))
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
    let findings = analyze_with_sinks("graph_unitflow_typed.rs");
    assert!(findings.is_empty(), "findings: {findings:?}");
}
