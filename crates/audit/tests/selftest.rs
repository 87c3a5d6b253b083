//! Analyzer self-test: every lint class is detected on its seeded fixture,
//! the `allow` escape hatch suppresses, clean code stays clean, and the
//! live workspace itself audits to zero findings.

use dcb_audit::walk::{Role, SourceFile};
use dcb_audit::{audit, check_source};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Loads a fixture and lints it as if it were library code of a regular
/// (non-exempt) crate.
fn audit_fixture(name: &str) -> Vec<&'static str> {
    let path = fixture_dir().join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let file = SourceFile {
        path,
        rel: format!("crates/fixture/src/{name}"),
        role: Role::Library,
        crate_name: "fixture".to_owned(),
    };
    check_source(&file, &source)
        .iter()
        .map(|f| f.check)
        .collect()
}

fn count(lints: &[&str], lint: &str) -> usize {
    lints.iter().filter(|&&l| l == lint).count()
}

#[test]
fn every_lint_class_is_detected() {
    for (fixture, lint, expected) in [
        ("unit_leak.rs", "unit-leak", 3),
        ("topology_unit_leak.rs", "unit-leak", 3),
        ("float_cmp.rs", "float-cmp", 3),
        ("observe_in_result.rs", "observe-in-result", 9),
    ] {
        let found = audit_fixture(fixture);
        assert_eq!(
            count(&found, lint),
            expected,
            "{fixture} expected {expected} × {lint}, found {found:?}"
        );
        // The fixture seeds exactly one lint class (its `f64` scaffolding
        // must not leak other findings).
        assert!(
            found.iter().all(|&l| l == lint),
            "{fixture} leaked extra lints: {found:?}"
        );
    }
}

#[test]
fn observability_reads_fenced_but_recording_allowed() {
    // Per plane: recording alone is clean in model code, a read fires,
    // and the report edges (bench) are exempt by crate.
    let file = SourceFile {
        path: PathBuf::from("crates/x/src/lib.rs"),
        rel: "crates/x/src/lib.rs".to_owned(),
        role: Role::Library,
        crate_name: "x".to_owned(),
    };
    for (recording_only, reads) in [
        (
            "pub fn f() {\n    dcb_telemetry::counter!(\"x.events\").incr();\n    let _s = dcb_telemetry::span(\"x\");\n}\n",
            "pub fn f() { let _ = dcb_telemetry::report(); }",
        ),
        (
            "pub fn f(t: f64) {\n    if dcb_trace::enabled() {\n        dcb_trace::instant(Some(dcb_trace::micros(t)), None, || k());\n    }\n}\n",
            "pub fn f() { let _ = dcb_trace::chrome::export(&dcb_trace::drain()); }",
        ),
        (
            "pub fn f() {\n    if dcb_prof::enabled() {\n        let _phase = dcb_prof::frame(\"f\");\n        dcb_prof::record(dcb_prof::WorkKind::Cycles, 1);\n    }\n}\n",
            "pub fn f() { let _ = dcb_prof::collapsed::render(&dcb_prof::snapshot()); }",
        ),
    ] {
        assert!(check_source(&file, recording_only).is_empty());
        assert!(!check_source(&file, reads).is_empty());
        let mut bench_file = file.clone();
        bench_file.crate_name = "bench".to_owned();
        assert!(check_source(&bench_file, reads).is_empty());
    }
}

#[test]
fn topology_crate_is_covered_by_the_core_lints() {
    // The graph layer is model code: every lint must apply to
    // `crates/topology` — no crate exemption.
    let specs = dcb_audit::lints::all();
    assert_eq!(specs.len(), 3);
    for spec in &specs {
        assert!(
            !spec.exempt_crates.contains(&"topology"),
            "{} must cover crates/topology",
            spec.name
        );
    }
    // And concretely: seeded violations in a topology library file fire.
    let file = SourceFile {
        path: PathBuf::from("crates/topology/src/resolve.rs"),
        rel: "crates/topology/src/resolve.rs".to_owned(),
        role: Role::Library,
        crate_name: "topology".to_owned(),
    };
    let seeded = "pub fn f(feed_watts: f64) {\n    let _ = feed_watts == 0.0;\n    let _ = dcb_trace::drain();\n}\n";
    let found: Vec<_> = check_source(&file, seeded)
        .iter()
        .map(|f| f.check)
        .collect();
    for lint in specs.iter().map(|s| s.name) {
        assert_eq!(count(&found, lint), 1, "found {found:?}");
    }
}

#[test]
fn allow_directive_suppresses_every_class() {
    assert_eq!(audit_fixture("allow_suppression.rs"), Vec::<&str>::new());
}

#[test]
fn allow_above_an_item_covers_its_whole_body() {
    // One directive above `sentinels` suppresses float-cmp through the
    // whole fn — but not other lints in the same body, and not
    // comparisons in the next item.
    let found = audit_fixture("allow_item_scope.rs");
    assert_eq!(count(&found, "float-cmp"), 1, "found {found:?}");
    assert_eq!(count(&found, "observe-in-result"), 1, "found {found:?}");
    assert_eq!(found.len(), 2, "found {found:?}");
}

#[test]
fn clean_code_stays_clean() {
    assert_eq!(audit_fixture("clean.rs"), Vec::<&str>::new());
}

#[test]
fn fixtures_are_role_scoped_out_as_tests() {
    // The same seeded violations audited as *test* code produce nothing:
    // the lint scope, not luck, keeps test files quiet.
    for name in ["unit_leak.rs", "float_cmp.rs", "observe_in_result.rs"] {
        let path = fixture_dir().join(name);
        let source = std::fs::read_to_string(&path).expect("fixture unreadable");
        let file = SourceFile {
            path,
            rel: format!("crates/fixture/tests/{name}"),
            role: Role::Test,
            crate_name: "fixture".to_owned(),
        };
        assert!(check_source(&file, &source).is_empty(), "{name}");
    }
}

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root above crates/audit");
    let report = audit(root).expect("workspace audit failed");
    // The call graph must actually cover the whole workspace.
    assert!(
        report.stats.crates.len() >= 15,
        "crates: {:?}",
        report.stats.crates
    );
    assert!(report.stats.fns > 1000, "fns: {}", report.stats.fns);
    assert!(report.stats.edges > 1000, "edges: {}", report.stats.edges);
    assert!(
        report.findings.is_empty(),
        "live workspace has {} finding(s):\n{}",
        report.findings.len(),
        dcb_audit::report::render_text(&report)
    );
}
