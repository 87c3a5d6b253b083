//! Analyzer self-test: every lint class is detected on its seeded fixture,
//! the `allow` escape hatch suppresses, clean code stays clean, and the
//! live workspace itself audits to zero findings.

use dcb_audit::walk::{Role, SourceFile};
use dcb_audit::{check_source, check_workspace};
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
        .map(|f| f.lint)
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
        ("hash_container.rs", "hash-container", 2),
        ("time_source.rs", "time-source", 2),
        ("thread_spawn.rs", "thread-spawn", 2),
        ("panic_site.rs", "panic-site", 4),
        ("stepped_sim.rs", "stepped-sim", 2),
        ("kernel_internals.rs", "kernel-internals", 2),
        ("telemetry_in_result.rs", "telemetry-in-result", 3),
        ("trace_in_result.rs", "trace-in-result", 3),
        ("prof_in_result.rs", "prof-in-result", 3),
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
fn telemetry_reads_fenced_but_recording_allowed() {
    // The fixture mixes record sites (counter!, incr) with reads
    // (snapshot(), report(), a Snapshot binding): exactly the reads fire.
    let found = audit_fixture("telemetry_in_result.rs");
    assert_eq!(count(&found, "telemetry-in-result"), 3, "found {found:?}");
    // Recording alone is clean in model code.
    let file = SourceFile {
        path: PathBuf::from("crates/x/src/lib.rs"),
        rel: "crates/x/src/lib.rs".to_owned(),
        role: Role::Library,
        crate_name: "x".to_owned(),
    };
    let recording_only = "pub fn f() {\n    dcb_telemetry::counter!(\"x.events\").incr();\n    let _s = dcb_telemetry::span(\"x\");\n}\n";
    assert!(check_source(&file, recording_only).is_empty());
    // The report edges (bench) are exempt by crate.
    let mut bench_file = file;
    bench_file.crate_name = "bench".to_owned();
    let reads = "pub fn f() { let _ = dcb_telemetry::report(); }";
    assert!(check_source(&bench_file, reads).is_empty());
}

#[test]
fn trace_reads_fenced_but_recording_allowed() {
    // The fixture mixes record sites (instant/complete/lane_scope) with
    // reads (drain(), chrome::export, timeline::render): exactly the
    // reads fire.
    let found = audit_fixture("trace_in_result.rs");
    assert_eq!(count(&found, "trace-in-result"), 3, "found {found:?}");
    // Recording alone is clean in model code.
    let file = SourceFile {
        path: PathBuf::from("crates/x/src/lib.rs"),
        rel: "crates/x/src/lib.rs".to_owned(),
        role: Role::Library,
        crate_name: "x".to_owned(),
    };
    let recording_only = "pub fn f(t: f64) {\n    if dcb_trace::enabled() {\n        dcb_trace::instant(Some(dcb_trace::micros(t)), None, || k());\n    }\n}\n";
    assert!(check_source(&file, recording_only).is_empty());
    // The report edges (bench) are exempt by crate.
    let mut bench_file = file;
    bench_file.crate_name = "bench".to_owned();
    let reads = "pub fn f() { let _ = dcb_trace::chrome::export(&dcb_trace::drain()); }";
    assert!(check_source(&bench_file, reads).is_empty());
}

#[test]
fn prof_reads_fenced_but_recording_allowed() {
    // The fixture mixes record sites (frame/record/handoff-enter) with
    // reads (snapshot(), a Profile binding, collapsed::render): exactly
    // the reads fire.
    let found = audit_fixture("prof_in_result.rs");
    assert_eq!(count(&found, "prof-in-result"), 3, "found {found:?}");
    // Recording alone is clean in model code.
    let file = SourceFile {
        path: PathBuf::from("crates/x/src/lib.rs"),
        rel: "crates/x/src/lib.rs".to_owned(),
        role: Role::Library,
        crate_name: "x".to_owned(),
    };
    let recording_only = "pub fn f() {\n    if dcb_prof::enabled() {\n        let _phase = dcb_prof::frame(\"f\");\n        dcb_prof::record(dcb_prof::WorkKind::Cycles, 1);\n    }\n}\n";
    assert!(check_source(&file, recording_only).is_empty());
    // The report edges (bench) are exempt by crate.
    let mut bench_file = file;
    bench_file.crate_name = "bench".to_owned();
    let reads = "pub fn f() { let _ = dcb_prof::collapsed::render(&dcb_prof::snapshot()); }";
    assert!(check_source(&bench_file, reads).is_empty());
}

#[test]
fn topology_crate_is_covered_by_the_core_lints() {
    // The graph layer is model code: every determinism/unit lint the issue
    // names must apply to `crates/topology` — no scope-matrix exemption.
    let covered = [
        "unit-leak",
        "float-cmp",
        "panic-site",
        "time-source",
        "telemetry-in-result",
        "trace-in-result",
        "prof-in-result",
    ];
    let specs = dcb_audit::lints::all();
    for lint in covered {
        let spec = specs
            .iter()
            .find(|s| s.name == lint)
            .unwrap_or_else(|| panic!("lint {lint} missing from the registry"));
        assert!(
            !spec.exempt_crates.contains(&"topology"),
            "{lint} must cover crates/topology"
        );
        assert!(
            spec.roles.contains(&Role::Library),
            "{lint} must apply to library code"
        );
    }
    // And concretely: seeded violations in a topology library file fire.
    let file = SourceFile {
        path: PathBuf::from("crates/topology/src/resolve.rs"),
        rel: "crates/topology/src/resolve.rs".to_owned(),
        role: Role::Library,
        crate_name: "topology".to_owned(),
    };
    let seeded = "pub fn f(feed_watts: f64) {\n    let _ = feed_watts == 0.0;\n    let _ = dcb_trace::drain();\n    panic!(\"deficit\");\n}\n";
    let found: Vec<_> = check_source(&file, seeded).iter().map(|f| f.lint).collect();
    for lint in ["unit-leak", "float-cmp", "trace-in-result", "panic-site"] {
        assert_eq!(count(&found, lint), 1, "found {found:?}");
    }
}

#[test]
fn allow_directive_suppresses_every_class() {
    assert_eq!(audit_fixture("allow_suppression.rs"), Vec::<&str>::new());
}

#[test]
fn allow_above_an_item_covers_its_whole_body() {
    // One directive above `tally` suppresses hash-container through the
    // whole fn — but not other lints in the same body, and not mentions
    // in the next item.
    let found = audit_fixture("allow_item_scope.rs");
    assert_eq!(count(&found, "hash-container"), 1, "found {found:?}");
    assert_eq!(count(&found, "time-source"), 1, "found {found:?}");
    assert_eq!(found.len(), 2, "found {found:?}");
}

#[test]
fn clean_code_stays_clean() {
    assert_eq!(audit_fixture("clean.rs"), Vec::<&str>::new());
}

#[test]
fn fixtures_are_role_scoped_out_as_tests() {
    // The same seeded violations audited as *test* code produce nothing:
    // the scope matrix, not luck, keeps test files quiet.
    let path = fixture_dir().join("panic_site.rs");
    let source = std::fs::read_to_string(&path).expect("fixture unreadable");
    let file = SourceFile {
        path,
        rel: "crates/fixture/tests/panic_site.rs".to_owned(),
        role: Role::Test,
        crate_name: "fixture".to_owned(),
    };
    assert!(check_source(&file, &source).is_empty());
}

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root above crates/audit");
    let findings = check_workspace(root).expect("workspace walk failed");
    assert!(
        findings.is_empty(),
        "live workspace has {} finding(s):\n{}",
        findings.len(),
        dcb_audit::report::render_text(&findings)
    );
}
