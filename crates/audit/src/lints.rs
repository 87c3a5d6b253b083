//! The repo-specific lint rules and their scope matrix.
//!
//! Each lint is a pure function over a scanned token stream; scope
//! (which roles and crates it applies to) lives in the [`LintSpec`]
//! registry so `check_file` can apply the matrix uniformly and the CLI can
//! print it.

use crate::lexer::{ScannedFile, Token, TokenKind};
use crate::report::Finding;
use crate::walk::{Role, SourceFile};

/// A lint's identity and scope.
pub struct LintSpec {
    /// Stable identifier, used in reports and `allow(...)` directives.
    pub name: &'static str,
    /// One-line description for `dcb-audit lints`.
    pub summary: &'static str,
    /// Roles the lint applies to.
    pub roles: &'static [Role],
    /// Crates exempt from the lint (directory names under `crates/`).
    pub exempt_crates: &'static [&'static str],
    /// Whether `#[cfg(test)]` regions inside otherwise-covered files are
    /// skipped.
    pub skip_in_test: bool,
    check: fn(&[Token]) -> Vec<(u32, String)>,
}

/// Every lint, in report order.
#[must_use]
pub fn all() -> Vec<LintSpec> {
    vec![
        LintSpec {
            name: "unit-leak",
            summary: "raw f64 carrying power/energy/money outside crates/units (use the typed quantities)",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["units"],
            skip_in_test: true,
            check: unit_leak,
        },
        LintSpec {
            name: "float-cmp",
            summary: "exact ==/!= against floating-point values (use tolerances or total_cmp)",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &[],
            skip_in_test: true,
            check: float_cmp,
        },
        LintSpec {
            name: "hash-container",
            summary: "HashMap/HashSet iteration order is nondeterministic in result paths (use BTreeMap/Vec; dcb-fleet owns the one sanctioned cache)",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["fleet"],
            skip_in_test: true,
            check: hash_container,
        },
        LintSpec {
            name: "time-source",
            summary: "Instant/SystemTime reads make results wall-clock dependent (benches are exempt by role; dcb-telemetry owns the one sanctioned clock, quarantined as volatile)",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["telemetry"],
            skip_in_test: true,
            check: time_source,
        },
        LintSpec {
            name: "thread-spawn",
            summary: "ad-hoc threads outside dcb-fleet bypass the deterministic pool",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["fleet"],
            skip_in_test: true,
            check: thread_spawn,
        },
        LintSpec {
            name: "stepped-sim",
            summary: "the fixed-step oracle (run_stepped and friends) outside crates/sim; production paths go through the event kernel (tests and benches are exempt by role)",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["sim"],
            skip_in_test: true,
            check: stepped_sim,
        },
        LintSpec {
            name: "kernel-internals",
            summary: "sim-kernel-private machinery (the RunState accumulator, the stepper's StepWorld) outside crates/sim; model crates consume the facade (run/run_trajectory) only (tests and benches are exempt by role)",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["sim"],
            skip_in_test: true,
            check: kernel_internals,
        },
        LintSpec {
            name: "telemetry-in-result",
            summary: "reading telemetry values (Snapshot, dcb_telemetry::snapshot/report) inside model code lets observability feed back into results; only report edges (bench) may read",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["telemetry", "bench", "audit"],
            skip_in_test: true,
            check: telemetry_in_result,
        },
        LintSpec {
            name: "trace-in-result",
            summary: "reading the flight recorder (dcb_trace::drain/capture/chrome/timeline) inside model code lets tracing feed back into results; recording (instant/complete/lane_scope) is always fine",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["trace", "bench", "audit"],
            skip_in_test: true,
            check: trace_in_result,
        },
        LintSpec {
            name: "prof-in-result",
            summary: "reading the work-attribution profiler (dcb_prof::snapshot/reset, the Profile type, the collapsed/svg exporters) inside model code lets profiling feed back into results; recording (frame/record/handoff/enter) is always fine",
            roles: &[Role::Library, Role::Binary],
            exempt_crates: &["prof", "bench", "audit"],
            skip_in_test: true,
            check: prof_in_result,
        },
        LintSpec {
            name: "panic-site",
            summary: "unwrap/expect/panic!/todo!/unimplemented! in library code (return Results or document `# Panics` and allow)",
            roles: &[Role::Library],
            exempt_crates: &[],
            skip_in_test: true,
            check: panic_site,
        },
    ]
}

/// Runs every applicable lint over one scanned file, honoring the scope
/// matrix and inline `allow` directives. Findings come back sorted by
/// line, then lint name.
#[must_use]
pub fn check_file(file: &SourceFile, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for spec in all() {
        if !spec.roles.contains(&file.role) {
            continue;
        }
        if spec.exempt_crates.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (line, message) in (spec.check)(&scanned.tokens) {
            if spec.skip_in_test && token_line_in_test(&scanned.tokens, line) {
                continue;
            }
            if scanned.allowed(spec.name, line) {
                continue;
            }
            findings.push(Finding {
                lint: spec.name,
                file: file.rel.clone(),
                line,
                message,
            });
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.lint.cmp(b.lint)));
    findings
}

/// Whether any token on `line` is inside a `#[cfg(test)]` region. Lints
/// report the line of the token they matched, so this is a faithful
/// in-test check for the match site.
fn token_line_in_test(tokens: &[Token], line: u32) -> bool {
    tokens.iter().any(|t| t.line == line && t.in_test)
}

/// Identifier segments that mark a binding as carrying a physical unit.
/// Time words are deliberately excluded (durations-as-f64-minutes are a
/// deliberate API surface in the TCO layer), as is `cost` (normalized
/// costs are genuinely dimensionless).
const UNIT_WORDS: [&str; 17] = [
    "w",
    "watt",
    "watts",
    "kw",
    "mw",
    "kilowatt",
    "kilowatts",
    "megawatt",
    "megawatts",
    "wh",
    "kwh",
    "mwh",
    "joule",
    "joules",
    "dollar",
    "dollars",
    "usd",
];

fn has_unit_word(ident: &str) -> bool {
    ident
        .split('_')
        .any(|seg| UNIT_WORDS.contains(&seg.to_ascii_lowercase().as_str()))
}

/// Whether the tokens starting at `start` denote an `f64` type, tolerating
/// a few wrapper tokens (`&`, `mut`, `Option`, `Vec`, `<`, lifetimes).
fn is_f64_type_at(tokens: &[Token], start: usize) -> Option<u32> {
    let mut j = start;
    let limit = start + 6;
    while j < tokens.len() && j <= limit {
        let t = &tokens[j];
        if t.kind.is_ident("f64") {
            return Some(t.line);
        }
        let skippable = t.kind.is_op("&")
            || t.kind.is_op("<")
            || t.kind.is_ident("mut")
            || t.kind.is_ident("Option")
            || t.kind.is_ident("Vec")
            || matches!(t.kind, TokenKind::Lifetime(_));
        if !skippable {
            return None;
        }
        j += 1;
    }
    None
}

/// `unit-leak`: `<unit_ident>: f64` bindings and `fn <unit_ident>(..) -> f64`
/// signatures outside `crates/units`.
fn unit_leak(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.kind.ident() else { continue };
        if !has_unit_word(name) {
            continue;
        }
        // `name : f64` — field, argument, or local with a type ascription.
        if tokens.get(i + 1).is_some_and(|n| n.kind.is_op(":"))
            && is_f64_type_at(tokens, i + 2).is_some()
        {
            out.push((
                t.line,
                format!("`{name}: f64` carries a physical unit as a bare float; use the dcb-units quantity type"),
            ));
            continue;
        }
        // `fn name(...) -> f64`.
        if i > 0 && tokens[i - 1].kind.is_ident("fn") {
            let mut j = i + 1;
            let limit = j + 60;
            while j < tokens.len() && j <= limit {
                let k = &tokens[j].kind;
                if k.is_op("{") || k.is_op(";") {
                    break;
                }
                if k.is_op("->") {
                    if let Some(line) = is_f64_type_at(tokens, j + 1) {
                        out.push((
                            line,
                            format!("`fn {name}(..) -> f64` returns a physical unit as a bare float; use the dcb-units quantity type"),
                        ));
                    }
                    break;
                }
                j += 1;
            }
        }
    }
    out
}

/// `float-cmp`: `==`/`!=` whose immediate operand is a float literal or a
/// `.value()` quantity read.
fn float_cmp(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let op = match &t.kind {
            TokenKind::Op(s) if s == "==" || s == "!=" => s.clone(),
            _ => continue,
        };
        let left_float = i > 0 && tokens[i - 1].kind.is_float();
        let left_value_call = i >= 3
            && tokens[i - 1].kind.is_op(")")
            && tokens[i - 2].kind.is_op("(")
            && tokens[i - 3].kind.is_ident("value");
        let right_float = tokens.get(i + 1).is_some_and(|n| n.kind.is_float());
        if left_float || left_value_call || right_float {
            out.push((
                t.line,
                format!(
                    "exact `{op}` on a floating-point value; compare with a tolerance or total_cmp"
                ),
            ));
        }
    }
    out
}

/// `hash-container`: any mention of `HashMap`/`HashSet`.
fn hash_container(tokens: &[Token]) -> Vec<(u32, String)> {
    tokens
        .iter()
        .filter_map(|t| {
            let name = t.kind.ident()?;
            (name == "HashMap" || name == "HashSet").then(|| {
                (
                    t.line,
                    format!("`{name}` iteration order is nondeterministic; use BTreeMap/Vec in result paths"),
                )
            })
        })
        .collect()
}

/// `time-source`: any mention of `Instant`/`SystemTime`.
fn time_source(tokens: &[Token]) -> Vec<(u32, String)> {
    tokens
        .iter()
        .filter_map(|t| {
            let name = t.kind.ident()?;
            (name == "Instant" || name == "SystemTime").then(|| {
                (
                    t.line,
                    format!("`{name}` makes results depend on the wall clock; model time must flow through simulated Seconds"),
                )
            })
        })
        .collect()
}

/// `thread-spawn`: `thread::spawn`/`thread::scope` outside dcb-fleet.
fn thread_spawn(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].kind.is_ident("thread")
            && tokens[i + 1].kind.is_op("::")
            && tokens[i + 2]
                .kind
                .ident()
                .is_some_and(|n| n == "spawn" || n == "scope")
        {
            out.push((
                tokens[i].line,
                "ad-hoc thread creation bypasses the deterministic dcb-fleet pool".to_owned(),
            ));
        }
    }
    out
}

/// `stepped-sim`: any call to the fixed-step differential oracle
/// (`run_stepped`, `run_with_backup_stepped`, `run_with_backup_stepped_at`)
/// outside the sim crate itself.
fn stepped_sim(tokens: &[Token]) -> Vec<(u32, String)> {
    tokens
        .iter()
        .filter_map(|t| {
            let name = t.kind.ident()?;
            (name.starts_with("run_stepped") || name.starts_with("run_with_backup_stepped"))
                .then(|| {
                    (
                        t.line,
                        format!("`{name}` is the differential oracle; production code calls the event kernel (`run`/`run_with_backup`)"),
                    )
                })
        })
        .collect()
}

/// `kernel-internals`: sim-kernel-private machinery — the `RunState`
/// accumulator or the fixed-step oracle's `StepWorld` — referenced
/// outside the sim crate.
fn kernel_internals(tokens: &[Token]) -> Vec<(u32, String)> {
    tokens
        .iter()
        .filter_map(|t| {
            let name = t.kind.ident()?;
            matches!(name, "RunState" | "StepWorld").then(|| {
                (
                    t.line,
                    format!("`{name}` is sim-kernel-internal; model crates consume the `OutageSim` facade (`run`/`run_trajectory`)"),
                )
            })
        })
        .collect()
}

/// `telemetry-in-result`: reads of telemetry state — the `Snapshot` type,
/// or `dcb_telemetry::snapshot`/`report`/`report_with` — in model code.
/// Recording (counter!/histogram!/span) is always fine; *reading* values
/// back is fenced to the report edges so observability can never steer a
/// result.
fn telemetry_in_result(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.kind.ident() else { continue };
        if name == "Snapshot" {
            out.push((
                t.line,
                "telemetry `Snapshot` in model code; metric values may only be read at report edges (bench)".to_owned(),
            ));
            continue;
        }
        if name == "dcb_telemetry"
            && tokens.get(i + 1).is_some_and(|n| n.kind.is_op("::"))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind
                    .ident()
                    .is_some_and(|f| f == "snapshot" || f == "report" || f == "report_with")
            })
        {
            let read = tokens[i + 2].kind.ident().unwrap_or_default();
            out.push((
                t.line,
                format!("`dcb_telemetry::{read}` reads telemetry back into model code; only report edges (bench) may read"),
            ));
        }
    }
    out
}

/// `trace-in-result`: reads of flight-recorder state —
/// `dcb_trace::drain`/`capture`/`reset`/`dropped` or the `chrome`/`timeline`
/// exporter modules — in model code. Recording into the ring
/// (`instant`/`complete`/`claim_lanes`/`lane_scope`/`micros`/`enabled`)
/// is always fine; *reading* events back is fenced to the report edges so
/// tracing can never steer a result.
fn trace_in_result(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.kind.is_ident("dcb_trace") {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.kind.is_op("::")) {
            continue;
        }
        let Some(read) = tokens.get(i + 2).and_then(|n| n.kind.ident()) else {
            continue;
        };
        if matches!(
            read,
            "drain" | "capture" | "reset" | "dropped" | "chrome" | "timeline"
        ) {
            out.push((
                t.line,
                format!("`dcb_trace::{read}` reads the flight recorder back into model code; only report edges (bench) may read"),
            ));
        }
    }
    out
}

/// `prof-in-result`: reads of work-attribution state — the `Profile`
/// tree type, `dcb_prof::snapshot`/`reset`, or the `collapsed`/`svg`
/// exporter modules — in model code. Recording into the
/// attribution arena (`frame`/`record`/`handoff`/`enter`/`enabled`) is
/// always fine; *reading* the tree back is fenced to the report edges so
/// profiling can never steer a result.
fn prof_in_result(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.kind.ident() else { continue };
        if name == "Profile" || name == "ProfNode" {
            out.push((
                t.line,
                format!("profiler `{name}` in model code; attribution trees may only be read at report edges (bench)"),
            ));
            continue;
        }
        if name == "dcb_prof"
            && tokens.get(i + 1).is_some_and(|n| n.kind.is_op("::"))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind
                    .ident()
                    .is_some_and(|f| matches!(f, "snapshot" | "reset" | "collapsed" | "svg"))
            })
        {
            let read = tokens[i + 2].kind.ident().unwrap_or_default();
            out.push((
                t.line,
                format!("`dcb_prof::{read}` reads the profiler back into model code; only report edges (bench) may read"),
            ));
        }
    }
    out
}

/// `panic-site`: `.unwrap(`, `.expect(`, `panic!`, `todo!`,
/// `unimplemented!` in library code.
fn panic_site(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        // `. unwrap (` / `. expect (`
        if i + 2 < tokens.len() && tokens[i].kind.is_op(".") && tokens[i + 2].kind.is_op("(") {
            if let Some(name) = tokens[i + 1].kind.ident() {
                if name == "unwrap" || name == "expect" {
                    out.push((
                        tokens[i + 1].line,
                        format!("`.{name}(...)` can panic in library code; return a Result or document `# Panics` and allow"),
                    ));
                    continue;
                }
            }
        }
        // `panic !` / `todo !` / `unimplemented !`
        if i + 1 < tokens.len() && tokens[i + 1].kind.is_op("!") {
            if let Some(name) = tokens[i].kind.ident() {
                if name == "panic" || name == "todo" || name == "unimplemented" {
                    out.push((
                        tokens[i].line,
                        format!("`{name}!` aborts library callers; return a Result or document `# Panics` and allow"),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use std::path::PathBuf;

    fn lib_file() -> SourceFile {
        SourceFile {
            path: PathBuf::from("crates/x/src/lib.rs"),
            rel: "crates/x/src/lib.rs".to_owned(),
            role: Role::Library,
            crate_name: "x".to_owned(),
        }
    }

    fn check(src: &str) -> Vec<Finding> {
        check_file(&lib_file(), &scan(src))
    }

    #[test]
    fn unit_leak_field_and_signature() {
        let findings = check("struct S { peak_watts: f64 }\nfn dollars_spent() -> f64 { 0.0 }");
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.lint == "unit-leak"));
        // Wrapped types still count; unitless names do not.
        assert_eq!(check("fn f(kwh: Option<f64>) {}").len(), 1);
        assert!(check("fn f(ratio: f64) {}").is_empty());
        assert!(check("fn f(minutes_per_year: f64) {}").is_empty());
    }

    #[test]
    fn float_cmp_literals_and_value_calls() {
        assert_eq!(check("fn f() { let _ = x == 1.0; }").len(), 1);
        assert_eq!(check("fn f() { let _ = a.value() != b; }").len(), 1);
        assert!(check("fn f() { let _ = n == 3; }").is_empty());
        assert!(check("fn f() { let _ = x <= 1.0; }").is_empty());
    }

    #[test]
    fn determinism_lints() {
        assert_eq!(check("use std::collections::HashMap;").len(), 1);
        assert_eq!(check("fn f() { let t = Instant::now(); }").len(), 1);
        assert_eq!(check("fn f() { thread::spawn(|| {}); }").len(), 1);
        // thread::sleep is not a spawn.
        assert!(check("fn f() { thread::sleep(d); }").is_empty());
    }

    #[test]
    fn stepped_sim_oracle_calls() {
        assert_eq!(check("fn f() { sim.run_stepped(d); }").len(), 1);
        assert_eq!(
            check("fn f() { sim.run_with_backup_stepped_at(d, &mut b, dt); }").len(),
            1
        );
        // The kernel entry points are what production code should call.
        assert!(check("fn f() { sim.run(d); }").is_empty());
        assert!(check("fn f() { sim.run_with_backup(d, &mut b); }").is_empty());
        // Inside crates/sim the oracle is at home.
        let mut f = lib_file();
        f.crate_name = "sim".to_owned();
        assert!(check_file(&f, &scan("fn f() { sim.run_stepped(d); }")).is_empty());
        // Benches are exempt by role (they measure the oracle on purpose).
        let mut f = lib_file();
        f.role = Role::Bench;
        assert!(check_file(&f, &scan("fn f() { sim.run_stepped(d); }")).is_empty());
    }

    #[test]
    fn kernel_internals_are_fenced() {
        assert_eq!(check("fn f(st: &RunState) {}").len(), 1);
        assert_eq!(check("fn f(w: &mut StepWorld) {}").len(), 1);
        // The facade is what model crates should consume.
        assert!(check("fn f() { let t = sim.run_trajectory(d); }").is_empty());
        // Inside crates/sim the machinery is at home.
        let mut f = lib_file();
        f.crate_name = "sim".to_owned();
        assert!(check_file(&f, &scan("fn f(st: &RunState) {}")).is_empty());
    }

    #[test]
    fn telemetry_reads_are_fenced() {
        assert_eq!(
            check("fn f() { let s = dcb_telemetry::snapshot(); }").len(),
            1
        );
        assert_eq!(
            check("fn f() { let _ = dcb_telemetry::report(); }").len(),
            1
        );
        assert_eq!(check("fn f(s: &Snapshot) {}").len(), 1);
        // Recording is not a read.
        assert!(check("fn f() { dcb_telemetry::counter!(\"x\").incr(); }").is_empty());
        assert!(check("fn f() { let _g = dcb_telemetry::span(\"x\"); }").is_empty());
        // The report edge is exempt by crate.
        let mut f = lib_file();
        f.crate_name = "bench".to_owned();
        assert!(check_file(&f, &scan("fn f() { let _ = dcb_telemetry::report(); }")).is_empty());
    }

    #[test]
    fn trace_reads_are_fenced() {
        assert_eq!(
            check("fn f() { let events = dcb_trace::drain(); }").len(),
            1
        );
        assert_eq!(
            check("fn f() { let (r, ev) = dcb_trace::capture(|| g()); }").len(),
            1
        );
        assert_eq!(
            check("fn f() { let doc = dcb_trace::chrome::export(&ev); }").len(),
            1
        );
        // Recording is not a read.
        assert!(check("fn f() { dcb_trace::instant(None, None, || k()); }").is_empty());
        assert!(check("fn f() { let _g = dcb_trace::lane_scope(lane); }").is_empty());
        assert!(check("fn f() { if dcb_trace::enabled() { g(); } }").is_empty());
        // The report edge is exempt by crate.
        let mut f = lib_file();
        f.crate_name = "bench".to_owned();
        assert!(check_file(&f, &scan("fn f() { let _ = dcb_trace::drain(); }")).is_empty());
    }

    #[test]
    fn prof_reads_are_fenced() {
        assert_eq!(check("fn f() { let p = dcb_prof::snapshot(); }").len(), 1);
        assert_eq!(check("fn f() { dcb_prof::reset(); }").len(), 1);
        assert_eq!(
            check("fn f(p: &Profile) -> String { dcb_prof::collapsed::render(p) }").len(),
            2
        );
        // Recording is not a read.
        assert!(check("fn f() { let _g = dcb_prof::frame(\"phase\"); }").is_empty());
        assert!(check("fn f() { dcb_prof::record(dcb_prof::WorkKind::Cycles, 1); }").is_empty());
        assert!(check("fn f(h: &dcb_prof::Handoff) { let _g = dcb_prof::enter(h); }").is_empty());
        assert!(check("fn f() { if dcb_prof::enabled() { g(); } }").is_empty());
        // The report edge is exempt by crate.
        let mut f = lib_file();
        f.crate_name = "bench".to_owned();
        assert!(check_file(&f, &scan("fn f() { let _ = dcb_prof::snapshot(); }")).is_empty());
    }

    #[test]
    fn panic_sites() {
        assert_eq!(check("fn f() { x.unwrap(); }").len(), 1);
        assert_eq!(check("fn f() { x.expect(\"msg\"); }").len(), 1);
        assert_eq!(check("fn f() { panic!(\"boom\"); }").len(), 1);
        // Non-panicking relatives stay clean.
        assert!(check("fn f() { x.unwrap_or(0); }").is_empty());
        assert!(check("fn f() { x.unwrap_or_else(g); }").is_empty());
        assert!(check("fn f() { assert!(ok); }").is_empty());
    }

    #[test]
    fn scope_matrix_applies() {
        // Panic sites in test files are fine.
        let mut f = lib_file();
        f.role = Role::Test;
        assert!(check_file(&f, &scan("fn f() { x.unwrap(); }")).is_empty());
        // HashMap inside dcb-fleet is sanctioned.
        let mut f = lib_file();
        f.crate_name = "fleet".to_owned();
        assert!(check_file(&f, &scan("use std::collections::HashMap;")).is_empty());
        // f64 inside crates/units is the implementation substrate.
        let mut f = lib_file();
        f.crate_name = "units".to_owned();
        assert!(check_file(&f, &scan("struct Watts { watts: f64 }")).is_empty());
        // Unit-test modules inside library files are skipped.
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_and_is_lint_specific() {
        let allowed =
            "// dcb-audit: allow(panic-site, infallible by construction)\nfn f() { x.unwrap(); }";
        assert!(check(allowed).is_empty());
        let wrong_lint = "// dcb-audit: allow(float-cmp, nope)\nfn f() { x.unwrap(); }";
        assert_eq!(check(wrong_lint).len(), 1);
    }

    #[test]
    fn registry_names_are_unique_and_documented() {
        let specs = all();
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
        assert!(specs.iter().all(|s| !s.summary.is_empty()));
    }
}
