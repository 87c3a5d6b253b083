//! The repo-specific lint rules and their scope.
//!
//! Each lint is a pure function over a scanned token stream. Every lint
//! covers library and binary code outside `#[cfg(test)]`; a [`LintSpec`]
//! names the crates exempt from it, so `check_file` can apply the scope
//! uniformly and the CLI can print it. Rules that rustc or clippy can
//! check (visibility, disallowed types and methods, panicking shortcuts)
//! live there, not here.

use crate::lexer::{ScannedFile, Token, TokenKind};
use crate::report::Finding;
use crate::walk::{Role, SourceFile};

/// A lint's identity and scope.
pub struct LintSpec {
    /// Stable identifier, used in reports and `allow(...)` directives.
    pub name: &'static str,
    /// One-line description for `dcb-audit lints`.
    pub summary: &'static str,
    /// Crates exempt from the lint (directory names under `crates/`).
    pub exempt_crates: &'static [&'static str],
    check: fn(&[Token]) -> Vec<(u32, String)>,
}

/// Every lint, in report order.
#[must_use]
pub fn all() -> Vec<LintSpec> {
    vec![
        LintSpec {
            name: "unit-leak",
            summary: "raw f64 carrying power/energy/money outside crates/units (use the typed quantities)",
            exempt_crates: &["units"],
            check: unit_leak,
        },
        LintSpec {
            name: "float-cmp",
            summary: "exact ==/!= against floating-point values (use tolerances or total_cmp)",
            exempt_crates: &[],
            check: float_cmp,
        },
        LintSpec {
            name: "stepped-sim",
            summary: "the fixed-step oracle (run_stepped and friends) outside crates/sim; production paths go through the event kernel",
            exempt_crates: &["sim"],
            check: stepped_sim,
        },
        LintSpec {
            name: "observe-in-result",
            summary: "reading an observability plane back (telemetry Snapshot/snapshot/report, trace drain/capture/chrome/timeline, prof Profile/snapshot/collapsed/svg) inside model code lets observation feed back into results; recording is always fine, and only report edges (bench) may read",
            exempt_crates: &["telemetry", "trace", "prof", "bench", "audit"],
            check: observe_in_result,
        },
    ]
}

/// Runs every applicable lint over one scanned file, honoring the scope
/// (library and binary code outside `#[cfg(test)]`, minus exempt crates)
/// and inline `allow` directives. Findings come back sorted by line, then
/// lint name.
#[must_use]
pub fn check_file(file: &SourceFile, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !matches!(file.role, Role::Library | Role::Binary) {
        return findings;
    }
    for spec in all() {
        if spec.exempt_crates.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (line, message) in (spec.check)(&scanned.tokens) {
            if token_line_in_test(&scanned.tokens, line) || scanned.allowed(spec.name, line) {
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

/// One observability plane's read surface: the types that hold values
/// read back out of it, and the `<plane>::<item>` paths that read them.
/// Recording entry points are absent on purpose.
struct ReadSurface {
    plane: &'static str,
    types: &'static [&'static str],
    reads: &'static [&'static str],
    what: &'static str,
}

/// The three planes the `observe-in-result` fence guards.
const READ_SURFACES: [ReadSurface; 3] = [
    ReadSurface {
        plane: "dcb_telemetry",
        types: &["Snapshot"],
        reads: &["snapshot", "report", "report_with"],
        what: "telemetry",
    },
    ReadSurface {
        plane: "dcb_trace",
        types: &[],
        reads: &["drain", "capture", "reset", "dropped", "chrome", "timeline"],
        what: "the flight recorder",
    },
    ReadSurface {
        plane: "dcb_prof",
        types: &["Profile", "ProfNode"],
        reads: &["snapshot", "reset", "collapsed", "svg"],
        what: "the profiler",
    },
];

/// `observe-in-result`: reads of telemetry, flight-recorder or profiler
/// state in model code — a read-back type by name, or a read path such as
/// `dcb_trace::drain` or the `dcb_prof::collapsed` exporter. Recording
/// (`counter!`, `span`, `instant`, `frame`, `record`, ...) is always fine;
/// *reading* back is fenced to the report edges so observation can never
/// steer a result.
fn observe_in_result(tokens: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.kind.ident() else { continue };
        for surface in &READ_SURFACES {
            if surface.types.contains(&name) {
                out.push((
                    t.line,
                    format!("`{name}` holds {} values in model code; only report edges (bench) may read them", surface.what),
                ));
            } else if name == surface.plane && tokens.get(i + 1).is_some_and(|n| n.kind.is_op("::"))
            {
                if let Some(read) = tokens
                    .get(i + 2)
                    .and_then(|n| n.kind.ident())
                    .filter(|read| surface.reads.contains(read))
                {
                    out.push((
                        t.line,
                        format!("`{name}::{read}` reads {} back into model code; only report edges (bench) may read", surface.what),
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
    fn observability_reads_are_fenced() {
        for read in [
            "fn f() { let s = dcb_telemetry::snapshot(); }",
            "fn f() { let _ = dcb_telemetry::report(); }",
            "fn f(s: &Snapshot) {}",
            "fn f() { let events = dcb_trace::drain(); }",
            "fn f() { let (r, ev) = dcb_trace::capture(|| g()); }",
            "fn f() { let doc = dcb_trace::chrome::export(&ev); }",
            "fn f() { let p = dcb_prof::snapshot(); }",
            "fn f() { dcb_prof::reset(); }",
            "fn f(p: &Profile) {}",
            "fn f() -> String { dcb_prof::collapsed::render(p) }",
        ] {
            let findings = check(read);
            assert_eq!(findings.len(), 1, "{read}: {findings:?}");
            assert_eq!(findings[0].lint, "observe-in-result");
        }
        // Recording is not a read.
        for record in [
            "fn f() { dcb_telemetry::counter!(\"x\").incr(); }",
            "fn f() { let _g = dcb_telemetry::span(\"x\"); }",
            "fn f() { dcb_trace::instant(None, None, || k()); }",
            "fn f() { let _g = dcb_trace::lane_scope(lane); }",
            "fn f() { if dcb_trace::enabled() { g(); } }",
            "fn f() { let _g = dcb_prof::frame(\"phase\"); }",
            "fn f() { dcb_prof::record(dcb_prof::WorkKind::Cycles, 1); }",
            "fn f(h: &dcb_prof::Handoff) { let _g = dcb_prof::enter(h); }",
        ] {
            assert!(check(record).is_empty(), "{record}");
        }
        // The report edge and the planes themselves are exempt by crate.
        for crate_name in ["bench", "telemetry", "trace", "prof"] {
            let mut f = lib_file();
            f.crate_name = crate_name.to_owned();
            let reads = "fn f() { let _ = (dcb_telemetry::report(), dcb_trace::drain(), dcb_prof::snapshot()); }";
            assert!(check_file(&f, &scan(reads)).is_empty(), "{crate_name}");
        }
    }

    #[test]
    fn scope_is_library_and_binary_code_outside_tests() {
        let src = "fn f() { let _ = x == 1.0; }";
        let mut f = lib_file();
        f.role = Role::Binary;
        assert_eq!(check_file(&f, &scan(src)).len(), 1);
        // Tests, benches and examples are out of scope.
        for role in [Role::Test, Role::Bench, Role::Example] {
            let mut f = lib_file();
            f.role = role;
            assert!(check_file(&f, &scan(src)).is_empty(), "{role:?}");
        }
        // f64 inside crates/units is the implementation substrate.
        let mut f = lib_file();
        f.crate_name = "units".to_owned();
        assert!(check_file(&f, &scan("struct Watts { watts: f64 }")).is_empty());
        // Unit-test modules inside library files are skipped.
        let src = "#[cfg(test)]\nmod tests { fn f() { let _ = x == 1.0; } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_and_is_lint_specific() {
        let allowed =
            "// dcb-audit: allow(float-cmp, exact sentinel by construction)\nfn f() { let _ = x == 1.0; }";
        assert!(check(allowed).is_empty());
        let wrong_lint = "// dcb-audit: allow(unit-leak, nope)\nfn f() { let _ = x == 1.0; }";
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
