//! `dcb-audit`: the workspace invariant analyzer.
//!
//! One run ([`audit`], the CLI's `check`) walks every workspace source
//! file once ([`walk`]), lexes ([`lexer`]) and parses ([`parse`]) each
//! file once, and feeds every check from that:
//!
//! 1. **Token lints** ([`lints`]) enforce the modelling discipline neither
//!    rustc nor clippy can express — no raw `f64` power/energy/money
//!    outside `crates/units` (`unit-leak`), no exact float comparisons
//!    (`float-cmp`), and no observability reads in model code
//!    (`observe-in-result`). Hash containers, wall-clock reads, ad-hoc
//!    threads and panicking shortcuts are clippy's job: the root
//!    `clippy.toml` and `ci.sh`'s clippy stages (DESIGN.md §8).
//! 2. **Call-graph passes**: a workspace symbol table ([`symbols`]) and
//!    call graph ([`callgraph`]) link every crate, and two
//!    interprocedural passes chase what per-line lints cannot see:
//!    [`taint`] follows nondeterminism from source fns to determinism
//!    sinks (digests, snapshots, trace exporters) with full witness
//!    paths, and [`unitflow`] follows physical dimensions into raw-`f64`
//!    laundering boundaries.
//! 3. **Doc references** ([`docs`]): the top-level markdown
//!    cross-references — relative file links and `DESIGN.md §N` section
//!    pointers — must resolve.
//!
//! Every check reports through one [`report::Finding`] and one text
//! renderer. Intentional code sites carry an inline `// dcb-audit:
//! allow(<check>, reason)` directive; a directive directly above an item
//! covers its whole body ([`parse`]).
//!
//! A second command, `sweep` ([`sweep`]), force-enables the `dcb-units`
//! `contract!` invariants through the battery, power, availability, and
//! cost models and replays the paper's Table 3 / Figure 5–6 evaluation
//! surface under them.
//!
//! The analyzer holds itself to its own rules: no panicking paths (errors
//! are data), `BTreeMap`/`Vec` only, no wall-clock reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod docs;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;
pub mod sweep;
pub mod symbols;
pub mod taint;
pub mod unitflow;
pub mod walk;

use lexer::ScannedFile;
use parse::ParsedFile;
use report::{Finding, Report, Stats};
use std::fmt;
use std::path::Path;
use symbols::SymbolTable;
use walk::{SourceFile, WalkError};

/// Errors from an audit run. Data, not panics, so callers choose the
/// exit path.
#[derive(Debug)]
pub enum AuditError {
    /// Traversal failed.
    Walk(WalkError),
    /// A source or documentation file could not be read.
    Read(String, std::io::Error),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Walk(e) => write!(f, "walk failed: {e}"),
            AuditError::Read(path, e) => write!(f, "cannot read {path}: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<WalkError> for AuditError {
    fn from(e: WalkError) -> Self {
        AuditError::Walk(e)
    }
}

/// Audits the workspace under `root`: every check over every source file,
/// and the doc references of the top-level markdown files.
///
/// # Errors
///
/// Returns [`AuditError`] if the tree cannot be walked or a file read.
pub fn audit(root: &Path) -> Result<Report, AuditError> {
    let mut inputs = Vec::new();
    for file in walk::walk(root)? {
        let text = std::fs::read_to_string(&file.path)
            .map_err(|e| AuditError::Read(file.rel.clone(), e))?;
        inputs.push((file, text));
    }
    let mut report = audit_sources(inputs);
    report.findings.extend(docs::check(root)?);
    sort(&mut report.findings);
    Ok(report)
}

/// Runs the token lints and both call-graph passes over already-loaded
/// sources (the fixture tests use this entry point; [`audit`] feeds it
/// the walked workspace).
#[must_use]
pub fn audit_sources(inputs: Vec<(SourceFile, String)>) -> Report {
    let mut findings = Vec::new();
    let mut pairs: Vec<(SourceFile, ParsedFile)> = Vec::with_capacity(inputs.len());
    let mut scanned: Vec<ScannedFile> = Vec::with_capacity(inputs.len());
    for (file, text) in inputs {
        let (sc, parsed) = lex_and_parse(&text);
        findings.extend(lints::check_file(&file, &sc));
        pairs.push((file, parsed));
        scanned.push(sc);
    }
    let table = SymbolTable::build(&pairs);
    let graph = callgraph::build(&table);
    findings.extend(taint::run(&table, &graph, &scanned).into_values());
    findings.extend(unitflow::run(&table, &graph, &scanned).into_values());
    sort(&mut findings);
    Report {
        stats: Stats {
            files: pairs.len(),
            crates: table.crates(),
            fns: table.fns.len(),
            types: table.types.len(),
            calls: graph.calls,
            resolved: graph.resolved,
            edges: graph.edges.len(),
        },
        findings,
    }
}

/// Runs the token lints over one already-loaded source file.
#[must_use]
pub fn check_source(file: &SourceFile, source: &str) -> Vec<Finding> {
    lints::check_file(file, &lex_and_parse(source).0)
}

/// Lexes and parses one file. Allow directives that sit directly above
/// an item are widened to cover the whole item.
fn lex_and_parse(source: &str) -> (ScannedFile, ParsedFile) {
    let mut scanned = lexer::scan(source);
    let parsed = parse::parse(&scanned.tokens);
    parse::expand_allows(&parsed, &mut scanned.allows);
    (scanned, parsed)
}

/// Sorts by file, then line, then check; stable, so the graph passes'
/// key order survives among equal sites.
fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.check.cmp(b.check))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn check_source_end_to_end() {
        let file = walk::SourceFile {
            path: PathBuf::from("crates/x/src/lib.rs"),
            rel: "crates/x/src/lib.rs".to_owned(),
            role: walk::Role::Library,
            crate_name: "x".to_owned(),
        };
        let findings = check_source(
            &file,
            "fn grid_watts() -> f64 { if x == 1.0 { dcb_trace::drain() } else { 0.0 } }",
        );
        let checks: Vec<&str> = findings.iter().map(|f| f.check).collect();
        assert_eq!(checks, vec!["float-cmp", "observe-in-result", "unit-leak"]);
    }

    #[test]
    fn missing_root_is_an_error_not_a_panic() {
        let err = audit(Path::new("/nonexistent/dcb-audit-root"));
        assert!(matches!(err, Err(AuditError::Walk(_))));
    }
}
