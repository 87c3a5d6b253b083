//! `dcb-audit`: the workspace invariant analyzer.
//!
//! Three layers keep the reproduction honest:
//!
//! 1. **Static lints** ([`lints`]): a hand-rolled token scanner
//!    ([`lexer`]) walks every workspace source file ([`walk`]) and
//!    enforces the modelling discipline neither rustc nor clippy can
//!    express — no raw `f64` power/energy/money outside `crates/units`
//!    (`unit-leak`), no exact float comparisons (`float-cmp`), no
//!    fixed-step oracle in production paths (`stepped-sim`), and no
//!    observability reads in model code (`observe-in-result`).
//!    Intentional sites carry an inline `// dcb-audit: allow(<lint>,
//!    reason)` directive; a directive directly above an item covers its
//!    whole body ([`parse`]). Hash containers, wall-clock reads, ad-hoc
//!    threads and panicking shortcuts are clippy's job: the root
//!    `clippy.toml` and `ci.sh`'s clippy stages (DESIGN.md §8).
//! 2. **Semantic passes** ([`graph`]): a token-tree parser ([`parse`])
//!    recovers item structure, a workspace symbol table ([`symbols`])
//!    and call graph ([`callgraph`]) link every crate, and two
//!    interprocedural passes chase what per-line lints cannot see:
//!    [`taint`] follows nondeterminism from source fns to determinism
//!    sinks (digests, snapshots, trace exporters) with full witness
//!    paths, and [`unitflow`] follows physical dimensions into raw-`f64`
//!    laundering boundaries. Findings ratchet through a committed
//!    [`baseline`] (`audit.baseline.json`) — only *new* findings fail.
//! 3. **Dynamic contracts** ([`sweep`]): the `dcb-units` `contract!`
//!    invariants through the battery, power, availability, and cost models
//!    are force-enabled and the paper's Table 3 / Figure 5–6 evaluation
//!    surface is replayed under them.
//!
//! A fourth, smaller layer keeps the *prose* honest: [`docs`] verifies
//! the top-level markdown cross-references — relative file links and
//! `DESIGN.md §N` section pointers — against what actually exists.
//!
//! The `dcb-audit` binary fronts all of it: `check` (exit 1 on findings),
//! `graph` (exit 1 on new findings vs the baseline), `lints` (print the
//! rules), `sweep` (exit 1 on violations), `docs` (exit 1 on
//! broken references).
//!
//! The analyzer holds itself to its own rules: no panicking paths (errors
//! are data), `BTreeMap`/`Vec` only, no wall-clock reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod docs;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;
pub mod sweep;
pub mod symbols;
pub mod taint;
pub mod unitflow;
pub mod walk;

use report::Finding;
use std::fmt;
use std::path::Path;
use walk::WalkError;

/// Errors from a workspace check. Data, not panics, so callers choose the
/// exit path.
#[derive(Debug)]
pub enum AuditError {
    /// Traversal failed.
    Walk(WalkError),
    /// A source file could not be read.
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

/// Checks every workspace source file under `root` and returns the
/// findings, sorted by file, then line, then lint.
///
/// # Errors
///
/// Returns [`AuditError`] if the tree cannot be walked or a file read.
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, AuditError> {
    let mut findings = Vec::new();
    for file in walk::walk(root)? {
        let source = std::fs::read_to_string(&file.path)
            .map_err(|e| AuditError::Read(file.rel.clone(), e))?;
        findings.extend(check_source(&file, &source));
    }
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.lint.cmp(b.lint))
    });
    Ok(findings)
}

/// Checks one already-loaded source file (the self-test fixtures go
/// through this entry point). Allow directives that sit directly above an
/// item are widened to cover the whole item before the lints run.
#[must_use]
pub fn check_source(file: &walk::SourceFile, source: &str) -> Vec<Finding> {
    let mut scanned = lexer::scan(source);
    let parsed = parse::parse(&scanned.tokens);
    parse::expand_allows(&parsed, &mut scanned.allows);
    lints::check_file(file, &scanned)
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
            "fn grid_watts() -> f64 { if x == 1.0 { sim.run_stepped(d) } else { 0.0 } }",
        );
        let lints: Vec<&str> = findings.iter().map(|f| f.lint).collect();
        assert_eq!(lints, vec!["float-cmp", "stepped-sim", "unit-leak"]);
    }

    #[test]
    fn missing_root_is_an_error_not_a_panic() {
        let err = check_workspace(Path::new("/nonexistent/dcb-audit-root"));
        assert!(matches!(err, Err(AuditError::Walk(_))));
    }
}
