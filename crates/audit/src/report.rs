//! Findings, what one audit run covered, and the run's text rendering.

use std::fmt::Write as _;

/// One hop of a finding's witness path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Workspace-relative path of the step's file.
    pub file: String,
    /// 1-based line number of the step.
    pub line: u32,
    /// What happens at this step (sink, call hop, or source).
    pub detail: String,
}

/// One finding of any check: a token lint, a call-graph pass or the
/// markdown-reference check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Check identifier (`unit-leak`, `determinism-taint`, `doc-ref`, ...).
    pub check: &'static str,
    /// Root-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What was found and why it is suspect.
    pub message: String,
    /// Source→sink (or boundary→origin) call path, primary site first;
    /// empty for token lints and doc references.
    pub path: Vec<PathStep>,
}

/// What the source walk covered.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Source files analyzed.
    pub files: usize,
    /// Crates with at least one definition, sorted.
    pub crates: Vec<String>,
    /// Function definitions recovered.
    pub fns: usize,
    /// Distinct type names seen.
    pub types: usize,
    /// Call sites seen.
    pub calls: usize,
    /// Call sites resolved to at least one workspace definition.
    pub resolved: usize,
    /// Call edges in the graph.
    pub edges: usize,
}

/// The result of one audit run.
#[derive(Debug, Default)]
pub struct Report {
    /// What the source walk covered.
    pub stats: Stats,
    /// Every finding, sorted by file, then line, then check.
    pub findings: Vec<Finding>,
}

/// Renders a run as text: one coverage line, then one
/// `path:line: [check] message` line per finding with its witness path
/// under it, then a summary line.
#[must_use]
pub fn render_text(report: &Report) -> String {
    let s = &report.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audit: {} files, {} crates, {} fns, {} types; {}/{} calls resolved into {} edges",
        s.files,
        s.crates.len(),
        s.fns,
        s.types,
        s.resolved,
        s.calls,
        s.edges,
    );
    for f in &report.findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.check, f.message);
        for (i, step) in f.path.iter().enumerate() {
            let _ = writeln!(
                out,
                "    #{} {}:{} {}",
                i + 1,
                step.file,
                step.line,
                step.detail
            );
        }
    }
    if report.findings.is_empty() {
        out.push_str("audit clean: no findings\n");
    } else {
        let _ = writeln!(
            out,
            "{} finding{} (suppress an intentional code site with `// dcb-audit: allow(<check>, reason)`)",
            report.findings.len(),
            if report.findings.len() == 1 { "" } else { "s" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_shape() {
        let step = |line| PathStep {
            file: "crates/x/src/lib.rs".to_owned(),
            line,
            detail: "hop".to_owned(),
        };
        let report = Report {
            stats: Stats::default(),
            findings: vec![Finding {
                check: "determinism-taint",
                file: "crates/x/src/lib.rs".to_owned(),
                line: 7,
                message: "wall-clock reaches a digest".to_owned(),
                path: vec![step(7), step(3)],
            }],
        };
        let text = render_text(&report);
        assert!(text.starts_with("audit: 0 files"), "{text}");
        assert!(
            text.contains("\ncrates/x/src/lib.rs:7: [determinism-taint] wall-clock"),
            "{text}"
        );
        assert!(
            text.contains("\n    #1 crates/x/src/lib.rs:7 hop\n"),
            "{text}"
        );
        assert!(
            text.contains("\n    #2 crates/x/src/lib.rs:3 hop\n"),
            "{text}"
        );
        assert!(text.contains("1 finding "), "{text}");
        assert!(render_text(&Report::default()).ends_with("audit clean: no findings\n"));
    }
}
