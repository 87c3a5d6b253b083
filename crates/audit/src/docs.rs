//! Documentation link checker.
//!
//! The repo's markdown docs cross-reference each other two ways: relative
//! file links (`[DESIGN.md](DESIGN.md)`) and section references into the
//! design document (`DESIGN.md §8`, or a bare `§8` inside DESIGN.md
//! itself). Both rot silently — a renamed file or a renumbered section
//! leaves a dangling pointer no compiler sees. This module walks the
//! repo-authored top-level docs and verifies:
//!
//! 1. every relative markdown link target exists on disk,
//! 2. every `#anchor` (pure or on a markdown target) resolves to a
//!    GitHub-style heading slug in the referenced document, and
//! 3. every `§N` design-section reference resolves to a `## N.` heading
//!    in DESIGN.md.
//!
//! Externally sourced context files (the paper text, related-work dumps,
//! the per-PR issue) are excluded: they cite the *paper's* sections and
//! external artifacts, not this repo's docs.

use crate::report::Finding;
use crate::AuditError;
use std::path::Path;

/// The check name doc-reference findings carry.
const CHECK: &str = "doc-ref";

/// Top-level markdown files whose cross-references we own and verify.
const DOC_FILES: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    "CHANGELOG.md",
    "ROADMAP.md",
];

fn finding(name: &str, line: usize, message: String) -> Finding {
    Finding {
        check: CHECK,
        file: name.to_owned(),
        line: u32::try_from(line).unwrap_or(u32::MAX),
        message,
        path: Vec::new(),
    }
}

/// Checks every repo-authored top-level doc under `root`. Missing doc
/// files are themselves findings (the set above is the contract), except
/// that an absent DESIGN.md turns section checking off rather than
/// cascading one finding per reference.
///
/// # Errors
///
/// Returns [`AuditError::Read`] if a present file cannot be read.
pub fn check(root: &Path) -> Result<Vec<Finding>, AuditError> {
    let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    let sections = design.as_deref().map(design_sections);
    let mut findings = Vec::new();
    for &name in DOC_FILES {
        let path = root.join(name);
        if !path.is_file() {
            findings.push(finding(
                name,
                1,
                "expected documentation file is missing".to_owned(),
            ));
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| AuditError::Read(name.to_owned(), e))?;
        findings.extend(check_links(root, name, &text));
        if let Some(sections) = &sections {
            findings.extend(check_section_refs(name, &text, sections));
        }
    }
    Ok(findings)
}

/// Extracts the section numbers of `## N.` headings ("## 8. Lints" → 8).
#[must_use]
pub fn design_sections(text: &str) -> Vec<u32> {
    let mut numbers = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("## ") else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if !digits.is_empty() && rest[digits.len()..].starts_with('.') {
            if let Ok(n) = digits.parse() {
                numbers.push(n);
            }
        }
    }
    numbers
}

/// GitHub-style anchor slugs for every markdown heading in `text`:
/// lowercase, spaces become hyphens, everything but `[a-z0-9_-]` is
/// dropped. Headings inside fenced code blocks are skipped (a `# comment`
/// in a shell snippet is not a heading). Duplicate-heading `-1` suffixes
/// are not modeled; the repo's docs keep headings unique.
#[must_use]
pub fn heading_slugs(text: &str) -> Vec<String> {
    let mut slugs = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let stripped = trimmed.trim_start_matches('#');
        let level = trimmed.len() - stripped.len();
        if level == 0 || !stripped.starts_with(' ') {
            continue;
        }
        let mut slug = String::new();
        for ch in stripped.trim().chars() {
            match ch {
                'A'..='Z' => slug.push(ch.to_ascii_lowercase()),
                'a'..='z' | '0'..='9' | '_' | '-' => slug.push(ch),
                ' ' => slug.push('-'),
                _ => {}
            }
        }
        slugs.push(slug);
    }
    slugs
}

/// Verifies every relative `[text](target)` link: the file part must exist
/// on disk, and a `#anchor` part must match a heading slug — of this doc
/// for pure-anchor targets, of the referenced markdown file otherwise.
/// External (`scheme://`, `mailto:`) targets are skipped.
fn check_links(root: &Path, name: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let own_slugs = heading_slugs(text);
    for (idx, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            let Some(close) = after.find(')') else {
                break;
            };
            let target = &after[..close];
            rest = &after[close + 1..];
            if target.contains("://")
                || target.starts_with("mailto:")
                || target.contains(char::is_whitespace)
            {
                continue;
            }
            let (file_part, anchor) = match target.split_once('#') {
                Some((file, anchor)) => (file, Some(anchor)),
                None => (target, None),
            };
            if !file_part.is_empty() && !root.join(file_part).exists() {
                findings.push(finding(
                    name,
                    idx + 1,
                    format!("link target `{file_part}` does not exist"),
                ));
                continue;
            }
            let Some(anchor) = anchor else { continue };
            // Anchors are only checkable against markdown targets: a pure
            // `#…` points into this doc, `x.md#…` into the linked one.
            let slugs = if file_part.is_empty() {
                Some(own_slugs.clone())
            } else if file_part.ends_with(".md") {
                std::fs::read_to_string(root.join(file_part))
                    .ok()
                    .map(|linked| heading_slugs(&linked))
            } else {
                None
            };
            if let Some(slugs) = slugs {
                if !slugs.iter().any(|s| s == anchor) {
                    let shown = if file_part.is_empty() {
                        name
                    } else {
                        file_part
                    };
                    findings.push(finding(
                        name,
                        idx + 1,
                        format!("anchor `#{anchor}` has no matching heading in {shown}"),
                    ));
                }
            }
        }
    }
    findings
}

/// Verifies `§N` design-section references. In DESIGN.md every `§N` is a
/// self-reference; in any other doc only `DESIGN.md §N` (the qualifier may
/// sit on the previous line after wrapping) points here — a bare `§N`
/// elsewhere cites the paper and is left alone.
fn check_section_refs(name: &str, text: &str, sections: &[u32]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let self_doc = name == "DESIGN.md";
    for (pos, _) in text.match_indices('§') {
        let digits: String = text[pos + '§'.len_utf8()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let Ok(number) = digits.parse::<u32>() else {
            continue;
        };
        let qualified = text[..pos].trim_end().ends_with("DESIGN.md");
        if (self_doc || qualified) && !sections.contains(&number) {
            let line = text[..pos].matches('\n').count() + 1;
            findings.push(finding(
                name,
                line,
                format!("section reference §{number} has no `## {number}.` heading in DESIGN.md"),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A temporary directory of one test's own, removed on drop.
    struct TmpRoot(PathBuf);

    impl TmpRoot {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("dcb-audit-docs-{}-{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TmpRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn design_heading_numbers_are_extracted() {
        let text = "# T\n## 1. One\nbody\n## 10. Ten\n### 2.1 not a section\n## Appendix\n";
        assert_eq!(design_sections(text), vec![1, 10]);
    }

    #[test]
    fn missing_link_target_is_a_finding_existing_is_not() {
        let tmp = TmpRoot::new("missing-link");
        let root = &tmp.0;
        std::fs::write(root.join("HERE.md"), "x").unwrap();
        let text = "see [a](HERE.md) and [b](GONE.md) and [web](https://x.y/z.md)\n";
        let findings = check_links(root, "README.md", text);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("GONE.md"));
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn anchor_only_and_anchored_links_are_handled() {
        let tmp = TmpRoot::new("anchors");
        let root = &tmp.0;
        std::fs::write(root.join("ANCHORED.md"), "# Top\n## The Part\n").unwrap();
        let good = "# Intro\n[top](#intro) then [sec](ANCHORED.md#the-part)\n";
        assert!(check_links(root, "README.md", good).is_empty());
        // A dangling anchor is a finding — in either direction.
        let bad = "# Intro\n[gone](#outro) and [sec](ANCHORED.md#no-such-part)\n";
        let findings = check_links(root, "README.md", bad);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("#outro"));
        assert!(findings[1].message.contains("#no-such-part"));
        // Anchors on non-markdown targets are not checkable.
        std::fs::write(root.join("data.csv"), "a,b\n").unwrap();
        assert!(check_links(root, "README.md", "[d](data.csv#L3)\n").is_empty());
    }

    #[test]
    fn heading_slugs_follow_github_rules() {
        let text =
            "# Flight Recorder (dcb-trace)\n```sh\n# not a heading\n```\n## DCB_TRACE & friends!\n";
        assert_eq!(
            heading_slugs(text),
            vec!["flight-recorder-dcb-trace", "dcb_trace--friends"]
        );
    }

    #[test]
    fn qualified_section_refs_are_checked_and_wrap_across_lines() {
        let sections = [8, 10];
        let ok = "see DESIGN.md §8 and DESIGN.md\n§10 too";
        assert!(check_section_refs("README.md", ok, &sections).is_empty());
        let bad = "see DESIGN.md §99";
        let findings = check_section_refs("README.md", bad, &sections);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("§99"));
    }

    #[test]
    fn bare_refs_count_only_inside_design_md() {
        let sections = [8];
        let text = "the paper's §7 motivates this";
        assert!(check_section_refs("README.md", text, &sections).is_empty());
        let findings = check_section_refs("DESIGN.md", text, &sections);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }
}
