//! `dcb-audit check` end to end: one run gates the call-graph passes and
//! the doc references as well as the token lints. Each test builds a
//! small `--root` tree from the fixtures and runs the binary on it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The top-level docs the doc-reference check expects, each with one
/// heading; DESIGN.md has section 1.
const DOCS: [(&str, &str); 6] = [
    ("README.md", "# Readme\n"),
    ("DESIGN.md", "# Design\n\n## 1. Scope\n\nSee §1.\n"),
    ("EXPERIMENTS.md", "# Experiments\n"),
    ("OBSERVABILITY.md", "# Observability\n"),
    ("CHANGELOG.md", "# Changelog\n"),
    ("ROADMAP.md", "# Roadmap\n"),
];

/// A temporary `--root` tree, removed on drop.
struct Tree(PathBuf);

impl Tree {
    /// Writes the docs and each `(relative path, fixture name)` source.
    fn new(name: &str, sources: &[(&str, &str)]) -> Self {
        let root =
            std::env::temp_dir().join(format!("dcb-audit-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        for (rel, fixture) in sources {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("source has a parent"))
                .expect("create source dir");
            std::fs::copy(fixtures.join(fixture), &path).expect("copy fixture");
        }
        for (doc, text) in DOCS {
            std::fs::write(root.join(doc), text).expect("write doc");
        }
        Self(root)
    }

    /// Runs `dcb-audit check --root <tree>`: its exit code and stdout.
    fn check(&self) -> (Option<i32>, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_dcb-audit"))
            .arg("check")
            .arg("--root")
            .arg(&self.0)
            .output()
            .expect("run dcb-audit");
        (
            out.status.code(),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
        )
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_taint_chain_fails_with_its_witness_path() {
    let tree = Tree::new(
        "taint",
        &[
            ("crates/fleet/src/lib.rs", "graph_sinks.rs"),
            ("crates/power/src/lib.rs", "graph_taint_chain.rs"),
        ],
    );
    let (code, stdout) = tree.check();
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(
            "[determinism-taint] hash-iteration in `power::order` reaches determinism sink `fleet::Scenario::digest`"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("\n    #1 crates/power/src/lib.rs:17 sink: `power::seal` feeds `fleet::Scenario::digest`"),
        "{stdout}"
    );
    assert!(stdout.ends_with("1 finding (suppress an intentional code site with `// dcb-audit: allow(<check>, reason)`)\n"), "{stdout}");
}

#[test]
fn a_missing_design_section_fails() {
    let tree = Tree::new("docs", &[("crates/power/src/lib.rs", "clean.rs")]);
    std::fs::write(tree.0.join("README.md"), "# Readme\n\nSee DESIGN.md §99.\n").expect("write");
    let (code, stdout) = tree.check();
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(
            "\nREADME.md:3: [doc-ref] section reference §99 has no `## 99.` heading in DESIGN.md\n"
        ),
        "{stdout}"
    );
}

#[test]
fn a_clean_tree_passes() {
    let tree = Tree::new(
        "clean",
        &[
            ("crates/fleet/src/lib.rs", "graph_sinks.rs"),
            ("crates/power/src/lib.rs", "clean.rs"),
        ],
    );
    let (code, stdout) = tree.check();
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.starts_with("audit: 2 files, 2 crates"), "{stdout}");
    assert!(stdout.ends_with("audit clean: no findings\n"), "{stdout}");
}
