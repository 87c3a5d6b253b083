//! Deterministic workspace traversal: find every Rust source file, classify
//! its role (library, binary, test, bench, example), and note which crate
//! owns it.
//!
//! The walk is sorted so findings come out in a stable order regardless of
//! directory-entry ordering; `vendor/`, `target/`, `.git/`, and the audit
//! crate's own lint fixtures are skipped.

use std::fmt;
use std::path::{Path, PathBuf};

/// What kind of compilation target a source file belongs to. The lints
/// cover library and binary code; the graph passes scope their sources
/// and sinks by role too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// `src/*.rs` of a library crate.
    Library,
    /// `src/main.rs`, `src/bin/*.rs`, or the root package's binaries.
    Binary,
    /// `tests/*.rs` integration tests (unit-test modules are handled
    /// separately via `#[cfg(test)]` region marking).
    Test,
    /// `benches/*.rs`.
    Bench,
    /// `examples/*.rs`.
    Example,
}

/// One source file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators, for reports.
    pub rel: String,
    /// Which compilation target the file belongs to.
    pub role: Role,
    /// Owning crate directory name (`units`, `core`, ...), or `"(root)"`
    /// for the workspace package.
    pub crate_name: String,
}

/// Errors from the traversal. Kept as data (no panics) so the binary can
/// render them and exit non-zero.
#[derive(Debug)]
pub enum WalkError {
    /// An I/O failure while listing or statting, with the path involved.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::Io(path, err) => write!(f, "io error under {}: {err}", path.display()),
        }
    }
}

impl std::error::Error for WalkError {}

/// Directory names that are never analyzed.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Walks `root` (the workspace root) and returns every `.rs` file to
/// analyze, classified and sorted by relative path.
///
/// # Errors
///
/// Returns [`WalkError::Io`] if a directory cannot be read.
pub fn walk(root: &Path) -> Result<Vec<SourceFile>, WalkError> {
    let mut paths = Vec::new();
    collect(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = relative(root, &path);
        if let Some(role) = classify(&rel) {
            files.push(SourceFile {
                crate_name: crate_of(&rel),
                path,
                rel,
                role,
            });
        }
    }
    Ok(files)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    let entries = std::fs::read_dir(dir).map_err(|e| WalkError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| WalkError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps a workspace-relative path to its role, or `None` for files that are
/// not compilation inputs we care about (e.g. `build.rs` — none exist here,
/// but be conservative).
fn classify(rel: &str) -> Option<Role> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        // crates/<name>/{src,tests,benches,examples}/...
        ["crates", _, "tests", ..] => Some(Role::Test),
        ["crates", _, "benches", ..] => Some(Role::Bench),
        ["crates", _, "examples", ..] => Some(Role::Example),
        ["crates", _, "src", "main.rs"] => Some(Role::Binary),
        ["crates", _, "src", "bin", ..] => Some(Role::Binary),
        ["crates", _, "src", ..] => Some(Role::Library),
        // Root package layout.
        ["tests", ..] => Some(Role::Test),
        ["benches", ..] => Some(Role::Bench),
        ["examples", ..] => Some(Role::Example),
        ["src", "main.rs"] => Some(Role::Binary),
        ["src", "bin", ..] => Some(Role::Binary),
        ["src", ..] => Some(Role::Library),
        _ => None,
    }
}

fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, ..] => (*name).to_owned(),
        _ => "(root)".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        assert_eq!(classify("crates/units/src/power.rs"), Some(Role::Library));
        assert_eq!(classify("crates/audit/src/main.rs"), Some(Role::Binary));
        assert_eq!(
            classify("crates/bench/src/bin/export.rs"),
            Some(Role::Binary)
        );
        assert_eq!(
            classify("crates/fleet/tests/determinism.rs"),
            Some(Role::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/engine.rs"),
            Some(Role::Bench)
        );
        assert_eq!(classify("tests/paper_insights.rs"), Some(Role::Test));
        assert_eq!(classify("examples/quickstart.rs"), Some(Role::Example));
        assert_eq!(classify("src/lib.rs"), Some(Role::Library));
        assert_eq!(classify("src/bin/dcbackup.rs"), Some(Role::Binary));
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/units/src/power.rs"), "units");
        assert_eq!(crate_of("src/lib.rs"), "(root)");
        assert_eq!(crate_of("tests/paper_insights.rs"), "(root)");
    }

    #[test]
    fn live_walk_finds_this_file_and_skips_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf);
        let Some(root) = root else {
            return;
        };
        let Ok(files) = walk(&root) else {
            return;
        };
        assert!(files.iter().any(|f| f.rel == "crates/audit/src/walk.rs"));
        assert!(files.iter().all(|f| !f.rel.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.rel.contains("/fixtures/")));
        // Sorted and unique.
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        let mut sorted = rels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(rels, sorted);
    }
}
