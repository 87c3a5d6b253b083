//! The `repro perf` subcommand: the perf observatory over
//! `BENCH_history.jsonl`.
//!
//! Thin CLI shell around [`crate::observatory`]: it locates the
//! history file (repo root by default, `--file` to override), parses and
//! validates it, and dispatches one of four actions:
//!
//! * `report` (default) — sparkline trends, median + MAD noise bands,
//!   ratcheted floors, regression warnings;
//! * `check` — CI gate: every workload's newest speedup must clear its
//!   ratcheted floor (exit 2 otherwise);
//! * `validate` — schema validation only, run by `ci.sh` after every
//!   append;
//! * `floors` — the machine-readable `key floor` pairs.

use crate::observatory::{self, HistoryEntry, DEFAULT_WINDOW};
use std::path::PathBuf;

/// Runs the subcommand: `repro perf [report|check|validate|floors]
/// [--file PATH] [--window N]`.
///
/// # Errors
///
/// Returns a message (for stderr + exit 2) on unreadable files, schema
/// violations, floor violations (`check`), or bad arguments.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    let mut action = "report".to_string();
    let mut file: Option<PathBuf> = None;
    let mut window = DEFAULT_WINDOW;
    let mut iter = args.iter();
    let mut action_set = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--file" => {
                let value = iter.next().ok_or("--file requires a path")?;
                file = Some(PathBuf::from(value));
            }
            "--window" => {
                let value = iter.next().ok_or("--window requires a number")?;
                window = value
                    .parse::<usize>()
                    .map_err(|e| format!("bad --window {value:?}: {e}"))?;
            }
            "report" | "check" | "validate" | "floors" if !action_set => {
                action = arg.clone();
                action_set = true;
            }
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    let path = file.unwrap_or_else(default_history_path);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let entries =
        observatory::parse_history(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    dispatch(&action, &entries, window)
}

fn dispatch(action: &str, entries: &[HistoryEntry], window: usize) -> Result<String, String> {
    match action {
        "report" => Ok(observatory::report(entries, window)),
        "check" => observatory::check(entries, window),
        "validate" => Ok(format!(
            "ok: {} entries valid ({} legacy line(s) normalized)\n",
            entries.len(),
            entries.iter().filter(|e| e.legacy).count()
        )),
        "floors" => Ok(observatory::floors(entries, window)),
        other => Err(format!("unknown action {other:?}\n\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: repro perf [report|check|validate|floors] [--file PATH] [--window N]\n\
     report   trends + noise bands + regression warnings (default)\n\
     check    assert every workload clears its ratcheted floor (CI gate)\n\
     validate schema-validate the history file\n\
     floors   print the machine-readable per-workload floors"
        .to_string()
}

/// The workspace's own `BENCH_history.jsonl`, resolved relative to this
/// crate so the subcommand works from any working directory.
fn default_history_path() -> PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    root.canonicalize()
        .unwrap_or(root)
        .join("BENCH_history.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(run_cli(&["--file".to_string()])
            .unwrap_err()
            .contains("--file"));
        assert!(run_cli(&["bogus".to_string()])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(run_cli(&["--window".to_string(), "x".to_string()])
            .unwrap_err()
            .contains("bad --window"));
    }

    #[test]
    fn missing_file_is_reported_with_its_path() {
        let err = run_cli(&[
            "--file".to_string(),
            "/nonexistent/history.jsonl".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("/nonexistent/history.jsonl"), "{err}");
    }

    #[test]
    fn the_repo_history_parses_and_clears_its_floors() {
        // The committed history is the contract `ci.sh` enforces; this
        // test fails the moment an append drifts the schema again.
        for action in ["report", "check", "validate", "floors"] {
            let out = run_cli(&[action.to_string()]).expect(action);
            assert!(!out.is_empty(), "{action} produced no output");
        }
        let validate = run_cli(&["validate".to_string()]).unwrap();
        assert!(validate.contains("1 legacy line(s)"), "{validate}");
    }
}
