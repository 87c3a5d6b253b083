//! The baseline ratchet for graph findings: a committed
//! `audit.baseline.json` records the accepted findings by stable key
//! (line-number free), and CI fails only on *new* findings. Entries whose
//! finding has disappeared are reported as stale so the file ratchets
//! downward over time.
//!
//! The file is the `render` output of a previous run; [`parse`] reads it
//! with the workspace's one JSON reader, [`dcb_trace::json`].

use crate::report::GraphFinding;
use dcb_trace::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;

/// A loaded baseline: the set of accepted finding keys, sorted.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// Accepted finding keys.
    pub keys: Vec<String>,
}

/// The comparison of a run against a baseline.
#[derive(Debug, Default)]
pub struct Diff<'a> {
    /// Findings not in the baseline — these fail CI.
    pub fresh: Vec<&'a GraphFinding>,
    /// Findings covered by the baseline.
    pub accepted: Vec<&'a GraphFinding>,
    /// Baseline keys with no matching finding anymore — ratchet these out.
    pub stale: Vec<String>,
}

/// Loads a baseline file. A missing file is an empty baseline (first run);
/// an unreadable or unparseable file is an error.
///
/// # Errors
///
/// Returns a message if the file exists but cannot be read or parsed.
pub fn load(path: &Path) -> Result<Baseline, String> {
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses baseline text (the format written by [`render`]): the `key`
/// of every object in the `entries` array.
///
/// # Errors
///
/// Returns a message if the text is not JSON, or if `entries` is missing,
/// not an array, or holds an entry without a string `key`.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text)?;
    let entries = doc
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("missing `entries` array")?;
    let mut keys = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            entry
                .get("key")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("entry {i}: missing string `key`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    keys.sort();
    keys.dedup();
    Ok(Baseline { keys })
}

/// Renders findings as a baseline document (ready to commit).
#[must_use]
pub fn render(findings: &[GraphFinding]) -> String {
    let mut keys: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut out = String::from("{\n  \"schema\": \"dcb-audit-baseline/1\",\n  \"entries\": [");
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"key\": {}}}",
            crate::report::json_string(key)
        );
    }
    if keys.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
    let _ = write!(out, ",\n  \"count\": {}\n}}\n", keys.len());
    out
}

/// Compares a run's findings against a baseline.
#[must_use]
pub fn diff<'a>(findings: &'a [GraphFinding], base: &Baseline) -> Diff<'a> {
    let mut d = Diff::default();
    for f in findings {
        if base.keys.binary_search(&f.key).is_ok() {
            d.accepted.push(f);
        } else {
            d.fresh.push(f);
        }
    }
    for key in &base.keys {
        if !findings.iter().any(|f| &f.key == key) {
            d.stale.push(key.clone());
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(key: &str) -> GraphFinding {
        GraphFinding {
            pass: "determinism-taint",
            key: key.to_owned(),
            file: "crates/x/src/lib.rs".to_owned(),
            line: 1,
            message: "m".to_owned(),
            path: Vec::new(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let findings = vec![finding("b:key \"quoted\""), finding("a:key")];
        let text = render(&findings);
        let base = parse(&text).expect("round trip");
        assert_eq!(
            base.keys,
            vec!["a:key".to_owned(), "b:key \"quoted\"".to_owned()]
        );
        // Empty baseline renders and parses too.
        assert!(parse(&render(&[])).expect("empty").keys.is_empty());
    }

    #[test]
    fn diff_classifies_fresh_accepted_stale() {
        let base = parse(&render(&[finding("a"), finding("gone")])).expect("base");
        let run = vec![finding("a"), finding("new")];
        let d = diff(&run, &base);
        assert_eq!(d.accepted.len(), 1);
        assert_eq!(d.fresh.len(), 1);
        assert_eq!(d.fresh[0].key, "new");
        assert_eq!(d.stale, vec!["gone".to_owned()]);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        for text in [
            "",
            "{\"entries\": [{\"key\": \"a\"}",
            "{\"entries\": [{\"key\": \"a\", \"key\": \"b\"}]}",
            "{\"entries\": {}}",
            "{\"entries\": [{\"key\": 7}]}",
            "{\"schema\": \"dcb-audit-baseline/1\"}",
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn missing_file_is_empty_baseline() {
        let base = load(Path::new("/nonexistent/audit.baseline.json")).expect("missing ok");
        assert!(base.keys.is_empty());
    }
}
