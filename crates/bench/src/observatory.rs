//! The perf observatory: parses, validates, and analyzes
//! `BENCH_history.jsonl`.
//!
//! The history file is append-only JSONL written by the bench harness.
//! Each line is read with the workspace's one JSON reader,
//! [`dcb_trace::json`]. The schema has drifted once already (the oldest
//! line predates the `"bench"` key) and the topology bench writes its
//! per-workload array under `"facilities"` instead of `"workloads"` — so
//! the schema check here *normalizes*: legacy lines are tagged
//! (`legacy: true`) and defaulted to the engine bench, facility arrays
//! become workloads, and every line's `min_speedup` is cross-checked
//! against the minimum of its per-workload speedups. `ci.sh` runs the
//! validator on every append.
//!
//! On top of the normalized series the observatory computes per-workload
//! **median + MAD noise bands** over a trailing window, renders
//! sparkline trends, flags regressions (newest point below the noise
//! band *and* materially below the median), and emits **ratcheted
//! floors**: each workload must stay above
//! `max(base, RATCHET × min(prior window))`, so the floor rises as the
//! implementation gets faster but keeps enough slack for the benches'
//! real run-to-run noise (roughly ±2× in this history).

use dcb_trace::json::{self, Value};
use std::fmt::Write as _;

/// Trailing window (number of history entries per workload) used for
/// noise bands, floors, and sparklines.
pub const DEFAULT_WINDOW: usize = 8;

/// Safety factor applied to the prior-window minimum when ratcheting a
/// floor. 0.35 tolerates the ±2–3× noise the recorded history actually
/// shows while still ratcheting far above the old hand-coded 5×/10×.
pub const RATCHET: f64 = 0.35;

/// Hard lower bound for engine-bench floors (the old hand-coded value).
pub const BASE_FLOOR_ENGINE: f64 = 5.0;
/// Hard lower bound for topology-bench floors (the old hand-coded value).
pub const BASE_FLOOR_TOPOLOGY: f64 = 10.0;

// ---------------------------------------------------------------------
// History schema
// ---------------------------------------------------------------------

/// One validated, normalized line of `BENCH_history.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Which bench wrote the line (`engine` or `topology`); defaulted to
    /// `engine` for legacy lines that predate the key.
    pub bench: String,
    /// Optional implementation tag (e.g. `engine-v2`).
    pub tag: Option<String>,
    /// True when the line lacked the `"bench"` key (pre-drift schema).
    pub legacy: bool,
    /// Append timestamp (unix seconds).
    pub unix_s: u64,
    /// The line's own minimum-speedup summary (cross-checked).
    pub min_speedup: f64,
    /// Per-workload `(name, speedup)` pairs; topology `facilities`
    /// entries are normalized into this field.
    pub workloads: Vec<(String, f64)>,
    /// 1-based line number in the file, the chronological key.
    pub line_no: usize,
}

fn parse_entry(line: &str, line_no: usize) -> Result<HistoryEntry, String> {
    let json = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;

    let (bench, legacy) = match json.get("bench") {
        Some(v) => (
            v.as_str()
                .ok_or(format!("line {line_no}: \"bench\" is not a string"))?
                .to_string(),
            false,
        ),
        // Schema drift: the oldest line predates the key. Only the
        // engine bench existed then, so tag-and-default is lossless.
        None => ("engine".to_string(), true),
    };
    let tag = match json.get("tag") {
        Some(v) => Some(
            v.as_str()
                .ok_or(format!("line {line_no}: \"tag\" is not a string"))?
                .to_string(),
        ),
        None => None,
    };
    let unix_f = json
        .get("unix_s")
        .and_then(Value::as_num)
        .ok_or(format!("line {line_no}: missing numeric \"unix_s\""))?;
    // dcb-audit: allow(float-cmp, whole-second check is an exact integrality test)
    if unix_f < 0.0 || unix_f.fract() != 0.0 {
        return Err(format!("line {line_no}: \"unix_s\" is not a whole second"));
    }
    // Every line carries a string "mode" (always "smoke" now); nothing
    // reads its value, but a line without it is a botched append.
    json.get("mode")
        .and_then(Value::as_str)
        .ok_or(format!("line {line_no}: missing string \"mode\""))?;
    let min_speedup = json
        .get("min_speedup")
        .and_then(Value::as_num)
        .ok_or(format!("line {line_no}: missing numeric \"min_speedup\""))?;
    if !min_speedup.is_finite() || min_speedup <= 0.0 {
        return Err(format!(
            "line {line_no}: \"min_speedup\" must be finite and positive"
        ));
    }

    // The per-workload array drifted too: topology writes "facilities".
    let (array_key, array) = match (json.get("workloads"), json.get("facilities")) {
        (Some(a), None) => ("workloads", a),
        (None, Some(a)) => ("facilities", a),
        (Some(_), Some(_)) => {
            return Err(format!(
                "line {line_no}: both \"workloads\" and \"facilities\" present"
            ))
        }
        (None, None) => {
            return Err(format!(
                "line {line_no}: missing \"workloads\"/\"facilities\" array"
            ))
        }
    };
    let items = match array {
        Value::Arr(items) if !items.is_empty() => items,
        Value::Arr(_) => return Err(format!("line {line_no}: empty \"{array_key}\" array")),
        _ => return Err(format!("line {line_no}: \"{array_key}\" is not an array")),
    };
    let mut workloads = Vec::with_capacity(items.len());
    for item in items {
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("line {line_no}: workload missing string \"name\""))?;
        let speedup = item.get("speedup").and_then(Value::as_num).ok_or(format!(
            "line {line_no}: workload missing numeric \"speedup\""
        ))?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(format!(
                "line {line_no}: workload {name:?} speedup must be finite and positive"
            ));
        }
        workloads.push((name.to_string(), speedup));
    }

    // Cross-check the summary field against the per-workload minimum.
    let actual_min = workloads
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    let rel = (min_speedup - actual_min).abs() / actual_min.max(f64::MIN_POSITIVE);
    if rel > 1e-6 {
        return Err(format!(
            "line {line_no}: min_speedup {min_speedup} does not match \
             per-workload minimum {actual_min}"
        ));
    }

    Ok(HistoryEntry {
        bench,
        tag,
        legacy,
        unix_s: unix_f as u64,
        min_speedup,
        workloads,
        line_no,
    })
}

/// Parses and validates a whole history file (JSONL). File order is the
/// chronology. Blank lines are rejected — the file is append-only and a
/// blank line means a botched append.
///
/// # Errors
///
/// Returns the first schema violation, naming its line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut entries = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: blank line in append-only history"));
        }
        entries.push(parse_entry(line, line_no)?);
    }
    if entries.is_empty() {
        return Err("history is empty".to_string());
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Series analysis
// ---------------------------------------------------------------------

/// One workload's chronological speedup series plus its computed noise
/// band, floor, and trend over the trailing window.
#[derive(Debug, Clone)]
pub struct SeriesStats {
    /// `bench/workload`, the stable series key.
    pub key: String,
    /// Which bench the series belongs to.
    pub bench: String,
    /// Values inside the trailing window, oldest first (newest last).
    pub window: Vec<f64>,
    /// The newest value.
    pub newest: f64,
    /// Median of the window *excluding* the newest value (the prior
    /// band the newest point is judged against); newest value itself
    /// when there is no prior.
    pub median: f64,
    /// Median absolute deviation of the prior window.
    pub mad: f64,
    /// Ratcheted floor the newest value must stay above.
    pub floor: f64,
    /// True when the newest value sits below the noise band *and*
    /// materially below the prior median.
    pub regressed: bool,
    /// Unicode sparkline of the window, oldest → newest.
    pub sparkline: String,
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn median_and_mad(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let med = median_of(&sorted);
    let mut deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    (med, median_of(&deviations))
}

fn base_floor(bench: &str) -> f64 {
    if bench == "topology" {
        BASE_FLOOR_TOPOLOGY
    } else {
        BASE_FLOOR_ENGINE
    }
}

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|v| {
            if span > 0.0 {
                let level = ((v - min) / span * 7.0).round();
                BARS[(level as usize).min(7)]
            } else {
                BARS[3]
            }
        })
        .collect()
}

/// Computes per-workload series statistics over a trailing `window` of
/// history entries. Series are keyed `bench/workload` and returned
/// sorted by key.
#[must_use]
pub fn analyze(entries: &[HistoryEntry], window: usize) -> Vec<SeriesStats> {
    let window = window.max(2);
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for entry in entries {
        for (name, speedup) in &entry.workloads {
            let key = format!("{}/{}", entry.bench, name);
            match series.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, values)) => values.push(*speedup),
                None => series.push((key, entry.bench.clone(), vec![*speedup])),
            }
        }
    }
    series.sort_by(|a, b| a.0.cmp(&b.0));

    series
        .into_iter()
        .map(|(key, bench, values)| {
            let start = values.len().saturating_sub(window);
            let win = values[start..].to_vec();
            let newest = win.last().copied().unwrap_or(0.0);
            let prior = &win[..win.len() - 1];
            let (median, mad) = if prior.is_empty() {
                (newest, 0.0)
            } else {
                median_and_mad(prior)
            };
            let prior_min = prior.iter().copied().fold(f64::INFINITY, f64::min);
            let floor = if prior.len() >= 2 {
                base_floor(&bench).max(RATCHET * prior_min)
            } else {
                base_floor(&bench)
            };
            // Regressed = below the 3-MAD noise band AND materially
            // (≥35%) below the prior median, with enough history to
            // trust the band at all.
            let regressed =
                prior.len() >= 3 && newest < median - 3.0 * mad && newest < 0.65 * median;
            SeriesStats {
                sparkline: sparkline(&win),
                key,
                bench,
                newest,
                median,
                mad,
                floor,
                regressed,
                window: win,
            }
        })
        .collect()
}

/// Renders the human `repro perf` report: per-series trend sparkline,
/// noise band, floor, and any regression warnings.
#[must_use]
pub fn report(entries: &[HistoryEntry], window: usize) -> String {
    let stats = analyze(entries, window);
    let legacy = entries.iter().filter(|e| e.legacy).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf observatory: {} entries, {} series, window {}",
        entries.len(),
        stats.len(),
        window.max(2)
    );
    if legacy > 0 {
        let _ = writeln!(
            out,
            "  ({legacy} legacy pre-\"bench\"-key line(s) normalized to bench=engine)"
        );
    }
    let key_w = stats.iter().map(|s| s.key.len()).max().unwrap_or(0);
    for s in &stats {
        let _ = writeln!(
            out,
            "  {key:<key_w$}  {spark}  newest {newest:>9.2}x  median {median:>9.2}x  \
             mad {mad:>8.2}  floor {floor:>8.2}x{flag}",
            key = s.key,
            spark = s.sparkline,
            newest = s.newest,
            median = s.median,
            mad = s.mad,
            floor = s.floor,
            flag = if s.regressed { "  ⚠ REGRESSION" } else { "" },
        );
    }
    for s in &stats {
        if s.regressed {
            let _ = writeln!(
                out,
                "regression: {} fell to {:.2}x (prior median {:.2}x, noise band ±{:.2})",
                s.key,
                s.newest,
                s.median,
                3.0 * s.mad
            );
        }
    }
    out
}

/// Renders the ratcheted floors, one `key floor` line per series —
/// the machine-readable half of `repro perf floors`.
#[must_use]
pub fn floors(entries: &[HistoryEntry], window: usize) -> String {
    let stats = analyze(entries, window);
    let mut out = String::new();
    for s in &stats {
        let _ = writeln!(out, "{} {:.2}", s.key, s.floor);
    }
    out
}

/// The CI gate: every series' newest value must clear its ratcheted
/// floor. Schema violations surface earlier, in [`parse_history`].
///
/// # Errors
///
/// Returns a message naming every series below its floor.
pub fn check(entries: &[HistoryEntry], window: usize) -> Result<String, String> {
    let stats = analyze(entries, window);
    let violations: Vec<String> = stats
        .iter()
        .filter(|s| s.newest < s.floor)
        .map(|s| {
            format!(
                "{}: newest {:.2}x below ratcheted floor {:.2}x",
                s.key, s.newest, s.floor
            )
        })
        .collect();
    if violations.is_empty() {
        let mut ok = String::new();
        for s in &stats {
            let _ = writeln!(
                ok,
                "ok {}: newest {:.2}x >= floor {:.2}x",
                s.key, s.newest, s.floor
            );
        }
        Ok(ok)
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The committed history, the input the hostile mutations start from.
    const HISTORY: &str = include_str!("../../../BENCH_history.jsonl");

    /// One mutation of `text`: a truncation, a byte flip, spliced deep
    /// nesting, long workload names or spliced non-ASCII text.
    fn mutate(text: &str, kind: usize, at: u64, pick: usize) -> String {
        let cut = usize::try_from(at % (text.len() as u64 + 1)).unwrap_or(0);
        let splice = match kind % 5 {
            0 => return String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned(),
            1 => {
                let mut bytes = text.as_bytes().to_vec();
                if let Some(byte) = bytes.get_mut(cut) {
                    *byte ^= u8::try_from(pick % 255 + 1).unwrap_or(1);
                }
                return String::from_utf8_lossy(&bytes).into_owned();
            }
            2 => {
                let depth = [json::MAX_DEPTH, json::MAX_DEPTH + 1, 200_000][pick % 3];
                format!("{}{}", "[".repeat(depth), "]".repeat(depth))
            }
            3 => {
                let long = format!("\"name\": \"{}", "é\\\"x".repeat(1 + pick * 64));
                return text.replacen("\"name\": \"", &long, 1 + pick % 3);
            }
            _ => ["é", "\u{0}", "🔋", "\u{feff}", "\"", "\n"][pick % 6].to_owned(),
        };
        let at = (0..=cut)
            .rev()
            .find(|&i| text.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}{splice}{}", &text[..at], &text[at..])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every mutated history parses, or fails with an error that
        /// names its line.
        #[test]
        fn mutated_history_parses_or_names_the_bad_line(
            kind in 0usize..5,
            at in 0u64..u64::MAX,
            pick in 0usize..1_000,
        ) {
            let text = mutate(HISTORY, kind, at, pick);
            if let Err(err) = parse_history(&text) {
                prop_assert!(
                    err.starts_with("line ") || err == "history is empty",
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn long_names_keep_the_history_valid() {
        let entries = parse_history(HISTORY).expect("committed history");
        let text = mutate(HISTORY, 3, 0, 999);
        assert_eq!(parse_history(&text).map(|e| e.len()), Ok(entries.len()));
    }

    const LEGACY: &str = r#"{"unix_s": 100, "mode": "smoke", "min_speedup": 50.0, "workloads": [{"name": "w", "speedup": 50.0}]}"#;

    fn engine_line(unix: u64, speedup: f64) -> String {
        format!(
            r#"{{"bench": "engine", "unix_s": {unix}, "mode": "smoke", "min_speedup": {speedup}, "workloads": [{{"name": "w", "speedup": {speedup}}}]}}"#
        )
    }

    fn topo_line(unix: u64, speedup: f64) -> String {
        format!(
            r#"{{"bench": "topology", "unix_s": {unix}, "mode": "smoke", "min_speedup": {speedup}, "facilities": [{{"name": "f", "speedup": {speedup}}}]}}"#
        )
    }

    #[test]
    fn legacy_line_is_tagged_and_defaulted_to_engine() {
        let entries = parse_history(LEGACY).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].legacy);
        assert_eq!(entries[0].bench, "engine");
        assert_eq!(entries[0].workloads, vec![("w".to_string(), 50.0)]);
    }

    #[test]
    fn facilities_normalize_to_workloads() {
        let entries = parse_history(&topo_line(1, 20.0)).unwrap();
        assert!(!entries[0].legacy);
        assert_eq!(entries[0].bench, "topology");
        assert_eq!(entries[0].workloads, vec![("f".to_string(), 20.0)]);
    }

    #[test]
    fn schema_violations_are_rejected_with_line_numbers() {
        let missing_mode = r#"{"bench": "engine", "unix_s": 1, "min_speedup": 2.0, "workloads": [{"name": "w", "speedup": 2.0}]}"#;
        let err = parse_history(&format!("{}\n{missing_mode}", engine_line(1, 9.0))).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("mode"), "{err}");

        let bad_min = r#"{"bench": "engine", "unix_s": 1, "mode": "smoke", "min_speedup": 99.0, "workloads": [{"name": "w", "speedup": 2.0}]}"#;
        let err = parse_history(bad_min).unwrap_err();
        assert!(err.contains("does not match"), "{err}");

        assert!(parse_history("").is_err());
        assert!(parse_history("not json").is_err());
        let trailing = format!("{}\n\n", engine_line(1, 9.0));
        assert!(parse_history(&trailing).is_err(), "blank line accepted");
    }

    #[test]
    fn floors_ratchet_from_prior_window_and_respect_base() {
        let lines: Vec<String> = (0..5).map(|i| engine_line(i, 100.0 + i as f64)).collect();
        let entries = parse_history(&lines.join("\n")).unwrap();
        let stats = analyze(&entries, DEFAULT_WINDOW);
        assert_eq!(stats.len(), 1);
        // prior = [100..103], min 100 → floor 35; newest 104 clears it.
        assert!((stats[0].floor - 35.0).abs() < 1e-9);
        assert!(check(&entries, DEFAULT_WINDOW).is_ok());

        // With one entry there is no prior window: base floor only.
        let one = parse_history(&engine_line(0, 100.0)).unwrap();
        let stats = analyze(&one, DEFAULT_WINDOW);
        assert!((stats[0].floor - BASE_FLOOR_ENGINE).abs() < 1e-9);

        // Topology base floor is 10, even for a slow series.
        let topo = parse_history(&topo_line(0, 12.0)).unwrap();
        let stats = analyze(&topo, DEFAULT_WINDOW);
        assert!((stats[0].floor - BASE_FLOOR_TOPOLOGY).abs() < 1e-9);
    }

    #[test]
    fn regression_is_flagged_and_floor_violation_fails_check() {
        let mut lines: Vec<String> = (0..6).map(|i| engine_line(i, 100.0 + i as f64)).collect();
        lines.push(engine_line(6, 8.0)); // collapse: 100x-class → 8x
        let entries = parse_history(&lines.join("\n")).unwrap();
        let stats = analyze(&entries, DEFAULT_WINDOW);
        assert!(stats[0].regressed, "collapse not flagged: {stats:?}");
        let report = report(&entries, DEFAULT_WINDOW);
        assert!(report.contains("REGRESSION"), "{report}");
        // 8x is also below the ratcheted floor (0.35 × 100 = 35x).
        let err = check(&entries, DEFAULT_WINDOW).unwrap_err();
        assert!(err.contains("below ratcheted floor"), "{err}");
    }

    #[test]
    fn noisy_but_healthy_series_is_not_flagged() {
        // ±2x swings like the real history: no regression, check passes.
        let values = [112.0, 145.0, 66.0, 103.0, 110.0, 228.0, 224.0];
        let lines: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| engine_line(i as u64, *v))
            .collect();
        let entries = parse_history(&lines.join("\n")).unwrap();
        let stats = analyze(&entries, DEFAULT_WINDOW);
        assert!(!stats[0].regressed);
        assert!(check(&entries, DEFAULT_WINDOW).is_ok());
    }

    #[test]
    fn sparkline_spans_window_and_handles_flat_series() {
        assert_eq!(sparkline(&[1.0, 8.0]), "▁█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
    }

    #[test]
    fn floors_output_is_one_line_per_series() {
        let text = format!("{}\n{}", engine_line(1, 50.0), topo_line(2, 30.0));
        let entries = parse_history(&text).unwrap();
        let floors = floors(&entries, DEFAULT_WINDOW);
        assert_eq!(floors, "engine/w 5.00\ntopology/f 10.00\n");
    }
}
