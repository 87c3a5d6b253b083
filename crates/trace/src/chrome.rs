//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Each lane becomes its own track (`tid` = lane) under one synthetic
//! process. Timestamps are the recorder's *virtual* microseconds —
//! simulated time, never the wall clock — so the same workload exports a
//! byte-identical file regardless of `DCB_THREADS` (asserted by a
//! subprocess test in `dcb-bench`). Inherit timestamps (`at = None`)
//! resolve to the previous event's time within the lane; within a track,
//! events are then stably ordered by resolved time so per-track
//! timestamps are monotone, which [`validate`] checks.
//!
//! Reading an exported trace back is a report-edge concern: this module
//! is fenced out of model code by the `trace-in-result` audit lint.

use crate::event::{Event, EventKind};
use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders events (as returned by [`crate::drain`] or [`crate::capture`])
/// into a complete Chrome trace-event JSON document.
#[must_use]
pub fn export(events: &[Event]) -> String {
    // Group per lane and resolve inherit timestamps in sequence order.
    let mut lanes: BTreeMap<u64, Vec<(u64, &Event)>> = BTreeMap::new();
    for event in events {
        lanes.entry(event.lane).or_default().push((0, event));
    }
    for lane_events in lanes.values_mut() {
        lane_events.sort_by_key(|(_, e)| e.seq);
        let mut last = 0u64;
        for slot in lane_events.iter_mut() {
            last = slot.1.at_us.unwrap_or(last);
            slot.0 = last;
        }
        // Stable order by resolved time keeps per-track timestamps
        // monotone while preserving sequence order at equal instants.
        lane_events.sort_by_key(|&(ts, e)| (ts, e.seq));
    }

    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"dcbackup\"}}",
    );
    for (&lane, lane_events) in &lanes {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\""
        );
        if lane == crate::ROOT_LANE {
            out.push_str("main");
        } else {
            let _ = write!(out, "task {}.{}", lane >> 32, lane & 0xffff_ffff);
        }
        out.push_str("\"}}");
        for &(ts, event) in lane_events {
            out.push_str(",\n");
            write_event(&mut out, lane, ts, event);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Appends one trace-event JSON object (no surrounding separators).
fn write_event(out: &mut String, lane: u64, ts: u64, event: &Event) {
    out.push_str("{\"name\":\"");
    match &event.kind {
        EventKind::SegmentCommit { end_cause, .. } => {
            out.push_str("seg:");
            escape_json_into(out, end_cause);
        }
        kind => out.push_str(kind.name()),
    }
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{lane},\"ts\":{ts}",
        event.kind.layer(),
        if event.dur_us > 0 { 'X' } else { 'i' }
    );
    if event.dur_us > 0 {
        let _ = write!(out, ",\"dur\":{}", event.dur_us);
    } else {
        out.push_str(",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"args\":{{\"seq\":{}", event.seq);
    if let Some(parent) = event.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    match &event.kind {
        EventKind::OutageStart {
            config,
            technique,
            outage_us,
        } => {
            out.push_str(",\"config\":\"");
            escape_json_into(out, config);
            out.push_str("\",\"technique\":\"");
            escape_json_into(out, technique);
            let _ = write!(out, "\",\"outage_us\":{outage_us}");
        }
        EventKind::DgRampPhase { phase } => {
            out.push_str(",\"phase\":\"");
            escape_json_into(out, phase);
            out.push('"');
        }
        EventKind::BatteryDeplete | EventKind::DustSnap => {}
        EventKind::TechniqueTransition { from, to } => {
            out.push_str(",\"from\":\"");
            escape_json_into(out, from);
            out.push_str("\",\"to\":\"");
            escape_json_into(out, to);
            out.push('"');
        }
        EventKind::SegmentCommit {
            end_cause,
            load_mw,
            throughput_pm,
            in_downtime,
        } => {
            out.push_str(",\"end_cause\":\"");
            escape_json_into(out, end_cause);
            let _ = write!(
                out,
                "\",\"load_mw\":{load_mw},\"throughput_pm\":{throughput_pm},\"in_downtime\":{in_downtime}"
            );
        }
        EventKind::CacheHit { digest } | EventKind::CacheMiss { digest } => {
            out.push_str(",\"digest\":\"");
            escape_json_into(out, digest);
            out.push('"');
        }
        EventKind::ShortfallRoot { bisections } => {
            let _ = write!(out, ",\"bisections\":{bisections}");
        }
        EventKind::Evaluate {
            config,
            technique,
            feasible,
        } => {
            out.push_str(",\"config\":\"");
            escape_json_into(out, config);
            out.push_str("\",\"technique\":\"");
            escape_json_into(out, technique);
            let _ = write!(out, "\",\"feasible\":{feasible}");
        }
        EventKind::TopoResolve {
            level,
            name,
            multiplicity,
            feasible,
        } => {
            out.push_str(",\"level\":\"");
            escape_json_into(out, level);
            out.push_str("\",\"node\":\"");
            escape_json_into(out, name);
            let _ = write!(
                out,
                "\",\"multiplicity\":{multiplicity},\"feasible\":{feasible}"
            );
        }
        EventKind::TopoShed {
            level,
            name,
            servers,
        } => {
            out.push_str(",\"level\":\"");
            escape_json_into(out, level);
            out.push_str("\",\"node\":\"");
            escape_json_into(out, name);
            let _ = write!(out, "\",\"servers\":{servers}");
        }
    }
    out.push_str("}}");
}

/// Appends `s` with JSON string escaping (quote, backslash, `\n`, `\t`,
/// `\r`, and `\uXXXX` for remaining control characters).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Checks that `document` is a well-formed Chrome trace: valid JSON with a
/// `traceEvents` array in which every non-metadata entry carries numeric
/// `pid`/`tid`/`ts`, per-track timestamps are monotone non-decreasing, and
/// complete (`ph == "X"`) events have a non-negative `dur`. Returns the
/// number of non-metadata events.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate(document: &str) -> Result<usize, String> {
    let root = json::parse(document)?;
    let events = root
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut counted = 0usize;
    for (i, entry) in events.iter().enumerate() {
        let ph = entry
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph == "M" {
            continue;
        }
        let pid = entry
            .get("pid")
            .and_then(json::Value::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `pid`"))?;
        let tid = entry
            .get("tid")
            .and_then(json::Value::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `tid`"))?;
        let ts = entry
            .get("ts")
            .and_then(json::Value::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        if ph == "X" {
            let dur = entry
                .get("dur")
                .and_then(json::Value::as_num)
                .ok_or_else(|| format!("event {i}: complete event missing `dur`"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative `dur` {dur}"));
            }
        }
        let track = (pid as u64, tid as u64);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "event {i}: track ({},{}) timestamp went backwards ({ts} < {prev})",
                    track.0, track.1
                ));
            }
        }
        last_ts.insert(track, ts);
        counted += 1;
    }
    Ok(counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(lane: u64, seq: u32, at_us: Option<u64>, dur_us: u64, kind: EventKind) -> Event {
        Event {
            lane,
            seq,
            parent: None,
            at_us,
            dur_us,
            kind,
        }
    }

    #[test]
    fn export_is_valid_and_resolves_inherit_timestamps() {
        let events = vec![
            event(
                0,
                0,
                Some(0),
                0,
                EventKind::OutageStart {
                    config: "MaxPerf".to_owned(),
                    technique: "RideThrough".to_owned(),
                    outage_us: 2_000_000,
                },
            ),
            event(0, 1, Some(500_000), 0, EventKind::BatteryDeplete),
            // Inherits 500_000 from the previous event.
            event(0, 2, None, 0, EventKind::DustSnap),
            // A segment recorded after its interior instants but starting
            // earlier — the exporter re-orders it by resolved time.
            event(
                0,
                3,
                Some(0),
                500_000,
                EventKind::SegmentCommit {
                    end_cause: "battery_depleted".to_owned(),
                    load_mw: 4_000_000,
                    throughput_pm: 1000,
                    in_downtime: false,
                },
            ),
            event(
                1 << 32,
                0,
                Some(7),
                0,
                EventKind::CacheHit {
                    digest: "0f".to_owned(),
                },
            ),
        ];
        let doc = export(&events);
        assert_eq!(validate(&doc).expect("valid trace"), 5);
        assert!(doc.contains("\"name\":\"seg:battery_depleted\""));
        assert!(doc.contains("\"name\":\"main\""));
        assert!(doc.contains("\"name\":\"task 1.0\""));
        let seg_pos = doc.find("seg:battery_depleted").unwrap();
        let deplete_pos = doc.find("battery_deplete\"").unwrap();
        assert!(
            seg_pos < deplete_pos,
            "segment starting at t=0 must sort before the t=500000 instant"
        );
    }

    #[test]
    fn validate_rejects_backwards_timestamps() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"i","pid":1,"tid":0,"ts":10,"s":"t","args":{}},
            {"name":"b","ph":"i","pid":1,"tid":0,"ts":9,"s":"t","args":{}}
        ]}"#;
        assert!(validate(doc).is_err());
    }

    #[test]
    fn validate_rejects_missing_fields_and_bad_json() {
        assert!(validate("{\"traceEvents\":{}}").is_err());
        assert!(validate("not json").is_err());
        let no_ts = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1,"tid":0}]}"#;
        assert!(validate(no_ts).is_err());
    }

    #[test]
    fn empty_event_list_exports_a_valid_document() {
        let doc = export(&[]);
        assert_eq!(validate(&doc).expect("valid"), 0);
    }
}
