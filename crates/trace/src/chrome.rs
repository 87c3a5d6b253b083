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
//! The writer makes one pass. It takes [`crate::drain`]'s `(lane, seq)`
//! order as it comes and stably sorts only input that is not already in
//! that order; it re-sorts a lane by resolved time only when the lane's
//! timestamps go backwards. Each lane's `"pid"`/`"tid"` text is rendered
//! once, integers are written by a digit loop, a string that needs no
//! escape is copied whole, and the buffer is reserved up front for the
//! longest text every event could take. The writer it replaced, which
//! regrouped and re-sorted every lane, is kept as the oracle of a
//! byte-equality proptest (`tests/chrome_oracle.rs`).
//!
//! Reading an exported trace back is a report-edge concern: this module
//! is fenced out of model code by the `observe-in-result` audit lint.

use crate::event::{Event, EventKind};
use crate::json;
use std::collections::BTreeMap;

/// Renders events (as returned by [`crate::drain`] or [`crate::capture`])
/// into a complete Chrome trace-event JSON document.
#[must_use]
pub fn export(events: &[Event]) -> String {
    let mut order: Vec<&Event> = events.iter().collect();
    if !order.is_sorted_by_key(|e| (e.lane, e.seq)) {
        order.sort_by_key(|e| (e.lane, e.seq));
    }

    let mut out = String::with_capacity(capacity_bound(&order));
    out.push_str(concat!(
        "{\"traceEvents\":[\n",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"dcbackup\"}}",
    ));
    let mut resolved: Vec<(u64, &Event)> = Vec::new();
    let mut tid = String::new();
    let mut span_track = String::new();
    let mut instant_track = String::new();
    for lane_events in order.chunk_by(|a, b| a.lane == b.lane) {
        let lane = lane_events[0].lane;
        tid.clear();
        push_u64(&mut tid, lane);
        out.push_str(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        out.push_str(&tid);
        out.push_str(",\"args\":{\"name\":\"");
        if lane == crate::ROOT_LANE {
            out.push_str("main");
        } else {
            out.push_str("task ");
            push_u64(&mut out, lane >> 32);
            out.push('.');
            push_u64(&mut out, lane & 0xffff_ffff);
        }
        out.push_str("\"}}");

        // Resolve inherit timestamps in sequence order. A stable sort by
        // resolved time keeps per-track timestamps monotone and sequence
        // order at equal instants; a lane already monotone is in that order.
        resolved.clear();
        let mut last = 0u64;
        let mut monotone = true;
        for &event in lane_events {
            let ts = event.at_us.unwrap_or(last);
            monotone &= ts >= last;
            last = ts;
            resolved.push((ts, event));
        }
        if !monotone {
            resolved.sort_by_key(|&(ts, e)| (ts, e.seq));
        }

        for (track, ph) in [(&mut span_track, 'X'), (&mut instant_track, 'i')] {
            track.clear();
            track.push_str("\",\"ph\":\"");
            track.push(ph);
            track.push_str("\",\"pid\":1,\"tid\":");
            track.push_str(&tid);
            track.push_str(",\"ts\":");
        }
        for &(ts, event) in &resolved {
            let track = if event.dur_us > 0 {
                &span_track
            } else {
                &instant_track
            };
            write_event(&mut out, track, ts, event);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// The most bytes the document's fixed text can take: the header and
/// footer, each lane's `thread_name` record, and per event the longest
/// kind's literals (`segment_commit`, whose end cause is also its name)
/// with every integer at its widest. Adding every payload string's length
/// makes this an upper bound for any trace whose strings need no escape.
fn capacity_bound(order: &[&Event]) -> usize {
    const DOCUMENT: usize = 128;
    const LANE: usize = 128;
    const EVENT: usize = 320;
    let mut bound = DOCUMENT;
    let mut lane = None;
    for event in order {
        if lane != Some(event.lane) {
            lane = Some(event.lane);
            bound += LANE;
        }
        bound += EVENT + payload_text_len(&event.kind);
    }
    bound
}

/// Bytes of payload text one event writes before escaping.
fn payload_text_len(kind: &EventKind) -> usize {
    match kind {
        EventKind::OutageStart {
            config, technique, ..
        }
        | EventKind::Evaluate {
            config, technique, ..
        } => config.len() + technique.len(),
        EventKind::DgRampPhase { phase } => phase.len(),
        EventKind::TechniqueTransition { from, to } => from.len() + to.len(),
        EventKind::SegmentCommit { end_cause, .. } => 2 * end_cause.len(),
        EventKind::TopoResolve { level, name, .. } | EventKind::TopoShed { level, name, .. } => {
            level.len() + name.len()
        }
        EventKind::BatteryDeplete
        | EventKind::DustSnap
        | EventKind::CacheHit { .. }
        | EventKind::CacheMiss { .. }
        | EventKind::ShortfallRoot { .. } => 0,
    }
}

/// Appends one trace-event JSON object, preceded by its `,\n` separator.
/// `track` is the lane's `","ph":"<X|i>","pid":1,"tid":<lane>,"ts":` text
/// for this event's phase.
fn write_event(out: &mut String, track: &str, ts: u64, event: &Event) {
    // Each kind's `name` and `cat` text is one literal (`EventKind::name`
    // and `EventKind::layer` spelled out, which the oracle test checks).
    macro_rules! head {
        ($name:literal, $layer:literal) => {
            out.push_str(concat!(",\n{\"name\":\"", $name, "\",\"cat\":\"", $layer))
        };
    }
    match &event.kind {
        EventKind::SegmentCommit { end_cause, .. } => {
            out.push_str(",\n{\"name\":\"seg:");
            push_escaped(out, end_cause);
            out.push_str("\",\"cat\":\"sim");
        }
        EventKind::OutageStart { .. } => head!("outage_start", "sim"),
        EventKind::DgRampPhase { .. } => head!("dg_ramp_phase", "sim"),
        EventKind::BatteryDeplete => head!("battery_deplete", "sim"),
        EventKind::TechniqueTransition { .. } => head!("technique_transition", "sim"),
        EventKind::DustSnap => head!("dust_snap", "battery"),
        EventKind::CacheHit { .. } => head!("cache_hit", "fleet"),
        EventKind::CacheMiss { .. } => head!("cache_miss", "fleet"),
        EventKind::ShortfallRoot { .. } => head!("shortfall_root", "sim"),
        EventKind::Evaluate { .. } => head!("evaluate", "core"),
        EventKind::TopoResolve { .. } => head!("topo_resolve", "topology"),
        EventKind::TopoShed { .. } => head!("topo_shed", "topology"),
    }
    out.push_str(track);
    push_u64(out, ts);
    if event.dur_us > 0 {
        out.push_str(",\"dur\":");
        push_u64(out, event.dur_us);
        out.push_str(",\"args\":{\"seq\":");
    } else {
        out.push_str(",\"s\":\"t\",\"args\":{\"seq\":");
    }
    push_u64(out, u64::from(event.seq));
    if let Some(parent) = event.parent {
        out.push_str(",\"parent\":");
        push_u64(out, u64::from(parent));
    }
    match &event.kind {
        EventKind::OutageStart {
            config,
            technique,
            outage_us,
        } => {
            out.push_str(",\"config\":\"");
            push_escaped(out, config);
            out.push_str("\",\"technique\":\"");
            push_escaped(out, technique);
            out.push_str("\",\"outage_us\":");
            push_u64(out, *outage_us);
        }
        EventKind::DgRampPhase { phase } => {
            out.push_str(",\"phase\":\"");
            push_escaped(out, phase);
            out.push('"');
        }
        EventKind::BatteryDeplete | EventKind::DustSnap => {}
        EventKind::TechniqueTransition { from, to } => {
            out.push_str(",\"from\":\"");
            push_escaped(out, from);
            out.push_str("\",\"to\":\"");
            push_escaped(out, to);
            out.push('"');
        }
        EventKind::SegmentCommit {
            end_cause,
            load_mw,
            throughput_pm,
            in_downtime,
        } => {
            out.push_str(",\"end_cause\":\"");
            push_escaped(out, end_cause);
            out.push_str("\",\"load_mw\":");
            push_u64(out, *load_mw);
            out.push_str(",\"throughput_pm\":");
            push_u64(out, *throughput_pm);
            out.push_str(",\"in_downtime\":");
            push_bool(out, *in_downtime);
        }
        EventKind::CacheHit { digest } | EventKind::CacheMiss { digest } => {
            out.push_str(",\"digest\":\"");
            push_hex128(out, *digest);
            out.push('"');
        }
        EventKind::ShortfallRoot { bisections } => {
            out.push_str(",\"bisections\":");
            push_u64(out, *bisections);
        }
        EventKind::Evaluate {
            config,
            technique,
            feasible,
        } => {
            out.push_str(",\"config\":\"");
            push_escaped(out, config);
            out.push_str("\",\"technique\":\"");
            push_escaped(out, technique);
            out.push_str("\",\"feasible\":");
            push_bool(out, *feasible);
        }
        EventKind::TopoResolve {
            level,
            name,
            multiplicity,
            feasible,
        } => {
            out.push_str(",\"level\":\"");
            push_escaped(out, level);
            out.push_str("\",\"node\":\"");
            push_escaped(out, name);
            out.push_str("\",\"multiplicity\":");
            push_u64(out, *multiplicity);
            out.push_str(",\"feasible\":");
            push_bool(out, *feasible);
        }
        EventKind::TopoShed {
            level,
            name,
            servers,
        } => {
            out.push_str(",\"level\":\"");
            push_escaped(out, level);
            out.push_str("\",\"node\":\"");
            push_escaped(out, name);
            out.push_str("\",\"servers\":");
            push_u64(out, *servers);
        }
    }
    out.push_str("}}");
}

const HEX: &str = "0123456789abcdef";

/// `"00"` to `"99"`: [`push_u64`] writes two digits per division.
const DIGIT_PAIRS: &str = concat!(
    "00010203040506070809",
    "10111213141516171819",
    "20212223242526272829",
    "30313233343536373839",
    "40414243444546474849",
    "50515253545556575859",
    "60616263646566676869",
    "70717273747576777879",
    "80818283848586878889",
    "90919293949596979899",
);

/// Appends `n` in decimal: its base-100 digits are found least
/// significant first and written most significant first.
fn push_u64(out: &mut String, mut n: u64) {
    let mut pairs = [0u8; 10];
    let mut count = 0;
    while n >= 100 {
        pairs[count] = (n % 100) as u8;
        n /= 100;
        count += 1;
    }
    let lead = 2 * n as usize;
    out.push_str(&DIGIT_PAIRS[lead + usize::from(n < 10)..lead + 2]);
    for &pair in pairs[..count].iter().rev() {
        let at = 2 * usize::from(pair);
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends `n` as 32 lowercase hex digits.
fn push_hex128(out: &mut String, n: u128) {
    for shift in (0..32).rev() {
        let digit = (n >> (4 * shift)) as usize & 0xf;
        out.push_str(&HEX[digit..=digit]);
    }
}

/// Appends `s` with JSON string escaping (quote, backslash, `\n`, `\t`,
/// `\r`, and `\uXXXX` for remaining control characters). A string that
/// needs none is copied whole.
fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let code = c as usize;
                out.push_str("\\u00");
                out.push_str(&HEX[code >> 4..=code >> 4]);
                out.push_str(&HEX[code & 0xf..=code & 0xf]);
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
                    end_cause: "battery_depleted",
                    load_mw: 4_000_000,
                    throughput_pm: 1000,
                    in_downtime: false,
                },
            ),
            event(1 << 32, 0, Some(7), 0, EventKind::CacheHit { digest: 0x0f }),
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
    fn the_reservation_covers_every_kind_at_its_widest() {
        let kinds = [
            EventKind::OutageStart {
                config: "MaxPerf".to_owned(),
                technique: "RideThrough".to_owned(),
                outage_us: u64::MAX,
            },
            EventKind::DgRampPhase {
                phase: "fuel_exhausted",
            },
            EventKind::BatteryDeplete,
            EventKind::TechniqueTransition {
                from: "serving",
                to: "crashed",
            },
            EventKind::SegmentCommit {
                end_cause: "migration_pause",
                load_mw: u64::MAX,
                throughput_pm: u64::MAX,
                in_downtime: false,
            },
            EventKind::DustSnap,
            EventKind::CacheHit { digest: u128::MAX },
            EventKind::CacheMiss { digest: 0 },
            EventKind::ShortfallRoot {
                bisections: u64::MAX,
            },
            EventKind::Evaluate {
                config: "MinCost".to_owned(),
                technique: "Sleep-L".to_owned(),
                feasible: false,
            },
            EventKind::TopoResolve {
                level: "datacenter",
                name: "row-7".to_owned(),
                multiplicity: u64::MAX,
                feasible: false,
            },
            EventKind::TopoShed {
                level: "datacenter",
                name: "batch".to_owned(),
                servers: u64::MAX,
            },
        ];
        for kind in kinds {
            // One lane per event, each at its widest: a span and an instant.
            let events: Vec<Event> = [u64::MAX, 0]
                .into_iter()
                .enumerate()
                .map(|(i, dur_us)| Event {
                    lane: u64::MAX - i as u64,
                    seq: u32::MAX,
                    parent: Some(u32::MAX),
                    at_us: Some(u64::MAX),
                    dur_us,
                    kind: kind.clone(),
                })
                .collect();
            let mut order: Vec<&Event> = events.iter().collect();
            order.sort_by_key(|e| e.lane);
            let bound = capacity_bound(&order);
            let document = export(&events);
            assert!(
                document.len() <= bound,
                "{}: {} bytes over a {bound}-byte reservation",
                kind.name(),
                document.len()
            );
        }
    }

    #[test]
    fn integers_are_written_in_decimal() {
        let mut cases = vec![0, 1, 9, 10, 11, 99, 100, 101, 999, 1_000, u64::MAX];
        cases.extend((1..20).map(|exp| 10u64.pow(exp) - 1));
        cases.extend((1..20).map(|exp| 10u64.pow(exp)));
        for n in cases {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn empty_event_list_exports_a_valid_document() {
        let doc = export(&[]);
        assert_eq!(validate(&doc).expect("valid"), 0);
    }
}
