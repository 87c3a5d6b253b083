//! The one-pass Chrome writer against the writer it replaced.
//!
//! `oracle_export` below is the previous `chrome::export`: it groups the
//! events per lane in a map, sorts each lane by sequence number, resolves
//! inherit timestamps, sorts the lane again by `(ts, seq)`, and formats
//! every field through `write!`. On random event lists the new writer's
//! bytes must equal the oracle's, and `chrome::validate` must accept them.
//! The lists cover every kind with payload strings from the hostile pool,
//! inherit timestamps, lanes whose timestamps go backwards, input in and
//! out of `(lane, seq)` order, duplicate `(lane, seq)` keys on the root
//! lane, and batch lanes above 2^32. A second proptest has
//! `chrome::validate` accept the export of random events on a few lanes.

mod common;

use common::kind_from;
use dcb_trace::{chrome, Event, EventKind, ROOT_LANE};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The grouping, twice-sorting writer `chrome::export` replaced, kept
/// byte for byte apart from the digest, which it received as text.
fn oracle_export(events: &[Event]) -> String {
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
        if lane == ROOT_LANE {
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
            let _ = write!(out, ",\"digest\":\"{digest:032x}\"");
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

/// `count` events from a seeded generator over a handful of lanes: the
/// root lane with sequence numbers drawn from a small range (so keys
/// repeat), and batch lanes `(batch << 32) | item` whose batch reaches
/// 2^20 (kept below 2^53 so `validate` reads every tid exactly).
fn events(count: usize, seed: u64) -> Vec<Event> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state
    };
    let lanes = [
        ROOT_LANE,
        1 << 32,
        (1 << 32) | 1,
        (0xf_ffff << 32) | 0xffff_ffff,
        (12_345 << 32) | 7,
    ];
    let mut next_seq: BTreeMap<u64, u32> = BTreeMap::new();
    (0..count)
        .map(|_| {
            let bits = next();
            let number = next();
            let at = next();
            let lane = lanes[(next() % lanes.len() as u64) as usize];
            let seq = if lane == ROOT_LANE {
                (bits >> 40) as u32 % 4
            } else {
                let slot = next_seq.entry(lane).or_default();
                *slot += 1;
                *slot - 1
            };
            Event {
                lane,
                seq,
                parent: (bits & 2 == 2).then_some((bits >> 2) as u32 % 8),
                // A third inherit; bounded so `validate`'s f64 reads are exact.
                at_us: (at % 3 != 0).then_some((at >> 2) % (1 << 40)),
                dur_us: if bits & 4 == 4 { 0 } else { next() % (1 << 40) },
                kind: kind_from((bits % 12) as u8, bits, number),
            }
        })
        .collect()
}

/// The new writer's document equals the oracle's and validates.
fn check(events: &[Event]) -> Result<(), TestCaseError> {
    let document = chrome::export(events);
    prop_assert_eq!(&document, &oracle_export(events));
    let validated = chrome::validate(&document);
    prop_assert!(validated.is_ok(), "invalid trace: {:?}", validated);
    prop_assert_eq!(validated.unwrap_or(0), events.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_writer_matches_the_oracle_byte_for_byte(
        count in 0usize..80,
        seed in 0u64..=u64::MAX,
        monotone in 0u8..3,
    ) {
        let mut events = events(count, seed);
        if monotone == 0 {
            // Timestamps that only grow within each lane: the writer keeps
            // such a lane in sequence order without re-sorting it.
            let mut last: BTreeMap<u64, u64> = BTreeMap::new();
            events.sort_by_key(|e| (e.lane, e.seq));
            for event in &mut events {
                let floor = last.entry(event.lane).or_default();
                if let Some(at) = event.at_us.as_mut() {
                    *at = (*at).max(*floor);
                    *floor = *at;
                }
            }
        }
        // In generation order (unsorted input) ...
        check(&events)?;
        // ... and in drain order, which the writer takes as it comes.
        events.sort_by_key(|e| (e.lane, e.seq));
        check(&events)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn arbitrary_event_sets_export_valid_chrome_traces(
        count in 0usize..40,
        seed in 0u64..=u64::MAX,
    ) {
        let mut cursor = seed;
        let mut next = || {
            cursor = cursor.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
            cursor
        };
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let bits = next();
            let number = next();
            let at = next();
            events.push(Event {
                // A few lanes so the exporter exercises multiple tracks.
                lane: (next() % 3) << 32,
                seq: i as u32,
                parent: (bits & 2 == 2).then_some((bits >> 2) as u32),
                // Bounded timestamps keep f64 round-trips in the validator exact.
                at_us: (at & 1 == 1).then_some((at >> 1) % (1 << 50)),
                dur_us: next() % (1 << 50),
                kind: kind_from((bits % 12) as u8, bits, number),
            });
        }
        let document = chrome::export(&events);
        let validated = chrome::validate(&document);
        prop_assert!(validated.is_ok(), "invalid trace: {:?}", validated);
        prop_assert_eq!(validated.unwrap(), events.len());
    }
}

#[test]
fn every_kind_and_an_empty_list_match_the_oracle() {
    let mut events: Vec<Event> = (0..12u8)
        .map(|selector| Event {
            lane: u64::from(selector % 3) << 32,
            seq: u32::from(selector),
            parent: (selector % 2 == 1).then_some(0),
            at_us: (selector % 4 != 0).then_some(u64::from(selector) * 1_000),
            dur_us: u64::from(selector % 3) * 500,
            kind: kind_from(
                selector,
                0x5eed_u64 << selector,
                u64::MAX - u64::from(selector),
            ),
        })
        .collect();
    events.push(Event {
        lane: ROOT_LANE,
        seq: 3,
        parent: None,
        at_us: None,
        dur_us: 0,
        kind: EventKind::DustSnap,
    });
    for list in [&events[..], &[]] {
        let document = chrome::export(list);
        assert_eq!(document, oracle_export(list));
        assert_eq!(chrome::validate(&document), Ok(list.len()));
    }
}
