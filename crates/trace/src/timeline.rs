//! The human timeline renderer behind `repro explain`: an annotated,
//! segment-by-segment account of a recorded scenario — each committed
//! segment with its span, end cause, governing constraint, load, and
//! running downtime/energy tallies, interleaved with the instants (DG
//! ramp milestones, battery depletion, technique transitions) that
//! explain *why* each segment ended where it did.
//!
//! Rendering reads events back, so this module is a report edge: fenced
//! out of model code by the `observe-in-result` audit lint.

use crate::event::{Event, EventKind};
use dcb_units::{Seconds, WattHours, Watts};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate outcome of a recorded timeline, rebuilt purely from its
/// `SegmentCommit` events. Tests compare this against the kernel's own
/// `OutageOutcome` for the same scenario: they must agree exactly on
/// end-cause counts and to the recorder's microsecond resolution on
/// downtime.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineTally {
    /// Committed segments observed.
    pub segments: u64,
    /// Total duration of segments flagged as downtime, in microseconds.
    pub downtime_us: u64,
    /// Backup energy drawn across all segments.
    pub energy: WattHours,
    /// Segment end causes and their counts, sorted by wire name.
    pub end_causes: Vec<(String, u64)>,
}

/// Rebuilds the aggregate tally from a recorded event list.
#[must_use]
pub fn tally(events: &[Event]) -> TimelineTally {
    let mut segments = 0u64;
    let mut downtime_us = 0u64;
    let mut energy = WattHours::ZERO;
    let mut causes: BTreeMap<&str, u64> = BTreeMap::new();
    for event in events {
        if let EventKind::SegmentCommit {
            end_cause,
            load_mw,
            in_downtime,
            ..
        } = &event.kind
        {
            segments += 1;
            if *in_downtime {
                downtime_us += event.dur_us;
            }
            energy += Watts::new(*load_mw as f64 / 1e3)
                .for_duration(Seconds::new(event.dur_us as f64 / 1e6));
            *causes.entry(end_cause.as_str()).or_default() += 1;
        }
    }
    TimelineTally {
        segments,
        downtime_us,
        energy,
        end_causes: causes
            .into_iter()
            .map(|(name, count)| (name.to_owned(), count))
            .collect(),
    }
}

/// Maps a segment end cause (wire name) to the constraint that governed
/// it — the paper's vocabulary for why a trajectory bends at that point.
#[must_use]
pub fn constraint_for(end_cause: &str) -> &'static str {
    match end_cause {
        "battery_depleted" => "battery capacity",
        "supply_overload" => "supply capacity",
        "dg_crossover" => "DG ramp",
        "timer_expired" => "technique timer",
        "migration_pause" => "migration stop-and-copy",
        "hybrid_fallback" => "fallback deadline",
        "recovery_power" => "backup headroom",
        "outage_end" => "outage end",
        _ => "unknown",
    }
}

/// Renders the recorded events as an annotated per-lane timeline.
#[must_use]
pub fn render(events: &[Event]) -> String {
    let mut lanes: BTreeMap<u64, Vec<(u64, &Event)>> = BTreeMap::new();
    for event in events {
        lanes.entry(event.lane).or_default().push((0, event));
    }
    let mut out = String::new();
    for (&lane, lane_events) in lanes.iter_mut() {
        lane_events.sort_by_key(|(_, e)| e.seq);
        let mut last = 0u64;
        for slot in lane_events.iter_mut() {
            last = slot.1.at_us.unwrap_or(last);
            slot.0 = last;
        }
        lane_events.sort_by_key(|&(ts, e)| (ts, e.seq));

        if lane == crate::ROOT_LANE {
            out.push_str("lane main\n");
        } else {
            let _ = writeln!(out, "lane task {}.{}", lane >> 32, lane & 0xffff_ffff);
        }
        let mut down_us = 0u64;
        let mut energy = WattHours::ZERO;
        for &(ts, event) in lane_events.iter() {
            render_line(&mut out, ts, event, &mut down_us, &mut energy);
        }
        let _ = writeln!(
            out,
            "  total: downtime {}  energy {}",
            fmt_secs(down_us),
            fmt_energy(energy)
        );
    }
    out
}

/// Appends one rendered line, updating the lane's running tallies.
fn render_line(
    out: &mut String,
    ts: u64,
    event: &Event,
    down_us: &mut u64,
    energy: &mut WattHours,
) {
    if let EventKind::SegmentCommit {
        end_cause,
        load_mw,
        throughput_pm,
        in_downtime,
    } = &event.kind
    {
        if *in_downtime {
            *down_us += event.dur_us;
        }
        *energy +=
            Watts::new(*load_mw as f64 / 1e3).for_duration(Seconds::new(event.dur_us as f64 / 1e6));
        let _ = writeln!(
            out,
            "  [{} .. {}]  segment  end={end_cause} ({})  load={}  thru={}.{}%{}  | total down {}  energy {}",
            fmt_secs(ts),
            fmt_secs(ts + event.dur_us),
            constraint_for(end_cause),
            fmt_load(*load_mw),
            throughput_pm / 10,
            throughput_pm % 10,
            if *in_downtime { "  DOWN" } else { "" },
            fmt_secs(*down_us),
            fmt_energy(*energy),
        );
        return;
    }
    let _ = write!(out, "  @ {}  ", fmt_secs(ts));
    match &event.kind {
        EventKind::OutageStart {
            config,
            technique,
            outage_us,
        } => {
            let _ = writeln!(
                out,
                "outage starts  config={config}  technique={technique}  length={}",
                fmt_secs(*outage_us)
            );
        }
        EventKind::DgRampPhase { phase } => {
            let _ = writeln!(out, "dg {phase}");
        }
        EventKind::BatteryDeplete => {
            out.push_str("battery depleted\n");
        }
        EventKind::TechniqueTransition { from, to } => {
            let _ = writeln!(out, "mode {from} -> {to}");
        }
        EventKind::DustSnap => {
            out.push_str("battery dust snapped to empty\n");
        }
        EventKind::CacheHit { digest } => {
            let _ = writeln!(out, "cache hit {}", short_digest(digest));
        }
        EventKind::CacheMiss { digest } => {
            let _ = writeln!(out, "cache miss {}", short_digest(digest));
        }
        EventKind::ShortfallRoot { bisections } => {
            let _ = writeln!(out, "shortfall root located ({bisections} bisections)");
        }
        EventKind::Evaluate {
            config,
            technique,
            feasible,
        } => {
            let _ = writeln!(
                out,
                "evaluated  config={config}  technique={technique}  feasible={feasible}"
            );
        }
        EventKind::TopoResolve {
            level,
            name,
            multiplicity,
            feasible,
        } => {
            let _ = writeln!(
                out,
                "resolved {level} {name}  x{multiplicity}  feasible={feasible}"
            );
        }
        EventKind::TopoShed {
            level,
            name,
            servers,
        } => {
            let _ = writeln!(out, "shed {level} {name}  servers={servers}");
        }
        EventKind::SegmentCommit { .. } => {}
    }
}

/// Formats virtual microseconds as seconds with millisecond precision.
fn fmt_secs(us: u64) -> String {
    format!("{:.3}s", us as f64 / 1e6)
}

/// Formats a milliwatt load with an adaptive unit.
fn fmt_load(load_mw: u64) -> String {
    let watts = load_mw as f64 / 1e3;
    if watts >= 1e6 {
        format!("{:.3}MW", watts / 1e6)
    } else if watts >= 1e3 {
        format!("{:.3}kW", watts / 1e3)
    } else {
        format!("{watts:.3}W")
    }
}

/// Formats an energy tally with an adaptive unit.
fn fmt_energy(energy: WattHours) -> String {
    let wh = energy.value();
    if wh >= 1e6 {
        format!("{:.3}MWh", wh / 1e6)
    } else if wh >= 1e3 {
        format!("{:.3}kWh", wh / 1e3)
    } else {
        format!("{wh:.3}Wh")
    }
}

/// The first 8 hex digits of a scenario digest — enough to eyeball.
fn short_digest(digest: &str) -> &str {
    digest.get(..8).unwrap_or(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(seq: u32, at: u64, dur: u64, cause: &str, down: bool) -> Event {
        Event {
            lane: 0,
            seq,
            parent: None,
            at_us: Some(at),
            dur_us: dur,
            kind: EventKind::SegmentCommit {
                end_cause: cause.to_owned(),
                load_mw: 2_000_000_000, // 2 MW
                throughput_pm: 750,
                in_downtime: down,
            },
        }
    }

    #[test]
    fn tally_counts_segments_downtime_and_energy() {
        let events = vec![
            seg(0, 0, 1_000_000, "dg_crossover", false),
            seg(1, 1_000_000, 3_000_000, "battery_depleted", true),
            seg(2, 4_000_000, 1_000_000, "outage_end", true),
        ];
        let t = tally(&events);
        assert_eq!(t.segments, 3);
        assert_eq!(t.downtime_us, 4_000_000);
        assert_eq!(
            t.end_causes,
            vec![
                ("battery_depleted".to_owned(), 1),
                ("dg_crossover".to_owned(), 1),
                ("outage_end".to_owned(), 1),
            ]
        );
        // 2 MW for 5 s total = 2e6 W * 5/3600 h.
        let expected = 2e6 * 5.0 / 3600.0;
        assert!((t.energy.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn render_shows_constraints_and_running_tallies() {
        let mut events = vec![Event {
            lane: 0,
            seq: 0,
            parent: None,
            at_us: Some(0),
            dur_us: 0,
            kind: EventKind::OutageStart {
                config: "MaxPerf".to_owned(),
                technique: "RideThrough".to_owned(),
                outage_us: 2_000_000,
            },
        }];
        events.push(seg(1, 0, 2_000_000, "battery_depleted", true));
        let text = render(&events);
        assert!(text.contains("lane main"));
        assert!(text.contains("outage starts"));
        assert!(text.contains("(battery capacity)"));
        assert!(text.contains("DOWN"));
        assert!(text.contains("total: downtime 2.000s"));
    }

    #[test]
    fn every_kernel_end_cause_has_a_constraint() {
        for cause in [
            "outage_end",
            "timer_expired",
            "migration_pause",
            "battery_depleted",
            "supply_overload",
            "dg_crossover",
            "hybrid_fallback",
            "recovery_power",
        ] {
            assert_ne!(constraint_for(cause), "unknown", "unmapped: {cause}");
        }
        assert_eq!(constraint_for("???"), "unknown");
    }
}
