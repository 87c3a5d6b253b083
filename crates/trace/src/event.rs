//! The structured event model and its canonical line encoding.
//!
//! Every recorded occurrence is an [`Event`]: a lane/sequence identity, an
//! optional causal parent (the sequence number of an earlier event in the
//! same lane), a virtual timestamp in simulated microseconds, and a typed
//! [`EventKind`] payload. The canonical line encoding is the crate's wire
//! format: one event per line, fields in a fixed order, strings quoted
//! with a fixed escape set — so `encode → parse → encode` is
//! byte-identical (asserted by a proptest) and traces can be diffed with
//! ordinary text tools.
//!
//! Names a record site always takes from a fixed vocabulary (segment end
//! causes, DG ramp phases, technique modes, topology levels) are
//! `Cow<'static, str>`: recording borrows the literal, so building one of
//! these events allocates nothing, while the line parser still accepts
//! any text into an owned value. Cache digests are `u128` and encode as
//! 32 lowercase hex digits everywhere they are written.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual track the event belongs to: [`crate::ROOT_LANE`] for the
    /// calling thread's default track, or a batch-assigned lane (a pure
    /// function of the workload, never of the thread that ran it — see
    /// [`crate::claim_lanes`]).
    pub lane: u64,
    /// Position within the lane, assigned at record time.
    pub seq: u32,
    /// Sequence number of the causal parent event in the same lane, if
    /// any (e.g. a `SegmentCommit` points at its `OutageStart`).
    pub parent: Option<u32>,
    /// Virtual timestamp in simulated microseconds; `None` inherits the
    /// previous event's resolved time within the lane (0 at lane start).
    pub at_us: Option<u64>,
    /// Duration in simulated microseconds (0 for instants).
    pub dur_us: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// What happened. Numeric payloads are integers by design: milliwatts,
/// per-mille throughput, and microseconds encode exactly, so two runs that
/// simulated the same scenario serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An outage simulation began (the root of a scenario's causal tree).
    OutageStart {
        /// Backup configuration label (Table 3 name).
        config: String,
        /// Technique name.
        technique: String,
        /// Outage length in simulated microseconds.
        outage_us: u64,
    },
    /// The diesel generator crossed a ramp milestone.
    DgRampPhase {
        /// `engine_start`, `full_power`, or `fuel_exhausted`.
        phase: Cow<'static, str>,
    },
    /// The UPS battery hit exact depletion.
    BatteryDeplete,
    /// The cluster's mode changed (technique state machine step).
    TechniqueTransition {
        /// Mode before the transition.
        from: Cow<'static, str>,
        /// Mode after the transition.
        to: Cow<'static, str>,
    },
    /// The kernel committed one constant-load analytic segment.
    SegmentCommit {
        /// Wire name of the segment's end cause
        /// (see `dcb_sim::SegmentEnd::as_str`).
        end_cause: Cow<'static, str>,
        /// Constant supply load over the segment, in milliwatts.
        load_mw: u64,
        /// Normalized throughput over the segment, in per-mille.
        throughput_pm: u64,
        /// Whether the segment counts as downtime.
        in_downtime: bool,
    },
    /// A battery draw landed on the depletion boundary and floating-point
    /// dust was snapped to exactly empty.
    DustSnap,
    /// The fleet evaluation cache answered a lookup.
    CacheHit {
        /// Scenario digest (the cache key), written as 32 hex digits.
        digest: u128,
    },
    /// The fleet evaluation cache had to compute.
    CacheMiss {
        /// Scenario digest (the cache key), written as 32 hex digits.
        digest: u128,
    },
    /// The first-true root finder bracketed and bisected a predicate flip.
    ShortfallRoot {
        /// Bisection iterations spent converging on the root.
        bisections: u64,
    },
    /// A (config, technique, duration) point finished evaluating.
    Evaluate {
        /// Backup configuration label.
        config: String,
        /// Technique name.
        technique: String,
        /// Whether the technique executed as intended.
        feasible: bool,
    },
    /// A topology node (possibly standing for many identical copies)
    /// finished resolving.
    TopoResolve {
        /// Hierarchy level name (`datacenter`, `cluster`, `rack`, `server`).
        level: Cow<'static, str>,
        /// Display name of the node.
        name: String,
        /// Explicit copies the resolved node stood for.
        multiplicity: u64,
        /// Whether every consumer below executed its technique as planned.
        feasible: bool,
    },
    /// A deficit decision cut power to a topology consumer class.
    TopoShed {
        /// Hierarchy level name of the shed node.
        level: Cow<'static, str>,
        /// Display name of the shed node.
        name: String,
        /// Servers shed (counting multiplicities).
        servers: u64,
    },
}

impl EventKind {
    /// Stable wire name of the kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::OutageStart { .. } => "outage_start",
            EventKind::DgRampPhase { .. } => "dg_ramp_phase",
            EventKind::BatteryDeplete => "battery_deplete",
            EventKind::TechniqueTransition { .. } => "technique_transition",
            EventKind::SegmentCommit { .. } => "segment_commit",
            EventKind::DustSnap => "dust_snap",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::ShortfallRoot { .. } => "shortfall_root",
            EventKind::Evaluate { .. } => "evaluate",
            EventKind::TopoResolve { .. } => "topo_resolve",
            EventKind::TopoShed { .. } => "topo_shed",
        }
    }

    /// The workspace layer that records this kind (the Chrome `cat` field).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        match self {
            EventKind::OutageStart { .. }
            | EventKind::DgRampPhase { .. }
            | EventKind::BatteryDeplete
            | EventKind::TechniqueTransition { .. }
            | EventKind::SegmentCommit { .. }
            | EventKind::ShortfallRoot { .. } => "sim",
            EventKind::DustSnap => "battery",
            EventKind::CacheHit { .. } | EventKind::CacheMiss { .. } => "fleet",
            EventKind::Evaluate { .. } => "core",
            EventKind::TopoResolve { .. } | EventKind::TopoShed { .. } => "topology",
        }
    }
}

impl Event {
    /// Encodes the event as one canonical line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "lane={} seq={}", self.lane, self.seq);
        match self.parent {
            Some(p) => {
                let _ = write!(out, " parent={p}");
            }
            None => out.push_str(" parent=-"),
        }
        match self.at_us {
            Some(at) => {
                let _ = write!(out, " at={at}");
            }
            None => out.push_str(" at=-"),
        }
        let _ = write!(out, " dur={} kind={}", self.dur_us, self.kind.name());
        match &self.kind {
            EventKind::OutageStart {
                config,
                technique,
                outage_us,
            } => {
                out.push_str(" config=");
                escape_into(&mut out, config);
                out.push_str(" technique=");
                escape_into(&mut out, technique);
                let _ = write!(out, " outage_us={outage_us}");
            }
            EventKind::DgRampPhase { phase } => {
                out.push_str(" phase=");
                escape_into(&mut out, phase);
            }
            EventKind::BatteryDeplete | EventKind::DustSnap => {}
            EventKind::TechniqueTransition { from, to } => {
                out.push_str(" from=");
                escape_into(&mut out, from);
                out.push_str(" to=");
                escape_into(&mut out, to);
            }
            EventKind::SegmentCommit {
                end_cause,
                load_mw,
                throughput_pm,
                in_downtime,
            } => {
                out.push_str(" end_cause=");
                escape_into(&mut out, end_cause);
                let _ = write!(
                    out,
                    " load_mw={load_mw} throughput_pm={throughput_pm} in_downtime={in_downtime}"
                );
            }
            EventKind::CacheHit { digest } | EventKind::CacheMiss { digest } => {
                let _ = write!(out, " digest=\"{digest:032x}\"");
            }
            EventKind::ShortfallRoot { bisections } => {
                let _ = write!(out, " bisections={bisections}");
            }
            EventKind::Evaluate {
                config,
                technique,
                feasible,
            } => {
                out.push_str(" config=");
                escape_into(&mut out, config);
                out.push_str(" technique=");
                escape_into(&mut out, technique);
                let _ = write!(out, " feasible={feasible}");
            }
            EventKind::TopoResolve {
                level,
                name,
                multiplicity,
                feasible,
            } => {
                out.push_str(" level=");
                escape_into(&mut out, level);
                out.push_str(" name=");
                escape_into(&mut out, name);
                let _ = write!(out, " multiplicity={multiplicity} feasible={feasible}");
            }
            EventKind::TopoShed {
                level,
                name,
                servers,
            } => {
                out.push_str(" level=");
                escape_into(&mut out, level);
                out.push_str(" name=");
                escape_into(&mut out, name);
                let _ = write!(out, " servers={servers}");
            }
        }
        out
    }

    /// Parses one canonical line back into an event.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field. Only lines in
    /// the canonical field order produced by [`Event::encode`] parse.
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut cursor = Cursor::new(line);
        let lane = cursor.field("lane")?.parse_u64()?;
        let seq = cursor.field("seq")?.parse_u32()?;
        let parent = cursor.field("parent")?.parse_opt_u32()?;
        let at_us = cursor.field("at")?.parse_opt_u64()?;
        let dur_us = cursor.field("dur")?.parse_u64()?;
        let kind_name = cursor.field("kind")?.bare()?;
        let kind = match kind_name.as_str() {
            "outage_start" => EventKind::OutageStart {
                config: cursor.field("config")?.string()?,
                technique: cursor.field("technique")?.string()?,
                outage_us: cursor.field("outage_us")?.parse_u64()?,
            },
            "dg_ramp_phase" => EventKind::DgRampPhase {
                phase: cursor.field("phase")?.name()?,
            },
            "battery_deplete" => EventKind::BatteryDeplete,
            "technique_transition" => EventKind::TechniqueTransition {
                from: cursor.field("from")?.name()?,
                to: cursor.field("to")?.name()?,
            },
            "segment_commit" => EventKind::SegmentCommit {
                end_cause: cursor.field("end_cause")?.name()?,
                load_mw: cursor.field("load_mw")?.parse_u64()?,
                throughput_pm: cursor.field("throughput_pm")?.parse_u64()?,
                in_downtime: cursor.field("in_downtime")?.parse_bool()?,
            },
            "dust_snap" => EventKind::DustSnap,
            "cache_hit" => EventKind::CacheHit {
                digest: cursor.field("digest")?.digest()?,
            },
            "cache_miss" => EventKind::CacheMiss {
                digest: cursor.field("digest")?.digest()?,
            },
            "shortfall_root" => EventKind::ShortfallRoot {
                bisections: cursor.field("bisections")?.parse_u64()?,
            },
            "evaluate" => EventKind::Evaluate {
                config: cursor.field("config")?.string()?,
                technique: cursor.field("technique")?.string()?,
                feasible: cursor.field("feasible")?.parse_bool()?,
            },
            "topo_resolve" => EventKind::TopoResolve {
                level: cursor.field("level")?.name()?,
                name: cursor.field("name")?.string()?,
                multiplicity: cursor.field("multiplicity")?.parse_u64()?,
                feasible: cursor.field("feasible")?.parse_bool()?,
            },
            "topo_shed" => EventKind::TopoShed {
                level: cursor.field("level")?.name()?,
                name: cursor.field("name")?.string()?,
                servers: cursor.field("servers")?.parse_u64()?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        cursor.finish()?;
        Ok(Event {
            lane,
            seq,
            parent,
            at_us,
            dur_us,
            kind,
        })
    }
}

/// Appends `s` as a quoted, escaped string. The escape set is fixed —
/// backslash, quote, `\n`, `\t`, and `\u{XXXX}` for remaining control
/// characters — so encoding is canonical.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{{{:04x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed `key=value` field: the raw (still possibly quoted) value.
struct FieldValue {
    key: &'static str,
    raw: String,
    quoted: bool,
}

impl FieldValue {
    fn parse_u64(&self) -> Result<u64, String> {
        self.bare()?
            .parse::<u64>()
            .map_err(|e| format!("field `{}`: {e}", self.key))
    }

    fn parse_u32(&self) -> Result<u32, String> {
        self.bare()?
            .parse::<u32>()
            .map_err(|e| format!("field `{}`: {e}", self.key))
    }

    fn parse_opt_u64(&self) -> Result<Option<u64>, String> {
        if !self.quoted && self.raw == "-" {
            Ok(None)
        } else {
            self.parse_u64().map(Some)
        }
    }

    fn parse_opt_u32(&self) -> Result<Option<u32>, String> {
        if !self.quoted && self.raw == "-" {
            Ok(None)
        } else {
            self.parse_u32().map(Some)
        }
    }

    fn parse_bool(&self) -> Result<bool, String> {
        match self.bare()?.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("field `{}`: not a bool: `{other}`", self.key)),
        }
    }

    /// The value as an unquoted token.
    fn bare(&self) -> Result<String, String> {
        if self.quoted {
            Err(format!("field `{}`: unexpected quoted string", self.key))
        } else {
            Ok(self.raw.clone())
        }
    }

    /// The value as an unescaped string (must have been quoted).
    fn string(&self) -> Result<String, String> {
        if !self.quoted {
            return Err(format!("field `{}`: expected quoted string", self.key));
        }
        Ok(self.raw.clone())
    }

    /// The value as an owned name (must have been quoted).
    fn name(&self) -> Result<Cow<'static, str>, String> {
        self.string().map(Cow::Owned)
    }

    /// The value as a digest: exactly 32 lowercase hex digits, quoted, so
    /// that every accepted line re-encodes byte for byte.
    fn digest(&self) -> Result<u128, String> {
        let hex = self.string()?;
        if hex.len() != 32 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(format!(
                "field `{}`: not 32 lowercase hex digits: `{hex}`",
                self.key
            ));
        }
        u128::from_str_radix(&hex, 16).map_err(|e| format!("field `{}`: {e}", self.key))
    }
}

/// A sequential field reader over one encoded line.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(line: &'a str) -> Self {
        Self { rest: line }
    }

    /// Reads the next `key=value` field, checking the key matches.
    fn field(&mut self, key: &'static str) -> Result<FieldValue, String> {
        let rest = self.rest.trim_start_matches(' ');
        let Some(after_key) = rest.strip_prefix(key) else {
            return Err(format!("expected field `{key}` at `{rest}`"));
        };
        let Some(value_start) = after_key.strip_prefix('=') else {
            return Err(format!("expected `=` after `{key}`"));
        };
        if let Some(quoted) = value_start.strip_prefix('"') {
            let (value, consumed) = unescape(quoted, key)?;
            self.rest = &quoted[consumed..];
            Ok(FieldValue {
                key,
                raw: value,
                quoted: true,
            })
        } else {
            let end = value_start.find(' ').unwrap_or(value_start.len());
            self.rest = &value_start[end..];
            Ok(FieldValue {
                key,
                raw: value_start[..end].to_owned(),
                quoted: false,
            })
        }
    }

    /// Asserts nothing but whitespace remains.
    fn finish(&self) -> Result<(), String> {
        let rest = self.rest.trim_start_matches(' ');
        if rest.is_empty() {
            Ok(())
        } else {
            Err(format!("trailing content: `{rest}`"))
        }
    }
}

/// Unescapes a quoted string starting just after the opening quote.
/// Returns the value and the byte offset just past the closing quote.
fn unescape(s: &str, key: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((j, 'u')) => {
                    let rest = &s[j + 1..];
                    let Some(hex_with_tail) = rest.strip_prefix('{') else {
                        return Err(format!("field `{key}`: malformed \\u escape"));
                    };
                    let Some(close) = hex_with_tail.find('}') else {
                        return Err(format!("field `{key}`: unterminated \\u escape"));
                    };
                    let code = u32::from_str_radix(&hex_with_tail[..close], 16)
                        .map_err(|e| format!("field `{key}`: bad \\u escape: {e}"))?;
                    let Some(c) = char::from_u32(code) else {
                        return Err(format!("field `{key}`: invalid codepoint {code}"));
                    };
                    out.push(c);
                    // Skip the `{`, the hex digits, and the `}` we just
                    // consumed (all ASCII, so chars == bytes).
                    for _ in 0..close + 2 {
                        chars.next();
                    }
                }
                _ => return Err(format!("field `{key}`: bad escape")),
            },
            c => out.push(c),
        }
    }
    Err(format!("field `{key}`: unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: &Event) {
        let line = event.encode();
        let parsed = Event::parse(&line).expect("canonical line parses");
        assert_eq!(&parsed, event);
        assert_eq!(parsed.encode(), line, "re-encode must be byte-identical");
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = vec![
            EventKind::OutageStart {
                config: "MaxPerf".to_owned(),
                technique: "RideThrough".to_owned(),
                outage_us: 7_200_000_000,
            },
            EventKind::DgRampPhase {
                phase: "engine_start".into(),
            },
            EventKind::BatteryDeplete,
            EventKind::TechniqueTransition {
                from: "serving".into(),
                to: "crashed".into(),
            },
            EventKind::SegmentCommit {
                end_cause: "outage_end".into(),
                load_mw: 4_000_000,
                throughput_pm: 1000,
                in_downtime: false,
            },
            EventKind::DustSnap,
            EventKind::CacheHit { digest: 0xff },
            EventKind::CacheMiss { digest: u128::MAX },
            EventKind::ShortfallRoot { bisections: 31 },
            EventKind::Evaluate {
                config: "MinCost".to_owned(),
                technique: "Sleep".to_owned(),
                feasible: false,
            },
            EventKind::TopoResolve {
                level: "cluster".into(),
                name: "row-7".to_owned(),
                multiplicity: 100,
                feasible: true,
            },
            EventKind::TopoShed {
                level: "rack".into(),
                name: "batch".to_owned(),
                servers: 1600,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            round_trip(&Event {
                lane: (i as u64) << 32,
                seq: i as u32,
                parent: if i % 2 == 0 { None } else { Some(0) },
                at_us: if i % 3 == 0 {
                    None
                } else {
                    Some(i as u64 * 17)
                },
                dur_us: i as u64,
                kind,
            });
        }
    }

    #[test]
    fn awkward_strings_round_trip() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab",
            "control\u{1}\u{1f}chars",
            "unicode ±√ ∞",
            "trailing space ",
            "equals=sign and spaces",
        ] {
            round_trip(&Event {
                lane: 0,
                seq: 0,
                parent: None,
                at_us: Some(1),
                dur_us: 0,
                kind: EventKind::DgRampPhase {
                    phase: s.to_owned().into(),
                },
            });
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::parse("").is_err());
        assert!(Event::parse("lane=0 seq=0").is_err());
        assert!(Event::parse("lane=x seq=0 parent=- at=- dur=0 kind=dust_snap").is_err());
        assert!(Event::parse("lane=0 seq=0 parent=- at=- dur=0 kind=nope").is_err());
        assert!(
            Event::parse("lane=0 seq=0 parent=- at=- dur=0 kind=dust_snap extra=1").is_err(),
            "trailing fields must be rejected"
        );
        assert!(
            Event::parse("lane=0 seq=0 parent=- at=- dur=0 kind=dg_ramp_phase phase=\"open")
                .is_err(),
            "unterminated strings must be rejected"
        );
        let digest = |hex: &str| {
            Event::parse(&format!(
                "lane=0 seq=0 parent=- at=- dur=0 kind=cache_hit digest=\"{hex}\""
            ))
        };
        assert!(digest(&"0f".repeat(16)).is_ok());
        for hex in ["0f", &"0F".repeat(16), &"0f".repeat(17), &"+f".repeat(16)] {
            assert!(digest(hex).is_err(), "digest `{hex}` must be rejected");
        }
    }
}
