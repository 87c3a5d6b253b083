//! The process-wide metric registry and its stable-ordered snapshot.

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a registry map, recovering from poisoning: entries are leaked
/// `&'static` metrics inserted whole, so a panicked writer cannot leave a
/// torn value and recovery is always safe.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a metric's value is a pure function of the evaluated workload
/// (`Stable`) or may vary with scheduling, thread count, or the wall
/// clock (`Volatile`). Declared at registration; the JSON report renders
/// only `Stable` metrics (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stability {
    /// Byte-reproducible across runs and `DCB_THREADS` settings.
    Stable,
    /// Scheduling- or clock-dependent; excluded from reproducible output.
    Volatile,
}

#[derive(Debug, Default)]
struct SpanStat {
    calls: u64,
    wall_ns: u128,
}

/// The process-wide registry of counters, histograms, and span stats.
///
/// Metrics register on first use under a `&'static str` name and live for
/// the whole process (they are leaked, so call sites can hold cheap
/// `&'static` handles via the [`crate::counter!`]-family macros). All
/// maps are `BTreeMap`s keyed by name, so every [`Snapshot`] comes out in
/// one canonical order — no dependence on registration order or hash
/// seeds.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, (Stability, &'static Counter)>>,
    histograms: Mutex<BTreeMap<&'static str, (Stability, &'static Histogram)>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

/// The global registry all instrumentation records into.
#[must_use]
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Snapshots the global registry. Equivalent to
/// [`registry()`](registry)`.snapshot()`; this free function is the
/// canonical read surface the `observe-in-result` audit lint fences out
/// of model code.
#[must_use]
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

impl Registry {
    fn counter_with(&self, name: &'static str, stability: Stability) -> &'static Counter {
        lock(&self.counters)
            .entry(name)
            .or_insert_with(|| (stability, Box::leak(Box::new(Counter::new()))))
            .1
        // A name registered under two stability classes keeps the
        // first; names are workspace-unique by convention (see
        // OBSERVABILITY.md).
    }

    /// Registers (or finds) a stable counter. Prefer the
    /// [`crate::counter!`] macro, which caches the handle per call site.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.counter_with(name, Stability::Stable)
    }

    /// Registers (or finds) a volatile counter (scheduling-dependent;
    /// excluded from reproducible output).
    pub fn volatile_counter(&self, name: &'static str) -> &'static Counter {
        self.counter_with(name, Stability::Volatile)
    }

    fn histogram_with(&self, name: &'static str, stability: Stability) -> &'static Histogram {
        lock(&self.histograms)
            .entry(name)
            .or_insert_with(|| (stability, Box::leak(Box::new(Histogram::new()))))
            .1
    }

    /// Registers (or finds) a stable histogram. Prefer the
    /// [`crate::histogram!`] macro.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        self.histogram_with(name, Stability::Stable)
    }

    /// Registers (or finds) a volatile histogram.
    pub fn volatile_histogram(&self, name: &'static str) -> &'static Histogram {
        self.histogram_with(name, Stability::Volatile)
    }

    /// Accumulates one closed span occurrence. Called by
    /// [`crate::SpanGuard`] on drop.
    pub(crate) fn record_span(&self, path: &str, wall_ns: u128) {
        let mut spans = lock(&self.spans);
        let stat = if let Some(stat) = spans.get_mut(path) {
            stat
        } else {
            spans.entry(path.to_owned()).or_default()
        };
        stat.calls += 1;
        stat.wall_ns += wall_ns;
    }

    /// Freezes every metric into a [`Snapshot`], in canonical name order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.counters);
        let histograms = lock(&self.histograms);
        let spans = lock(&self.spans);
        Snapshot {
            counters: counters
                .iter()
                .map(|(name, (stability, counter))| ((*name).to_owned(), *stability, counter.get()))
                .collect(),
            histograms: histograms
                .iter()
                .map(|(name, (stability, histogram))| {
                    ((*name).to_owned(), *stability, histogram.snapshot())
                })
                .collect(),
            spans: spans
                .iter()
                .map(|(path, stat)| SpanSnapshot {
                    path: path.clone(),
                    calls: stat.calls,
                    wall_ns: stat.wall_ns,
                })
                .collect(),
        }
    }

    /// Zeroes every counter, histogram, and span stat (registrations are
    /// kept). Benchmarks use this to isolate an instrumented pass.
    pub fn reset(&self) {
        for (_, counter) in lock(&self.counters).values() {
            counter.reset();
        }
        for (_, histogram) in lock(&self.histograms).values() {
            histogram.reset();
        }
        lock(&self.spans).clear();
    }
}

/// A frozen, stable-ordered view of the registry.
///
/// Everything is sorted by metric name / span path, so two snapshots of
/// identical metric state render byte-identically. The *stable* subset
/// (see [`Stability`]) is additionally identical across `DCB_THREADS`
/// settings for a fixed workload — that is what
/// [`Snapshot::to_stable_json`] renders and what the snapshot tests
/// byte-compare.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, stability, value)` for every registered counter, sorted by
    /// name.
    pub counters: Vec<(String, Stability, u64)>,
    /// `(name, stability, contents)` for every registered histogram,
    /// sorted by name.
    pub histograms: Vec<(String, Stability, HistogramSnapshot)>,
    /// Per-path span statistics, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `/`-joined nesting path (`repro/fig5/sweep_configs`).
    pub path: String,
    /// Times the span was opened and closed. Stable.
    pub calls: u64,
    /// Total wall time spent inside, in nanoseconds. Volatile.
    pub wall_ns: u128,
}

/// Minimal JSON string escaping for metric names and span paths.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// The value of a counter by name, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// The contents of a histogram by name, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, h)| h)
    }

    /// Derived ratios computed from stable metrics at snapshot time,
    /// rendered with a fixed precision so output stays byte-reproducible.
    /// Every `<prefix>.hits` / `<prefix>.misses` stable counter pair
    /// yields a `<prefix>.hit_rate`, and every stable histogram yields a
    /// `<name>_mean` (`sum / count`, e.g.
    /// `sim.kernel.segments_per_outage_mean`). Entries are sorted by name.
    fn derived(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, stability, hits) in &self.counters {
            if *stability != Stability::Stable {
                continue;
            }
            let Some(prefix) = name.strip_suffix(".hits") else {
                continue;
            };
            let Some(misses) = self.counter(&format!("{prefix}.misses")) else {
                continue;
            };
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                *hits as f64 / total as f64
            };
            out.push((format!("{prefix}.hit_rate"), format!("{rate:.6}")));
        }
        for (name, stability, histogram) in &self.histograms {
            if *stability != Stability::Stable {
                continue;
            }
            out.push((format!("{name}_mean"), format!("{:.6}", histogram.mean())));
        }
        out.sort();
        out
    }

    fn render_histogram_json(h: &HistogramSnapshot) -> String {
        let buckets = h
            .buckets
            .iter()
            .map(|(lo, hi, count)| format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{count}}}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            h.count, h.sum, buckets
        )
    }

    fn render_json(&self, include_volatile: bool) -> String {
        let keep = |s: Stability| include_volatile || s == Stability::Stable;
        let mut out = String::from("{\n  \"dcb_telemetry\": {\n");
        out.push_str("    \"counters\": {");
        let counters = self
            .counters
            .iter()
            .filter(|(_, s, _)| keep(*s))
            .map(|(name, _, value)| format!("\n      \"{}\": {value}", escape(name)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&counters);
        out.push_str("\n    },\n    \"derived\": {");
        let derived = self
            .derived()
            .iter()
            .map(|(name, value)| format!("\n      \"{}\": {value}", escape(name)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&derived);
        out.push_str("\n    },\n    \"histograms\": {");
        let histograms = self
            .histograms
            .iter()
            .filter(|(_, s, _)| keep(*s))
            .map(|(name, _, h)| {
                format!(
                    "\n      \"{}\": {}",
                    escape(name),
                    Self::render_histogram_json(h)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&histograms);
        out.push_str("\n    },\n    \"spans\": [");
        let spans = self
            .spans
            .iter()
            .map(|span| {
                if include_volatile {
                    format!(
                        "\n      {{\"path\":\"{}\",\"calls\":{},\"wall_ns\":{}}}",
                        escape(&span.path),
                        span.calls,
                        span.wall_ns
                    )
                } else {
                    format!(
                        "\n      {{\"path\":\"{}\",\"calls\":{}}}",
                        escape(&span.path),
                        span.calls
                    )
                }
            })
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&spans);
        out.push_str("\n    ]\n  }\n}\n");
        out
    }

    /// Renders the **stable** subset as JSON: stable counters and
    /// histograms, derived ratios, and span paths + call counts (no wall
    /// times, no volatile metrics). Byte-reproducible across runs and
    /// `DCB_THREADS` settings for a fixed workload; safe to assert in
    /// tests.
    #[must_use]
    pub fn to_stable_json(&self) -> String {
        self.render_json(false)
    }

    /// Renders everything as JSON, including volatile metrics and span
    /// wall times. For bench reports and humans; **not** reproducible.
    #[must_use]
    pub fn to_full_json(&self) -> String {
        self.render_json(true)
    }

    /// Renders a human-readable report, including volatile metrics and
    /// span wall times (marked as such). Not byte-reproducible.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("dcb-telemetry report\n");
        let _ = writeln!(out, "  counters:");
        for (name, stability, value) in &self.counters {
            let tag = if *stability == Stability::Volatile {
                "  [volatile]"
            } else {
                ""
            };
            let _ = writeln!(out, "    {name:<44} {value:>12}{tag}");
        }
        for (name, value) in self.derived() {
            let _ = writeln!(out, "    {name:<44} {value:>12}  [derived]");
        }
        let _ = writeln!(out, "  histograms:");
        for (name, stability, h) in &self.histograms {
            let tag = if *stability == Stability::Volatile {
                "  [volatile]"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {name}: count {} sum {} mean {:.2} p50 \u{2264} {} p95 \u{2264} {} max \u{2264} {}{tag}",
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p95(),
                h.max_observed()
            );
            for (lo, hi, count) in &h.buckets {
                let _ = writeln!(out, "      [{lo}, {hi}] {count}");
            }
        }
        let _ = writeln!(out, "  spans (wall times are volatile):");
        for span in &self.spans {
            let _ = writeln!(
                out,
                "    {:<44} calls {:>8}  wall {:.3} ms",
                span.path,
                span.calls,
                span.wall_ns as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_reproducible() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        registry().counter("registry.test.zz").add(2);
        registry().counter("registry.test.aa").add(1);
        registry().histogram("registry.test.hist").observe(5);
        crate::set_enabled(false);
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a.to_stable_json(), b.to_stable_json());
        let names: Vec<&String> = a.counters.iter().map(|(n, _, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn volatile_metrics_are_excluded_from_stable_json() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        registry()
            .volatile_counter("registry.test.volatile")
            .add(99);
        crate::set_enabled(false);
        let snap = snapshot();
        assert!(!snap.to_stable_json().contains("registry.test.volatile"));
        assert!(snap.to_full_json().contains("registry.test.volatile"));
        assert!(snap.to_text().contains("registry.test.volatile"));
    }

    #[test]
    fn hit_rate_is_derived_with_fixed_precision() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        registry().counter("registry.test.cache.hits").add(1);
        registry().counter("registry.test.cache.misses").add(3);
        crate::set_enabled(false);
        let json = snapshot().to_stable_json();
        assert!(
            json.contains("\"registry.test.cache.hit_rate\": 0.250000"),
            "{json}"
        );
    }

    #[test]
    fn histogram_means_are_derived_and_entries_sorted() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        registry().histogram("registry.test.meanhist").observe(3);
        registry().histogram("registry.test.meanhist").observe(6);
        registry().counter("registry.test.zz.hits").add(1);
        registry().counter("registry.test.zz.misses").add(0);
        crate::set_enabled(false);
        let snap = snapshot();
        let json = snap.to_stable_json();
        assert!(
            json.contains("\"registry.test.meanhist_mean\": 4.500000"),
            "{json}"
        );
        // Derived entries are sorted by name regardless of source kind.
        let derived = snap.derived();
        let names: Vec<&String> = derived.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // Quantile bounds reach the text report.
        let text = snap.to_text();
        assert!(text.contains("p50 \u{2264}"), "{text}");
        assert!(text.contains("max \u{2264}"), "{text}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
