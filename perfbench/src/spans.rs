//! Benchmark-side spans: wall-clock intervals recorded around calls into
//! the program's public functions. Spans stay in memory until the run ends
//! and are then written out as one line each.

use crate::stats::covered;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in creation order.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Id of the pass the span belongs to.
    pub pass: u32,
    /// What was called.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Records spans when on; costs one branch per span site when off.
#[derive(Debug)]
pub struct Tracer(Option<Recorder>);

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self(None)
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Self {
        Self(Some(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            pass: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Tags every span opened from now on with `pass`.
    pub fn set_pass(&self, pass: u32) {
        if let Some(rec) = &self.0 {
            rec.pass.store(pass, Ordering::Relaxed);
        }
    }

    /// Opens a span that closes when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str, parent: Option<u32>) -> SpanGuard<'_> {
        let open = self.0.as_ref().map(|rec| Open {
            rec,
            id: rec.next_id.fetch_add(1, Ordering::Relaxed),
            pass: rec.pass.load(Ordering::Relaxed),
            start: Instant::now(),
        });
        SpanGuard { open, parent, name }
    }

    /// Every closed span, sorted by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let Some(rec) = &self.0 else {
            return Vec::new();
        };
        let mut spans = rec.spans.lock().expect("span recorder poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

#[derive(Debug)]
struct Open<'a> {
    rec: &'a Recorder,
    id: u32,
    pass: u32,
    start: Instant,
}

/// An open span.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    open: Option<Open<'a>>,
    parent: Option<u32>,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// The span's id, for use as its children's parent.
    #[must_use]
    pub fn id(&self) -> Option<u32> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = &self.open {
            let end = Instant::now();
            let ns = |t: Instant| t.duration_since(open.rec.epoch).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: self.parent,
                pass: open.pass,
                name: self.name,
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            if let Ok(mut spans) = open.rec.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals. Returned in the input order.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            s.duration_ns() - covered(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Per span name: (call count, total self ns, total ns).
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
        entry.2 += span.duration_ns();
    }
    by_name
}

/// Renders spans one per line: `id parent pass name start_ns end_ns`,
/// with `-` for a root's parent.
#[must_use]
pub fn render(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 48);
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{} {parent} {} {} {} {}\n",
            s.id, s.pass, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}
