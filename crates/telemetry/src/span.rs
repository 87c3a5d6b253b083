//! Hierarchical span timers with a thread-local span stack.

use std::cell::RefCell;

thread_local! {
    /// The active span names on this thread, root first. Each thread has
    /// its own stack, so spans opened on fleet workers root at that
    /// worker's top level rather than under the batch caller's span —
    /// which keeps span *paths* a pure function of the code that opened
    /// them, never of which thread the scheduler picked.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Opens a span named `name`, nested under the calling thread's currently
/// open spans (`outer/inner` paths). The span closes when the returned
/// guard drops, accumulating one call and the elapsed wall time into the
/// global [`crate::Registry`].
///
/// Call counts and paths are **stable** (deterministic for a fixed
/// workload); wall times are **volatile** and only rendered by the
/// human-facing sinks (see the crate docs). When collection is disabled
/// the guard is inert and no clock is read.
///
/// `name` must be a `'static` literal and should not contain `/` (the
/// path separator) or `"` (unescaped into reports).
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { open: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the one sanctioned wall-clock read: span wall times are volatile-only and never enter result paths"
    )]
    let started = std::time::Instant::now();
    SpanGuard {
        open: Some(OpenSpan { path, started }),
    }
}

#[derive(Debug)]
struct OpenSpan {
    path: String,
    #[expect(
        clippy::disallowed_types,
        reason = "holds the one sanctioned wall-clock read (see `span`)"
    )]
    started: std::time::Instant,
}

/// Closes its span on drop. Returned by [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        crate::registry().record_span(&open.path, open.started.elapsed().as_nanos());
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        {
            let _a = span("span-test-a");
            let _b = span("span-test-b");
        }
        {
            let _a = span("span-test-a");
        }
        crate::set_enabled(false);
        let snap = crate::snapshot();
        let calls: Vec<(&str, u64)> = snap
            .spans
            .iter()
            .filter(|s| s.path.starts_with("span-test-a"))
            .map(|s| (s.path.as_str(), s.calls))
            .collect();
        assert_eq!(
            calls,
            vec![("span-test-a", 2), ("span-test-a/span-test-b", 1)]
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        let _g = span("span-test-disabled");
        drop(_g);
        assert!(crate::snapshot()
            .spans
            .iter()
            .all(|s| s.path != "span-test-disabled"));
    }
}
