//! Built-in engine observability.
//!
//! Instrumentation is a property of *registration*, not of component
//! code: the engine counts runs and cycles, and attributes fires to
//! components through interned `engine.fired.<component>` counters and
//! `engine;<component>` profiler frames (see OBSERVABILITY.md). The
//! per-component fire tally behind both is kept only while telemetry or
//! the profiler is recording.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Interns a dynamically built metric name so it can back a registry
/// counter (which requires `&'static str`). Each unique name leaks once.
fn intern(name: String) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut map = NAMES
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(interned) = map.get(&name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}

/// The per-component fired-event counter, `engine.fired.<component>`.
pub(crate) fn fired_counter(component: &'static str) -> &'static dcb_telemetry::Counter {
    dcb_telemetry::registry().counter(intern(format!("engine.fired.{component}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = intern("engine.test.alpha".to_owned());
        let b = intern("engine.test.alpha".to_owned());
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "engine.test.alpha");
    }

    #[test]
    fn fired_counter_counts() {
        dcb_telemetry::set_enabled(true);
        let before = dcb_telemetry::snapshot()
            .counter("engine.fired.observe-test")
            .unwrap_or(0);
        fired_counter("observe-test").incr();
        let after = dcb_telemetry::snapshot()
            .counter("engine.fired.observe-test")
            .unwrap_or(0);
        dcb_telemetry::set_enabled(false);
        assert_eq!(after, before + 1);
    }
}
