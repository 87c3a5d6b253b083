//! Per-thread arenas against serial recording: one script of frames,
//! handoffs and records, run once on a single thread and once with its
//! batches fanned out over 2 to 8 threads that each enter the batch's
//! handoff, must give the same `snapshot()`, collapsed text and SVG.
//! Worker threads exit after each batch, so the parallel runs also cover
//! folding an exited thread's arena into the snapshot.

use dcb_prof::{self as prof, collapsed, svg, Profile, WorkKind};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Frame names an item opens: some shared with the enclosing path, so a
/// merge has to add into existing nodes as well as create new ones.
const NAMES: [&str; 5] = ["engine", "sim-kernel", "evaluate", "batch", "outage_end"];

/// One work item: a frame, weights at it and below it, and, for some
/// items, a nested batch that runs inline on the same thread.
fn item(i: usize) {
    let _item = prof::frame(NAMES[i % NAMES.len()]);
    prof::record(WorkKind::Cycles, i as u64 + 1);
    if i.is_multiple_of(3) {
        let _inner = prof::frame("inner");
        prof::record(WorkKind::Segments, 2);
    }
    if i.is_multiple_of(4) {
        let nested = prof::handoff().expect("recording");
        for j in 0..3 {
            let _in = prof::enter(&nested);
            let _leaf = prof::frame(NAMES[(i + j) % NAMES.len()]);
            prof::record(WorkKind::LocateIters, 30 + j as u64);
        }
    }
    prof::record(WorkKind::NodeSteps, i as u64 % 5);
}

/// Runs `items` under the calling thread's current path, on `threads`
/// scoped threads that take items from a shared queue (1 runs them on the
/// calling thread), the way `dcb-fleet`'s pool does.
fn batch(items: std::ops::Range<usize>, threads: usize) {
    let handoff = prof::handoff().expect("recording");
    let run = |i: usize| {
        let _in = prof::enter(&handoff);
        item(i);
    };
    if threads == 1 {
        items.for_each(run);
        return;
    }
    let next = AtomicUsize::new(items.start);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.end {
                    break;
                }
                run(i);
            });
        }
    });
}

/// The script: weights at the root, a batch at the root, and batches two
/// frames deep; returns the profile and its two renderings.
fn script(threads: usize) -> (Profile, String, String) {
    prof::reset();
    prof::set_enabled(true);
    prof::record(WorkKind::CacheMisses, 1);
    batch(0..10, threads);
    {
        let _fig = prof::frame("fig5");
        prof::record(WorkKind::Cycles, 5);
        batch(10..50, threads);
        {
            let _sweep = prof::frame("sweep_configs");
            batch(50..90, threads);
        }
        batch(90..100, threads);
    }
    prof::set_enabled(false);
    let profile = prof::snapshot();
    let text = collapsed::render(&profile);
    let image = svg::render(&profile);
    prof::reset();
    (profile, text, image)
}

#[test]
fn threads_entering_handoffs_match_serial_recording() {
    let serial = script(1);
    assert!(!serial.0.is_empty());
    assert!(serial
        .1
        .contains("fig5;sweep_configs;engine;inner;[segments] "));
    for threads in 2..=8 {
        let parallel = script(threads);
        assert_eq!(parallel.0, serial.0, "snapshot on {threads} threads");
        assert_eq!(parallel.1, serial.1, "collapsed text on {threads} threads");
        assert_eq!(parallel.2, serial.2, "SVG on {threads} threads");
    }
}
