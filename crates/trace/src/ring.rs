//! Bounded per-thread ring buffers and the global drain surface.
//!
//! Each recording thread owns one ring; rings register themselves in a
//! process-wide list on first use so [`drain_all`] can harvest events
//! recorded by threads that have since exited (fleet workers are scoped
//! threads spawned per batch). Once such a thread has exited, the next
//! [`drain_all`] or [`clear`] empties its ring and drops it, so the list
//! does not grow with the number of threads that ever recorded. Each ring
//! holds its thread's lanes in rising order, so [`drain_all`] merges the
//! rings rather than sorting their concatenation, and moves each event
//! once. A full ring drops its *oldest* event — the recorder keeps the
//! most recent history, like a real flight recorder — and counts the drop
//! so exporters can flag truncated traces.

use crate::event::Event;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Per-thread ring capacity. Far above any single exhibit's event count
/// (the Figure-5 sweep records a few thousand events total); a workload
/// that overflows it loses oldest-first and is flagged via [`dropped`].
pub(crate) const RING_CAPACITY: usize = 1 << 18;

type Ring = Arc<Mutex<VecDeque<Event>>>;

/// Locks a ring, recovering from poisoning: events are pushed whole and
/// the drain side only swaps the deque out, so a panicked holder cannot
/// leave a torn value.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide list of every live thread's ring, plus the rings of
/// exited threads that still hold events.
fn rings() -> &'static Mutex<Vec<Ring>> {
    static RINGS: OnceLock<Mutex<Vec<Ring>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's ring, registered globally on first push.
    static LOCAL: Ring = {
        let ring: Ring = Arc::new(Mutex::new(VecDeque::new()));
        lock(rings()).push(Arc::clone(&ring));
        ring
    };
}

/// Appends one event to the calling thread's ring.
pub(crate) fn push(event: Event) {
    LOCAL.with(|ring| {
        let mut buffer = lock(ring);
        if buffer.len() >= RING_CAPACITY {
            buffer.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        buffer.push_back(event);
    });
}

/// Drops the rings of exited threads: the list holds the only handle to
/// such a ring, and the caller has just emptied it.
fn prune_exited(rings: &mut Vec<Ring>) {
    rings.retain(|ring| Arc::strong_count(ring) > 1);
}

/// Takes every buffered event from every ring, sorted by `(lane, seq)` —
/// a total order that is a pure function of the recorded workload, not of
/// which thread recorded what.
pub(crate) fn drain_all() -> Vec<Event> {
    let mut rings = lock(rings());
    let buffers: Vec<VecDeque<Event>> = rings
        .iter()
        .map(|ring| std::mem::take(&mut *lock(ring)))
        .collect();
    prune_exited(&mut rings);
    drop(rings);
    merge_runs(buffers)
}

fn key(event: &Event) -> (u64, u32) {
    (event.lane, event.seq)
}

/// The concatenation of `rings` stably sorted by key, so equal keys keep
/// ring order. A thread records its lanes in rising order, so each ring
/// is one run in key order, or a few when the thread went back to a lower
/// lane. The rings are split into their runs and the runs merged, which
/// moves each event of a one-run ring once, into the result.
fn merge_runs(rings: Vec<VecDeque<Event>>) -> Vec<Event> {
    let mut runs: Vec<VecDeque<Event>> = Vec::with_capacity(rings.len());
    for mut ring in rings {
        // A new run starts wherever the ring falls back to a lower key.
        let falls: Vec<usize> = ring
            .make_contiguous()
            .windows(2)
            .enumerate()
            .filter(|(_, pair)| key(&pair[0]) > key(&pair[1]))
            .map(|(at, _)| at + 1)
            .collect();
        let first = runs.len();
        for &at in falls.iter().rev() {
            runs.push(ring.split_off(at));
        }
        runs.push(ring);
        runs[first..].reverse();
    }
    let mut events = Vec::with_capacity(runs.iter().map(VecDeque::len).sum());
    // Each run's next key, least first; the run index breaks ties.
    let mut heads: BinaryHeap<Reverse<((u64, u32), usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(run, events)| events.front().map(|e| Reverse((key(e), run))))
        .collect();
    while let Some(Reverse((_, run))) = heads.pop() {
        // Take from this run while it stays ahead of every other run.
        let next = heads.peek().map(|&Reverse(head)| head);
        let events_left = &mut runs[run];
        while let Some(event) = events_left.pop_front() {
            events.push(event);
            match events_left.front() {
                Some(e) if next.is_none_or(|head| (key(e), run) < head) => {}
                Some(e) => {
                    heads.push(Reverse((key(e), run)));
                    break;
                }
                None => break,
            }
        }
    }
    events
}

/// Takes only the events recorded in `lane`, leaving everything else
/// buffered. Sorted by sequence number.
pub(crate) fn drain_lane(lane: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for ring in lock(rings()).iter() {
        let mut buffer = lock(ring);
        let mut keep = VecDeque::with_capacity(buffer.len());
        for event in buffer.drain(..) {
            if event.lane == lane {
                events.push(event);
            } else {
                keep.push_back(event);
            }
        }
        *buffer = keep;
    }
    events.sort_by_key(|e| e.seq);
    events
}

/// Events discarded because a ring was full (0 in any healthy run).
pub(crate) fn dropped_count() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears every ring and the drop counter.
pub(crate) fn clear() {
    let mut rings = lock(rings());
    for ring in rings.iter() {
        lock(ring).clear();
    }
    prune_exited(&mut rings);
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drain, reset, set_enabled, test_guard, EventKind, ROOT_LANE};

    #[test]
    fn merging_runs_equals_a_stable_sort_of_the_concatenation() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for case in 0..200 {
            // Up to six rings of rising keys that sometimes fall back to a
            // lower lane, with repeated keys across and within rings.
            let rings: Vec<VecDeque<Event>> = (0..next(7))
                .map(|ring| {
                    let mut lane = next(4) << 32;
                    let mut seq = 0;
                    (0..next(12))
                        .map(|i| {
                            match next(6) {
                                0 => lane = ROOT_LANE,
                                1 => lane += 1,
                                2 => seq = next(3) as u32,
                                _ => seq += 1,
                            }
                            Event {
                                lane,
                                seq,
                                parent: None,
                                at_us: Some(case * 1_000 + ring * 100 + i),
                                dur_us: 0,
                                kind: EventKind::DustSnap,
                            }
                        })
                        .collect()
                })
                .collect();
            let mut sorted: Vec<Event> = rings.iter().flatten().cloned().collect();
            sorted.sort_by_key(key);
            assert_eq!(merge_runs(rings), sorted, "case {case}");
        }
    }

    #[test]
    fn rings_of_exited_threads_are_dropped_once_drained() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        let threads: Vec<_> = (0..64)
            .map(|_| std::thread::spawn(|| crate::instant(Some(1), None, || EventKind::DustSnap)))
            .collect();
        for thread in threads {
            assert_eq!(thread.join().expect("recording thread"), Some(0));
        }
        set_enabled(false);
        let registered = lock(rings()).len();
        assert!(registered >= 64, "each thread registers its ring");
        let events = drain();
        assert_eq!(events.len(), 64, "no event is lost with its ring");
        let kept = lock(rings()).len();
        assert!(
            kept + 64 <= registered,
            "the 64 exited threads' rings are dropped: {registered} -> {kept}"
        );
        reset();
    }
}
